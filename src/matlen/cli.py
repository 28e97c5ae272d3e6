"""Command-line surface: length, analyze, verify, fuzz, oracle-check.

Each cmd_* returns its config and its records (fuzz as a lazy iterator);
`main` alone builds the report, writes it as the records arrive and picks
the exit code: 0 when the report counts no violation, else 1; 2 usage or
parse error (a failed write, to --out or stdout, too), 3 unsupported
instance; each `MatlenError` carries its own code and label. Reports are
deterministic given the seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import reports
from .certificates import analyze_generators, bound_ledger
from .errors import EmptySet, GenerationRetriesExhausted, MatlenError, ParseError
from .instances import (
    FAMILIES,
    admissible_degrees,
    build_instance_with_meta,
    derive_instance_spec,
    random_generating_set,
)
from .length import GeneratingSet, brute_force_length, compute_length
from .linalg import PrimeField

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = MatlenError.exit_code

DEFAULT_P = 101


def _campaign(args: argparse.Namespace) -> tuple[list[int], PrimeField]:
    """The orders and field of a generated fuzz or oracle-check campaign, once
    --count, the nonempty comma-separated --n list, --seed and --p are checked."""
    if args.count < 1:
        raise EmptySet(f"count must be at least 1, got {args.count}")
    try:
        ns = [int(part) for part in args.n.split(",") if part]
    except ValueError as exc:
        raise ParseError(f"expected a comma-separated integer list, got {args.n!r}") from exc
    if not ns:
        raise ParseError("--n must list at least one order")
    for n in ns:
        if n < 1:
            raise ParseError(f"--n orders must be at least 1, got {n}")
    if args.seed < 0:
        raise ParseError(f"--seed must be non-negative, got {args.seed}")
    return ns, PrimeField(args.p)


def _record(index: int, gs: GeneratingSet, fields: dict) -> dict:
    """A report record: the index, n, p and matrices header, then fields."""
    matrices = [g.entries.tolist() for g in gs.gens]
    return {"index": index, "n": gs.n, "p": gs.field.p, "matrices": matrices, **fields}


def _write_output(report: dict, out: str | None, fmt: str) -> None:
    def destination(action):
        # Only the destination's own errors are write errors: a fuzz campaign
        # builds its records, and forks its workers, between two writes.
        try:
            return action()
        except OSError as exc:
            raise MatlenError(f"cannot write {out or 'stdout'}: {exc.strerror or exc}") from exc

    def write(text: str) -> None:
        destination(lambda: fh.write(text))

    fh = destination(lambda: open(out, "w", encoding="utf-8")) if out else sys.stdout
    try:
        if fmt == "json":
            reports.write_canonical_json(report, write)
        else:
            write(reports.report_to_csv(report))
    finally:
        destination(fh.close if out else fh.flush)


def _fuzz_one(task: tuple[str, int, int, int, int]) -> dict:
    family, n, p, master_seed, index = task
    spec = derive_instance_spec(family, n, p, master_seed, index)
    base = {
        "index": index,
        "family": family,
        "n": n,
        "p": p,
        "seed": spec.seed,
        "derivation": {"master_seed": master_seed, "family": family, "n": n, "index": index},
    }
    if spec.jordan is not None:
        base["jordan"] = [[lam, size] for lam, size in spec.jordan.blocks]
    try:
        built = build_instance_with_meta(spec)
    except GenerationRetriesExhausted as exc:
        return {**base, "skipped": str(exc)}
    gs = built.generating_set
    fields = reports.evaluate_instance(gs, built.length_report)
    return _record(index, gs, {**fields, **base, "retries": built.retries})


def _fuzz_task(task: tuple[str, int, int, int, int]) -> dict | Exception:
    """_fuzz_one, returning the errors `main` reports: imap hands a chunk over
    whole or not at all, so raising one would drop the records before it."""
    try:
        return _fuzz_one(task)
    except (MatlenError, ValueError) as exc:
        return exc


def _fuzz_workers(tasks: int) -> int:
    """Worker processes for a campaign of `tasks` instances: one per CPU this
    process may run on, at most one per FUZZ_CHUNK instances, so a one-chunk
    campaign runs serially."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, -(tasks // -FUZZ_CHUNK))


# cmd_fuzz hands its instances to the workers FUZZ_CHUNK at a time. Best
# seconds per seed-0 fuzz-campaign pass (360 instances, 2 workers; two runs,
# of 5 and 7 interleaved reps; 2-core x86 VM), by chunk size: 1: 1.06-1.13,
# 2: 0.95-1.07, 4: 0.91-1.00, 8: 0.84-0.98, 16: 0.87-0.93, 45: 0.89-1.01;
# the serial path took 1.26-1.65. Small chunks cost a round trip each, and
# large ones can leave a worker idle behind the slow n = 8 instances at the
# end of a campaign; 4-45 are within the host's noise.
FUZZ_CHUNK = 8


def cmd_fuzz(args: argparse.Namespace) -> tuple[dict, Iterator[dict]]:
    """Check the campaign, then return its records lazily. On the pool path a
    generator owns the workers: they start at its first record and are
    joined once it is exhausted, raises or is closed."""
    families = [f.strip().upper() for f in args.family.split(",") if f.strip()]
    if not families:
        raise ParseError("--family must list at least one family")
    for fam in families:
        if fam not in FAMILIES:
            raise ParseError(f"unknown family {fam!r}; choose from {', '.join(FAMILIES)}")
    ns, _ = _campaign(args)
    for fam in families:
        if fam != "RANDOM":
            for n in ns:
                admissible_degrees(fam, n)
    # Drawn lazily; the pool reads ahead only as far as the pipe to its workers holds.
    tasks = ((fam, n, args.p, args.seed, i) for fam in families for n in ns for i in range(args.count))
    config = {"count": args.count, "families": families, "n": ns, "p": args.p, "seed": args.seed}
    workers = _fuzz_workers(len(families) * len(ns) * args.count)
    # Imported here: multiprocessing and its pool module add 18-29 ms to
    # `import matlen.cli` (-X importtime), which every other command would pay.
    import multiprocessing

    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        # The serial path, and the reference the pool is tested against.
        return config, map(_fuzz_one, tasks)

    def pooled() -> Iterator[dict]:
        # Forked workers inherit the imported numpy and matlen (and any
        # monkeypatched helper). Spawn and forkserver re-import them: a
        # 2-worker pool over two n = 4 instances took 0.07-0.08 s with fork,
        # 0.37-0.75 s with spawn and 0.26-0.34 s with forkserver, which also
        # leaves its server running after the call. imap keeps task order,
        # so the report, and the first error in task order (as on the serial
        # path), do not depend on the workers.
        # Leaving the `with` terminates and joins the workers, idle once imap
        # is exhausted, before `main` returns: callers such as the benchmark
        # run `main` again and again in one process.
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            for record in pool.imap(_fuzz_task, tasks, FUZZ_CHUNK):
                if isinstance(record, Exception):
                    raise record
                yield record

    return config, pooled()


def _check_max_level(args: argparse.Namespace) -> None:
    if args.max_level is not None and args.max_level < 0:
        raise ParseError(f"--max-level must be non-negative, got {args.max_level}")


def cmd_length(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    _check_max_level(args)
    gs = reports.load_instance(args.input)
    rep = compute_length(gs, max_levels=args.max_level)
    fields = {"length_report": reports.length_report_to_json(rep), "violations": []}
    return {"input": args.input}, [_record(0, gs, fields)]


def cmd_analyze(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    gs = reports.load_instance(args.input)
    analyses = analyze_generators(gs)
    fields = {**reports.analysis_fields(analyses, bound_ledger(gs, analyses)), "violations": []}
    nonsplit = [a.index for a in analyses if a.split_error is not None]
    if nonsplit:
        fields["warnings"] = [
            f"generator {i} has a non-split spectrum; Jordan-dependent bounds are undecidable"
            for i in nonsplit
        ]
    return {"input": args.input}, [_record(0, gs, fields)]


def cmd_verify(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    gs = reports.load_instance(args.input)
    fields = reports.evaluate_instance(gs, compute_length(gs))
    return {"input": args.input}, [_record(0, gs, fields)]


def cmd_oracle_check(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    _check_max_level(args)
    if args.input is not None:
        sets = [reports.load_instance(args.input)]
        ns = [sets[0].n]
        config = {"input": args.input}
    else:
        ns, field = _campaign(args)

        def generated(n: int, i: int) -> GeneratingSet:
            state = np.random.SeedSequence((args.seed, n, i)).generate_state(1, np.uint64)
            return random_generating_set(n, field, 2, int(state[0]))

        # Drawn lazily, in the loop below, once every order has passed its check.
        sets = (generated(n, i) for n in ns for i in range(args.count))
        config = {"count": args.count, "n": ns, "p": args.p, "seed": args.seed}
    for n in ns:
        if n > 3:
            raise ValueError(f"oracle-check supports n <= 3, got {n}")
    records = []
    for index, gs in enumerate(sets):
        if len(gs.gens) > 3:
            raise ValueError(f"oracle-check supports at most 3 generators, got {len(gs.gens)}")
        max_len = args.max_level if args.max_level is not None else gs.n * gs.n
        fast = compute_length(gs)
        slow = brute_force_length(gs, max_len)
        fields = {
            "length_report": reports.length_report_to_json(fast),
            "oracle_report": reports.length_report_to_json(slow),
            "violations": []
            if fast == slow
            else [{"bound": "oracle_mismatch", "bound_value": -1, "length": -1}],
        }
        records.append(_record(index, gs, fields))
    return config, records


# Built once per process: parse_args leaves the parser unchanged, and building
# the five subcommands took about 1.1 ms a call against 0.05 ms to parse
# (2-core x86 VM), a sixth of an `analyze` call over F_1048573.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matlen",
        description="Exact computation and verification of matrix-algebra generating-set lengths over F_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_length = sub.add_parser("length", help="dimension trace and length of an instance file")
    p_length.add_argument("--input", required=True)
    p_length.add_argument("--max-level", type=int, default=None)
    add_io(p_length)
    p_length.set_defaults(func=cmd_length)

    p_an = sub.add_parser("analyze", help="spectral data, bound ledger, and certificates")
    p_an.add_argument("--input", required=True)
    add_io(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="check the computed length against every applicable bound")
    p_ver.add_argument("--input", required=True)
    add_io(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="seeded campaign over generated instances")
    p_fuzz.add_argument("--count", type=int, required=True, help="instances per (family, n) pair")
    p_fuzz.add_argument("--family", default="RANDOM", help="comma-separated family presets")
    p_fuzz.add_argument("--n", required=True, help="comma-separated matrix orders")
    p_fuzz.add_argument("--p", type=int, default=DEFAULT_P)
    p_fuzz.add_argument("--seed", type=int, default=0)
    add_io(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_oc = sub.add_parser("oracle-check", help="frontier engine vs all-words brute force")
    src = p_oc.add_mutually_exclusive_group(required=True)
    src.add_argument("--input")
    src.add_argument("--count", type=int)
    p_oc.add_argument("--n", default="2,3")
    p_oc.add_argument("--p", type=int, default=DEFAULT_P)
    p_oc.add_argument("--seed", type=int, default=0)
    p_oc.add_argument("--max-level", type=int, default=None)
    add_io(p_oc)
    p_oc.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    records: Iterable[dict] = []
    summary = reports.Summary()
    try:
        config, records = args.func(args)
        report = reports.make_report(args.command, {"command": args.command, **config}, records, summary)
        _write_output(report, args.out, args.format)
    except MatlenError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        # Closing a pooled campaign part-way terminates and joins its workers.
        if hasattr(records, "close"):
            records.close()
    if summary.warned:
        print("warning: non-split spectrum; some ledger rows are undecidable", file=sys.stderr)
    return EXIT_OK if summary.fields["violation_count"] == 0 else EXIT_VIOLATION


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
