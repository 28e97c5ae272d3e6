"""Command-line surface: length, analyze, verify, fuzz, oracle-check.

Exit codes: 0 success / no violation, 1 violation found, 2 usage or parse
error (an unwritable --out too), 3 unsupported instance. Reports are
deterministic given the seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import reports
from .certificates import analyze_generators, bound_ledger
from .errors import (
    BudgetExceeded,
    EmptySet,
    FamilyHypothesisViolated,
    GenerationRetriesExhausted,
    MatlenError,
    ModulusTooLarge,
    NotPrime,
    NotSplit,
    ParseError,
    SizeMismatch,
)
from .instances import (
    FAMILIES,
    InstanceSpec,
    JordanSpec,
    admits_degree,
    build_instance_with_meta,
    random_generating_set,
    random_jordan_spec,
)
from .length import brute_force_length, compute_length
from .linalg import PrimeField

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

DEFAULT_P = 101
_FAMILY_CODE = {name: i for i, name in enumerate(FAMILIES)}


def _parse_orders(text: str) -> list[int]:
    """The nonempty comma-separated list of matrix orders given to --n."""
    try:
        ns = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise ParseError(f"expected a comma-separated integer list, got {text!r}") from exc
    if not ns:
        raise ParseError("--n must list at least one order")
    for n in ns:
        if n < 1:
            raise ParseError(f"--n orders must be at least 1, got {n}")
    return ns


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ParseError(f"--seed must be non-negative, got {seed}")


def _write_output(report: dict, out: str | None, fmt: str) -> None:
    text = reports.canonical_json(report) if fmt == "json" else reports.report_to_csv(report)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise MatlenError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _admissible_params(family: str, n: int) -> list[int]:
    """Minimal-polynomial degrees m >= 2 to cycle through, ascending; [0] for RANDOM.

    m = 1 makes the distinguished generator scalar, which never helps generate.
    """
    if family == "RANDOM":
        return [0]
    degrees = [m for m in range(2, n + 1) if admits_degree(family, n, m)]
    if not degrees:
        raise FamilyHypothesisViolated(f"no admissible minimal-polynomial degree for {family} at n={n}")
    return degrees


def derive_instance_spec(
    family: str, n: int, p: int, master_seed: int, index: int
) -> InstanceSpec:
    """Deterministic per-index instance recipe for a fuzz campaign."""
    entropy = (master_seed, _FAMILY_CODE[family], n, index)
    state = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    choice_rng = np.random.Generator(np.random.PCG64(int(state[0])))
    spec_seed = int(state[1])
    field = PrimeField(p)
    params = _admissible_params(family, n)
    m = params[index % len(params)]
    if family == "RANDOM":
        jordan = None
    elif family == "THM39":
        lam = int(choice_rng.integers(0, p))
        jordan = JordanSpec(blocks=((lam, m), (lam, m)))
    else:
        jordan = random_jordan_spec(n, field, choice_rng, degree=m)
    # Low-degree families need a second companion: with m(S) = m, every word
    # through a rank-r polynomial insertion collapses into outer products, so
    # a pair spans at most ~m + r*m^2 dimensions; concentrated spectra in the
    # m <= n/2 window (and any m = 2 prescription) make that < n^2.
    low_degree = family in ("T12", "THM39") or (
        jordan is not None and jordan.minpoly_degree() == 2 and n >= 3
    )
    extra = 2 if low_degree else 1
    return InstanceSpec(n=n, p=p, jordan=jordan, extra_gens=extra, seed=spec_seed, family=family)


def _fuzz_one(family: str, n: int, p: int, master_seed: int, index: int) -> dict:
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
        base["skipped"] = str(exc)
        return base
    record = reports.evaluate_instance(built.generating_set, built.length_report)
    record.update(base)
    record["matrices"] = [g.entries.tolist() for g in built.generating_set.gens]
    record["retries"] = built.retries
    return record


def _fuzz_task(task: tuple[str, int, int, int, int]) -> dict:
    return _fuzz_one(*task)


def _fuzz_workers(tasks: list) -> int:
    """Worker processes for a campaign: one per CPU this process may run on, at most one per task."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, len(tasks))


# cmd_fuzz hands its instances to the workers FUZZ_CHUNK at a time. Best
# seconds per seed-0 fuzz-campaign pass (360 instances, 2 workers; two runs,
# of 5 and 7 interleaved reps; 2-core x86 VM), by chunk size: 1: 1.06-1.13,
# 2: 0.95-1.07, 4: 0.91-1.00, 8: 0.84-0.98, 16: 0.87-0.93, 45: 0.89-1.01;
# the serial path took 1.26-1.65. Small chunks cost a round trip each, and
# large ones can leave a worker idle behind the slow n = 8 instances at the
# end of a campaign; 4-45 are within the host's noise.
FUZZ_CHUNK = 8


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise EmptySet(f"count must be at least 1, got {args.count}")
    families = [f.strip().upper() for f in args.family.split(",") if f.strip()]
    if not families:
        raise ParseError("--family must list at least one family")
    for fam in families:
        if fam not in FAMILIES:
            raise ParseError(f"unknown family {fam!r}; choose from {', '.join(FAMILIES)}")
    ns = _parse_orders(args.n)
    _check_seed(args.seed)
    PrimeField(args.p)  # validate modulus up front
    for fam in families:
        for n in ns:
            _admissible_params(fam, n)
    tasks = [(fam, n, args.p, args.seed, i) for fam in families for n in ns for i in range(args.count)]
    workers = _fuzz_workers(tasks)
    # Imported here: multiprocessing and its pool module add 18-29 ms to
    # `import matlen.cli` (-X importtime), which every other command would pay.
    import multiprocessing

    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        # The serial path, and the reference the pool is tested against.
        records = list(map(_fuzz_task, tasks))
    else:
        # Forked workers inherit the imported numpy and matlen (and any
        # monkeypatched helper). Spawn and forkserver re-import them: a
        # 2-worker pool over two n = 4 instances took 0.07-0.08 s with fork,
        # 0.37-0.75 s with spawn and 0.26-0.34 s with forkserver, which also
        # leaves its server running after the call. imap keeps task order,
        # so the report, and the first error in task order (as on the serial
        # path), do not depend on the workers.
        # The pool lives and is joined within this call: callers such as the
        # benchmark run `main` again and again in one process.
        pool = multiprocessing.get_context("fork").Pool(workers)
        try:
            records = list(pool.imap(_fuzz_task, tasks, FUZZ_CHUNK))
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()
    config = {
        "command": "fuzz",
        "count": args.count,
        "families": families,
        "n": ns,
        "p": args.p,
        "seed": args.seed,
    }
    report = reports.make_report("fuzz", config, records)
    _write_output(report, args.out, args.format)
    return EXIT_OK if report["summary"]["violation_count"] == 0 else EXIT_VIOLATION


def cmd_length(args: argparse.Namespace) -> int:
    gs = reports.load_instance(args.input)
    rep = compute_length(gs, max_levels=args.max_level)
    record = {
        "index": 0,
        "n": gs.n,
        "p": gs.field.p,
        "matrices": [g.entries.tolist() for g in gs.gens],
        "length_report": reports.length_report_to_json(rep),
        "violations": [],
    }
    report = reports.make_report("length", {"command": "length", "input": args.input}, [record])
    _write_output(report, args.out, args.format)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    gs = reports.load_instance(args.input)
    analyses = analyze_generators(gs)
    record = {
        "index": 0,
        "n": gs.n,
        "p": gs.field.p,
        "matrices": [g.entries.tolist() for g in gs.gens],
        **reports.analysis_fields(analyses, bound_ledger(gs, analyses)),
        "violations": [],
    }
    nonsplit = [a.index for a in analyses if a.split_error is not None]
    if nonsplit:
        record["warnings"] = [
            f"generator {i} has a non-split spectrum; Jordan-dependent bounds are undecidable"
            for i in nonsplit
        ]
    report = reports.make_report("analyze", {"command": "analyze", "input": args.input}, [record])
    _write_output(report, args.out, args.format)
    if nonsplit:
        print("warning: non-split spectrum; some ledger rows are undecidable", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    gs = reports.load_instance(args.input)
    record = reports.evaluate_instance(gs, compute_length(gs))
    record["index"] = 0
    record["matrices"] = [g.entries.tolist() for g in gs.gens]
    report = reports.make_report("verify", {"command": "verify", "input": args.input}, [record])
    _write_output(report, args.out, args.format)
    return EXIT_OK if not record["violations"] else EXIT_VIOLATION


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.input is not None:
        sets = [(0, reports.load_instance(args.input))]
        config = {"command": "oracle-check", "input": args.input}
    else:
        if args.count < 1:
            raise EmptySet(f"count must be at least 1, got {args.count}")
        ns = _parse_orders(args.n)
        _check_seed(args.seed)
        field = PrimeField(args.p)
        sets = []
        index = 0
        for n in ns:
            if n > 3:
                raise ValueError(f"oracle-check supports n <= 3, got {n}")
            for i in range(args.count):
                state = np.random.SeedSequence((args.seed, n, i)).generate_state(1, np.uint64)
                sets.append((index, random_generating_set(n, field, 2, int(state[0]))))
                index += 1
        config = {
            "command": "oracle-check",
            "count": args.count,
            "n": ns,
            "p": args.p,
            "seed": args.seed,
        }
    records = []
    for index, gs in sets:
        if gs.n > 3:
            raise ValueError(f"oracle-check supports n <= 3, got {gs.n}")
        if len(gs.gens) > 3:
            raise ValueError(f"oracle-check supports at most 3 generators, got {len(gs.gens)}")
        max_len = args.max_level if args.max_level is not None else gs.n * gs.n
        fast = compute_length(gs)
        slow = brute_force_length(gs, max_len)
        match = fast == slow
        records.append(
            {
                "index": index,
                "n": gs.n,
                "p": gs.field.p,
                "matrices": [g.entries.tolist() for g in gs.gens],
                "length_report": reports.length_report_to_json(fast),
                "oracle_report": reports.length_report_to_json(slow),
                "violations": []
                if match
                else [{"bound": "oracle_mismatch", "bound_value": -1, "length": -1}],
            }
        )
    report = reports.make_report("oracle-check", config, records)
    _write_output(report, args.out, args.format)
    return EXIT_OK if report["summary"]["violation_count"] == 0 else EXIT_VIOLATION


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
    try:
        return args.func(args)
    except (ParseError, NotPrime, EmptySet, BudgetExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        ModulusTooLarge,
        FamilyHypothesisViolated,
        GenerationRetriesExhausted,
        SizeMismatch,
        NotSplit,
    ) as exc:
        print(f"unsupported instance: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except MatlenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
