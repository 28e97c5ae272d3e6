"""matlen benchmark: three workloads driven in-process through `matlen.cli.main`.

    python3 bench/run.py --workload fuzz-campaign --seed 0 --seconds 30 --trace 0

Run it from any directory; it works on the checkout that contains it and
imports matlen from that checkout's `src/`. Workloads (see README.md):

* fuzz-campaign: `fuzz --family RANDOM,T10,T12,THM39 --n 4,6,8 --p 101`,
  30 instances per (family, n) pair, one campaign per pass.
* length-scaling: `length --input` on random 2-generator sets over F_101 at
  n = 16 (4 instances), 24 (2) and 32 (1) per pass.
* analyze-wide-field: `analyze --input` on 160 preset instances over
  F_1048573, built during set-up.

A run sets up at least `SETUP_REPEATS` times, and until `SETUP_SECONDS` of
set-up have passed (a fresh interpreter importing matlen, then instance
generation and file writes), then repeats whole passes over the workload
until the timed calls add up to about `--seconds` (it stops at the pass
boundary nearest to it). Only the `cli.main` calls are timed. The host's
speed is sampled throughout (see hostspeed.py), and `setup_s` and
`instances_per_s` are given in reference-host seconds; their wall-clock
values are printed too. Every output is checked (see checks.py); every later
pass must reproduce the first pass byte for byte, and at the default seed
(and any other seed pinned in pinned.json) the first pass must match the
pinned digest.

With `--trace 1` one more pass runs with every public matlen function
wrapped (see spans.py); its reports must match the untraced ones, its
spans go to `bench/.work/<workload>/spans.tsv`, and the per-layer metrics
replace the end-to-end ones in the result line.

Human-readable lines come first; the last line of stdout is the JSON result
`{"correct", "attempted", "failed", "metrics"}`. The machine record and all
metrics also go to `bench/.work/<workload>/result.json`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import spans
from hostspeed import HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
PINNED = BENCH / "pinned.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0  # a sub-second set-up is repeated more often, for a steadier median
END_TO_END = ("setup_s", "instances_per_s", "peak_rss_mb")

FULL = {
    "fuzz-campaign": {"families": "RANDOM,T10,T12,THM39", "n": "4,6,8", "p": 101, "count": 30},
    "length-scaling": {"p": 101, "orders": ((16, 4), (24, 2), (32, 1))},
    # p = 1048573 is the largest prime under the 2^20 modulus cap, so every
    # split_roots call scans about a million points.
    "analyze-wide-field": {
        "p": 1048573,
        "pairs": (
            ("T10", 10), ("T10", 12), ("T11", 11), ("T12", 10),
            ("T12", 11), ("T12", 12), ("THM39", 10), ("THM39", 12),
        ),
        "per_pair": 20,
    },
}
# The same workloads at a size the benchmark's own tests can afford.
TINY = {
    "fuzz-campaign": {"families": "RANDOM,T10,T12,THM39", "n": "4", "p": 101, "count": 2},
    "length-scaling": {"p": 101, "orders": ((4, 2), (6, 1))},
    "analyze-wide-field": {"p": 1048573, "pairs": (("T10", 4), ("THM39", 4)), "per_pair": 1},
}


@dataclass
class Op:
    """One `cli.main` call and how to check its report."""

    argv: list[str] | None  # None: the instance could not be built in set-up
    out: str
    instances: int
    tag: str = ""  # groups per-instance times (length-scaling: "n16", ...)
    check: Callable[[dict], list[tuple[object, str]]] | None = None  # -> (instance, problem) pairs


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)  # wall seconds per op
    digests: list[str | None] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)
    factor: float = 1.0  # reference seconds per wall second over the pass

    def ref_time(self) -> float:
        return sum(self.times) * self.factor

    def digest(self) -> str:
        return hashlib.sha256("\n".join(map(str, self.digests)).encode()).hexdigest()


def write_instance(path: str, p: int, mats) -> None:
    body = {"schema": 1, "p": p, "n": len(mats[0]), "matrices": mats}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh)


def single_instance_check(mats, p: int, check_record):
    """Check of a one-instance report: its matrices are the input, then check_record."""

    def check(report):
        record = report["instances"][0]
        if record["matrices"] != mats:
            return [(0, "report matrices differ from the input")]
        arrays = [np.array(m, dtype=np.int64) for m in mats]
        return [(0, e) for e in check_record(record, arrays, p)]

    return check


# --- workloads: set-up returns the ops of one pass ---------------------------


def setup_fuzz(matlen, seed: int, size: dict, work: str) -> list[Op]:
    families = size["families"].split(",")
    orders = [int(n) for n in size["n"].split(",")]
    expected = len(families) * len(orders) * size["count"]
    out = f"{work}/report.json"
    argv = [
        "fuzz", "--family", size["families"], "--n", size["n"], "--p", str(size["p"]),
        "--count", str(size["count"]), "--seed", str(seed), "--out", out,
    ]

    def check(report):
        problems = [
            ((r["family"], r["n"], r["index"]), e)
            for r in report["instances"] for e in checks.check_fuzz_record(r)
        ]
        if report["summary"]["instances"] != expected:
            problems.append((None, f"{report['summary']['instances']} instances, expected {expected}"))
        return problems

    return [Op(argv, out, expected, check=check)]


def setup_length(matlen, seed: int, size: dict, work: str) -> list[Op]:
    p = size["p"]
    field_ = matlen.linalg.PrimeField(p)
    ops = []
    for n, count in size["orders"]:
        for i in range(count):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, n, i])))
            mats = [matlen.instances.random_matrix(n, field_, rng).entries.tolist() for _ in range(2)]
            path = f"{work}/n{n}_{i}.json"
            write_instance(path, p, mats)
            out = f"{work}/out_n{n}_{i}.json"
            check = single_instance_check(
                mats, p, lambda record, arrays, q: checks.check_length_report(record["length_report"], arrays, q)
            )
            ops.append(Op(["length", "--input", path, "--out", out], out, 1, f"n{n}", check))
    return ops


def setup_analyze(matlen, seed: int, size: dict, work: str) -> list[Op]:
    p = size["p"]
    ops = []
    for i in range(size["per_pair"]):
        for family, n in size["pairs"]:
            tag = f"{family}_n{n}_{i}"
            out = f"{work}/out_{tag}.json"
            spec = matlen.cli.derive_instance_spec(family, n, p, seed, i)
            try:
                built = matlen.instances.build_instance_with_meta(spec)
            except matlen.errors.GenerationRetriesExhausted:
                ops.append(Op(None, out, 1))
                continue
            mats = [g.entries.tolist() for g in built.generating_set.gens]
            path = f"{work}/{tag}.json"
            write_instance(path, p, mats)
            check = single_instance_check(mats, p, checks.check_generators)
            ops.append(Op(["analyze", "--input", path, "--out", out], out, 1, check=check))
    return ops


SETUP = {"fuzz-campaign": setup_fuzz, "length-scaling": setup_length, "analyze-wide-field": setup_analyze}


# --- measurement --------------------------------------------------------------


def import_matlen():
    """Import matlen from this checkout's src/, never from an installed copy."""
    if not (SRC / "matlen" / "__init__.py").is_file():
        raise SystemExit(f"error: no matlen sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import matlen
    import matlen.cli
    import matlen.errors

    if SRC not in Path(matlen.__file__).resolve().parents:
        raise SystemExit(f"error: imported matlen from {matlen.__file__}, not from {SRC}")
    return matlen


def timed_setup(clock: HostClock, matlen, workload: str, seed: int, size: dict, work: str):
    """Fresh-interpreter import of matlen plus instance generation and writes.

    Returns (wall seconds, ops)."""
    start = clock.mark()
    subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import matlen.cli"],
        check=True,
    )
    ops = SETUP[workload](matlen, seed, size, work)
    return clock.work_since(start), ops


def run_pass(matlen, ops: list[Op], clock: HostClock, tracer=None) -> Pass:
    result = Pass()
    pass_start = clock.mark()
    for i, op in enumerate(ops):
        if op.argv is None:
            result.times.append(0.0)
            result.digests.append(None)
            continue
        if tracer is not None:
            tracer.instance = i
        if os.path.exists(op.out):
            os.remove(op.out)
        err = io.StringIO()
        start = clock.mark()
        try:
            with redirect_stderr(err):
                code = matlen.cli.main(op.argv)
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            code = f"raised {exc!r}"
        result.times.append(clock.work_since(start))
        if code == 0:
            with open(op.out, "rb") as fh:
                result.digests.append(hashlib.sha256(fh.read()).hexdigest())
        else:
            result.digests.append(f"exit {code}: {err.getvalue().strip()[-300:]}")
    result.factor = clock.factor_since(pass_start)
    return result


def check_pass(ops: list[Op], first: Pass, current: Pass, problems: list) -> None:
    """Fill current.failed; the first pass is checked in depth, later ones against it."""
    for i, op in enumerate(ops):
        d = current.digests[i]
        if op.argv is None:
            failed, found = op.instances, ["instance not built: generation retries exhausted"]
        elif d is None or len(d) != 64:
            failed, found = op.instances, [str(d)]
        elif current is not first:
            same = d == first.digests[i]
            failed = first.failed[i] if same else op.instances
            found = [] if same else ["report differs from the first pass"]
        else:
            try:
                with open(op.out, encoding="utf-8") as fh:
                    pairs = op.check(json.load(fh))
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                pairs = [(None, f"malformed report: {exc!r}")]
            failed = min(op.instances, len({instance for instance, _ in pairs}))
            found = [msg for _, msg in pairs]
        current.failed.append(failed)
        problems.extend(f"{op.out}: {msg}" for msg in found)


def blas_threads() -> str:
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def machine() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu or "unknown",
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: dict | None = None) -> dict:
    """Run one benchmark measurement and return metrics, counts and problems."""
    full = size is None
    size = FULL[workload] if full else size
    cwd = os.getcwd()
    os.chdir(ROOT)  # reports embed the relative instance paths, so digests need a fixed cwd
    try:
        with HostClock() as clock:
            return _measure(clock, workload, seed, seconds, trace, full, size)
    finally:
        os.chdir(cwd)


def _measure(clock: HostClock, workload: str, seed: int, seconds: float, trace: bool, full: bool,
             size: dict) -> dict:
    matlen = import_matlen()
    os.environ.pop("MATLEN_JOBS", None)  # default --jobs width
    work = os.path.relpath(WORK / workload, ROOT)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup_start = clock.mark()
    setup_walls = []
    while len(setup_walls) < SETUP_REPEATS or sum(setup_walls) < SETUP_SECONDS:
        wall, ops = timed_setup(clock, matlen, workload, seed, size, work)
        setup_walls.append(wall)
    # One factor for all set-ups: a sub-second set-up holds too few probes.
    setup_factor = clock.factor_since(setup_start)
    per_pass = sum(op.instances for op in ops)

    problems: list[str] = []
    passes: list[Pass] = []
    timed = 0.0
    # Stop at the pass boundary nearest to `seconds` of timed calls.
    while not passes or timed + sum(passes[-1].times) / 2 < seconds:
        passes.append(run_pass(matlen, ops, clock))
        if len(passes) == 1:
            # Set-up and one pass, before the checks load the reports: later
            # passes repeat the same work, and their number varies with the host.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_pass(ops, passes[0], passes[-1], problems)
        timed += sum(passes[-1].times)
    pins = json.loads(PINNED.read_text()).get(str(seed), {})
    if full and (pins or seed == DEFAULT_SEED):
        pinned = pins.get(workload)
        if passes[0].digest() != pinned:
            problems.append(f"pass digest {passes[0].digest()} differs from pinned {pinned}")
            for p in passes:
                p.failed = [op.instances for op in ops]

    ref_times = [p.ref_time() for p in passes]
    e2e = {
        "setup_s": (statistics.median(setup_walls) * setup_factor, "s"),
        "instances_per_s": (statistics.median(per_pass / t for t in ref_times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_wall_s": (statistics.median(setup_walls), "s"),
        "instances_per_wall_s": (statistics.median(per_pass / sum(p.times) for p in passes), "1/s"),
        "host_speed": (statistics.median(p.factor for p in passes), "ratio"),
    }
    samples = {}
    if workload == "analyze-wide-field":
        times = [t * p.factor for p in passes for t, op in zip(p.times, ops) if op.argv is not None]
        e2e["instance_p50_s"] = (statistics.median(times), "s")
        e2e["instance_p90_s"] = (statistics.quantiles(times, n=10)[-1], "s")
        samples = {"instance_p50_s": len(times), "instance_p90_s": len(times)}
    if workload == "length-scaling":
        for n, _ in size["orders"]:
            times = [t * p.factor for p in passes for t, op in zip(p.times, ops) if op.tag == f"n{n}"]
            e2e[f"length_n{n}_s"] = (statistics.median(times), "s")
            samples[f"length_n{n}_s"] = len(times)

    layers = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(matlen, ops, clock, tracer)
        finally:
            tracer.uninstall()
        check_pass(ops, passes[0], traced, problems)
        passes.append(traced)
        layers = spans.layer_metrics(tracer, per_pass, traced.ref_time(), statistics.median(ref_times))
        tracer.write(f"{work}/spans.tsv")

    attempted = per_pass * len(passes)
    failed = sum(sum(p.failed) for p in passes)
    e2e["failed_ratio"] = (failed / attempted, "ratio")
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(passes) - (1 if trace else 0),
        "pass_wall_s": [sum(p.times) for p in passes],
        "pass_factor": [p.factor for p in passes],
        "digest": passes[0].digest(),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "samples": samples,
        "per_layer": layers,
        "machine": machine(),
    }


def report_lines(result: dict) -> list[str]:
    m = result["machine"]
    lines = [
        f"machine: python {m['python']}, numpy {m['numpy']}, blas {m['blas']} "
        f"({m['blas_threads']} threads), nproc {m['nproc']}, cpu {m['cpu']}",
        f"workload {result['workload']} seed {result['seed']}: {result['passes']} passes, "
        f"report digest {result['digest']}",
    ]
    for name, (value, unit) in result["end_to_end"].items():
        n = result["samples"].get(name)
        lines.append(f"{name} = {value:.6g} {unit}" + (f" (n={n})" if n else ""))
    for name, (value, unit) in (result["per_layer"] or {}).items():
        lines.append(f"{name} = {value:.6g} {unit}")
    lines += [f"problem: {p}" for p in result["problems"][:20]]
    return lines


def result_line(result: dict) -> dict:
    if result["per_layer"] is not None:
        chosen = result["per_layer"]
    else:
        chosen = {name: result["end_to_end"][name] for name in END_TO_END}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(result):
        print(line)
    with open(WORK / args.workload / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
