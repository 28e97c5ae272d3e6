"""Repeat the benchmark and report how much each metric spreads between runs.

    python3 bench/spread.py --runs 10 [--workloads fuzz-campaign,...] [--first-seed 0]
    python3 bench/spread.py --runs 10 --baseline bench/baseline.json

Each run is a fresh `bench/run.py` process with its own seed (first-seed,
first-seed + 1, ...) and the `run_seconds` of BENCHMARK.json. For every
metric it prints the median, the quartiles as `statistics.quantiles(n=4)`
gives them, and the quartile distance as a share of the median, next to a
third of the metric's bound. With --baseline it also makes one traced run
per workload at the default seed and writes everything, with the machine
record, to the given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT).stdout
    line = json.loads(out.strip().splitlines()[-1])
    detail = json.loads((BENCH / ".work" / workload / "result.json").read_text())
    detail["run_wall_s"] = perf_counter() - start
    return line, detail


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--baseline")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    for workload in args.workloads.split(","):
        lines, details = [], []
        for i in range(args.runs):
            line, detail = one_run(workload, args.first_seed + i, spec["run_seconds"], 0)
            lines.append(line)
            details.append(detail)
            print(f"{workload} seed {args.first_seed + i}: correct={line['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items())
                  + f" ({detail['run_wall_s']:.1f} s)", flush=True)
        summary = {}
        for name in details[0]["end_to_end"]:
            s = summarize([d["end_to_end"][name][0] for d in details])
            s["unit"] = details[0]["end_to_end"][name][1]
            summary[name] = s
            bound = bounds.get(name)
            limit = f" (bound/3 = {bound / 3:.4f})" if bound else ""
            if s["median"]:
                print(f"  {name}: median {s['median']:.5g} {s['unit']}, "
                      f"quartile spread {s['spread']:.4f}{limit}")
        entry = {"all_correct": all(line["correct"] for line in lines), "end_to_end": summary,
                 "run_wall_s": [d["run_wall_s"] for d in details]}
        if args.baseline:
            _, traced = one_run(workload, 0, spec["run_seconds"], 1)
            entry["per_layer_seed0"] = {k: v[0] for k, v in traced["per_layer"].items()}
            record["machine"] = traced["machine"]
        record["workloads"][workload] = entry
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
