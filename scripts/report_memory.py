"""Peak memory of one `matlen fuzz` campaign, run in this process through `cli.main`.

    PYTHONPATH=src python scripts/report_memory.py --count 30 --seed 0 --format json

Runs `fuzz --family RANDOM,T10,T12,THM39 --n 4,6,8 --p 101` at the given
`--count`, `--seed` and `--format` (at `--count 30 --format json` this is the
fuzz-campaign benchmark's campaign) once, writing the report into a temporary
directory. Prints one JSON line: the count, the format, the instances, the
report size in MB (10^6 bytes),
the peak RSS (ru_maxrss) in MB at the end, and the seconds `cli.main` took.
Each record is written as it arrives and then dropped, so there is no moment
at which all of them are held. ru_maxrss is the peak of this process so far,
so run one campaign per process; forked workers are not counted, as in the
benchmark. Comparing two checkouts: alternate processes with PYTHONPATH
pointing at each one's `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import tempfile
import time

from matlen.cli import main as matlen_main

FAMILIES = "RANDOM,T10,T12,THM39"
ORDERS = "4,6,8"


def peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=30, help="instances per (family, n) pair")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, f"report.{args.format}")
        argv = ["fuzz", "--family", FAMILIES, "--n", ORDERS, "--p", "101", "--count", str(args.count),
                "--seed", str(args.seed), "--format", args.format, "--out", out]
        start = time.perf_counter()
        code = matlen_main(argv)
        seconds = time.perf_counter() - start
        if code not in (0, 1):
            raise SystemExit(f"matlen {' '.join(argv)} exited {code}")
        size = os.path.getsize(out)
    print(json.dumps({
        "count": args.count,
        "format": args.format,
        "instances": args.count * len(FAMILIES.split(",")) * len(ORDERS.split(",")),
        "report_mb": round(size / 1e6, 1),
        "peak_rss_mb": peak_rss_mb(),
        "seconds": round(seconds, 2),
    }))


if __name__ == "__main__":
    main()
