"""Time `compute_length` on one seeded random 2-generator set per order.

    PYTHONPATH=src python scripts/length_timings.py --p 101 --n 48,64 --runs 3

For each order n the pair is drawn as the length-scaling benchmark draws its
instance 0 (`instances.random_matrix` twice from SeedSequence([seed, n, 0])),
then timed `--runs` times after one untimed warm-up run. One JSON line per
order gives the basis dtype, the length, every run time in seconds, the
fastest and the median, and the process's peak RSS so far in MB. Run one
order per process to read its peak RSS alone; set OPENBLAS_NUM_THREADS=1 to
time on one BLAS thread. Comparing two checkouts: alternate processes with
PYTHONPATH pointing at each one's `src/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

import numpy as np

from matlen.instances import random_matrix
from matlen.length import GeneratingSet, compute_length
from matlen.linalg import PrimeField, SpanBasis


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--p", type=int, default=101)
    parser.add_argument("--n", default="48,64", help="comma-separated orders")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    field = PrimeField(args.p)
    for n in (int(x) for x in args.n.split(",")):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([args.seed, n, 0])))
        gs = GeneratingSet.of([random_matrix(n, field, rng) for _ in range(2)])
        report = compute_length(gs)
        times = []
        for _ in range(args.runs):
            start = time.perf_counter()
            compute_length(gs)
            times.append(time.perf_counter() - start)
        print(json.dumps({
            "p": args.p,
            "n": n,
            "dtype": np.dtype(SpanBasis(field, n * n).dtype).name,
            "length": report.length,
            "times_s": [round(t, 4) for t in times],
            "fastest_s": round(min(times), 4),
            "median_s": round(statistics.median(times), 4),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }))


if __name__ == "__main__":
    main()
