"""Exhaustive ledger audit over every set of distinct n x n matrices over F_p.

For each unordered set of `size` distinct matrices, the frontier engine's
`compute_length` must equal the all-words `brute_force_length`, and for each
generating set no applicable `bound_ledger` row may lie below the length.
`analyze_generators` runs once per matrix; a set's ledger reuses those
analyses, each re-indexed to its generator's place in the set.

Run as a script, it audits every pair of 3 x 3 matrices over F_2 (130816
sets) in one process, prints the counts and the rows met with equality,
and exits 1 on any mismatch or exceeded row:

    python tests/ledger_audit.py
"""

from __future__ import annotations

import dataclasses
import sys
from itertools import combinations, product

import numpy as np

from matlen.certificates import analyze_generators, bound_ledger
from matlen.length import GeneratingSet, brute_force_length, compute_length
from matlen.linalg import Matrix, PrimeField


@dataclasses.dataclass
class Audit:
    sets: int = 0
    generating: int = 0
    # Index tuples (into all_matrices) whose engine and oracle traces differ.
    mismatches: list[tuple[int, ...]] = dataclasses.field(default_factory=list)
    # (index tuple, row name, bound value, length) for each exceeded row.
    exceeded: list[tuple[tuple[int, ...], str, int, int]] = dataclasses.field(default_factory=list)
    # Names of the applicable rows some generating set meets with equality.
    tight: set[str] = dataclasses.field(default_factory=set)


def all_matrices(n: int, p: int) -> list[Matrix]:
    """Every n x n matrix over F_p, entries in lexicographic order."""
    field = PrimeField(p)
    return [Matrix(field, np.array(e, dtype=np.int64).reshape(n, n)) for e in product(range(p), repeat=n * n)]


def audit(n: int, p: int, size: int) -> Audit:
    mats = all_matrices(n, p)
    analyses = [analyze_generators(GeneratingSet.of([m]))[0] for m in mats]
    out = Audit()
    for combo in combinations(range(len(mats)), size):
        gs = GeneratingSet.of([mats[i] for i in combo])
        rep = compute_length(gs)
        out.sets += 1
        if rep != brute_force_length(gs, n * n):
            out.mismatches.append(combo)
        if rep.length is None:
            continue
        out.generating += 1
        ledger = bound_ledger(gs, [dataclasses.replace(analyses[i], index=j) for j, i in enumerate(combo)])
        for e in ledger.entries:
            if not e.applicable:
                continue
            if rep.length > e.bound_value:
                out.exceeded.append((combo, e.name, e.bound_value, rep.length))
            elif rep.length == e.bound_value:
                out.tight.add(e.name)
    return out


def main() -> int:
    result = audit(3, 2, 2)
    print(f"n = 3, p = 2, pairs: {result.sets} sets, {result.generating} generating")
    print(f"rows met with equality: {', '.join(sorted(result.tight))}")
    for combo in result.mismatches:
        print(f"engine and oracle differ on matrices {combo}")
    for combo, name, bound, length in result.exceeded:
        print(f"row {name} exceeded on matrices {combo}: length {length} > bound {bound}")
    return 1 if result.mismatches or result.exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
