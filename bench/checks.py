"""Output checks that share no code with matlen.

Each check re-derives a claim of a report from the instance matrices with
plain numpy arithmetic mod p and returns a list of problems (empty when the
record is correct):

* length traces: shape of the trace, and dim L_1 and dim L_2 recomputed by
  direct elimination of the words of length <= 2;
* spectra: the reported roots give an annihilating product
  prod (A - lam I)^e that no smaller exponent keeps, so they are exactly the
  minimal polynomial's roots and multiplicities;
* Jordan profiles: block counts from the rank sequence of (A - lam I)^j;
* certificates: the witness is the stated product and has the stated rank.
"""

from __future__ import annotations

import numpy as np


def rank_mod_p(rows: np.ndarray, p: int) -> int:
    """Row rank over F_p by Gaussian elimination (entries < p <= 2^20 keep int64 exact)."""
    a = np.array(rows, dtype=np.int64) % p
    r = 0
    for c in range(a.shape[1]):
        if r == a.shape[0]:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        below = a[r + 1:, c].copy()
        a[r + 1:] = (a[r + 1:] - np.outer(below, a[r])) % p
        r += 1
    return r


def shifted_product(a: np.ndarray, exponents, p: int) -> np.ndarray:
    """prod over (lam, e) of (A - lam I)^e mod p; the factors commute."""
    n = a.shape[0]
    out = np.eye(n, dtype=np.int64)
    for lam, e in exponents:
        shifted = (a - lam * np.eye(n, dtype=np.int64)) % p
        for _ in range(e):
            out = out @ shifted % p
    return out


def check_length_report(rep: dict, mats: list[np.ndarray], p: int) -> list[str]:
    n = mats[0].shape[0]
    full = n * n
    dims = rep["dims"]
    errs = []
    if dims[0] != 1 or any(b <= a for a, b in zip(dims[:-2], dims[1:-1])):
        errs.append(f"dimension trace {dims} does not start at 1 and grow")
    if rep["is_generating"]:
        if dims[-1] != full or rep["length"] != len(dims) - 1 or len(dims) > 1 and dims[-2] >= full:
            errs.append(f"generating trace {dims} with length {rep['length']} is inconsistent")
    elif rep["length"] is not None or len(dims) < 2 or dims[-1] != dims[-2]:
        errs.append(f"non-generating trace {dims} does not end on a stall")
    if rep["generated_dim"] != dims[-1]:
        errs.append("generated_dim differs from the last level")
    words = [np.eye(n, dtype=np.int64)] + list(mats)
    for level in (1, 2):
        if level >= len(dims):
            break
        if level == 2:
            words += [g @ h % p for g in mats for h in mats]
        got = rank_mod_p(np.stack([w.reshape(-1) for w in words]), p)
        if got != dims[level]:
            errs.append(f"dim L_{level} is {got}, report says {dims[level]}")
    return errs


def check_generators(record: dict, mats: list[np.ndarray], p: int) -> list[str]:
    n = mats[0].shape[0]
    errs = []
    degrees = []
    for g in record["generators"]:
        a = mats[g["index"]]
        degree = g["minpoly_degree"]
        degrees.append(degree)
        if "spectrum" not in g:
            if "not_split" not in g:
                errs.append(f"generator {g['index']} has neither a spectrum nor a non-split note")
            continue
        roots = [(int(lam), int(e)) for lam, e in g["spectrum"]]
        if sum(e for _, e in roots) != degree:
            errs.append(f"generator {g['index']}: multiplicities do not sum to degree {degree}")
        if shifted_product(a, roots, p).any():
            errs.append(f"generator {g['index']}: reported roots do not annihilate")
        for i, (lam, e) in enumerate(roots):
            smaller = roots[:i] + [(lam, e - 1)] + roots[i + 1:]
            if not shifted_product(a, smaller, p).any():
                errs.append(f"generator {g['index']}: multiplicity of {lam} is not minimal")
        profile = {int(lam): sizes for lam, sizes in g["jordan_profile"].items()}
        if sorted(profile) != sorted(lam for lam, _ in roots):
            errs.append(f"generator {g['index']}: Jordan profile eigenvalues differ from the spectrum")
            continue
        if sum(sum(sizes) for sizes in profile.values()) != n:
            errs.append(f"generator {g['index']}: Jordan blocks do not cover {n} dimensions")
        for lam, e in roots:
            ranks = [n] + [rank_mod_p(shifted_product(a, [(lam, j)], p), p) for j in range(1, e + 1)]
            for j in range(1, e + 1):
                if sum(1 for s in profile[lam] if s >= j) != ranks[j - 1] - ranks[j]:
                    errs.append(f"generator {g['index']}: blocks of size >= {j} at {lam} miscounted")
    if record["m_S"] != max(degrees):
        errs.append(f"m_S {record['m_S']} is not the largest degree {max(degrees)}")
    for gi, certs in record.get("certificates", {}).items():
        a = mats[int(gi)]
        for r_max, cert in certs.items():
            exps = [(int(lam), k) for lam, k in cert["exponents"].items()]
            witness = shifted_product(a, exps, p)
            if witness.tolist() != cert["witness"]:
                errs.append(f"generator {gi}: rank-{r_max} witness is not the stated product")
                continue
            got = rank_mod_p(witness, p)
            if got != cert["achieved_rank"] or not 1 <= got <= int(r_max):
                errs.append(f"generator {gi}: rank-{r_max} certificate has rank {got}")
            if cert["degree"] != sum(k for _, k in exps):
                errs.append(f"generator {gi}: certificate degree is not the exponent sum")
    return errs


def record_matrices(record: dict) -> list[np.ndarray]:
    return [np.array(m, dtype=np.int64) for m in record["matrices"]]


def check_fuzz_record(record: dict) -> list[str]:
    if "skipped" in record:
        return [f"instance {record['index']} skipped: {record['skipped']}"]
    mats = record_matrices(record)
    errs = check_length_report(record["length_report"], mats, record["p"])
    errs += check_generators(record, mats, record["p"])
    if record["violations"]:
        errs.append(f"instance {record['index']} violates {record['violations']}")
    return errs
