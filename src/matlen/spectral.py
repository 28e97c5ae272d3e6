"""Minimal polynomials, split spectra, and Jordan block profiles over F_p.

A spectrum only exists when the minimal polynomial factors into linear terms
over the working field; non-split instances raise NotSplit and are treated
as outside the supported regime (the generators never emit them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CharPolyNotSplit, NotSplit
from .linalg import Matrix, Polynomial, _check_pair, _companion_powers, _eval_rows, _rref_array, _stack_ranks
from .linalg import _canonical_coeffs, _divmod_coeffs, _divmod_linear_coeffs, _gcd_coeffs, _mul_coeffs


@dataclass(frozen=True)
class Spectrum:
    """Distinct roots of the minimal polynomial with their multiplicities.

    roots is sorted by eigenvalue; multiplicities sum to the minimal
    polynomial degree.
    """

    roots: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class JordanProfile:
    """Per-eigenvalue multisets of Jordan block sizes, sorted descending."""

    blocks: dict[int, tuple[int, ...]]


def minimal_polynomial(a: Matrix) -> Polynomial:
    """Monic minimal polynomial via the first Krylov dependence.

    One Gauss-Jordan pass over the columns vec(I), vec(A), ..., vec(A^n) of `a.powers()`.
    Once A^d depends on I, ..., A^(d-1), so does every higher power, so the
    pivots are 0..d-1 with d the degree, and column d of the RREF holds the
    coordinates of A^d over I, ..., A^(d-1).
    """
    field, n = a.field, a.n
    reduced, pivots = _rref_array(a.powers().reshape(n + 1, n * n).T, field)
    d = len(pivots)
    if d > n or pivots != list(range(d)):
        raise RuntimeError(f"Krylov pivots {pivots} of an order-{n} matrix are not a proper prefix")
    return Polynomial(field, [-int(c) for c in reduced[:d, d]] + [1])


# split_roots scans every field element for roots while p <= SCAN_MAX_P and
# splits algebraically above. Median ms per call on fully split polynomials of
# degree 3-12 (30 per prime, 7 alternating runs, two runs; 2-core x86 VM),
# scan / splitting: p = 101: 0.04 / 0.73-0.81, 1021: 0.07 / 0.61-0.67,
# 4093: 0.19 / 0.62-0.77, 16381: 0.60-0.66 / 0.56-0.74, 17989: 0.68-0.74 /
# 0.54-0.78, 19997: 0.94-0.95 / 0.78-1.04, 21997: 0.84-0.91 / 0.72-0.78,
# 24989: 1.0-1.1 / 0.69-0.90, 32749: 1.4-1.5 / 0.75-0.84, 65521: 2.9-3.0 /
# 0.83-0.98, 262139: 13-14 / 0.73-0.83, 1048573: 64-66 / 0.84. The scan grows
# with p, splitting with log p; they cross at about p = 16000-20000.
SCAN_MAX_P = 20000


def scan_roots(poly: Polynomial) -> list[int]:
    """Distinct roots of poly in F_p, ascending, by evaluating it at every element.

    The reference that `splitting_roots` is tested against.
    """
    xs = np.arange(poly.field.p, dtype=np.int64)
    return xs[poly.eval_many(xs) == 0].tolist()


# splitting_roots computes the powers (x + a)^((p-1)/2) mod f for SHIFT_BATCH
# consecutive shifts a per `_companion_powers` call, and the next batch only
# when a factor runs past them. Seconds for the 420 minimal polynomials of a
# seed-0 analyze-wide-field pass (degree 2-12, p = 1048573; median of 21
# interleaved reps, two runs; 2-core x86 VM), by batch: 1: 0.17-0.21,
# 2: 0.13-0.16, 3: 0.12-0.14, 4: 0.12-0.13, 6: 0.11-0.15, 8: 0.12-0.14,
# 12: 0.14-0.17. A batch of one costs a numpy round trip per shift, and a
# large one squares shifts that few factors reach; 4-8 tie.
SHIFT_BATCH = 6


def splitting_roots(poly: Polynomial) -> list[int]:
    """Distinct roots of a nonzero poly in F_p, p odd, ascending, without a scan.

    g = gcd(poly, x^p - x) is the product of poly's distinct linear factors.
    Rabin's splitting then takes gcd(g, (x+a)^((p-1)/2) - 1) for a = 0, 1, 2, ...
    (mod p) until the gcd is a proper factor, and splits both parts the same
    way, going on from the next a, down to degree 1. Each pair of distinct
    roots r, s is separated by at least (p-1)/2 of the p shifts (those where
    exactly one of r+a, s+a is a nonzero square), so the search always ends,
    and it uses no random numbers.

    One chain serves the whole polynomial: h_a = (x+a)^((p-1)/2) mod f, f the
    monic poly, comes from `_companion_powers` SHIFT_BATCH shifts at a time.
    x^p mod f is x * h_0^2 mod f, and since every factor g divides f, the
    Rabin step on g reads (x+a)^((p-1)/2) mod g as h_a mod g.
    """
    field = poly.field
    p = field.p
    if p == 2:
        raise ValueError("Rabin splitting needs an odd prime")
    half = (p - 1) // 2
    lead_inv = field.inv(poly.coeffs[-1])
    monic = Polynomial(field, [c * lead_inv for c in poly.coeffs])
    # The steps below work on coefficient lists. chain[a] holds h_a, reduced
    # mod p, possibly with trailing zeros. _divmod_coeffs overwrites its first
    # argument: h(a) hands out a copy, and a factor g is divided by d last.
    chain: list[list[int]] = []

    def h(a: int) -> list[int]:
        while a >= len(chain):
            chain.extend(_companion_powers(monic, len(chain), SHIFT_BATCH, half).tolist())
        return list(chain[a])

    h0 = h(0)
    xp = _divmod_coeffs([0, *_mul_coeffs(h0, h0)], monic.coeffs, field)[1] + [0, 0]
    xp[1] -= 1  # x^p - x mod f
    roots: list[int] = []
    todo = [(_gcd_coeffs(monic.coeffs, _canonical_coeffs(xp, p), field), 0)]
    while todo:
        g, a = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
            continue
        if len(g) < 2:
            continue
        while True:
            r = _divmod_coeffs(h(a), g, field)[1] or [0]
            r[0] -= 1  # (x+a)^((p-1)/2) - 1 mod g
            d = _gcd_coeffs(g, _canonical_coeffs(r, p), field)
            a += 1
            if 1 < len(d) < len(g):
                break
        todo += [(d, a), (_divmod_coeffs(g, d, field)[0], a)]
    roots.sort()
    return roots


def split_roots(poly: Polynomial) -> Spectrum:
    """Factor a minimal polynomial into linear terms over its field F_p.

    Finds the distinct roots with `scan_roots` while p <= SCAN_MAX_P and with
    `splitting_roots` above, then divides each root out to its full
    multiplicity by synthetic division. Each is a root of what remains, since
    only other linear factors were divided out, and both finders return the
    roots ascending. Raises NotSplit if a nonlinear factor remains, and
    ValueError for the zero polynomial, which every element is a root of.
    """
    if not poly.coeffs:
        raise ValueError("cannot split the zero polynomial")
    p = poly.field.p
    root_vals = scan_roots(poly) if p <= SCAN_MAX_P else splitting_roots(poly)
    roots: list[tuple[int, int]] = []
    remaining = list(poly.coeffs)
    for lam in root_vals:
        mult = 0
        while len(remaining) > 1:
            quot, rem = _divmod_linear_coeffs(remaining, lam, p)
            if rem != 0:
                break
            remaining = quot
            mult += 1
        roots.append((int(lam), mult))
    if len(remaining) != 1:
        raise NotSplit(
            f"minimal polynomial has a degree-{len(remaining) - 1} factor with no roots in F_{p}"
        )
    return Spectrum(roots=tuple(roots))


def jordan_profiles(pairs: list[tuple[Matrix, Spectrum]]) -> list[JordanProfile]:
    """Block-size multisets of several matrices of one order and field, one per (A, spectrum).

    For each eigenvalue, r_{j-1} - 2 r_j + r_{j+1} blocks have size exactly j,
    with r_j = rank (A-lambda I)^j, r_0 = n and r_{e+1} = r_e for e = e_lambda;
    read from j = e down, the sizes come out descending. Each matrix's powers
    (x - lambda)^j, j = 1..e_lambda, of all its eigenvalues come from one
    `_eval_rows` product, and `_stack_ranks` ranks them all at once; an empty
    list makes no call. Raises DimensionMismatch or FieldMismatch for matrices
    of different orders or fields, and CharPolyNotSplit for the first matrix
    whose blocks do not cover its order (before its product if its
    multiplicities sum past n) or whose spectrum names a non-eigenvalue,
    which no spectrum from `split_roots` of its own minimal polynomial leaves.
    """
    if not pairs:
        return []
    first = pairs[0][0]
    n, p = first.n, first.field.p
    stacks = []
    for a, spec in pairs:
        _check_pair(first, a)
        if sum(e for _, e in spec.roots) > n:
            raise CharPolyNotSplit(f"multiplicities {spec.roots} sum past the order {n}")
        rows = []
        for lam, e_lam in spec.roots:
            row = [1] + [0] * n
            for _ in range(e_lam):
                row = [(hi - lam * lo) % p for hi, lo in zip([0, *row], row)]  # times x - lambda
                rows.append(row)
        stacks.append(_eval_rows(a, rows))
    all_ranks = _stack_ranks(np.concatenate(stacks), p).tolist()
    profiles: list[JordanProfile] = []
    start = 0
    for _, spec in pairs:
        blocks: dict[int, tuple[int, ...]] = {}
        for lam, e_lam in spec.roots:
            r = [n, *all_ranks[start : start + e_lam]]
            start += e_lam
            r.append(r[-1])
            if r[1] == n:
                raise CharPolyNotSplit(f"{lam} is not an eigenvalue: A - {lam}I has full rank {n}")
            blocks[lam] = tuple(j for j in range(e_lam, 0, -1) for _ in range(r[j - 1] - 2 * r[j] + r[j + 1]))
        total = sum(map(sum, blocks.values()))
        if total != n:
            raise CharPolyNotSplit(
                f"Jordan blocks cover {total} of {n} dimensions; characteristic polynomial does not split"
            )
        profiles.append(JordanProfile(blocks=blocks))
    return profiles


def jordan_profile(a: Matrix, spec: Spectrum) -> JordanProfile:
    """Block-size multisets of one matrix: `jordan_profiles` on a single pair."""
    return jordan_profiles([(a, spec)])[0]


def unique_max_block(profile: JordanProfile) -> tuple[int, int] | None:
    """Smallest eigenvalue whose largest Jordan block is unique, with its size."""
    for lam in sorted(profile.blocks):
        sizes = profile.blocks[lam]
        if len(sizes) == 1 or sizes[0] != sizes[1]:
            return lam, sizes[0]
    return None
