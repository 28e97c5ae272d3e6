"""Minimal polynomials, split spectra, and Jordan block profiles over F_p.

A spectrum only exists when the minimal polynomial factors into linear terms
over the working field; non-split instances raise NotSplit and are treated
as outside the supported regime (the generators never emit them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CharPolyNotSplit, NotSplit
from .linalg import Matrix, Polynomial, _companion_powers, _rref_array, _stack_ranks


@dataclass(frozen=True)
class Spectrum:
    """Distinct roots of the minimal polynomial with their multiplicities.

    roots is sorted by eigenvalue; multiplicities sum to the minimal
    polynomial degree.
    """

    roots: tuple[tuple[int, int], ...]

    def eigenvalues(self) -> tuple[int, ...]:
        return tuple(lam for lam, _ in self.roots)


@dataclass(frozen=True)
class JordanProfile:
    """Per-eigenvalue multisets of Jordan block sizes, sorted descending."""

    blocks: dict[int, tuple[int, ...]]


def minimal_polynomial(a: Matrix) -> Polynomial:
    """Monic minimal polynomial via the first Krylov dependence.

    One Gauss-Jordan pass over the columns vec(I), vec(A), ..., vec(A^n).
    Once A^d depends on I, ..., A^(d-1), so does every higher power, so the
    pivots are 0..d-1 with d the degree, and column d of the RREF holds the
    coordinates of A^d over I, ..., A^(d-1).
    """
    field, n, p = a.field, a.n, a.field.p
    # Each product sums n terms below p^2 < 2^40: exact in int64.
    powers = np.empty((n + 1, n, n), dtype=np.int64)
    powers[0] = np.eye(n, dtype=np.int64)
    for i in range(n):
        powers[i + 1] = (a.entries @ powers[i]) % p
    reduced, pivots = _rref_array(powers.reshape(n + 1, n * n).T, field)
    d = len(pivots)
    if d > n or pivots != list(range(d)):
        raise RuntimeError(f"Krylov pivots {pivots} of an order-{n} matrix are not a proper prefix")
    return Polynomial._from_ints(field, [-int(c) for c in reduced[:d, d]] + [1])


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
    x = Polynomial._from_ints(field, (0, 1))
    one = Polynomial.one(field)
    half = (p - 1) // 2
    lead_inv = field.inv(poly.coeffs[-1])
    monic = Polynomial._from_ints(field, [c * lead_inv for c in poly.coeffs])
    chain: list[list[int]] = []  # chain[a]: coefficients of h_a

    def h(a: int) -> Polynomial:
        while a >= len(chain):
            chain.extend(_companion_powers(monic, len(chain), SHIFT_BATCH, half).tolist())
        return Polynomial._from_ints(field, chain[a])

    h0 = h(0)
    roots: list[int] = []
    todo = [(poly.gcd(h0.mul(h0).mul(x).divmod(monic)[1].sub(x)), 0)]
    while todo:
        g, a = todo.pop()
        if g.degree == 1:
            roots.append(-g.coeffs[0] % p)
            continue
        if g.degree < 1:
            continue
        while True:
            d = g.gcd(h(a).divmod(g)[1].sub(one))
            a += 1
            if 0 < d.degree < g.degree:
                break
        todo += [(d, a), (g.divmod(d)[0], a)]
    roots.sort()
    return roots


def split_roots(poly: Polynomial) -> Spectrum:
    """Factor a minimal polynomial into linear terms over its field F_p.

    Finds the distinct roots with `scan_roots` while p <= SCAN_MAX_P and with
    `splitting_roots` above, then divides each root out to its full
    multiplicity by synthetic division. Raises NotSplit if a nonlinear factor
    remains.
    """
    p = poly.field.p
    root_vals = scan_roots(poly) if p <= SCAN_MAX_P else splitting_roots(poly)
    roots: list[tuple[int, int]] = []
    remaining = poly
    for lam in root_vals:
        mult = 0
        while remaining.degree > 0:
            quot, rem = remaining.divmod_linear(lam)
            if rem != 0:
                break
            remaining = quot
            mult += 1
        if mult:
            roots.append((int(lam), mult))
    if remaining.degree != 0:
        raise NotSplit(
            f"minimal polynomial has a degree-{remaining.degree} factor with no roots in F_{p}"
        )
    roots.sort()
    return Spectrum(roots=tuple(roots))


def jordan_profile(a: Matrix, spec: Spectrum) -> JordanProfile:
    """Block-size multisets from the rank sequence of (A - lambda I)^j.

    For each eigenvalue, the count of blocks of size >= j is
    rank((A-lambda I)^{j-1}) - rank((A-lambda I)^j). Every power for
    j = 1..e_lambda is formed first (int64 products of residues, each
    summing n terms below 2^40), and `_stack_ranks` ranks them all at once.
    """
    n, p = a.n, a.field.p
    eye = np.eye(n, dtype=np.int64)
    powers: list[np.ndarray] = []
    for lam, e_lam in spec.roots:
        shifted = (a.entries - lam * eye) % p
        power = eye
        for _ in range(e_lam):
            power = (power @ shifted) % p
            powers.append(power)
    all_ranks = _stack_ranks(np.array(powers, dtype=np.int64).reshape(-1, n, n), p).tolist()
    blocks: dict[int, tuple[int, ...]] = {}
    total = 0
    start = 0
    for lam, e_lam in spec.roots:
        ranks = [n] + all_ranks[start : start + e_lam]
        start += e_lam
        at_least = [ranks[j - 1] - ranks[j] for j in range(1, e_lam + 1)]
        sizes: list[int] = []
        for j in range(1, e_lam + 1):
            exactly = at_least[j - 1] - (at_least[j] if j < e_lam else 0)
            sizes.extend([j] * exactly)
        sizes.sort(reverse=True)
        blocks[lam] = tuple(sizes)
        total += sum(sizes)
    if total != n:
        raise CharPolyNotSplit(
            f"Jordan blocks cover {total} of {n} dimensions; characteristic polynomial does not split"
        )
    return JordanProfile(blocks=blocks)


def unique_max_block(profile: JordanProfile) -> tuple[int, int] | None:
    """Smallest eigenvalue whose largest Jordan block is unique, with its size."""
    for lam in sorted(profile.blocks):
        sizes = profile.blocks[lam]
        if len(sizes) == 1 or sizes[0] != sizes[1]:
            return lam, sizes[0]
    return None
