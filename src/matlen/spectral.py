"""Minimal polynomials, split spectra, and Jordan block profiles over F_p.

A spectrum only exists when the minimal polynomial factors into linear terms
over the working field; non-split instances raise NotSplit and are treated
as outside the supported regime (the generators never emit them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CharPolyNotSplit, NotSplit
from .length import GeneratingSet
from .linalg import Matrix, Polynomial, PrimeField, SpanBasis, mat_mul, rank, solve


@dataclass(frozen=True)
class MinimalPolynomial:
    """Monic least-degree annihilator of a matrix."""

    poly: Polynomial
    degree: int


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

    def max_block(self, lam: int) -> int:
        return self.blocks[lam][0]


def minimal_polynomial(a: Matrix) -> MinimalPolynomial:
    """Monic minimal polynomial via the first Krylov dependence.

    Inserts vec(I), vec(A), vec(A^2), ... into a SpanBasis; the first power
    that fails to grow the span is a linear combination of its predecessors,
    and solving for the combination yields the polynomial's coefficients.
    """
    field = a.field
    n = a.n
    basis = SpanBasis(field, n * n)
    powers = [Matrix.identity(field, n)]
    basis.insert(powers[0].vec())
    current = powers[0]
    while True:
        current = mat_mul(a, current)
        if not basis.insert(current.vec()):
            break
        powers.append(current)
    d = len(powers)
    columns = np.stack([m.vec() for m in powers], axis=1)
    coeffs = solve(columns, current.vec(), field)
    assert coeffs is not None, "Krylov dependence must be solvable"
    poly = Polynomial(field, [(-int(c)) % field.p for c in coeffs] + [1])
    return MinimalPolynomial(poly=poly, degree=d)


def m_of_s(s: GeneratingSet) -> int:
    """Maximum minimal-polynomial degree over the generators."""
    return max(minimal_polynomial(g).degree for g in s.gens)


def split_roots(mp: MinimalPolynomial, f: PrimeField) -> Spectrum:
    """Factor the minimal polynomial into linear terms over F_p.

    Scans every field element for roots (p <= 2^20 keeps this cheap), then
    divides each root out to its full multiplicity by synthetic division.
    Raises NotSplit if a nonlinear factor remains.
    """
    poly = mp.poly
    xs = np.arange(f.p, dtype=np.int64)
    root_vals = xs[poly.eval_many(xs) == 0]
    roots: list[tuple[int, int]] = []
    remaining = poly
    for lam in root_vals.tolist():
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
            f"minimal polynomial has a degree-{remaining.degree} factor with no roots in F_{f.p}"
        )
    roots.sort()
    return Spectrum(roots=tuple(roots))


def jordan_profile(a: Matrix, spec: Spectrum) -> JordanProfile:
    """Block-size multisets from the rank sequence of (A - lambda I)^j.

    For each eigenvalue, the count of blocks of size >= j is
    rank((A-lambda I)^{j-1}) - rank((A-lambda I)^j).
    """
    field = a.field
    n = a.n
    blocks: dict[int, tuple[int, ...]] = {}
    total = 0
    for lam, e_lam in spec.roots:
        shifted = a.sub(Matrix.identity(field, n).scale(lam))
        ranks = [n]
        power = Matrix.identity(field, n)
        for _ in range(e_lam):
            power = mat_mul(power, shifted)
            ranks.append(rank(power))
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


def is_nonderogatory(a: Matrix) -> bool:
    """True iff the minimal polynomial degree equals the order n."""
    return minimal_polynomial(a).degree == a.n


def unique_max_block(profile: JordanProfile) -> tuple[int, int] | None:
    """Smallest eigenvalue whose largest Jordan block is unique, with its size."""
    for lam in sorted(profile.blocks):
        sizes = profile.blocks[lam]
        if len(sizes) == 1 or sizes[0] != sizes[1]:
            return lam, sizes[0]
    return None
