"""Sequential test-side references that share no code with the span engine.

`FullRowBasis` is the one-vector-at-a-time RREF basis that stores every row
over all columns, and `full_row_basis` rebuilds one from the public `rows`
of a span-engine basis, for membership tests and residues the engine does not
offer; `krylov_minimal_polynomial` finds the first Krylov
dependence power by power. Both work in int64: a reduction sums at most
ambient_dim products below p^2, exact for every shape the tests use.
`shifted_chain` builds the powers (A - lambda I)^j with plain numpy products.
`powmod` is polynomial square-and-multiply, the reference for the companion-
matrix powers of `linalg._companion_powers`.
`poly_eval` is Horner's rule on matrices, the reference for the one-product
evaluation `linalg._eval_rows`. `poly_product` multiplies polynomials out
by schoolbook convolution, and `divisor_poly` builds prod (x - lambda)^a
with it: both build test polynomials from their factors.
`conjugate` is P A P^-1 from `mat_mul` and `mat_inverse`.
`canonical_json` is `json.dumps` with the report layout, the reference for
`reports.write_canonical_json`.
`krylov_test_matrix` draws the matrices the minimal polynomial is checked on.
`rank_accepted_invertible` is the rank-based acceptance rule that
`instances._invertible_pair` must reproduce draw for draw.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

import numpy as np

from matlen.instances import JordanSpec, _conjugated, jordan_matrix
from matlen.linalg import Matrix, Polynomial, PrimeField, _divmod_coeffs, _mul_coeffs, mat_inverse, mat_mul


class FullRowBasis:
    """RREF basis of a subspace of F_p^{ambient_dim}, one inserted vector at a time.

    Rows are stored over all ambient_dim columns, in the order they were
    added; each has a 1 at its pivot and a 0 at every other row's pivot.
    """

    def __init__(self, field: PrimeField, ambient_dim: int):
        assert ambient_dim * (field.p - 1) ** 2 < 2**63, "int64 reference would overflow"
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows = np.zeros((0, ambient_dim), dtype=np.int64)
        self._pivots: list[int] = []

    def dim(self) -> int:
        return len(self._pivots)

    @property
    def rows(self) -> np.ndarray:
        return self._rows[np.argsort(self._pivots)]

    @property
    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivots))

    def contains(self, vec) -> bool:
        return not self.reduce(vec).any()

    def insert(self, vec) -> bool:
        """Insert vec if independent; returns True iff the dimension grew."""
        return self._append(self.reduce(vec))

    def reduce(self, vec) -> np.ndarray:
        """Residue of vec after elimination against the basis."""
        v = np.asarray(vec, dtype=np.int64) % self.field.p
        assert v.shape == (self.ambient_dim,)
        if self._pivots:
            v = (v - v[self._pivots] @ self._rows) % self.field.p
        return v

    def _append(self, v: np.ndarray) -> bool:
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        p = self.field.p
        j = int(nz[0])
        v = (v * self.field.inv(int(v[j]))) % p
        self._rows = (self._rows - np.outer(self._rows[:, j], v)) % p
        self._rows = np.vstack([self._rows, v])
        self._pivots.append(j)
        return True


def full_row_basis(basis) -> FullRowBasis:
    """A FullRowBasis of the span of a `SpanBasis`, built from its rows alone."""
    ref = FullRowBasis(basis.field, basis.ambient_dim)
    for row in basis.rows:
        ref.insert(row)
    return ref


def rank_accepted_invertible(n: int, field: PrimeField, rng: np.random.Generator) -> Matrix:
    """Uniform-entry n x n matrix, redrawn until its rows, inserted into a
    `FullRowBasis` one at a time, have rank n."""
    while True:
        entries = rng.integers(0, field.p, size=(n, n), dtype=np.int64)
        basis = FullRowBasis(field, n)
        for row in entries:
            basis.insert(row)
        if basis.dim() == n:
            return Matrix(field, entries)


def krylov_minimal_polynomial(a: Matrix) -> tuple[int, ...]:
    """Ascending coefficients of the minimal polynomial of a, one power at a time.

    Each power vec(A^k) is reduced against the echelon rows of the earlier
    powers while tracking, in `track`, which combination of powers it has
    become. The first power that reduces to zero gives the relation
    A^k = -sum_{i<k} track_i A^i, monic because track_k = 1.
    """
    p, n = a.field.p, a.n
    rows: list[tuple[np.ndarray, np.ndarray, int]] = []  # (row, combination, pivot)
    power = np.eye(n, dtype=np.int64)
    for k in range(n + 1):
        v = power.reshape(-1) % p
        track = np.zeros(n + 1, dtype=np.int64)
        track[k] = 1
        for row, comb, pivot in rows:
            c = int(v[pivot])
            if c:
                v = (v - c * row) % p
                track = (track - c * comb) % p
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return tuple(int(c) for c in track[: k + 1])
        inv = a.field.inv(int(v[nz[0]]))
        rows.append(((v * inv) % p, (track * inv) % p, int(nz[0])))
        power = (power @ a.entries) % p
    raise AssertionError("no Krylov dependence among n + 1 powers")


def shifted_chain(a: Matrix, lam: int, e: int) -> list[np.ndarray]:
    """(A - lambda I)^j for j = 0..e as int64 arrays over F_p, one power at a time."""
    p, n = a.field.p, a.n
    shifted = (a.entries - lam * np.eye(n, dtype=np.int64)) % p
    chain = [np.eye(n, dtype=np.int64)]
    for _ in range(e):
        chain.append((chain[-1] @ shifted) % p)
    return chain


def powmod(base: Polynomial, e: int, modulus: Polynomial) -> Polynomial:
    """base^e mod a nonzero modulus, by square-and-multiply with a reduction after each product."""
    if e < 0:
        raise ValueError(f"exponent must be non-negative, got {e}")
    field = base.field

    def mod(cs: list[int]) -> list[int]:
        return _divmod_coeffs(cs, modulus.coeffs, field)[1]

    b, acc = mod(list(base.coeffs)), mod([1])
    for bit in bin(e)[2:]:
        acc = mod(_mul_coeffs(acc, acc))
        if bit == "1":
            acc = mod(_mul_coeffs(acc, b))
    return Polynomial(field, acc)


def poly_product(field: PrimeField, factors: Iterable[Sequence[int]]) -> Polynomial:
    """The product of polynomials given as ascending coefficients, multiplied out one
    factor at a time by schoolbook convolution (1 for no factors)."""
    acc = [1]
    for f in factors:
        out = [0] * max(len(acc) + len(f) - 1, 0)
        for i, x in enumerate(acc):
            for j, y in enumerate(f):
                out[i + j] = (out[i + j] + x * y) % field.p
        acc = out
    return Polynomial(field, acc)


def divisor_poly(field: PrimeField, exponents: Iterable[tuple[int, int]]) -> Polynomial:
    """prod (x - lambda)^a over the (lambda, a) pairs."""
    return poly_product(field, [(-lam, 1) for lam, a in exponents for _ in range(a)])


def poly_eval(q: Polynomial, a: Matrix) -> Matrix:
    """q(A) by Horner's rule, one product per coefficient; the constant term multiplies the identity."""
    p, n = a.field.p, a.n
    acc = np.zeros((n, n), dtype=np.int64)
    for c in reversed(q.coeffs):
        acc = (acc @ a.entries) % p
        acc[np.diag_indices(n)] = (acc.diagonal() + c) % p
    return Matrix(a.field, acc)


def conjugate(p: Matrix, a: Matrix) -> Matrix:
    """P A P^-1 (raises Singular when P is not invertible)."""
    return mat_mul(mat_mul(p, a), mat_inverse(p))


def canonical_json(body: dict) -> str:
    """Sorted keys, two-space indent, "," and ": " separators, newline-terminated."""
    return json.dumps(body, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


KRYLOV_KINDS = ("random", "scalar", "zero", "repeated")


def krylov_test_matrix(rng, field: PrimeField, n: int, kind: str) -> tuple[Matrix, int | None]:
    """A test matrix and, where it is known by construction, its minimal polynomial degree.

    "random" is uniform (mostly nonderogatory); the other kinds are
    derogatory for n >= 2: a scalar matrix, the zero matrix, and Jordan
    blocks that each appear twice where they fit, conjugated by a random
    invertible matrix.
    """
    p = field.p
    if kind == "random":
        return Matrix(field, rng.integers(0, p, size=(n, n))), None
    if kind == "scalar":
        return Matrix(field, int(rng.integers(0, p)) * np.eye(n, dtype=np.int64)), 1
    if kind == "zero":
        return Matrix(field, np.zeros((n, n), dtype=np.int64)), 1
    blocks: list[tuple[int, int]] = []
    left = n
    while left:
        lam, size = int(rng.integers(0, p)), int(rng.integers(1, left + 1))
        copies = min(2, left // size)
        blocks += [(lam, size)] * copies
        left -= size * copies
    spec = JordanSpec(tuple(blocks))
    return _conjugated(jordan_matrix(field, spec), rng), spec.minpoly_degree()
