"""Sequential test-side references that share no code with the span engine.

`FullRowBasis` is the one-vector-at-a-time RREF basis that stores every row
over all columns; `krylov_minimal_polynomial` finds the first Krylov
dependence power by power. Both work in int64: a reduction sums at most
ambient_dim products below p^2, exact for every shape the tests use.
`shifted_chain` builds the powers (A - lambda I)^j with plain numpy products.
`powmod` is polynomial square-and-multiply, the reference for the companion-
matrix powers of `linalg._companion_powers`.
`canonical_json` is `json.dumps` with the report layout, the reference for
`reports.canonical_json`.
`krylov_test_matrix` draws the matrices the minimal polynomial is checked on.
`rank_accepted_invertible` is the rank-based acceptance rule that
`instances.random_invertible` must reproduce draw for draw.
"""

from __future__ import annotations

import json

import numpy as np

from matlen.instances import JordanSpec, jordan_matrix, random_invertible
from matlen.linalg import Matrix, Polynomial, PrimeField, conjugate


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
    base = base.divmod(modulus)[1]
    acc = Polynomial.one(base.field).divmod(modulus)[1]
    for bit in bin(e)[2:]:
        acc = acc.mul(acc).divmod(modulus)[1]
        if bit == "1":
            acc = acc.mul(base).divmod(modulus)[1]
    return acc


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
        return Matrix.identity(field, n).scale(int(rng.integers(0, p))), 1
    if kind == "zero":
        return Matrix.zero(field, n), 1
    blocks: list[tuple[int, int]] = []
    left = n
    while left:
        lam, size = int(rng.integers(0, p)), int(rng.integers(1, left + 1))
        copies = min(2, left // size)
        blocks += [(lam, size)] * copies
        left -= size * copies
    spec = JordanSpec(tuple(blocks))
    return conjugate(random_invertible(n, field, rng), jordan_matrix(field, spec)), spec.minpoly_degree()
