"""Exact dense linear algebra over a prime field F_p.

Field elements are canonical int residues in [0, p) with p < 2^20
(MAX_MODULUS), the cap under which the bounds below hold. Matrices are
square, immutable, and backed by int64 numpy arrays; a product of two of
them sums n terms below 2^40, so it is exact in int64 for every n < 2^23.

SpanBasis has its own bound, stated and checked in `_accumulator_dtype`: it
works in float64, so that its products run through BLAS, while
ambient_dim * (p-1)^2 < 2^53, and in int64 while that is below 2^63.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AccumulatorOverflow,
    DimensionMismatch,
    FieldMismatch,
    ModulusTooLarge,
    NotPrime,
    ParseError,
    Singular,
)

MAX_MODULUS = 1 << 20


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The prime field F_p, p prime and at most 2^20."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        # The rule of Matrix and Polynomial: numpy integers are accepted and
        # stored as int; bool, float and other objects are rejected, never truncated.
        if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
            raise ParseError(f"modulus must be an integer, got {type(p).__name__}")
        p = int(p)
        if not _is_prime(p):
            raise NotPrime(f"modulus {p!r} is not a prime number")
        if p > MAX_MODULUS:
            raise ModulusTooLarge(
                f"modulus {p} exceeds the 2^20 cap that keeps int64 and float64 arithmetic exact"
            )
        self.p = p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(a, -1, self.p)


class Matrix:
    """Immutable square matrix over a PrimeField."""

    __slots__ = ("field", "n", "entries")

    def __init__(self, field: PrimeField, entries):
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"expected a square array, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionMismatch("matrix order must be at least 1")
        if arr.dtype != np.int64:
            # Integer input only: bool, float, complex and object arrays (the
            # latter is what numpy makes of ints beyond uint64) are rejected
            # rather than truncated, and so are uint64 values above int64's max.
            if arr.dtype.kind not in "iu" or (
                arr.dtype == np.uint64 and arr.max() > np.iinfo(np.int64).max
            ):
                raise ParseError(
                    f"matrix entries must be integers that fit in int64, got dtype {arr.dtype}"
                )
            arr = arr.astype(np.int64)
        arr = arr % field.p
        arr.flags.writeable = False
        self.field = field
        self.n = int(arr.shape[0])
        self.entries = arr

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> Matrix:
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> Matrix:
        return cls(field, np.zeros((n, n), dtype=np.int64))

    @classmethod
    def unit(cls, field: PrimeField, n: int, i: int, j: int) -> Matrix:
        """The matrix unit with a single 1 at position (i, j), 0-indexed."""
        arr = np.zeros((n, n), dtype=np.int64)
        arr[i, j] = 1
        return cls(field, arr)

    def vec(self) -> np.ndarray:
        """Row-major flattening into F_p^{n^2} (read-only view)."""
        return self.entries.reshape(-1)

    def add(self, other: Matrix) -> Matrix:
        _check_pair(self, other)
        return Matrix(self.field, self.entries + other.entries)

    def sub(self, other: Matrix) -> Matrix:
        _check_pair(self, other)
        return Matrix(self.field, self.entries - other.entries)

    def scale(self, c: int) -> Matrix:
        return Matrix(self.field, self.entries * (c % self.field.p))

    def is_zero(self) -> bool:
        return not self.entries.any()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.n == self.n
            and np.array_equal(other.entries, self.entries)
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.n, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"Matrix(F_{self.field.p}, {self.entries.tolist()})"


class Polynomial:
    """Polynomial over F_p, coefficients ascending, no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int]):
        cs = list(coeffs)
        for c in cs:
            # bool is an int subclass, and floats, complex numbers and other
            # objects would be kept as field elements: reject, never truncate.
            if not isinstance(c, (int, np.integer)) or isinstance(c, bool):
                raise ParseError(f"polynomial coefficients must be integers, got {type(c).__name__}")
        cs = [int(c) % field.p for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: PrimeField) -> Polynomial:
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> Polynomial:
        return cls(field, (1,))

    @classmethod
    def x_minus(cls, field: PrimeField, lam: int) -> Polynomial:
        return cls(field, (-lam, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def mul(self, other: Polynomial) -> Polynomial:
        _check_field(self.field, other.field)
        return Polynomial(self.field, _mul_coeffs(self.coeffs, other.coeffs))

    def sub(self, other: Polynomial) -> Polynomial:
        _check_field(self.field, other.field)
        pad = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (pad - len(self.coeffs))
        b = other.coeffs + (0,) * (pad - len(other.coeffs))
        return Polynomial(self.field, [x - y for x, y in zip(a, b)])

    def divmod(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Long division by a nonzero polynomial; returns (quotient, remainder)."""
        _check_field(self.field, other.field)
        q, r = _divmod_coeffs(list(self.coeffs), other.coeffs, self.field)
        return Polynomial(self.field, q), Polynomial(self.field, r)

    def gcd(self, other: Polynomial) -> Polynomial:
        """Monic greatest common divisor by Euclid's algorithm (zero if both are zero)."""
        _check_field(self.field, other.field)
        a, b = self, other
        while b.coeffs:
            a, b = b, a.divmod(b)[1]
        if not a.coeffs:
            return a
        lead_inv = self.field.inv(a.coeffs[-1])
        return Polynomial(self.field, [c * lead_inv for c in a.coeffs])

    def powmod(self, e: int, modulus: Polynomial) -> Polynomial:
        """self^e mod modulus, by square-and-multiply with a reduction after each product."""
        _check_field(self.field, modulus.field)
        if e < 0:
            raise ValueError(f"exponent must be non-negative, got {e}")
        field = self.field
        m = modulus.coeffs
        base = _divmod_coeffs(list(self.coeffs), m, field)[1]
        acc = _divmod_coeffs([1], m, field)[1]
        for bit in bin(e)[2:]:
            acc = _divmod_coeffs(_mul_coeffs(acc, acc), m, field)[1]
            if bit == "1":
                acc = _divmod_coeffs(_mul_coeffs(acc, base), m, field)[1]
        return Polynomial(field, acc)

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Horner evaluation at a vector of points (used by the root scan)."""
        p = self.field.p
        acc = np.zeros_like(xs)
        for c in reversed(self.coeffs):
            acc = (acc * xs + c) % p
        return acc

    def divmod_linear(self, lam: int) -> tuple[Polynomial, int]:
        """Synthetic division by (x - lam); returns (quotient, remainder)."""
        p = self.field.p
        if not self.coeffs:
            return Polynomial.zero(self.field), 0
        out = [0] * (len(self.coeffs) - 1)
        acc = 0
        for i in range(len(self.coeffs) - 1, 0, -1):
            acc = (acc * lam + self.coeffs[i]) % p
            out[i - 1] = acc
        rem = (acc * lam + self.coeffs[0]) % p
        return Polynomial(self.field, out), rem

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial(F_{self.field.p}, {list(self.coeffs)})"


def _mul_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two ascending coefficient lists, not reduced mod p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divmod_coeffs(
    a: list[int], b: Sequence[int], field: PrimeField
) -> tuple[list[int], list[int]]:
    """Long division of coefficient lists; a may hold any ints and is overwritten.

    Returns the quotient and the remainder, both reduced mod p, the remainder
    without trailing zeros.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    p = field.p
    d = len(b) - 1
    lead_inv = field.inv(b[-1])
    low = b[:d]
    q = [0] * max(len(a) - d, 0)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] * lead_inv % p
        if c:
            q[i - d] = c
            a[i - d : i] = [x - c * y for x, y in zip(a[i - d : i], low)]
    r = [x % p for x in a[:d]]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _check_field(a: PrimeField, b: PrimeField) -> None:
    if a != b:
        raise FieldMismatch(f"mixed moduli {a.p} and {b.p}")


def _check_pair(a: Matrix, b: Matrix) -> None:
    _check_field(a.field, b.field)
    if a.n != b.n:
        raise DimensionMismatch(f"orders differ: {a.n} vs {b.n}")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product over F_p."""
    _check_pair(a, b)
    return Matrix(a.field, (a.entries @ b.entries) % a.field.p)


def _rref_array(arr: np.ndarray, field: PrimeField) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan on an arbitrary rows x cols int64 array; returns (RREF, pivot cols)."""
    p = field.p
    a = arr % p
    m, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * field.inv(int(a[r, c]))) % p
        col = a[:, c].copy()
        col[r] = 0
        if col.any():
            a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    reduced, pivots = _rref_array(a.entries.copy(), a.field)
    return Matrix(a.field, reduced), pivots


def rank(a: Matrix) -> int:
    """Row rank over F_p."""
    _, pivots = _rref_array(a.entries.copy(), a.field)
    return len(pivots)


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse of a, or Singular if rank < n."""
    n = a.n
    aug = np.hstack([a.entries, np.eye(n, dtype=np.int64)])
    reduced, pivots = _rref_array(aug, a.field)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise Singular(f"matrix of rank {len([c for c in pivots if c < n])} < {n}")
    return Matrix(a.field, reduced[:, n:])


def conjugate(p: Matrix, a: Matrix) -> Matrix:
    """P A P^{-1} (raises Singular when P is not invertible)."""
    _check_pair(p, a)
    return mat_mul(mat_mul(p, a), mat_inverse(p))


def poly_eval(q: Polynomial, a: Matrix) -> Matrix:
    """Horner evaluation q(A); the constant term multiplies the identity."""
    field = a.field
    _check_field(q.field, field)
    acc = np.zeros((a.n, a.n), dtype=np.int64)
    for c in reversed(q.coeffs):
        acc = (acc @ a.entries) % field.p
        if c:
            acc[np.diag_indices(a.n)] = (acc.diagonal() + c) % field.p
    return Matrix(field, acc)


def solve(columns: np.ndarray, b: np.ndarray, field: PrimeField) -> np.ndarray | None:
    """Solve columns @ x = b over F_p; None if inconsistent or underdetermined."""
    m, k = columns.shape
    aug = np.hstack([columns % field.p, (b % field.p).reshape(-1, 1)])
    reduced, pivots = _rref_array(aug, field)
    if k in pivots:  # pivot in the augmented column: inconsistent
        return None
    if pivots != list(range(k)):
        return None
    x = np.zeros(k, dtype=np.int64)
    x[:] = reduced[: len(pivots), k]
    return x


# Every product SpanBasis forms (reducing vectors against the basis, merging
# new rows into it, and the candidate words compute_length builds from n x n
# matrices) sums at most ambient_dim products of two residues in [0, p), each
# partial sum an integer of magnitude below ambient_dim * (p-1)^2, and the
# difference with a residue stays within that bound. float64 holds all such
# integers exactly, whatever order BLAS sums them in, below 2^53 (every
# n <= 90 at p < 2^20); int64 holds them below 2^63.
FLOAT64_EXACT_BOUND = 1 << 53
INT64_EXACT_BOUND = 1 << 63
MERGE_ROWS = 256


def _accumulator_dtype(ambient_dim: int, p: int) -> type:
    worst = ambient_dim * (p - 1) ** 2
    if worst < FLOAT64_EXACT_BOUND:
        return np.float64
    if worst < INT64_EXACT_BOUND:
        return np.int64
    raise AccumulatorOverflow(
        f"ambient dimension {ambient_dim} over F_{p}: sums up to {worst} exceed int64"
    )


class SpanBasis:
    """Row-reduced basis of a subspace of F_p^{ambient_dim}.

    Each stored row has a 1 at its pivot column and 0 at every other row's
    pivot column, so a vector reduces against the whole basis in one product:
    its coordinate on a row is its entry at that row's pivot column. Rows are
    stored in the order they were added, in the exact dtype chosen by
    `_accumulator_dtype`; `rows` and `pivot_cols` sort them by pivot, which
    is the unique RREF of the span.
    """

    __slots__ = ("field", "ambient_dim", "dtype", "_rows", "_pivots")

    def __init__(self, field: PrimeField, ambient_dim: int):
        self.field = field
        self.ambient_dim = int(ambient_dim)
        self.dtype = _accumulator_dtype(self.ambient_dim, field.p)
        # Capacity grows by doubling; the first dim() rows are the basis.
        self._rows = np.zeros((0, self.ambient_dim), dtype=self.dtype)
        self._pivots: list[int] = []

    def dim(self) -> int:
        return len(self._pivots)

    @property
    def rows(self) -> np.ndarray:
        """The basis in RREF, rows sorted by pivot column, as int64."""
        order = np.argsort(self._pivots)
        return self._rows[order].astype(np.int64)

    @property
    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivots))

    def reduce(self, vec: Sequence[int] | np.ndarray) -> np.ndarray:
        """Residue of vec after elimination against the basis."""
        return self._eliminate(self._coerce(vec, ndim=1)).astype(np.int64)

    def contains(self, vec: Sequence[int] | np.ndarray) -> bool:
        return not self.reduce(vec).any()

    def insert(self, vec: Sequence[int] | np.ndarray) -> bool:
        """Insert vec if independent; returns True iff the dimension grew.

        The sequential reference for `insert_rows`.
        """
        return self._append(self._eliminate(self._coerce(vec, ndim=1)))

    def insert_rows(self, block: Sequence[Sequence[int]] | np.ndarray) -> list[int]:
        """Insert the rows of block in order; returns the indices of those that grew the span.

        Accepts exactly the rows, and leaves exactly the basis, that one
        `insert` per row would, in three steps: one product reduces the whole
        block against the basis; a local elimination over the reduced rows, in
        order, keeps those independent of the rows before them; one rank-r
        product clears the new pivot columns from the basis before the kept
        rows, in RREF, are appended.
        """
        p = self.field.p
        b = self._coerce(block, ndim=2)
        d = self.dim()
        if d == self.ambient_dim:
            return []
        if d:
            b -= b[:, self._pivots] @ self._rows[:d]
            np.remainder(b, p, out=b)
        # Local elimination in candidate order. new[:k] holds the rows kept so
        # far, each reduced against those before it, so new[:k, pivots] is
        # unit upper triangular; inv_u is its inverse, extended by one column
        # per kept row, and a row's residue against new[:k] takes two products.
        most = min(len(b), self.ambient_dim - d)
        new = np.empty((most, self.ambient_dim), dtype=self.dtype)
        inv_u = np.zeros((most, most), dtype=self.dtype)
        pivots: list[int] = []
        accepted: list[int] = []
        for i, v in enumerate(b):
            k = len(pivots)
            if k:
                coeffs = (v[pivots] @ inv_u[:k, :k]) % p
                if coeffs.any():
                    v = (v - coeffs @ new[:k]) % p
            nz = np.flatnonzero(v)
            if nz.size == 0:
                continue
            j = int(nz[0])
            new[k] = (v * self.field.inv(int(v[j]))) % p
            inv_u[:k, k] = -(inv_u[:k, :k] @ new[:k, j]) % p
            inv_u[k, k] = 1
            pivots.append(j)
            accepted.append(i)
        k = len(pivots)
        if k:
            # RREF of the kept rows: new[:, pivots] == I, zero at the basis pivots.
            new = (inv_u[:k, :k] @ new[:k]) % p
            self._reserve(k)
            if d:
                # In slices of rows, so the product's temporary stays small.
                for lo in range(0, d, MERGE_ROWS):
                    part = self._rows[lo : min(lo + MERGE_ROWS, d)]
                    part -= part[:, pivots] @ new
                    np.remainder(part, p, out=part)
            self._rows[d : d + k] = new
            self._pivots += pivots
        return accepted

    def _coerce(self, values, ndim: int) -> np.ndarray:
        """Vector (ndim 1) or block of rows (ndim 2) as residues in the basis dtype."""
        # Reduced in int64 first: a float64 conversion of larger integers is inexact.
        v = np.asarray(values, dtype=np.int64) % self.field.p
        if v.ndim != ndim or v.shape[-1] != self.ambient_dim:
            raise DimensionMismatch(
                f"shape {v.shape} does not match ambient dimension {self.ambient_dim}"
            )
        return v.astype(self.dtype)

    def _eliminate(self, v: np.ndarray) -> np.ndarray:
        """Residue of v (entries in [0, p), basis dtype) against the basis."""
        d = self.dim()
        if d:
            coeffs = v[self._pivots]
            if coeffs.any():
                v = (v - coeffs @ self._rows[:d]) % self.field.p
        return v

    def _append(self, v: np.ndarray) -> bool:
        """Add the residue v as a new basis row unless it is zero."""
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        p = self.field.p
        j = int(nz[0])
        v = (v * self.field.inv(int(v[j]))) % p
        d = self.dim()
        if d:
            basis = self._rows[:d]
            if basis[:, j].any():
                basis -= np.outer(basis[:, j], v)
                np.remainder(basis, p, out=basis)
        self._reserve(1)
        self._rows[d] = v
        self._pivots.append(j)
        return True

    def _reserve(self, extra: int) -> None:
        d = self.dim()
        if d + extra > len(self._rows):
            cap = min(self.ambient_dim, max(2 * len(self._rows), d + extra))
            grown = np.empty((cap, self.ambient_dim), dtype=self.dtype)
            grown[:d] = self._rows[:d]
            self._rows = grown
