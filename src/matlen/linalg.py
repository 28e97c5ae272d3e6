"""Exact dense linear algebra over a prime field F_p.

Field elements are canonical int residues in [0, p) with p < 2^20
(MAX_MODULUS), the cap under which the bounds below hold. Matrices are
square, immutable, and backed by int64 numpy arrays; a product of two of
them sums n terms below 2^40, so it is exact in int64 for every n < 2^23.

SpanBasis stores only the free columns of its RREF basis, a d x
(ambient_dim - d) block, and has its own bound, stated and checked in
`_accumulator_dtype`: it works in float32 while ambient_dim * (p-1)^2 + p <=
2^24 and in float64 while it is at most 2^53, so that its products run
through BLAS, and in int64 while ambient_dim * (p-1)^2 is below 2^63. Its
float arrays, blocks and single rows alike, are reduced by `_reduce`:
x - p * floor(x / p) from REDUCE_SMALL entries up, np.remainder below, where
one ufunc call costs less. Both are exact for integers |x| <= 2^t - p, with
t = 24 in float32 and 53 in float64; the `+ p` in each float rule is that
precondition.
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


def _int64_entries(arr: np.ndarray, what: str) -> np.ndarray:
    """arr as int64, for integer input only.

    bool, float, complex and object arrays (the latter is what numpy makes of
    ints beyond uint64) are rejected rather than truncated, and so are uint64
    values above int64's max.
    """
    if arr.dtype == np.int64:
        return arr
    if arr.dtype.kind not in "iu" or (
        arr.dtype == np.uint64 and arr.size and arr.max() > np.iinfo(np.int64).max
    ):
        raise ParseError(f"{what} must be integers that fit in int64, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _integer(value, what: str) -> int:
    """value as int; numpy integers are accepted, bool, float and other objects
    rejected, never truncated. The rule of Matrix and Polynomial, for one scalar."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {type(value).__name__}")
    return int(value)


def _is_prime(p: int) -> bool:
    """Primality of an integer p < 1,373,653, which covers every modulus up to
    the 2^20 cap: Miller-Rabin to the bases 2 and 3, which no composite below
    1,373,653 passes (the least strong pseudoprime to both)."""
    if p < 4 or p % 2 == 0:
        return p in (2, 3)
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3):
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p, p prime and at most 2^20."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = _integer(p, "modulus")
        # The cap first: _is_prime is exact only below 1,373,653.
        if p > MAX_MODULUS:
            raise ModulusTooLarge(
                f"modulus {p} exceeds the 2^20 cap that keeps int64 and float64 arithmetic exact"
            )
        if not _is_prime(p):
            raise NotPrime(f"modulus {p!r} is not a prime number")
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

    __slots__ = ("field", "n", "entries", "_powers")

    def __init__(self, field: PrimeField, entries):
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"expected a square array, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionMismatch("matrix order must be at least 1")
        arr = _int64_entries(arr, "matrix entries") % field.p
        arr.flags.writeable = False
        self.field = field
        self.n = int(arr.shape[0])
        self.entries = arr
        self._powers = None

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> Matrix:
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def unit(cls, field: PrimeField, n: int, i: int, j: int) -> Matrix:
        """The matrix unit with a single 1 at position (i, j), 0-indexed."""
        arr = np.zeros((n, n), dtype=np.int64)
        arr[i, j] = 1
        return cls(field, arr)

    def powers(self) -> np.ndarray:
        """A^0, ..., A^n, a read-only (n + 1, n, n) int64 stack formed on first use and stored
        once complete; ==, hash, repr and pickle ignore it. Each product sums n terms below 2^40."""
        if self._powers is None:
            stack = np.empty((self.n + 1, self.n, self.n), dtype=np.int64)
            stack[0] = np.eye(self.n, dtype=np.int64)
            for i in range(self.n):
                stack[i + 1] = (self.entries @ stack[i]) % self.field.p
            stack.flags.writeable = False
            self._powers = stack
        return self._powers

    def vec(self) -> np.ndarray:
        """Row-major flattening into F_p^{n^2} (read-only view)."""
        return self.entries.reshape(-1)

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

    def __reduce__(self):
        return Matrix, (self.field, self.entries)


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
        self.field = field
        self.coeffs = _canonical_coeffs(map(int, cs), field.p)

    @classmethod
    def _from_ints(cls, field: PrimeField, coeffs: Iterable[int]) -> Polynomial:
        """A polynomial from Python ints the package computed, without the type checks.

        Reduces mod p and strips trailing zeros like the public constructor.
        Synthetic division, root splitting and minimal_polynomial build their
        results through here: the public checks cost a loop over every coefficient.
        """
        poly = object.__new__(cls)
        poly.field = field
        poly.coeffs = _canonical_coeffs(coeffs, field.p)
        return poly

    @classmethod
    def zero(cls, field: PrimeField) -> Polynomial:
        return cls._from_ints(field, ())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Horner evaluation at residues (the root scan); acc * x + c < (p-1)^2 + p: exact in int64."""
        p = self.field.p
        acc = np.zeros_like(xs)
        for c in reversed(self.coeffs):
            acc = (acc * xs + c) % p
        return acc

    def divmod_linear(self, lam: int) -> tuple[Polynomial, int]:
        """Synthetic division by (x - lam); returns (quotient, remainder)."""
        if not self.coeffs:
            return Polynomial.zero(self.field), 0
        quot, rem = _divmod_linear_coeffs(self.coeffs, lam, self.field.p)
        return Polynomial._from_ints(self.field, quot), rem

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


def _canonical_coeffs(cs: Iterable[int], p: int) -> tuple[int, ...]:
    """Python ints reduced mod p, trailing zeros stripped."""
    out = [c % p for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


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


def _divmod_linear_coeffs(a: Sequence[int], lam: int, p: int) -> tuple[list[int], int]:
    """Synthetic division of a nonempty coefficient list by (x - lam); returns
    the quotient and the remainder, reduced mod p."""
    acc, out = 0, []
    for c in reversed(a):
        acc = (acc * lam + c) % p
        out.append(acc)
    rem = out.pop()
    out.reverse()
    return out, rem


def _gcd_coeffs(a: Sequence[int], b: Sequence[int], field: PrimeField) -> list[int]:
    """Monic gcd of two canonical coefficient lists (reduced mod p, no trailing
    zeros) by Euclid's algorithm; empty if both are. Neither input is changed."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _divmod_coeffs(a, b, field)[1]
    if a:
        lead_inv = field.inv(a[-1])
        a = [c * lead_inv % field.p for c in a]
    return a


# _companion_powers works on a stack of d x d matrices C_f + aI for a monic
# modulus f of degree d, whose entries, like those of every power it forms,
# are residues in [0, p). Each entry of a product sums d terms below
# (p-1)^2 < 2^40, so it is exact in int64 for every d < 2^23.
def _companion_powers(f: Polynomial, start: int, count: int, e: int) -> np.ndarray:
    """(x + a)^e mod a monic f for a = start, ..., start + count - 1, one row each.

    C_f is multiplication by x on F_p[x]/(f) in the basis 1, x, ..., x^(d-1),
    so (x + a)^e mod f is column 0 of (C_f + aI)^e. Square-and-multiply runs
    right to left on the (count, d, d) stack of the C_f + aI: the stack is
    squared once per bit of e, and the running columns are multiplied by it
    where a bit is set. Row i of the (count, d) result holds the ascending
    coefficients for a = start + i.
    """
    p, d = f.field.p, f.degree
    if d < 0 or f.coeffs[-1] != 1:
        raise ValueError(f"modulus must be monic, got {f!r}")
    if e < 0:
        raise ValueError(f"exponent must be non-negative, got {e}")
    if d == 0:
        return np.zeros((count, 0), dtype=np.int64)
    base = np.zeros((count, d, d), dtype=np.int64)
    base[:, np.arange(1, d), np.arange(d - 1)] = 1
    base[:, :, d - 1] = [-c % p for c in f.coeffs[:d]]
    diag = np.arange(d)
    base[:, diag, diag] += (np.arange(count) + start % p)[:, None]
    base %= p
    cols = np.zeros((count, d, 1), dtype=np.int64)
    cols[:, 0] = 1
    while e:
        if e & 1:
            cols = (base @ cols) % p
        e >>= 1
        if e:
            base = (base @ base) % p
    return cols[:, :, 0]


def _check_pair(a: Matrix, b: Matrix) -> None:
    if a.field != b.field:
        raise FieldMismatch(f"mixed moduli {a.field.p} and {b.field.p}")
    if a.n != b.n:
        raise DimensionMismatch(f"orders differ: {a.n} vs {b.n}")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product over F_p; the constructor reduces the exact int64 product."""
    _check_pair(a, b)
    return Matrix(a.field, a.entries @ b.entries)


def _rref_array(arr: np.ndarray, field: PrimeField) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan on an arbitrary rows x cols int64 array; returns (RREF, pivot cols).

    arr is only read: the elimination runs in place on a C-ordered copy
    reduced mod p.
    """
    p = field.p
    a = np.remainder(arr, p, order="C")
    m, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        below = a[r:, c]
        # argmax of a bool array is the index of its first True.
        i = int(np.not_equal(below, 0).argmax())
        if not below[i]:
            if not a[r:, c:].any():
                break  # no pivot remains
            continue
        if i:
            a[[r, r + i]] = a[[r + i, r]]
        row = a[r]
        row *= pow(int(row[c]), -1, p)
        row %= p
        col = a[:, c].copy()
        col[r] = 0
        # Rank-1 update in place: every entry of a, col and row is a residue,
        # so each product is below (p-1)^2 < 2^40 and a - col * row lies in
        # (-2^40, 2^20), exact in int64.
        a -= col[:, np.newaxis] * row
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(a: Matrix) -> int:
    """Row rank over F_p."""
    return len(_rref_array(a.entries, a.field)[1])


def _stack_ranks(stack: np.ndarray, p: int) -> np.ndarray:
    """Row rank over F_p of each matrix in a (k, rows, cols) int64 stack, in one pass.

    Fraction-free elimination, one pivot column at a time for the whole
    stack: in each matrix the first row that is not yet a pivot row and is
    nonzero in the column becomes one, and every other such row r is
    replaced by pv * r - r[c] * prow (mod p), with pv = prow[c] != 0, which
    keeps the rank and needs no inverse. Both terms are below p^2 <= 2^40,
    so the difference lies within +-2^41, exact in int64. The rank is the
    number of pivot rows. The per-matrix `rank` is its reference.
    """
    a = stack % p
    k, m, ncols = a.shape
    free = np.ones((k, m), dtype=bool)
    every = np.arange(k)
    for c in range(ncols):
        cand = free & (a[:, :, c] != 0)
        has = cand.any(axis=1)
        if not has.any():
            continue
        piv = cand.argmax(axis=1)
        prow = a[every, piv]
        free[every[has], piv[has]] = False
        col = np.where(free, a[:, :, c], 0)
        pv = np.where(has, prow[:, c], 1)
        a = (pv[:, None, None] * a - col[:, :, None] * prow[:, None, :]) % p
    return m - free.sum(axis=1)


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse of a, or Singular if rank < n."""
    n = a.n
    aug = np.hstack([a.entries, np.eye(n, dtype=np.int64)])
    reduced, pivots = _rref_array(aug, a.field)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise Singular(f"matrix of rank {len([c for c in pivots if c < n])} < {n}")
    return Matrix(a.field, reduced[:, n:])


def _eval_rows(a: Matrix, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """q(A) for each row q of n + 1 ascending residues, as a (len(rows), n, n) stack: one
    product with `a.powers()`, each entry summing n + 1 terms below 2^40, exact in int64.
    Horner's rule in the tests (`reference.poly_eval`) is its reference."""
    coeffs = np.array(rows, dtype=np.int64).reshape(-1, a.n + 1)
    return ((coeffs @ a.powers().reshape(a.n + 1, -1)) % a.field.p).reshape(-1, a.n, a.n)


# SpanBasis stores a basis of dimension d as R, its d x (ambient_dim - d)
# block on the free columns, and forms four kinds of product: a block of
# vectors reduced against the basis, v[free] - v[pivots] @ R, sums d <=
# ambient_dim terms; the local elimination's products over the k rows kept
# so far, and the merge of k new rows, R[:, keep] - R[:, lp] @ new, sum k <=
# ambient_dim terms; and each candidate word compute_length builds from
# n x n matrices sums n <= ambient_dim terms. Each term is a product of
# two residues in [0, p), so every partial sum is an integer of magnitude
# below ambient_dim * (p-1)^2, and its difference with a residue stays within
# that bound. A float type with a t-bit significand holds all such integers
# exactly, whatever order BLAS sums them in, below 2^t, and `_reduce` maps
# them exactly to [0, p) while they are at most 2^t - p. Hence float32 (t =
# 24) while ambient_dim * (p-1)^2 + p <= 2^24 (every n <= 40 at p = 101, every
# n <= 136 at p <= 31), which moves half the bytes of float64; then float64
# (t = 53) while ambient_dim * (p-1)^2 + p <= 2^53 (every n <= 90 at p <
# 2^20). int64 holds them below 2^63.
FLOAT32_EXACT_BOUND = 1 << 24
FLOAT64_EXACT_BOUND = 1 << 53
INT64_EXACT_BOUND = 1 << 63


def _accumulator_dtype(ambient_dim: int, p: int) -> type:
    worst = ambient_dim * (p - 1) ** 2
    if worst + p <= FLOAT32_EXACT_BOUND:
        return np.float32
    if worst + p <= FLOAT64_EXACT_BOUND:
        return np.float64
    if worst < INT64_EXACT_BOUND:
        return np.int64
    raise AccumulatorOverflow(
        f"ambient dimension {ambient_dim} over F_{p}: sums up to {worst} exceed int64"
    )


# _reduce works through a float array in slices along its first axis of
# about this many entries, so that each slice's quotient (256 KiB in float64)
# stays in cache: on a 2048 x 2048 float64 array (2-core x86 VM) this ran
# 3-4x faster than one whole-array pass, which also needs a temporary as
# large as the array.
REDUCE_CHUNK = 1 << 15
# Below this many entries, _reduce takes np.remainder on float arrays as well:
# its one ufunc call costs less than divide, floor, multiply and subtract there.
# On a 2-core x86 VM (1-D arrays, best of 5) np.remainder took 1.4-2.0 us
# against 3.8-4.0 us at 16 entries and 18-19 us against 4.2-4.9 us at 1024;
# the two are within noise of each other from 64 to 224 entries.
REDUCE_SMALL = 256


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce x mod p in place and return it: int64 and small float arrays
    by np.remainder, larger float32 and float64 arrays by divide-and-floor.

    Precondition for a float type with a t-bit significand (t = 24 in
    float32, 53 in float64): every entry is an integer with |x| <= 2^t - p.
    np.remainder is exact on such floats: fmod's result is always exactly
    representable, and its sign fix adds p to an integer in (-p, 0).
    Divide-and-floor: write x = m*p + r with 0 <= r < p. The true quotient
    x/p = m + r/p is m itself when r = 0, exactly representable since |m| <
    2^t; otherwise it lies at least 1/p away from both m and m + 1. A
    correctly rounded division errs by at most half an ulp of |x/p|, below
    |x/p| * 2^-t < 1/p, and rounding is monotonic, so floor(x / p) is
    exactly m. Then |m*p| = |x - r| <= 2^t - 1 is exact, and so is x - m*p
    = r. (Multiplying by a rounded 1/p instead carries no such guarantee.)
    The Python int p does not promote a float32 x: every step stays float32.
    """
    if x.dtype.kind != "f" or x.size < REDUCE_SMALL:
        return np.remainder(x, p, out=x)
    rows = max(1, REDUCE_CHUNK * len(x) // x.size)
    for start in range(0, len(x), rows):
        part = x[start : start + rows]
        q = part / p
        np.floor(q, out=q)
        q *= p
        part -= q
    return x


class SpanBasis:
    """Row-reduced basis of a subspace of F_p^{ambient_dim}, stored as its free columns.

    The RREF of a span of dimension d is [I | R] up to a column permutation,
    so only R is stored: `_r` is d x (ambient_dim - d), in the exact dtype
    chosen by `_accumulator_dtype`. Row i has a 1 at `_pivots[i]`, a 0 at
    every other pivot, and `_r[i]` on `_free`. A vector's coordinate on row i
    is its entry at `_pivots[i]`, so it reduces against the whole basis in
    one product, and its residue is zero on every pivot. Rows are kept in
    the order they were added, `_free` ascending; `rows` and `pivot_cols`
    sort them by pivot, which is the unique RREF of the span.
    """

    __slots__ = ("field", "ambient_dim", "dtype", "_pivots", "_free", "_r")

    def __init__(self, field: PrimeField, ambient_dim: int):
        self.field = field
        self.ambient_dim = _integer(ambient_dim, "ambient dimension")
        if self.ambient_dim < 0:
            raise ParseError(f"ambient dimension must be non-negative, got {self.ambient_dim}")
        self.dtype = _accumulator_dtype(self.ambient_dim, field.p)
        self._pivots: list[int] = []
        # None until the first row is added: every column is free.
        self._free: np.ndarray | None = None
        self._r = np.zeros((0, 0), dtype=self.dtype)

    def dim(self) -> int:
        return len(self._pivots)

    @property
    def rows(self) -> np.ndarray:
        """The basis in RREF, rows sorted by pivot column, as int64."""
        d = self.dim()
        out = np.zeros((d, self.ambient_dim), dtype=np.int64)
        if d:
            out[np.arange(d), self._pivots] = 1
            out[:, self._free] = self._r
        return out[np.argsort(self._pivots)]

    @property
    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivots))

    def reduce(self, vec: Sequence[int] | np.ndarray) -> np.ndarray:
        """Residue of vec after elimination against the basis."""
        v = self._coerce(vec, ndim=1)
        if not self.dim():
            return v.astype(np.int64)
        out = np.zeros(self.ambient_dim, dtype=np.int64)
        out[self._free] = self._residues(v[np.newaxis])[0]
        return out

    def contains(self, vec: Sequence[int] | np.ndarray) -> bool:
        return not self.reduce(vec).any()

    def insert(self, vec: Sequence[int] | np.ndarray) -> bool:
        """Insert vec if independent; returns True iff the dimension grew."""
        return bool(self._insert_block(self._coerce(vec, ndim=1)[np.newaxis]))

    def insert_rows(self, block: Sequence[Sequence[int]] | np.ndarray) -> list[int]:
        """Insert the rows of block in order; returns the indices of those that grew the span.

        Accepts exactly the rows, and leaves exactly the basis, that inserting
        them one at a time would, in three steps: one product reduces the whole
        block against the basis; a local elimination over the reduced rows, in
        order, keeps those independent of the rows before them; one rank-k
        update, applied in row slices, clears the k new pivot columns from R,
        which drops them, and the kept rows, in RREF, are stacked under it.
        """
        return self._insert_block(self._coerce(block, ndim=2))

    def _coerce(self, values, ndim: int) -> np.ndarray:
        """Vector (ndim 1) or block of rows (ndim 2) of integers as residues in the basis dtype.

        Reduced in int64, as Matrix entries are; any other input (bool,
        float, complex, object, uint64 beyond int64) is rejected, never
        truncated.
        """
        v = np.asarray(values)
        if v.ndim != ndim or v.shape[-1] != self.ambient_dim:
            raise DimensionMismatch(
                f"shape {v.shape} does not match ambient dimension {self.ambient_dim}"
            )
        return (_int64_entries(v, "vector entries") % self.field.p).astype(self.dtype, copy=False)

    def _residues(self, b: np.ndarray) -> np.ndarray:
        """Residues of the rows of b (residues, basis dtype) on the free columns; d > 0."""
        res = b[:, self._free]
        res -= b[:, self._pivots] @ self._r
        return _reduce(res, self.field.p)

    def _insert_block(self, b: np.ndarray) -> list[int]:
        """`insert_rows` for a block of residues in [0, p) already in the basis dtype.

        compute_length passes its candidate blocks here as built; b is only read.
        """
        p = self.field.p
        d = self.dim()
        if d == self.ambient_dim:
            return []
        free = self._free if d else np.arange(self.ambient_dim)
        res = self._residues(b) if d else b
        # Local elimination in candidate order, on the f free columns. new[:k]
        # holds the rows kept so far, each reduced against those before it and
        # stored unscaled, so new[:k, lp[:k]] is upper triangular with the
        # pivot values u on its diagonal; inv_u is its inverse, extended by one
        # column per kept row, and a row's residue against new[:k] takes two
        # products. Once k == f the kept rows span every free column, so each
        # later row is dependent and the loop stops.
        f = len(free)
        most = min(len(res), f)
        new = np.empty((most, f), dtype=self.dtype)
        inv_u = np.zeros((most, most), dtype=self.dtype)
        lp = np.empty(most, dtype=np.intp)
        accepted: list[int] = []
        k = 0
        for i, v in enumerate(res):
            if k == f:
                break
            if k:
                # Both products sum k <= ambient_dim products of residues:
                # within the basis's exactness bound, as is v minus the second.
                # coeffs has k entries, few enough that np.remainder is the
                # cheaper exact reduction; v has f and goes through _reduce.
                coeffs = np.remainder(v[lp[:k]] @ inv_u[:k, :k], p)
                v = _reduce(v - coeffs @ new[:k], p)
            # The first nonzero entry, if any: argmax of a bool array is the
            # index of its first True.
            j = int(np.not_equal(v, 0).argmax())
            if not v[j]:
                continue
            s = pow(int(v[j]), -1, p)
            new[k] = v
            # The inverse of [[U, c], [0, u]] is [[U^-1, -s U^-1 c], [0, s]]
            # with s = 1/u. U^-1 c sums k products of residues, and its
            # residue times p - s is at most (p-1)^2, within the bound too.
            col = np.remainder(inv_u[:k, :k] @ new[:k, j], p)
            col *= p - s
            np.remainder(col, p, out=inv_u[:k, k])
            inv_u[k, k] = s
            lp[k] = j
            accepted.append(i)
            k += 1
        if k:
            # The kept rows in RREF are I on lp and new_keep on the columns
            # that stay free; each old row drops its lp entries by subtracting
            # R[:, lp] @ [I | new_keep]. inv_u @ new sums k products of residues.
            lp = lp[:k]
            keep = np.delete(np.arange(f), lp)
            new_keep = _reduce(inv_u[:k, :k] @ new[:k][:, keep], p)
            r = np.empty((d + k, f - k), dtype=self.dtype)
            if d:
                top = r[:d]
                # keep holds valid indices; mode="clip" writes straight into
                # top, where the default mode buffers a copy first.
                np.take(self._r, keep, axis=1, out=top, mode="clip")
                # Row slices of REDUCE_CHUNK entries, as _reduce's, but of at
                # least k rows, so that each slice uses every entry of
                # new_keep it reads k times: the product is one slice of at
                # most max(REDUCE_CHUNK, k * (f - k)) entries, not a third
                # d x (f - k) array beside the old and the new R. (Without
                # the floor, slices are 3 rows at n = 96 over F_101, and
                # compute_length ran about 40% slower.)
                rows = max(k, REDUCE_CHUNK // max(f - k, 1))
                for start in range(0, d, rows):
                    part = top[start : start + rows]
                    part -= self._r[start : start + rows, lp] @ new_keep
                    _reduce(part, p)
            r[d:] = new_keep
            self._r = r
            self._pivots += free[lp].tolist()
            self._free = free[keep]
        return accepted
