"""Independent oracles from sympy, which shares no code with matlen: ranks and
RREF over GF(p) from `DomainMatrix`, and the factorization of minimal
polynomials from `Poly(..., modulus=p).factor_list()`.

Runs only where the optional `test` extra's sympy is installed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from matlen.errors import NotSplit  # noqa: E402
from matlen.instances import _conjugated, jordan_matrix, random_jordan_spec  # noqa: E402
from matlen.linalg import Matrix, PrimeField, SpanBasis, _gcd_coeffs, _rref_array, rank  # noqa: E402
from matlen.spectral import minimal_polynomial, split_roots  # noqa: E402
from reference import KRYLOV_KINDS, krylov_minimal_polynomial, krylov_test_matrix  # noqa: E402

X = sympy.Symbol("x")


def sympy_rank(rows: np.ndarray, p: int) -> int:
    return DomainMatrix.from_list(rows.tolist(), sympy.GF(p)).rank()


def low_rank_stack(rng, p: int, m: int, cols: int, r: int) -> np.ndarray:
    """m x cols stack of rank at most r: a product of random m x r and r x cols factors."""
    return (rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, cols))) % p


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 101, 1048573]),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 90),
    cols=st.integers(1, 30),
    r=st.integers(1, 30),
    chunk=st.integers(1, 90),
)
def test_span_dimension_after_insert_rows(p, seed, m, cols, r, chunk):
    rng = np.random.default_rng(seed)
    stack = low_rank_stack(rng, p, m, cols, r)
    basis = SpanBasis(PrimeField(p), cols)
    for lo in range(0, m, chunk):
        basis.insert_rows(stack[lo : lo + chunk])
    assert basis.dim() == sympy_rank(stack, p)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 101, 1048573]), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       r=st.integers(1, 8))
def test_rank(p, seed, n, r):
    rng = np.random.default_rng(seed)
    a = low_rank_stack(rng, p, n, n, r)
    assert rank(Matrix(PrimeField(p), a)) == sympy_rank(a, p)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 101, 1048573]), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       r=st.integers(1, 8))
def test_rref(p, seed, n, r):
    a = low_rank_stack(np.random.default_rng(seed), p, n, n, r)
    reduced, pivots = _rref_array(a, PrimeField(p))
    expected, expected_pivots = DomainMatrix.from_list(a.tolist(), sympy.GF(p)).rref()
    assert reduced.tolist() == [[int(e) % p for e in row] for row in expected.to_list()]
    assert tuple(pivots) == tuple(expected_pivots)


def sympy_poly(coeffs: list[int], p: int):
    """The polynomial over GF(p) with ascending coefficients coeffs (zero if empty)."""
    return sympy.Poly(list(reversed(coeffs)) or [0], X, modulus=p)


def ascending_residues(poly, p: int) -> list[int]:
    """A sympy polynomial's ascending coefficients in [0, p), trailing zeros stripped."""
    cs = [int(c) % p for c in reversed(poly.all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 101, 1048573]), data=st.data())
def test_gcd_coeffs(p, data):
    # a = c * u and b = c * v, multiplied in sympy, so that most gcds are
    # nontrivial; an empty list is the zero polynomial.
    coeffs = st.lists(st.integers(0, p - 1), max_size=6)
    c, u, v = (sympy_poly(data.draw(coeffs), p) for _ in range(3))
    a, b = ascending_residues(c * u, p), ascending_residues(c * v, p)
    a_in, b_in = list(a), list(b)
    assert _gcd_coeffs(a, b, PrimeField(p)) == ascending_residues((c * u).gcd(c * v), p)
    assert (a, b) == (a_in, b_in)


def spectral_test_matrix(rng, field: PrimeField, n: int, kind: str) -> Matrix:
    """A conjugated Jordan matrix (split), a random matrix (mostly not split),
    or a split Jordan part next to a random block (split or not)."""
    p = field.p
    if kind == "jordan":
        a = jordan_matrix(field, random_jordan_spec(n, field, rng)).entries
    elif kind == "random":
        a = rng.integers(0, p, size=(n, n))
    else:
        k = int(rng.integers(1, n))
        a = np.zeros((n, n), dtype=np.int64)
        a[:k, :k] = jordan_matrix(field, random_jordan_spec(k, field, rng)).entries
        a[k:, k:] = rng.integers(0, p, size=(n - k, n - k))
    return _conjugated(Matrix(field, a), rng)


def sympy_matrix_eval(coeffs: list[int], a: np.ndarray, p: int) -> list[list[int]]:
    """q(A) over GF(p) by Horner in sympy, q given by ascending coefficients."""
    gf = sympy.GF(p)
    dm = DomainMatrix.from_list(a.tolist(), gf)
    ident = DomainMatrix.from_list(np.eye(len(a), dtype=int).tolist(), gf)
    acc = DomainMatrix.from_list(np.zeros_like(a).tolist(), gf)
    for c in reversed(coeffs):
        acc = acc.matmul(dm) + ident * gf(c)
    return [[int(e) % p for e in row] for row in acc.to_list()]


def sympy_minimal_factors(mp, a: Matrix) -> list:
    """Checks in sympy that mp is monic, annihilates a, and has no factor that can be
    dropped; returns its factors with multiplicities."""
    p, n = a.field.p, a.n
    poly = sympy.Poly(list(reversed(mp.coeffs)), X, modulus=p)
    lead, factors = poly.factor_list()
    assert lead == 1
    zero = [[0] * n for _ in range(n)]
    assert sympy_matrix_eval(list(mp.coeffs), a.entries, p) == zero
    for factor, _ in factors:
        quotient = poly.exquo(factor)
        coeffs = [int(c) % p for c in reversed(quotient.all_coeffs())]
        assert sympy_matrix_eval(coeffs, a.entries, p) != zero
    return factors


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([101, 1048573]), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7),
       kind=st.sampled_from(["jordan", "random", "mixed"]))
def test_minimal_polynomial_and_split_roots(p, seed, n, kind):
    field = PrimeField(p)
    a = spectral_test_matrix(np.random.default_rng(seed), field, n, kind)
    mp = minimal_polynomial(a)
    factors = sympy_minimal_factors(mp, a)
    if any(factor.degree() > 1 for factor, _ in factors):
        with pytest.raises(NotSplit):
            split_roots(mp)
        return
    expected = sorted((-int(factor.all_coeffs()[1]) % p, mult) for factor, mult in factors)
    assert split_roots(mp).roots == tuple(expected)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 101, 1048573]), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
       kind=st.sampled_from(KRYLOV_KINDS))
def test_minimal_polynomial_on_derogatory_matrices(p, seed, n, kind):
    a, _ = krylov_test_matrix(np.random.default_rng(seed), PrimeField(p), n, kind)
    mp = minimal_polynomial(a)
    sympy_minimal_factors(mp, a)
    assert mp.coeffs == krylov_minimal_polynomial(a)
