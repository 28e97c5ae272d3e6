"""Exact arithmetic and span-basis primitives."""

import itertools
import json
import pickle
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matlen.linalg
from matlen.errors import (
    AccumulatorOverflow,
    DimensionMismatch,
    FieldMismatch,
    ModulusTooLarge,
    NotPrime,
    ParseError,
    Singular,
)
from matlen.instances import _conjugated, _invertible_pair
from matlen.linalg import (
    MAX_MODULUS,
    REDUCE_CHUNK,
    REDUCE_SMALL,
    Matrix,
    Polynomial,
    PrimeField,
    SpanBasis,
    _companion_powers,
    _divmod_coeffs,
    _eval_rows,
    _gcd_coeffs,
    _is_prime,
    _mul_coeffs,
    _reduce,
    _rref_array,
    _stack_ranks,
    mat_inverse,
    mat_mul,
    rank,
)
from matlen.spectral import minimal_polynomial
from reference import FullRowBasis, divisor_poly, full_row_basis, poly_eval, poly_product, powmod

F7 = PrimeField(7)
F101 = PrimeField(101)


def schoolbook_mul(a: Matrix, b: Matrix) -> Matrix:
    """Independent triple-loop multiply over Python ints."""
    n, p = a.n, a.field.p
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc += int(a.entries[i, k]) * int(b.entries[k, j])
            out[i][j] = acc % p
    return Matrix(a.field, out)


def random_matrix(field, n, rng):
    return Matrix(field, rng.integers(0, field.p, size=(n, n)))


def nilpotent_jordan(field, n):
    arr = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        arr[i, i + 1] = 1
    return Matrix(field, arr)


class TestPrimeField:
    def test_rejects_composite_and_units(self):
        for bad in (0, 1, 4, 10, 91):
            with pytest.raises(NotPrime):
                PrimeField(bad)

    def test_rejects_modulus_over_cap(self):
        with pytest.raises(ModulusTooLarge):
            PrimeField(1048583)  # smallest prime above 2^20

    @pytest.mark.parametrize("p", [2**61 - 1, 2**61, 1048584], ids=["mersenne-prime", "power-of-two", "cap-plus-8"])
    def test_cap_is_checked_before_primality(self, monkeypatch, p):
        # Trial division of 2^61 - 1 runs up to 1.5e9 and takes minutes: a
        # modulus over the cap is unsupported, prime or not, untested.
        def no_trial_division(q):
            raise AssertionError(f"primality of {q} tested")

        monkeypatch.setattr(matlen.linalg, "_is_prime", no_trial_division)
        assert p > MAX_MODULUS
        with pytest.raises(ModulusTooLarge):
            PrimeField(p)

    def test_is_prime_matches_a_sieve_up_to_the_cap(self):
        # Every k up to just past the cap, against the sieve of Eratosthenes.
        bound = MAX_MODULUS + 65
        sieve = np.ones(bound, dtype=bool)
        sieve[:2] = False
        for k in range(2, int(bound**0.5) + 1):
            if sieve[k]:
                sieve[k * k :: k] = False
        assert [k for k in range(bound) if _is_prime(k)] == np.flatnonzero(sieve).tolist()

    def test_inverse_roundtrip(self):
        for a in range(1, 7):
            assert a * F7.inv(a) % 7 == 1

    def test_numpy_integer_modulus_stored_as_int(self):
        for p in (np.int64(101), np.uint16(101), np.int32(101)):
            field = PrimeField(p)
            assert type(field.p) is int
            assert field == F101 and hash(field) == hash(F101)
            assert json.dumps({"p": field.p}) == '{"p": 101}'

    @pytest.mark.parametrize(
        "p",
        [True, np.bool_(True), 101.0, np.float64(101.0), "101", Fraction(101), None],
        ids=["bool", "numpy-bool", "float", "numpy-float", "str", "fraction", "none"],
    )
    def test_non_integer_modulus_rejected(self, p):
        with pytest.raises(ParseError, match="must be an integer"):
            PrimeField(p)


class TestMatrixInput:
    def test_integer_arrays_and_lists_reduce_mod_p(self):
        assert Matrix(F7, [[8, -1], [0, 1]]).entries.tolist() == [[1, 6], [0, 1]]
        assert Matrix(F7, np.array([[8, 2], [0, 1]], dtype=np.uint8)) == Matrix(F7, [[1, 2], [0, 1]])
        assert Matrix(F7, np.array([[2**63 - 1]], dtype=np.uint64)).entries.tolist() == [[(2**63 - 1) % 7]]

    @pytest.mark.parametrize(
        "entries",
        [
            [[True, False], [False, True]],
            [[1.9, 1], [0, 1]],
            [[1 + 0j, 1], [0, 1]],
            np.array([[1, 2], [0, 1]], dtype=object),
            [[2**70]],
            np.array([[2**63]], dtype=np.uint64),
        ],
        ids=["bool", "float", "complex", "object", "beyond-uint64", "beyond-int64"],
    )
    def test_non_integer_or_oversized_entries_rejected(self, entries):
        with pytest.raises(ParseError, match="fit in int64"):
            Matrix(F7, entries)


class TestPolynomialInput:
    def test_integer_coefficients_reduce_mod_p(self):
        assert Polynomial(F7, [8, -1, np.int64(14), 2**70]).coeffs == (1, 6, 0, 2**70 % 7)
        assert all(type(c) is int for c in Polynomial(F7, np.array([3, 9], dtype=np.uint8)).coeffs)

    @pytest.mark.parametrize(
        "coeff",
        [True, np.bool_(True), 1.9, 2.0, np.float64(1.0), 1 + 0j, Fraction(1, 2), object()],
        ids=["bool", "numpy-bool", "float", "integral-float", "numpy-float", "complex", "fraction", "object"],
    )
    def test_non_integer_coefficients_rejected(self, coeff):
        with pytest.raises(ParseError, match="polynomial coefficient must be an integer, got "):
            Polynomial(F7, [1, coeff])


def assert_canonical(poly: Polynomial) -> None:
    """poly holds Python ints, and rebuilding it from them is a no-op."""
    assert all(type(c) is int for c in poly.coeffs)
    assert poly == Polynomial(poly.field, list(poly.coeffs))


class TestCanonicalResults:
    # Results hold Python ints and rebuild to themselves; the list kernels
    # return coefficient lists that are already reduced and trimmed.
    @settings(max_examples=80, deadline=None)
    @given(
        p=st.sampled_from([2, 7, 101, 1048573]),
        a=st.lists(st.integers(0, 2**20), max_size=9),
        b=st.lists(st.integers(0, 2**20), max_size=6),
        lam=st.integers(0, 2**20),
    )
    def test_arithmetic_results_are_canonical(self, p, a, b, lam):
        # The coefficient-list kernels return lists the constructor leaves as they are.
        field = PrimeField(p)
        a, b = Polynomial(field, a), Polynomial(field, b)
        for poly in (a.divmod_linear(lam)[0], Polynomial.zero(field)):
            assert_canonical(poly)
        results = [_gcd_coeffs(a.coeffs, b.coeffs, field)]
        if b.degree >= 0:
            results += _divmod_coeffs(list(a.coeffs), b.coeffs, field)
        for cs in results:
            assert all(type(c) is int for c in cs) and tuple(cs) == Polynomial(field, cs).coeffs

    @settings(max_examples=40, deadline=None)
    @given(p=st.sampled_from([2, 7, 101, 1048573]), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_minimal_polynomial_is_canonical(self, p, n, seed):
        field = PrimeField(p)
        rng = np.random.default_rng(seed)
        assert_canonical(minimal_polynomial(random_matrix(field, n, rng)))
        assert_canonical(minimal_polynomial(nilpotent_jordan(field, n)))


def poly_strategy(max_degree: int):
    return st.lists(st.integers(0, 100), max_size=max_degree + 1).map(lambda cs: Polynomial(F101, cs))


def divides(d, x) -> bool:
    """Whether the coefficient list d divides x over F_101."""
    return not _divmod_coeffs(list(x), d, F101)[1]


class TestPolynomialArithmetic:
    """The coefficient-list kernels of root splitting: `_mul_coeffs`, `_divmod_coeffs`, `_gcd_coeffs`."""

    @settings(max_examples=60, deadline=None)
    @given(a=poly_strategy(8), b=poly_strategy(8))
    def test_mul_matches_schoolbook(self, a, b):
        assert Polynomial(F101, _mul_coeffs(a.coeffs, b.coeffs)) == poly_product(F101, [a.coeffs, b.coeffs])

    @settings(max_examples=60, deadline=None)
    @given(a=poly_strategy(14), b=poly_strategy(8))
    def test_divmod_reconstructs(self, a, b):
        if b.degree < 0:
            with pytest.raises(ZeroDivisionError):
                _divmod_coeffs(list(a.coeffs), b.coeffs, F101)
            return
        q, r = _divmod_coeffs(list(a.coeffs), b.coeffs, F101)
        assert len(r) - 1 < b.degree
        a_minus_r = [x - y for x, y in zip(a.coeffs, r + [0] * len(a.coeffs))]
        assert poly_product(F101, [q, b.coeffs]) == Polynomial(F101, a_minus_r)

    @settings(max_examples=60, deadline=None)
    @given(a=poly_strategy(6), b=poly_strategy(6), c=poly_strategy(4))
    def test_gcd_is_monic_common_divisor_of_greatest_degree(self, a, b, c):
        ac, bc = (poly_product(F101, [x.coeffs, c.coeffs]).coeffs for x in (a, b))
        g = _gcd_coeffs(ac, bc, F101)
        if not ac and not bc:
            assert g == []
            return
        assert g[-1] == 1
        assert divides(g, ac) and divides(g, bc)
        # c divides both, so it divides their greatest common divisor.
        if c.degree >= 0:
            assert divides(c.coeffs, g)


class TestCompanionPowers:
    """`_companion_powers` against `reference.powmod`, polynomial square-and-multiply."""

    @settings(max_examples=60, deadline=None)
    @given(base=poly_strategy(5), e=st.integers(0, 40), m=poly_strategy(6))
    def test_powmod_matches_repeated_products(self, base, e, m):
        if m.degree < 0:
            return
        expected = _divmod_coeffs(list(poly_product(F101, [base.coeffs] * e).coeffs), m.coeffs, F101)[1]
        assert powmod(base, e, m) == Polynomial(F101, expected)

    def test_powmod_rejects_negative_exponent(self):
        x = Polynomial(F7, (0, 1))
        with pytest.raises(ValueError):
            powmod(x, -1, Polynomial(F7, (1, 0, 1)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.sampled_from([3, 5, 101, 25013, 1048573]), d=st.integers(1, 12))
    def test_matches_reference_powmod(self, data, p, d):
        field = PrimeField(p)
        elems = st.integers(0, p - 1)
        # Any nonzero leading coefficient: the caller makes the modulus monic.
        coeffs = data.draw(st.lists(elems, min_size=d, max_size=d)) + [data.draw(st.integers(1, p - 1))]
        modulus = Polynomial(field, coeffs)
        lead_inv = field.inv(coeffs[-1])
        monic = Polynomial(field, [c * lead_inv for c in coeffs])
        # Shifts past p wrap around: a batch may run beyond the field.
        start = data.draw(elems | st.integers(p, 2 * p))
        count = data.draw(st.integers(1, 8))
        e = data.draw(st.sampled_from([0, 1, p, (p - 1) // 2]) | st.integers(0, 4 * p))
        batch = _companion_powers(monic, start, count, e)
        assert batch.shape == (count, d)
        for i, row in enumerate(batch.tolist()):
            x_plus_a = Polynomial(field, (start + i, 1))
            assert Polynomial(field, row) == powmod(x_plus_a, e, modulus)

    def test_constant_modulus_leaves_zero(self):
        assert _companion_powers(Polynomial(F7, (1,)), 3, 2, 5).shape == (2, 0)

    def test_rejects_non_monic_modulus_and_negative_exponent(self):
        with pytest.raises(ValueError, match="monic"):
            _companion_powers(Polynomial(F7, (1, 0, 2)), 0, 1, 3)
        with pytest.raises(ValueError, match="monic"):
            _companion_powers(Polynomial.zero(F7), 0, 1, 3)
        with pytest.raises(ValueError, match="non-negative"):
            _companion_powers(Polynomial(F7, (1, 0, 1)), 0, 1, -1)


class TestMatMul:
    def test_identity_absorbs(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 4):
            m = random_matrix(F101, n, rng)
            assert mat_mul(Matrix.identity(F101, n), m) == m
            assert mat_mul(m, Matrix.identity(F101, n)) == m

    def test_matrix_unit_calculus(self):
        e12 = Matrix.unit(F7, 2, 0, 1)
        e21 = Matrix.unit(F7, 2, 1, 0)
        assert mat_mul(e12, e21) == Matrix.unit(F7, 2, 0, 0)
        assert mat_mul(e21, e12) == Matrix.unit(F7, 2, 1, 1)

    def test_against_schoolbook_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_matrix(F101, 4, rng)
            b = random_matrix(F101, 4, rng)
            assert mat_mul(a, b) == schoolbook_mul(a, b)

    def test_dimension_and_field_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(Matrix.identity(F101, 2), Matrix.identity(F101, 3))
        with pytest.raises(FieldMismatch):
            mat_mul(Matrix.identity(F101, 2), Matrix.identity(F7, 2))

    def test_associative_and_distributive(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b, c = (random_matrix(F101, 3, rng) for _ in range(3))
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
            b_plus_c = Matrix(F101, b.entries + c.entries)
            assert mat_mul(a, b_plus_c) == Matrix(F101, mat_mul(a, b).entries + mat_mul(a, c).entries)


class TestRankRref:
    def test_rank_basics(self):
        assert rank(Matrix(F101, np.zeros((3, 3), dtype=np.int64))) == 0
        assert rank(Matrix.identity(F101, 5)) == 5
        assert rank(nilpotent_jordan(F101, 3)) == 2

    def test_rref_identity_and_zero(self):
        r, pivots = _rref_array(np.eye(4, dtype=np.int64), F101)
        assert np.array_equal(r, np.eye(4)) and pivots == [0, 1, 2, 3]
        r, pivots = _rref_array(np.zeros((3, 3), dtype=np.int64), F101)
        assert not r.any() and pivots == []

    def test_rref_hand_elimination(self):
        # [[2,4],[1,2]] over F_7: scale row 0 by inv(2)=4 -> [1,2]; row 1 clears.
        r, pivots = _rref_array(np.array([[2, 4], [1, 2]]), F7)
        assert pivots == [0]
        assert r.tolist() == [[1, 2], [0, 0]]

    def test_rref_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_matrix(F7, 4, rng)
            once, piv = _rref_array(m.entries, F7)
            twice, piv2 = _rref_array(once, F7)
            assert np.array_equal(once, twice) and piv == piv2


RREF_ROW_KINDS = ("random", "zero", "duplicate", "combination", "top")


def rref_test_rows(rng, p: int, ncols: int, kinds) -> np.ndarray:
    """One row per kind: uniform, zero, a copy of an earlier row, a random
    combination of earlier rows (rank-deficient), or entries in [p - 3, p)."""
    rows: list[np.ndarray] = []
    for kind in kinds:
        if kind == "zero" or (kind in ("duplicate", "combination") and not rows):
            row = np.zeros(ncols, dtype=np.int64)
        elif kind == "duplicate":
            row = rows[int(rng.integers(0, len(rows)))].copy()
        elif kind == "combination":
            coeffs = rng.integers(0, p, size=len(rows))
            row = (coeffs @ np.stack(rows)) % p
        elif kind == "top":
            row = p - 1 - rng.integers(0, min(p, 3), size=ncols)
        else:
            row = rng.integers(0, p, size=ncols)
        rows.append(row.astype(np.int64))
    return np.stack(rows)


class TestRrefArray:
    """`_rref_array` against `FullRowBasis`, which inserts the rows one at a time."""

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 101, 1048573]),
        ncols=st.integers(1, 20),
        kinds=st.lists(st.sampled_from(RREF_ROW_KINDS), min_size=1, max_size=12),
        transposed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=1048573, ncols=20, kinds=["top"] * 12, transposed=False, seed=0)
    @example(p=2, ncols=1, kinds=["zero"], transposed=True, seed=0)
    def test_matches_one_row_at_a_time(self, p, ncols, kinds, transposed, seed):
        field = PrimeField(p)
        arr = rref_test_rows(np.random.default_rng(seed), p, ncols, kinds)
        if transposed:
            # The same rows in a column-major array, as minimal_polynomial passes.
            arr = np.asfortranarray(arr)
        before = arr.copy()
        reduced, pivots = _rref_array(arr, field)
        ref = FullRowBasis(field, ncols)
        for row in arr:
            ref.insert(row)
        d = ref.dim()
        assert pivots == list(ref.pivot_cols)
        assert reduced.dtype == np.int64 and reduced.shape == arr.shape
        assert np.array_equal(reduced[:d], ref.rows)
        assert not reduced[d:].any()
        assert np.array_equal(arr, before)

    def test_unreduced_input(self):
        # Entries outside [0, p), negative ones included, are reduced first.
        arr = np.array([[9, -5, 14], [-2, 3, 7]], dtype=np.int64)
        reduced, pivots = _rref_array(arr, F7)
        expected, expected_pivots = _rref_array(arr % 7, F7)
        assert pivots == expected_pivots and np.array_equal(reduced, expected)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 10), top=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_inverse_roundtrip_at_the_largest_modulus(self, n, top, seed):
        # p = 1048573 < 2^20 is the largest prime the field allows, where the
        # in-place rank-1 products come closest to the 2^40 bound; the top
        # rows keep every entry within 3 of p.
        field = PrimeField(1048573)
        rng = np.random.default_rng(seed)
        kinds = ["top" if top else "random"] * n
        m = Matrix(field, rref_test_rows(rng, field.p, n, kinds))
        eye = Matrix.identity(field, n)
        try:
            inv = mat_inverse(m)
        except Singular:
            assert rank(m) < n
            return
        assert mat_mul(m, inv) == eye and mat_mul(inv, m) == eye


STACK_KINDS = ("random", "zero", "identity", "nilpotent", "low-rank")


def stack_matrix(rng, p: int, n: int, kind: str) -> np.ndarray:
    if kind == "random":
        return rng.integers(0, p, size=(n, n))
    if kind == "zero":
        return np.zeros((n, n), dtype=np.int64)
    if kind == "identity":
        return np.eye(n, dtype=np.int64)
    if kind == "nilpotent":
        # Strictly upper triangular, conjugated by a random invertible matrix.
        u = np.triu(rng.integers(0, p, size=(n, n)), 1)
        return _conjugated(Matrix(PrimeField(p), u), rng).entries
    r = int(rng.integers(0, n))
    return (rng.integers(0, p, size=(n, r)) @ rng.integers(0, p, size=(r, n))) % p


class TestStackRanks:
    """`_stack_ranks` against the per-matrix `rank` on every matrix of the stack."""

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 101, 1048573]),
        n=st.integers(1, 9),
        kinds=st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_rank_on_every_matrix(self, p, n, kinds, seed):
        rng = np.random.default_rng(seed)
        field = PrimeField(p)
        stack = np.stack([stack_matrix(rng, p, n, kind) for kind in kinds])
        got = _stack_ranks(stack, p)
        assert got.tolist() == [rank(Matrix(field, m)) for m in stack]

    def test_powers_of_a_nilpotent_block(self):
        # rank of N^j for the n x n nilpotent Jordan block is n - j.
        n = 5
        base = nilpotent_jordan(F101, n).entries
        stack = np.stack([np.linalg.matrix_power(base, j) for j in range(1, n + 1)])
        assert _stack_ranks(stack, 101).tolist() == [4, 3, 2, 1, 0]

    def test_empty_stack(self):
        assert _stack_ranks(np.zeros((0, 3, 3), dtype=np.int64), 7).tolist() == []

    def test_stack_is_not_modified(self):
        stack = np.stack([np.eye(3, dtype=np.int64), np.ones((3, 3), dtype=np.int64)])
        before = stack.copy()
        assert _stack_ranks(stack, 7).tolist() == [3, 1]
        assert np.array_equal(stack, before)


class TestInverse:
    def test_identity(self):
        assert mat_inverse(Matrix.identity(F101, 3)) == Matrix.identity(F101, 3)

    def test_modular_diagonal(self):
        inv = mat_inverse(Matrix(F7, [[2, 0], [0, 3]]))
        assert inv == Matrix(F7, [[4, 0], [0, 5]])

    def test_singular(self):
        with pytest.raises(Singular):
            mat_inverse(nilpotent_jordan(F101, 2))

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_matrix(F101, 4, rng)
            if rank(m) < 4:
                continue
            assert mat_mul(m, mat_inverse(m)) == Matrix.identity(F101, 4)


class TestConjugate:
    """`instances._conjugated`: P A P^-1 for the next invertible P a generator draws."""

    def test_undone_by_its_conjugator(self):
        rng = np.random.default_rng(9)
        a = random_matrix(F101, 4, rng)
        p, p_inv = _invertible_pair(4, F101, np.random.default_rng(10))
        assert mat_mul(mat_mul(p_inv, _conjugated(a, np.random.default_rng(10))), p) == a

    def test_rank_invariance(self):
        rng = np.random.default_rng(13)
        for n in range(2, 7):
            for _ in range(100):
                a = random_matrix(F101, n, rng)
                assert rank(_conjugated(a, rng)) == rank(a)


class TestPolyEval:
    """The reference Horner evaluation that `_eval_rows` is checked against."""

    def test_square_of_nilpotent(self):
        q = Polynomial(F101, (0, 0, 1))
        assert poly_eval(q, nilpotent_jordan(F101, 3)) == Matrix.unit(F101, 3, 0, 2)

    def test_constant_one(self):
        q = Polynomial(F101, (1,))
        assert poly_eval(q, nilpotent_jordan(F101, 4)) == Matrix.identity(F101, 4)

    def test_split_product_on_diagonal(self):
        # (x-1)(x-2) = x^2 - 3x + 2 at diag(1,2,3) -> diag(0,0,2)
        q = divisor_poly(F7, [(1, 1), (2, 1)])
        a = Matrix(F7, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert poly_eval(q, a) == Matrix(F7, [[0, 0, 0], [0, 0, 0], [0, 0, 2]])

    @settings(max_examples=50, deadline=None)
    @given(
        qc=st.lists(st.integers(0, 100), min_size=1, max_size=4),
        rc=st.lists(st.integers(0, 100), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_multiplicative(self, qc, rc, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(F101, 3, rng)
        q, r = Polynomial(F101, qc), Polynomial(F101, rc)
        assert poly_eval(poly_product(F101, [qc, rc]), a) == mat_mul(poly_eval(q, a), poly_eval(r, a))


class TestPowersStack:
    @settings(max_examples=80, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 101, 65521, 1048573]),
        n=st.integers(1, 12),
        data=st.data(),
    )
    @example(p=1048573, n=12, data=None)
    def test_eval_rows_matches_horner(self, p, n, data):
        # Every row, of degree up to n, evaluated in one product with the
        # cached stack equals poly_eval's Horner; None is the all-(p - 1) case.
        field = PrimeField(p)
        if data is None:
            a, rows = Matrix(field, np.full((n, n), p - 1)), [[p - 1] * (n + 1)] * 3
        else:
            entries = st.integers(0, p - 1)
            a = Matrix(field, data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
            rows = data.draw(st.lists(st.lists(entries, min_size=n + 1, max_size=n + 1), max_size=4))
        got = _eval_rows(a, rows)
        assert got.shape == (len(rows), n, n)
        for row, q_of_a in zip(rows, got):
            assert Matrix(field, q_of_a) == poly_eval(Polynomial(field, row), a)

    def test_stack_is_the_powers_and_read_only(self):
        a = random_matrix(F101, 5, np.random.default_rng(3))
        stack = a.powers()
        assert a.powers() is stack
        assert stack.shape == (6, 5, 5) and stack.dtype == np.int64
        power = Matrix.identity(F101, 5)
        for k in range(6):
            assert Matrix(F101, stack[k]) == power
            power = mat_mul(power, a)
        with pytest.raises(ValueError):
            stack[1, 0, 0] = 0

    def test_racing_fills_return_complete_stacks(self):
        # Threads that fill one matrix's stack at once each return a whole
        # stack, equal to the reference: a stack is stored only once complete.
        rng = np.random.default_rng(5)
        mats = [random_matrix(F101, 12, rng) for _ in range(200)]
        expected = [Matrix(F101, m.entries).powers() for m in mats]
        barrier, results = threading.Barrier(8), []

        def fill():
            barrier.wait(timeout=10)
            # Copied at once: a stack stored before it is complete is filled in later.
            results.append([(m.powers().copy(), m.powers().flags.writeable) for m in mats])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 8
        for stacks in results:
            for (got, writeable), want in zip(stacks, expected):
                assert np.array_equal(got, want) and not writeable

    def test_filled_stack_is_invisible(self):
        # ==, hash, repr and a pickle round trip see the entries only.
        rng = np.random.default_rng(4)
        a = random_matrix(F101, 4, rng)
        filled = Matrix(F101, a.entries)
        filled.powers()
        assert filled == a and a == filled
        assert hash(filled) == hash(a)
        assert repr(filled) == repr(a)
        back = pickle.loads(pickle.dumps(filled))
        assert back == a and hash(back) == hash(a) and repr(back) == repr(a)
        assert back._powers is None and not back.entries.flags.writeable
        assert len(pickle.dumps(filled)) == len(pickle.dumps(a))
        assert np.array_equal(back.powers(), filled.powers())


class TestSpanBasis:
    def test_first_insert(self):
        basis = SpanBasis(F101, 4)
        assert basis.insert(Matrix.identity(F101, 2).vec())
        assert basis.dim() == 1

    def test_scalar_multiple_rejected(self):
        basis = SpanBasis(F101, 4)
        basis.insert(Matrix.identity(F101, 2).vec())
        assert not basis.insert(Matrix(F101, 3 * np.eye(2, dtype=np.int64)).vec())
        assert basis.dim() == 1

    def test_matrix_units_any_order(self):
        units = [Matrix.unit(F101, 2, i, j) for i in range(2) for j in range(2)]
        for perm in itertools.permutations(units):
            basis = SpanBasis(F101, 4)
            grew = [basis.insert(u.vec()) for u in perm]
            assert all(grew) and basis.dim() == 4

    def test_dimension_order_independent(self):
        rng = np.random.default_rng(21)
        mats = [random_matrix(F101, 3, rng) for _ in range(6)]
        dims = set()
        true_count = set()
        for _ in range(10):
            order = rng.permutation(len(mats))
            basis = SpanBasis(F101, 9)
            grew = sum(basis.insert(mats[i].vec()) for i in order)
            dims.add(basis.dim())
            true_count.add(grew)
        assert len(dims) == 1 and true_count == dims

    def test_rref_invariant_maintained(self):
        rng = np.random.default_rng(2)
        basis = SpanBasis(F7, 9)
        for _ in range(12):
            basis.insert(rng.integers(0, 7, size=9))
        rows = basis.rows
        # The RREF of a span is unique: rebuilt from its rows, it gives them back.
        ref = full_row_basis(basis)
        assert ref.dim() == basis.dim() and np.array_equal(ref.rows, rows)
        for r, pc in enumerate(ref.pivot_cols):
            assert rows[r, pc] == 1 and not rows[r, :pc].any()
            col = rows[:, pc].copy()
            col[r] = 0
            assert not col.any()

    def test_dimension_mismatch(self):
        basis = SpanBasis(F101, 4)
        with pytest.raises(DimensionMismatch):
            basis.insert(Matrix.identity(F101, 3).vec())

    @pytest.mark.parametrize(
        "ambient",
        [2.5, 4.0, np.float64(4.0), True, np.bool_(True), "3", None],
        ids=["float", "integral-float", "numpy-float", "bool", "numpy-bool", "str", "none"],
    )
    def test_non_integer_ambient_dimension_rejected(self, ambient):
        with pytest.raises(ParseError, match="must be an integer"):
            SpanBasis(F101, ambient)

    def test_negative_ambient_dimension_rejected(self):
        with pytest.raises(ParseError, match="non-negative"):
            SpanBasis(PrimeField(7), -3)

    def test_numpy_integer_ambient_dimension_accepted(self):
        basis = SpanBasis(F101, np.int64(4))
        assert type(basis.ambient_dim) is int and basis.ambient_dim == 4

    def test_accumulator_dtype_bounds(self):
        # float32 while ambient_dim * (p-1)^2 + p <= 2^24, float64 while it is
        # at most 2^53 (the bounds of _reduce), then int64 while
        # ambient_dim * (p-1)^2 < 2^63.
        assert SpanBasis(F101, 40 * 40).dtype == np.float32
        assert SpanBasis(F101, 1677).dtype == np.float32
        assert SpanBasis(F101, 1678).dtype == np.float64
        assert SpanBasis(PrimeField(2), 2**24 - 2).dtype == np.float32
        assert SpanBasis(PrimeField(2), 2**24 - 1).dtype == np.float64
        big = PrimeField(1048573)
        assert SpanBasis(big, 90 * 90).dtype == np.float64
        assert SpanBasis(big, 8192).dtype == np.float64
        assert SpanBasis(big, 8193).dtype == np.int64
        assert SpanBasis(PrimeField(2), 2**40).dtype == np.float64
        assert SpanBasis(big, 8388672).dtype == np.int64
        with pytest.raises(AccumulatorOverflow):
            SpanBasis(big, 8388673)
        assert SpanBasis(PrimeField(2), 2**53 - 2).dtype == np.float64
        assert SpanBasis(PrimeField(2), 2**53 - 1).dtype == np.int64

    def test_int64_path_matches_sequential(self):
        big = PrimeField(1048573)
        rng = np.random.default_rng(5)
        block = np.zeros((6, 8193), dtype=np.int64)
        block[:, rng.integers(0, 8193, size=40)] = rng.integers(0, big.p, size=(6, 40))
        block[3] = (block[0] * 5 + block[1]) % big.p
        blocked, sequential = SpanBasis(big, 8193), FullRowBasis(big, 8193)
        assert blocked.dtype == np.int64
        assert blocked.insert_rows(block) == [i for i, v in enumerate(block) if sequential.insert(v)]
        assert np.array_equal(blocked.rows, sequential.rows)

    def test_insert_rows_dimension_mismatch(self):
        basis = SpanBasis(F101, 4)
        with pytest.raises(DimensionMismatch):
            basis.insert_rows(np.zeros((2, 5), dtype=np.int64))
        with pytest.raises(DimensionMismatch):
            basis.insert_rows(np.zeros(4, dtype=np.int64))

    @settings(max_examples=80, deadline=None)
    # Blocks longer than the free column count, once with the span filling
    # on the way.
    @example(p=101, ambient=6, seed=0, preloaded=4, size=40, cuts=[], chunk=REDUCE_CHUNK)
    @example(p=2, ambient=3, seed=1, preloaded=0, size=150, cuts=[75], chunk=REDUCE_CHUNK)
    # Residue rows longer than REDUCE_SMALL, shrinking past it as the span grows.
    @example(p=2, ambient=300, seed=2, preloaded=20, size=150, cuts=[40], chunk=REDUCE_CHUNK)
    @example(p=1048573, ambient=300, seed=3, preloaded=0, size=150, cuts=[], chunk=REDUCE_CHUNK)
    # The same with the merge and _reduce in slices of one or a few rows.
    @example(p=101, ambient=300, seed=2, preloaded=20, size=150, cuts=[40], chunk=1)
    @example(p=1048573, ambient=300, seed=3, preloaded=0, size=150, cuts=[], chunk=5)
    @given(
        p=st.sampled_from([2, 101, 1048573]),
        ambient=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        preloaded=st.integers(0, 24),
        size=st.integers(0, 150),
        cuts=st.lists(st.integers(0, 150), max_size=3),
        chunk=st.sampled_from([REDUCE_CHUNK, 1, 5]),
    )
    def test_insert_rows_matches_sequential_insert(self, p, ambient, seed, preloaded, size, cuts, chunk):
        """insert_rows keeps exactly the rows, and leaves exactly the basis, of one reference insert per row."""
        field = PrimeField(p)
        rng = np.random.default_rng(seed)
        subspace = rng.integers(0, p, size=(max(1, ambient // 2), ambient))
        rows: list[np.ndarray] = []
        for _ in range(size):
            kind = rng.integers(5)
            if kind == 0 or not rows:
                v = rng.integers(0, p, size=ambient)
            elif kind == 1:
                v = np.zeros(ambient, dtype=np.int64)
            elif kind == 2:
                v = rng.integers(0, p, size=len(subspace)) @ subspace % p
            elif kind == 3:
                v = rows[rng.integers(len(rows))]  # duplicate
            else:  # combination of earlier rows
                v = rng.integers(0, p, size=2) @ np.stack([rows[i] for i in rng.integers(len(rows), size=2)]) % p
            rows.append(v)
        block = np.array(rows, dtype=np.int64).reshape(size, ambient)
        # Unreduced representatives: a multiple of p up to 2^62 added to a third of the entries.
        block += p * rng.integers(-(2**62 // p), 2**62 // p, size=block.shape) * (rng.random(block.shape) < 1 / 3)

        blocked, sequential = SpanBasis(field, ambient), FullRowBasis(field, ambient)
        accepted = []
        bounds = [0] + sorted(min(c, size) for c in cuts) + [size]
        with mock.patch.object(matlen.linalg, "REDUCE_CHUNK", chunk):
            for v in rng.integers(0, p, size=(preloaded, ambient)):
                assert blocked.insert(v) == sequential.insert(v)
            for lo, hi in zip(bounds, bounds[1:]):
                accepted += [lo + i for i in blocked.insert_rows(block[lo:hi])]
        # The reference sees the reduced rows, so an inexact reduction of the
        # unreduced ones shows.
        assert accepted == [i for i, v in enumerate(block % p) if sequential.insert(v)]
        assert blocked.dim() == sequential.dim()
        assert np.array_equal(blocked.rows, sequential.rows)
        assert blocked.rows.dtype == np.int64

    @settings(max_examples=60, deadline=None)
    # Residue rows longer than REDUCE_SMALL, shrinking past it as the span grows.
    @example(p=2, ambient=300, seed=4, ops=[12] * 12, chunk=REDUCE_CHUNK)
    @example(p=1048573, ambient=300, seed=5, ops=[1, 12, 0, 12, 12, 1] * 2, chunk=REDUCE_CHUNK)
    # The last float32 ambient dimension at p = 1021, where sums come within
    # p of 2^24, and the first float64 one.
    @example(p=1021, ambient=16, seed=6, ops=[12, 1, 12, 12], chunk=REDUCE_CHUNK)
    @example(p=1021, ambient=17, seed=7, ops=[12, 1, 12, 12], chunk=REDUCE_CHUNK)
    # The merge and _reduce in slices of one or a few rows.
    @example(p=2, ambient=300, seed=4, ops=[12] * 12, chunk=1)
    @example(p=1048573, ambient=300, seed=5, ops=[1, 12, 0, 12, 12, 1] * 2, chunk=5)
    @given(
        # 2 and 101 are float32 at every drawn ambient dimension, 1048573 is
        # float64 at all of them, and 1021 switches from one to the other
        # above ambient dimension 16.
        p=st.sampled_from([2, 101, 1021, 1048573]),
        ambient=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(st.integers(0, 12), min_size=1, max_size=12),
        chunk=st.sampled_from([REDUCE_CHUNK, 1, 5]),
    )
    def test_mixed_inserts_match_reference(self, p, ambient, seed, ops, chunk):
        """After every insert or insert_rows, the basis is the reference's and stores d x (N - d) entries."""
        field = PrimeField(p)
        rng = np.random.default_rng(seed)
        subspace = rng.integers(0, p, size=(max(1, ambient // 3), ambient))
        basis, reference = SpanBasis(field, ambient), FullRowBasis(field, ambient)
        assert basis.dtype == (np.float32 if ambient * (p - 1) ** 2 + p <= 2**24 else np.float64)
        with mock.patch.object(matlen.linalg, "REDUCE_CHUNK", chunk):
            for size in ops:
                # Half the rows from a fixed subspace, so that many are rejected.
                block = np.where(
                    rng.random((size, 1)) < 0.5,
                    rng.integers(0, p, size=(size, len(subspace))) @ subspace % p,
                    rng.integers(0, p, size=(size, ambient)),
                )
                if size == 1 and rng.random() < 0.5:
                    assert basis.insert(block[0]) == reference.insert(block[0])
                else:
                    assert basis.insert_rows(block) == [i for i, v in enumerate(block) if reference.insert(v)]
                d = basis.dim()
                assert d == reference.dim()
                assert np.array_equal(basis.rows, reference.rows)
                assert basis._r.size == d * (ambient - d)
                # No silent upcast: R stays in the dtype the bound chose.
                assert basis._r.dtype == basis.dtype

    # Kept words are stored in uint8 up to p = 251, uint16 up to p = 65521
    # and uint32 above: each pair of primes straddles one boundary.
    @pytest.mark.parametrize("p", [251, 257, 65521, 65537, 1048573])
    def test_insert_products_returns_the_kept_words_exactly(self, p):
        # Times the identity, independent words are all kept, as they are;
        # each holds p - 1, which a dtype too narrow for it would wrap.
        field = PrimeField(p)
        words = np.random.default_rng(p).integers(0, p, size=(5, 3, 3))
        words[:, 0, 0] = p - 1
        reference = FullRowBasis(field, 9)
        assert all(reference.insert(w.reshape(-1)) for w in words)
        basis = SpanBasis(field, 9)
        kept = basis.insert_products([np.eye(3, dtype=np.int64)], words)
        assert np.array_equal(kept, words) and basis.dim() == 5
        assert kept.dtype == np.min_scalar_type(p - 1)
        # Again, every product is dependent, and no words give no products.
        for again in (words, words[:0]):
            kept = basis.insert_products([np.eye(3, dtype=np.int64)], again)
            assert kept.shape == (0, 3, 3) and basis.dim() == 5

    # At n = 4 the basis is float32 up to p = 257 and float64 from 65521 on;
    # the kept words are uint8, uint16 or uint32 as in the test above.
    @pytest.mark.parametrize("block_rows", [1, 5, matlen.linalg.BLOCK_ROWS])
    @pytest.mark.parametrize("p", [2, 101, 251, 257, 65521, 65537, 1048573])
    def test_insert_products_matches_sequential_inserts(self, p, block_rows, monkeypatch):
        """Two levels of insert_products keep what inserting each g @ w in
        turn, generator-major, into a FullRowBasis keeps."""
        monkeypatch.setattr(matlen.linalg, "BLOCK_ROWS", block_rows)
        field, n = PrimeField(p), 4
        rng = np.random.default_rng(p)
        gens = list(rng.integers(0, p, size=(2, n, n)))
        words = rng.integers(0, p, size=(6, n, n))
        # A repeated word and one in the span of two others: both are rejected.
        words[4] = words[0]
        words[5] = (words[1] + 3 * words[2]) % p
        basis, reference = SpanBasis(field, n * n), FullRowBasis(field, n * n)
        identity = np.eye(n, dtype=np.int64).reshape(-1)
        assert basis.insert(identity) == reference.insert(identity)
        # The second level has 2 x (kept words) candidates, more than the
        # room left, so it fills the span part way through.
        for _ in range(2):
            products = [g @ w % p for g in gens for w in words]
            expected = [c for c in products if reference.insert(c.reshape(-1))]
            words = basis.insert_products(gens, words)
            assert words.dtype == np.min_scalar_type(p - 1)
            assert np.array_equal(words, np.array(expected).reshape(-1, n, n))
            assert basis.dim() == reference.dim()
            assert np.array_equal(basis.rows, reference.rows)

    def test_full_span_stops_the_local_elimination(self, monkeypatch):
        """A block whose first row fills the span does no per-row work on the rows after it."""
        basis = SpanBasis(F101, 4)
        basis.insert_rows(np.eye(4, dtype=np.int64)[:3])
        block = np.random.default_rng(3).integers(0, 101, size=(100, 4))
        block[0] = [5, 0, 2, 1]
        # The first-nonzero search runs once per examined row.
        rows_examined = []
        not_equal = np.not_equal
        monkeypatch.setattr(np, "not_equal", lambda *a, **kw: rows_examined.append(1) or not_equal(*a, **kw))
        assert basis.insert_rows(block) == [0]
        assert basis.dim() == 4 and len(rows_examined) == 1

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
    def test_membership_after_insert(self, seed, n):
        rng = np.random.default_rng(seed)
        basis = SpanBasis(F101, n * n)
        vecs = [rng.integers(0, 101, size=n * n) for _ in range(n)]
        for v in vecs:
            basis.insert(v)
        spanned = full_row_basis(basis)
        for v in vecs:
            assert spanned.contains(v)


class TestSpanBasisInput:
    @pytest.mark.parametrize("method", ["insert", "insert_rows"])
    @pytest.mark.parametrize(
        "vec",
        [
            [True, False, True],
            [1.9, 0.5, 0],
            [0.2, 0.3, 0.1],
            [float(2**53), 0, 0],
            [float("nan"), 0, 0],
            [float("inf"), 0, 0],
            np.array([1, 2, 3], dtype=np.float32),
            [1 + 0j, 0, 0],
            np.array([1, 2, 3], dtype=object),
            [2**70, 0, 0],
            np.array([2**63, 0, 0], dtype=np.uint64),
        ],
        ids=[
            "bool", "float", "fraction-float", "float-beyond-2^53-p", "nan", "inf",
            "float32", "complex", "object", "beyond-uint64", "beyond-int64",
        ],
    )
    def test_non_integer_or_oversized_entries_rejected(self, method, vec):
        basis = SpanBasis(F7, 3)
        basis.insert([1, 0, 0])
        arg = np.asarray(vec)[np.newaxis] if method == "insert_rows" else vec
        with pytest.raises(ParseError, match="must be integers"):
            getattr(basis, method)(arg)
        assert basis.dim() == 1

    @pytest.mark.parametrize("p, ambient", [(7, 3), (1048573, 3), (1048573, 8193)])
    def test_integral_float64_input_rejected(self, p, ambient):
        # Integral float64 entries, even those a float64 basis computes with,
        # are rejected by every public method, into a float64 or (ambient
        # 8193 at p = 1048573) an int64 basis; the integers themselves are taken.
        field, top = PrimeField(p), 2**53 - p
        ints = np.zeros((4, ambient), dtype=np.int64)
        ints[:, :3] = [[top, -top, 3], [-1, 2 * p + 1, 0], [top - 1, 5, -top + 1], [-top, top, -3]]
        basis = SpanBasis(field, ambient)
        for call, arg in [
            (basis.insert_rows, ints),
            (basis.insert, ints[0]),
        ]:
            with pytest.raises(ParseError, match="must be integers"):
                call(arg.astype(np.float64))
        assert basis.dim() == 0
        reference = FullRowBasis(field, ambient)
        assert basis.insert_rows(ints) == [i for i, v in enumerate(ints % p) if reference.insert(v)]


REDUCE_PRIMES = [2, 3, 101, 65521, 1048573]
# Each dtype _reduce takes, with the t of its precondition |x| <= 2^t - p:
# the significand width of the floats; int64 is held to float64's range.
DTYPE_BITS = [(np.float32, 24), (np.float64, 53), (np.int64, 53)]


class TestReduce:
    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from(REDUCE_PRIMES), data=st.data())
    def test_matches_python_remainder(self, p, data):
        for dtype, bits in DTYPE_BITS:
            bound = 2**bits - p
            drawn = data.draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=40))
            # Repeated to lengths on both sides of REDUCE_SMALL, where float
            # arrays switch from np.remainder to divide-and-floor.
            size = data.draw(st.integers(1, 2 * REDUCE_SMALL))
            xs = [drawn[i % len(drawn)] for i in range(size)]
            x = np.array(xs, dtype=dtype)
            assert _reduce(x, p) is x
            assert x.dtype == dtype
            assert x.tolist() == [v % p for v in xs]

    @pytest.mark.parametrize("dtype, bits", [(np.float32, 24), (np.float64, 53)])
    @pytest.mark.parametrize("p", REDUCE_PRIMES)
    def test_edge_window(self, p, dtype, bits):
        """m * p + r for r in {0, 1, p - 1}, with m at the largest magnitudes |x| <= 2^bits - p allows."""
        bound = 2**bits - p
        top, bottom = (bound - (p - 1)) // p, -(bound // p)
        xs = [m * p + r for m in (top, top - 1, bottom, bottom + 1) for r in (0, 1, p - 1)]
        xs += [bound, -bound]
        assert all(abs(x) <= bound for x in xs)
        assert _reduce(np.array(xs, dtype=dtype), p).tolist() == [x % p for x in xs]
        # The last np.remainder size and the first divide-and-floor size.
        for size in (REDUCE_SMALL - 1, REDUCE_SMALL):
            edge = np.resize(np.array(xs, dtype=dtype), size)
            assert _reduce(edge.copy(), p).tolist() == [int(x) % p for x in edge]
        # Arrays of several REDUCE_CHUNK slices, along a first axis that does
        # not divide evenly into them, in the shapes the span engine reduces.
        grid = np.resize(np.array(xs, dtype=dtype), (300, 257))
        expected = np.resize(np.array([x % p for x in xs], dtype=np.float64), grid.shape)
        for shape in (grid.shape, (grid.size,), (300, 1, 257)):
            assert np.array_equal(_reduce(grid.reshape(shape).copy(), p).reshape(grid.shape), expected)
