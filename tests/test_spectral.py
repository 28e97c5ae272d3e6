"""Minimal polynomials, split spectra, and Jordan profiles."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matlen import linalg, spectral
from matlen.errors import CharPolyNotSplit, DimensionMismatch, FieldMismatch, NotSplit
from matlen.instances import JordanSpec, _conjugated, jordan_matrix, random_jordan_spec
from matlen.length import GeneratingSet
from matlen.linalg import Matrix, Polynomial, PrimeField
from matlen.spectral import (
    SCAN_MAX_P,
    Spectrum,
    jordan_profile,
    jordan_profiles,
    minimal_polynomial,
    scan_roots,
    split_roots,
    splitting_roots,
    unique_max_block,
)
from reference import KRYLOV_KINDS, divisor_poly, krylov_minimal_polynomial, krylov_test_matrix, poly_eval, poly_product

F7 = PrimeField(7)
F11 = PrimeField(11)
F101 = PrimeField(101)


def J(field, *blocks):
    return jordan_matrix(field, JordanSpec(tuple(blocks)))


class TestMinimalPolynomial:
    def test_nilpotent_block(self):
        mp = minimal_polynomial(J(F7, (0, 3)))
        assert mp.degree == 3 and mp.coeffs == (0, 0, 0, 1)

    def test_distinct_eigenvalues(self):
        # (x-1)(x-2) = x^2 - 3x + 2 = x^2 + 4x + 2 over F_7
        mp = minimal_polynomial(Matrix(F7, [[1, 0], [0, 2]]))
        assert mp.degree == 2 and mp.coeffs == (2, 4, 1)

    def test_equal_blocks_share_annihilator(self):
        # (x-5)^2 = x^2 + 4x + 4 over F_7
        mp = minimal_polynomial(J(F7, (5, 2), (5, 2)))
        assert mp.degree == 2 and mp.coeffs == (4, 4, 1)

    def test_annihilates(self):
        rng = np.random.default_rng(17)
        for n in range(2, 6):
            for _ in range(20):
                a = Matrix(F101, rng.integers(0, 101, size=(n, n)))
                mp = minimal_polynomial(a)
                assert mp.coeffs[-1] == 1
                assert not poly_eval(mp, a).entries.any()

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.sampled_from([2, 7, 101, 1048573]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 9),
        kind=st.sampled_from(KRYLOV_KINDS),
    )
    def test_matches_sequential_krylov(self, p, seed, n, kind):
        field = PrimeField(p)
        a, degree = krylov_test_matrix(np.random.default_rng(seed), field, n, kind)
        mp = minimal_polynomial(a)
        assert mp.coeffs == krylov_minimal_polynomial(a)
        if degree is not None:
            assert mp.degree == degree

    def test_non_prefix_pivots_are_an_error(self, monkeypatch):
        # Pivots that skip a power cannot come from a Krylov sequence.
        monkeypatch.setattr(spectral, "_rref_array", lambda arr, field: (arr, [0, 2]))
        with pytest.raises(RuntimeError, match="not a proper prefix"):
            minimal_polynomial(Matrix(F7, [[1, 0], [0, 2]]))

    def test_conjugation_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            a = Matrix(F101, rng.integers(0, 101, size=(4, 4)))
            assert minimal_polynomial(_conjugated(a, rng)) == minimal_polynomial(a)


class TestMOfS:
    def test_identity_only(self):
        gs = GeneratingSet.of([Matrix.identity(F101, 3)])
        assert max(minimal_polynomial(g).degree for g in gs.gens) == 1

    def test_max_over_generators(self):
        a = J(F101, (0, 3), (0, 1))
        e12 = Matrix.unit(F101, 4, 0, 1)
        assert max(minimal_polynomial(g).degree for g in (a, e12)) == 3

    def test_diag_and_block(self):
        gs = GeneratingSet.of([J(F7, (1, 1), (2, 1), (3, 1)), J(F7, (0, 3))])
        assert max(minimal_polynomial(g).degree for g in gs.gens) == 3


class TestSplitRoots:
    def test_two_simple_roots(self):
        mp = Polynomial(F7, (2, 4, 1))  # x^2-3x+2
        assert split_roots(mp).roots == ((1, 1), (2, 1))

    def test_irreducible_quadratic(self):
        # squares mod 7 are {0,1,2,4}; -1 = 6 is not among them
        mp = Polynomial(F7, (1, 0, 1))
        with pytest.raises(NotSplit):
            split_roots(mp)

    def test_triple_root(self):
        cube = divisor_poly(F11, [(5, 3)])
        assert split_roots(cube).roots == ((5, 3),)

    def test_reconstruction(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            spec = random_jordan_spec(5, F101, rng)
            a = jordan_matrix(F101, spec)
            mp = minimal_polynomial(a)
            spectrum = split_roots(mp)
            assert divisor_poly(F101, spectrum.roots) == mp
            assert sum(e for _, e in spectrum.roots) == mp.degree


def is_prime(q: int) -> bool:
    return q > 1 and all(q % d for d in range(2, int(q**0.5) + 1))


LAST_SCANNED = next(q for q in range(SCAN_MAX_P, 1, -1) if is_prime(q))
FIRST_SPLIT = next(q for q in itertools.count(SCAN_MAX_P + 1) if is_prime(q))


@st.composite
def root_test_polys(draw, primes):
    """A prime and a nonzero polynomial over it: linear factors with multiplicity
    1-3 (or up to 12 distinct simple ones) times random and irreducible extras."""
    p = draw(st.sampled_from(primes))
    field = PrimeField(p)
    elems = st.integers(0, p - 1)
    if draw(st.booleans()):
        roots = draw(st.lists(elems, min_size=1, max_size=min(12, p), unique=True))
        factors = [(lam, 1) for lam in roots]
        extras = []
    else:
        roots = draw(st.lists(elems, max_size=min(5, p), unique=True))
        factors = [(lam, draw(st.integers(1, 3))) for lam in roots]
        extras = draw(st.lists(st.lists(elems, min_size=3, max_size=4), max_size=2))
        if draw(st.booleans()):
            # x^2 - c for a non-square c: irreducible over F_p.
            c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
            extras.append([-c, 0, 1])
    lead = draw(st.integers(1, p - 1))
    linear = [(-lam, 1) for lam, mult in factors for _ in range(mult)]
    return field, poly_product(field, [(lead,), *linear, *(cs[:-1] + [cs[-1] or 1] for cs in extras)])


class TestRootFinders:
    """splitting_roots against the scan, which serves as its reference."""

    @settings(max_examples=150, deadline=None)
    @given(case=root_test_polys([3, 5, 7, 101, FIRST_SPLIT, 1048573]))
    def test_splitting_matches_scan(self, case):
        _, poly = case
        assert splitting_roots(poly) == scan_roots(poly)

    def test_products_of_consecutive_roots_over_small_fields(self):
        # x(x-1)...(x-lam) over F_3, F_5, F_7, up to every element a root.
        for p in (3, 5, 7):
            field = PrimeField(p)
            for lam in range(p):
                full = divisor_poly(field, [(root, 1) for root in range(lam + 1)])
                assert splitting_roots(full) == list(range(lam + 1))

    def test_constant_and_rootless(self):
        field = PrimeField(101)
        assert splitting_roots(Polynomial(field, (5,))) == []
        assert splitting_roots(Polynomial(field, (2, 0, 1))) == []  # -2 is not a square mod 101

    def test_needs_an_odd_prime(self):
        with pytest.raises(ValueError):
            splitting_roots(Polynomial(PrimeField(2), (0, 1, 1)))

    @pytest.mark.parametrize("batch", [1, 2])
    def test_small_batches_refill_and_match_scan(self, monkeypatch, batch):
        # Polynomials with many roots need many shifts, so batches of one or
        # two shifts are refilled several times per polynomial.
        calls = []

        def counted(*args):
            calls.append(args[1])
            return linalg._companion_powers(*args)

        monkeypatch.setattr(spectral, "SHIFT_BATCH", batch)
        monkeypatch.setattr(spectral, "_companion_powers", counted)
        rng = np.random.default_rng(batch)
        polys = []
        for p in (3, 5):
            field = PrimeField(p)
            for roots in itertools.chain.from_iterable(
                itertools.combinations(range(p), k) for k in range(2, p + 1)
            ):
                lead = int(rng.integers(1, p))
                linear = [(-lam, 1) for lam in roots for _ in range(int(rng.integers(1, 3)))]
                polys.append(poly_product(field, [(lead,), *linear]))
        for size in range(8, 21):
            roots = rng.choice(101, size=size, replace=False).tolist()
            polys.append(divisor_poly(F101, [(lam, 1) for lam in roots]))
        for poly in polys:
            calls.clear()
            assert splitting_roots(poly) == scan_roots(poly)
            assert calls == [batch * i for i in range(len(calls))]
            if poly.field.p == 101:
                assert len(calls) > 1

    @settings(max_examples=60, deadline=None)
    @given(case=root_test_polys([LAST_SCANNED, FIRST_SPLIT]))
    def test_split_roots_same_on_both_paths(self, case):
        field, poly = case
        outcomes = []
        # The prime's own path, then the other one forced by moving the constant.
        for limit in (SCAN_MAX_P, field.p - 1 if field.p <= SCAN_MAX_P else field.p):
            with mock.patch.object(spectral, "SCAN_MAX_P", limit):
                try:
                    outcomes.append(split_roots(poly))
                except NotSplit:
                    outcomes.append(NotSplit)
        assert outcomes[0] == outcomes[1]


class TestJordanProfile:
    def profile_of(self, a):
        return jordan_profile(a, split_roots(minimal_polynomial(a)))

    def test_examples(self):
        assert self.profile_of(J(F7, (0, 3), (0, 1))).blocks == {0: (3, 1)}
        assert self.profile_of(J(F7, (1, 1), (2, 1), (3, 1))).blocks == {
            1: (1,),
            2: (1,),
            3: (1,),
        }
        assert self.profile_of(J(F7, (5, 2), (5, 2))).blocks == {5: (2, 2)}

    def test_roundtrip_with_conjugation(self):
        rng = np.random.default_rng(41)
        for n in range(3, 7):
            for _ in range(30):
                spec = random_jordan_spec(n, F101, rng)
                a = jordan_matrix(F101, spec)
                prof = self.profile_of(_conjugated(a, rng))
                assert prof.blocks == spec.block_multisets()

    def test_degree_equals_sum_of_max_blocks(self):
        rng = np.random.default_rng(43)
        for n in range(2, 7):
            for _ in range(30):
                spec = random_jordan_spec(n, F101, rng)
                a = _conjugated(jordan_matrix(F101, spec), rng)
                mp = minimal_polynomial(a)
                prof = self.profile_of(a)
                assert mp.degree == sum(sizes[0] for sizes in prof.blocks.values())

    def test_one_batched_rank_pass(self, monkeypatch):
        # All powers (A - lambda I)^j, j = 1..e_lambda, go to one _stack_ranks
        # call per matrix, sum e_lambda of them, and rank is never called.
        calls = []

        def counting_stack_ranks(stack, p):
            calls.append(stack.shape)
            return linalg._stack_ranks(stack, p)

        def no_rank(m):
            raise AssertionError("jordan_profile called rank")

        rng = np.random.default_rng(47)
        for n in range(2, 9):
            spec = random_jordan_spec(n, F101, rng)
            a = _conjugated(jordan_matrix(F101, spec), rng)
            roots = split_roots(minimal_polynomial(a))
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(spectral, "_stack_ranks", counting_stack_ranks)
                m.setattr(linalg, "rank", no_rank)
                assert jordan_profile(a, roots).blocks == spec.block_multisets()
            assert calls == [(sum(e for _, e in roots.roots), n, n)]

    def test_batch_equals_one_at_a_time(self, monkeypatch):
        calls = []

        def counting_stack_ranks(stack, p):
            calls.append(stack.shape)
            return linalg._stack_ranks(stack, p)

        rng = np.random.default_rng(53)
        for n in range(1, 8):
            mats = []
            for _ in range(int(rng.integers(1, 5))):
                spec = random_jordan_spec(n, F101, rng)
                mats.append(_conjugated(jordan_matrix(F101, spec), rng))
            pairs = [(a, split_roots(minimal_polynomial(a))) for a in mats]
            alone = [jordan_profile(a, roots) for a, roots in pairs]
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(spectral, "_stack_ranks", counting_stack_ranks)
                assert jordan_profiles(pairs) == alone
            assert calls == [(sum(e for _, roots in pairs for _, e in roots.roots), n, n)]
        assert jordan_profiles([]) == []

    def test_batch_of_mixed_orders_or_fields_is_rejected(self):
        a = J(F101, (0, 2))
        with pytest.raises(DimensionMismatch):
            jordan_profiles([(a, Spectrum(((0, 2),))), (J(F101, (0, 3)), Spectrum(((0, 3),)))])
        with pytest.raises(FieldMismatch):
            jordan_profiles([(a, Spectrum(((0, 2),))), (J(F7, (0, 2)), Spectrum(((0, 2),)))])

    def test_spectrum_missing_an_eigenvalue_is_rejected(self):
        # diag(1, 2) with only the root 1: the blocks cover 1 of 2 dimensions.
        with pytest.raises(CharPolyNotSplit):
            jordan_profile(Matrix(F7, [[1, 0], [0, 2]]), Spectrum(((1, 1),)))

    def test_spectrum_naming_a_non_eigenvalue_is_rejected(self):
        # The zero matrix's blocks at 0 cover both dimensions, so only the
        # rank of A - I, which is full, shows that 1 is no eigenvalue.
        with pytest.raises(CharPolyNotSplit, match="1 is not an eigenvalue"):
            jordan_profile(Matrix(F101, np.zeros((2, 2), dtype=np.int64)), Spectrum(((0, 1), (1, 1))))


class TestPredicates:
    def test_nonderogatory(self):
        cases = ((J(F101, (0, 4)), True), (Matrix.identity(F101, 2), False), (J(F7, (5, 2), (5, 2)), False))
        for a, nonderogatory in cases:
            assert (minimal_polynomial(a).degree == a.n) == nonderogatory

    def test_unique_max_block(self):
        from matlen.spectral import JordanProfile

        assert unique_max_block(JordanProfile({0: (3, 1)})) == (0, 3)
        assert unique_max_block(JordanProfile({5: (2, 2)})) is None
        assert unique_max_block(JordanProfile({1: (2,), 2: (2, 2)})) == (1, 2)
