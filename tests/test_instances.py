"""Seeded instance construction: Jordan prescriptions, random sets and campaign recipes."""

import hashlib
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matlen.errors import FamilyHypothesisViolated, GenerationRetriesExhausted, MatlenError
from matlen.instances import (
    FAMILIES,
    InstanceSpec,
    JordanSpec,
    _conjugated,
    _invertible_pair,
    admissible_degrees,
    build_instance_with_meta,
    check_family_hypothesis,
    derive_instance_spec,
    jordan_matrix,
    random_generating_set,
    random_jordan_spec,
)
from matlen.length import compute_length
from matlen.linalg import Matrix, PrimeField, mat_mul, rank
from matlen.spectral import jordan_profile, minimal_polynomial, split_roots
from reference import conjugate, rank_accepted_invertible

F7 = PrimeField(7)
F101 = PrimeField(101)

# Pinned output of the PCG64 stream; guards against generator drift.
GOLDEN_INVERTIBLE_3_101_SEED42 = [[9, 78, 66], [44, 43, 86], [8, 70, 20]]


class TestJordanMatrix:
    def test_nilpotent_blocks(self):
        m = jordan_matrix(F101, JordanSpec(((0, 3), (0, 1))))
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 1] = expected[1, 2] = 1
        assert m == Matrix(F101, expected)

    def test_shifted_pair(self):
        m = jordan_matrix(F7, JordanSpec(((5, 2), (5, 2))))
        assert m == Matrix(F7, [[5, 1, 0, 0], [0, 5, 0, 0], [0, 0, 5, 1], [0, 0, 0, 5]])

    def test_diagonal(self):
        m = jordan_matrix(F7, JordanSpec(((1, 1), (2, 1), (3, 1))))
        assert m == Matrix(F7, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])


class TestRandomInvertible:
    """`_invertible_pair`: the conjugator P, and its inverse, behind every prescribed generator."""

    def test_always_full_rank(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert rank(_invertible_pair(4, F101, rng)[0]) == 4

    def test_deterministic(self):
        a, b = (_invertible_pair(3, F101, np.random.default_rng(42)) for _ in range(2))
        assert a == b

    def test_golden_value(self):
        p = _invertible_pair(3, F101, np.random.default_rng(42))[0]
        assert p.entries.tolist() == GOLDEN_INVERTIBLE_3_101_SEED42

    # F_2 at n = 2: 10 of the 16 matrices are singular, so most seeds redraw.
    @pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (101, 1), (101, 4), (1048573, 5)])
    def test_same_draws_as_the_rank_rule(self, p, n):
        field = PrimeField(p)
        redrawn = 0
        for seed in range(40):
            want = rank_accepted_invertible(n, field, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            got, inv = _invertible_pair(n, field, rng)
            assert got == want
            assert mat_mul(got, inv) == Matrix.identity(field, n)
            # The generator is left where the rank rule leaves it.
            ref_rng = np.random.default_rng(seed)
            rank_accepted_invertible(n, field, ref_rng)
            assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
            first = Matrix(field, np.random.default_rng(seed).integers(0, p, size=(n, n), dtype=np.int64))
            redrawn += rank(first) < n
        if p == 2 and n == 2:
            assert redrawn > 10

    @pytest.mark.parametrize("p, n", [(2, 2), (7, 3), (101, 6)])
    def test_conjugation_matches_conjugate(self, p, n):
        field = PrimeField(p)
        for seed in range(20):
            a = Matrix(field, np.random.default_rng(1000 + seed).integers(0, p, size=(n, n)))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _conjugated(a, rng) == conjugate(_invertible_pair(n, field, ref_rng)[0], a)
            assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


class TestRandomJordanSpec:
    def test_exact_degree_and_order(self):
        rng = np.random.default_rng(15)
        for n in range(2, 8):
            for degree in range(1, n + 1):
                spec = random_jordan_spec(n, F101, rng, degree=degree)
                assert spec.order() == n
                assert spec.minpoly_degree() == degree

    @pytest.mark.parametrize("p", [2, 3, 5, 101, 1048573])
    def test_eigenvalue_draw_matches_the_arange_form(self, p):
        # random_jordan_spec draws its eigenvalues as rng.choice(p, ...), which
        # builds no array of all p residues. The arange form it replaced is the
        # reference: the same draws, and the same generator state after them.
        for seed in range(200):
            for size in range(1, min(p, 5) + 1):
                drawn, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                assert (
                    drawn.choice(p, size=size, replace=False).tolist()
                    == reference.choice(np.arange(p), size=size, replace=False).tolist()
                )
                assert drawn.integers(2**62) == reference.integers(2**62)

    def test_golden_specs(self):
        # Pinned output of the arange form, before it was replaced.
        golden = {
            5: [
                ((2, 1), (1, 1), (0, 1), (2, 1), (4, 1), (0, 1)),
                ((2, 2), (1, 3), (2, 1)),
                ((4, 3), (3, 1), (2, 2)),
            ],
            1048573: [
                ((874142, 1), (813360, 1), (236145, 1), (874142, 1), (58228, 1), (236145, 1)),
                ((754417, 2), (267249, 3), (754417, 1)),
                ((357590, 2), (734286, 2), (652399, 1), (1036996, 1)),
            ],
        }
        for p, specs in golden.items():
            rng = np.random.default_rng(7)
            assert [random_jordan_spec(6, PrimeField(p), rng, degree=d).blocks for d in (4, 5, 6)] == specs

    def test_realized_by_matrix(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            spec = random_jordan_spec(5, F101, rng)
            a = jordan_matrix(F101, spec)
            assert minimal_polynomial(a).degree == spec.minpoly_degree()


class TestBuildInstance:
    def test_t10_example(self):
        spec = InstanceSpec(n=4, p=101, jordan=JordanSpec(((0, 3), (0, 1))), extra_gens=1, seed=7, family="T10")
        gs = build_instance_with_meta(spec).generating_set
        assert max(minimal_polynomial(g).degree for g in gs.gens) == 3
        assert compute_length(gs).is_generating

    def test_t12_example_needs_two_companions(self):
        spec = InstanceSpec(n=4, p=101, jordan=JordanSpec(((0, 2), (0, 2))), extra_gens=2, seed=7, family="T12")
        gs = build_instance_with_meta(spec).generating_set
        assert max(minimal_polynomial(g).degree for g in gs.gens) == 2
        assert compute_length(gs).is_generating

    def test_t12_pair_is_impossible(self):
        # All-quadratic pairs span only alternating words: 1 + 2l < 16 dims.
        spec = InstanceSpec(n=4, p=101, jordan=JordanSpec(((0, 2), (0, 2))), extra_gens=1, seed=7, family="T12")
        with pytest.raises(GenerationRetriesExhausted):
            build_instance_with_meta(spec)

    def test_family_hypothesis_checked(self):
        with pytest.raises(FamilyHypothesisViolated):
            build_instance_with_meta(
                InstanceSpec(n=4, p=101, jordan=JordanSpec(((0, 2), (0, 2))), extra_gens=1, seed=7, family="T10")
            )

    def test_distinguished_generator_profile_preserved(self):
        jordan = JordanSpec(((2, 3), (2, 1), (9, 2)))
        spec = InstanceSpec(n=6, p=101, jordan=jordan, extra_gens=1, seed=11, family="T10")
        gs = build_instance_with_meta(spec).generating_set
        a = gs.gens[0]
        prof = jordan_profile(a, split_roots(minimal_polynomial(a)))
        assert prof.blocks == jordan.block_multisets()

    def test_bit_identical_for_same_spec(self):
        spec = InstanceSpec(n=4, p=101, jordan=JordanSpec(((0, 3), (0, 1))), extra_gens=1, seed=99, family="T10")
        a, b = (build_instance_with_meta(spec).generating_set for _ in range(2))
        assert a == b

    def test_companions_respect_degree_cap(self):
        spec = InstanceSpec(n=6, p=101, jordan=JordanSpec(((0, 4), (0, 2))), extra_gens=2, seed=13, family="T10")
        gs = build_instance_with_meta(spec).generating_set
        cap = minimal_polynomial(gs.gens[0]).degree
        for g in gs.gens[1:]:
            assert minimal_polynomial(g).degree <= cap

    def test_retry_count_reported(self):
        spec = InstanceSpec(n=4, p=101, jordan=JordanSpec(((0, 3), (0, 1))), extra_gens=1, seed=7, family="T10")
        result = build_instance_with_meta(spec)
        assert result.retries >= 0


@st.composite
def jordan_specs(draw):
    """Jordan specs of order n <= 10 over 1-3 eigenvalues, blocks in random order."""
    eigenvalues = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True))
    remaining = draw(st.integers(1, 10))
    blocks = []
    while remaining:
        size = draw(st.integers(1, remaining))
        blocks.append((draw(st.sampled_from(eigenvalues)), size))
        remaining -= size
    return JordanSpec(tuple(blocks))


def paper_hypothesis(family, blocks):
    """Each family's hypothesis as the paper states it, from the raw block list."""
    n = sum(size for _, size in blocks)
    tops = {}
    for lam, size in blocks:
        tops[lam] = max(tops.get(lam, 0), size)
    m = sum(tops.values())
    if family == "T10":
        return n % 2 == 0 and 2 * m > n
    if family == "T11":
        return n % 2 == 1 and n >= 3 and 2 * m > n  # n = 2t + 1 with t >= 1
    if family == "T12":
        return 2 * m <= n <= 3 * m - 1
    # THM39: A is similar to a shifted double Jordan block of size n/2.
    return len(blocks) == 2 and blocks[0][0] == blocks[1][0] and blocks[0][1] == blocks[1][1]


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(["T10", "T11", "T12", "THM39"]), jordan=jordan_specs())
@example(family="THM39", jordan=JordanSpec(((3, 2), (3, 2))))
@example(family="THM39", jordan=JordanSpec(((3, 2), (3, 1), (3, 1))))
@example(family="T12", jordan=JordanSpec(((0, 2), (1, 1), (0, 2))))
def test_check_family_hypothesis_matches_the_paper(family, jordan):
    n = jordan.order()
    if paper_hypothesis(family, jordan.blocks):
        check_family_hypothesis(family, n, jordan)
    else:
        with pytest.raises(FamilyHypothesisViolated):
            check_family_hypothesis(family, n, jordan)


def paper_degrees(family, n):
    """Minimal-polynomial degrees each family admits at order n, from the paper's conditions."""
    if family == "T10":
        return list(range(n // 2 + 1, n + 1)) if n % 2 == 0 else []
    if family == "T11":
        return list(range((n + 1) // 2, n + 1)) if n % 2 == 1 and n >= 3 else []
    if family == "T12":
        return [t for t in range(2, n + 1) if 2 * t <= n <= 3 * t - 1]
    return [n // 2] if n % 2 == 0 and n >= 4 else []  # THM39


@pytest.mark.parametrize("family", ["T10", "T11", "T12", "THM39"])
def test_admissible_degrees_follow_the_paper(family):
    for n in range(1, 17):
        expected = paper_degrees(family, n)
        if expected:
            assert admissible_degrees(family, n) == expected, n
        else:
            with pytest.raises(FamilyHypothesisViolated):
                admissible_degrees(family, n)


# sha256 of one line per derive_instance_spec(family, n, p, seed, i) call over
# the grid below: the spec's fields, or the error it raises.
RECIPE_DIGEST = "028299ab92b282bfb8c963ae669d52faf5beaef2fbebcb06098b9deaac666021"


def test_recipes_are_pinned():
    digest = hashlib.sha256()
    for family, n, p, seed, i in product(FAMILIES, range(1, 13), (2, 3, 101, 1048573), (0, 7), range(6)):
        try:
            spec = derive_instance_spec(family, n, p, seed, i)
        except MatlenError as exc:
            line = f"{type(exc).__name__}: {exc}"
        else:
            blocks = None if spec.jordan is None else spec.jordan.blocks
            line = repr((spec.n, spec.p, blocks, spec.extra_gens, spec.seed, spec.family))
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == RECIPE_DIGEST


class TestStressModulus:
    def test_pipeline_at_large_prime(self):
        f = PrimeField(65521)
        spec = InstanceSpec(
            n=4, p=65521, jordan=JordanSpec(((3, 3), (3, 1))), extra_gens=1, seed=8, family="T10"
        )
        gs = build_instance_with_meta(spec).generating_set
        assert max(minimal_polynomial(g).degree for g in gs.gens) == 3 and compute_length(gs).is_generating
        a = gs.gens[0]
        spectrum = split_roots(minimal_polynomial(a))
        assert spectrum.roots == ((3, 3),)
        assert jordan_profile(a, spectrum).blocks == {3: (3, 1)}


class TestRandomGeneratingSet:
    def test_generates_and_is_deterministic(self):
        a = random_generating_set(2, F101, 2, 42)
        b = random_generating_set(2, F101, 2, 42)
        assert a == b and compute_length(a).is_generating

    def test_single_matrix_rejected(self):
        with pytest.raises(ValueError):
            random_generating_set(3, F101, 1, 0)
        # The same rule on an instance spec: one generator in total.
        with pytest.raises(ValueError):
            build_instance_with_meta(InstanceSpec(n=3, p=101, jordan=None, extra_gens=0, seed=0))
        with pytest.raises(ValueError):
            build_instance_with_meta(
                InstanceSpec(n=4, p=101, jordan=JordanSpec(((0, 3), (0, 1))), extra_gens=0, seed=0, family="T10")
            )

    def test_order_one_degenerate(self):
        gs = random_generating_set(1, F101, 1, 5)
        assert compute_length(gs).length == 0
