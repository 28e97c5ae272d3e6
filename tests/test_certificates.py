"""Rank-reduction certificate search and the bound ledger."""

import dataclasses
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matlen.certificates import (
    analyze_generators,
    bound_ledger,
    find_rank_reduction,
    pappacena_bound,
    shitov_rank1_bound,
    t10_t11_hypothesis,
    t12_hypothesis,
    thm38_hypothesis,
)
from matlen.errors import CertificateMismatch, CharPolyNotSplit, GenerationRetriesExhausted, InvalidK, NotSplit
from matlen.instances import (
    InstanceSpec,
    JordanSpec,
    build_instance_with_meta,
    derive_instance_spec,
    jordan_matrix,
    random_invertible,
)
from matlen.length import GeneratingSet, compute_length
from matlen.linalg import Matrix, Polynomial, PrimeField, _eval_rows, _stack_ranks, conjugate, poly_eval, rank
from matlen.reports import load_instance
from matlen.spectral import (
    JordanProfile,
    Spectrum,
    jordan_profile,
    minimal_polynomial,
    split_roots,
)
from ledger_audit import all_matrices, audit
from reference import shifted_chain

F7 = PrimeField(7)
F101 = PrimeField(101)


def spectrum_of(a):
    return split_roots(minimal_polynomial(a))


def profile_of(a):
    return jordan_profile(a, spectrum_of(a))


def divisor_poly(field, exponents):
    out = Polynomial.one(field)
    for lam, e in exponents:
        factor = Polynomial.x_minus(field, lam)
        for _ in range(e):
            out = out.mul(factor)
    return out


def exhaustive_minimum(a, field, r_max):
    """Oracle: scan every admissible exponent vector via poly_eval."""
    spec = spectrum_of(a)
    eigs = spec.eigenvalues()
    mults = [e for _, e in spec.roots]
    best = None
    for v in sorted(product(*(range(e + 1) for e in mults)), key=lambda v: (sum(v), v)):
        if not any(v) or all(vi == ei for vi, ei in zip(v, mults)):
            continue
        witness = poly_eval(divisor_poly(field, zip(eigs, v)), a)
        if not witness.entries.any():
            continue
        r = rank(witness)
        if r <= r_max:
            best = (tuple(zip(eigs, v)), sum(v), r)
            break
    return best


def matrix_enumeration(a, spec, r_max):
    """Reference: every exponent vector 0 <= a_lambda <= e_lambda, one matrix rank each.

    Walks the vectors in order of (total degree, exponents), skipping the
    all-zero and the full vector, and maps each budget r to the first vector
    of rank <= r. Exponential in the number of eigenvalues; the engine must
    return the same certificates from the Jordan profile alone.
    """
    eigenvalues = spec.eigenvalues()
    mults = [e for _, e in spec.roots]
    chains = {lam: shifted_chain(a, lam, e) for lam, e in spec.roots}
    vectors = [
        v
        for v in product(*(range(e + 1) for e in mults))
        if any(v) and any(vi < ei for vi, ei in zip(v, mults))
    ]
    vectors.sort(key=lambda v: (sum(v), v))
    found = {}
    for v in vectors:
        evaluated = np.eye(a.n, dtype=np.int64)
        for lam, exp in zip(eigenvalues, v):
            evaluated = (evaluated @ chains[lam][exp]) % a.field.p
        witness = Matrix(a.field, evaluated)
        if not witness.entries.any():
            continue
        r = rank(witness)
        if r > r_max or r in found:
            continue
        for budget in range(r, r_max + 1):
            found.setdefault(budget, (tuple(zip(eigenvalues, v)), sum(v), r))
        if r == 1:
            break
    return dict(sorted(found.items()))


def summary(certs):
    return {r: (c.exponents, c.degree, c.achieved_rank) for r, c in certs.items()}


@st.composite
def conjugated_jordan(draw, max_n=8, max_eigenvalues=6):
    """(field, A): a Jordan matrix with 1..max_eigenvalues eigenvalues, order <= max_n,
    conjugated by a random invertible matrix."""
    field = PrimeField(draw(st.sampled_from([7, 101])))
    k = draw(st.integers(1, max_eigenvalues))
    eigs = draw(st.lists(st.integers(0, field.p - 1), min_size=k, max_size=k, unique=True))
    room = max_n - k  # dimensions left after one size-1 block per eigenvalue
    blocks = []
    for lam in eigs:
        first = draw(st.integers(1, 1 + room))
        room -= first - 1
        blocks.append((lam, first))
        while room > 0 and draw(st.booleans()):
            size = draw(st.integers(1, room))
            room -= size
            blocks.append((lam, size))
    order = draw(st.permutations(range(len(blocks))))
    jordan = jordan_matrix(field, JordanSpec(tuple(blocks[i] for i in order)))
    seed = draw(st.integers(0, 2**32 - 1))
    return field, conjugate(random_invertible(jordan.n, field, seed), jordan)


class TestFindRankReduction:
    def test_nilpotent_with_tail_block(self):
        a = jordan_matrix(F101, JordanSpec(((0, 3), (0, 1))))
        cert = find_rank_reduction(a, profile_of(a), 1).get(1)
        assert cert.exponents == ((0, 2),)
        assert cert.degree == 2 and cert.achieved_rank == 1
        assert cert.witness == Matrix.unit(F101, 4, 0, 2)

    def test_double_block_has_no_rank_one(self):
        a = jordan_matrix(F101, JordanSpec(((0, 2), (0, 2))))
        profile = profile_of(a)
        assert find_rank_reduction(a, profile, 1).get(1) is None
        cert = find_rank_reduction(a, profile, 2).get(2)
        assert cert.exponents == ((0, 1),) and cert.degree == 1 and cert.achieved_rank == 2

    def test_two_eigenvalue_search_matches_exhaustion(self):
        a = jordan_matrix(F7, JordanSpec(((1, 3), (2, 2))))
        cert = find_rank_reduction(a, profile_of(a), 1).get(1)
        oracle = exhaustive_minimum(a, F7, 1)
        assert (cert.exponents, cert.degree, cert.achieved_rank) == oracle
        assert cert.exponents == ((1, 2), (2, 2))  # lexicographic winner at degree 4

    def test_matches_exhaustion_on_random_profiles(self):
        from matlen.instances import random_jordan_spec

        rng = np.random.default_rng(81)
        for n in (3, 4, 5):
            for _ in range(15):
                spec = random_jordan_spec(n, F101, rng)
                a = conjugate(random_invertible(n, F101, rng), jordan_matrix(F101, spec))
                s = profile_of(a)
                oracles = {}
                for r_max in (1, 2):
                    cert = find_rank_reduction(a, s, r_max).get(r_max)
                    oracle = exhaustive_minimum(a, F101, r_max)
                    if oracle is None:
                        assert cert is None
                    else:
                        assert (cert.exponents, cert.degree, cert.achieved_rank) == oracle
                        oracles[r_max] = oracle
                both = find_rank_reduction(a, s, 2)
                assert list(both) == sorted(oracles)
                assert {
                    r: (c.exponents, c.degree, c.achieved_rank) for r, c in both.items()
                } == oracles

    @settings(max_examples=100, deadline=None)
    @given(case=conjugated_jordan())
    def test_matches_enumeration_and_oracle_on_jordan_profiles(self, case):
        field, a = case
        spec, profile = spectrum_of(a), profile_of(a)
        oracle = {r: exhaustive_minimum(a, field, r) for r in range(1, 5)}
        for r_max in range(1, 5):
            got = find_rank_reduction(a, profile, r_max)
            assert list(got) == sorted(got)
            assert summary(got) == matrix_enumeration(a, spec, r_max)
            assert summary(got) == {r: o for r, o in oracle.items() if r <= r_max and o is not None}

    @settings(max_examples=60, deadline=None)
    @given(case=conjugated_jordan(), data=st.data())
    def test_closed_form_rank_identity(self, case, data):
        # rank prod (A - lambda I)^{a_lambda} = sum over blocks s of max(s - a_lambda, 0)
        field, a = case
        profile = profile_of(a)
        exps = {lam: data.draw(st.integers(0, sizes[0] + 1)) for lam, sizes in sorted(profile.blocks.items())}
        closed = sum(max(s - exps[lam], 0) for lam, sizes in profile.blocks.items() for s in sizes)
        assert closed == rank(poly_eval(divisor_poly(field, exps.items()), a))

    def test_witness_rank_checked_against_profile(self):
        # A profile that does not belong to the matrix predicts a wrong rank.
        a = jordan_matrix(F101, JordanSpec(((0, 3), (0, 1))))
        with pytest.raises(CertificateMismatch):
            find_rank_reduction(a, JordanProfile({0: (4,)}), 1)

    def test_ranks_only_for_kept_witnesses(self, monkeypatch):
        import matlen.certificates

        calls = []

        def counting_rank(m):
            calls.append(m)
            return rank(m)

        a = conjugate(
            random_invertible(8, F101, 5),
            jordan_matrix(F101, JordanSpec(((1, 2), (2, 2), (3, 1), (4, 1), (5, 2)))),
        )
        profile = profile_of(a)
        monkeypatch.setattr(matlen.certificates, "rank", counting_rank)
        certs = find_rank_reduction(a, profile, 4)
        assert list(certs) == [1, 2, 3, 4]
        assert len(calls) == len({c.exponents for c in certs.values()})

    def test_exponents_past_n_raise_before_any_product(self, monkeypatch):
        # No 4 x 4 matrix has a minimal polynomial of degree 5, nor largest
        # Jordan blocks summing to 5: both are refused before A^0..A^n or
        # any evaluation is formed.
        import matlen.certificates
        import matlen.spectral

        def no_product(*args):
            raise AssertionError("a product was formed")

        a = jordan_matrix(F101, JordanSpec(((1, 3), (2, 1))))
        monkeypatch.setattr(Matrix, "powers", no_product)
        monkeypatch.setattr(matlen.spectral, "_eval_rows", no_product)
        monkeypatch.setattr(matlen.certificates, "_eval_rows", no_product)
        with pytest.raises(CharPolyNotSplit):
            jordan_profile(a, Spectrum(((1, 3), (2, 2))))
        with pytest.raises(CertificateMismatch):
            find_rank_reduction(a, JordanProfile({1: (3,), 2: (2,)}), 2)

    def test_many_eigenvalues_in_polynomial_time(self):
        # 40 distinct eigenvalues: 2^40 exponent vectors, but at most two may
        # sit below their block size for a rank <= 2 certificate.
        eigs = list(range(1, 41))
        a = jordan_matrix(F101, JordanSpec(tuple((lam, 1) for lam in eigs)))
        certs = find_rank_reduction(a, profile_of(a), 2)
        assert summary(certs) == {
            1: (tuple(zip(eigs, [0] + [1] * 39)), 39, 1),
            2: (tuple(zip(eigs, [0, 0] + [1] * 38)), 38, 2),
        }

    def test_soundness_by_independent_reevaluation(self):
        a = conjugate(
            random_invertible(5, F101, 99),
            jordan_matrix(F101, JordanSpec(((3, 2), (3, 1), (8, 2)))),
        )
        cert = find_rank_reduction(a, profile_of(a), 1).get(1)
        rebuilt = poly_eval(divisor_poly(F101, cert.exponents), a)
        assert rebuilt == cert.witness
        assert rank(rebuilt) == cert.achieved_rank

    def test_monotone_in_rank_budget(self):
        rng = np.random.default_rng(83)
        from matlen.instances import random_jordan_spec

        for _ in range(20):
            spec = random_jordan_spec(4, F101, rng)
            a = jordan_matrix(F101, spec)
            s = profile_of(a)
            c1, c2 = find_rank_reduction(a, s, 1).get(1), find_rank_reduction(a, s, 2).get(2)
            if c1 is not None:
                assert c2 is not None and c2.degree <= c1.degree


class TestBoundFormulas:
    def test_pappacena(self):
        assert pappacena_bound(1, 2, 4) == 8
        assert pappacena_bound(2, 1, 4) == 10
        assert pappacena_bound(4, 1, 4) == 16  # degenerate full-rank case
        with pytest.raises(ValueError):
            pappacena_bound(0, 1, 4)

    def test_shitov_rank1(self):
        assert shitov_rank1_bound(2, 5) == 8
        assert shitov_rank1_bound(2, 4) == 6
        with pytest.raises(InvalidK):
            shitov_rank1_bound(1, 4)

    def test_t10_t11_hypothesis(self):
        assert t10_t11_hypothesis(4, 3) == (2, 1)
        assert t10_t11_hypothesis(5, 3) == (2, 1)
        assert t10_t11_hypothesis(6, 3) is None
        for n in range(2, 10):
            for m in range(1, n + 1):
                expected = m > n / 2
                assert (t10_t11_hypothesis(n, m) is not None) == expected

    def test_t12_hypothesis(self):
        assert t12_hypothesis(4, 2)
        assert not t12_hypothesis(6, 2)
        assert t12_hypothesis(7, 3)

    def test_thm38_hypothesis(self):
        assert thm38_hypothesis(4, JordanProfile({0: (3, 1)}), 3) == 1
        assert thm38_hypothesis(4, JordanProfile({5: (2, 2)}), 2) is None
        assert thm38_hypothesis(6, JordanProfile({1: (3,), 2: (2, 1)}), 5) == 1
        # k = 0 is the nonderogatory case, covered by its own entry
        assert thm38_hypothesis(4, JordanProfile({0: (4,)}), 4) is None


class TestBoundLedger:
    def t10_set(self):
        return build_instance_with_meta(
            InstanceSpec(n=4, p=101, jordan=JordanSpec(((0, 3), (0, 1))), extra_gens=1, seed=5, family="T10")
        ).generating_set

    def t12_set(self):
        return build_instance_with_meta(
            InstanceSpec(n=4, p=101, jordan=JordanSpec(((0, 2), (0, 2))), extra_gens=2, seed=5, family="T12")
        ).generating_set

    def test_above_half_entry(self):
        ledger = bound_ledger(self.t10_set())
        entry = ledger.find("minpoly_above_half")
        assert entry.applicable and entry.bound_value == 7

    def test_window_and_double_block_entries(self):
        ledger = bound_ledger(self.t12_set())
        window = ledger.find("minpoly_window")
        assert window.applicable and window.bound_value == 10
        double = ledger.find("double_jordan_block")
        assert double.applicable and double.bound_value == 8

    def test_paz_values(self):
        spec = InstanceSpec(n=5, p=101, jordan=None, extra_gens=1, seed=3, family="RANDOM")
        gs = build_instance_with_meta(spec).generating_set
        assert bound_ledger(gs).find("paz_general").bound_value == 9
        assert bound_ledger(self.t10_set()).find("paz_general").bound_value == 6

    def test_degenerate_above_half_at_n2(self):
        gs = GeneratingSet.of([Matrix.unit(F101, 2, 0, 1), Matrix.unit(F101, 2, 1, 0)])
        entry = bound_ledger(gs).find("minpoly_above_half")
        assert not entry.applicable
        assert compute_length(gs).length == 2  # would violate the naive value 1

    def test_certificate_entries_present(self):
        gs = self.t12_set()
        analyses = analyze_generators(gs)
        ledger = bound_ledger(gs, analyses)
        profile = analyses[0].profile
        cert = find_rank_reduction(gs.gens[0], profile, 2).get(2)
        name = f"pappacena_r{cert.achieved_rank}_gen0"
        entry = ledger.find(name)
        assert entry is not None and entry.applicable
        assert entry.bound_value == pappacena_bound(cert.achieved_rank, cert.degree, 4)
        for a in analyses:
            if a.spectrum is None:
                continue
            c1 = find_rank_reduction(gs.gens[a.index], a.profile, 1).get(1)
            if c1 is not None:
                shitov = ledger.find(f"shitov_rank1_gen{a.index}")
                assert shitov is not None
                assert shitov.bound_value == shitov_rank1_bound(max(c1.degree, 2), 4)

    def test_no_length_exceeds_applicable_entries(self):
        rng = np.random.default_rng(97)
        for n in (2, 3, 4):
            for _ in range(10):
                seed = int(rng.integers(0, 2**32))
                gs = build_instance_with_meta(
                    InstanceSpec(n=n, p=101, jordan=None, extra_gens=1, seed=seed, family="RANDOM")
                ).generating_set
                length = compute_length(gs).length
                for entry in bound_ledger(gs).applicable():
                    assert length <= entry.bound_value, (entry.name, length)

    @pytest.mark.parametrize(
        "row", ["markova_unique_max_block", "minpoly_deficiency", "double_jordan_block"]
    )
    def test_undecidable_on_nonsplit(self, row):
        nonsplit = Matrix(F7, [[0, 6], [1, 0]])  # companion of x^2 + 1
        mate = Matrix(F7, [[1, 1], [0, 2]])
        mixed = bound_ledger(GeneratingSet.of([nonsplit, mate])).find(row)
        # The mate still splits, and qualifies for Markova only.
        assert mixed.applicable == (row == "markova_unique_max_block")
        entry = bound_ledger(GeneratingSet.of([nonsplit])).find(row)
        assert not entry.applicable
        assert entry.hypothesis_note == "undecidable: some generator's spectrum does not split"
        # With every spectrum split, a miss names the missing property instead.
        two_scalars = Matrix(F7, np.diag([1, 1, 2, 2]))
        miss = bound_ledger(GeneratingSet.of([two_scalars])).find(row)
        assert not miss.applicable and miss.hypothesis_note.startswith("no generator")


def test_stored_certificates_match_independent_searches():
    # analyze_generators stores one search's answer for both budgets; each
    # must equal the exhaustive oracle for its own r_max. The sweep must reach
    # both a rank-2 first hit (the rank-1 certificate comes later in the same
    # pass) and a rank-1 first hit (it fills both budgets).
    first_hit_rank = {1: 0, 2: 0}
    for family, n in (("T10", 4), ("T10", 6), ("T12", 5), ("T12", 6), ("THM39", 4), ("THM39", 6), ("RANDOM", 4)):
        for index in range(6):
            try:
                gs = build_instance_with_meta(derive_instance_spec(family, n, 101, 23, index)).generating_set
            except GenerationRetriesExhausted:
                continue
            for a in analyze_generators(gs):
                if a.spectrum is None:
                    assert a.certificates == {}
                    continue
                g = gs.gens[a.index]
                oracles = {r: exhaustive_minimum(g, gs.field, r) for r in (1, 2)}
                stored = {
                    r: (c.exponents, c.degree, c.achieved_rank) for r, c in a.certificates.items()
                }
                assert stored == {r: o for r, o in oracles.items() if o is not None}
                assert list(a.certificates) == sorted(a.certificates)
                if oracles[2] is not None:
                    first_hit_rank[oracles[2][2]] += 1
    assert first_hit_rank[1] > 0 and first_hit_rank[2] > 0, first_hit_rank


FIXTURES = Path(__file__).parent / "fixtures"


def analysis_one_at_a_time(g):
    """(degree, spectrum, profile, split_error) of one generator on its own."""
    mp = minimal_polynomial(g)
    try:
        spec = split_roots(mp)
    except NotSplit as exc:
        return mp.degree, None, None, str(exc)
    return mp.degree, spec, jordan_profile(g, spec), None


class TestBatchedJordanRanks:
    """analyze_generators ranks every split generator's powers in one pass."""

    def mixed_sets(self):
        yield load_instance(str(FIXTURES / "nonsplit_f7.json"))
        for family, n in (("T10", 4), ("T10", 6), ("T12", 6), ("THM39", 4), ("THM39", 8)):
            for index in range(3):
                yield build_instance_with_meta(derive_instance_spec(family, n, 101, 11, index)).generating_set
        # Over F_7 many random companions do not split: sets that mix both.
        for seed in range(4):
            spec = InstanceSpec(n=3, p=7, jordan=JordanSpec(((2, 2), (5, 1))), extra_gens=2, seed=seed, family="T11")
            yield build_instance_with_meta(spec).generating_set

    def count_stack_ranks(self, monkeypatch):
        import matlen.spectral

        calls = []

        def counting(stack, p):
            calls.append(stack.shape)
            return _stack_ranks(stack, p)

        monkeypatch.setattr(matlen.spectral, "_stack_ranks", counting)
        return calls

    def test_each_generator_as_on_its_own(self, monkeypatch):
        calls = self.count_stack_ranks(monkeypatch)
        seen = {"split": 0, "nonsplit": 0}
        for gs in self.mixed_sets():
            calls.clear()
            analyses = analyze_generators(gs)
            split = [a for a in analyses if a.profile is not None]
            batched = sum(e for a in split for _, e in a.spectrum.roots)
            assert calls == ([(batched, gs.n, gs.n)] if split else [])
            assert [a.index for a in analyses] == list(range(len(gs.gens)))
            for a, g in zip(analyses, gs.gens):
                degree, spec, profile, error = analysis_one_at_a_time(g)
                assert (a.degree, a.spectrum, a.profile, a.split_error) == (degree, spec, profile, error)
                if profile is None:
                    assert a.certificates == {}
                else:
                    assert a.certificates == find_rank_reduction(g, profile, 2)
                seen["split" if profile is not None else "nonsplit"] += 1
        assert seen["split"] > 0 and seen["nonsplit"] > 0

    def test_one_stack_and_one_product_per_matrix_per_stage(self, monkeypatch):
        # Each generator's A^0..A^n is formed once per analyze_generators
        # call; jordan_profiles evaluates each split generator's powers, and
        # find_rank_reduction its witnesses (if it keeps any), in one product
        # with that stack.
        import matlen.certificates
        import matlen.spectral

        fills, evals = [], {"spectral": [], "certificates": []}
        real_powers = Matrix.powers

        def counting_powers(a):
            if a._powers is None:
                fills.append(id(a))
            return real_powers(a)

        def spy(module):
            def counting(a, rows):
                evals[module].append(id(a))
                return _eval_rows(a, rows)

            return counting

        monkeypatch.setattr(Matrix, "powers", counting_powers)
        for module in evals:
            monkeypatch.setattr(getattr(matlen, module), "_eval_rows", spy(module))
        seen = 0
        for gs in self.mixed_sets():
            fills.clear()
            evals["spectral"].clear()
            evals["certificates"].clear()
            analyses = analyze_generators(gs)
            split = [id(gs.gens[a.index]) for a in analyses if a.profile is not None]
            kept = [id(gs.gens[a.index]) for a in analyses if a.certificates]
            assert fills == [id(g) for g in gs.gens]
            assert evals == {"spectral": split, "certificates": kept}
            seen += len(kept)
        assert seen > 0

    def test_nonsplit_generators_leave_the_others_unchanged(self):
        checked = 0
        for gs in self.mixed_sets():
            analyses = analyze_generators(gs)
            split = [a for a in analyses if a.spectrum is not None]
            if len(split) == len(analyses) or not split:
                continue
            alone = analyze_generators(GeneratingSet.of([gs.gens[a.index] for a in split]))
            for a, b in zip(split, alone):
                assert (a.degree, a.spectrum, a.profile, a.certificates) == (
                    b.degree, b.spectrum, b.profile, b.certificates
                )
            checked += 1
        assert checked > 0

    def test_no_split_generator_no_rank_pass(self, monkeypatch):
        calls = self.count_stack_ranks(monkeypatch)
        # Companions of x^2 + 1 and x^2 - 3, both irreducible over F_7.
        gs = GeneratingSet.of([Matrix(F7, [[0, 6], [1, 0]]), Matrix(F7, [[0, 3], [1, 0]])])
        analyses = analyze_generators(gs)
        assert calls == []
        assert all(a.spectrum is None and a.profile is None and a.split_error for a in analyses)
        assert all(a.certificates == {} for a in analyses)


class TestExhaustiveLedgerAudit:
    """Every set of distinct 2 x 2 matrices: pairs over F_2 and F_3, triples over F_2."""

    @pytest.mark.parametrize(
        "p, size, sets, generating", [(2, 2, 120, 48), (3, 2, 3240, 1944), (2, 3, 560, 400)]
    )
    def test_engine_matches_oracle_and_no_row_is_exceeded(self, p, size, sets, generating):
        result = audit(2, p, size)
        assert (result.sets, result.generating) == (sets, generating)
        assert result.mismatches == []
        assert result.exceeded == []

    @pytest.mark.parametrize("size", [2, 3])
    def test_reindexed_analyses_give_the_ledger_of_the_set(self, size):
        mats = all_matrices(2, 2)
        alone = [analyze_generators(GeneratingSet.of([m]))[0] for m in mats]
        for combo in combinations(range(len(mats)), size):
            gs = GeneratingSet.of([mats[i] for i in combo])
            reused = [dataclasses.replace(alone[i], index=j) for j, i in enumerate(combo)]
            assert reused == analyze_generators(gs)
            assert bound_ledger(gs, reused) == bound_ledger(gs)
