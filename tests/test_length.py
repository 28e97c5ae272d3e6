"""Length engine: frontier span growth vs the all-words oracle."""

from itertools import product

import numpy as np
import pytest

from matlen import linalg
from matlen.errors import BudgetExceeded, EmptySet
from matlen.instances import (
    _invertible_pair,
    build_instance_with_meta,
    derive_instance_spec,
    random_generating_set,
)
from matlen.length import (
    GeneratingSet,
    LengthReport,
    brute_force_length,
    compute_length,
)
from matlen.linalg import Matrix, PrimeField, SpanBasis, mat_mul
from matlen.spectral import minimal_polynomial
from reference import FullRowBasis, conjugate, full_row_basis

F101 = PrimeField(101)


def units_pair():
    return GeneratingSet.of([Matrix.unit(F101, 2, 0, 1), Matrix.unit(F101, 2, 1, 0)])


def all_words_dims(s: GeneratingSet, levels: int) -> list[int]:
    """Test-side span trace that keeps going past stabilization."""
    basis = FullRowBasis(s.field, s.n * s.n)
    dims = []
    for level in range(levels + 1):
        for word in product(s.gens, repeat=level):
            m = Matrix.identity(s.field, s.n)
            for g in word:
                m = mat_mul(m, g)
            basis.insert(m.vec())
        dims.append(basis.dim())
    return dims


def sequential_length(s: GeneratingSet, max_levels: int | None = None) -> LengthReport:
    """Test-side frontier loop: one reference insert per candidate word."""
    full = s.n * s.n
    cap = full if max_levels is None else max_levels
    basis = FullRowBasis(s.field, full)
    identity = Matrix.identity(s.field, s.n)
    basis.insert(identity.vec())
    dims = [basis.dim()]
    frontier = [identity]
    while dims[-1] < full:
        if len(dims) - 1 >= cap:
            raise BudgetExceeded(f"level cap {cap}")
        grown, seen = [], set()
        for g in s.gens:
            for w in frontier:
                cand = mat_mul(g, w)
                key = cand.entries.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                if basis.insert(cand.vec()):
                    grown.append(cand)
        dims.append(basis.dim())
        frontier = grown
        if not grown:
            break
    return LengthReport(s.n, tuple(dims))


def block_triangular_set(n: int, field: PrimeField, rng) -> GeneratingSet:
    """Two random matrices with a zero lower-left block: the span stalls below n^2."""
    mats = []
    for _ in range(2):
        arr = rng.integers(0, field.p, size=(n, n))
        arr[n // 2 :, : n // 2] = 0
        mats.append(Matrix(field, arr))
    return GeneratingSet.of(mats)


def sweep_sets(orders, seed: int):
    """Random pairs and triples with a repeated generator, T10 (T11 at odd n) and T12
    instances, block-triangular (stalled) sets and single matrices."""
    rng = np.random.default_rng(seed)
    for n in orders:
        pair = [Matrix(F101, rng.integers(0, 101, size=(n, n))) for _ in range(2)]
        yield GeneratingSet.of(pair)
        yield GeneratingSet.of(pair + pair[:1])
        for family in ("T10" if n % 2 == 0 else "T11", "T12"):
            if n >= 4:
                yield build_instance_with_meta(derive_instance_spec(family, n, 101, seed, n)).generating_set
        if n >= 2:
            yield block_triangular_set(n, F101, rng)
        yield GeneratingSet.of([Matrix(PrimeField(2), rng.integers(0, 2, size=(n, n)))])


def transpose(s: GeneratingSet) -> GeneratingSet:
    return GeneratingSet.of([Matrix(s.field, g.entries.T) for g in s.gens])


class TestComputeLength:
    def test_matrix_units_pair(self):
        rep = compute_length(units_pair())
        assert rep.dims == (1, 3, 4)
        assert rep.length == 2 and rep.is_generating
        assert rep == brute_force_length(units_pair(), 4)

    def test_identity_never_generates(self):
        for n in (2, 3):
            rep = compute_length(GeneratingSet.of([Matrix.identity(F101, n)]))
            assert rep.dims == (1, 1)
            assert not rep.is_generating and rep.generated_dim == 1 and rep.length is None

    def test_single_nilpotent_stalls(self):
        j2 = Matrix(F101, [[0, 1], [0, 0]])
        rep = compute_length(GeneratingSet.of([j2]))
        assert rep.dims == (1, 2, 2)
        assert not rep.is_generating and rep.generated_dim == 2

    def test_order_one_is_degenerate(self):
        rep = compute_length(GeneratingSet.of([Matrix(PrimeField(5), [[3]])]))
        assert rep.length == 0 and rep.is_generating
        rep = compute_length(GeneratingSet.of([Matrix(PrimeField(5), [[0]])]))
        assert rep.length == 0

    def test_length_bounded_by_dimension(self):
        rng = np.random.default_rng(51)
        for n in (2, 3, 4):
            for i in range(10):
                gs = random_generating_set(n, F101, 2, rng)
                rep = compute_length(gs)
                assert rep.is_generating and rep.length <= n * n - 1
                assert all(b > a for a, b in zip(rep.dims, rep.dims[1:]))

    def test_chain_stabilizes_for_good(self):
        # Once dims flatline, three more forced levels stay flat.
        j2 = Matrix(F101, [[0, 1], [0, 0]])
        gs = GeneratingSet.of([j2])
        stalled = compute_length(gs)
        extended = all_words_dims(gs, len(stalled.dims) - 1 + 3)
        assert extended[-4:] == [stalled.generated_dim] * 4


class TestBlockedEngine:
    @pytest.mark.parametrize("block_rows", [1, 5, linalg.BLOCK_ROWS])
    def test_equals_sequential_frontier_loop(self, block_rows, monkeypatch):
        # Small blocks split each generator's frontier slice many times over.
        monkeypatch.setattr(linalg, "BLOCK_ROWS", block_rows)
        stalled = 0
        for gs in sweep_sets(range(1, 13), seed=7):
            rep = compute_length(gs)
            assert rep == sequential_length(gs)
            stalled += not rep.is_generating
        assert stalled >= 12

    @pytest.mark.parametrize("block_rows", [1, 5])
    def test_no_insert_into_a_full_basis(self, block_rows, monkeypatch):
        # Once the span is full, the level's remaining blocks are skipped.
        monkeypatch.setattr(linalg, "BLOCK_ROWS", block_rows)
        calls = []
        insert_block = SpanBasis._insert_block

        def spy(basis, block):
            calls.append(basis.dim() < basis.ambient_dim)
            return insert_block(basis, block)

        monkeypatch.setattr(SpanBasis, "_insert_block", spy)
        rng = np.random.default_rng(19)
        for n in range(2, 7):
            for _ in range(4):
                gs = random_generating_set(n, F101, 2, rng)
                assert compute_length(gs) == sequential_length(gs)
        assert calls and all(calls)

    # Kept words are stored in uint8 up to p = 251, uint16 up to p = 65521
    # and uint32 above: each pair of primes straddles one boundary.
    @pytest.mark.parametrize("p", [101, 251, 257, 65521, 65537, 1048573])
    def test_random_pair_at_24_equals_sequential_frontier_loop(self, p):
        # Beyond the sweep's n <= 12: many blocks per level, and a basis R of
        # up to 288 x 288 entries, against the reference that stores every row.
        field = PrimeField(p)
        rng = np.random.default_rng(0)
        gs = GeneratingSet.of([Matrix(field, rng.integers(0, p, size=(24, 24))) for _ in range(2)])
        rep = compute_length(gs)
        assert rep.is_generating and rep == sequential_length(gs)
        # A random pair generates whatever its kept words are, so a word
        # stored wrongly would not show there. The powers of one matrix stop
        # growing at the degree of its minimal polynomial only if each is
        # kept exactly, and A itself, a kept word, holds the entry p - 1.
        a = gs.gens[0].entries.copy()
        a[0, 0] = p - 1
        lone = GeneratingSet.of([Matrix(field, a)])
        assert compute_length(lone) == sequential_length(lone)

    @pytest.mark.parametrize(
        "p, n, forced",
        [
            (101, 24, np.float64),
            (101, 24, np.int64),
            (101, 32, np.float64),
            (101, 32, np.int64),
            # The last float32 order at p = 101, and one over F_3.
            (101, 40, np.float64),
            (3, 48, np.float64),
        ],
    )
    def test_forced_accumulator_gives_the_same_trace(self, p, n, forced, monkeypatch):
        # The float32 engine runs its products through single-precision
        # BLAS, the float64 one through double precision; numpy's int64
        # products bypass BLAS. Each is an independent summation path.
        field = PrimeField(p)
        rng = np.random.default_rng(n)
        gs = GeneratingSet.of([Matrix(field, rng.integers(0, p, size=(n, n))) for _ in range(2)])
        assert SpanBasis(field, n * n).dtype == np.float32
        # Every candidate block (built from the frontier) and R after every
        # block stay float32: a silent upcast would still give the trace.
        dtypes = set()
        insert_block = SpanBasis._insert_block

        def recording(basis, block):
            dtypes.add(block.dtype)
            accepted = insert_block(basis, block)
            dtypes.add(basis._r.dtype)
            return accepted

        with monkeypatch.context() as m:
            m.setattr(SpanBasis, "_insert_block", recording)
            rep = compute_length(gs)
        assert dtypes == {np.dtype(np.float32)}
        monkeypatch.setattr(linalg, "_accumulator_dtype", lambda ambient_dim, p: forced)
        assert SpanBasis(field, n * n).dtype == forced
        assert compute_length(gs) == rep

    def test_level_cap_matches_sequential(self):
        for gs in sweep_sets((3, 6, 9), seed=11):
            rep = compute_length(gs)
            levels = len(rep.dims) - 1
            assert compute_length(gs, max_levels=levels) == sequential_length(gs, levels) == rep
            if rep.is_generating and levels:
                for fn in (compute_length, sequential_length):
                    with pytest.raises(BudgetExceeded):
                        fn(gs, max_levels=levels - 1)

    def test_transpose_preserves_dims(self):
        # The words of length <= i over S^T are the transposes of those over S,
        # read backwards: (g1 ... gk)^T = gk^T ... g1^T. Transposing is a linear
        # isomorphism, so every dim L_i is kept.
        for gs in sweep_sets((2, 3, 5, 8, 12, 16), seed=13):
            assert compute_length(transpose(gs)).dims == compute_length(gs).dims


class TestBruteForce:
    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(53)
        for n, k in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for _ in range(25):
                gs = random_generating_set(n, F101, k, rng)
                assert compute_length(gs) == brute_force_length(gs, n * n)

    def test_identity_reported_non_generating(self):
        rep = brute_force_length(GeneratingSet.of([Matrix.identity(F101, 2)]), 4)
        assert not rep.is_generating

    def test_word_count_guard(self):
        gs = GeneratingSet.of([Matrix.unit(F101, 2, 0, 1)] * 3)
        with pytest.raises(BudgetExceeded):
            brute_force_length(gs, 13)  # 3^13 > 10^6

    def test_unresolved_trace_is_an_error(self):
        with pytest.raises(BudgetExceeded):
            brute_force_length(units_pair(), 1)

    @pytest.mark.parametrize("p, index", [(2, 2), (5, 14)])
    def test_three_quadratic_generators_at_n4_exceed_2_log2_n(self, p, index):
        # T12 fuzz instances at n = 4 (seed 0) whose three generators all have
        # quadratic minimal polynomials, yet whose length is 5 > ceil(2 log2 4)
        # = 4, the quadratic_minpoly ledger row. The all-words oracle agrees
        # with the engine, so the trace is right and the row's stated
        # hypothesis is too weak.
        gs = build_instance_with_meta(derive_instance_spec("T12", 4, p, 0, index)).generating_set
        assert [minimal_polynomial(g).degree for g in gs.gens] == [2, 2, 2]
        rep = compute_length(gs)
        assert rep == brute_force_length(gs, 6)
        assert rep.dims == (1, 4, 8, 12, 15, 16) and rep.length == 5


class TestInvariance:
    def recombine(self, gs: GeneratingSet, rng) -> GeneratingSet:
        c = _invertible_pair(len(gs.gens), gs.field, rng)[0]
        gens = np.stack([g.entries for g in gs.gens])
        return GeneratingSet.of([Matrix(gs.field, np.tensordot(row, gens, axes=1)) for row in c.entries])

    def test_invertible_recombination(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            gs = random_generating_set(3, F101, 2, rng)
            assert compute_length(self.recombine(gs, rng)) == compute_length(gs)

    def test_identity_shift_when_hypothesis_holds(self):
        rng = np.random.default_rng(67)
        checked = 0
        while checked < 20:
            gs = random_generating_set(3, F101, 2, rng)
            basis = SpanBasis(F101, 9)
            for g in gs.gens:
                basis.insert(g.vec())
            if full_row_basis(basis).contains(Matrix.identity(F101, 3).vec()):
                continue
            shifted = GeneratingSet.of(
                [Matrix(F101, g.entries + int(rng.integers(0, 101)) * np.eye(3, dtype=np.int64)) for g in gs.gens]
            )
            assert compute_length(shifted).length == compute_length(gs).length
            checked += 1

    def test_simultaneous_conjugation(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            gs = random_generating_set(3, F101, 2, rng)
            p = _invertible_pair(3, F101, rng)[0]
            conjugated = GeneratingSet.of([conjugate(p, g) for g in gs.gens])
            assert compute_length(conjugated) == compute_length(gs)


@pytest.fixture(scope="module")
def pair_at_48():
    """One seeded random pair over F_101 at n = 48 and its dims trace."""
    rng = np.random.default_rng(48)
    gs = GeneratingSet.of([Matrix(F101, rng.integers(0, 101, size=(48, 48))) for _ in range(2)])
    return gs, compute_length(gs).dims


class TestInvarianceAt48:
    """Metamorphic relations at a size no reference run reaches: each keeps every dim L_i."""

    def test_simultaneous_conjugation(self, pair_at_48):
        gs, dims = pair_at_48
        change = _invertible_pair(48, F101, np.random.default_rng(1))[0]
        assert compute_length(GeneratingSet.of([conjugate(change, g) for g in gs.gens])).dims == dims

    def test_transpose(self, pair_at_48):
        gs, dims = pair_at_48
        assert compute_length(transpose(gs)).dims == dims

    def test_invertible_recombination_with_identity_shift(self, pair_at_48):
        # Words over the new set expand into words over the old one of no
        # greater length, and each old generator is a combination of the new
        # ones and I, so every L_i is the same space.
        gs, dims = pair_at_48
        rng = np.random.default_rng(2)
        c = _invertible_pair(2, F101, rng)[0].entries
        a, b = (g.entries for g in gs.gens)
        identity = np.eye(48, dtype=np.int64)
        shifted = [Matrix(F101, c[i, 0] * a + c[i, 1] * b + rng.integers(0, 101) * identity) for i in range(2)]
        assert compute_length(GeneratingSet.of(shifted)).dims == dims


class TestGeneratingSetValidation:
    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            GeneratingSet.of([])

    def test_is_generating_read_from_the_trace(self):
        assert compute_length(units_pair()).is_generating
        assert not compute_length(GeneratingSet.of([Matrix.identity(F101, 2)])).is_generating
