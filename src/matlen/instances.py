"""Seeded construction of Jordan-prescribed matrices and generating sets.

All randomness flows through numpy's PCG64 generator, so identical seeds
give bit-identical instances on every platform. The distinguished generator
carries an instance family's hypothesis and is never resampled; only the
random companions are retried when the set fails to generate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import double_block_eigenvalue, t10_t11_hypothesis, t12_hypothesis
from .errors import (
    EmptySet,
    FamilyHypothesisViolated,
    GenerationRetriesExhausted,
    Singular,
    SizeMismatch,
)
from .length import GeneratingSet, LengthReport, compute_length
from .linalg import Matrix, PrimeField, mat_inverse, mat_mul
from .spectral import JordanProfile

FAMILIES = ("RANDOM", "T10", "T11", "T12", "THM39")
MAX_RETRIES = 64


@dataclass(frozen=True)
class JordanSpec:
    """Diagonal-order list of (eigenvalue, block size) pairs."""

    blocks: tuple[tuple[int, int], ...]

    def order(self) -> int:
        return sum(size for _, size in self.blocks)

    def minpoly_degree(self) -> int:
        """Implied minimal polynomial degree: sum over eigenvalues of max block size."""
        best: dict[int, int] = {}
        for lam, size in self.blocks:
            best[lam] = max(best.get(lam, 0), size)
        return sum(best.values())

    def block_multisets(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for lam, size in self.blocks:
            out.setdefault(lam, []).append(size)
        return {lam: tuple(sorted(sizes, reverse=True)) for lam, sizes in out.items()}


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one deterministic instance.

    jordan prescribes the distinguished generator (None only for RANDOM);
    extra_gens random companions are appended.
    """

    n: int
    p: int
    jordan: JordanSpec | None
    extra_gens: int
    seed: int
    family: str = "RANDOM"


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def jordan_matrix(f: PrimeField, spec: JordanSpec) -> Matrix:
    """Block-diagonal matrix with the prescribed Jordan blocks, in order."""
    n = spec.order()
    if n < 1:
        raise SizeMismatch("Jordan spec must cover at least one dimension")
    arr = np.zeros((n, n), dtype=np.int64)
    offset = 0
    for lam, size in spec.blocks:
        if size < 1:
            raise SizeMismatch(f"block size {size} must be at least 1")
        for i in range(size):
            arr[offset + i, offset + i] = lam % f.p
            if i + 1 < size:
                arr[offset + i, offset + i + 1] = 1
        offset += size
    return Matrix(f, arr)


def random_matrix(n: int, f: PrimeField, seed) -> Matrix:
    """Uniform-entry random matrix."""
    rng = _rng(seed)
    return Matrix(f, rng.integers(0, f.p, size=(n, n), dtype=np.int64))


def _invertible_pair(n: int, f: PrimeField, rng: np.random.Generator) -> tuple[Matrix, Matrix]:
    """(P, P^-1) for a uniform-entry matrix P resampled until it is invertible.

    One elimination per draw both accepts P and inverts it: mat_inverse
    raises Singular exactly when P has rank < n.
    """
    while True:
        m = Matrix(f, rng.integers(0, f.p, size=(n, n), dtype=np.int64))
        try:
            return m, mat_inverse(m)
        except Singular:
            pass


def _conjugated(a: Matrix, rng: np.random.Generator) -> Matrix:
    """P A P^-1 for the next random invertible P that rng draws."""
    p, p_inv = _invertible_pair(a.n, a.field, rng)
    return mat_mul(mat_mul(p, a), p_inv)


def random_jordan_spec(
    n: int, f: PrimeField, rng: np.random.Generator, degree: int | None = None
) -> JordanSpec:
    """Random Jordan spec of order n with controlled minimal-polynomial degree.

    With degree set, the implied degree is exactly that value; without it,
    the degree is drawn uniformly from [1, n]. The minimal polynomial is
    chosen first (distinct eigenvalues with exponents summing to the degree),
    then filler blocks of admissible sizes pad the order.
    """
    if degree is None:
        degree = int(rng.integers(1, n + 1))
    if not 1 <= degree <= n:
        raise SizeMismatch(f"degree {degree} not in [1, {n}]")
    s = int(rng.integers(1, min(degree, f.p) + 1))
    # Random composition of `degree` into s positive parts.
    cuts = sorted(rng.choice(np.arange(1, degree), size=s - 1, replace=False).tolist()) if s > 1 else []
    exps = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
    eigs = rng.choice(f.p, size=s, replace=False).tolist()
    blocks = [(int(lam), int(e)) for lam, e in zip(eigs, exps)]
    remaining = n - degree
    while remaining > 0:
        i = int(rng.integers(0, s))
        lam, cap = int(eigs[i]), exps[i]
        size = int(rng.integers(1, min(cap, remaining) + 1))
        blocks.append((lam, size))
        remaining -= size
    order = rng.permutation(len(blocks))
    return JordanSpec(blocks=tuple(blocks[i] for i in order))


def _companion(n: int, f: PrimeField, max_degree: int, rng: np.random.Generator) -> Matrix:
    """Random generator with minimal polynomial degree in [2, max_degree].

    Degree-1 companions are scalar and can never help a set generate, so
    they are excluded whenever the cap allows it.
    """
    if max_degree >= n:
        return random_matrix(n, f, rng)
    low = min(2, max_degree)
    degree = int(rng.integers(low, max_degree + 1))
    spec = random_jordan_spec(n, f, rng, degree=degree)
    return _conjugated(jordan_matrix(f, spec), rng)


def admits_degree(family: str, n: int, m: int) -> bool:
    """Whether a family's distinguished generator may have minimal-polynomial degree m.

    T10 and T11 split the m > n/2 hypothesis of the 3n - 5 bound by the
    parity of n (even, odd); T12 is the 2m <= n <= 3m - 1 window of the
    7n/2 - 4 bound; THM39's two size-n/2 blocks for one eigenvalue give 2m = n.
    """
    if family in ("T10", "T11"):
        return n % 2 == (family == "T11") and t10_t11_hypothesis(n, m) is not None
    if family == "T12":
        return t12_hypothesis(n, m)
    if family == "THM39":
        return 2 * m == n
    raise FamilyHypothesisViolated(f"family {family!r} prescribes no minimal-polynomial degree")


def admissible_degrees(family: str, n: int) -> list[int]:
    """The minimal-polynomial degrees m >= 2 a preset admits at order n, ascending.

    m = 1 makes the distinguished generator scalar, which never helps generate.
    """
    degrees = [m for m in range(2, n + 1) if admits_degree(family, n, m)]
    if not degrees:
        raise FamilyHypothesisViolated(f"no admissible minimal-polynomial degree for {family} at n={n}")
    return degrees


def derive_instance_spec(
    family: str, n: int, p: int, master_seed: int, index: int
) -> InstanceSpec:
    """Deterministic per-index instance recipe; presets cycle through `admissible_degrees`."""
    entropy = (master_seed, FAMILIES.index(family), n, index)
    state = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    spec_seed = int(state[1])
    if family == "RANDOM":
        return InstanceSpec(n=n, p=p, jordan=None, extra_gens=1, seed=spec_seed, family=family)
    choice_rng = np.random.Generator(np.random.PCG64(int(state[0])))
    degrees = admissible_degrees(family, n)
    m = degrees[index % len(degrees)]
    if family == "THM39":
        lam = int(choice_rng.integers(0, p))
        jordan = JordanSpec(blocks=((lam, m), (lam, m)))
    else:
        jordan = random_jordan_spec(n, PrimeField(p), choice_rng, degree=m)
    # Low-degree families need a second companion: with m(S) = m, every word
    # through a rank-r polynomial insertion collapses into outer products, so
    # a pair spans at most ~m + r*m^2 dimensions; concentrated spectra in the
    # m <= n/2 window (and any m = 2 prescription) make that < n^2.
    low_degree = family in ("T12", "THM39") or (m == 2 and n >= 3)
    extra = 2 if low_degree else 1
    return InstanceSpec(n=n, p=p, jordan=jordan, extra_gens=extra, seed=spec_seed, family=family)


def check_family_hypothesis(family: str, n: int, jordan: JordanSpec | None) -> None:
    """Raise FamilyHypothesisViolated unless the tag's hypothesis holds."""
    if family not in FAMILIES:
        raise FamilyHypothesisViolated(f"unknown family {family!r}")
    if family == "RANDOM":
        return
    if jordan is None:
        raise FamilyHypothesisViolated(f"family {family} needs a Jordan prescription")
    if jordan.order() != n:
        raise SizeMismatch(f"Jordan spec covers {jordan.order()} of {n} dimensions")
    m = jordan.minpoly_degree()
    if not admits_degree(family, n, m):
        raise FamilyHypothesisViolated(
            f"{family} does not admit minimal-polynomial degree {m} at n={n}"
        )
    profile = JordanProfile(jordan.block_multisets())
    if family == "THM39" and double_block_eigenvalue(profile, n) is None:
        raise FamilyHypothesisViolated(
            f"THM39 needs exactly two size-n/2 blocks with one eigenvalue, got {jordan.blocks}"
        )


@dataclass
class BuildResult:
    """A built instance, the length report of its final generation check, and its retries."""

    generating_set: GeneratingSet
    length_report: LengthReport
    retries: int = 0


def build_instance_with_meta(spec: InstanceSpec) -> BuildResult:
    """Deterministically build a generating set for the instance spec.

    The distinguished generator is the conjugated Jordan prescription and is
    never resampled; the random companions are redrawn, up to 64 times,
    until the set generates the full algebra. A RANDOM spec without a
    prescription draws extra_gens + 1 companions of any degree, since
    `_companion` with the cap n is `random_matrix`.
    """
    n, f = spec.n, PrimeField(spec.p)
    check_family_hypothesis(spec.family, n, spec.jordan)
    rng = _rng(spec.seed)
    if spec.jordan is None:
        fixed, draws, max_degree = [], spec.extra_gens + 1, n
    else:
        fixed = [_conjugated(jordan_matrix(f, spec.jordan), rng)]
        draws, max_degree = spec.extra_gens, spec.jordan.minpoly_degree()
    if len(fixed) + draws < 1:
        raise EmptySet("need at least one generator")
    if n >= 2 and len(fixed) + draws < 2:
        raise ValueError(
            "a single matrix spans a commutative subalgebra and never generates M_n for n >= 2"
        )
    retries = 0
    while True:
        companions = [_companion(n, f, max_degree, rng) for _ in range(draws)]
        gs = GeneratingSet(field=f, n=n, gens=tuple(fixed + companions))
        rep = compute_length(gs)
        if rep.is_generating:
            return BuildResult(generating_set=gs, length_report=rep, retries=retries)
        retries += 1
        if retries >= MAX_RETRIES:
            raise GenerationRetriesExhausted(
                f"no generating set after {MAX_RETRIES} companion resamples (seed {spec.seed})"
            )


def random_generating_set(n: int, f: PrimeField, count: int, seed) -> GeneratingSet:
    """Seeded random matrices, resampled as a whole until the set generates."""
    spec = InstanceSpec(n=n, p=f.p, jordan=None, extra_gens=count - 1, seed=seed)
    return build_instance_with_meta(spec).generating_set
