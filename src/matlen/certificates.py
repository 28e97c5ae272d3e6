"""Rank-reduction certificates and the ledger of length bounds.

A certificate is a divisor-form product prod (A - lambda I)^{a_lambda} of
low rank: it lives in the span of words of length <= sum(a_lambda), so the
generic rank bounds turn it into a concrete length bound. The ledger
collects every known bound whose hypothesis the instance satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

from . import spectral
from .errors import CertificateMismatch, InvalidK, NotSplit
from .length import GeneratingSet
from .linalg import Matrix, _eval_rows, rank
from .spectral import (
    JordanProfile,
    Spectrum,
    minimal_polynomial,
    split_roots,
    unique_max_block,
)


@dataclass(frozen=True)
class RankCertificate:
    """Exponent vector a_lambda with its evaluation's rank and degree."""

    exponents: tuple[tuple[int, int], ...]  # (eigenvalue, exponent), ascending
    degree: int
    achieved_rank: int
    witness: Matrix


@dataclass(frozen=True)
class BoundEntry:
    name: str
    bound_value: int
    applicable: bool
    hypothesis_note: str


@dataclass(frozen=True)
class BoundLedger:
    entries: tuple[BoundEntry, ...]

    def find(self, name: str) -> BoundEntry | None:
        for e in self.entries:
            if e.name == name:
                return e
        return None


def find_rank_reduction(
    a: Matrix, profile: JordanProfile, r_max: int
) -> dict[int, RankCertificate]:
    """Minimal-degree divisor-form certificates of rank <= r for r = 1..r_max.

    Ranks come from the Jordan profile, not from matrices: for mu != lambda,
    A - mu I is invertible on the generalized eigenspace of lambda, so
    rank prod (A - lambda I)^{a_lambda} = sum_lambda sum_{s in blocks(lambda)}
    max(s - a_lambda, 0). With e_lambda the largest block, an exponent
    a_lambda < e_lambda adds at least 1 to the rank, so a vector of rank
    <= r_max has at most r_max exponents below their e_lambda and all the
    others at it; only those vectors are searched, the all-zero one excluded.

    Maps each budget r to the least vector by (total degree, exponents under
    ascending eigenvalue order) among those of rank 1..r, keys ascending; a
    budget with no certificate is left out. Only the distinct kept vectors
    are evaluated, as polynomials in one `_eval_rows` product, and each
    witness's rank is checked against the profile's: CertificateMismatch if
    they differ, or before any product if the tops e_lambda sum past n.
    """
    if r_max < 1:
        raise ValueError(f"r_max must be at least 1, got {r_max}")
    eigenvalues = sorted(profile.blocks)
    tops = [profile.blocks[lam][0] for lam in eigenvalues]
    if sum(tops) > a.n:
        raise CertificateMismatch(f"largest blocks {tops} sum past the order {a.n}")
    # Per eigenvalue: each exponent below the top, with its rank contribution.
    options = []
    for lam, top in zip(eigenvalues, tops):
        contributions = ((x, sum(max(s - x, 0) for s in profile.blocks[lam])) for x in range(top))
        options.append([(x, c) for x, c in contributions if c <= r_max])
    best = [None] * (r_max + 1)  # best[b]: least ((degree, v), rank) of rank <= b, in one pass
    for size in range(1, min(r_max, len(eigenvalues)) + 1):
        for below in combinations(range(len(eigenvalues)), size):
            for picks in product(*(options[i] for i in below)):
                r = sum(c for _, c in picks)
                if r > r_max:
                    continue
                v = list(tops)
                for i, (x, _) in zip(below, picks):
                    v[i] = x
                if not any(v):
                    continue
                candidate = ((sum(v), tuple(v)), r)
                for b in range(r, r_max + 1):
                    if best[b] is None or candidate < best[b]:
                        best[b] = candidate
    p = a.field.p
    rows = {}
    for (degree, v), r in dict.fromkeys(filter(None, best)):  # distinct picks, in budget order
        row = [1] + [0] * a.n
        for lam, exp in zip(eigenvalues, v):
            for _ in range(exp):
                row = [(hi - lam * lo) % p for hi, lo in zip([0, *row], row)]  # times x - lambda
        rows[(degree, v), r] = row
    if not rows:
        return {}
    certs: dict[tuple[tuple[int, tuple[int, ...]], int], RankCertificate] = {}
    for ((degree, v), r), entries in zip(rows, _eval_rows(a, list(rows.values()))):
        witness = Matrix(a.field, entries)
        got = rank(witness)
        if got != r:
            raise CertificateMismatch(
                f"exponents {v} over eigenvalues {eigenvalues}: witness rank {got}, "
                f"Jordan profile predicts {r}"
            )
        certs[(degree, v), r] = RankCertificate(tuple(zip(eigenvalues, v)), degree, r, witness)
    return {b: certs[pick] for b, pick in enumerate(best) if pick}


def pappacena_bound(r: int, k: int, n: int) -> int:
    """Length bound rn + n - r + k - 1 from a rank-r matrix at span level k."""
    if r < 1 or k < 1:
        raise ValueError(f"need r >= 1 and k >= 1, got r={r}, k={k}")
    return r * n + n - r + k - 1


def shitov_rank1_bound(k: int, n: int) -> int:
    """Length bound 2n + k - 4 from a rank-one matrix at span level k >= 2."""
    if k < 2:
        raise InvalidK(f"rank-one span level must be at least 2, got {k}")
    return 2 * n + k - 4


def t10_t11_hypothesis(n: int, m: int) -> tuple[int, int] | None:
    """(t, k) when the 3n-5 bound applies, i.e. exactly when m > n/2.

    Even n = 2t: applicable for m = t+k, k in 1..t. Odd n = 2t+1:
    applicable for m = t+k, k in 1..t+1.
    """
    if n < 2 or m < 1 or m > n:
        return None
    t = n // 2
    if m >= t + 1:
        return t, m - t
    return None


def t12_hypothesis(n: int, m: int) -> bool:
    """True iff 2m <= n <= 3m - 1 (the 7n/2 - 4 window)."""
    return 2 * m <= n <= 3 * m - 1


def thm38_hypothesis(n: int, profile: JordanProfile, m: int) -> int | None:
    """Deficiency k = n - m when the 2n - 2 + k bound applies.

    Requires k >= 1, 2k < n, and for every eigenvalue the same relation
    within its own Jordan matrix: 2(n_lambda - max block) < n_lambda.
    """
    k = n - m
    if k < 1 or 2 * k >= n:
        return None
    for sizes in profile.blocks.values():
        n_lam = sum(sizes)
        k_lam = n_lam - sizes[0]
        if 2 * k_lam >= n_lam:
            return None
    return k


def paz_bound(n: int) -> int:
    """The general ceiling bound (n^2 + 2) / 3, rounded up."""
    return -((n * n + 2) // -3)


def shitov_general_bound(n: int) -> int:
    """The general 2n log2 n + 4n - 4 bound, rounded up to an integer."""
    return math.ceil(2 * n * math.log2(n) + 4 * n - 4) if n > 1 else 0


def quadratic_minpoly_bound(n: int) -> int:
    """The 2 log2 n bound for sets of quadratic minimal polynomials, rounded up."""
    return math.ceil(2 * math.log2(n)) if n > 1 else 0


def double_block_eigenvalue(profile: JordanProfile, n: int) -> int | None:
    """Eigenvalue lambda when the profile is exactly {lambda: [n/2, n/2]}."""
    if n % 2 or len(profile.blocks) != 1:
        return None
    lam, sizes = next(iter(profile.blocks.items()))
    if sizes == (n // 2, n // 2):
        return lam
    return None


@dataclass(frozen=True)
class GeneratorAnalysis:
    """Per-generator spectral data feeding the ledger; spectrum may be absent.

    certificates maps r_max in (1, 2) to the minimal certificate of rank
    <= r_max, in that order; an r_max with no certificate is left out.
    """

    index: int
    degree: int
    spectrum: Spectrum | None
    profile: JordanProfile | None
    split_error: str | None
    certificates: dict[int, RankCertificate] = field(default_factory=dict)


def analyze_generators(s: GeneratingSet) -> list[GeneratorAnalysis]:
    """Spectral data of each generator, in three stages over the whole set.

    Minimal polynomials and their splits come first, one generator at a
    time; then the Jordan profiles of every generator that splits, in one
    `spectral.jordan_profiles` call (one `_stack_ranks` pass for the set);
    then each of those generators' certificates.
    """
    degrees: list[int] = []
    spectra: list[Spectrum | None] = []
    errors: list[str | None] = []
    for g in s.gens:
        mp = minimal_polynomial(g)
        degrees.append(mp.degree)
        try:
            spectra.append(split_roots(mp))
            errors.append(None)
        except NotSplit as exc:
            spectra.append(None)
            errors.append(str(exc))
    split = [i for i, spec in enumerate(spectra) if spec is not None]
    profiles = dict(zip(split, spectral.jordan_profiles([(s.gens[i], spectra[i]) for i in split])))
    out = []
    for i, g in enumerate(s.gens):
        profile = profiles.get(i)
        certs = find_rank_reduction(g, profile, 2) if profile is not None else {}
        out.append(GeneratorAnalysis(i, degrees[i], spectra[i], profile, errors[i], certs))
    return out


def bound_ledger(
    s: GeneratingSet, analyses: list[GeneratorAnalysis] | None = None
) -> BoundLedger:
    """One entry per known bound, with applicability decided from computed data.

    Jordan-dependent entries become "undecidable" (non-applicable, with a
    note) when the deciding generators' spectra do not split; everything
    that only needs minimal-polynomial degrees is always decided.
    """
    n = s.n
    if analyses is None:
        analyses = analyze_generators(s)
    m_s = max(a.degree for a in analyses)
    entries: list[BoundEntry] = []

    entries.append(
        BoundEntry("paz_general", paz_bound(n), True, "always applicable")
    )
    entries.append(
        BoundEntry("shitov_general", shitov_general_bound(n), True, "always applicable")
    )

    if all(a.degree <= 2 for a in analyses):
        note = "every generator has minimal polynomial degree <= 2"
        applicable = True
    else:
        note = f"a generator has minimal polynomial degree {m_s} > 2"
        applicable = False
    entries.append(BoundEntry("quadratic_minpoly", quadratic_minpoly_bound(n), applicable, note))

    def add_row(name, candidates, fallback, miss):
        """Row of the least (value, generator, note) candidate, else an inapplicable one."""
        if candidates:
            value, idx, note = min(candidates)
            entries.append(BoundEntry(name, value, True, f"generator {idx} {note}"))
        else:
            entries.append(BoundEntry(name, fallback, False, miss))

    for name, degree, text in (("nonderogatory", n, "n"), ("minpoly_degree_n_minus_1", n - 1, "n - 1")):
        note = f"has minimal polynomial degree {text}"
        hits = [(2 * n - 2, a.index, note) for a in analyses if a.degree == degree]
        add_row(name, hits, 2 * n - 2, f"no generator with minimal polynomial degree {text}")

    # The Jordan rows are undecidable while some generator's spectrum does not split.
    undecidable = None
    if any(a.spectrum is None for a in analyses):
        undecidable = "undecidable: some generator's spectrum does not split"
    split = [a for a in analyses if a.profile is not None]
    # Markova: a unique maximal Jordan block for some eigenvalue of some
    # generator gives 2n + deg - 3; pick the smallest resulting value.
    markova = [
        (2 * n + a.degree - 3, a.index, "has an eigenvalue with a unique maximal Jordan block")
        for a in split
        if unique_max_block(a.profile) is not None
    ]
    add_row(
        "markova_unique_max_block",
        markova,
        2 * n + m_s - 3,
        undecidable or "no generator has an eigenvalue with a unique maximal Jordan block",
    )
    deficiency = [
        (2 * n - 2 + k, a.index, f"has deficiency k={k} with 2k < n and per-eigenvalue slack")
        for a in split
        if (k := thm38_hypothesis(n, a.profile, a.degree)) is not None
    ]
    add_row(
        "minpoly_deficiency",
        deficiency,
        2 * n - 2 + max(n - m_s, 1),
        undecidable or "no generator satisfies the deficiency conditions",
    )
    if n % 2 == 0:
        value_39 = 5 * (n // 2) - 2
        double = [
            (value_39, a.index, "is similar to a shifted double Jordan block")
            for a in split
            if double_block_eigenvalue(a.profile, n) is not None
        ]
        add_row(
            "double_jordan_block",
            double,
            value_39,
            undecidable or "no generator similar to a double Jordan block of size n/2",
        )

    # The 3n-5 route needs rank-one span level m(S)-1 >= 2 after clamping,
    # which fails only at n = 2 (m = 2, level 1, true bound 2n-2 = 2 > 1).
    tk = t10_t11_hypothesis(n, m_s)
    if tk is not None and n >= 3:
        note = f"m(S) = {m_s} = t + k with t={tk[0]}, k={tk[1]}"
        above_half = True
    elif tk is not None:
        note = "degenerate at n = 2: the certificate sits at span level 1 and the bound does not apply"
        above_half = False
    else:
        note = f"m(S) = {m_s} <= n/2"
        above_half = False
    entries.append(BoundEntry("minpoly_above_half", 3 * n - 5, above_half, note))

    t12 = t12_hypothesis(n, m_s)
    entries.append(
        BoundEntry(
            "minpoly_window",
            (7 * n) // 2 - 4,
            t12,
            f"2t <= n <= 3t - 1 holds with t = m(S) = {m_s}"
            if t12
            else f"n = {n} outside [2m, 3m-1] for m(S) = {m_s}",
        )
    )

    entries.extend(_certificate_entries(s.n, analyses))
    return BoundLedger(entries=tuple(entries))


def _certificate_entries(n: int, analyses: list[GeneratorAnalysis]) -> list[BoundEntry]:
    """Per-generator bound entries derived from rank-reduction certificates."""
    entries: list[BoundEntry] = []
    for a in analyses:
        # A budget whose least certificate is a lower budget's repeats it.
        for cert in dict.fromkeys(a.certificates.values()):
            r, d = cert.achieved_rank, cert.degree
            note = f"generator {a.index} has a rank-{r} certificate of degree {d}"
            entries.append(
                BoundEntry(f"pappacena_r{r}_gen{a.index}", pappacena_bound(r, d, n), True, note)
            )
            if r == 1:
                entries.append(
                    BoundEntry(
                        f"shitov_rank1_gen{a.index}",
                        shitov_rank1_bound(max(d, 2), n),
                        True,
                        note + " (span level clamped to 2)" if d < 2 else note,
                    )
                )
    return entries
