"""Acceptance suite: quantitative gates, one printed PASS/FAIL line each.

Every gate is exact (zero tolerance); runtime expectations are asserted at
their stated limits. The per-criterion lines bypass pytest capture, so a
plain `pytest tests/test_acceptance.py -v` shows them.
"""

import json
import sys
import time
from itertools import product

import numpy as np

from matlen.certificates import bound_ledger, find_rank_reduction
from matlen.cli import main
from matlen.instances import (
    InstanceSpec,
    JordanSpec,
    _conjugated,
    _invertible_pair,
    build_instance_with_meta,
    derive_instance_spec,
    jordan_matrix,
    random_generating_set,
    random_jordan_spec,
)
from matlen.length import GeneratingSet, brute_force_length, compute_length
from matlen.linalg import Matrix, PrimeField, SpanBasis, rank
from matlen.spectral import jordan_profile, minimal_polynomial, split_roots
from reference import conjugate, divisor_poly, poly_eval

F101 = PrimeField(101)
MASTER_SEED = 20240811

# Certificates emitted while running criteria 3 and 4, re-checked by criterion 7.
EMITTED_CERTIFICATES: list[tuple[Matrix, object]] = []


def _gate(name: str, ok: bool, detail: str) -> None:
    # Written to the real stdout so the line shows up even under capture.
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", file=sys.__stdout__)
    assert ok, f"{name}: {detail}"


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence((MASTER_SEED,) + parts).generate_state(1, np.uint64)[0])


def profile_of(a: Matrix):
    return jordan_profile(a, split_roots(minimal_polynomial(a)))


def paz_ceiling(n: int) -> int:
    return -((n * n + 2) // -3)


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    total = 0
    for n, k in product((2, 3), (2, 3)):
        for i in range(100):
            gs = random_generating_set(n, F101, k, _seed(1, n, k, i))
            if compute_length(gs) != brute_force_length(gs, n * n):
                mismatches += 1
            total += 1
    elapsed = time.time() - t0
    _gate(
        "criterion 1 (oracle equivalence)",
        mismatches == 0 and elapsed < 30,
        f"{total} instances, {mismatches} mismatches, {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_2_paz_general_bound():
    t0 = time.time()
    violations = 0
    exceed_2n_minus_2 = []
    total = 0
    for n in range(2, 7):
        bound = paz_ceiling(n)
        for i in range(500):
            gs = random_generating_set(n, F101, 2, _seed(2, n, i))
            length = compute_length(gs).length
            total += 1
            if length > bound:
                violations += 1
            if length > 2 * n - 2:
                exceed_2n_minus_2.append((n, i, length))
    elapsed = time.time() - t0
    # The 2n-2 record is surfaced, not gated: any entry here is a flag.
    flag_note = f"2n-2 exceedances: {exceed_2n_minus_2 or 'none'}"
    _gate(
        "criterion 2 (Paz ceiling bound)",
        violations == 0 and elapsed < 180,
        f"{total} instances, {violations} violations, {flag_note}, {elapsed:.1f}s (limit 180s)",
    )


def test_criterion_3_above_half_families():
    t0 = time.time()
    bad_length = 0
    bad_certificate = 0
    seen_k: dict[int, set[int]] = {}
    for n in (4, 5, 6, 7):
        family = "T10" if n % 2 == 0 else "T11"
        admissible = set(range(1, n // 2 + 1)) if n % 2 == 0 else set(range(1, (n - 1) // 2 + 2))
        seen_k[n] = set()
        for i in range(200):
            spec = derive_instance_spec(family, n, 101, _seed(3, n), i)
            gs = build_instance_with_meta(spec).generating_set
            m = max(minimal_polynomial(g).degree for g in gs.gens)
            seen_k[n].add(m - n // 2)
            rep = compute_length(gs)
            if not (rep.is_generating and rep.length <= 3 * n - 5):
                bad_length += 1
            a = gs.gens[0]
            cert = find_rank_reduction(a, profile_of(a), 1).get(1)
            if cert is None or cert.achieved_rank != 1 or cert.degree > m - 1:
                bad_certificate += 1
            else:
                EMITTED_CERTIFICATES.append((a, cert))
        assert seen_k[n] == admissible, f"k coverage at n={n}: {seen_k[n]} != {admissible}"
    elapsed = time.time() - t0
    _gate(
        "criterion 3 (3n-5 families)",
        bad_length == 0 and bad_certificate == 0 and elapsed < 300,
        f"800 instances, {bad_length} length violations, {bad_certificate} certificate failures, "
        f"all admissible k covered, {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_4_window_families():
    t0 = time.time()
    bad_length = 0
    bad_subfamily = 0
    for n, t in ((4, 2), (6, 3), (7, 3), (8, 4)):
        bound = (7 * n) // 2 - 4
        for i in range(200):
            seed = _seed(4, n, t, i)
            rng = np.random.Generator(np.random.PCG64(seed))
            exact_pair = n == 2 * t and i % 2 == 0
            if exact_pair:
                lam = int(rng.integers(0, 101))
                jordan = JordanSpec(blocks=((lam, t), (lam, t)))
            else:
                jordan = random_jordan_spec(n, F101, rng, degree=t)
            spec = InstanceSpec(n=n, p=101, jordan=jordan, extra_gens=2, seed=seed, family="T12")
            gs = build_instance_with_meta(spec).generating_set
            rep = compute_length(gs)
            if not (rep.is_generating and rep.length <= bound):
                bad_length += 1
            if exact_pair:
                a = gs.gens[0]
                cert = find_rank_reduction(a, profile_of(a), 2).get(2)
                entry_ok = False
                if cert is not None and cert.degree == t - 1:
                    ledger = bound_ledger(gs)
                    entry = ledger.find(f"pappacena_r{cert.achieved_rank}_gen0")
                    entry_ok = (
                        entry is not None
                        and entry.applicable
                        and entry.bound_value == 3 * n + t - 4
                    )
                    EMITTED_CERTIFICATES.append((a, cert))
                if not entry_ok:
                    bad_subfamily += 1
    elapsed = time.time() - t0
    _gate(
        "criterion 4 (7n/2-4 window families)",
        bad_length == 0 and bad_subfamily == 0 and elapsed < 300,
        f"800 instances, {bad_length} length violations, {bad_subfamily} subfamily failures, "
        f"{elapsed:.1f}s (limit 300s)",
    )


def test_criterion_5_invariance_suite():
    rng = np.random.default_rng(_seed(5))

    def fresh_set(i):
        n = 2 + i % 3
        return random_generating_set(n, F101, 2, _seed(5, i)), n

    recombination_ok = shifts_ok = conjugation_ok = 0
    for i in range(100):
        gs, n = fresh_set(i)
        base = compute_length(gs)
        c = _invertible_pair(len(gs.gens), F101, rng)[0]
        gens = np.stack([g.entries for g in gs.gens])
        recombined = [Matrix(F101, np.tensordot(row, gens, axes=1)) for row in c.entries]
        if compute_length(GeneratingSet.of(recombined)) == base:
            recombination_ok += 1

    checked = 0
    attempt = 0
    while checked < 100:
        gs, n = fresh_set(1000 + attempt)
        attempt += 1
        basis = SpanBasis(F101, n * n)
        for g in gs.gens:
            basis.insert(g.vec())
        if basis.contains(Matrix.identity(F101, n).vec()):
            continue
        shifted = GeneratingSet.of(
            [Matrix(F101, g.entries + int(rng.integers(0, 101)) * np.eye(n, dtype=np.int64)) for g in gs.gens]
        )
        if compute_length(shifted) == compute_length(gs):
            shifts_ok += 1
        checked += 1

    for i in range(100):
        gs, n = fresh_set(2000 + i)
        p = _invertible_pair(n, F101, rng)[0]
        conjugated = GeneratingSet.of([conjugate(p, g) for g in gs.gens])
        if compute_length(conjugated) == compute_length(gs):
            conjugation_ok += 1

    _gate(
        "criterion 5 (invariance suite)",
        recombination_ok == 100 and shifts_ok == 100 and conjugation_ok == 100,
        f"recombination {recombination_ok}/100, shifts {shifts_ok}/100, conjugation {conjugation_ok}/100",
    )


def test_criterion_6_spectral_roundtrip():
    mismatched_profiles = 0
    mismatched_degrees = 0
    for n in range(3, 7):
        for i in range(200):
            rng = np.random.Generator(np.random.PCG64(_seed(6, n, i)))
            spec = random_jordan_spec(n, F101, rng)
            a = _conjugated(jordan_matrix(F101, spec), rng)
            mp = minimal_polynomial(a)
            profile = jordan_profile(a, split_roots(mp))
            if profile.blocks != spec.block_multisets():
                mismatched_profiles += 1
            if mp.degree != sum(sizes[0] for sizes in profile.blocks.values()):
                mismatched_degrees += 1
    _gate(
        "criterion 6 (spectral round-trip)",
        mismatched_profiles == 0 and mismatched_degrees == 0,
        f"800 instances, {mismatched_profiles} profile mismatches, {mismatched_degrees} degree mismatches",
    )


def test_criterion_7_certificate_soundness():
    pool = list(EMITTED_CERTIFICATES)
    if not pool:  # standalone run: generate a fresh batch
        for i in range(50):
            rng = np.random.Generator(np.random.PCG64(_seed(7, i)))
            spec = random_jordan_spec(5, F101, rng)
            a = _conjugated(jordan_matrix(F101, spec), rng)
            for r_max in (1, 2):
                cert = find_rank_reduction(a, profile_of(a), r_max).get(r_max)
                if cert is not None:
                    pool.append((a, cert))
    unsound = 0
    for a, cert in pool:
        rebuilt = poly_eval(divisor_poly(F101, cert.exponents), a)
        if rebuilt != cert.witness or rank(rebuilt) != cert.achieved_rank:
            unsound += 1
    _gate(
        "criterion 7 (certificate soundness)",
        len(pool) > 0 and unsound == 0,
        f"{len(pool)} certificates re-evaluated, {unsound} unsound",
    )


def test_criterion_8_report_determinism(tmp_path):
    args = [
        "fuzz",
        "--count",
        "10",
        "--family",
        "RANDOM,T10,T12",
        "--n",
        "4",
        "--seed",
        "2718",
    ]
    bodies = []
    for run in range(3):
        out = tmp_path / f"report_{run}.json"
        rc = main(args + ["--out", str(out)])
        assert rc == 0
        bodies.append(out.read_bytes())
    identical = bodies[0] == bodies[1] == bodies[2]
    parsed = json.loads(bodies[0])
    _gate(
        "criterion 8 (report determinism)",
        identical and parsed["summary"]["violation_count"] == 0,
        f"3 sequential runs, byte-identical: {identical}, "
        f"{parsed['summary']['instances']} instances",
    )
