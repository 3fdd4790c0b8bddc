"""Acceptance gate: one test per shipping criterion, each with a runtime budget.

Every test prints a single

    [acceptance] <criterion>: PASS|FAIL (<elapsed>, budget <limit>)

line outside pytest's capture, so the gate is readable straight off the
terminal even when the suite is green.
"""
import math
import time

import numpy as np
import pytest

from nonadapt import (
    ClassicalOracle,
    OracleString,
    TotalFunction,
    build_classical_plan,
    build_function,
    build_hadamard_instance,
    build_parity_algorithm,
    classical_learn,
    decision_measurement,
    discrimination_feasible,
    error_lower_bound,
    error_profile,
    hadamard_concept_class,
    helstrom_error,
    min_distinguishing_set,
    oracle_pair_overlap,
    position_to_tuple,
    query_lower_bound,
    query_weight,
    random_state,
    recovery_success_probability,
    run_algorithm,
    sample_index_set,
    simulate_tensor_query,
    subset_outcome_distribution,
    tensor_bit,
    weight_profile,
    worst_case_error,
)
from nonadapt.learning import AmplitudeProfile
from nonadapt.rng import stream
from tests.conftest import random_projective, random_two_outcome_povm


def verdict(capsys, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    return status == "PASS"


def test_parity_tightness(capsys):
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 11):
        alg = build_parity_algorithm(n)
        f = build_function("parity", n)
        wce = worst_case_error(alg.psi, decision_measurement(alg), f)
        if wce > 1e-9 or alg.k < n / 2:
            bad.append((n, wce, alg.k))
    elapsed = time.perf_counter() - t0
    assert verdict(capsys, "parity-tightness", not bad, elapsed, 10.0), bad


def test_counting_bound(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260813)
    bad = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 4))
        psi = random_state(rng, n, k)
        profile = weight_profile(psi)
        if profile.total > k + 1e-9:
            bad += 1
            continue
        j = int(rng.integers(1, n + 1))
        x = OracleString.from_int(n, int(rng.integers(0, 1 << n)))
        overlap = oracle_pair_overlap(psi, x, x.flip(j))
        if abs(overlap - (1.0 - 2.0 * query_weight(psi, j))) > 1e-12:
            bad += 1
    elapsed = time.perf_counter() - t0
    assert verdict(capsys, "counting-bound", bad == 0, elapsed, 30.0), bad


def test_helstrom_saturation(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    bad = 0
    for _ in range(1_000):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        psi = random_state(rng, n, k)
        xv, yv = rng.integers(0, 1 << n, size=2)
        x = OracleString.from_int(n, int(xv))
        y = OracleString.from_int(n, int(yv))
        c = abs(oracle_pair_overlap(psi, x, y))
        c = min(c, 1.0)
        eps_star = helstrom_error(c)
        if abs(4.0 * eps_star * (1.0 - eps_star) - c * c) > 1e-12:
            bad += 1
            continue
        if not discrimination_feasible(c * c, eps_star):
            bad += 1
            continue
        if eps_star > 1e-3 and discrimination_feasible(c * c, eps_star - 1e-3):
            bad += 1
    elapsed = time.perf_counter() - t0
    assert verdict(capsys, "helstrom-saturation", bad == 0, elapsed, 5.0), bad


def test_bound_soundness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    bad = 0
    for trial in range(1_000):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 4))
        psi = random_state(rng, n, k)
        if trial % 2:
            meas = random_two_outcome_povm(rng, psi)
        else:
            meas = random_projective(rng, psi)
        table = [int(b) for b in rng.integers(0, 2, size=1 << n)]
        if len(set(table)) == 1:
            table[0] ^= 1
        f = TotalFunction(n, tuple(table))
        wce = worst_case_error(psi, meas, f)
        if wce < error_lower_bound(psi, f) - 1e-9:
            bad += 1
            continue
        n_eff = len(f.relevant_variables())
        if k < query_lower_bound(n_eff, min(wce, 0.5)) - 1e-9:
            bad += 1
    elapsed = time.perf_counter() - t0
    assert verdict(capsys, "bound-soundness", bad == 0, elapsed, 60.0), bad


def test_subset_learner_closed_form(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    bad = []
    for n in range(1, 13):
        prev = -1.0
        for k in range(n + 1):
            x = OracleString.from_int(n, int(rng.integers(0, 1 << n)))
            sim = subset_outcome_distribution(n, k, x)[x.to_int()]
            closed = recovery_success_probability(n, k)
            if abs(sim - closed) > 1e-9 or sim < prev - 1e-12:
                bad.append((n, k, sim, closed))
            prev = sim
    elapsed = time.perf_counter() - t0
    assert verdict(capsys, "subset-learner-closed-form", not bad, elapsed, 60.0), bad


def test_one_query_learner_certainty(capsys):
    t0 = time.perf_counter()
    bad = []
    for b in (2, 3):
        concepts, alg = build_hadamard_instance(b)
        for s, x in enumerate(concepts.concepts):
            if run_algorithm(alg, x).get(s, 0.0) < 1.0 - 1e-9:
                bad.append(("success", b, s))
        # the greedy plan meets the information bound: b queries for 2^b concepts
        result = build_classical_plan(alg, concepts, eps=0.0)
        plan_size, exact_min = len(result.plan.base_queries), len(
            min_distinguishing_set(concepts)
        )
        if not plan_size == exact_min == b:
            bad.append(("plan-size", b, plan_size, exact_min))
        for idx, x in enumerate(concepts.concepts):
            if classical_learn(result.plan, ClassicalOracle(x)).concept_index != idx:
                bad.append(("decode", b, idx))
    elapsed = time.perf_counter() - t0
    assert verdict(capsys, "one-query-learner-certainty", not bad, elapsed, 10.0), bad


def test_extraction_failure_rate(capsys):
    t0 = time.perf_counter()
    eps, k_draws, trials = 0.1, 20, 1_000
    concepts = hadamard_concept_class(2)
    profile = AmplitudeProfile.uniform(concepts.n + 1)
    failures = sum(
        1
        for t in range(trials)
        if not sample_index_set(
            profile, concepts, k_draws, stream(2026, "extract-set", f"trial={t}")
        ).distinguishing
    )
    p_bound = concepts.m**2 * (0.5 + math.sqrt(eps * (1 - eps))) ** k_draws
    sigma = math.sqrt(p_bound * (1 - p_bound) / trials)
    ok = failures / trials <= p_bound + 3 * sigma
    elapsed = time.perf_counter() - t0
    assert verdict(capsys, "extraction-failure-rate", ok, elapsed, 5.0), failures


def test_tensor_query_consistency(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    bad = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        x = OracleString.from_int(n, int(rng.integers(0, 1 << n)))
        t = tuple(int(v) for v in rng.integers(0, n + 1, size=k))
        oracle = ClassicalOracle(x)
        if simulate_tensor_query(t, oracle) != tensor_bit(x, t):
            bad += 1
            continue
        if oracle.queries_made > k:
            bad += 1
            continue
        j = int(rng.integers(0, n + 1))
        embedded = position_to_tuple(j, n, k)
        if embedded != (j,) + (0,) * (k - 1) or tensor_bit(x, embedded) != x.bit(j):
            bad += 1
    elapsed = time.perf_counter() - t0
    assert verdict(capsys, "tensor-query-consistency", bad == 0, elapsed, 5.0), bad
