"""Query weights, overlap identities, discrimination bounds, error sweeps."""
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadapt import (
    ContractViolation,
    PovmMeasurement,
    ProjectiveMeasurement,
    TotalFunction,
    ValidationError,
    apply_oracle,
    bound_report,
    build_function,
    discrimination_feasible,
    error_lower_bound,
    error_profile,
    helstrom_error,
    measure,
    oracle_pair_overlap,
    query_lower_bound,
    query_weight,
    random_state,
    weight_profile,
    worst_case_error,
)
from nonadapt import bounds
from nonadapt.algorithms import (
    build_hadamard_instance, build_parity_algorithm, decision_measurement,
)
from nonadapt.qstate import QueryState, fwht, odd_masks, overlap_terms
from tests.conftest import (
    S, k1_state, random_projective, random_two_outcome_povm, real_orthonormal_family,
    reference_stack, reference_state_vector, uniform_k1, with_negative_zero_imag,
)


def pair_state():
    a = 1 / math.sqrt(2)
    return QueryState(2, 2, {((1, 1), 0): a, ((1, 2), 0): a})


class TestQueryWeight:
    def test_odd_multiplicity_counts(self):
        psi = pair_state()
        # (1,1) has variable 1 twice (even), (1,2) once (odd)
        assert query_weight(psi, 1) == pytest.approx(0.5)
        assert query_weight(psi, 2) == pytest.approx(0.5)

    def test_zero_index_never_a_variable(self):
        psi = QueryState(2, 2, {((0, 0), 0): 1.0})
        assert query_weight(psi, 1) == 0.0
        assert query_weight(psi, 2) == 0.0

    def test_range_check(self):
        with pytest.raises(ContractViolation):
            query_weight(pair_state(), 3)

    def test_profile_matches_pointwise(self):
        rng = np.random.default_rng(3)
        psi = random_state(rng, n=5, k=3)
        profile = weight_profile(psi)
        for j in range(1, 6):
            assert profile.weights[j - 1] == pytest.approx(query_weight(psi, j), abs=1e-12)
        assert profile.total == pytest.approx(sum(profile.weights))


class TestOraclePairOverlap:
    def test_equal_strings_identity(self):
        psi = pair_state()
        assert oracle_pair_overlap(psi, S("10"), S("10")) == pytest.approx(1.0)

    def test_single_flip_example(self):
        psi = pair_state()
        assert oracle_pair_overlap(psi, S("00"), S("01")) == pytest.approx(0.0)

    def test_all_phases_negative(self):
        psi = uniform_k1(4, [1, 2, 3, 4])
        assert oracle_pair_overlap(psi, S("0000"), S("1111")) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            oracle_pair_overlap(pair_state(), S("10"), S("001"))


class TestDiscriminationFeasible:
    def test_orthogonal_exact(self):
        assert discrimination_feasible(0.0, 0.0)

    def test_identical_states_infeasible(self):
        assert not discrimination_feasible(1.0, 0.25)

    def test_boundary(self):
        assert discrimination_feasible(0.36, 0.1)

    def test_range_checks(self):
        with pytest.raises(ContractViolation):
            discrimination_feasible(1.5, 0.1)
        with pytest.raises(ContractViolation):
            discrimination_feasible(0.5, 0.7)


class TestHelstromError:
    def test_endpoints(self):
        assert helstrom_error(0.0) == 0.0
        assert helstrom_error(1.0) == pytest.approx(0.5)

    def test_known_value(self):
        assert helstrom_error(0.6) == pytest.approx(0.1)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_saturates_the_bound(self, c):
        e = helstrom_error(c)
        assert 0.0 <= e <= 0.5
        assert 4.0 * e * (1.0 - e) == pytest.approx(c * c, abs=1e-12)


class TestErrorLowerBound:
    def test_balanced_weights_no_constraint(self):
        psi = pair_state()  # W_1 = W_2 = 0.5
        assert error_lower_bound(psi, build_function("parity", 2)) == pytest.approx(0.0)

    def test_invisible_variable_forces_half(self):
        psi = k1_state(2, {1: 1 / math.sqrt(2), 0: 1 / math.sqrt(2)})
        f = build_function("parity", 2)  # depends on variable 2, but W_2 = 0
        assert error_lower_bound(psi, f) == pytest.approx(0.5)

    def test_quarter_weight_value(self):
        psi = k1_state(1, {1: 0.5, 0: math.sqrt(0.75)})
        f = TotalFunction(1, (0, 1))
        expected = (1 - 2 * math.sqrt(0.1875)) / 2
        assert error_lower_bound(psi, f) == pytest.approx(expected)
        assert error_lower_bound(psi, f) == pytest.approx(helstrom_error(0.5))

    def test_constant_function_rejected(self):
        with pytest.raises(ValidationError):
            error_lower_bound(pair_state(), TotalFunction(2, (1, 1, 1, 1)))


class TestQueryLowerBound:
    def test_exact_case(self):
        assert query_lower_bound(4, 0.0) == pytest.approx(2.0)

    def test_vacuous_at_half(self):
        assert query_lower_bound(10, 0.5) == pytest.approx(0.0)

    def test_intermediate(self):
        assert query_lower_bound(6, 0.1) == pytest.approx(1.2)

    def test_range_checks(self):
        with pytest.raises(ContractViolation):
            query_lower_bound(0, 0.1)
        with pytest.raises(ContractViolation):
            query_lower_bound(4, 0.6)


def slow_error_profile(psi, meas, f):
    """Independent per-input sweep through apply_oracle + measure."""
    out = []
    for x in range(1 << f.n):
        probs = measure(apply_oracle(psi, x), meas)
        p1 = probs.get(1, 0.0)
        out.append(1.0 - p1 if f.value(x) == 1 else p1)
    return np.array(out)


class TestErrorProfile:
    def test_identity_povm_errs_on_ones(self):
        psi = uniform_k1(2, [0, 1, 2])
        basis = tuple(sorted(psi.support()))
        eye = np.eye(3)
        meas = PovmMeasurement(
            n=2, k=1, basis=basis,
            elements=((0, eye), (1, np.zeros((3, 3)))),
        )
        f = build_function("or", 2)
        profile = error_profile(psi, meas, f)
        assert profile[0] == pytest.approx(0.0)
        assert profile[1:] == pytest.approx(np.ones(3))
        assert worst_case_error(psi, meas, f) == pytest.approx(1.0)

    # Each sweep test runs at the default chunk size and at the smallest chunk.
    # The loop sits inside the test rather than in a parametrize mark, so the
    # test ids stay as they were.
    def test_matches_slow_sweep_projective(self, monkeypatch):
        for cells in (bounds.SWEEP_CELLS, 1):
            monkeypatch.setattr(bounds, "SWEEP_CELLS", cells)
            rng = np.random.default_rng(17)
            for _ in range(25):
                n = int(rng.integers(1, 5))
                k = int(rng.integers(1, 4))
                psi = random_state(rng, n, k)
                meas = random_projective(rng, psi)
                table = tuple(int(b) for b in rng.integers(0, 2, size=1 << n))
                f = TotalFunction(n, table)
                fast = error_profile(psi, meas, f)
                slow = slow_error_profile(psi, meas, f)
                assert fast == pytest.approx(slow, abs=1e-12)

    def test_matches_slow_sweep_povm(self, monkeypatch):
        profiles = []
        for cells in (bounds.SWEEP_CELLS, 1):
            monkeypatch.setattr(bounds, "SWEEP_CELLS", cells)
            rng = np.random.default_rng(23)
            for _ in range(15):
                n = int(rng.integers(1, 5))
                k = int(rng.integers(1, 3))
                psi = random_state(rng, n, k)
                meas = random_two_outcome_povm(rng, psi)
                table = tuple(int(b) for b in rng.integers(0, 2, size=1 << n))
                f = TotalFunction(n, table)
                fast = error_profile(psi, meas, f)
                slow = slow_error_profile(psi, meas, f)
                assert fast == pytest.approx(slow, abs=1e-9)
                profiles.append(fast)
        # the chunk size must not change a single bit of the POVM sweep
        for whole, chunked in zip(profiles[:15], profiles[15:]):
            assert np.array_equal(whole, chunked)

    def test_povm_sweep_bit_identical_across_chunk_sizes(self, monkeypatch):
        # small supports: an einsum here changed entries by ~1e-17 with the chunk size
        rng = np.random.default_rng(29)
        for _ in range(40):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            psi = random_state(rng, n, k, support_size=int(rng.integers(1, 6)))
            meas = random_two_outcome_povm(rng, psi)
            f = TotalFunction(n, tuple(int(b) for b in rng.integers(0, 2, size=1 << n)))
            monkeypatch.setattr(bounds, "SWEEP_CELLS", 1 << 18)
            whole = error_profile(psi, meas, f)
            for rows in (2, 4, 8, 16, 32):
                monkeypatch.setattr(bounds, "SWEEP_CELLS", rows * len(meas.basis_keys))
                assert np.array_equal(error_profile(psi, meas, f), whole)

    def test_projective_sweep_bit_identical_across_chunk_sizes(self, monkeypatch):
        # the first row block is scattered by np.bincount, later ones by np.add.at
        rng = np.random.default_rng(31)
        for _ in range(40):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            psi = random_state(rng, n, k, support_size=int(rng.integers(1, 7)))
            meas = random_projective(rng, psi)
            f = TotalFunction(n, tuple(int(b) for b in rng.integers(0, 2, size=1 << n)))
            monkeypatch.setattr(bounds, "SWEEP_CELLS", 1 << 18)
            whole = error_profile(psi, meas, f)
            for rows in (2, 4, 8, 16, 32):
                monkeypatch.setattr(bounds, "SWEEP_CELLS", rows * len(meas.basis_keys))
                assert np.array_equal(error_profile(psi, meas, f), whole)

    def test_chunking_leaves_parity_profile_bit_identical(self, monkeypatch):
        alg = build_parity_algorithm(10)
        args = (alg.psi, decision_measurement(alg), build_function("parity", 10))
        whole = error_profile(*args)  # d = 32, so the default is one chunk
        monkeypatch.setattr(bounds, "SWEEP_CELLS", 1)  # two inputs per chunk
        assert np.array_equal(error_profile(*args), whole)

    def test_label_check(self):
        psi = uniform_k1(1, [0, 1])
        meas = random_projective(np.random.default_rng(1), psi, binary_labels=False)
        meas = meas.relabel(lambda c: f"out{c}")
        with pytest.raises(ContractViolation):
            error_profile(psi, meas, TotalFunction(1, (0, 1)))

    def test_dimension_mismatch(self):
        psi = uniform_k1(2, [0, 1])
        meas = random_projective(np.random.default_rng(1), psi)
        with pytest.raises(ContractViolation):
            error_profile(psi, meas, TotalFunction(3, (0,) * 8))

    def test_shares_measure_checks(self):
        # error_profile and measure refuse a bad state or measurement with one message
        psi = uniform_k1(2, [1, 2])
        meas = random_projective(np.random.default_rng(3), psi)
        narrow = ProjectiveMeasurement(((0, k1_state(2, {1: 1.0})),))
        f = TotalFunction(2, (0, 1, 1, 0))
        for state, m in ((psi, [meas]), (k1_state(2, {1: 0.5}), meas),
                         (QueryState(2, 2, {((1, 1), 0): 1.0}), meas), (psi, narrow)):
            with pytest.raises(ContractViolation) as via_measure:
                measure(state, m)
            with pytest.raises(ContractViolation) as via_profile:
                error_profile(state, m, f)
            assert str(via_profile.value) == str(via_measure.value)

    def test_nan_fails_the_completeness_check(self):
        psi = uniform_k1(2, [1, 2])
        meas = random_projective(np.random.default_rng(5), psi)
        object.__setattr__(meas, "V", np.full_like(meas.V, math.nan))
        with pytest.raises(ContractViolation, match="not complete on the state's oracle orbit"):
            error_profile(psi, meas, TotalFunction(2, (0, 1, 1, 0)))


def distinct_masks(meas):
    return len(set(odd_masks(meas.basis_keys[:, :-1]).tolist()))


def random_table(rng, n):
    return TotalFunction(n, tuple(int(b) for b in rng.integers(0, 2, size=1 << n)))


class TestMaskCompression:
    """Basis entries sharing an odd mask are folded together before the sweep, so u < d."""

    def test_hand_built_shared_masks(self):
        # (i, i) and (0, 0) share mask 0, (i, 0) and (0, i) a 0-padded mask, and a
        # tuple's two ancilla labels its mask: 10 entries on 4 masks
        keys = [((1, 1), 0), ((0, 0), 1), ((2, 2), 1), ((1, 0), 0), ((0, 1), 1),
                ((1, 2), 0), ((1, 2), 1), ((2, 1), 1), ((3, 0), 0), ((0, 3), 0)]
        rng = np.random.default_rng(41)
        amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        psi = QueryState(3, 2, dict(zip(keys, amps.tolist())), ancilla_dim=2).normalized()
        f = TotalFunction(3, (0, 1, 1, 0, 1, 0, 0, 1))
        for meas, tol in ((random_projective(rng, psi), 1e-12),
                          (random_two_outcome_povm(rng, psi), 1e-9)):
            assert distinct_masks(meas) == 4 and len(meas.basis_keys) == 10
            assert error_profile(psi, meas, f) == pytest.approx(
                slow_error_profile(psi, meas, f), abs=tol)

    def test_random_shared_masks_match_slow_sweep(self, monkeypatch):
        rng = np.random.default_rng(43)
        compressed = 0
        for i in range(30):
            n, k, anc = int(rng.integers(1, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 3))
            psi = random_state(rng, n, k, anc, support_size=int(rng.integers(2, 20)))
            povm = i % 2 == 1
            meas = random_two_outcome_povm(rng, psi) if povm else random_projective(rng, psi)
            compressed += distinct_masks(meas) < len(meas.basis_keys)
            f = random_table(rng, n)
            monkeypatch.setattr(bounds, "SWEEP_CELLS", 1 << 18)
            whole = error_profile(psi, meas, f)
            assert whole == pytest.approx(
                slow_error_profile(psi, meas, f), abs=1e-9 if povm else 1e-12)
            monkeypatch.setattr(bounds, "SWEEP_CELLS", 1)  # one Gram row per block
            assert np.array_equal(error_profile(psi, meas, f), whole)
        assert compressed >= 25

    def test_incomplete_measurement_still_refused(self):
        rng = np.random.default_rng(47)
        psi = random_state(rng, 2, 3, 2, support_size=12)
        meas = ProjectiveMeasurement(random_projective(rng, psi).effects[:-1])
        assert distinct_masks(meas) < len(meas.basis_keys)
        f = random_table(rng, 2)
        with pytest.raises(ContractViolation, match="not complete"):
            error_profile(psi, meas, f)
        with pytest.raises(ContractViolation, match="not complete"):
            slow_error_profile(psi, meas, f)

    def test_parity_16_profile_is_exactly_zero(self):
        # amplitudes are powers of two at even n, so every Gram, scatter and transform step is exact
        alg = build_parity_algorithm(16)
        profile = error_profile(alg.psi, decision_measurement(alg), build_function("parity", 16))
        assert profile.shape == (1 << 16,) and not profile.any()


def reference_error_profile(psi, meas, f):
    """error_profile's projective sweep on the complex stack, in one Gram block.

    Both parts of every folded overlap are formed and sliced together, so K
    is their row count, the imaginary half's all-zero rows included.
    """
    keys, V = reference_stack(meas)
    v0 = reference_state_vector(psi, keys)
    raw = odd_masks(keys[:, :-1])
    order = np.argsort(raw, kind="stable")
    starts = np.flatnonzero(np.diff(raw[order], prepend=-1))
    masks = raw[order[starts]]
    re, im = (np.add.reduceat(w[:, order], starts, axis=1) for w in overlap_terms(V, v0))
    ones = np.array([label == 1 for label, _ in meas.effects], dtype=bool)
    halves = (np.concatenate([re[s], im[s]]) for s in (ones, ~ones))
    g1, g0 = (bounds._gram_rows(bounds._exact_slices(z, len(z)), slice(None)) for z in halves)
    at = (masks[:, None] ^ masks[None, :]).ravel()
    h = [np.bincount(at, weights=g.ravel(), minlength=1 << f.n) for g in (g1, g1 + g0)]
    p1, _ = fwht(np.stack(h))
    return np.where(f.table == 1, 1.0 - p1, p1)


def assert_profile_matches_reference(psi, meas, f):
    got = error_profile(psi, meas, f)
    assert got.tobytes() == reference_error_profile(psi, meas, f).tobytes()
    return got


class TestRealSweep:
    """A float64 family on a real state forms only the real half of its overlaps: the same bits."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_parity_profile_matches_the_complex_stack(self, n):
        alg = build_parity_algorithm(n)
        meas, f = decision_measurement(alg), build_function("parity", n)
        assert meas.V.dtype == np.float64
        assert np.max(assert_profile_matches_reference(alg.psi, meas, f)) <= 1e-15
        rng = np.random.default_rng(n)
        shifted = apply_oracle(alg.psi, int(rng.integers(1 << n)))
        assert_profile_matches_reference(shifted, meas, random_table(rng, n))

    @pytest.mark.parametrize("b", range(1, 5))
    def test_bv_profile_matches_the_complex_stack(self, b):
        concepts, alg = build_hadamard_instance(b)
        rng = np.random.default_rng(b)
        n = concepts.n
        for fn in (lambda s: s & 1, lambda s: int(s == 1 % (1 << b))):
            meas = alg.meas.relabel(fn)
            assert meas.V.dtype == np.float64
            assert_profile_matches_reference(alg.psi, meas, random_table(rng, n))
            assert_profile_matches_reference(alg.psi, meas, build_function("parity", n))

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "copied"])
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_real_families_match_the_complex_stack(self, seed, shared):
        rng = np.random.default_rng(300 + seed)
        n, k, anc = int(rng.integers(1, 6)), int(rng.integers(1, 4)), 1 + seed % 2
        keys = random_state(rng, n, k, anc, support_size=int(rng.integers(1, 40))).keys
        psi = QueryState.from_arrays(n, k, keys, rng.normal(size=len(keys)), anc).normalized()
        meas = real_orthonormal_family(rng, psi, shared)
        assert meas.V.dtype == np.float64
        for f in (random_table(rng, n), build_function("parity", n)):
            assert_profile_matches_reference(psi, meas, f)

    def test_negative_zero_imaginary_parts(self):
        # the family and the state read as real; the exact zeros of the profile keep their sign
        alg = build_parity_algorithm(8)
        meas = ProjectiveMeasurement(tuple(
            (o, with_negative_zero_imag(s)) for o, s in decision_measurement(alg).effects))
        psi, f = with_negative_zero_imag(alg.psi), build_function("parity", 8)
        assert meas.V.dtype == np.float64
        for state in (psi, alg.psi):
            profile = assert_profile_matches_reference(state, meas, f)
            assert not profile.any() and not np.signbit(profile).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_complex_state_on_a_real_family(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 5))
        psi = random_state(rng, n, 2, support_size=12)
        meas = real_orthonormal_family(rng, psi, shared=bool(seed % 2))
        assert meas.V.dtype == np.float64 and psi.amps.imag.any()
        assert_profile_matches_reference(psi, meas, random_table(rng, n))


# Sweeps projective instances large enough for BLAS to thread its products, at two
# block sizes, and prints the profiles' bytes as hex.  The bases are Fourier bases
# with random phases, orthonormal without LAPACK, so every thread count builds the
# same measurement.
THREADED_SWEEP = """
import json, numpy as np
from nonadapt import ProjectiveMeasurement, QueryState, TotalFunction, bounds, random_state
rng = np.random.default_rng(59)
profiles = []
for n, k, d in ((7, 3, 150), (9, 3, 300)):
    psi = random_state(rng, n, k, support_size=d)
    phases = np.exp(2j * np.pi * rng.uniform(size=d))
    V = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d) * phases
    meas = ProjectiveMeasurement(tuple(
        (int(label), QueryState.from_arrays(n, k, psi.keys, row))
        for label, row in zip(rng.integers(0, 2, size=d), V)))
    f = TotalFunction(n, tuple(int(b) for b in rng.integers(0, 2, size=1 << n)))
    for cells in (1 << 18, 3 * d):
        bounds.SWEEP_CELLS = cells
        profiles.append(bounds.error_profile(psi, meas, f).tobytes().hex())
print(json.dumps(profiles))
"""


def slices_keeping_zero_rows(z):
    """_exact_slices without dropping all-zero rows: the reference for its Gram."""
    bits = (len(z) - 1).bit_length()
    beta = (53 - bits) // 2
    e = int(np.frexp(np.max(np.abs(z), initial=0.0))[1])
    parts = []
    for j in range(1, -(-(53 + bits) // beta) + 1):
        scale = math.ldexp(1.0, j * beta - e)
        parts.append(np.rint(z * scale) / scale)
        z = z - parts[-1]
    return parts


class TestGramSlices:
    @pytest.mark.parametrize("rows", [128, 129, 200])
    def test_zero_rows_change_no_gram_bit(self, rows):
        # 128 and 129 rows fall on either side of a beta boundary, and at most 100 rows are
        # nonzero: a K counted after the drop would pick another beta at 129 and 200 rows
        rng = np.random.default_rng(rows)
        z = np.zeros((rows, 24))
        nonzero = rng.permutation(rows)[: min(100, rows - 28)]
        z[nonzero] = rng.normal(size=(len(nonzero), 24)) * 2.0 ** rng.integers(-30, 3, size=24)
        z[rng.permutation(np.setdiff1d(np.arange(rows), nonzero))[:5]] = -0.0
        parts = bounds._exact_slices(z, rows)
        assert all(len(p) == len(nonzero) for p in parts)
        for cols in (slice(None), slice(5, 11)):
            want = bounds._gram_rows(slices_keeping_zero_rows(z), cols)
            assert np.array_equal(bounds._gram_rows(parts, cols), want)

    @pytest.mark.parametrize("seed", range(4))
    def test_all_zero_slices_change_no_gram_bit(self, seed):
        # coarse dyadic values plus a tail 2^-55 below them: the middle slice is all zero
        rng = np.random.default_rng(seed)
        z = rng.integers(-8, 9, size=(8, 6)) / 8.0
        z[:, ::2] += rng.normal(size=(8, 3)) * 2.0 ** -55
        z[3] = -0.0
        parts = bounds._exact_slices(z, len(z))
        assert [bool(p.any()) for p in parts] == [True, False, True]
        for cols in (slice(None), slice(1, 4)):
            want = 0.0
            for i, left in enumerate(parts):  # every product above the tail, zero slices too
                for right in parts[: len(parts) - i]:
                    want = want + left[:, cols].T @ right
            got = bounds._gram_rows(parts, cols)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_all_zero_matrix_gives_a_zero_gram(self):
        parts = bounds._exact_slices(np.zeros((6, 4)), 6)
        gram = bounds._gram_rows(parts, slice(None))
        assert all(p.shape == (0, 4) for p in parts) and np.array_equal(gram, np.zeros((4, 4)))

    def test_projective_sweep_within_a_few_roundings(self):
        # one slice fewer than the exact-product count leaves errors near 3e-14 here
        rng = np.random.default_rng(53)
        for _ in range(20):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            psi = random_state(rng, n, k, support_size=int(rng.integers(20, 48)))
            meas = random_projective(rng, psi)
            f = random_table(rng, n)
            fast, slow = error_profile(psi, meas, f), slow_error_profile(psi, meas, f)
            assert fast == pytest.approx(slow, abs=2e-15)

    def test_sweep_independent_of_blas_threads_and_blocks(self):
        src = Path(__file__).resolve().parent.parent / "src"
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
            proc = subprocess.run([sys.executable, "-c", THREADED_SWEEP], env=env,
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout))
        assert runs[0] == runs[1]
        assert runs[0][0] == runs[0][1] and runs[0][2] == runs[0][3]


# Loads the instances pickled by the test below and prints, for each, the projective
# and POVM error profiles as hex and the POVM outcome probabilities; then the parity
# sweeps for n = 3..8 (real, so no imaginary half is formed), the transform
# of the pickled matrix, as hex, and the subset learner's POVM outcomes at n = 3, k = 2
# on all eight inputs.
CPU_SWEEP = """
import json, pickle, sys
from nonadapt import (PovmMeasurement, ProjectiveMeasurement, QueryState, TotalFunction,
                      build_function, error_profile, measure)
from nonadapt.algorithms import (build_parity_algorithm, build_subset_algorithm,
                                 decision_measurement, run_algorithm)
from nonadapt.qstate import fwht, key_tuples
out = []
with open(sys.argv[1], "rb") as fh:
    instances, matrix = pickle.load(fh)
for n, k, keys, amps, q, labels, elements, table in instances:
    psi = QueryState.from_arrays(n, k, keys, amps)
    f = TotalFunction(n, table)
    proj = ProjectiveMeasurement(tuple(
        (label, QueryState.from_arrays(n, k, keys, q[:, c])) for c, label in enumerate(labels)))
    povm = PovmMeasurement(n, k, tuple(key_tuples(keys)), tuple(zip(labels, elements)))
    out += [error_profile(psi, m, f).tobytes().hex() for m in (proj, povm)]
    out.append(repr(sorted(measure(psi, povm).items())))
for n in range(3, 9):
    alg = build_parity_algorithm(n)
    f = build_function("parity", n)
    out.append(error_profile(alg.psi, decision_measurement(alg), f).tobytes().hex())
out.append(fwht(matrix).tobytes().hex())
alg = build_subset_algorithm(3, 2)
out.append(repr([sorted(run_algorithm(alg, y).items()) for y in range(8)]))
print(json.dumps(out))
"""


def test_sweep_and_povm_measure_independent_of_cpu_features(tmp_path):
    """Sweeps, POVM outcomes and fwht keep their bits with and without numpy's SIMD loops."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    simd = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    if not simd:
        pytest.skip("numpy dispatches no SIMD extension on this CPU")
    rng = np.random.default_rng(61)
    instances = []
    for i in range(12):
        n, k = 3 + i % 6, 1 + i % 2
        psi = random_state(rng, n, k, support_size=12)
        d = len(psi.keys)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        labels = [int(b) for b in rng.integers(0, 2, size=d)]
        elements = [np.outer(q[:, c], q[:, c].conj()) for c in range(d)]
        table = tuple(int(b) for b in rng.integers(0, 2, size=1 << n))
        instances.append((n, k, psi.keys, psi.amps, q, labels, elements, table))
    matrix = rng.normal(size=(2, 1 << 12)) * 2.0 ** rng.integers(-20, 20, size=(2, 1 << 12))
    (tmp_path / "instances.pkl").write_bytes(pickle.dumps((instances, matrix)))
    src = Path(__file__).resolve().parent.parent / "src"
    runs = []
    for disabled in ("", " ".join(simd)):
        env = dict(os.environ, PYTHONPATH=str(src), NPY_DISABLE_CPU_FEATURES=disabled)
        proc = subprocess.run([sys.executable, "-c", CPU_SWEEP, str(tmp_path / "instances.pkl")],
                              env=env, capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]) == 44 and runs[0] == runs[1]


class TestBoundReport:
    def test_schema_without_measurement(self):
        rep = bound_report(pair_state(), build_function("parity", 2))
        assert set(rep) == {"n", "n_eff", "k", "weights", "eps_lower_bound", "theorem1_rhs", "pass"}
        assert rep["n"] == 2 and rep["n_eff"] == 2 and rep["k"] == 2
        assert rep["weights"] == pytest.approx([0.5, 0.5])
        assert rep["eps_lower_bound"] == pytest.approx(0.0)
        assert rep["theorem1_rhs"] == pytest.approx(1.0)
        assert rep["pass"] is True

    def test_schema_with_measurement(self):
        rng = np.random.default_rng(7)
        psi = random_state(rng, 3, 2)
        meas = random_projective(rng, psi)
        rep = bound_report(psi, build_function("majority", 3), meas)
        assert "worst_case_error" in rep
        assert rep["theorem1_rhs"] <= rep["k"] + 1e-9
        assert rep["pass"] is True

    def test_effective_variable_count(self):
        f = TotalFunction(2, (0, 0, 1, 1))  # only variable 2 matters
        rep = bound_report(uniform_k1(2, [0, 2]), f)
        assert rep["n_eff"] == 1

    def test_constant_function_rejected(self):
        with pytest.raises(ValidationError):
            bound_report(pair_state(), TotalFunction(2, (0, 0, 0, 0)))

    def test_refusals_keep_their_order(self):
        # a constant function is refused before an n mismatch is
        with pytest.raises(ValidationError, match="function is constant: nothing to bound"):
            bound_report(pair_state(), TotalFunction(3, (0,) * 8))
        with pytest.raises(ContractViolation, match="state has n=2, function has n=3"):
            bound_report(pair_state(), build_function("parity", 3))


@st.composite
def random_state_case(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    j = draw(st.integers(1, n))
    xv = draw(st.integers(0, (1 << n) - 1))
    psi = random_state(np.random.default_rng(seed), n, k)
    return psi, j, xv


@settings(max_examples=200, deadline=None)
@given(random_state_case())
def test_counting_inequality(case):
    psi, _, _ = case
    assert weight_profile(psi).total <= psi.k + 1e-9


@settings(max_examples=200, deadline=None)
@given(random_state_case())
def test_overlap_equals_one_minus_two_weight(case):
    psi, j, x = case
    overlap = oracle_pair_overlap(psi, x, x ^ 1 << (j - 1))
    assert overlap == pytest.approx(1.0 - 2.0 * query_weight(psi, j), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_soundness_per_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    psi = random_state(rng, n, k)
    meas = random_projective(rng, psi)
    table = tuple(int(b) for b in rng.integers(0, 2, size=1 << n))
    if len(set(table)) == 1:
        table = table[:-1] + (1 - table[-1],)
    f = TotalFunction(n, table)
    wce = worst_case_error(psi, meas, f)
    assert wce >= error_lower_bound(psi, f) - 1e-9
    n_eff = len(f.relevant_variables())
    assert psi.k >= query_lower_bound(n_eff, min(wce, 0.5)) - 1e-9
