"""Pairwise-parity evaluator, uniform-subset learner, Hadamard-basis learner."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadapt import (
    ContractViolation,
    OracleString,
    ValidationError,
    build_function,
    build_hadamard_algorithm,
    build_hadamard_instance,
    build_parity_algorithm,
    build_subset_algorithm,
    build_subset_state,
    decision_measurement,
    error_profile,
    hadamard_concept_class,
    recovery_success_probability,
    run_algorithm,
    subset_count,
    subset_outcome_distribution,
    worst_case_error,
)
from nonadapt import algorithms
from nonadapt.algorithms import NonadaptiveAlgorithm, parity_registers
from nonadapt.qstate import QueryState, fwht, parity

S = OracleString.from_string


class TestParityRegisters:
    def test_even(self):
        assert parity_registers(4) == ((1, 2), (3, 4))

    def test_odd_pads_with_reference_index(self):
        assert parity_registers(5) == ((1, 2), (3, 4), (5, 0))

    def test_single_variable(self):
        assert parity_registers(1) == ((1, 0),)


class TestParityAlgorithm:
    def test_query_count(self):
        for n in range(1, 9):
            alg = build_parity_algorithm(n)
            assert alg.k == math.ceil(n / 2)
            assert alg.n == n

    def test_two_bit_examples(self):
        alg = build_parity_algorithm(2)
        assert run_algorithm(alg, S("00")).get(0) == pytest.approx(1.0)
        assert run_algorithm(alg, S("01")).get(1) == pytest.approx(1.0)
        assert run_algorithm(alg, S("11")).get(0) == pytest.approx(1.0)

    def test_exhaustive_small(self):
        for n in (1, 2, 3, 4, 5):
            alg = build_parity_algorithm(n)
            for v in range(1 << n):
                x = OracleString.from_int(n, v)
                dist = run_algorithm(alg, x)
                want = bin(v).count("1") & 1
                assert dist.get(want, 0.0) == pytest.approx(1.0)

    def test_zero_worst_case_error(self):
        for n in (2, 3, 6):
            alg = build_parity_algorithm(n)
            meas = decision_measurement(alg)
            f = build_function("parity", n)
            assert worst_case_error(alg.psi, meas, f) <= 1e-9

    @pytest.mark.parametrize("n", [21, 30])
    def test_refuses_beyond_n20_before_building(self, monkeypatch, n):
        monkeypatch.setattr(algorithms, "parity_registers", None)  # any build attempt fails
        half = (n + 1) // 2
        with pytest.raises(ValidationError, match=f"2\\^{half} effects of 2\\^{half} entries"):
            build_parity_algorithm(n)

    def test_state_is_uniform_product(self):
        alg = build_parity_algorithm(4)
        amps = alg.psi.amplitudes
        assert len(amps) == 4
        for a in amps.values():
            assert a == pytest.approx(0.5)

    @pytest.mark.parametrize("alg", [build_parity_algorithm(7), build_hadamard_algorithm(3)],
                             ids=["parity7", "bv3"])
    def test_effects_share_the_state_keys(self, alg):
        # one key matrix, checked once, for the state and every Hadamard effect
        assert all(s.keys is alg.psi.keys for _, s in alg.meas.effects)


class TestSubsetState:
    def test_counts(self):
        assert subset_count(4, 0) == 1
        assert subset_count(4, 2) == 11
        assert subset_count(4, 4) == 16
        assert recovery_success_probability(4, 2) == pytest.approx(11 / 16)

    def test_small_state_support(self):
        psi = build_subset_state(2, 1)
        amps = psi.amplitudes
        a = 1 / math.sqrt(3)
        assert amps == pytest.approx({((0,), 0): a, ((1,), 0): a, ((2,), 0): a})

    def test_supports_are_padded_increasing_tuples(self):
        psi = build_subset_state(4, 3)
        assert len(psi.support()) == subset_count(4, 3) == 15
        for (t, _anc) in psi.support():
            nonzero = [i for i in t if i != 0]
            assert nonzero == sorted(set(nonzero))

    def test_k_zero_uses_unit_register(self):
        psi = build_subset_state(3, 0)
        assert psi.amplitudes == pytest.approx({((0,), 0): 1.0})

    def test_range_checks(self):
        with pytest.raises(ContractViolation):
            build_subset_state(3, 4)
        with pytest.raises(ContractViolation):
            build_subset_state(0, 0)


class TestSubsetDistribution:
    def test_recovery_examples(self):
        dist = subset_outcome_distribution(4, 3, S("0110"))
        assert dist[S("0110").to_int()] == pytest.approx(15 / 16)
        assert 1 - dist.sum() == pytest.approx(0.0, abs=1e-12)

    def test_full_budget_is_exact(self):
        for v in range(8):
            x = OracleString.from_int(3, v)
            dist = subset_outcome_distribution(3, 3, x)
            assert dist[x.to_int()] == pytest.approx(1.0)

    def test_single_variable(self):
        assert subset_outcome_distribution(1, 1, S("1"))[S("1").to_int()] == pytest.approx(1.0)

    def test_success_independent_of_input(self):
        for k in range(5):
            vals = {
                subset_outcome_distribution(4, k, OracleString.from_int(4, v))[
                    OracleString.from_int(4, v).to_int()
                ]
                for v in range(16)
            }
            assert max(vals) - min(vals) < 1e-12

    @staticmethod
    def direct_distribution(n, k, x):
        """The distribution with every overlap summed explicitly over the subsets."""
        masks = algorithms._subset_masks(n, k)
        amps = (1.0 - 2.0 * parity(x.to_int() & masks)) / math.sqrt(len(masks))
        signs = 1.0 - 2.0 * parity(np.arange(1 << n)[:, None] & masks[None, :])
        return np.abs(signs @ amps * 2.0 ** (-n / 2.0)) ** 2

    def test_fast_matches_direct(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 5, 8):
            for k in sorted(set([0, 1, n // 2, n])):
                v = int(rng.integers(0, 1 << n))
                x = OracleString.from_int(n, v)
                fast = subset_outcome_distribution(n, k, x)
                direct = self.direct_distribution(n, k, x)
                assert fast == pytest.approx(direct, abs=1e-9)

    def test_distribution_normalized(self):
        dist = subset_outcome_distribution(6, 2, S("101010"))
        assert dist.sum() == pytest.approx(1.0)
        assert all(p >= 0 for p in dist)

    def test_larger_instances(self):
        # closed form 2^-n * sum_{j<=k} C(n, j) holds at sizes past the POVM range
        for n, k in ((12, 3), (14, 2)):
            x = OracleString.from_int(n, 0b101)
            dist = subset_outcome_distribution(n, k, x)
            assert dist[x.to_int()] == pytest.approx(recovery_success_probability(n, k), abs=1e-9)

    def test_real_transform_matches_complex_reference(self):
        # the coefficients are real, so transforming them as complex numbers gives the same bits
        rng = np.random.default_rng(29)
        for n in range(1, 11):
            x = OracleString.from_int(n, int(rng.integers(0, 1 << n)))
            for k in range(n + 1):
                masks = algorithms._subset_masks(n, k)
                coeff = np.zeros(1 << n, dtype=complex)
                amp = complex(1.0 / math.sqrt(len(masks)))
                coeff[masks] = amp * (1.0 - 2.0 * parity(x.to_int() & masks))
                want = np.abs(fwht(coeff) * 2.0 ** (-n / 2.0)) ** 2
                assert np.array_equal(subset_outcome_distribution(n, k, x), want)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_outcomes_match_the_full_distribution(self, n):
        rng = np.random.default_rng(40 + n)
        for k in range(n + 1):
            x = OracleString.from_int(n, int(rng.integers(0, 1 << n)))
            full = subset_outcome_distribution(n, k, x)
            # every outcome up to n = 11; past it, 256 sampled ones and x itself
            ys = np.arange(1 << n)
            if n > 11:
                ys = [*rng.integers(0, 1 << n, 256).tolist(), x.to_int()]
            got = subset_outcome_distribution(n, k, x, ys)
            assert got.dtype == full.dtype and got.tobytes() == full[ys].tobytes()
        assert subset_outcome_distribution(n, 1, x, []).shape == (0,)

    def test_size_guards(self):
        # the full distribution enumerates 2^n masks; the outcomes path indexes 2^n as int64
        with pytest.raises(ValidationError, match="n <= 16 required"):
            subset_outcome_distribution(17, 2, OracleString.zeros(17))
        with pytest.raises(ValidationError, match="n <= 63 required"):
            subset_outcome_distribution(64, 2, OracleString.zeros(64), [])
        with pytest.raises(ContractViolation, match="0 <= k <= n"):
            subset_outcome_distribution(64, 65, OracleString.zeros(64), [])
        x = OracleString.from_int(63, (1 << 63) - 1)
        got = subset_outcome_distribution(63, 63, x, [x.to_int(), np.uint64(0)])
        assert got.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("bad", [[64], [-1], [3, 1.0], [True], ["3"], [None]])
    def test_outcomes_must_be_integers_in_range(self, bad):
        with pytest.raises(ContractViolation, match=r"integer index in \[0, 64\)"):
            subset_outcome_distribution(6, 2, S("101010"), bad)


class TestSubsetAlgorithm:
    def test_povm_matches_distribution(self):
        alg = build_subset_algorithm(3, 2)
        for v in range(8):
            x = OracleString.from_int(3, v)
            got = run_algorithm(alg, x)
            want = subset_outcome_distribution(3, 2, x)
            for y, p in enumerate(want):
                assert got.get(str(OracleString.from_int(3, y)), 0.0) == pytest.approx(p, abs=1e-9)
            assert got.get("fail", 0.0) == pytest.approx(1 - want.sum(), abs=1e-9)

    def test_requires_positive_budget(self):
        with pytest.raises(ContractViolation):
            build_subset_algorithm(3, 0)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_elements_match_per_outcome_outer_products(self, n):
        # the stacked build against one np.outer per outcome y, summed into "fail" in order
        for k in range(1, n + 1):
            alg = build_subset_algorithm(n, k)
            masks = np.array([sum(1 << (i - 1) for i in t if i) for t, _ in alg.meas.basis])
            d = len(masks)
            total = np.zeros((d, d), dtype=complex)
            want = []
            for y in range(1 << n):
                vec = 2.0 ** (-n / 2.0) * (1.0 - 2.0 * parity(y & masks))
                eff = np.outer(vec, vec.conj())
                total += eff
                want.append((str(OracleString.from_int(n, y)), eff))
            want.append(("fail", np.eye(d, dtype=complex) - total))
            assert [o for o, _ in alg.meas.elements] == [o for o, _ in want]
            for (_, got), (_, eff) in zip(alg.meas.elements, want):
                assert got.dtype == complex and got.tobytes() == eff.astype(complex).tobytes()


class TestHadamardLearner:
    def test_concept_class_shape(self):
        c = hadamard_concept_class(2)
        assert c.n == 3
        assert c.m == 4
        assert str(c.concepts[3]) == "110"  # bits are parities of s=3 against 1, 2, 3

    def test_zero_concept(self):
        assert str(hadamard_concept_class(2).concepts[0]) == "000"

    def test_single_query_certainty(self):
        for b in (1, 2, 3):
            concepts, alg = build_hadamard_instance(b)
            assert alg.k == 1
            for s, word in enumerate(concepts.concepts):
                dist = run_algorithm(alg, word)
                assert dist.get(s, 0.0) == pytest.approx(1.0)

    def test_b_range(self):
        with pytest.raises(ContractViolation):
            build_hadamard_algorithm(0)
        with pytest.raises(ContractViolation):
            build_hadamard_algorithm(5)

    def test_name_reflects_width(self):
        assert build_hadamard_algorithm(3).name == "subset-parity-3"


class TestAlgorithmContainer:
    def test_rejects_unnormalized_state(self):
        psi = QueryState(1, 1, {((1,), 0): 1.0, ((0,), 0): 1.0})
        meas = decision_measurement(build_parity_algorithm(1))
        with pytest.raises(ContractViolation):
            NonadaptiveAlgorithm("bad", psi, meas)

    def test_run_requires_matching_length(self):
        alg = build_parity_algorithm(3)
        with pytest.raises(ContractViolation):
            run_algorithm(alg, S("10"))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.data())
def test_subset_success_matches_closed_form(n, data):
    k = data.draw(st.integers(0, n))
    v = data.draw(st.integers(0, (1 << n) - 1))
    x = OracleString.from_int(n, v)
    dist = subset_outcome_distribution(n, k, x)
    assert dist[x.to_int()] == pytest.approx(recovery_success_probability(n, k), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.data())
def test_parity_profile_all_zero(n, data):
    del data
    alg = build_parity_algorithm(n)
    profile = error_profile(alg.psi, decision_measurement(alg), build_function("parity", n))
    assert profile.max() <= 1e-9
