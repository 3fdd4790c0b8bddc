"""Concept classes, tensor-power reductions, and the classical query plan."""
import functools
import json
import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nonadapt import (
    AmplitudeProfile,
    BoundViolation,
    ClassicalOracle,
    ConceptClass,
    ContractViolation,
    InputOutsideClass,
    OracleString,
    ParseError,
    QueryState,
    ValidationError,
    amplitude_profile,
    build_classical_plan,
    build_hadamard_instance,
    build_subset_state,
    check_pairwise_overlaps,
    classical_learn,
    classical_query_bound,
    full_concept_class,
    hadamard_concept_class,
    helstrom_error,
    is_distinguishing,
    load_concept_class,
    load_plan,
    make_plan,
    min_distinguishing_set,
    plan_from_dict,
    plan_to_dict,
    position_to_tuple,
    sample_index_set,
    save_concept_class,
    save_plan,
    simulate_tensor_query,
    tensor_bit,
    tensor_power_class,
    tuple_to_position,
)
from nonadapt import learning
from nonadapt.qstate import encode_bits, odd_mask, parity, random_state
from nonadapt.rng import stream

S = OracleString.from_string


def concept_class(n, words):
    return ConceptClass(n, tuple(S(w).bits for w in words))


THREE = concept_class(3, ("000", "011", "101"))


class TestConceptClass:
    def test_lookup(self):
        assert THREE.m == 3
        assert THREE.index_of(S("011")) == 1

    def test_unknown_concept(self):
        with pytest.raises(InputOutsideClass):
            THREE.index_of(S("111"))

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            concept_class(2, ("00", "00"))

    def test_word_length_checked(self):
        with pytest.raises(ValidationError):
            ConceptClass(2, (S("00").bits, S("010").bits))
        with pytest.raises(ValidationError):
            ConceptClass(0, ((),))

    def test_entries_must_be_bits(self):
        with pytest.raises(ValidationError):
            ConceptClass(2, ((0, 2), (1, 1)))

    @pytest.mark.parametrize("entry", [0.5, 0.999])
    def test_fractional_entries_refused(self, entry):
        with pytest.raises(ValidationError, match="concept entries must be 0 or 1"):
            ConceptClass(1, [[entry], [1]])

    def test_bool_matrix_loads(self):
        c = ConceptClass(2, np.array([[False, True], [True, True]]))
        assert c.bits.dtype == np.uint8
        assert c.bits.tolist() == [[0, 1], [1, 1]]

    def test_bits_matrix(self):
        assert THREE.bits.dtype == np.uint8
        assert THREE.bits.tolist() == [[0, 0, 0], [0, 1, 1], [1, 0, 1]]
        with pytest.raises(ValueError):
            THREE.bits[0, 0] = 1
        assert THREE == ConceptClass(3, THREE.bits.copy())
        assert THREE != ConceptClass(3, THREE.bits[::-1])
        assert THREE.concepts == (S("000"), S("011"), S("101"))

    def test_full_class(self):
        c = full_concept_class(3)
        assert c.m == 8
        assert str(c.concepts[5]) == "101"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "concepts.txt"
        save_concept_class(THREE, path)
        assert path.read_text() == "3 3\n000\n011\n101\n"
        assert load_concept_class(path) == THREE

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n000\n")
        with pytest.raises(ParseError, match="concept lines"):
            load_concept_class(path)

    def test_bad_word(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0x0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_concept_class(path)

    @pytest.mark.parametrize("last", ["00000000000x", "0000000000001", "00000000000", "", "é" * 12])
    def test_only_bad_line_is_the_last_of_4096(self, tmp_path, last):
        words = encode_bits(full_concept_class(12).bits)
        path = tmp_path / "big.txt"
        path.write_text("12 4096\n" + "".join(w + "\n" for w in [*words[:-1], last]))
        with pytest.raises(ParseError, match=r"big.txt: line 4097: expected 12 characters of 0/1$"):
            load_concept_class(path)
        path.write_text("12 4096\n" + "".join(w + "\n" for w in words))
        assert load_concept_class(path) == full_concept_class(12)

    def test_header_m_below_zero_reads_no_concept(self, tmp_path):
        path = tmp_path / "neg.txt"
        for m in (-1, -2):  # slicing by m = -2 would read the truncated class {01, 10}
            path.write_text(f"2 {m}\n01\n10\n11\n")
            with pytest.raises(ParseError, match=f"line 1: concept count m = {m} is negative"):
                load_concept_class(path)
        path.write_text("2 0\n01\n")
        with pytest.raises(ValidationError, match="needs a concept"):
            load_concept_class(path)


class TestDistinguishingSets:
    def test_membership_examples(self):
        assert not is_distinguishing(THREE, (3,))
        assert is_distinguishing(THREE, (1, 3))
        assert is_distinguishing(THREE, (1, 2, 3))

    def test_index_range_checked(self):
        with pytest.raises(ContractViolation):
            is_distinguishing(THREE, (0,))
        # unchecked, position 0 would read the last column of the bit matrix
        for index in (0, 4):
            with pytest.raises(ContractViolation):
                is_distinguishing(THREE, (1, index))
            with pytest.raises(ContractViolation):
                make_plan(THREE, (1, 2, index))

    def test_exact_minimum(self):
        assert min_distinguishing_set(THREE) == (1, 2)

    def test_full_class_needs_everything(self):
        assert min_distinguishing_set(full_concept_class(3)) == (1, 2, 3)

    def test_hadamard_class_minimum_is_b(self):
        for b in (1, 2, 3):
            got = min_distinguishing_set(hadamard_concept_class(b))
            assert len(got) == b

    def test_exact_is_minimal(self):
        rng = np.random.default_rng(11)
        words = sorted({"".join(str(b) for b in rng.integers(0, 2, 5)) for _ in range(6)})
        c = concept_class(5, tuple(words))
        best = min_distinguishing_set(c)
        assert is_distinguishing(c, best)
        for i in best:
            rest = tuple(j for j in best if j != i)
            assert not is_distinguishing(c, rest)

    def test_greedy_upper_bounds_exact(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            words = sorted({"".join(str(b) for b in rng.integers(0, 2, 6)) for _ in range(7)})
            c = concept_class(6, tuple(words))
            greedy = learning._greedy_over_support(c, range(1, 7))
            exact = min_distinguishing_set(c)
            assert is_distinguishing(c, greedy)
            assert len(greedy) >= len(exact)

    def test_exact_search_stops_past_its_budget(self, monkeypatch):
        c = full_concept_class(4)  # one subset test of 16 concepts finds [1, 2, 3, 4]
        monkeypatch.setattr(learning, "MAX_EXACT_CELLS", 16)
        assert min_distinguishing_set(c) == (1, 2, 3, 4)
        monkeypatch.setattr(learning, "MAX_EXACT_CELLS", 15)
        with pytest.raises(ValidationError, match="exact search passed 15"):
            min_distinguishing_set(c)
        assert learning._greedy_over_support(c, range(1, 5)) == (1, 2, 3, 4)

    @pytest.mark.parametrize("seed", range(16))
    def test_block_search_matches_scalar(self, monkeypatch, seed):
        default = learning.EXACT_BLOCK_CELLS
        for c, want, cells in seeded_exact_cases(seed):
            # one subset per block only where the search is short, a few, and the default
            for block_cells in ([c.m] if cells // c.m <= 3000 else []) + [7 * c.m, default]:
                monkeypatch.setattr(learning, "EXACT_BLOCK_CELLS", block_cells)
                assert min_distinguishing_set(c) == want

    @pytest.mark.parametrize("seed", range(16))
    def test_block_search_refuses_where_scalar_does(self, monkeypatch, seed):
        for c, want, cells in seeded_exact_cases(seed):
            # the scalar loop returns at its first solution's cells under any cap at least
            # that, and refuses under a cap one cell or one subset short; small caps stop it
            # within four subsets, cheap enough to run it again
            caps = [(cap, cap < cells) for cap in (cells, cells - 1, cells - c.m)]
            caps += [(cap, scalar_exact_search(c, cap) is None)
                     for cap in (c.m - 1, c.m, 3 * c.m + 1)]
            for cap, refused in caps:
                monkeypatch.setattr(learning, "MAX_EXACT_CELLS", cap)
                if refused:
                    with pytest.raises(ValidationError, match=f"exact search passed {cap} "):
                        min_distinguishing_set(c)
                else:
                    assert min_distinguishing_set(c) == want

    def test_single_concept_needs_nothing(self):
        assert min_distinguishing_set(concept_class(2, ("10",))) == ()


def scalar_exact_search(c, cap):
    """The exact search one subset at a time: (first set, cells tested), or None once refused.

    Subsets go by size in combinations order; each test costs m cells, and the
    search refuses the subset that would take the count past cap.
    """
    codes = (c.bits.astype(np.int64) << np.arange(c.n)).sum(axis=1).tolist()
    cells = 0
    for size in range((c.m - 1).bit_length(), c.n + 1):
        for subset in combinations(range(c.n), size):
            cells += c.m
            if cells > cap:
                return None
            mask = sum(1 << j for j in subset)
            if len({v & mask for v in codes}) == c.m:
                return tuple(j + 1 for j in subset), cells
    raise AssertionError("the full index set always distinguishes")


@functools.cache
def seeded_exact_cases(seed):
    """(class, scalar result, cells tested) for each of seeded_classes(seed)."""
    return [(c, *scalar_exact_search(c, learning.MAX_EXACT_CELLS)) for c in seeded_classes(seed)]


def seeded_classes(seed):
    """Classes with n <= 16 and m in [2, 64]; most have several tied minimum sets.

    The second is built of pairs that differ in the last position alone, which every
    distinguishing set must then hold, so each size is searched to its late subsets.
    """
    rng = np.random.default_rng([seed, 12])
    n = 16 if seed == 0 else int(rng.integers(3, 17))
    m = min(64 if seed < 2 else int(rng.integers(2, 65)), 1 << n)
    words = rng.choice(1 << n, size=m, replace=False)
    yield ConceptClass(n, (words[:, None] >> np.arange(n)) & 1)
    half = words[: max(1, m // 2)] & ((1 << (n - 1)) - 1)
    twins = np.unique(np.concatenate([half, half | (1 << (n - 1))]))
    yield ConceptClass(n, (twins[:, None] >> np.arange(n)) & 1)
    if seed < 4:
        yield hadamard_concept_class(seed + 1)


class TestTensorEncoding:
    def test_tensor_bit_examples(self):
        x = S("10")
        assert tensor_bit(x, (1, 2)) == 1
        assert tensor_bit(x, (1, 1)) == 0
        assert tensor_bit(x, (0, 2)) == 0

    def test_position_round_trip(self):
        for pos in range(3**4):
            t = position_to_tuple(pos, n=2, k=4)
            assert tuple_to_position(t, n=2) == pos

    def test_embedded_copy(self):
        # position j encodes the tuple (j, 0, ..., 0)
        for j in range(5):
            assert position_to_tuple(j, n=4, k=3) == (j, 0, 0)

    def test_position_range_checked(self):
        with pytest.raises(ContractViolation):
            position_to_tuple(9, n=2, k=2)
        with pytest.raises(ContractViolation):
            tuple_to_position((3,), n=2)

    def test_tensor_power_class(self):
        c = concept_class(2, ("10", "01"))
        c2 = tensor_power_class(c, 2)
        assert c2.n == 8
        assert c2.m == 2
        pos = tuple_to_position((1, 2), n=2)
        for word in c2.concepts:
            assert word.bit(pos) == 1

    def test_tensor_power_identity_at_k_one(self):
        assert tensor_power_class(THREE, 1).concepts == THREE.concepts

    def test_tensor_power_class_matches_tensor_bit(self):
        rng = np.random.default_rng(5)
        for fixed in [None] * 20 + [(3, 4)]:  # 20 random (n, k <= 3), then k = 4
            n, k = fixed or (int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            words = rng.choice(1 << n, size=int(rng.integers(1, (1 << n) + 1)), replace=False)
            c = ConceptClass(n, [OracleString.from_int(n, int(v)).bits for v in words])
            tc = tensor_power_class(c, k)
            assert tc.bits.shape == (c.m, (n + 1) ** k - 1)
            # built without ConceptClass's input checks, so pin what they would assert
            assert not tc.bits.flags.writeable and tc.bits.dtype == np.uint8
            assert len(np.unique(tc.bits, axis=0)) == c.m
            for x, row in zip(c.concepts, tc.bits.tolist()):
                for pos in range(1, (n + 1) ** k):
                    assert row[pos - 1] == tensor_bit(x, position_to_tuple(pos, n, k))

    def test_simulate_matches_definition(self):
        rng = np.random.default_rng(9)
        c = full_concept_class(3)
        for _ in range(200):
            x = c.concepts[rng.integers(0, c.m)]
            t = tuple(int(v) for v in rng.integers(0, 4, size=int(rng.integers(1, 4))))
            oracle = ClassicalOracle(x)
            assert simulate_tensor_query(t, oracle) == tensor_bit(x, t)
            assert oracle.queries_made == len({i for i in t if i != 0})
            assert oracle.queries_made <= len(t)

    def test_query_cost_examples(self):
        x = S("101")
        oracle = ClassicalOracle(x)
        assert simulate_tensor_query((1, 2, 1), oracle) == 0
        assert oracle.queries_made == 2
        oracle = ClassicalOracle(x)
        assert simulate_tensor_query((0, 0), oracle) == 0
        assert oracle.queries_made == 0
        oracle = ClassicalOracle(x)
        assert simulate_tensor_query((3,), oracle) == 1
        assert oracle.queries_made == 1


class TestAmplitudeProfile:
    def test_from_state_sums_ancilla(self):
        psi = QueryState(
            2, 1,
            {((1,), 0): 0.5, ((1,), 1): 0.5, ((2,), 1): 1 / math.sqrt(2)},
            ancilla_dim=2,
        )
        prof = amplitude_profile(psi)
        assert prof.values == pytest.approx((0.0, 0.5, 0.5))

    def test_subset_state_is_uniform(self):
        prof = amplitude_profile(build_subset_state(3, 1))
        assert prof.values == pytest.approx((0.25,) * 4)

    def test_uniform_constructor(self):
        assert AmplitudeProfile.uniform(4).values == pytest.approx((0.25,) * 4)

    def test_values_are_one_read_only_array(self):
        prof = AmplitudeProfile([0.5, 0.25, 0.25])
        assert prof.values.dtype == np.float64
        with pytest.raises(ValueError):
            prof.values[0] = 1.0
        assert prof == AmplitudeProfile((0.5, 0.25, 0.25))
        assert prof != AmplitudeProfile((0.25, 0.5, 0.25))
        assert prof != AmplitudeProfile((0.5, 0.25, 0.25, 0.0))

    def test_sum_checked_as_python_sums_the_tuple(self):
        # near the 1e-9 limit, Python's in-order sum and ndarray.sum's pairwise one can disagree
        rng = np.random.default_rng(0)
        disagree = 0
        for _ in range(200):
            p = rng.random(20)
            p = p / p.sum() * (1 + 1e-9)
            total = sum(p.tolist())
            disagree += (abs(total - 1.0) > 1e-9) != (abs(np.sum(p) - 1.0) > 1e-9)
            if abs(total - 1.0) <= 1e-9:
                AmplitudeProfile(p)
            else:
                with pytest.raises(ValidationError, match=f"profile sums to {total!r},"):
                    AmplitudeProfile(p)
        assert disagree

    def test_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            AmplitudeProfile((0.3, 0.3))

    def test_no_negative_mass(self):
        with pytest.raises(ValidationError):
            AmplitudeProfile((-0.1, 1.1))

    @pytest.mark.parametrize("values", [(math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5),
                                        (0.5, 0.5, -math.inf)])
    def test_non_finite_mass_rejected(self, values):
        # NaN passes "< 0" and "> 1e-9", and sample_index_set would then fail inside numpy
        with pytest.raises(ValidationError, match="profile entries must be finite"):
            AmplitudeProfile(values)

    def test_unnormalized_state_rejected(self):
        psi = QueryState(1, 1, {((1,), 0): 1.0, ((0,), 0): 1.0})
        with pytest.raises(ContractViolation):
            amplitude_profile(psi)


class TestPairwiseOverlaps:
    def test_hadamard_class_passes_at_zero(self):
        concepts, alg = build_hadamard_instance(2)
        report = check_pairwise_overlaps(amplitude_profile(alg.psi), concepts, eps=0.0)
        assert report.passed
        assert (report.overlap_sq <= 1e-12).all()

    def test_point_mass_on_reference_fails(self):
        prof = AmplitudeProfile((1.0, 0.0, 0.0))
        report = check_pairwise_overlaps(prof, concept_class(2, ("00", "11")), eps=0.25)
        assert not report.passed
        assert report.violations()[0].overlap_sq == pytest.approx(1.0)

    def test_far_pair_with_loose_budget(self):
        prof = AmplitudeProfile((0.0, 0.25, 0.25, 0.25, 0.25))
        report = check_pairwise_overlaps(prof, concept_class(4, ("0000", "1111")), eps=0.3)
        # the signed sum is -1, so its square saturates 1 > 4 * 0.3 * 0.7
        assert not report.passed
        assert report.overlap_sq[0] == pytest.approx(1.0)

    def test_pair_count(self):
        concepts, alg = build_hadamard_instance(2)
        report = check_pairwise_overlaps(amplitude_profile(alg.psi), concepts, eps=0.1)
        assert len(report.pairs) == concepts.m * (concepts.m - 1) // 2

    def test_profile_length_checked(self):
        with pytest.raises(ContractViolation):
            check_pairwise_overlaps(AmplitudeProfile.uniform(3), THREE, eps=0.1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_position_loop(self, seed):
        rng = np.random.default_rng(seed)
        m = 64 if seed == 0 else int(rng.integers(2, 65))
        n = int(rng.integers(6, 25))
        words = rng.choice(1 << n, size=m, replace=False)
        c = ConceptClass(n, [OracleString.from_int(n, int(v)).bits for v in words])
        p = rng.uniform(size=n + 1) * (rng.uniform(size=n + 1) < 0.6)  # zero-mass positions
        p[0] = 0.0 if seed % 2 else p[0] + 0.1
        profile = AmplitudeProfile(tuple((p / p.sum()).tolist()))
        want = reference_overlap_sq(profile, c)
        eps = (1.0 - math.sqrt(1.0 - float(np.median(want)))) / 2.0  # about half the pairs fail
        report = check_pairwise_overlaps(profile, c, eps)
        assert report.pairs.tolist() == [[i, j] for i in range(m) for j in range(i + 1, m)]
        np.testing.assert_allclose(report.overlap_sq, want, rtol=0, atol=1e-12)
        assert report.ok.tolist() == (want <= report.bound + 1e-12).tolist()
        assert report.passed == bool((want <= report.bound + 1e-12).all())
        assert [(v.i, v.j) for v in report.violations()] == [
            tuple(ij) for ij in report.pairs[want > report.bound + 1e-12].tolist()
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_worst_is_first_maximum(self, seed):
        # a uniform profile makes overlap_sq a function of Hamming distance: many ties
        rng = np.random.default_rng(seed)
        n, m = 6, 24
        words = rng.choice(1 << n, size=m, replace=False)
        c = ConceptClass(n, [OracleString.from_int(n, int(v)).bits for v in words])
        report = check_pairwise_overlaps(AmplitudeProfile.uniform(n + 1), c, eps=0.2)
        sq = report.overlap_sq.tolist()
        r = sq.index(max(sq))
        assert sq.count(sq[r]) > 1
        i, j = report.pairs[r].tolist()
        assert report.worst() == learning.PairOverlap(i, j, sq[r], bool(report.ok[r]))


def reference_overlap_sq(profile, c):
    """(sum_t p_t (-1)^(x_t + y_t))^2 per pair (i, j), i < j, one position at a time."""
    p, rows = profile.values, c.bits.tolist()
    out = []
    for i in range(c.m):
        for j in range(i + 1, c.m):
            s = p[0]
            for t in range(1, c.n + 1):
                s += -p[t] if rows[i][t - 1] != rows[j][t - 1] else p[t]
            out.append(s * s)
    return np.array(out)


class TestClassicalQueryBound:
    def test_values(self):
        assert classical_query_bound(4, 0.1) == pytest.approx(20.0)
        assert classical_query_bound(2, 0.0) == pytest.approx(4.0)

    def test_monotone_in_m(self):
        assert classical_query_bound(16, 0.1) > classical_query_bound(4, 0.1)

    def test_range_checks(self):
        with pytest.raises(ContractViolation):
            classical_query_bound(4, 0.5)
        with pytest.raises(ContractViolation):
            classical_query_bound(1, 0.1)


class TestSampleIndexSet:
    def test_point_mass_never_distinguishes(self):
        prof = AmplitudeProfile((0.0, 1.0, 0.0, 0.0))
        res = sample_index_set(prof, THREE, k_draws=8, rng=stream(1, "test"))
        assert res.index_set == (1,)
        assert not res.distinguishing

    def test_reference_draws_are_dropped(self):
        prof = AmplitudeProfile((1.0, 0.0, 0.0, 0.0))
        res = sample_index_set(prof, THREE, k_draws=5, rng=stream(0, "test"))
        assert res.index_set == ()
        assert len(res.draws) == 5

    def test_deterministic_in_seed(self):
        prof = AmplitudeProfile((0.1, 0.3, 0.3, 0.3))
        a = sample_index_set(prof, THREE, k_draws=12, rng=stream(42, "test"))
        b = sample_index_set(prof, THREE, k_draws=12, rng=stream(42, "test"))
        assert a == b


class TestQueryPlan:
    def test_make_plan_decodes(self):
        plan = make_plan(THREE, (1, 2))
        oracle = ClassicalOracle(S("011"))
        res = classical_learn(plan, oracle)
        assert res.concept == S("011")
        assert res.concept_index == 1
        assert res.queries_used == 2
        assert oracle.queries_made == 2

    def test_outside_class_raises(self):
        plan = make_plan(concept_class(2, ("00", "11")), (1, 2))
        with pytest.raises(InputOutsideClass):
            classical_learn(plan, ClassicalOracle(S("01")))

    def test_collision_rejected(self):
        with pytest.raises(ValidationError):
            make_plan(THREE, (3,))

    def test_length_mismatch(self):
        plan = make_plan(THREE, (1, 2))
        with pytest.raises(ContractViolation):
            classical_learn(plan, ClassicalOracle(S("01")))

    def test_serialization_round_trip(self, tmp_path):
        plan = make_plan(THREE, (1, 2))
        data = plan_to_dict(plan)
        assert set(data) == {"base_queries", "concepts", "decoder_table"}
        assert set(data["decoder_table"]) == {"00", "01", "10"}
        assert plan_from_dict(data) == plan
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan
        path.write_bytes(path.read_bytes() + b"\xff")
        with pytest.raises(ParseError, match="is not UTF-8 text"):
            load_plan(path)

    def test_malformed_record(self):
        with pytest.raises(ParseError):
            plan_from_dict({"base_queries": [1]})

    def test_file_bytes_are_the_stdlib_json_text(self, tmp_path):
        c = hadamard_concept_class(3)
        plan = make_plan(c, min_distinguishing_set(c))
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        want = json.dumps(plan_to_dict(plan), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("where", ["word", "pattern"])
    def test_lone_surrogate_is_a_parse_error(self, where):
        # JSON carries "\ud800", and it has no UTF-8 or UTF-32 encoding
        data = json.loads(json.dumps(plan_to_dict(make_plan(THREE, (1, 2)))))
        if where == "word":
            data["concepts"][1] = "0\ud8001"
        else:
            data["decoder_table"]["0\ud800"] = data["decoder_table"].pop("01")
        with pytest.raises(ParseError, match="0/1 string"):
            plan_from_dict(data)

    @pytest.mark.parametrize(
        "words, error, message",
        [
            (["01", "1", "x1"], ParseError, "got 'x1'"),
            (["01", "", "11"], ParseError, "got ''"),
            (["01", 5, "11"], ParseError, "got 5"),
            (["01", "1", "11"], ValidationError, "concept 1 has length 1, not 2"),
        ],
        ids=["bad-character", "empty", "not-a-string", "ragged"],
    )
    def test_bad_concept_word(self, words, error, message):
        data = {"base_queries": [1, 2], "concepts": words, "decoder_table": {}}
        with pytest.raises(error, match=message):
            plan_from_dict(data)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda d: d["decoder_table"].update({"0": 7}), ValidationError),
            (lambda d: d.update(decoder_table={"0": 1, "1": 0}), ValidationError),
            (lambda d: d.update(base_queries=[5]), ContractViolation),
            (lambda d: d.update(base_queries=[0]), ContractViolation),
        ],
        ids=["decoder-index-outside-class", "decoder-swapped", "base-beyond-n", "base-zero"],
    )
    def test_record_must_match_its_derived_plan(self, edit, error):
        data = plan_to_dict(make_plan(concept_class(2, ("00", "11")), (1,)))
        assert data["decoder_table"] == {"0": 0, "1": 1}
        edit(data)
        with pytest.raises(error):
            plan_from_dict(data)

    @pytest.mark.parametrize("base", [[2, 1, 1], [2, 1], [1, 1, 2]])
    def test_base_queries_must_increase(self, base):
        # the table is the one positions (1, 2) induce, so only the order is wrong
        with pytest.raises(ValidationError, match="not strictly increasing"):
            plan_from_dict({**RECORD, "base_queries": base})


RECORD = {"base_queries": [1, 2], "concepts": ["00", "01", "11"],
          "decoder_table": {"00": 0, "01": 1, "11": 2}}
SMALL = st.integers(-2, 6)
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text("01x", max_size=3), SMALL,
    st.just(10**30), st.lists(st.integers(-1, 4), max_size=3),
    st.dictionaries(st.text("01", max_size=2), st.integers(-1, 3), max_size=2),
)


@st.composite
def plan_records(draw):
    """A well-formed plan record on n <= 4, or one with a single field or entry corrupted."""
    n = draw(st.integers(1, 4))
    words = draw(st.lists(st.text("01", min_size=n, max_size=n), min_size=1, max_size=5,
                          unique=True))
    c = concept_class(n, words)
    base = draw(st.sets(st.integers(1, n)))
    record = plan_to_dict(make_plan(c, base if is_distinguishing(c, base) else range(1, n + 1)))
    where = draw(st.sampled_from([None, "field", "drop", "base", "pattern", "index", "word"]))
    if where == "field":
        record[draw(st.sampled_from(sorted(record)))] = draw(JUNK)
    elif where == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
    elif where == "base" and record["base_queries"]:
        record["base_queries"][draw(st.integers(0, len(record["base_queries"]) - 1))] = draw(JUNK)
    elif where in ("pattern", "index"):
        pattern = draw(st.sampled_from(sorted(record["decoder_table"])))
        idx = record["decoder_table"].pop(pattern)
        if where == "pattern":
            # JSON keys are strings: an int key comes back as its decimal digits
            record["decoder_table"][draw(st.one_of(st.text("01x", max_size=5), SMALL))] = idx
        else:
            record["decoder_table"][pattern] = draw(JUNK)
    elif where == "word":
        record["concepts"][draw(st.integers(0, len(words) - 1))] = draw(JUNK)
    return record


@settings(max_examples=100, deadline=None, derandomize=True)
@given(plan_records())
@example({**RECORD, "base_queries": "ab"})
@example({**RECORD, "base_queries": [10**30]})
@example({**RECORD, "decoder_table": [1]})
@example({**RECORD, "decoder_table": {"00": 0, "01": 1, "0x": 2}})
@example({**RECORD, "base_queries": [1.5, 2]})
@example({**RECORD, "base_queries": [True, 2]})
@example({**RECORD, "decoder_table": {"00": 0.7, "01": 1, "11": 2}})
@example({"base_queries": [], "concepts": [{"": 0}], "decoder_table": {"": 0}})
def test_plan_record_fuzz(record):
    """A plan record loads as written or raises a package error: never coerced, never escaping."""
    try:
        plan = plan_from_dict(json.loads(json.dumps(record)))
    except (ParseError, ValidationError, ContractViolation):
        return
    # json.dumps tells 1 from True and 1.0, so an accepted record is exactly the plan's own
    record = json.loads(json.dumps(record))
    assert json.dumps(plan_to_dict(plan), sort_keys=True) == json.dumps(record, sort_keys=True)


def tuple_plan(c, base):
    """The tuple-keyed decoder the plan's arrays replace: (colliding pair, None) or (None, dict)."""
    decoder = {}
    for idx, row in enumerate(c.bits[:, [q - 1 for q in base]].tolist()):
        if tuple(row) in decoder:
            return (decoder[tuple(row)], idx), None
        decoder[tuple(row)] = idx
    return None, decoder


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([0, 1, 7, 8, 9, 64, 70]), st.integers(1, 12), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
@example(0, 1, 1, 0)
@example(70, 12, 12, 1)
def test_plan_matches_tuple_decoder(width, m, patterns, seed):
    """Collision pair, decoded indices and decoder_table agree with the tuple-keyed decoder."""
    rng = np.random.default_rng(seed)
    # rows draw their queried bits from a few patterns, so some classes collide; the
    # unqueried columns hold the row index, which keeps every class distinct
    n = width + 4
    cols = rng.permutation(n)
    bits = np.zeros((m, n), dtype=np.uint8)
    bits[:, cols[:width]] = rng.integers(0, 2, (patterns, width))[rng.integers(0, patterns, m)]
    bits[:, cols[width:]] = (np.arange(m)[:, None] >> np.arange(4)) & 1
    c = ConceptClass(n, bits)
    base = tuple(sorted((cols[:width] + 1).tolist()))
    pair, decoder = tuple_plan(c, base)
    if pair is not None:
        with pytest.raises(ValidationError, match=f"concepts {pair[0]} and {pair[1]}$"):
            make_plan(c, base)
        return
    plan = make_plan(c, base)
    observed = c.bits[:, [q - 1 for q in base]]
    assert plan.decode(observed).tolist() == list(range(m))
    assert plan_to_dict(plan)["decoder_table"] == {
        "".join(map(str, p)): i for p, i in decoder.items()
    }
    rows = rng.integers(0, 2, (4, width)).astype(np.uint8)
    unknown = [tuple(r) for r in rows.tolist() if tuple(r) not in decoder]
    if unknown:
        with pytest.raises(InputOutsideClass, match=re.escape(f"pattern {unknown[0]} ")):
            plan.decode(rows)
    else:
        assert plan.decode(rows).tolist() == [decoder[tuple(r)] for r in rows.tolist()]


def test_pattern_keys_sort_as_words():
    rng = np.random.default_rng(5)
    for width in (0, 1, 7, 8, 9, 64, 70):
        rows = rng.integers(0, 2, (40, width)).astype(np.uint8)
        words = encode_bits(rows)
        order = np.argsort(learning.pattern_keys(rows), kind="stable")
        assert order.tolist() == sorted(range(40), key=lambda i: words[i])


def test_full_n16_plan_round_trip():
    n = 16
    c = ConceptClass(n, (np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    plan = make_plan(c, range(1, n + 1))
    assert plan_from_dict(plan_to_dict(plan)) == plan
    assert np.array_equal(plan.decode(c.bits), np.arange(1 << n))


class TestBuildClassicalPlan:
    def test_hadamard_pipeline(self):
        concepts, alg = build_hadamard_instance(3)
        result = build_classical_plan(alg, concepts, eps=0.0)
        audit = result.audit
        assert audit["m"] == 8
        assert audit["k"] == 1
        assert audit["bound"] == 12
        assert audit["base_query_count"] <= 12
        assert audit["base_query_count"] == len(result.plan.base_queries)
        for idx, x in enumerate(concepts.concepts):
            res = classical_learn(result.plan, ClassicalOracle(x))
            assert res.concept_index == idx

    def test_subset_learner_pipeline(self):
        concepts = full_concept_class(4)
        psi = build_subset_state(4, 3)
        result = build_classical_plan(psi, concepts, eps=1 / 16)
        assert result.overlap_report.passed
        budget = math.ceil(3 * classical_query_bound(16, 1 / 16))
        assert len(result.plan.base_queries) <= budget
        for idx, x in enumerate(concepts.concepts):
            res = classical_learn(result.plan, ClassicalOracle(x))
            assert res.concept_index == idx

    def test_trivial_single_concept(self):
        concepts = concept_class(2, ("01",))
        result = build_classical_plan(build_subset_state(2, 1), concepts, eps=0.0)
        assert result.plan.base_queries == ()
        res = classical_learn(result.plan, ClassicalOracle(S("01")))
        assert res.concept == S("01")
        assert res.queries_used == 0
        for eps in (7.0, -1.0, 0.5):  # checked even though one concept needs no queries
            with pytest.raises(ContractViolation):
                build_classical_plan(build_subset_state(2, 1), concepts, eps=eps)
        unnormalized = QueryState(2, 1, {((1,), 0): 0.5})
        with pytest.raises(ContractViolation, match="normalized"):
            build_classical_plan(unnormalized, concepts, eps=0.0)

    def test_two_concepts_need_one_index(self):
        a = 1 / math.sqrt(2)
        psi = QueryState(2, 1, {((0,), 0): a, ((2,), 0): a})
        concepts = concept_class(2, ("00", "01"))
        result = build_classical_plan(psi, concepts, eps=0.0)
        assert result.plan.base_queries == (2,)

    def test_bound_violation_carries_first_pairs(self):
        # eps = 0 leaves every one of the 2,016 pairs of the n = 6 subset learner over the bound
        psi, concepts = build_subset_state(6, 3), full_concept_class(6)
        with pytest.raises(BoundViolation) as err:
            build_classical_plan(psi, concepts, eps=0.0)
        report = check_pairwise_overlaps(
            amplitude_profile(psi), tensor_power_class(concepts, 3), 0.0
        )
        worst = report.worst()
        assert len(report.violations()) == 2016
        assert err.value.pairs == report.violations()[: learning.MAX_REPORTED_VIOLATIONS]
        assert report.violations(3) == report.violations()[:3]
        assert (err.value.pairs[0].i, err.value.pairs[0].j) == (0, 1)
        assert f"concepts {worst.i} and {worst.j} have squared overlap" in str(err.value)

    def test_bound_violation_names_pair(self):
        psi = QueryState(2, 1, {((0,), 0): 1.0})
        concepts = concept_class(2, ("00", "11"))
        with pytest.raises(BoundViolation) as err:
            build_classical_plan(psi, concepts, eps=0.1)
        assert err.value.pairs
        assert (err.value.pairs[0].i, err.value.pairs[0].j) == (0, 1)

    @pytest.mark.parametrize("n, k, bits, pairs", [
        (10, 5, 164_915_200, 523_776),  # the tensor class alone is 165 MB
        (12, 2, 688_128, 8_386_560),
    ])
    def test_refuses_oversized_plan_before_building(self, monkeypatch, n, k, bits, pairs):
        monkeypatch.setattr(learning, "tensor_power_class", None)  # any build attempt fails
        with pytest.raises(ValidationError, match=f"{bits} bits and {pairs} pair checks"):
            build_classical_plan(build_subset_state(n, k), full_concept_class(n), 0.0)

    def test_budget_asserted_at_runtime(self, monkeypatch):
        # half the mass on the positions where the two concepts differ: overlap 0, so eps 0
        psi = QueryState(8, 1, {((i,), 0): 8 ** -0.5 for i in range(1, 9)})
        concepts = concept_class(8, ("00000000", "11110000"))
        result = build_classical_plan(psi, concepts, eps=0.0)
        assert result.audit["bound"] == 4 and result.audit["base_query_count"] <= 4
        monkeypatch.setattr(learning, "_greedy_over_support", lambda c, cands: tuple(range(1, 9)))
        with pytest.raises(BoundViolation, match="8 base queries, beyond its budget 4"):
            build_classical_plan(psi, concepts, eps=0.0)

    def test_support_that_cannot_separate_is_refused(self, monkeypatch):
        # the overlap check rules this out, so run it at eps = 1/2, where it cannot fail
        check = learning.check_pairwise_overlaps
        monkeypatch.setattr(learning, "check_pairwise_overlaps", lambda p, c, eps: check(p, c, 0.5))
        a = 1 / math.sqrt(2)
        psi = QueryState(2, 1, {((0,), 0): a, ((1,), 0): a})
        with pytest.raises(BoundViolation, match="profile support cannot separate"):
            build_classical_plan(psi, concept_class(2, ("00", "01")), eps=0.0)

    def test_rejects_non_state_learner(self):
        with pytest.raises(ContractViolation):
            build_classical_plan("nope", THREE, eps=0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**20 - 1))
def test_tensor_bit_is_parity_of_odd_multiplicity_entries(k, raw):
    n = 4
    x = OracleString.from_int(n, raw & 0xF)
    t = []
    v = raw >> 4
    for _ in range(k):
        t.append(v % (n + 1))
        v //= n + 1
    t = tuple(t)
    want, mask = 0, 0
    for i in set(t):
        if i != 0 and t.count(i) % 2 == 1:
            want ^= x.bit(i)
            mask |= 1 << (i - 1)
    assert tensor_bit(x, t) == want
    assert odd_mask(t) == mask
    assert parity(x.to_int() & mask) == want
    assert parity(np.array([x.to_int() & mask]))[0] == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sampled_plans_within_budget(seed):
    """Greedy plans for seeded states and classes stop within floor(ln P / delta) + 1 tuples.

    eps sits just above the worst pair's Helstrom error, the tightest the state
    meets, so every pair is separated by a profile draw with probability at
    least delta = (1 - 2 sqrt(eps(1-eps)))/2 and no slack hides a long cover.
    """
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    psi = random_state(rng, n, k, support_size=int(rng.integers(n + 1, 4 * n + 1)))
    m = int(rng.integers(2, (1 << n) + 1))
    words = rng.choice(1 << n, size=m, replace=False)
    concepts = ConceptClass(n, (words[:, None] >> np.arange(n)) & 1)
    tclass = tensor_power_class(concepts, k)
    worst = check_pairwise_overlaps(amplitude_profile(psi), tclass, 0.5).worst().overlap_sq
    assume(worst < 1 - 1e-9)  # the support separates every pair
    eps = helstrom_error(math.sqrt(worst)) + 1e-9
    result = build_classical_plan(psi, concepts, eps)
    delta = (1 - 2 * math.sqrt(eps * (1 - eps))) / 2
    assert result.audit["tuple_count"] <= math.floor(math.log(m * (m - 1) // 2) / delta) + 1
    budget = math.ceil(k * classical_query_bound(m, eps))
    assert result.audit["bound"] == budget
    assert result.audit["base_query_count"] == len(result.plan.base_queries) <= budget
    for idx, x in enumerate(concepts.concepts):
        assert classical_learn(result.plan, ClassicalOracle(x)).concept_index == idx
