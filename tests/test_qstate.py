"""Core state/oracle/measurement behavior, pinned examples plus properties."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadapt import (
    ContractViolation,
    OracleString,
    ParseError,
    ProjectiveMeasurement,
    PovmMeasurement,
    QueryState,
    ValidationError,
    apply_oracle,
    inner_product,
    load_state,
    measure,
    oracle_phase,
    random_state,
    save_state,
    state_from_dict,
    state_to_dict,
)
from nonadapt.bounds import oracle_pair_overlap, query_weight, weight_profile
from nonadapt.learning import amplitude_profile, load_plan, tuple_to_position
from nonadapt.algorithms import (
    build_hadamard_instance, build_parity_algorithm, decision_measurement,
)
from nonadapt.qstate import (
    _state_vector, decode_bits, decode_words, encode_bits, fwht, odd_mask, overlap_parts,
    overlap_terms, parity,
)
from tests.conftest import (
    k1_state, random_projective, random_two_outcome_povm, real_orthonormal_family,
    reference_stack, reference_state_vector, uniform_k1, with_negative_zero_imag,
)

S = OracleString.from_string


class TestOracleString:
    def test_index_zero_reads_zero(self):
        x = S("101")
        assert x.bit(0) == 0
        assert [x.bit(i) for i in range(4)] == [0, 1, 0, 1]

    def test_int_round_trip_lsb_first(self):
        # bit 1 is the least significant bit of the integer encoding
        assert S("10").to_int() == 1
        assert S("01").to_int() == 2
        assert OracleString.from_int(3, 5) == S("101")
        for v in range(16):
            assert OracleString.from_int(4, v).to_int() == v

    def test_xor_flip_complement(self):
        assert (S("1010") ^ S("0110")) == S("1100")
        assert S("000").flip(2) == S("010")
        assert S("101").complement() == S("010")
        assert OracleString.single_one(4, 3) == S("0010")
        assert S("10").flip(1) == S("00")

    def test_validation(self):
        with pytest.raises(ValidationError):
            OracleString((0, 2))
        with pytest.raises(ValidationError):
            OracleString(())
        for text in ("01x", "", "0\ud8001", "01 ", None, [0, 1]):
            with pytest.raises(ParseError, match="expected a nonempty 0/1 string"):
                OracleString.from_string(text)
        with pytest.raises(ContractViolation):
            S("01").bit(3)
        with pytest.raises(ContractViolation):
            S("01") ^ S("011")


# mostly bits and near misses, lone surrogates included, then any code point
TEXT = st.one_of(
    st.sampled_from("01/2 \u00e9\ud800\udfff"), st.characters(blacklist_categories=())
)


class TestBitCodec:
    def test_decode_and_encode_round_trip(self):
        bits, bad = decode_bits("0110")
        assert bits.dtype == np.uint8 and bits.tolist() == [0, 1, 1, 0]
        assert not bad.any()
        assert encode_bits(np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)) == ["011", "100"]
        assert encode_bits(np.zeros((2, 0), dtype=np.uint8)) == ["", ""]

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0), (1, 1), (7, 13), (300, 8)])
    def test_encode_matches_per_row_encoder(self, shape):
        rng = np.random.default_rng(sum(shape))
        bits = rng.integers(0, 2, size=shape, dtype=np.uint8)
        # a transposed copy and a strided view too: the words follow the rows, not the memory
        for view in (bits, np.asfortranarray(bits), bits[::2], bits[:, ::-1]):
            assert encode_bits(view) == [row.tobytes().decode() for row in view + ord("0")]

    def test_offender_is_counted_in_characters(self):
        # one position per code point: a non-ASCII character or a lone surrogate is one offender
        for text, want in (("01x1", [2]), ("0é1\ud800", [1, 3]), ("1/2", [1, 2])):
            assert np.flatnonzero(decode_bits(text)[1]).tolist() == want

    def test_words_flag_the_offending_words(self):
        words = ["01", "", "1x", None, "0", "\ud800", "10"]
        bits, lengths, bad = decode_words(words)
        assert bad.tolist() == [False, False, True, True, False, True, False]
        assert lengths.tolist()[:3] == [2, 0, 2]
        assert encode_bits(bits[None, :2]) == ["01"]
        bits, lengths, bad = decode_words([])
        assert (bits.size, lengths.size, bad.size) == (0, 0, 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.text(TEXT, max_size=6), st.none(), st.integers()), max_size=8))
    def test_words_match_the_character_loop(self, words):
        bits, lengths, bad = decode_words(words)
        assert bad.tolist() == [not isinstance(w, str) or any(c not in "01" for c in w)
                                for w in words]
        if not bad.any():
            assert lengths.tolist() == [len(w) for w in words]
            assert bits.tolist() == [int(c) for w in words for c in w]
        for w in words:
            if isinstance(w, str):
                assert decode_bits(w)[1].tolist() == [c not in "01" for c in w]


class TestOraclePhase:
    def test_single_index(self):
        assert oracle_phase(S("01"), (2,)) == -1
        assert oracle_phase(S("01"), (1,)) == 1

    def test_two_phases_cancel(self):
        assert oracle_phase(S("11"), (1, 2)) == 1
        assert odd_mask((1, 2)) == 0b11 and parity(0b11) == 0
        assert odd_mask((2, 1, 2)) == 0b01

    def test_zero_index_contributes_nothing(self):
        assert oracle_phase(S("10"), (0, 1)) == -1
        assert oracle_phase(S("10"), (0, 0)) == 1
        assert odd_mask((0, 0)) == 0 and odd_mask((0, 3)) == 0b100

    def test_out_of_range(self):
        for t in [(3,), (1.5,), (True,)]:
            with pytest.raises(ContractViolation):
                oracle_phase(S("01"), t)


class TestApplyOracle:
    def test_single_register_example(self):
        psi = uniform_k1(2, [0, 1, 2])
        out = apply_oracle(psi, S("01"))
        a = 1 / math.sqrt(3)
        assert out.amplitudes[((0,), 0)] == pytest.approx(a)
        assert out.amplitudes[((1,), 0)] == pytest.approx(a)
        assert out.amplitudes[((2,), 0)] == pytest.approx(-a)

    def test_identity_oracle(self):
        psi = uniform_k1(3, [0, 2, 3])
        out = apply_oracle(psi, S("000"))
        assert out.amplitudes == psi.amplitudes

    def test_two_register_example(self):
        a = 1 / math.sqrt(2)
        psi = QueryState(2, 2, {((1, 1), 0): a, ((1, 2), 0): a})
        out = apply_oracle(psi, S("10"))
        assert out.amplitudes[((1, 1), 0)] == pytest.approx(a)  # (-1)^(x1+x1) = +1
        assert out.amplitudes[((1, 2), 0)] == pytest.approx(-a)  # (-1)^(x1+x2) = -1

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            apply_oracle(uniform_k1(2, [0, 1]), S("011"))

    def test_ancilla_untouched(self):
        a = 1 / math.sqrt(2)
        psi = QueryState(1, 1, {((1,), 0): a, ((1,), 1): a}, ancilla_dim=2)
        out = apply_oracle(psi, S("1"))
        assert out.amplitudes[((1,), 0)] == pytest.approx(-a)
        assert out.amplitudes[((1,), 1)] == pytest.approx(-a)


class TestInnerProduct:
    def test_orthogonal_basis_states(self):
        assert inner_product(k1_state(2, {1: 1.0}), k1_state(2, {2: 1.0})) == 0

    def test_self_overlap(self):
        psi = uniform_k1(3, [0, 1, 3])
        assert inner_product(psi, psi) == pytest.approx(1.0)

    def test_plus_minus_orthogonal(self):
        a = 1 / math.sqrt(2)
        plus = k1_state(2, {1: a, 2: a})
        minus = k1_state(2, {1: a, 2: -a})
        assert inner_product(plus, minus) == pytest.approx(0.0)

    def test_conjugate_linear_in_first_argument(self):
        left = k1_state(1, {1: 1j})
        right = k1_state(1, {1: 1.0})
        assert inner_product(left, right) == pytest.approx(-1j)
        assert inner_product(right, left) == pytest.approx(1j)

    def test_space_mismatch(self):
        with pytest.raises(ContractViolation):
            inner_product(k1_state(2, {1: 1.0}), k1_state(3, {1: 1.0}))


class TestMeasure:
    def test_point_mass(self):
        meas = ProjectiveMeasurement(
            (("a", k1_state(2, {1: 1.0})), ("b", k1_state(2, {2: 1.0})))
        )
        assert measure(k1_state(2, {1: 1.0}), meas) == pytest.approx({"a": 1.0, "b": 0.0})

    def test_uniform_split(self):
        meas = ProjectiveMeasurement(
            (("a", k1_state(2, {1: 1.0})), ("b", k1_state(2, {2: 1.0})))
        )
        probs = measure(uniform_k1(2, [1, 2]), meas)
        assert probs == pytest.approx({"a": 0.5, "b": 0.5})

    def test_sign_readout(self):
        # one-query parity readout: the relative sign picks the +/- outcome
        a = 1 / math.sqrt(2)
        meas = ProjectiveMeasurement(
            (("+", k1_state(2, {1: a, 2: a})), ("-", k1_state(2, {1: a, 2: -a})))
        )
        probs = measure(k1_state(2, {1: a, 2: -a}), meas)
        assert probs["+"] == pytest.approx(0.0, abs=1e-12)
        assert probs["-"] == pytest.approx(1.0)

    def test_support_outside_basis(self):
        meas = ProjectiveMeasurement((("a", k1_state(2, {1: 1.0})),))
        with pytest.raises(ContractViolation):
            measure(uniform_k1(2, [1, 2]), meas)

    def test_incomplete_on_state(self):
        # basis covers the support keys but probabilities do not reach 1
        a = 1 / math.sqrt(2)
        meas = ProjectiveMeasurement((("a", k1_state(2, {1: a, 2: a})),))
        with pytest.raises(ContractViolation):
            measure(k1_state(2, {1: a, 2: -a}), meas)

    def test_repeated_labels_aggregate(self):
        meas = ProjectiveMeasurement(
            (("same", k1_state(2, {1: 1.0})), ("same", k1_state(2, {2: 1.0})))
        )
        probs = measure(uniform_k1(2, [1, 2]), meas)
        assert probs == pytest.approx({"same": 1.0})

    def test_unnormalized_state_rejected(self):
        meas = ProjectiveMeasurement((("a", k1_state(1, {1: 1.0})),))
        with pytest.raises(ContractViolation):
            measure(k1_state(1, {1: 0.5}), meas)

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_inner_product_reference(self, seed, shared):
        # |<e|psi>|^2 summed per label, by the dict reference, against measure's array path
        rng = np.random.default_rng(seed)
        n, k, anc = 3, int(rng.integers(1, 3)), 1 + seed % 2
        keys = random_state(rng, n, k, anc, support_size=8).keys
        d = len(keys)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        if shared:  # every effect on the one key matrix: the one-support path
            effects = [QueryState.from_arrays(n, k, keys, q[:, c], anc) for c in range(d)]
        else:  # a block-diagonal unitary, each effect on its own block's keys
            cut = int(rng.integers(1, d))
            effects = []
            for block in (keys[:cut], keys[cut:]):
                b = len(block)
                u, _ = np.linalg.qr(rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b)))
                effects += [QueryState.from_arrays(n, k, block, u[:, c], anc) for c in range(b)]
            effects = [effects[i] for i in rng.permutation(d)]
        labels = rng.integers(0, 3, size=d).tolist()  # repeated labels
        meas = ProjectiveMeasurement(tuple(zip(labels, effects)))
        sub = rng.permutation(d)[: int(rng.integers(1, d))]  # a strict subset of the basis
        amps = rng.normal(size=len(sub)) + 1j * rng.normal(size=len(sub))
        psi = QueryState.from_arrays(n, k, keys[sub], amps, anc).normalized()
        ref: dict = {}
        for label, e in meas.effects:
            ref[label] = ref.get(label, 0.0) + abs(inner_product(e, psi)) ** 2
        got = measure(psi, meas)
        assert list(got) == list(ref)  # labels in first-appearance order
        assert all(abs(got[label] - ref[label]) <= 1e-12 for label in ref)
        # bit for bit: Python complex arithmetic summed in basis order, with no BLAS
        v = [psi.amplitudes.get(key, 0j) for key in meas.basis]
        exact: dict = {}
        for (label, _), row in zip(meas.effects, meas.V.tolist()):
            c = 0j
            for e, a in zip(row, v):
                c += e.conjugate() * a
            exact[label] = exact.get(label, 0.0) + abs(c) ** 2
        assert got == exact

    @pytest.mark.parametrize("povm", [False, True])
    def test_each_contract_violation(self, povm):
        psi = uniform_k1(2, [1, 2])
        if povm:
            meas = PovmMeasurement(n=2, k=1, basis=(((1,), 0), ((2,), 0)),
                                   elements=((0, np.eye(2)),))
            narrow = PovmMeasurement(n=2, k=1, basis=(((1,), 0),), elements=((0, np.eye(1)),))
        else:
            meas = ProjectiveMeasurement(((0, k1_state(2, {1: 1.0})), (1, k1_state(2, {2: 1.0}))))
            narrow = ProjectiveMeasurement(((0, k1_state(2, {1: 1.0})),))
        with pytest.raises(ContractViolation, match="unsupported measurement type"):
            measure(psi, [meas])
        with pytest.raises(ContractViolation, match="normalized before measurement"):
            measure(k1_state(2, {1: 0.5}), meas)
        with pytest.raises(ContractViolation, match="live in different spaces"):
            measure(uniform_k1(3, [1, 2]), meas)
        with pytest.raises(ContractViolation, match=r"entry \(\(2,\), 0\) is outside"):
            measure(psi, narrow)
        if not povm:  # a valid POVM sums to the identity, so it is complete on its basis
            a = 1 / math.sqrt(2)
            incomplete = ProjectiveMeasurement(((0, k1_state(2, {1: a, 2: -a})),))
            with pytest.raises(ContractViolation, match="not complete on this state"):
                measure(psi, incomplete)


class TestMeasurementValidation:
    def test_projective_rejects_nonorthogonal(self):
        a = 1 / math.sqrt(2)
        with pytest.raises(ValidationError, match="states 0 and 1 are not orthogonal"):
            ProjectiveMeasurement(
                (("a", k1_state(2, {1: 1.0})), ("b", k1_state(2, {1: a, 2: a})))
            )

    def test_projective_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match="state 0 is not normalized"):
            ProjectiveMeasurement((("a", k1_state(2, {1: 0.5})),))

    def test_projective_reports_first_failure_in_row_order(self):
        # pair (0, 2) comes before state 1's norm in row-major order
        a = 1 / math.sqrt(2)
        states = (k1_state(2, {1: 1.0}), k1_state(2, {2: 0.5}), k1_state(2, {1: a, 0: a}))
        with pytest.raises(ValidationError, match="states 0 and 2 are not orthogonal"):
            ProjectiveMeasurement(tuple(enumerate(states)))

    def test_projective_keeps_basis_and_matrix(self):
        meas = ProjectiveMeasurement(
            (("a", k1_state(2, {2: 1.0})), ("b", k1_state(2, {0: -1j})))
        )
        assert meas.basis == (((0,), 0), ((2,), 0))
        assert np.array_equal(meas.V, [[0, 1], [-1j, 0]])

    @pytest.mark.parametrize("orthogonal, in_order, phase", [
        pytest.param(o, s, p, id=str(o) + "-sorted" * s + "-complex" * isinstance(p, complex))
        for s in (False, True) for p in (1.0, np.exp(0.7j)) for o in (True, False)
    ])
    def test_projective_shared_keys_match_copies(self, orthogonal, in_order, phase):
        # effects sharing one key matrix take the one-support path; copies take the scattered
        # one; a unit phase on every row moves the orthonormality Gram from float64 to complex
        keys = np.array([[0, 0], [1, 0], [2, 0], [3, 0]] if in_order else
                        [[3, 0], [1, 0], [2, 0], [0, 0]])
        rows = 0.5 * phase * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                                       [1, -1, -1, 1 if orthogonal else -1]])

        def build(copy):
            return ProjectiveMeasurement(tuple(
                (s, QueryState.from_arrays(3, 1, keys.copy() if copy else keys, row))
                for s, row in enumerate(rows)
            ))

        if not orthogonal:
            for copy in (False, True):
                with pytest.raises(ValidationError, match="states 0 and 3 are not orthogonal"):
                    build(copy)
            return
        shared, copied = build(False), build(True)
        assert shared.basis == copied.basis == tuple(((i,), 0) for i in range(4))
        assert np.array_equal(shared.basis_keys, copied.basis_keys)
        assert np.array_equal(shared.V, copied.V)
        assert np.array_equal(shared.V, rows[:, np.argsort(keys[:, 0])])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_projective_rejects_non_finite(self, bad):
        # NaN passes every "> ATOL" tolerance check, so it must be refused up front
        good = k1_state(2, {2: 1.0})
        for states, i in (((k1_state(2, {1: bad}), good), 0), ((good, k1_state(2, {1: bad})), 1)):
            with pytest.raises(ValidationError, match=f"state {i} has a non-finite amplitude"):
                ProjectiveMeasurement(tuple(enumerate(states)))

    def test_povm_rejects_non_finite(self):
        basis = (((0,), 0), ((1,), 0))
        e0 = np.array([[math.nan, 0], [0, 0.5]])
        with pytest.raises(ValidationError, match="outcome 0 has a non-finite entry"):
            PovmMeasurement(n=1, k=1, basis=basis, elements=((0, e0), (1, np.eye(2) - e0)))

    def test_nan_fails_the_completeness_check(self):
        # a measurement whose matrix went NaN after validation is refused, not measured
        meas = ProjectiveMeasurement(((0, k1_state(2, {1: 1.0})), (1, k1_state(2, {2: 1.0}))))
        object.__setattr__(meas, "V", np.full_like(meas.V, math.nan))
        with pytest.raises(ContractViolation, match="sum to nan"):
            measure(uniform_k1(2, [1, 2]), meas)

    def test_povm_rejects_non_psd(self):
        basis = (((0,), 0), ((1,), 0))
        e0 = np.array([[1.5, 0], [0, -0.5]])
        e1 = np.eye(2) - e0
        with pytest.raises(ValidationError):
            PovmMeasurement(n=1, k=1, basis=basis, elements=((0, e0), (1, e1)))

    @pytest.mark.parametrize("first", ["skew", "nan"])
    def test_povm_reports_the_first_bad_element(self, first):
        # a non-Hermitian element and a non-finite one: the first in element order is named
        bad = {"skew": (np.array([[0.5, 0.3], [0.0, 0.5]]), "is not Hermitian"),
               "nan": (np.diag([math.nan, 0.5]), "has a non-finite entry")}
        elements = tuple((name, bad[name][0]) for name in sorted(bad, key=lambda o: o != first))
        with pytest.raises(ValidationError, match=f"outcome '{first}' {bad[first][1]}"):
            PovmMeasurement(n=1, k=1, basis=(((0,), 0), ((1,), 0)), elements=elements)

    def test_povm_stack_is_read_only_and_backs_the_elements(self):
        basis = (((0,), 0), ((1,), 0))
        e0 = [[0.5, 0.25j], [-0.25j, 0.5]]
        meas = PovmMeasurement(n=1, k=1, basis=basis, elements=(("a", e0), ("b", np.eye(2) - e0)))
        assert meas.M.shape == (2, 2, 2) and meas.M.dtype == complex
        assert np.array_equal(meas.M[0], e0) and np.array_equal(meas.M[1], np.eye(2) - e0)
        assert [o for o, _ in meas.elements] == ["a", "b"]
        for r, (_, m) in enumerate(meas.elements):
            assert np.shares_memory(m, meas.M) and np.array_equal(m, meas.M[r])
        with pytest.raises(ValueError):
            meas.M[0, 0, 0] = 0
        relabeled = meas.relabel(str.upper)
        assert [o for o, _ in relabeled.elements] == ["A", "B"]
        assert [o for o, _ in meas.elements] == ["a", "b"]
        # the checked stack and key matrix are kept, not checked or copied again
        assert relabeled.M is meas.M and relabeled.basis_keys is meas.basis_keys
        assert relabeled.basis == meas.basis
        for r, (_, m) in enumerate(relabeled.elements):
            assert np.shares_memory(m, meas.M) and np.array_equal(m, meas.M[r])

    def test_povm_rejects_bad_sum(self):
        basis = (((0,), 0), ((1,), 0))
        half = 0.5 * np.eye(2)
        with pytest.raises(ValidationError):
            PovmMeasurement(n=1, k=1, basis=basis, elements=((0, half), (1, half * 0.5)))

    def test_povm_rejects_duplicate_basis(self):
        with pytest.raises(ValidationError):
            PovmMeasurement(
                n=1, k=1, basis=(((0,), 0), ((0,), 0)),
                elements=((0, np.eye(2)),),
            )

    def test_povm_matches_projective(self):
        rng = np.random.default_rng(11)
        psi = random_state(rng, n=3, k=2)
        basis = tuple(sorted(psi.support()))
        d = len(basis)
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(raw)
        effects = tuple(
            (c, QueryState(3, 2, {basis[r]: complex(q[r, c]) for r in range(d)}))
            for c in range(d)
        )
        proj = ProjectiveMeasurement(effects)
        povm = PovmMeasurement(
            n=3, k=2, basis=basis,
            elements=tuple(
                (c, np.outer(q[:, c], q[:, c].conj())) for c in range(d)
            ),
        )
        p1 = measure(psi, proj)
        p2 = measure(psi, povm)
        for key in p1:
            assert p1[key] == pytest.approx(p2[key], abs=1e-9)


def reference_measure(psi, meas):
    """measure's projective path on the complex stack: both parts of each overlap in basis order."""
    keys, V = reference_stack(meas)
    v = reference_state_vector(psi, keys)
    re, im = np.cumsum(np.stack(overlap_terms(V, v)), axis=2)[:, :, -1].tolist()
    probs: dict = {}
    for (label, _), a, b in zip(meas.effects, re, im):
        probs[label] = probs.get(label, 0.0) + abs(complex(a, b)) ** 2
    return probs


def assert_measure_matches_reference(psi, meas):
    got = measure(psi, meas)
    assert repr(got) == repr(reference_measure(psi, meas))  # labels, order and every bit


def real_state(rng, n, k, anc, d):
    """A normalized state with real Gaussian amplitudes on a random support of d keys."""
    keys = random_state(rng, n, k, anc, support_size=d).keys
    return QueryState.from_arrays(n, k, keys, rng.normal(size=len(keys)), anc).normalized()


def hadamard_rows(edit=None):
    """The 0.5-scaled Sylvester rows of order 4, real, as edit(rows) leaves them."""
    rows = 0.5 * (1.0 - 2.0 * parity(np.arange(4)[:, None] & np.arange(4)))
    return rows if edit is None else edit(rows)


def put(*entries):
    """An edit that writes value at [r, c] for each (r, c, value), complex if one value is."""
    def edit(rows):
        rows = rows.astype(np.result_type(rows, *(value for _, _, value in entries)))
        for r, c, value in entries:
            rows[r, c] = value
        return rows
    return edit


def scale_row(r, factor):
    def edit(rows):
        rows[r] *= factor
        return rows
    return edit


class TestRealFamilies:
    """A family with no nonzero imaginary part keeps V as float64; measure keeps its bits."""

    @pytest.mark.parametrize("build", [
        *(pytest.param(lambda n=n: build_parity_algorithm(n), id=f"parity{n}") for n in (1, 5, 10)),
        *(pytest.param(lambda b=b: build_hadamard_instance(b)[1], id=f"bv{b}") for b in (1, 4)),
    ])
    def test_hadamard_stack_is_float64_on_the_state_keys(self, build):
        alg = build()
        for meas in (alg.meas, decision_measurement(alg)):
            V = meas.V
            assert V.dtype == np.float64 and V.flags.c_contiguous and not V.flags.writeable
            assert meas.basis_keys is alg.psi.keys  # built in canonical order, kept as it is
            keys, ref = reference_stack(meas)
            assert np.array_equal(keys, meas.basis_keys) and np.array_equal(ref, V)
            assert _state_vector(alg.psi, meas) is alg.psi.amps  # no key alignment

    def test_complex_families_keep_a_complex_stack(self):
        meas = random_projective(np.random.default_rng(3), uniform_k1(3, [0, 1, 2, 3]))
        assert meas.V.dtype == complex and not meas.V.flags.writeable
        assert np.array_equal(meas.V, reference_stack(meas)[1])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_parity_measure_matches_the_complex_stack(self, n):
        alg = build_parity_algorithm(n)
        rng = np.random.default_rng(n)
        inputs = range(1 << n) if n <= 6 else rng.choice(1 << n, size=24, replace=False)
        for v in inputs:
            x = OracleString.from_int(n, int(v))
            assert_measure_matches_reference(apply_oracle(alg.psi, x), alg.meas)

    @pytest.mark.parametrize("b", range(1, 5))
    def test_bv_measure_matches_the_complex_stack(self, b):
        concepts, alg = build_hadamard_instance(b)
        for row in concepts.concepts:
            assert_measure_matches_reference(apply_oracle(alg.psi, row), alg.meas)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "copied"])
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_real_families_match_the_complex_stack(self, seed, shared):
        rng = np.random.default_rng(100 + seed)
        n, k, anc = int(rng.integers(2, 5)), int(rng.integers(1, 4)), 1 + seed % 2
        psi = real_state(rng, n, k, anc, int(rng.integers(2, 24)))
        meas = real_orthonormal_family(rng, psi, shared)
        assert meas.V.dtype == np.float64
        sub = np.sort(rng.permutation(len(psi.keys))[: max(1, len(psi.keys) // 2)])
        part = QueryState.from_arrays(n, k, psi.keys[sub], rng.normal(size=len(sub)), anc)
        for state in (psi, part.normalized(), psi.with_amps(-psi.amps)):
            assert_measure_matches_reference(state, meas)

    def test_negative_zero_imaginary_parts(self):
        # -0.0 is no nonzero imaginary part: V is float64, and no probability changes a bit
        alg = build_parity_algorithm(6)
        psi = with_negative_zero_imag(alg.psi)
        effects = tuple((o, with_negative_zero_imag(s)) for o, s in alg.meas.effects)
        meas = ProjectiveMeasurement(effects)
        assert np.signbit(effects[0][1].amps.imag).all() and meas.V.dtype == np.float64
        for v in range(1 << 6):
            x = OracleString.from_int(6, v)
            assert_measure_matches_reference(apply_oracle(psi, x), meas)
            assert_measure_matches_reference(apply_oracle(alg.psi, x), meas)

    @pytest.mark.parametrize("seed", range(4))
    def test_complex_state_on_a_real_family_takes_the_complex_path(self, seed):
        rng = np.random.default_rng(200 + seed)
        psi = random_state(rng, 3, 2, support_size=10)  # complex amplitudes
        meas = real_orthonormal_family(rng, psi, shared=bool(seed % 2))
        assert meas.V.dtype == np.float64
        assert len(overlap_parts(meas.V, _state_vector(psi, meas))) == 2
        assert_measure_matches_reference(psi, meas)

    @pytest.mark.parametrize("edit, message", [
        (put((2, 1, math.nan)), "state 2 has a non-finite amplitude"),
        (put((3, 0, math.inf), (1, 2, math.nan)), "state 1 has a non-finite amplitude"),
        (put((1, 3, complex(0.5, math.nan))), "state 1 has a non-finite amplitude"),
        (put((3, 3, 0.25)), "states 0 and 3 are not orthogonal"),
        (put((1, 2, 0.0)), "states 0 and 1 are not orthogonal"),
        (put((2, 0, 0.5 + 1e-8)), "states 0 and 2 are not orthogonal"),
        (put((2, 0, 0.6), (2, 1, 0.4)), "states 1 and 2 are not orthogonal"),
        (scale_row(1, 1 + 1e-8), "state 1 is not normalized"),
        (scale_row(3, 1 + 1e-9), "state 3 is not normalized"),
        (put((3, 3, 0.5j)), "states 0 and 3 are not orthogonal"),
    ])
    def test_first_offender_messages(self, edit, message):
        # the whole-matrix checks fail first; the offender is then found in row-major order
        rows = hadamard_rows(edit)
        keys = np.array([[i, 0] for i in range(4)])
        for copy in (False, True):  # the one-support stack and the scattered one
            with pytest.raises(ValidationError, match=f"measurement {message}"):
                ProjectiveMeasurement(tuple(
                    (s, QueryState.from_arrays(3, 1, keys.copy() if copy else keys, row))
                    for s, row in enumerate(rows)))

    @pytest.mark.parametrize("edit", [scale_row(3, 1 + 4e-10), put((0, 0, 0.5 + 5e-10))])
    def test_deviations_within_tolerance_pass(self, edit):
        rows = hadamard_rows(edit)  # every |G - I| entry at most about 1e-9
        meas = ProjectiveMeasurement(tuple(
            (s, QueryState.from_arrays(3, 1, np.array([[i, 0] for i in range(4)]), row))
            for s, row in enumerate(rows)))
        assert meas.V.dtype == np.float64 and np.array_equal(meas.V, rows)


class TestQueryStateValidation:
    def test_zero_amplitudes_dropped(self):
        psi = QueryState(2, 1, {((1,), 0): 1.0, ((2,), 0): 0.0})
        assert ((2,), 0) not in psi.amplitudes

    def test_bad_tuple_length(self):
        with pytest.raises(ContractViolation):
            QueryState(2, 2, {((1,), 0): 1.0})

    def test_entry_out_of_range(self):
        with pytest.raises(ContractViolation):
            QueryState(2, 1, {((3,), 0): 1.0})

    def test_bad_ancilla(self):
        with pytest.raises(ContractViolation):
            QueryState(2, 1, {((1,), 1): 1.0})

    @pytest.mark.parametrize("field", ["n", "k", "ancilla_dim"])
    @pytest.mark.parametrize("value", [2.0, True])
    def test_dimensions_must_be_plain_ints(self, field, value):
        dims = {"n": 2, "k": 1, "ancilla_dim": 2, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            QueryState(dims["n"], dims["k"], {((1,), 0): 1.0}, dims["ancilla_dim"])
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            PovmMeasurement(basis=(((1,), 0),), elements=((0, np.eye(1)),), **dims)

    def test_normalize_zero_state(self):
        with pytest.raises(ValidationError):
            QueryState(2, 1, {}).normalized()

    def test_duplicate_key_on_the_array_path(self):
        with pytest.raises(ValidationError, match=r"duplicate state entry \(\(1, 2\), 0\)"):
            QueryState.from_arrays(2, 2, [[1, 2, 0], [2, 1, 0], [1, 2, 0]], [0.5, 0.5, 0.5])
        # the same tuple under another ancilla label is another key
        psi = QueryState.from_arrays(2, 2, [[1, 2, 0], [1, 2, 1]], [0.6, 0.8], ancilla_dim=2)
        assert psi.amplitudes == {((1, 2), 0): 0.6, ((1, 2), 1): 0.8}

    @pytest.mark.parametrize("keys", [
        [[1.5, 0]], np.array([[1.7, 0.0]]), [["1", 0]], [[True, 0]], np.array([[True, False]]),
    ], ids=["float-list", "float-array", "str-list", "bool-list", "bool-array"])
    def test_array_path_refuses_non_integer_keys(self, keys):
        # an int64 cast would read each as the key ((1,), 0); the dict path refuses 1.0 and True
        with pytest.raises(ContractViolation, match="not an integer|is not integer"):
            QueryState.from_arrays(2, 1, keys, [1.0])

    @pytest.mark.parametrize("keys, big", [([[2**70, 0]], 2**70), ([[1, 0], [1, -(2**64)]], -(2**64))],
                             ids=["big", "negative"])
    def test_array_path_refuses_keys_beyond_int64(self, keys, big):
        # the int64 cast alone raises numpy's bare OverflowError
        with pytest.raises(ContractViolation, match=f"key entry {big} is beyond the int64 range"):
            QueryState.from_arrays(3, 1, keys, [1.0] * len(keys))

    def test_array_path_takes_integer_keys(self):
        for keys in ([[1, 0]], [(1, 0)], [[np.int32(1), 0]], np.array([[1, 0]], dtype=np.uint8)):
            assert QueryState.from_arrays(2, 1, keys, [1.0]).amplitudes == {((1,), 0): 1.0}

    def test_arrays_are_read_only(self):
        psi = QueryState(2, 2, {((2, 1), 0): 0.6, ((1, 1), 0): 0.8j})
        assert psi.index.tolist() == [[2, 1], [1, 1]] and psi.ancilla.tolist() == [0, 0]
        assert psi.amps.tolist() == [0.6, 0.8j]
        for a in (psi.keys, psi.index, psi.ancilla, psi.amps):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_canonical_entry_order(self):
        psi = QueryState(2, 2, {((2, 1), 0): 0.5, ((0, 0), 0): 0.5, ((1, 2), 0): 0.5, ((1, 0), 0): 0.5})
        assert [t for t, _, _ in psi.entries()] == [(0, 0), (1, 0), (1, 2), (2, 1)]


class TestWithAmps:
    def test_shares_the_checked_keys(self):
        psi = random_state(np.random.default_rng(0), 4, 2, ancilla_dim=2)
        phi = psi.with_amps(-psi.amps)
        assert phi.keys is psi.keys and (phi.n, phi.k, phi.ancilla_dim) == (4, 2, 2)
        assert np.array_equal(phi.amps, -psi.amps) and not phi.amps.flags.writeable

    def test_drops_zero_amplitudes(self):
        phi = uniform_k1(3, [1, 2, 3]).with_amps([0.0, 1.0, 0.0])
        assert phi.amplitudes == {((2,), 0): 1.0}
        for a in (phi.keys, phi.amps):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation, match="amplitudes for 2 keys"):
            uniform_k1(3, [1, 2]).with_amps([1.0])

    def test_derived_states_keep_the_parent_keys(self):
        rng = np.random.default_rng(1)
        psi = random_state(rng, 5, 3)
        x = OracleString(tuple(int(b) for b in rng.integers(0, 2, 5)))
        assert apply_oracle(psi, x).keys is psi.keys
        assert psi.normalized().keys is psi.keys


class TestWithRows:
    def test_shares_the_checked_keys_read_only(self):
        psi = random_state(np.random.default_rng(2), 4, 2, ancilla_dim=2)
        rows = np.stack([psi.amps, -psi.amps, 1j * psi.amps])
        states = psi.with_rows(rows)
        assert len(states) == 3
        for phi, row in zip(states, rows):
            assert phi.keys is psi.keys and (phi.n, phi.k, phi.ancilla_dim) == (4, 2, 2)
            assert phi == psi.with_amps(row) and np.array_equal(phi.amps, row)
            with pytest.raises(ValueError):
                phi.amps[0] = 0
        rows[0] = 0  # the states hold a copy
        assert np.array_equal(states[0].amps, psi.amps)

    def test_row_with_a_zero_drops_it(self):
        psi = uniform_k1(3, [1, 2, 3])
        dense, sparse = psi.with_rows([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        assert dense.keys is psi.keys
        assert sparse == psi.with_amps([0.0, 1.0, 0.0])
        assert sparse.amplitudes == {((2,), 0): 1.0} and len(sparse.keys) == 1

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (1, 2, 2)])
    def test_refuses_a_matrix_of_the_wrong_shape(self, shape):
        with pytest.raises(ContractViolation, match="amplitude rows for 2 keys"):
            uniform_k1(3, [1, 2]).with_rows(np.ones(shape))


def test_overlap_terms_match_python_complex_product():
    # numpy's own conj(a) * b fuses multiply-add on some CPUs and then differs in the last bit
    rng = np.random.default_rng(17)
    a, b = (rng.normal(size=(2, 10_000)) * 2.0 ** rng.integers(-20, 20, size=(2, 10_000))
            for _ in "ab")
    a, b = a[0] + 1j * a[1], b[0] + 1j * b[1]
    want = np.array([x.conjugate() * y for x, y in zip(a.tolist(), b.tolist())])
    re, im = overlap_terms(a, b)
    assert re.tobytes() == want.real.tobytes() and im.tobytes() == want.imag.tobytes()


def inplace_fwht(v):
    """The in-place radix-2 butterflies, span 1, 2, 4, ...: the reference fwht must match."""
    v = np.array(v, dtype=np.result_type(v, np.float64))
    h = 1
    while h < v.shape[-1]:
        pairs = v.reshape(-1, 2, h)
        top = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(top, pairs[:, 1], out=pairs[:, 1])
        h *= 2
    return v


class TestFwht:
    @pytest.mark.parametrize("bits", range(17))
    def test_bit_identical_to_inplace_butterflies(self, bits):
        rng = np.random.default_rng(bits)
        for shape in ((1 << bits,), (3, 1 << bits)):
            # mixed magnitudes, so sums round; signed zeros, so -0.0 + -0.0 must stay -0.0
            x = rng.normal(size=shape) * 2.0 ** rng.integers(-40, 40, size=shape)
            x[rng.uniform(size=shape) < 0.2] = 0.0
            x[rng.uniform(size=shape) < 0.2] = -0.0
            z = x + 1j * x[..., ::-1]
            for a in (x, z):
                got = fwht(a)
                assert got.dtype == a.dtype and got.shape == a.shape
                assert got.tobytes() == inplace_fwht(a).tobytes()

    def test_all_negative_zeros_keep_their_sign(self):
        assert fwht(np.full(8, -0.0)).tobytes() == inplace_fwht(np.full(8, -0.0)).tobytes()

    @pytest.mark.parametrize("bits", range(9))
    def test_matches_sylvester_hadamard_matrix(self, bits):
        hadamard = np.ones((1, 1))
        for _ in range(bits):
            hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
        rng = np.random.default_rng(100 + bits)
        x = rng.normal(size=(2, 1 << bits)) + 1j * rng.normal(size=(2, 1 << bits))
        np.testing.assert_allclose(fwht(x), x @ hadamard.T, rtol=0, atol=1e-9)
        np.testing.assert_allclose(fwht(x.real[0]), hadamard @ x.real[0], rtol=0, atol=1e-9)

    def test_integer_input_is_transformed_as_float(self):
        assert fwht(np.array([1, 0, 0, 0])).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_plain_list_input(self):
        assert fwht([1, 0, 0, 0]).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_input_left_unchanged(self):
        x = np.arange(8.0)
        fwht(x)
        assert x.tolist() == list(range(8))

    @pytest.mark.parametrize("size", [0, 3, 6, 12, 24, 1000])
    def test_refuses_length_not_a_power_of_two(self, size):
        with pytest.raises(ContractViolation, match=f"power-of-two length, got {size}$"):
            fwht(np.ones((2, size)))


@pytest.mark.parametrize("seed", range(4))
def test_povm_measure_sums_python_products_in_basis_order(seed):
    # no BLAS: w_a = sum_b conj(M_ba) v_b, then Re sum_a conj(v_a) w_a, in Python's arithmetic
    rng = np.random.default_rng(seed)
    psi = random_state(rng, 4, 2, support_size=6 + seed)
    meas = random_two_outcome_povm(rng, psi)
    v = [psi.amplitudes[key] for key in meas.basis]
    got = measure(psi, meas)
    for label, mat in meas.elements:
        total = 0.0
        for a, va in enumerate(v):
            w = 0j
            for b, vb in enumerate(v):
                w += complex(mat[b, a]).conjugate() * vb
            total += (va.conjugate() * w).real
        assert same_bits(got[label], max(total, 0.0))


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        psi = random_state(rng, n=4, k=2, ancilla_dim=2)
        path = tmp_path / "state.json"
        save_state(psi, path)
        back = load_state(path)
        assert back.amplitudes == psi.amplitudes
        assert (back.n, back.k, back.ancilla_dim) == (psi.n, psi.k, psi.ancilla_dim)

    def test_file_bytes_are_the_stdlib_json_text(self, tmp_path):
        psi = random_state(np.random.default_rng(8), n=3, k=2, ancilla_dim=2)
        path = tmp_path / "state.json"
        save_state(psi, path)
        want = json.dumps(state_to_dict(psi), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode()

    def test_schema_fields(self):
        data = state_to_dict(uniform_k1(2, [0, 1]))
        assert set(data) == {"n", "k", "ancilla_dim", "entries"}
        assert all(set(e) == {"tuple", "a", "re", "im"} for e in data["entries"])

    def test_duplicate_entries_rejected(self):
        data = {
            "n": 1, "k": 1, "ancilla_dim": 1,
            "entries": [
                {"tuple": [1], "a": 0, "re": 1.0, "im": 0.0},
                {"tuple": [1], "a": 0, "re": 0.5, "im": 0.0},
            ],
        }
        with pytest.raises(ValidationError):
            state_from_dict(data)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_state(path)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            state_from_dict({"n": 1, "k": 1})

    def test_json_loaders_share_one_reader(self, tmp_path):
        # load_state and load_plan report bad JSON and bad bytes alike
        path = tmp_path / "bad.json"
        path.write_text('{\n  "n": 1,\n  oops')
        for load in (load_state, load_plan):
            with pytest.raises(ParseError, match=r"bad.json: line 3 column 3: Expecting property"):
                load(path)
        path.write_bytes(b'{"n": \xff}')
        for load in (load_state, load_plan):
            with pytest.raises(ParseError, match=r"bad.json: byte 7 is not UTF-8 text$"):
                load(path)


def _strings(n_max=4):
    return st.integers(1, n_max).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
    )


@st.composite
def state_and_inputs(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    x = OracleString.from_int(n, draw(st.integers(0, (1 << n) - 1)))
    y = OracleString.from_int(n, draw(st.integers(0, (1 << n) - 1)))
    psi = random_state(np.random.default_rng(seed), n, k)
    return psi, x, y


@settings(max_examples=150, deadline=None)
@given(state_and_inputs())
def test_oracle_involution(case):
    psi, x, _ = case
    assert apply_oracle(apply_oracle(psi, x), x).amplitudes == psi.amplitudes


@settings(max_examples=150, deadline=None)
@given(state_and_inputs())
def test_oracle_composition(case):
    psi, x, y = case
    twice = apply_oracle(apply_oracle(psi, x), y)
    once = apply_oracle(psi, x ^ y)
    assert twice.amplitudes == once.amplitudes


@settings(max_examples=150, deadline=None)
@given(state_and_inputs())
def test_oracle_preserves_norm_exactly(case):
    psi, x, _ = case
    assert apply_oracle(psi, x).squared_norm() == psi.squared_norm()


@settings(max_examples=100, deadline=None)
@given(state_and_inputs(), st.integers(0, 2**32 - 1))
def test_measure_sums_to_one(case, meas_seed):
    psi, x, _ = case
    meas = random_projective(np.random.default_rng(meas_seed), psi, binary_labels=False)
    probs = measure(apply_oracle(psi, x), meas)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(p >= -1e-12 for p in probs.values())


@settings(max_examples=100, deadline=None)
@given(state_and_inputs())
def test_serialization_round_trip_property(case):
    psi, _, _ = case
    data = json.loads(json.dumps(state_to_dict(psi)))
    assert state_from_dict(data).amplitudes == psi.amplitudes


# --- array kernels against the per-tuple loops they replaced -----------------


def ref_weights(psi):
    acc = [0.0] * psi.n
    for (t, _a), amp in psi.amplitudes.items():
        p = abs(amp) ** 2
        mask = odd_mask(t)
        for j in set(t):
            if j and mask >> (j - 1) & 1:
                acc[j - 1] += p
    return acc


def ref_query_weight(psi, j):
    w = 0.0
    for (t, _a), amp in psi.amplitudes.items():
        if odd_mask(t) >> (j - 1) & 1:
            w += abs(amp) ** 2
    return w


def ref_overlap(psi, x, y):
    z = (x ^ y).to_int()
    total = 0.0
    for (t, _a), amp in psi.amplitudes.items():
        total += (1 - 2 * parity(z & odd_mask(t))) * abs(amp) ** 2
    return total


def ref_profile(psi):
    p = [0.0] * (psi.n + 1) ** psi.k
    for (t, _a), amp in psi.amplitudes.items():
        p[tuple_to_position(t, psi.n)] += abs(amp) ** 2
    return p


def ref_oracle(psi, x):
    xi = x.to_int()
    return {
        (t, a): amp * (1 - 2 * parity(xi & odd_mask(t))) for (t, a), amp in psi.amplitudes.items()
    }


def same_bits(got, want) -> bool:
    """Equal as float or complex arrays down to the sign of zero."""
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


def same_dict(got: QueryState, want: dict) -> bool:
    return list(got.amplitudes) == list(want) and same_bits(
        list(got.amplitudes.values()), list(want.values())
    )


def kernel_states():
    """Seeded states up to n = 120, with repeated indices and two ancilla labels."""
    states = []
    for i, (n, k, anc) in enumerate([(3, 3, 2), (4, 4, 1), (5, 2, 2), (100, 2, 2), (120, 4, 1),
                                     (100, 1, 1), (2, 4, 2), (7, 3, 1)]):
        states.append(random_state(np.random.default_rng([31, i]), n, k, anc, support_size=24))
    # out of canonical order, repeated indices, odd multiplicities cancelling
    amps = {((2, 2, 3), 1): 0.3 - 0.1j, ((5, 1, 0), 0): -0.2j, ((1, 1, 1), 0): 0.4,
            ((0, 4, 4), 1): -0.5 + 0.2j, ((3, 2, 2), 0): 0.1 + 0.3j, ((2, 2, 3), 0): -0.35}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    states.append(QueryState(5, 3, {key: a / norm for key, a in amps.items()}, 2))
    return states


@pytest.mark.parametrize("psi", kernel_states(), ids=lambda psi: f"n{psi.n}-k{psi.k}")
def test_kernels_bit_identical_to_tuple_loops(psi):
    rng = np.random.default_rng(psi.n * 10 + psi.k)
    assert same_bits(weight_profile(psi).weights, ref_weights(psi))
    for j in range(1, psi.n + 1):
        assert same_bits(query_weight(psi, j), ref_query_weight(psi, j))
    if (psi.n + 1) ** psi.k <= 1 << 20:
        assert same_bits(amplitude_profile(psi).values, ref_profile(psi))
    for _ in range(5):
        x, y = (OracleString(tuple(int(b) for b in rng.integers(0, 2, psi.n))) for _ in "xy")
        assert same_bits(oracle_pair_overlap(psi, x, y), ref_overlap(psi, x, y))
        assert same_dict(apply_oracle(psi, x), ref_oracle(psi, x))


def test_normalized_bit_identical_to_python_division():
    edge = {((1, 2), 0): complex(-0.5, -0.0), ((2, 2), 0): complex(-0.0, 0.5),
            ((0, 1), 0): complex(0.3, -0.0), ((2, 0), 0): -3.5}
    for raw in [edge] + [s.amplitudes for s in kernel_states()]:
        scaled = {key: 3.0 * a for key, a in raw.items()}
        n = max(max(t) for t, _a in scaled) + 1
        k = len(next(iter(scaled))[0])
        psi = QueryState(n, k, scaled, 2)
        norm = math.sqrt(sum(abs(a) ** 2 for a in scaled.values()))
        assert same_bits(psi.squared_norm(), sum(abs(a) ** 2 for a in scaled.values()))
        assert same_dict(psi.normalized(), {key: a / norm for key, a in scaled.items()})
