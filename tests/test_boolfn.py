"""Truth-table functions, dependence witnesses, file format."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadapt import (
    ContractViolation,
    OracleString,
    ParseError,
    TotalFunction,
    ValidationError,
    build_function,
    load_function,
    save_function,
    sensitive_witness,
)


class TestBuildFunction:
    def test_parity_table(self):
        assert build_function("parity", 2).table == (0, 1, 1, 0)

    def test_and_table(self):
        assert build_function("and", 2).table == (0, 0, 0, 1)

    def test_or_table(self):
        assert build_function("or", 2).table == (0, 1, 1, 1)

    def test_majority_table(self):
        # independent enumeration: majority of 3 bits is 1 iff popcount >= 2
        expected = tuple(1 if bin(i).count("1") >= 2 else 0 for i in range(8))
        assert build_function("majority", 3).table == expected
        assert build_function("majority", 3).table == (0, 0, 0, 1, 0, 1, 1, 1)

    def test_majority_needs_odd_n(self):
        with pytest.raises(ValidationError):
            build_function("majority", 4)

    def test_from_table(self):
        f = build_function("from_table", 2, table=[1, 0, 0, 1])
        assert f.table == (1, 0, 0, 1)
        with pytest.raises(ValidationError):
            build_function("from_table", 2, table=[0, 1])
        with pytest.raises(ValidationError):
            build_function("from_table", 2)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            build_function("xor3", 2)


class TestTotalFunction:
    def test_value_and_value_at_agree(self):
        f = build_function("majority", 3)
        for v in range(8):
            assert f.value_at(v) == f.value(OracleString.from_int(3, v))

    def test_table_length_enforced(self):
        with pytest.raises(ValidationError):
            TotalFunction(2, (0, 1, 1))
        with pytest.raises(ValidationError):
            TotalFunction(2, (0, 1, 1, 2))

    def test_is_constant(self):
        assert TotalFunction(1, (0, 0)).is_constant()
        assert not build_function("or", 2).is_constant()

    def test_relevant_variables(self):
        assert build_function("parity", 3).relevant_variables() == (1, 2, 3)
        assert build_function("and", 2).relevant_variables() == (1, 2)
        assert TotalFunction(2, (1, 1, 1, 1)).relevant_variables() == ()
        # f(x) = x_2 ignores variable 1
        f = TotalFunction(2, (0, 0, 1, 1))
        assert f.relevant_variables() == (2,)


class TestSensitiveWitness:
    def test_parity_smallest_witness(self):
        f = build_function("parity", 2)
        assert sensitive_witness(f, 1) == OracleString.from_string("00")

    def test_constant_has_none(self):
        f = TotalFunction(2, (1, 1, 1, 1))
        assert sensitive_witness(f, 1) is None
        assert sensitive_witness(f, 2) is None

    def test_and_witness_scans_integer_order(self):
        f = build_function("and", 2)
        # 00 -> 01 leaves AND at 0, so the first witness for j=2 is 10
        assert sensitive_witness(f, 2) == OracleString.from_string("10")

    def test_out_of_range(self):
        with pytest.raises(ContractViolation):
            sensitive_witness(build_function("parity", 2), 3)
        with pytest.raises(ContractViolation):
            sensitive_witness(build_function("parity", 2), 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_witness_flips_value_and_is_minimal(n, data):
    table = tuple(data.draw(st.integers(0, 1)) for _ in range(1 << n))
    f = TotalFunction(n, table)
    for j in range(1, n + 1):
        w = sensitive_witness(f, j)
        mask = 1 << (j - 1)
        flips = [x for x in range(1 << n) if table[x] != table[x ^ mask]]
        if w is None:
            assert not flips
        else:
            v = w.to_int()
            assert table[v] != table[v ^ mask]
            assert v == min(flips)


def test_file_round_trip(tmp_path):
    f = build_function("majority", 3)
    path = tmp_path / "maj3.txt"
    save_function(f, path)
    assert load_function(path).table == f.table
    assert path.read_text() == "3\n00010111\n"


class TestParseErrors:
    def test_bad_n_line(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("two\n0101\n")
        with pytest.raises(ParseError, match="line 1"):
            load_function(p)

    def test_wrong_length(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("2\n010\n")
        with pytest.raises(ParseError, match="expected 4"):
            load_function(p)

    def test_bad_character_position(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("2\n01x1\n")
        with pytest.raises(ParseError, match="position 3"):
            load_function(p)

    @pytest.mark.parametrize("n", ["-1", "0", "21", "1000000000"])
    def test_n_out_of_range_before_any_shift(self, tmp_path, n):
        p = tmp_path / "f.txt"
        p.write_text(f"{n}\n01\n")
        with pytest.raises(ValidationError, match=f"line 1: n must be in \\[1, 20\\], got {n}"):
            load_function(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("2\n")
        with pytest.raises(ParseError):
            load_function(p)
