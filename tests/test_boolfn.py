"""Truth-table functions, dependence witnesses, file format."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadapt import (
    ContractViolation,
    ParseError,
    TotalFunction,
    ValidationError,
    build_function,
    load_function,
    save_function,
    sensitive_witness,
)
from nonadapt.boolfn import MAX_N
from tests.conftest import S

N20 = 1 << 20


@pytest.fixture(scope="module")
def wide():
    """n = 20 AND, dictator x1 and parity, built once."""
    return {
        "and": build_function("and", 20),
        "dictator": build_function("from_table", 20, np.arange(N20) & 1),
        "parity": build_function("parity", 20),
    }


class TestBuildFunction:
    def test_parity_table(self):
        np.testing.assert_array_equal(build_function("parity", 2).table, [0, 1, 1, 0])

    def test_and_table(self):
        np.testing.assert_array_equal(build_function("and", 2).table, [0, 0, 0, 1])

    def test_or_table(self):
        np.testing.assert_array_equal(build_function("or", 2).table, [0, 1, 1, 1])

    def test_majority_table(self):
        # independent enumeration: majority of 3 bits is 1 iff popcount >= 2
        expected = [1 if bin(i).count("1") >= 2 else 0 for i in range(8)]
        np.testing.assert_array_equal(build_function("majority", 3).table, expected)
        np.testing.assert_array_equal(build_function("majority", 3).table,
                                      [0, 0, 0, 1, 0, 1, 1, 1])

    def test_majority_needs_odd_n(self):
        with pytest.raises(ValidationError):
            build_function("majority", 4)

    def test_from_table(self):
        f = build_function("from_table", 2, table=[1, 0, 0, 1])
        np.testing.assert_array_equal(f.table, [1, 0, 0, 1])
        with pytest.raises(ValidationError):
            build_function("from_table", 2, table=[0, 1])
        # entries are checked, not truncated by int()
        with pytest.raises(ValidationError, match="table entries must be 0/1"):
            build_function("from_table", 1, [0.5, 1.7])
        with pytest.raises(ValidationError):
            build_function("from_table", 2)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            build_function("xor3", 2)

    @pytest.mark.parametrize("n", [0, -1, MAX_N + 1, 40, 2.0, "3", True, None])
    def test_n_checked_before_any_table(self, monkeypatch, n):
        # the guard alone refuses: nothing of size 2^n is ever built
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built before n was checked")

        monkeypatch.setattr(np, "arange", no_table)
        monkeypatch.setattr(np, "array", no_table)
        for kind in ("parity", "and", "or", "majority", "from_table"):
            with pytest.raises(ValidationError, match=r"n must be an int in \[1, 20\]"):
                build_function(kind, n, table=[0, 1])
        with pytest.raises(ValidationError, match=r"n must be an int in \[1, 20\]"):
            TotalFunction(n, [0, 1])


class TestTotalFunction:
    def test_table_length_enforced(self):
        with pytest.raises(ValidationError):
            TotalFunction(2, (0, 1, 1))
        with pytest.raises(ValidationError):
            TotalFunction(2, (0, 1, 1, 2))
        with pytest.raises(ValidationError):
            TotalFunction(2, ("0", "1", "1", "0"))

    def test_table_is_read_only_copy(self):
        source = np.array([0, 1, 1, 0])
        f = TotalFunction(2, source)
        assert f.table.dtype == np.uint8 and not f.table.flags.writeable
        with pytest.raises(ValueError):
            f.table[0] = 1
        source[0] = 1  # the caller's array is copied, not frozen or shared
        np.testing.assert_array_equal(f.table, [0, 1, 1, 0])

    def test_equality_by_table(self):
        assert TotalFunction(2, (0, 1, 1, 0)) == build_function("parity", 2)
        assert TotalFunction(2, (0, 1, 1, 1)) != build_function("parity", 2)
        assert TotalFunction(1, (0, 1)) != TotalFunction(2, (0, 0, 1, 1))

    def test_relevant_variables(self, wide):
        assert build_function("parity", 3).relevant_variables() == (1, 2, 3)
        assert build_function("and", 2).relevant_variables() == (1, 2)
        assert TotalFunction(2, (1, 1, 1, 1)).relevant_variables() == ()
        # f(x) = x_2 ignores variable 1
        f = TotalFunction(2, (0, 0, 1, 1))
        assert f.relevant_variables() == (2,)
        assert wide["and"].relevant_variables() == tuple(range(1, 21))
        assert wide["parity"].relevant_variables() == tuple(range(1, 21))
        assert wide["dictator"].relevant_variables() == (1,)


    @pytest.mark.parametrize("n", range(1, 13))
    def test_relevant_variables_match_the_witnesses(self, n):
        # tables that read a random subset of the variables, so some are ignored
        rng = np.random.default_rng(n)
        x = np.arange(1 << n)
        for _ in range(6):
            mask = int((rng.integers(0, 2, size=n) << np.arange(n)).sum())
            f = TotalFunction(n, rng.integers(0, 2, size=1 << n)[x & mask])
            want = tuple(j for j in range(1, n + 1) if sensitive_witness(f, j) is not None)
            assert f.relevant_variables() == want
        constant = TotalFunction(n, np.ones(1 << n, dtype=np.uint8))
        assert constant.relevant_variables() == ()

    def test_relevant_variables_match_the_witnesses_at_n20(self, wide):
        for f in wide.values():
            want = tuple(j for j in range(1, 21) if sensitive_witness(f, j) is not None)
            assert f.relevant_variables() == want


class TestSensitiveWitness:
    def test_parity_smallest_witness(self, wide):
        f = build_function("parity", 2)
        assert sensitive_witness(f, 1) == S("00")
        for j in range(1, 21):
            assert sensitive_witness(wide["parity"], j) == 0

    def test_constant_has_none(self, wide):
        f = TotalFunction(2, (1, 1, 1, 1))
        assert sensitive_witness(f, 1) is None
        assert sensitive_witness(f, 2) is None
        # nor has a variable the n = 20 dictator x1 ignores; x1 itself flips at input 0
        assert sensitive_witness(wide["dictator"], 1) == 0
        for j in range(2, 21):
            assert sensitive_witness(wide["dictator"], j) is None

    def test_and_witness_scans_integer_order(self, wide):
        f = build_function("and", 2)
        # 00 -> 01 leaves AND at 0, so the first witness for j=2 is 10
        assert sensitive_witness(f, 2) == S("10")
        for j in range(1, 21):  # AND flips only between all-ones and all-ones-but-j
            want = (N20 - 1) ^ (1 << (j - 1))
            assert sensitive_witness(wide["and"], j) == want

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
            assert type(w) is int and table[w] != table[w ^ mask]
            assert f.value(w) == table[w] and f.value(w ^ mask) == table[w ^ mask]
            assert w == min(flips)


def test_file_round_trip(tmp_path):
    f = build_function("majority", 3)
    path = tmp_path / "maj3.txt"
    save_function(f, path)
    assert load_function(path) == f
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

    @pytest.mark.parametrize("row, message", [
        ("0\u00e91", "expected 4 characters, got 3"),  # 4 bytes in UTF-8, 3 characters
        ("0\u00e911", "position 2"),
        ("011\U0001f600", "position 4"),
        ("01 1", "position 3"),
    ])
    def test_non_ascii_counted_in_characters(self, tmp_path, row, message):
        p = tmp_path / "f.txt"
        p.write_text(f"2\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message):
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
