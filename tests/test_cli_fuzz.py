"""Malformed input files through the CLI: every run ends in a documented exit code.

Generated state, truth-table and concept files go through verify-bound,
extract-set and learn --learner state in process.  No exception may escape
main, the exit code is one of 0-3, and a validation (2) or I/O (3) exit
prints exactly one stderr line starting with "error:".  Every generated size
is small (n <= 6, k <= 3, at most five concepts), so even a broken guard
cannot allocate much.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonadapt.cli import main

SMALL = st.integers(-2, 6)
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3), st.lists(SMALL, max_size=2)
)
NUMBER = st.one_of(st.floats(-2, 2), st.floats(), st.sampled_from([1e308, -1.5e308]), JUNK)
ENTRY = st.fixed_dictionaries({}, optional={
    "tuple": st.one_of(st.lists(st.one_of(SMALL, JUNK), max_size=3), JUNK),
    "a": st.one_of(st.integers(-1, 2), JUNK),
    "re": NUMBER,
    "im": NUMBER,
})
STATE_RECORD = st.fixed_dictionaries({}, optional={
    "n": st.one_of(SMALL, JUNK),
    "k": st.one_of(st.integers(-1, 3), JUNK),
    "ancilla_dim": st.one_of(st.integers(-1, 2), JUNK),
    "entries": st.one_of(st.lists(ENTRY, max_size=4), JUNK),
})
BAD = {
    "state.json": st.one_of(
        STATE_RECORD.map(json.dumps), JUNK.map(json.dumps), st.text(max_size=20)
    ),
    "table.txt": st.one_of(
        st.tuples(st.integers(-2, 4), st.text("01x", max_size=17)).map("{0[0]}\n{0[1]}".format),
        st.text(max_size=20),
    ),
    "concepts.txt": st.one_of(
        st.tuples(st.integers(-1, 4), st.integers(-1, 5), st.lists(st.text("01", max_size=5),
                                                                  max_size=5))
        .map(lambda t: f"{t[0]} {t[1]}\n" + "".join(r + "\n" for r in t[2])),
        st.text(max_size=20),
    ),
}


def good_files(n):
    """A normalized state, a truth table and a concept class, all on n bits."""
    state = st.integers(1, 2).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, n), min_size=k, max_size=k), min_size=1, max_size=4,
        unique_by=tuple,
    ).map(lambda ts: json.dumps({"n": n, "k": k, "entries": [
        {"tuple": t, "a": 0, "re": len(ts) ** -0.5, "im": 0.0} for t in ts
    ]})))
    table = st.text("01", min_size=1 << n, max_size=1 << n).map(f"{n}\n".__add__)
    concepts = st.lists(st.text("01", min_size=n, max_size=n), min_size=1, max_size=5).map(
        lambda rows: f"{n} {len(rows)}\n" + "".join(r + "\n" for r in rows)
    )
    return {"state.json": state, "table.txt": table, "concepts.txt": concepts}


@st.composite
def input_files(draw):
    """Well-formed files on a common n, with at most one of them replaced by a malformed one."""
    good = good_files(draw(st.integers(1, 4)))
    broken = draw(st.sampled_from([None, *BAD]))
    return {name: draw(BAD[name] if name == broken else good[name]) for name in BAD}


COMMANDS = {
    "verify-bound": ["verify-bound", "--in", "state.json", "--table", "table.txt"],
    "extract-set": ["extract-set", "--in", "state.json", "--concepts", "concepts.txt", "--k", "2"],
    "learn": ["learn", "--learner", "state", "--in", "state.json", "--concepts", "concepts.txt"],
}


def _one_entry_state(re):
    return json.dumps({"n": 2, "k": 1, "entries": [{"tuple": [1], "a": 0, "re": re, "im": re}]})


UNIFORM = json.dumps({"n": 2, "k": 1, "entries": [
    {"tuple": [i], "a": 0, "re": 0.5 ** 0.5, "im": 0.0} for i in (1, 2)
]})
UNNORMALIZED = _one_entry_state(0.5)
OVERFLOWING = _one_entry_state(1e308)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    files=input_files(),
    extra=st.sampled_from([[], ["--k", "2"], ["--k", "-1"], ["--eps", "0.1"], ["--eps", "0.6"]]),
)
@example(command="verify-bound", extra=[],
         files={"state.json": UNIFORM, "table.txt": "-1\n01", "concepts.txt": ""})
@example(command="verify-bound", extra=[],
         files={"state.json": OVERFLOWING, "table.txt": "2\n0110", "concepts.txt": ""})
@example(command="extract-set", extra=["--k", "2"],
         files={"state.json": OVERFLOWING, "table.txt": "", "concepts.txt": "2 1\n01"})
@example(command="learn", extra=[],
         files={"state.json": UNNORMALIZED, "table.txt": "", "concepts.txt": "2 1\n01"})
def test_malformed_files_exit_cleanly(command, files, extra):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp, name) for name in files}
        for name, text in files.items():
            paths[name].write_text(text, encoding="utf-8")
        argv = [str(paths.get(a, a)) for a in COMMANDS[command]] + extra
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
