"""Byte-for-byte golden corpus of CLI runs: stdout and exit code per case.

Each case runs cli.main in-process from tests/golden/inputs, so file
arguments are relative and every run id is stable.  Every JSON stdout must
also be what json.dumps(indent=2, sort_keys=True) writes for its own
content, so a corpus regenerated through a drifted renderer fails.  To
regenerate after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``: it rewrites every case and
prints the name of each one whose stdout or exit code changed.  Review the
diff under tests/golden/.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nonadapt import learning
from nonadapt.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
SRC = Path(__file__).resolve().parent.parent / "src"

CASES = {
    "parity-n5": ["parity", "--n", "5"],
    "parity-n14": ["parity", "--n", "14"],
    "vandam-n6-json": ["vandam", "--n", "6", "--seed", "5"],
    "vandam-n6-csv": ["vandam", "--n", "6", "--format", "csv"],
    "vandam-n16-k8": ["vandam", "--n", "16", "--k", "8"],
    "vandam-n62": ["vandam", "--n", "62"],
    "bv-b3": ["bv", "--b", "3"],
    "bv-b4": ["bv", "--b", "4"],
    "verify-bound-parity4": ["verify-bound", "--in", "parity4.json", "--table", "parity4.txt"],
    "verify-bound-random": ["verify-bound", "--in", "random-n4-k2.json", "--table", "table4.txt"],
    "learn-bv-b3": ["learn", "--learner", "bv", "--b", "3"],
    "learn-vandam-n4-k3": ["learn", "--learner", "vandam", "--n", "4", "--k", "3",
                           "--eps", "0.0625"],
    "learn-vandam-n3-k2": ["learn", "--learner", "vandam", "--n", "3", "--k", "2",
                           "--eps", "0.0625"],
    "learn-vandam-n8-k4": ["learn", "--learner", "vandam", "--n", "8", "--k", "4",
                           "--eps", "0.0625"],
    "learn-state": ["learn", "--learner", "state", "--in", "random-n4-k2.json",
                    "--concepts", "concepts.txt", "--eps", "0.25"],
    "extract-set-json": ["extract-set", "--concepts", "concepts.txt", "--k", "6",
                         "--trials", "4", "--seed", "1"],
    "extract-set-csv": ["extract-set", "--concepts", "concepts.txt", "--in", "k1-n4.json",
                        "--k", "5", "--trials", "3", "--format", "csv"],
    "exit1-infeasible-eps": ["learn", "--learner", "vandam", "--n", "4", "--k", "2",
                             "--eps", "0"],
    "exit2-vandam-too-large": ["vandam", "--n", "64"],
    "exit2-profile-mismatch": ["extract-set", "--concepts", "concepts.txt", "--in",
                               "random-n4-k2.json", "--k", "5"],
    "exit3-missing-file": ["verify-bound", "--in", "missing.json", "--table", "parity4.txt"],
    "verify-bound-n5-k3-anc2": ["verify-bound", "--in", "n5-k3-anc2.json", "--table",
                                "table5.txt"],
    "extract-set-n100": ["extract-set", "--concepts", "concepts100.txt", "--in", "n100-k1.json",
                         "--k", "40", "--trials", "3", "--seed", "2"],
    "learn-state-n100": ["learn", "--learner", "state", "--in", "n100-k2.json",
                         "--concepts", "concepts100.txt", "--eps", "0.25", "--seed", "3"],
    # f = (x1 & x3) ^ (x4 & x6) ignores x2 and x5, so n_eff = 4 < n = 6
    "verify-bound-n6-partial": ["verify-bound", "--in", "n6-k2.json", "--table",
                                "table6-partial.txt"],
    "verify-bound-constant": ["verify-bound", "--in", "random-n4-k2.json", "--table",
                              "const4.txt"],
}


def run_case(argv):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out = run_case(CASES[name])
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == exit_codes[name]
    assert out == (GOLDEN / f"{name}.stdout").read_text()


def test_corpus_has_no_orphans():
    """Every golden stdout and recorded exit code belongs to a case, and every case has both."""
    assert {p.stem for p in GOLDEN.glob("*.stdout")} == set(CASES)
    assert set(json.loads((GOLDEN / "exit_codes.json").read_text())) == set(CASES)


def canonical(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def has_json_stdout(name):
    """False for csv cases, empty stdouts, and cases whose stdout is not generated yet.

    Collection must not fail on a missing file, or the ``__main__`` block below
    could never generate it; test_corpus_has_no_orphans fails on it instead.
    """
    path = GOLDEN / f"{name}.stdout"
    return not name.endswith("-csv") and path.exists() and bool(path.read_text())


JSON_CASES = [name for name in sorted(CASES) if has_json_stdout(name)]


@pytest.mark.parametrize("name", JSON_CASES)
def test_golden_json_is_stdlib_indented(name):
    """A golden regenerated through a renderer that drifted from the stdlib's format fails."""
    text = (GOLDEN / f"{name}.stdout").read_text()
    assert text == canonical(text)


def test_large_learn_output_is_stdlib_indented():
    # 2,016 concept pairs checked, one binding record printed
    code, out = run_case(["learn", "--learner", "vandam", "--n", "6", "--k", "3",
                          "--eps", "0.0625"])
    assert code == 0
    record = json.loads(out)
    assert record["pairs_checked"] == 64 * 63 // 2
    assert len(record["overlap_margins"]) == 1 and record["overlap_margins"][0]["ok"]
    assert out == canonical(out)


# Runs the cases given as JSON in a fresh interpreter; prints their exit codes
# and stdout, and whether numpy.ma got imported along the way.
FRESH_RUN = """
import contextlib, io, json, sys
from nonadapt.cli import main
runs = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        runs[name] = [main(argv), out.getvalue()]
print(json.dumps({"runs": runs, "numpy_ma": "numpy.ma" in sys.modules}))
"""


def fresh_runs(cases, **env):
    """FRESH_RUN's record for the cases, run from INPUTS with env added to this environment."""
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, json.dumps(cases)],
        cwd=INPUTS, env=dict(os.environ, PYTHONPATH=str(SRC), **env),
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def assert_runs_match_golden(runs, count):
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert len(runs) == count
    for name, (code, out) in runs.items():
        assert code == exit_codes[name], name
        assert out == (GOLDEN / f"{name}.stdout").read_text(), name


@pytest.mark.parametrize("threads", ["1", "2"])
def test_learn_golden_under_blas_threads(threads):
    """learn output must not depend on how many threads BLAS splits a product across."""
    cases = {name: argv for name, argv in CASES.items() if name.startswith("learn")}
    result = fresh_runs(cases, OPENBLAS_NUM_THREADS=threads)
    assert_runs_match_golden(result["runs"], 6)
    assert not result["numpy_ma"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_golden_under_blas_threads(threads):
    """The parity sweep, bv, bound reports and subset transform must not depend on BLAS threads."""
    cases = {name: argv for name, argv in CASES.items()
             if name in ("parity-n5", "parity-n14", "bv-b3", "bv-b4")
             or name.startswith(("verify-bound", "vandam"))}
    assert_runs_match_golden(fresh_runs(cases, OPENBLAS_NUM_THREADS=threads)["runs"], 13)


@pytest.mark.parametrize("core", ["Prescott", "Haswell"])
def test_hadamard_golden_under_blas_kernels(core):
    """parity, bv and every learn case must not depend on the BLAS kernel.

    parity and bv's float64 Gram only gates orthonormality at 1e-9, so no kernel
    may move a printed bit; learn's overlaps on either path are sums of integers
    below 2^53 in their unit, exact in any summation order.
    """
    features = pytest.importorskip("numpy._core._multiarray_umath").__cpu_features__
    if core == "Haswell" and not (features.get("AVX2") and features.get("FMA3")):
        pytest.skip("OpenBLAS's Haswell kernels need AVX2 and FMA3")
    cases = {name: argv for name, argv in CASES.items()
             if name.startswith("learn") or name in ("parity-n14", "bv-b3", "bv-b4")}
    runs = fresh_runs(cases, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")["runs"]
    assert_runs_match_golden(runs, 9)


@pytest.mark.parametrize("spectrum", [True, False])
def test_overlap_path_leaves_stdout(monkeypatch, spectrum):
    """Forcing either overlap path prints every learn case with n <= 20, and bv, unchanged."""
    monkeypatch.setattr(learning, "_spectrum_is_cheaper", lambda n, m, u: spectrum)
    names = [name for name in sorted(CASES) if name.startswith(("learn", "bv"))]
    names.remove("learn-state-n100")  # n = 100: past the spectrum path's 20 bits
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    for name in names:
        code, out = run_case(CASES[name])
        assert (code, out) == (exit_codes[name], (GOLDEN / f"{name}.stdout").read_text()), name


def test_spectrum_path_builds_no_tensor_class(monkeypatch):
    """learn at n = 8, k = 4 takes the spectrum path, whose cover reads no tensor class."""
    monkeypatch.setattr(learning, "tensor_power_class", None)  # any build attempt fails
    name = "learn-vandam-n8-k4"
    assert run_case(CASES[name]) == (0, (GOLDEN / f"{name}.stdout").read_text())


if __name__ == "__main__":
    codes_path = GOLDEN / "exit_codes.json"
    old_codes = json.loads(codes_path.read_text()) if codes_path.exists() else {}
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run_case(argv)
        path = GOLDEN / f"{name}.stdout"
        if codes[name] != old_codes.get(name) or not path.exists() or path.read_text() != out:
            print(name)
        path.write_text(out)
    codes_path.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
