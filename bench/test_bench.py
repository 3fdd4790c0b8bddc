"""Self-checks of the benchmark: python3 -m pytest bench/test_bench.py -q"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile

import numpy as np
import pytest

import cases
import run
import tracing

nonadapt = run.import_package()


def small_cases(tmp: str) -> list[cases.Case]:
    rng = np.random.default_rng([7, 0])
    return [
        cases.parity_case(5, rng),
        cases.vandam_case(8, None, rng),  # runs on the vandam thread pool
        cases.bound_report_case(rng, 0, 4, 2, False, nonadapt),
        cases.bound_report_case(rng, 1, 4, 1, True, nonadapt),
        cases.verify_bound_case(tmp, rng, 2, 5, 2, 2),
        cases.extract_case(tmp, rng, 3, 5, 6, True),
        cases.vandam_learn_case(4, 2, 0.0625, rng),
        cases.refusal_case(3, 2, rng),
    ]


@pytest.fixture
def tmp():
    """Inputs go under bench/out, like a benchmark run's."""
    run.OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
    yield path
    shutil.rmtree(path)


def test_small_cases_pass(tmp):
    result = run.run_pass(small_cases(tmp), nonadapt)
    assert result.failed == 0
    assert len(result.seconds) == 8


BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(monkeypatch, tiny, trace: int) -> list[str]:
    monkeypatch.setitem(cases.WORKLOADS, "tiny", tiny)
    monkeypatch.setitem(run.MIN_PASSES, "tiny", 2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "tiny", "--seconds", "0", "--trace", str(trace)]) == 0
    return out.getvalue().splitlines()


def test_wrong_expected_value_counts_in_fail_ratio(monkeypatch):
    def tiny(seed, tmp, nonadapt):
        case_list = small_cases(tmp)
        case_list[0].fields["theorem1_rhs"] += 1.0  # parity n=5 is tight at 2.5
        case_list[-1].exit = 0  # the refusal exits 1
        return case_list, []

    lines = run_tiny(monkeypatch, tiny, 0)
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 16, 4)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert "fail_ratio = 0.25 ratio (4 of 16 cases)" in lines
    assert sum(line.startswith("FAIL parity-n5: theorem1_rhs") for line in lines) == 2


def test_traced_run_reports_every_per_layer_metric(monkeypatch):
    lines = run_tiny(monkeypatch, lambda seed, tmp, nonadapt: (small_cases(tmp), []), 1)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected


def test_exception_is_a_failure_and_the_pass_continues(tmp):
    def boom():
        raise ValueError("boom")

    case_list = [cases.Case("boom", call=boom)] + small_cases(tmp)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_pass(case_list, nonadapt)
    assert (result.failed, len(result.seconds)) == (1, 9)
    assert "FAIL boom: ValueError: boom" in out.getvalue()


def test_traced_self_times_fit_in_each_case(tmp):
    tracer = tracing.Tracer()
    original = nonadapt.cli.main
    tracer.install()
    try:
        result = run.run_pass(small_cases(tmp), nonadapt, tracer)
    finally:
        tracer.uninstall()
    assert nonadapt.cli.main is original
    algorithms = nonadapt.algorithms
    assert nonadapt.cli.subset_outcome_distribution is algorithms.subset_outcome_distribution
    assert result.failed == 0
    assert tracing.check_self_times(tracer.spans) == []
    groups = tracing.by_case(tracer.spans)
    assert len(groups) == 8
    for spans in groups.values():
        wall, _, layers = tracing.case_breakdown(spans)
        assert 0 < sum(layers.values()) <= wall + 1e-9
    threaded = next(s for c, s in groups.items() if c.startswith("vandam-n8"))
    main_span = next(s for s in threaded if s.name == "cli.main")
    workers = [s for s in threaded if s.name == "algorithms.subset_distribution"]
    assert len(workers) == 9 and all(s.parent == main_span.id for s in workers)
    summary = tracing.summarize(tracer.spans)
    # parity's build and relabel, plus one measurement per library case
    assert summary["qstate.measurement_builds"] == 2 + 1 + 1
    assert summary["algorithms.subset_outcomes"] == 9 * 2**8
    assert summary["learning.tensor_bits"] == 16 * 24 + 8 * 15


def test_self_time_sharing():
    def span(i, name, start, end, parent):
        return tracing.Span(i, name, start, end, parent, "c")

    spans = [
        span(1, tracing.ROOT, 0.0, 10.0, None),
        span(2, "cli.main", 0.0, 10.0, 1),
        span(3, "algorithms.subset_distribution", 2.0, 6.0, 2),
        span(4, "algorithms.subset_distribution", 4.0, 8.0, 2),
    ]
    assert tracing.self_times(spans) == {1: 0.0, 2: 4.0, 3: 3.0, 4: 3.0}


@pytest.mark.parametrize("got, want, ok", [
    (0.5 + 1e-10, 0.5, True),
    (0.5 + 1e-8, 0.5, False),
    (1, True, False),
    ([0.25, 0.5], [0.25, 0.5 + 5e-10], True),
    ([0.25], [0.25, 0.5], False),
])
def test_numbers_compare_at_1e9(got, want, ok):
    assert cases.same(got, want) is ok
