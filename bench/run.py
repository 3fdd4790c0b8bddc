"""Benchmark of the nonadapt batch jobs: time, memory and correctness per workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload large-sweep --seed 1 --seconds 60 --trace 0

Each run is one process serving one workload as a closed loop: one caller
runs one case at a time, through ``nonadapt.cli.main(argv)`` in-process or
through the library calls users make.  Every result is checked against the
case's expected exit code and fields.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.  End-to-end times are
CPU seconds of this process, all threads included, so time a shared host
takes the CPUs away is not counted; wall times go in the run record beside
them.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, set before numpy loads.  With the default of one per CPU,
# OpenBLAS threads spin beside the vandam pool on a 2-CPU machine: more
# threads than CPUs, whose spinning adds CPU time and noise but no speed.
BLAS_THREADS_WAS = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

import cases as workloads
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Develop against DEV_SEED; confirm a later claim on CONFIRM_SEED, unused while writing it.
DEV_SEED = 1
CONFIRM_SEED = 20100102

# Passes a run makes at least.  The tail percentile is fixed from them, so it
# is the same on every run and commit however many more passes fit.
MIN_PASSES = {"large-sweep": 6, "reduction": 14, "small-batch": 4}
TAIL_BEYOND = 10
SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
    "import nonadapt.cli; print(time.process_time() - t)"
)


def import_package():
    """Import nonadapt from this checkout's src/, never from anywhere else."""
    if not (SRC / "nonadapt" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'nonadapt'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import nonadapt
    import nonadapt.cli

    if Path(nonadapt.__file__).resolve().parent != SRC / "nonadapt":
        raise SystemExit(f"error: imported nonadapt from {nonadapt.__file__}, not {SRC}")
    return nonadapt


@dataclass
class PassResult:
    seconds: list[float] = field(default_factory=list)  # wall seconds per case
    cpu: list[float] = field(default_factory=list)  # CPU seconds per case, all threads
    failed: int = 0
    elapsed: float = 0.0

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def cpu_total(self) -> float:
        return sum(self.cpu)


def run_case(case, nonadapt, tracer=None) -> tuple[float, float, list[str]]:
    """Run one case; return its wall and CPU seconds and every problem with its result."""
    call = case.call if case.argv is None else (lambda: nonadapt.cli.main(case.argv))
    out, err = io.StringIO(), io.StringIO()
    root = tracer.case(case.id) if tracer else contextlib.nullcontext()
    result, seconds, cpu = None, 0.0, 0.0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), root:
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                result = call()
            finally:
                seconds = time.perf_counter() - start
                cpu = time.process_time() - start_cpu
        if case.argv is None:
            code, payload = 0, result
        else:
            text = out.getvalue()
            code, payload = result, (json.loads(text) if text.strip() else None)
            if tracer:
                tracer.add_counts({"cli.output_bytes": len(text.encode())})
        return seconds, cpu, workloads.mismatches(case, code, payload, err.getvalue())
    except (Exception, SystemExit) as exc:
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        tb = traceback.extract_tb(exc.__traceback__)[-1]
        return seconds, cpu, [f"{detail} at {Path(tb.filename).name}:{tb.lineno}"]


def run_pass(case_list, nonadapt, tracer=None) -> PassResult:
    result = PassResult()
    start = time.perf_counter()
    for case in case_list:
        seconds, cpu, problems = run_case(case, nonadapt, tracer)
        result.seconds.append(seconds)
        result.cpu.append(cpu)
        result.failed += bool(problems)
        for problem in problems:
            print(f"FAIL {case.id}: {problem}", flush=True)
        gc.collect()
    result.elapsed = time.perf_counter() - start
    return result


def import_seconds() -> float:
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(probe.stdout)


def setup(workload: str, seed: int, nonadapt):
    """CPU seconds of import, input generation and warm-up, SETUP_REPEATS times; keep the last inputs."""
    samples, warm_failures = [], 0
    OUT.mkdir(exist_ok=True)
    tmp = None
    for _ in range(SETUP_REPEATS):
        if tmp is not None:
            shutil.rmtree(tmp)
        seconds = import_seconds()
        start = time.process_time()
        tmp = tempfile.mkdtemp(prefix=f"inputs-{workload}-", dir=OUT)
        case_list, warmup = workloads.WORKLOADS[workload](seed, tmp, nonadapt)
        warm_failures = run_pass(warmup, nonadapt).failed
        samples.append(seconds + time.process_time() - start)
    return samples, case_list, warmup, warm_failures, tmp


def keep_going(passes, start: float, seconds: float, minimum: int) -> bool:
    """Start another pass only while one more fits in the time asked for."""
    if len(passes) < minimum:
        return True
    typical = statistics.median(passes)
    return time.perf_counter() - start + typical <= seconds


def tail_percentile(workload: str, cases_per_pass: int) -> int:
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / (cases_per_pass * MIN_PASSES[workload])))


def measure(case_list, nonadapt, workload: str, seconds: float):
    passes: list[PassResult] = []
    start = time.perf_counter()
    while keep_going([p.elapsed for p in passes], start, seconds, MIN_PASSES[workload]):
        passes.append(run_pass(case_list, nonadapt))
    samples = [s for p in passes for s in p.cpu]
    walls = [s for p in passes for s in p.seconds]
    pct = tail_percentile(workload, len(case_list))
    metrics = {
        "cpu_s": statistics.median(p.cpu_total for p in passes),
        "case_cpu_p50_s": float(np.percentile(samples, 50)),
        "case_cpu_tail_s": float(np.percentile(samples, pct)),
    }
    stats = {
        "passes": len(passes),
        "pass_cpu_s": [p.cpu_total for p in passes],
        "pass_walls_s": [p.wall for p in passes],
        "wall_s": statistics.median(p.wall for p in passes),
        "case_wall_p50_s": float(np.percentile(walls, 50)),
        "case_wall_tail_s": float(np.percentile(walls, pct)),
        "case_samples": len(samples),
        "case_tail_percentile": pct,
        "case_tail_samples_beyond": sum(s > metrics["case_cpu_tail_s"] for s in samples),
    }
    return metrics, stats, passes


def measure_traced(case_list, nonadapt, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes; per-layer metrics are medians over traced passes."""
    tracer = tracing.Tracer()
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    layer_rows: list[dict] = []
    start = time.perf_counter()
    while keep_going([u.elapsed + t.elapsed for u, t in zip(untraced, traced)], start, seconds, 2):
        untraced.append(run_pass(case_list, nonadapt))
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(run_pass(case_list, nonadapt, tracer))
        finally:
            tracer.uninstall()
        pass_spans = tracer.spans[first:]
        row = tracing.summarize(pass_spans)
        row["trace.spans"] = len(pass_spans)
        layer_rows.append(row)
    problems = tracing.check_self_times(tracer.spans)
    for problem in problems:
        print(f"FAIL self time: {problem}", flush=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for record in tracing.span_records(tracer.spans, start):
            fh.write(json.dumps(record) + "\n")
    metrics = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
    untraced_wall = statistics.median(p.wall for p in untraced)
    traced_wall = statistics.median(p.wall for p in traced)
    metrics.update({
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    stats = {"passes": len(untraced), "traced_passes": len(traced), "spans_file": str(spans_path)}
    return metrics, stats, untraced + traced, problems


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return head.stdout.strip() or None


UNITS = {"cpu_s": "s", "case_cpu_p50_s": "s", "case_cpu_tail_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "fail_ratio": "ratio"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith("_bytes_computed") or name.endswith("output_bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # vandam sizes its pool from this variable; unset, it uses the CPU count as users get it
    threads_env = os.environ.pop("NONADAPT_THREADS", None)
    nonadapt = import_package()
    setup_samples, case_list, warmup, warm_failures, tmp = setup(args.workload, args.seed, nonadapt)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            metrics, stats, passes, problems = measure_traced(
                case_list, nonadapt, args.seconds, OUT / f"spans-{tag}.jsonl")
        else:
            metrics, stats, passes = measure(case_list, nonadapt, args.workload, args.seconds)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["setup_s"] = statistics.median(setup_samples)
            problems = []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(p.seconds) for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "confirm_seed": CONFIRM_SEED,
        "trace": args.trace,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "NONADAPT_THREADS": "unset" if threads_env is None else f"unset (was {threads_env!r})",
        "OPENBLAS_NUM_THREADS": "1" if BLAS_THREADS_WAS is None else f"1 (was {BLAS_THREADS_WAS!r})",
        "cases_per_pass": len(case_list),
        "warmup_cases": len(warmup),
        "setup_samples_s": setup_samples,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        **stats,
    }
    with open(OUT / f"record-{tag}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=2)
    print(f"record: {json.dumps(record)}")
    print(f"fail_ratio = {record['fail_ratio']} ratio ({failed} of {attempted} cases)")
    for name, value in metrics.items():
        print(f"{name} = {value} {unit(name)}")
    correct = failed == 0 and not warm_failures and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
