"""Spans recorded from outside the package, around calls into each layer.

The tracer replaces public functions of the ``nonadapt`` modules (and the
names other modules imported from them, such as those ``cli`` imports) with
wrappers that record a span: name, start, end, parent span and case id.
Spans stay in memory until the run writes them out.  Nothing under ``src/``
knows about this; ``uninstall`` puts every original back.

Self time is attributed by sharing: at each instant the open spans form a
tree, and its leaves split that instant equally.  A span opened by the
``vandam`` thread pool hangs off the span open on the case's own thread
(``cli.main``), so while two worker spans run, each gets half of the wall
time and the waiting ``cli.main`` gets none.  The self times of one case
therefore sum exactly to the case's wall time, which ``check_self_times``
verifies.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("qstate", "boolfn", "bounds", "algorithms", "learning", "cli")
ROOT = "case"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    case: str
    counts: dict = field(default_factory=dict)
    error: str | None = None


def _measurement_counts(args, kwargs, result):
    effects = getattr(args[0], "effects", None)
    pairs = 0 if effects is None else len(effects) * (len(effects) - 1) // 2
    return {"qstate.measurement_builds": 1, "qstate.orthogonality_pairs": pairs}


def _sweep_counts(args, kwargs, result):
    """Inputs swept and bytes of the (2^n, d) and (2^n, R) arrays, from their shapes."""
    psi, meas, f = args[:3]
    inputs = 1 << f.n
    if hasattr(meas, "effects"):
        d = len(set().union(*(s.support() for _, s in meas.effects)))
        # index int64 + parity uint8 + signs float64 + amps complex128 per (x, basis)
        # cell; overlaps complex128 + probs float64 per (x, effect) cell
        nbytes = inputs * d * 33 + inputs * len(meas.effects) * 24
    else:
        d = len(meas.basis)
        nbytes = inputs * d * 33 + len(meas.elements) * inputs * (16 * d + 8)
    return {
        "bounds.error_profile_calls": 1,
        "bounds.inputs_swept": inputs,
        "bounds.sweep_bytes_computed": nbytes,
    }


def _tensor_counts(args, kwargs, result):
    c, k = args[0], args[1]
    return {"learning.tensor_bits": c.m * ((c.n + 1) ** k - 1)}


def _sample_counts(args, kwargs, result):
    return {
        "learning.sample_attempts": 1,
        "learning.sample_successes": int(result.distinguishing),
    }


# (module, attribute or Class.method, self-time metric, counters from the call).
# A metric of None still records the span, so its time counts toward its
# layer's total instead of landing in the caller's self time.
TARGETS = (
    ("qstate", "ProjectiveMeasurement.__post_init__", "qstate.measurement_build_s",
     _measurement_counts),
    ("qstate", "PovmMeasurement.__post_init__", "qstate.measurement_build_s",
     _measurement_counts),
    ("qstate", "apply_oracle", "qstate.apply_oracle_s",
     lambda a, k, r: {"qstate.apply_oracle_calls": 1}),
    ("qstate", "measure", "qstate.measure_s", None),
    ("qstate", "load_state", "qstate.load_state_s", None),
    ("boolfn", "build_function", "boolfn.build_s", None),
    ("boolfn", "load_function", "boolfn.build_s", None),
    ("boolfn", "TotalFunction.relevant_variables", "boolfn.relevant_variables_s", None),
    ("bounds", "error_profile", "bounds.error_profile_s", _sweep_counts),
    ("bounds", "bound_report", "bounds.bound_report_s", None),
    ("bounds", "weight_profile", "bounds.weight_profile_s", None),
    ("bounds", "error_lower_bound", None, None),
    ("bounds", "oracle_pair_overlap", None, None),
    ("algorithms", "build_parity_algorithm", "algorithms.build_parity_s", None),
    ("algorithms", "decision_measurement", "algorithms.decision_measurement_s", None),
    ("algorithms", "subset_outcome_distribution", "algorithms.subset_distribution_s",
     lambda a, k, r: {"algorithms.subset_outcomes": 1 << a[0]}),
    ("algorithms", "build_subset_state", "algorithms.build_subset_state_s", None),
    ("algorithms", "run_algorithm", "algorithms.run_algorithm_s", None),
    ("algorithms", "build_hadamard_instance", None, None),
    ("learning", "tensor_power_class", "learning.tensor_class_s", _tensor_counts),
    ("learning", "check_pairwise_overlaps", "learning.overlap_check_s",
     lambda a, k, r: {"learning.pairs_checked": len(r.pairs)}),
    ("learning", "sample_index_set", "learning.sample_s", _sample_counts),
    ("learning", "_greedy_over_support", None,
     lambda a, k, r: {"learning.fallback_uses": 1}),
    ("learning", "min_distinguishing_set", "learning.min_set_s", None),
    ("learning", "classical_learn", "learning.plan_verify_s", None),
    ("learning", "build_classical_plan", None, None),
    ("learning", "amplitude_profile", None, None),
    ("learning", "full_concept_class", None, None),
    ("learning", "load_concept_class", None, None),
    ("cli", "main", None, None),
)


def _span_name(module_name: str, target: str, metric: str | None) -> str:
    return metric.removesuffix("_s") if metric else f"{module_name}.{target}"


SPAN_METRIC = {_span_name(mod, target, m): m for mod, target, m, _ in TARGETS}
TIME_METRICS = tuple(dict.fromkeys(m for _, _, m, _ in TARGETS if m))
COUNT_METRICS = (
    "qstate.measurement_builds",
    "qstate.orthogonality_pairs",
    "qstate.apply_oracle_calls",
    "bounds.error_profile_calls",
    "bounds.inputs_swept",
    "bounds.sweep_bytes_computed",
    "algorithms.subset_outcomes",
    "learning.tensor_bits",
    "learning.pairs_checked",
    "learning.sample_attempts",
    "learning.sample_successes",
    "learning.fallback_uses",
    "cli.output_bytes",
)
# A layer's self time: its spans' self times summed.  cli has one span, main,
# so cli.self_s is the main span minus the layer spans under it.
LAYER_METRICS = tuple(f"{layer}.self_s" for layer in LAYERS)


class Tracer:
    """Collects spans from wrapped package functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._case = ""
        self._root: int | None = None
        self._case_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs off the span open on the case's thread
            parent = (stack or self._case_stack or [self._root])[-1]
            sid = next(self._ids)
            stack.append(sid)
            error, result = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = counter(args, kwargs, result) if counter and error is None else {}
                self.spans.append(Span(sid, name, start, end, parent, self._case, counts, error))

        return traced

    @contextlib.contextmanager
    def case(self, case_id: str):
        """Open the root span of one case; spans with no parent on their thread hang off it."""
        self._root = sid = next(self._ids)
        self._case = case_id = f"{case_id}#{sid}"  # unique per execution
        self._case_stack = self._stack()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(sid, ROOT, start, time.perf_counter(), None, case_id))
            self._root = None

    def add_counts(self, counts: dict) -> None:
        """Attach counts measured by the harness, such as output bytes, to the last case."""
        for span in reversed(self.spans):
            if span.name == ROOT:
                span.counts.update(counts)
                return

    def install(self) -> None:
        package = importlib.import_module("nonadapt")
        modules = [package] + [
            importlib.import_module(f"nonadapt.{layer}") for layer in LAYERS
        ]
        for module_name, target, metric, counter in TARGETS:
            module = importlib.import_module(f"nonadapt.{module_name}")
            name = _span_name(module_name, target, metric)
            if "." in target:
                cls_name, attr = target.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(name, original, counter))
                continue
            original = getattr(module, target)
            wrapped = self.wrap(name, original, counter)
            for owner in modules:
                if vars(owner).get(target) is original:
                    self._patch(owner, target, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span of one case, leaves of the open tree sharing each instant."""
    events = sorted(
        [(s.start, 1, s) for s in spans] + [(s.end, 0, s) for s in spans],
        key=lambda e: (e[0], e[1]),
    )
    open_ids: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    own: dict[int, float] = defaultdict(float)
    previous = None
    for t, opening, span in events:
        if previous is not None and leaves:
            share = (t - previous) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        previous = t
        parent = span.parent
        if opening:
            open_ids.add(span.id)
            leaves.add(span.id)
            if parent in open_ids:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            open_ids.discard(span.id)
            leaves.discard(span.id)
            if parent in open_ids:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return {s.id: own.get(s.id, 0.0) for s in spans}


def by_case(spans: list[Span]) -> dict[str, list[Span]]:
    cases: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        cases[s.case].append(s)
    return cases


def case_breakdown(spans: list[Span]) -> tuple[float, dict[str, float], dict[str, float]]:
    """(case wall time, self seconds per time metric, self seconds per layer) for one case."""
    own = self_times(spans)
    metrics: dict[str, float] = defaultdict(float)
    layers: dict[str, float] = defaultdict(float)
    wall = 0.0
    for s in spans:
        if s.name == ROOT:
            wall = s.end - s.start
            continue
        metric = SPAN_METRIC.get(s.name)
        if metric:
            metrics[metric] += own[s.id]
        layers[s.name.split(".")[0]] += own[s.id]
    return wall, dict(metrics), dict(layers)


def check_self_times(spans: list[Span], slack: float = 1e-9) -> list[str]:
    """Problems where a case's layer self times sum to more than its wall time."""
    problems = []
    for case_id, case_spans in by_case(spans).items():
        wall, _, layers = case_breakdown(case_spans)
        total = sum(layers.values())
        if total > wall + slack:
            problems.append(f"{case_id}: layer self times {total:.9f} s > wall {wall:.9f} s")
    return problems


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics summed over the spans of one traced pass."""
    out = {m: 0.0 for m in TIME_METRICS + LAYER_METRICS}
    out.update({m: 0 for m in COUNT_METRICS})
    for case_spans in by_case(spans).values():
        _, metrics, layers = case_breakdown(case_spans)
        for name, seconds in metrics.items():
            out[name] += seconds
        for layer, seconds in layers.items():
            out[f"{layer}.self_s"] += seconds
    for s in spans:
        for name, value in s.counts.items():
            out[name] += value
    successes, attempts = out.pop("learning.sample_successes"), out["learning.sample_attempts"]
    out["learning.sample_success_ratio"] = successes / attempts if attempts else 0.0
    return out


def span_records(spans: list[Span], origin: float):
    for s in spans:
        yield {
            "id": s.id,
            "name": s.name,
            "start": s.start - origin,
            "end": s.end - origin,
            "parent": s.parent,
            "case": s.case,
            "counts": s.counts,
            "error": s.error,
        }
