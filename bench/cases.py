"""Workload case lists, their seeded inputs, and the results each case must give.

Every case carries its expected exit code and key fields.  Fixed-size cases
take them from closed forms (parity is exact and tight, the subset learner's
success is 2^-n * sum_{j<=k} C(n, j)); seeded cases take them from the small
numpy references below, which recompute the paper's quantities from the
generated inputs without calling the package.  Plans and sampled sets are
checked by invariants that any correct implementation meets (every concept
decodes to itself, the plan stays within its stated budget), not by matching
one particular random draw.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TOL = 1e-9


@dataclass
class Case:
    """One closed-loop request: a CLI argv, or a library call returning a record."""

    id: str
    argv: list[str] | None = None
    call: Callable[[], dict] | None = None
    exit: int = 0
    fields: dict = field(default_factory=dict)
    stderr: str | None = None
    check: Callable[[dict], list[str]] | None = None


# --- comparison --------------------------------------------------------------


def same(got, want) -> bool:
    """Equality with numbers compared at TOL and lists elementwise."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got is want or (type(got) is type(want) and got == want)
    if isinstance(want, (int, float)):
        return (
            isinstance(got, (int, float))
            and not isinstance(got, bool)
            and abs(got - want) <= TOL
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(same(g, w) for g, w in zip(got, want))
        )
    raise TypeError(f"unsupported expected value {want!r}")


def _field(payload: dict, name: str):
    if name in payload:
        return payload[name]
    return [row[name] for row in payload["rows"]]


def mismatches(case: Case, code: int, payload: dict | None, stderr: str) -> list[str]:
    """Every way the observed result differs from what the case expects."""
    if code != case.exit:
        return [f"exit code {code}, expected {case.exit}: {stderr.strip()[:200]}"]
    if case.stderr is not None:
        problems = [] if payload is None else ["printed a record"]
        if case.stderr not in stderr:
            problems.append(f"stderr lacks {case.stderr!r}: {stderr.strip()[:200]}")
        return problems
    if payload is None:
        return ["no JSON record"]
    problems = []
    for name, want in case.fields.items():
        try:
            got = _field(payload, name)
        except (KeyError, TypeError):
            problems.append(f"{name}: missing")
            continue
        if not same(got, want):
            problems.append(f"{name}: got {got!r}, expected {want!r}")
    if case.check is not None:
        problems += case.check(payload)
    return problems


# --- numpy references --------------------------------------------------------


def helstrom(c: float) -> float:
    return (1.0 - math.sqrt(max(0.0, 1.0 - c * c))) / 2.0


def query_bound(n_eff: int, eps: float) -> float:
    eps = min(eps, 0.5)
    return n_eff / 2.0 * (1.0 - 2.0 * math.sqrt(eps * (1.0 - eps)))


def plan_budget(m: int, k: int, eps: float) -> int:
    # the same floating-point expression as the package, so ceil() cannot differ
    return math.ceil(k * (4.0 * math.log2(m) / (1.0 - 2.0 * math.sqrt(eps * (1.0 - eps)))))


def odd_mask(t) -> int:
    mask = 0
    for i in t:
        if i:
            mask ^= 1 << (i - 1)
    return mask


def relevant(table: np.ndarray, n: int) -> list[int]:
    xs = np.arange(1 << n)
    return [j for j in range(1, n + 1) if np.any(table != table[xs ^ (1 << (j - 1))])]


def weights(entries, n: int) -> list[float]:
    w = [0.0] * n
    for t, _a, amp in entries:
        mask = odd_mask(t)
        for j in range(n):
            if mask >> j & 1:
                w[j] += abs(amp) ** 2
    return w


def bound_fields(entries, n: int, k: int, table: np.ndarray) -> dict:
    """Expected bound_report fields when no measurement is given."""
    w = weights(entries, n)
    rel = relevant(table, n)
    eps_lb = max(helstrom(abs(1.0 - 2.0 * w[j - 1])) for j in rel)
    rhs = query_bound(len(rel), eps_lb)
    return {
        "n_eff": len(rel),
        "k": k,
        "weights": w,
        "eps_lower_bound": eps_lb,
        "theorem1_rhs": rhs,
        "pass": k + TOL >= rhs,
    }


def sweep_errors(entries, n: int, table: np.ndarray, label_probs) -> float:
    """Worst-case error over all 2^n inputs; label_probs(amps) gives Pr[output 1] per row."""
    masks = np.array([odd_mask(t) for t, _a, _ in entries], dtype=np.int64)
    v0 = np.array([amp for _, _, amp in entries])
    xs = np.arange(1 << n, dtype=np.int64)
    signs = 1.0 - 2.0 * (np.bitwise_count(xs[:, None] & masks[None, :]) & 1)
    p1 = label_probs(signs * v0[None, :])
    return float(np.max(np.where(table == 1, 1.0 - p1, p1)))


def distinguishes(concepts: list[str], index_set) -> bool:
    return len({tuple(s[i - 1] for i in index_set) for s in concepts}) == len(concepts)


# --- seeded inputs -----------------------------------------------------------


def random_entries(rng, n: int, k: int, ancilla_dim: int, support: int):
    """Sorted (tuple, ancilla, amplitude) entries of a normalized random state."""
    total = (n + 1) ** k * ancilla_dim
    flat = rng.choice(total, size=min(support, total), replace=False)
    amps = rng.normal(size=flat.size) + 1j * rng.normal(size=flat.size)
    amps /= np.linalg.norm(amps)
    entries = []
    for f, amp in zip(flat, amps):
        f = int(f)
        a, rest = f % ancilla_dim, f // ancilla_dim
        t = []
        for _ in range(k):
            t.append(rest % (n + 1))
            rest //= n + 1
        entries.append((tuple(t), a, complex(amp)))
    return sorted(entries, key=lambda e: (e[0], e[1]))


def random_table(rng, n: int) -> np.ndarray:
    while True:
        table = rng.integers(0, 2, size=1 << n)
        if 0 < table.sum() < table.size:
            return table


def random_concepts(rng, n: int, m: int) -> list[str]:
    values = rng.choice(1 << n, size=m, replace=False)
    return [int_string(int(v), n) for v in values]


def int_string(v: int, n: int) -> str:
    """The package's text form of an integer input: bit 1 first."""
    return "".join(str(v >> i & 1) for i in range(n))


def write_state(path: str, n: int, k: int, ancilla_dim: int, entries) -> str:
    record = {
        "n": n,
        "k": k,
        "ancilla_dim": ancilla_dim,
        "entries": [
            {"tuple": list(t), "a": a, "re": amp.real, "im": amp.imag}
            for t, a, amp in entries
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def write_table(path: str, n: int, table: np.ndarray) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n{''.join(str(int(v)) for v in table)}\n")
    return path


def write_concepts(path: str, n: int, concepts: list[str]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(concepts)}\n" + "".join(s + "\n" for s in concepts))
    return path


def cli_seed(rng) -> str:
    return str(int(rng.integers(0, 1 << 62)))


# --- fixed-size cases --------------------------------------------------------


def parity_case(n: int, rng) -> Case:
    return Case(
        f"parity-n{n}",
        argv=["parity", "--n", str(n), "--seed", cli_seed(rng)],
        fields={"pass": True, "k": (n + 1) // 2, "worst_case_error": 0.0, "theorem1_rhs": n / 2},
    )


def vandam_case(n: int, k: int | None, rng) -> Case:
    ks = list(range(n + 1)) if k is None else [k]
    argv = ["vandam", "--n", str(n), "--seed", cli_seed(rng)]
    if k is not None:
        argv += ["--k", str(k)]
    closed = [sum(math.comb(n, j) for j in range(kk + 1)) / 2.0**n for kk in ks]
    return Case(
        f"vandam-n{n}" + ("" if k is None else f"-k{k}"),
        argv=argv,
        fields={"k": ks, "success": closed, "match": [True] * len(ks)},
    )


def plan_check(concepts: list[str], k: int, eps: float) -> Callable[[dict], list[str]]:
    """Invariants of a learn record: the plan decodes every concept within its budget."""
    budget = plan_budget(len(concepts), k, eps)

    def check(payload: dict) -> list[str]:
        plan = payload["plan"]
        base = plan["base_queries"]
        problems = []
        if payload["base_queries"] != base or payload["base_query_count"] != len(base):
            problems.append("base_query_count disagrees with the plan")
        if payload["bound"] != budget or len(base) > budget:
            problems.append(f"{len(base)} base queries; budget {payload['bound']} != {budget}")
        if plan["concepts"] != concepts:
            problems.append("plan concepts differ from the class")
        table = plan["decoder_table"]
        wrong = [
            i for i, s in enumerate(concepts)
            if table.get("".join(s[q - 1] for q in base)) != i
        ]
        if wrong:
            problems.append(f"plan decodes {len(wrong)} concepts wrongly, first {wrong[0]}")
        if not all(p["ok"] for p in payload["overlap_margins"] or ()):
            problems.append("an overlap margin is not ok")
        return problems

    return check


def learn_case(case_id: str, argv: list[str], concepts: list[str], k: int, eps: float) -> Case:
    return Case(
        case_id,
        argv=["learn"] + argv,
        fields={"verified_all_concepts": True, "m": len(concepts), "k": k, "eps": eps},
        check=plan_check(concepts, k, eps),
    )


def vandam_learn_case(n: int, k: int, eps: float, rng) -> Case:
    argv = ["--learner", "vandam", "--n", str(n), "--k", str(k), "--eps", repr(eps),
            "--seed", cli_seed(rng)]
    concepts = [int_string(v, n) for v in range(1 << n)]
    return learn_case(f"learn-vandam-n{n}-k{k}", argv, concepts, k, eps)


def bv_concepts(b: int) -> list[str]:
    n = (1 << b) - 1
    return ["".join(str((s & i).bit_count() & 1) for i in range(1, n + 1)) for s in range(1 << b)]


def refusal_case(n: int, k: int, rng) -> Case:
    """eps = 0 is impossible for the subset learner: exit 1 with the BoundViolation message."""
    return Case(
        f"learn-vandam-n{n}-k{k}-eps0",
        argv=["learn", "--learner", "vandam", "--n", str(n), "--k", str(k), "--eps", "0",
              "--seed", cli_seed(rng)],
        exit=1,
        stderr="cannot be correct",
    )


def state_learn_case(tmp: str, rng, n: int, k: int, m: int, name: str) -> Case:
    """A random full-support k-query state, a random class, and an eps it provably meets."""
    entries = random_entries(rng, n, k, 1, (n + 1) ** k)
    concepts = random_concepts(rng, n, m)
    profile = np.zeros((n + 1) ** k)
    bits = np.zeros((m, (n + 1) ** k), dtype=np.int64)
    x = np.array([[0] + [int(ch) for ch in s] for s in concepts])
    for t, _a, amp in entries:
        pos = sum(i * (n + 1) ** r for r, i in enumerate(t))
        profile[pos] += abs(amp) ** 2
        bits[:, pos] = np.bitwise_xor.reduce(x[:, list(t)], axis=1)
    signs = 1.0 - 2.0 * bits
    overlap = (signs * profile) @ signs.T
    worst = np.max(np.abs(overlap[np.triu_indices(m, 1)]))
    eps = helstrom(worst) + 1e-6
    state = write_state(os.path.join(tmp, f"{name}.state.json"), n, k, 1, entries)
    cfile = write_concepts(os.path.join(tmp, f"{name}.concepts"), n, concepts)
    argv = ["--learner", "state", "--in", state, "--concepts", cfile, "--eps", repr(eps),
            "--seed", cli_seed(rng)]
    return learn_case(f"learn-state-{name}", argv, concepts, k, eps)


# --- small cases -------------------------------------------------------------


def verify_bound_case(tmp: str, rng, i: int, n: int, k: int, ancilla_dim: int) -> Case:
    entries = random_entries(rng, n, k, ancilla_dim, 32)
    table = random_table(rng, n)
    state = write_state(os.path.join(tmp, f"vb{i}.state.json"), n, k, ancilla_dim, entries)
    tfile = write_table(os.path.join(tmp, f"vb{i}.table"), n, table)
    fields = bound_fields(entries, n, k, table)
    return Case(
        f"verify-bound-{i}-n{n}-k{k}",
        argv=["verify-bound", "--in", state, "--table", tfile, "--seed", cli_seed(rng)],
        exit=0 if fields["pass"] else 1,
        fields=fields,
    )


def bound_report_case(rng, i: int, n: int, k: int, povm: bool, nonadapt) -> Case:
    """Library bound_report with a random measurement built and validated in the call."""
    entries = random_entries(rng, n, k, 1, 32)
    table = random_table(rng, n)
    d = len(entries)
    keys = [(t, a) for t, a, _ in entries]
    amps = {(t, a): amp for t, a, amp in entries}
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    fields = bound_fields(entries, n, k, table)
    if povm:
        lam = rng.uniform(0.05, 0.95, size=d)
        e1 = (u * lam) @ u.conj().T
        e1 = (e1 + e1.conj().T) / 2.0
        elements = ((0, np.eye(d) - e1), (1, e1))
        wce = sweep_errors(
            entries, n, table, lambda a: np.real(np.einsum("xi,ij,xj->x", a.conj(), e1, a))
        )

        def build(qs):
            return qs.PovmMeasurement(n=n, k=k, basis=tuple(keys), elements=elements)
    else:
        labels = rng.integers(0, 2, size=d)
        effects = [
            (int(labels[r]), {key: complex(u[b, r]) for b, key in enumerate(keys)})
            for r in range(d)
        ]
        ones = u[:, labels == 1]
        wce = sweep_errors(
            entries, n, table, lambda a: np.sum(np.abs(a @ ones.conj()) ** 2, axis=1)
        )

        def build(qs):
            return qs.ProjectiveMeasurement(
                tuple((label, qs.QueryState(n, k, vec)) for label, vec in effects)
            )
    rhs = query_bound(fields["n_eff"], wce)
    fields.update({"worst_case_error": wce, "theorem1_rhs": rhs, "pass": k + TOL >= rhs})
    values = [int(v) for v in table]

    def call() -> dict:
        qs = nonadapt.qstate
        psi = qs.QueryState(n, k, amps)
        f = nonadapt.boolfn.build_function("from_table", n, values)
        return nonadapt.bounds.bound_report(psi, f, build(qs))

    kind = "povm" if povm else "proj"
    return Case(f"bound-report-{kind}-{i}-n{n}-k{k}", call=call, fields=fields)


def bv_case(b: int, rng) -> Case:
    return Case(
        f"bv-b{b}",
        argv=["bv", "--b", str(b), "--seed", cli_seed(rng)],
        fields={"pass": True, "success_min": 1.0, "concepts": 1 << b},
    )


def extract_case(tmp: str, rng, i: int, n: int, m: int, with_state: bool) -> Case:
    concepts = random_concepts(rng, n, m)
    cfile = write_concepts(os.path.join(tmp, f"ex{i}.concepts"), n, concepts)
    draws, trials = 2 * n, 8
    argv = ["extract-set", "--concepts", cfile, "--k", str(draws), "--trials", str(trials),
            "--seed", cli_seed(rng)]
    support = set(range(n + 1))
    if with_state:
        entries = random_entries(rng, n, 1, 1, n)
        support = {t[0] for t, _a, _ in entries}
        argv += ["--in", write_state(os.path.join(tmp, f"ex{i}.state.json"), n, 1, 1, entries)]

    def check(payload: dict) -> list[str]:
        results = payload["results"]
        problems = []
        if payload["failures"] != sum(not r["distinguishing"] for r in results):
            problems.append("failures disagrees with the trial results")
        for t, r in enumerate(results):
            if len(r["draws"]) != draws or not set(r["draws"]) <= support:
                problems.append(f"trial {t}: draws outside the profile's support")
            if r["index_set"] != sorted({d for d in r["draws"] if d}):
                problems.append(f"trial {t}: index_set is not the nonzero draws")
            if r["distinguishing"] != distinguishes(concepts, r["index_set"]):
                problems.append(f"trial {t}: distinguishing is wrong")
        return problems

    return Case(
        f"extract-set-{i}-n{n}-m{m}",
        argv=argv,
        fields={"n": n, "m": m, "k_draws": draws, "trials": trials},
        check=check,
    )


# --- workloads ---------------------------------------------------------------


def large_sweep(seed: int, tmp: str, nonadapt) -> tuple[list[Case], list[Case]]:
    rng = np.random.default_rng([seed, 1])
    cases = [parity_case(13, rng), parity_case(14, rng), vandam_case(13, None, rng),
             vandam_case(16, 8, rng)]
    warmup = [parity_case(6, rng), vandam_case(6, None, rng), vandam_case(10, 5, rng)]
    return cases, warmup


def reduction(seed: int, tmp: str, nonadapt) -> tuple[list[Case], list[Case]]:
    rng = np.random.default_rng([seed, 2])
    cases = [
        vandam_learn_case(8, 4, 0.0625, rng),
        vandam_learn_case(6, 3, 0.0625, rng),
        learn_case("learn-bv-b4", ["--learner", "bv", "--b", "4"], bv_concepts(4), 1, 0.0),
        state_learn_case(tmp, rng, 10, 2, 32, "learner"),
        refusal_case(6, 3, rng),
    ]
    warmup = [
        vandam_learn_case(4, 2, 0.0625, rng),
        learn_case("learn-bv-b2", ["--learner", "bv", "--b", "2"], bv_concepts(2), 1, 0.0),
        state_learn_case(tmp, rng, 4, 2, 8, "warmup"),
        refusal_case(3, 2, rng),
    ]
    return cases, warmup


def small_batch(seed: int, tmp: str, nonadapt) -> tuple[list[Case], list[Case]]:
    """300 small cases on a fixed size grid, so every seed does about the same work."""
    rng = np.random.default_rng([seed, 3])
    cases = []
    for i in range(300):
        n, k = 3 + i % 8, 1 + (i // 8) % 3
        kind = i % 10
        if kind < 3:
            cases.append(verify_bound_case(tmp, rng, i, n, k, 1 + (i // 24) % 2))
        elif kind < 7:
            cases.append(bound_report_case(rng, i, n, k, kind >= 5, nonadapt))
        elif kind == 7 and i % 20 == 7:
            cases.append(bv_case(1 + (i // 20) % 4, rng))
        else:
            cases.append(extract_case(tmp, rng, i, 4 + i % 7, 4 + i % 13, i % 3 == 0))
    return cases, cases[:20]


WORKLOADS = {
    "large-sweep": large_sweep,
    "reduction": reduction,
    "small-batch": small_batch,
}
