"""Exact learning from membership queries and the quantum-to-classical reduction.

A concept class is a finite set of candidate n-bit strings; a classical
nonadaptive learner queries a fixed distinguishing set of bit positions and
decodes.  A k-query quantum learner is turned into such a plan in three
steps: view it as a one-query learner of the k-fold tensor class, sample
tensor positions from the state's squared-amplitude profile until the
sampled set distinguishes every concept pair (the probabilistic-method
extraction), then expand each sampled tuple into its distinct base indices.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BoundViolation,
    ContractViolation,
    InputOutsideClass,
    ParseError,
    ValidationError,
)
from .qstate import IndexTuple, OracleString, QueryState, odd_mask, oracle_phase, parity

MAX_TENSOR_POSITIONS = 1 << 20


@dataclass(frozen=True)
class ConceptClass:
    """m distinct n-bit concepts; the learning task is to identify one by queries."""

    n: int
    concepts: tuple[OracleString, ...]

    def __post_init__(self):
        if not self.concepts:
            raise ValidationError("concept class must contain at least one concept")
        for x in self.concepts:
            if x.n != self.n:
                raise ValidationError(f"concept {x} has length {x.n}, expected {self.n}")
        if len({x.bits for x in self.concepts}) != len(self.concepts):
            raise ValidationError("concept class contains duplicate concepts")

    @property
    def m(self) -> int:
        return len(self.concepts)

    def index_of(self, x: OracleString) -> int:
        for i, c in enumerate(self.concepts):
            if c.bits == x.bits:
                return i
        raise InputOutsideClass(f"{x} is not a concept in this class")


def full_concept_class(n: int) -> ConceptClass:
    """All 2^n strings, ordered by integer encoding."""
    if n > 12:
        raise ValidationError(f"full class has 2^{n} concepts; n <= 12 required")
    return ConceptClass(n, tuple(OracleString.from_int(n, v) for v in range(1 << n)))


def save_concept_class(c: ConceptClass, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{c.n} {c.m}\n")
        for x in c.concepts:
            fh.write(str(x) + "\n")


def load_concept_class(path) -> ConceptClass:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"{path}: line 1: expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"{path}: line 1: expected integers, got {lines[0]!r}") from exc
    if len(lines) < m + 1:
        raise ParseError(f"{path}: expected {m} concept lines, found {len(lines) - 1}")
    concepts = []
    for ln, text in enumerate(lines[1 : m + 1], start=2):
        row = text.strip()
        if len(row) != n or any(ch not in "01" for ch in row):
            raise ParseError(f"{path}: line {ln}: expected {n} characters of 0/1")
        concepts.append(OracleString.from_string(row))
    return ConceptClass(n, tuple(concepts))


def is_distinguishing(c: ConceptClass, indices: Iterable[int]) -> bool:
    """True iff every pair of concepts differs on at least one queried position."""
    s = sorted(set(indices))
    for i in s:
        if not 1 <= i <= c.n:
            raise ContractViolation(f"index {i} out of range [1, {c.n}]")
    seen = set()
    for x in c.concepts:
        pattern = tuple(x.bit(i) for i in s)
        if pattern in seen:
            return False
        seen.add(pattern)
    return True


def min_distinguishing_set(c: ConceptClass, mode: str = "exact") -> tuple[int, ...]:
    """Smallest (exact) or greedily built set of positions distinguishing the class.

    Exact mode enumerates subsets by increasing size, ties broken by the
    lexicographically smallest set; it refuses beyond n = 24.  Greedy mode
    repeatedly adds the index separating the most still-colliding pairs,
    ties to the lowest index.
    """
    if len({x.bits for x in c.concepts}) != c.m:
        raise ValidationError("concept class contains duplicate concepts")
    if c.m == 1:
        return ()
    if mode == "exact":
        if c.n > 24:
            raise ValidationError(
                f"exact search enumerates subsets of [{c.n}]; n <= 24 required, use greedy"
            )
        for size in range(c.n + 1):
            for subset in combinations(range(1, c.n + 1), size):
                if is_distinguishing(c, subset):
                    return subset
        raise RuntimeError("unreachable: the full index set always distinguishes")
    if mode == "greedy":
        chosen = _greedy_over_support(c, range(1, c.n + 1))
        if chosen is None:
            raise ValidationError("no index separates the remaining pairs")
        return chosen
    raise ContractViolation(f"mode must be 'exact' or 'greedy', got {mode!r}")


# --- k-fold tensor view ---------------------------------------------------


def tensor_bit(x: OracleString, t: Sequence[int]) -> int:
    """XOR of the bits of x addressed by the tuple, with bit 0 always 0."""
    return (1 - oracle_phase(x, t)) // 2


def tuple_to_position(t: Sequence[int], n: int) -> int:
    """Little-endian base-(n+1) encoding; (j, 0, ..., 0) maps to position j."""
    pos = 0
    for i in reversed(t):
        if not 0 <= i <= n:
            raise ContractViolation(f"tuple entry {i} out of range [0, {n}]")
        pos = pos * (n + 1) + i
    return pos


def position_to_tuple(pos: int, n: int, k: int) -> IndexTuple:
    if not 0 <= pos < (n + 1) ** k:
        raise ContractViolation(f"position {pos} out of range for n={n}, k={k}")
    t = []
    for _ in range(k):
        t.append(pos % (n + 1))
        pos //= n + 1
    return tuple(t)


def tensor_power_class(c: ConceptClass, k: int) -> ConceptClass:
    """The class of k-fold parity extensions x -> (XOR of addressed bits per tuple).

    Positions are base-(n+1) encodings of index tuples; position 0 (the
    all-zero tuple) is the always-0 bit and stays implicit, so the extended
    class lives on (n+1)^k - 1 visible positions.  Positions 1..n reproduce
    x itself, which keeps the map injective.
    """
    if k < 1:
        raise ContractViolation(f"k must be >= 1, got {k}")
    size = (c.n + 1) ** k
    if size > MAX_TENSOR_POSITIONS:
        raise ValidationError(f"tensor class would have {size} positions; too large")
    masks = [odd_mask(position_to_tuple(p, c.n, k)) for p in range(1, size)]
    extended = []
    for x in c.concepts:  # row by row: an (m, positions) array would raise peak memory
        xi = x.to_int()
        extended.append(OracleString(tuple(parity(xi & mask) for mask in masks)))
    return ConceptClass(size - 1, tuple(extended))


@dataclass
class ClassicalOracle:
    """Classical membership-query access to a hidden string, with a call counter."""

    x: OracleString
    queries_made: int = 0

    def query(self, i: int) -> int:
        if not 1 <= i <= self.x.n:
            raise ContractViolation(f"query index {i} out of range [1, {self.x.n}]")
        self.queries_made += 1
        return self.x.bit(i)


def simulate_tensor_query(t: Sequence[int], oracle: ClassicalOracle) -> int:
    """Evaluate one tensor position using classical queries to the base string.

    Queries each distinct nonzero index in the tuple once (cost <= k), then
    XORs the values carrying odd multiplicity.
    """
    t = tuple(t)
    queried = sum(oracle.query(i) << (i - 1) for i in sorted({i for i in t if i != 0}))
    return parity(queried & odd_mask(t))


# --- amplitude profiles and the probabilistic extraction -------------------


@dataclass(frozen=True)
class AmplitudeProfile:
    """Squared-amplitude distribution over query positions (position 0 included)."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValidationError("profile entries must be nonnegative")
        if abs(sum(self.values) - 1.0) > 1e-9:
            raise ValidationError(f"profile sums to {sum(self.values)!r}, expected 1")

    @classmethod
    def uniform(cls, length: int) -> "AmplitudeProfile":
        return cls((1.0 / length,) * length)

    @property
    def positions(self) -> int:
        return len(self.values)


def amplitude_profile(psi: QueryState) -> AmplitudeProfile:
    """|amplitude|^2 per tuple position, summed over ancilla labels."""
    if not psi.is_normalized():
        raise ContractViolation("state must be normalized")
    size = (psi.n + 1) ** psi.k
    if size > MAX_TENSOR_POSITIONS:
        raise ValidationError(f"profile would have {size} positions; too large")
    p = [0.0] * size
    for (t, _a), amp in psi.amplitudes.items():
        p[tuple_to_position(t, psi.n)] += abs(amp) ** 2
    return AmplitudeProfile(tuple(p))


@dataclass(frozen=True)
class PairOverlap:
    i: int
    j: int
    overlap_sq: float
    ok: bool


@dataclass(frozen=True)
class OverlapReport:
    bound: float
    pairs: tuple[PairOverlap, ...]

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.pairs)

    def violations(self) -> tuple[PairOverlap, ...]:
        return tuple(p for p in self.pairs if not p.ok)


def check_pairwise_overlaps(
    profile: AmplitudeProfile, c: ConceptClass, eps: float
) -> OverlapReport:
    """Check (sum_i p_i (-1)^(x_i + y_i))^2 <= 4 eps (1-eps) for every concept pair.

    This is the feasibility constraint a one-query learner's squared
    amplitudes must satisfy when it identifies every concept with error at
    most eps.
    """
    if profile.positions != c.n + 1:
        raise ContractViolation(
            f"profile has {profile.positions} positions, expected {c.n + 1}"
        )
    if not 0.0 <= eps <= 0.5:
        raise ContractViolation(f"eps must be in [0, 1/2], got {eps}")
    bound = 4.0 * eps * (1.0 - eps)
    p = np.asarray(profile.values)
    bits = np.array([x.bits for x in c.concepts], dtype=np.int8)  # (m, n)
    pairs = []
    for i, j in combinations(range(c.m), 2):
        diff = bits[i] ^ bits[j]  # positions 1..n; position 0 never differs
        s = profile.values[0] + float(np.dot(p[1:], 1.0 - 2.0 * diff))
        lhs = s * s
        pairs.append(PairOverlap(i, j, lhs, lhs <= bound + 1e-12))
    return OverlapReport(bound, tuple(pairs))


def classical_query_bound(m: int, eps: float) -> float:
    """Query budget of the reduction for a one-query learner: 4 log2(m) / (1 - 2 sqrt(eps(1-eps)))."""
    if m < 2:
        raise ContractViolation(f"m must be >= 2, got {m}")
    if not 0.0 <= eps < 0.5:
        raise ContractViolation(f"eps must be in [0, 1/2), got {eps}")
    return 4.0 * math.log2(m) / (1.0 - 2.0 * math.sqrt(eps * (1.0 - eps)))


@dataclass(frozen=True)
class SampleResult:
    draws: tuple[int, ...]
    index_set: tuple[int, ...]
    distinguishing: bool


def sample_index_set(
    profile: AmplitudeProfile, c: ConceptClass, k_draws: int, seed
) -> SampleResult:
    """Draw positions i.i.d. from the profile and test the resulting set.

    Draws of position 0 are recorded but contribute nothing to the set,
    since position 0 reads 0 on every concept.  Deterministic given seed.
    """
    if k_draws < 1:
        raise ContractViolation(f"k_draws must be >= 1, got {k_draws}")
    if profile.positions != c.n + 1:
        raise ContractViolation(
            f"profile has {profile.positions} positions, expected {c.n + 1}"
        )
    rng = np.random.default_rng(seed)
    drawn = rng.choice(profile.positions, size=k_draws, p=np.asarray(profile.values))
    draws = tuple(int(i) for i in drawn)
    index_set = tuple(sorted({i for i in draws if i != 0}))
    return SampleResult(draws, index_set, is_distinguishing(c, index_set))


def _greedy_over_support(
    c: ConceptClass, candidates: Iterable[int]
) -> tuple[int, ...] | None:
    """Greedy set cover of the concept pairs by candidate positions.

    Repeatedly takes the candidate separating the most still-colliding pairs,
    ties to the earliest candidate; None when the candidates cannot separate
    every pair.  Colliding pairs are kept as groups of concepts that agree on
    every chosen position, so a position separates ones * zeros pairs per group.
    """
    candidates = list(candidates)
    groups = [list(range(c.m))] if c.m > 1 else []
    chosen: list[int] = []
    while groups:
        best, best_gain = None, 0
        for j in candidates:
            gain = 0
            for g in groups:
                ones = sum(c.concepts[a].bits[j - 1] for a in g)
                gain += ones * (len(g) - ones)
            if gain > best_gain:
                best, best_gain = j, gain
        if best is None:
            return None
        chosen.append(best)
        split = [
            [a for a in g if c.concepts[a].bits[best - 1] == v]
            for g in groups
            for v in (0, 1)
        ]
        groups = [g for g in split if len(g) > 1]
    return tuple(sorted(chosen))


# --- classical query plans --------------------------------------------------


@dataclass(frozen=True)
class QueryPlan:
    """A nonadaptive classical learner: fixed query positions plus a decoder."""

    base_queries: tuple[int, ...]
    concepts: ConceptClass
    decoder: dict[tuple[int, ...], int] = field(compare=False)

    def decode(self, pattern: tuple[int, ...]) -> int:
        idx = self.decoder.get(tuple(pattern))
        if idx is None:
            raise InputOutsideClass(
                f"observed pattern {pattern} matches no concept in the class"
            )
        return idx


def make_plan(c: ConceptClass, base_queries: Iterable[int]) -> QueryPlan:
    base = tuple(sorted(set(base_queries)))
    decoder: dict[tuple[int, ...], int] = {}
    for idx, x in enumerate(c.concepts):
        pattern = tuple(x.bit(i) for i in base)
        if pattern in decoder:
            raise ValidationError(
                f"positions {base} do not distinguish concepts "
                f"{decoder[pattern]} and {idx}"
            )
        decoder[pattern] = idx
    return QueryPlan(base, c, decoder)


def classical_learn(plan: QueryPlan, oracle: ClassicalOracle):
    """Query exactly the plan's positions, decode, and report the query count."""
    if oracle.x.n != plan.concepts.n:
        raise ContractViolation(
            f"oracle string has n={oracle.x.n}, plan expects {plan.concepts.n}"
        )
    pattern = tuple(oracle.query(i) for i in plan.base_queries)
    idx = plan.decode(pattern)
    return LearnResult(idx, plan.concepts.concepts[idx], len(plan.base_queries))


@dataclass(frozen=True)
class LearnResult:
    concept_index: int
    concept: OracleString
    queries_used: int


@dataclass(frozen=True)
class PlanResult:
    plan: QueryPlan
    audit: dict
    overlap_report: OverlapReport | None


def build_classical_plan(
    learner, concepts: ConceptClass, eps: float, seed: int, retry_cap: int = 64
) -> PlanResult:
    """Derandomize a k-query quantum learner into a certain classical plan.

    The learner may be a full algorithm or a bare input state; only its state
    (and implied query count k) is consumed, and the caller is responsible
    for having verified that it learns the class with error at most eps.
    Steps: check the pairwise overlap constraints on the tensor class, sample
    tensor positions from the amplitude profile until they distinguish every
    pair (retrying with fresh derived seeds up to retry_cap, then falling
    back to a deterministic greedy cover, flagged in the audit), and expand
    the sampled tuples into base query positions.  The resulting plan always
    identifies every concept exactly; total positions stay within
    ceil(4 k log2(m) / (1 - 2 sqrt(eps(1-eps)))).
    """
    psi = getattr(learner, "psi", learner)
    if not isinstance(psi, QueryState):
        raise ContractViolation("learner must be an algorithm or a QueryState")
    if psi.n != concepts.n:
        raise ContractViolation(
            f"learner state has n={psi.n}, concept class has n={concepts.n}"
        )
    k = psi.k
    m = concepts.m
    if m == 1:
        plan = make_plan(concepts, ())
        audit = {
            "m": 1,
            "k": k,
            "eps": eps,
            "bound": 0,
            "draws_per_attempt": 0,
            "tuple_count": 0,
            "base_query_count": 0,
            "retries": 0,
            "used_fallback": False,
            "seed": seed,
        }
        return PlanResult(plan, audit, None)
    if not 0.0 <= eps < 0.5:
        raise ContractViolation(f"eps must be in [0, 1/2), got {eps}")

    tclass = tensor_power_class(concepts, k)
    profile = amplitude_profile(psi)
    report = check_pairwise_overlaps(profile, tclass, eps)
    if not report.passed:
        worst = max(report.violations(), key=lambda p: p.overlap_sq)
        raise BoundViolation(
            f"concepts {worst.i} and {worst.j} have squared overlap "
            f"{worst.overlap_sq:.6g} > {report.bound:.6g}; the claimed error "
            f"rate {eps} cannot be correct",
            pairs=report.violations(),
        )

    budget = math.ceil(k * classical_query_bound(m, eps))
    # each drawn tuple is charged k base queries, so ceil(bound/k) draws keep
    # the expanded plan within ceil(k * bound)
    draws_per_attempt = max(1, math.ceil(classical_query_bound(m, eps) / k))
    used_fallback = False
    selected: tuple[int, ...] | None = None
    retries = 0
    for attempt in range(retry_cap):
        res = sample_index_set(profile, tclass, draws_per_attempt, seed=[seed, attempt])
        if res.distinguishing:
            selected = res.index_set
            retries = attempt
            break
    if selected is None:
        support = [i for i in range(1, tclass.n + 1) if profile.values[i] > 0.0]
        selected = _greedy_over_support(tclass, support)
        if selected is None:
            raise BoundViolation(
                "profile support cannot separate all concept pairs; "
                "the claimed error rate is wrong"
            )
        retries = retry_cap
        used_fallback = True

    tuples = [position_to_tuple(pos, concepts.n, k) for pos in selected]
    base = sorted({i for t in tuples for i in t if i != 0})
    plan = make_plan(concepts, base)
    audit = {
        "m": m,
        "k": k,
        "eps": eps,
        "bound": budget,
        "draws_per_attempt": draws_per_attempt,
        "tuple_count": len(selected),
        "base_query_count": len(base),
        "retries": retries,
        "used_fallback": used_fallback,
        "seed": seed,
    }
    return PlanResult(plan, audit, report)


# --- plan serialization -----------------------------------------------------


def plan_to_dict(plan: QueryPlan) -> dict:
    return {
        "base_queries": list(plan.base_queries),
        "concepts": [str(x) for x in plan.concepts.concepts],
        "decoder_table": {
            "".join(str(b) for b in pattern): idx
            for pattern, idx in sorted(plan.decoder.items())
        },
    }


def plan_from_dict(data: dict) -> QueryPlan:
    try:
        base = tuple(int(i) for i in data["base_queries"])
        concepts = ConceptClass(
            len(data["concepts"][0]),
            tuple(OracleString.from_string(s) for s in data["concepts"]),
        )
        decoder = {
            tuple(int(ch) for ch in pattern): int(idx)
            for pattern, idx in data["decoder_table"].items()
        }
    except (KeyError, IndexError, TypeError) as exc:
        raise ParseError(f"malformed plan record: {exc}") from exc
    return QueryPlan(base, concepts, decoder)


def save_plan(plan: QueryPlan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan_to_dict(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plan(path) -> QueryPlan:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return plan_from_dict(data)
