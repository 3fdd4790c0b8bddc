"""Sparse k-register query states and diagonal phase oracles.

A query register holds an index in [0, n]; a k-query state is a sparse
complex amplitude vector over k-tuples of indices, optionally tagged with an
ancilla label the oracle never touches.  The phase oracle for an n-bit string
x flips the sign of every basis tuple according to the parity of the
addressed bits, with index 0 pinned to bit 0 so the all-ones string stays
distinguishable from the all-zeros string.

States and measurements are immutable after construction; build the
amplitude dict first, then freeze it into a QueryState.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import ContractViolation, ParseError, ValidationError

ATOL = 1e-9

IndexTuple = tuple[int, ...]
AmplitudeKey = tuple[IndexTuple, int]  # (index tuple, ancilla label)


@dataclass(frozen=True)
class OracleString:
    """An n-bit input string, 1-indexed, with the fixed convention bit 0 = 0."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValidationError("oracle string must have length >= 1")
        if any(b not in (0, 1) for b in self.bits):
            raise ValidationError(f"oracle string entries must be 0/1, got {self.bits}")

    @property
    def n(self) -> int:
        return len(self.bits)

    def bit(self, i: int) -> int:
        """Bit at index i; index 0 always reads 0."""
        if i == 0:
            return 0
        if not 1 <= i <= self.n:
            raise ContractViolation(f"index {i} out of range [0, {self.n}]")
        return self.bits[i - 1]

    def __xor__(self, other: "OracleString") -> "OracleString":
        if self.n != other.n:
            raise ContractViolation(f"length mismatch: {self.n} vs {other.n}")
        return OracleString(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def flip(self, j: int) -> "OracleString":
        """The string with bit j toggled (XOR with the single-1 string at j)."""
        if not 1 <= j <= self.n:
            raise ContractViolation(f"variable index {j} out of range [1, {self.n}]")
        return OracleString(
            tuple(b ^ 1 if i == j - 1 else b for i, b in enumerate(self.bits))
        )

    def complement(self) -> "OracleString":
        return OracleString(tuple(1 - b for b in self.bits))

    def to_int(self) -> int:
        """Integer encoding, bit 1 = least significant."""
        return sum(b << i for i, b in enumerate(self.bits))

    @classmethod
    def from_int(cls, n: int, value: int) -> "OracleString":
        if not 0 <= value < (1 << n):
            raise ContractViolation(f"value {value} out of range for n={n}")
        return cls(tuple((value >> i) & 1 for i in range(n)))

    @classmethod
    def from_string(cls, text: str) -> "OracleString":
        if not text or any(c not in "01" for c in text):
            raise ParseError(f"expected a nonempty 0/1 string, got {text!r}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def zeros(cls, n: int) -> "OracleString":
        return cls((0,) * n)

    @classmethod
    def single_one(cls, n: int, j: int) -> "OracleString":
        """The string with a single 1 at position j."""
        if not 1 <= j <= n:
            raise ContractViolation(f"variable index {j} out of range [1, {n}]")
        return cls(tuple(1 if i == j - 1 else 0 for i in range(n)))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def validate_index_tuple(t: Sequence[int], n: int, k: int) -> IndexTuple:
    t = tuple(t)
    if len(t) != k:
        raise ContractViolation(f"index tuple {t} must have length {k}")
    for i in t:
        # odd_mask shifts by i, so a float or bool entry must not pass as an index
        if type(i) is not int or not 0 <= i <= n:
            raise ContractViolation(f"tuple entry {i!r} is not an integer in [0, {n}]")
    return t


def validate_dims(n, k, ancilla_dim) -> None:
    """n, k and ancilla_dim must be plain ints >= 1; a float or bool must not pass as one."""
    for name, v in (("n", n), ("k", k), ("ancilla_dim", ancilla_dim)):
        if type(v) is not int or v < 1:
            raise ValidationError(f"{name} must be an integer >= 1, got {v!r}")


def validate_ancilla(a, ancilla_dim: int) -> None:
    if type(a) is not int or not 0 <= a < ancilla_dim:
        raise ContractViolation(
            f"ancilla label {a!r} is not an integer in [0, {ancilla_dim - 1}]"
        )


def odd_mask(t: Sequence[int]) -> int:
    """Bitmask of the nonzero indices occurring an odd number of times in t.

    Index i sets bit i - 1, so the phase oracle for x flips the sign of t
    exactly when parity(x.to_int() & odd_mask(t)) is 1; index 0 never
    contributes, which is the convention that bit 0 reads 0.
    """
    mask = 0
    for i in t:
        if i:
            mask ^= 1 << (i - 1)
    return mask


def parity(v):
    """Parity of the set bits of an int, or elementwise of an integer array."""
    if isinstance(v, np.ndarray):
        return np.bitwise_count(v) & 1
    return v.bit_count() & 1


@dataclass(frozen=True)
class QueryState:
    """Sparse amplitude vector over (index tuple, ancilla) basis labels.

    Absent keys are exactly zero.  Iteration order is canonical
    (lexicographic in the tuple, then the ancilla label) so reports and
    serialized files are reproducible.
    """

    n: int
    k: int
    amplitudes: Mapping[AmplitudeKey, complex]
    ancilla_dim: int = 1

    def __post_init__(self):
        validate_dims(self.n, self.k, self.ancilla_dim)
        cleaned = {}
        for (t, a), amp in self.amplitudes.items():
            t = validate_index_tuple(t, self.n, self.k)
            validate_ancilla(a, self.ancilla_dim)
            amp = complex(amp)
            if amp != 0:
                cleaned[(t, a)] = amp
        object.__setattr__(self, "amplitudes", cleaned)

    def entries(self) -> Iterator[tuple[IndexTuple, int, complex]]:
        for (t, a) in sorted(self.amplitudes):
            yield t, a, self.amplitudes[(t, a)]

    def squared_norm(self) -> float:
        return sum(abs(amp) ** 2 for amp in self.amplitudes.values())

    def is_normalized(self, tol: float = ATOL) -> bool:
        return abs(self.squared_norm() - 1.0) <= tol

    def normalized(self) -> "QueryState":
        norm = math.sqrt(self.squared_norm())
        if norm == 0:
            raise ValidationError("cannot normalize the zero state")
        return QueryState(
            self.n,
            self.k,
            {key: amp / norm for key, amp in self.amplitudes.items()},
            self.ancilla_dim,
        )

    def support(self) -> frozenset[AmplitudeKey]:
        return frozenset(self.amplitudes)

    def same_space(self, other: "QueryState") -> bool:
        return (
            self.n == other.n
            and self.k == other.k
            and self.ancilla_dim == other.ancilla_dim
        )


def oracle_phase(x: OracleString, t: Sequence[int]) -> int:
    """Sign the phase oracle for x puts on the basis tuple t: (-1)^(sum of addressed bits)."""
    return 1 - 2 * parity(x.to_int() & odd_mask(validate_index_tuple(t, x.n, len(t))))


def apply_oracle(psi: QueryState, x: OracleString) -> QueryState:
    """Apply the k-fold phase oracle for x; ancilla labels are untouched."""
    if psi.n != x.n:
        raise ContractViolation(f"state has n={psi.n} but oracle string has n={x.n}")
    xi = x.to_int()
    new_amps = {
        (t, a): amp * (1 - 2 * parity(xi & odd_mask(t)))
        for (t, a), amp in psi.amplitudes.items()
    }
    return QueryState(psi.n, psi.k, new_amps, psi.ancilla_dim)


def inner_product(a: QueryState, b: QueryState) -> complex:
    """<a|b> over the shared support; conjugate-linear in the first argument."""
    if not a.same_space(b):
        raise ContractViolation(
            f"state spaces differ: (n,k,anc)=({a.n},{a.k},{a.ancilla_dim}) "
            f"vs ({b.n},{b.k},{b.ancilla_dim})"
        )
    small, big, conj_small = (
        (a, b, True) if len(a.amplitudes) <= len(b.amplitudes) else (b, a, False)
    )
    total = 0j
    for key, amp in small.amplitudes.items():
        other = big.amplitudes.get(key)
        if other is not None:
            total += amp.conjugate() * other if conj_small else other.conjugate() * amp
    return total


Outcome = Hashable


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """An orthonormal family of states, each labeled with an outcome.

    Labels may repeat; probabilities for a repeated label are summed.  The
    family must be complete on any state it measures (probabilities must sum
    to 1), which measure() enforces.

    Construction derives basis, the sorted union of the effect supports, and
    V, the (R, d) matrix whose row r is effect r's amplitudes over basis;
    orthonormality is the single check |conj(V) V^T - I| <= ATOL.
    """

    effects: tuple[tuple[Outcome, QueryState], ...]
    basis: tuple[AmplitudeKey, ...] = field(init=False, compare=False, repr=False)
    V: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        states = [s for _, s in self.effects]
        if not states:
            raise ValidationError("measurement needs at least one effect")
        first = states[0]
        for s in states[1:]:
            if not s.same_space(first):
                raise ValidationError("measurement states live in different spaces")
        basis = tuple(sorted(set().union(*(s.amplitudes for s in states))))
        index = {key: c for c, key in enumerate(basis)}
        vecs = np.zeros((len(states), len(basis)), dtype=complex)
        for r, s in enumerate(states):
            vecs[r, [index[key] for key in s.amplitudes]] = list(s.amplitudes.values())
        gram = vecs.conj() @ vecs.T
        bad = np.triu(np.abs(gram - np.eye(len(states))) > ATOL)
        if bad.any():
            # the first offender in row-major order: state i's norm precedes its pairs (i, j > i)
            i, j = divmod(int(np.argmax(bad)), len(states))
            if i == j:
                raise ValidationError(f"measurement state {i} is not normalized")
            raise ValidationError(f"measurement states {i} and {j} are not orthogonal")
        vecs.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "V", vecs)

    def relabel(self, fn: Callable[[Outcome], Outcome]) -> "ProjectiveMeasurement":
        return ProjectiveMeasurement(tuple((fn(o), s) for o, s in self.effects))


@dataclass(frozen=True)
class PovmMeasurement:
    """Positive operators over an explicitly declared ordered basis.

    The basis is a sequence of (index tuple, ancilla) labels; matrices are
    indexed against it.  Elements must be PSD within tolerance and sum to the
    identity on the declared basis.
    """

    n: int
    k: int
    basis: tuple[AmplitudeKey, ...]
    elements: tuple[tuple[Outcome, np.ndarray], ...]
    ancilla_dim: int = 1

    def __post_init__(self):
        validate_dims(self.n, self.k, self.ancilla_dim)
        seen = set()
        for (t, a) in self.basis:
            validate_index_tuple(t, self.n, self.k)
            validate_ancilla(a, self.ancilla_dim)
            if (t, a) in seen:
                raise ValidationError(f"duplicate basis label {(t, a)}")
            seen.add((t, a))
        d = len(self.basis)
        total = np.zeros((d, d), dtype=complex)
        frozen = []
        for outcome, mat in self.elements:
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (d, d):
                raise ValidationError(
                    f"element for outcome {outcome!r} has shape {mat.shape}, "
                    f"expected ({d}, {d})"
                )
            if np.max(np.abs(mat - mat.conj().T)) > ATOL:
                raise ValidationError(f"element for outcome {outcome!r} is not Hermitian")
            if np.linalg.eigvalsh(mat)[0] < -ATOL:
                raise ValidationError(f"element for outcome {outcome!r} is not PSD")
            total += mat
            frozen.append((outcome, mat))
        if np.max(np.abs(total - np.eye(d))) > ATOL:
            raise ValidationError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", tuple(frozen))

    def relabel(self, fn: Callable[[Outcome], Outcome]) -> "PovmMeasurement":
        return PovmMeasurement(
            self.n,
            self.k,
            self.basis,
            tuple((fn(o), m) for o, m in self.elements),
            self.ancilla_dim,
        )


Measurement = Union[ProjectiveMeasurement, PovmMeasurement]


def _state_vector(psi: QueryState, basis: Sequence[AmplitudeKey]) -> np.ndarray:
    index = {key: i for i, key in enumerate(basis)}
    v = np.zeros(len(basis), dtype=complex)
    for key, amp in psi.amplitudes.items():
        pos = index.get(key)
        if pos is None:
            raise ContractViolation(
                f"state support entry {key} is outside the declared measurement basis"
            )
        v[pos] = amp
    return v


def measure(psi: QueryState, meas: Measurement) -> dict[Outcome, float]:
    """Outcome distribution of measuring psi; probabilities sum to 1 within 1e-9."""
    if not psi.is_normalized():
        raise ContractViolation("state must be normalized before measurement")
    probs: dict[Outcome, float] = {}
    if isinstance(meas, ProjectiveMeasurement):
        ref = meas.effects[0][1]
        if not psi.same_space(ref):
            raise ContractViolation("state and measurement live in different spaces")
        if not psi.support() <= set(meas.basis):
            raise ContractViolation(
                "state support is not contained in the measurement basis support"
            )
        for outcome, s in meas.effects:
            p = abs(inner_product(s, psi)) ** 2
            probs[outcome] = probs.get(outcome, 0.0) + p
    elif isinstance(meas, PovmMeasurement):
        if (psi.n, psi.k, psi.ancilla_dim) != (meas.n, meas.k, meas.ancilla_dim):
            raise ContractViolation("state and measurement live in different spaces")
        v = _state_vector(psi, meas.basis)
        for outcome, mat in meas.elements:
            p = float(np.real(np.vdot(v, mat @ v)))
            probs[outcome] = probs.get(outcome, 0.0) + max(p, 0.0)
    else:
        raise ContractViolation(f"unsupported measurement type {type(meas)!r}")
    total = sum(probs.values())
    if abs(total - 1.0) > ATOL:
        raise ContractViolation(
            f"outcome probabilities sum to {total!r}; the measurement is not "
            "complete on this state"
        )
    return probs


def random_state(
    rng: np.random.Generator,
    n: int,
    k: int,
    ancilla_dim: int = 1,
    support_size: int | None = None,
) -> QueryState:
    """A normalized state with Gaussian amplitudes on a random sparse support."""
    total = (n + 1) ** k * ancilla_dim
    if support_size is None:
        support_size = min(16, total)
    support_size = min(support_size, total)
    flat = rng.choice(total, size=support_size, replace=False)
    amps = rng.normal(size=support_size) + 1j * rng.normal(size=support_size)
    entries = {}
    for f, amp in zip(flat, amps):
        f = int(f)
        a, rest = f % ancilla_dim, f // ancilla_dim
        t = []
        for _ in range(k):
            t.append(rest % (n + 1))
            rest //= n + 1
        entries[(tuple(t), a)] = complex(amp)
    return QueryState(n, k, entries, ancilla_dim).normalized()


def state_to_dict(psi: QueryState) -> dict:
    return {
        "n": psi.n,
        "k": psi.k,
        "ancilla_dim": psi.ancilla_dim,
        "entries": [
            {"tuple": list(t), "a": a, "re": amp.real, "im": amp.imag}
            for t, a, amp in psi.entries()
        ],
    }


def state_from_dict(data: dict) -> QueryState:
    try:
        n, k, ancilla_dim = data["n"], data["k"], data.get("ancilla_dim", 1)
        amps: dict[AmplitudeKey, complex] = {}
        for entry in data["entries"]:
            key = (tuple(entry["tuple"]), entry["a"])
            if key in amps:
                raise ValidationError(f"duplicate state entry {key}")
            amp = complex(entry["re"], entry["im"])
            # every command needs a normalized state; hypot, unlike abs, does not overflow
            if not math.hypot(amp.real, amp.imag) <= 1.0 + ATOL:
                raise ValidationError(f"state entry {key}: amplitude {amp!r} has magnitude > 1")
            amps[key] = amp
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed state record: {exc}") from exc
    return QueryState(n, k, amps, ancilla_dim)


def save_state(psi: QueryState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(psi), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_state(path) -> QueryState:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return state_from_dict(data)
