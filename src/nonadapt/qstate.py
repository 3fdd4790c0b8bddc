"""Sparse k-register query states and diagonal phase oracles.

A query register holds an index in [0, n]; a k-query state is a sparse
complex amplitude vector over k-tuples of indices, optionally tagged with an
ancilla label the oracle never touches.  An n-bit input x is a plain int in
[0, 2^n), variable j at bit j - 1.  Its phase oracle flips the sign of every
basis tuple according to the parity of the addressed bits, with index 0
reading 0 so the all-ones input stays distinguishable from the all-zeros one.

A state is read-only arrays, validated once: a (d, k + 1) key matrix, each
row an index tuple and then its ancilla label, and the d nonzero complex
amplitudes.  It is built from an {(index tuple, ancilla): amplitude} dict,
or from arrays through QueryState.from_arrays; the dict form is rebuilt
only on request.  A state derived by new amplitudes on the same keys, as by
the oracle or normalization, shares its parent's checked key matrix through
QueryState.with_amps.  States and measurements are immutable after construction.

Every bit string read or written as 0/1 text goes through one codec: decode_bits
and decode_words give uint8 bits and mark the characters and words that are not
0/1, and encode_bits writes uint8 rows back as strings; input_bits gives an
input's bits as uint8.
"""
from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Hashable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import ContractViolation, ParseError, ValidationError, read_input, render_json

ATOL = 1e-9

IndexTuple = tuple[int, ...]
AmplitudeKey = tuple[IndexTuple, int]  # (index tuple, ancilla label)


def decode_bits(text: str) -> tuple[np.ndarray, np.ndarray]:
    """text as uint8 bits, one per code point ('?' past ASCII), and a mask of those not 0/1."""
    bits = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    return bits, bits > 1


def decode_words(words: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words' bits end to end, their lengths, and which are not strings of 0/1 characters."""
    text = [w if isinstance(w, str) else "?" for w in words]
    lengths = np.fromiter(map(len, text), dtype=np.int64, count=len(text))
    bits, bad = decode_bits("".join(text))
    word = np.searchsorted(np.cumsum(lengths), np.flatnonzero(bad), side="right")
    return bits, lengths, np.bincount(word, minlength=len(text)) > 0


def encode_bits(bits: np.ndarray) -> list[str]:
    """The rows of a 0/1 uint8 matrix as strings of '0' and '1', cut from one decode of it all."""
    m, width = bits.shape
    text = (bits + ord("0")).tobytes().decode()
    return [text[i:i + width] for i in range(0, len(text), width)] if width else [""] * m


def input_bits(x: int, n: int) -> np.ndarray:
    """The n bits of input x as uint8, variable j at entry j - 1, for any n."""
    raw = np.frombuffer(x.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


def check_input(x, n: int) -> int:
    """x, if it is an n-bit input: a plain int (not a bool) in [0, 2^n)."""
    if type(x) is not int or x < 0 or x.bit_length() > n:
        raise ContractViolation(f"input {x!r} is not an integer in [0, 2^{n})")
    return x


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


def odd_mask(t: Sequence[int]) -> int:
    """Bitmask of the nonzero indices occurring an odd number of times in t.

    Index i sets bit i - 1, so the phase oracle for x flips the sign of t
    exactly when parity(x & odd_mask(t)) is 1; index 0 never
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


def fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of the last axis: sum_y (-1)^parity(x & y) v[y].

    The last axis must have a power-of-two length N.  Returns a new array,
    real or complex as v is.  The stages run in constant geometry (Pease
    1968): each writes the sums of the even and odd entries to the first half
    of a second buffer and their differences to the second half, then the
    buffers swap.  Stage s thus pairs the entries that differ in bit s, and
    after log2 N stages the order is natural again.  Every output is the same
    a + b or a - b of the same operands, in the same stage order (span 1, 2,
    4, ...), as the in-place radix-2 butterflies, so it has the same bits.
    """
    v = np.asarray(v)
    v = np.array(v, dtype=np.result_type(v, np.float64))  # a copy: the stages write over it
    size = v.shape[-1]
    if size < 1 or size & (size - 1):
        raise ContractViolation(f"fwht needs a power-of-two length, got {size}")
    half, out = size // 2, np.empty_like(v)
    for _ in range(size.bit_length() - 1):
        even, odd = v[..., 0::2], v[..., 1::2]
        np.add(even, odd, out=out[..., :half])
        np.subtract(even, odd, out=out[..., half:])
        v, out = out, v
    return v


def odd_incidence(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(entry, var) pairs, entry-major, where var >= 1 occurs an odd number of times in a row."""
    s = np.sort(index, axis=1)
    change, edge = s[:, 1:] != s[:, :-1], np.ones((len(s), 1), dtype=bool)
    start = np.flatnonzero(np.concatenate([edge, change], axis=1))  # runs of equal indices
    end = np.flatnonzero(np.concatenate([change, edge], axis=1))
    odd = end[((end - start) % 2 == 0) & (s.flat[end] > 0)]  # odd-length runs of a variable
    return odd // s.shape[1], s.flat[odd]


def odd_masks(index: np.ndarray) -> np.ndarray:
    """odd_mask of every row of an index matrix, as int64; only for n <= 62.

    The XOR of a row's bits 1 << (i - 1) keeps exactly the indices of odd multiplicity.
    """
    return np.bitwise_xor.reduce(np.where(index > 0, np.left_shift(1, index - 1), 0), axis=1)


def ordered_sum(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ... in order, as a Python loop rounds; ndarray.sum does not."""
    return float(np.bincount(np.zeros(len(values), dtype=np.intp), weights=values, minlength=1)[0])


def group_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort (D, k + 1) key rows, each a tuple then its ancilla label, lexicographically.

    Returns the first row of each distinct key, in sorted order, and each row's key rank.
    """
    order = np.lexsort(keys.T[::-1])
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return order[new], rank


def key_tuples(keys: np.ndarray) -> list[AmplitudeKey]:
    return list(zip(map(tuple, keys[:, :-1].tolist()), keys[:, -1].tolist()))


def _key_arrays(keys, n: int, k: int, ancilla_dim: int) -> np.ndarray:
    """(d, k + 1) key matrix of (tuple, ancilla) labels, each entry checked as a plain int."""
    validate_dims(n, k, ancilla_dim)
    rows = [(*t, a) for t, a in keys]
    flat = list(chain.from_iterable(rows))
    if set(map(len, rows)) <= {k + 1} and set(map(type, flat)) <= {int}:
        with contextlib.suppress(OverflowError):  # then reported as out of range below
            return np.array(flat, dtype=np.int64).reshape(-1, k + 1)
    for t, a in keys:  # the first offender, reported as the range checks below report it
        validate_index_tuple(t, n, k)
        if type(a) is not int or not 0 <= a < ancilla_dim:
            raise ContractViolation(
                f"ancilla label {a!r} is not an integer in [0, {ancilla_dim - 1}]"
            )
    raise ValidationError(f"indices and ancilla labels must fit in 64 bits, got n = {n}")


def _checked_keys(n, k, ancilla_dim, keys, what="state entry") -> np.ndarray:
    """The key validator: integer entries, ranges over the whole matrix and no repeated key.

    An array must have an integer dtype.  Anything else is read entry by
    entry, since numpy reads True beside ints as 1.
    """
    validate_dims(n, k, ancilla_dim)
    if not isinstance(keys, np.ndarray):
        for x in np.array(keys, dtype=object).flat:
            if type(x) is bool or not isinstance(x, (int, np.integer)):
                raise ContractViolation(f"key entry {x!r} is not an integer")
    elif keys.dtype.kind not in "iu":
        raise ContractViolation(f"key matrix of dtype {keys.dtype} is not integer")
    try:
        keys = np.asarray(keys, dtype=np.int64)
    except OverflowError:  # a Python int beyond int64 is in no key range
        big = next(x for x in np.array(keys, dtype=object).flat if not -(1 << 63) <= x < 1 << 63)
        raise ContractViolation(f"key entry {big!r} is beyond the int64 range") from None
    if keys.ndim != 2 or keys.shape[1] != k + 1:
        raise ContractViolation(f"key matrix of shape {keys.shape} needs k + 1 = {k + 1} columns")
    bad = (keys < 0) | (keys > n)
    bad[:, -1] = (keys[:, -1] < 0) | (keys[:, -1] >= ancilla_dim)
    if bad.any():
        r, c = divmod(int(np.argmax(bad)), k + 1)  # the first offender in entry order
        name, top = ("tuple entry", n) if c < k else ("ancilla label", ancilla_dim - 1)
        raise ContractViolation(f"{name} {int(keys[r, c])!r} is not an integer in [0, {top}]")
    order = np.lexsort(keys.T[::-1])  # not group_keys: ranking every row doubles the cost
    repeats = order[1:][(keys[order[1:]] == keys[order[:-1]]).all(axis=1)]
    if repeats.size:
        r = repeats.min()  # the first repeat in stored order
        raise ValidationError(f"duplicate {what} {key_tuples(keys[r : r + 1])[0]}")
    return keys


@dataclass(frozen=True, init=False, eq=False)
class QueryState:
    """Sparse amplitude vector over (index tuple, ancilla) basis labels.

    Read-only arrays in the order given, zero amplitudes dropped (so absent
    keys are exactly zero): ``keys`` (d, k + 1) int64, each row an index
    tuple and then its ancilla label, whose column views are ``index``
    (d, k) and ``ancilla`` (d,), and ``amps`` (d,) complex128.  ``probs``,
    ``squared_norm()``, ``odd_incidence`` and ``mask_mass`` are computed once;
    ``amplitudes``, the dict in stored order, only on request.
    ``entries()`` iterates in canonical order (lexicographic in the tuple,
    then the ancilla label) so reports and serialized files are
    reproducible; equality ignores the order.
    """

    n: int
    k: int
    keys: np.ndarray = field(repr=False)
    amps: np.ndarray = field(repr=False)
    ancilla_dim: int = 1

    def __init__(self, n: int, k: int, amplitudes: Mapping[AmplitudeKey, complex], ancilla_dim=1):
        keys = _checked_keys(n, k, ancilla_dim, _key_arrays(amplitudes, n, k, ancilla_dim))
        amps = np.fromiter(amplitudes.values(), dtype=np.complex128, count=len(amplitudes))
        self._freeze(n, k, keys, amps, ancilla_dim)

    @classmethod
    def from_arrays(cls, n: int, k: int, keys, amps, ancilla_dim=1) -> "QueryState":
        """The state of a (d, k + 1) key matrix and d amplitudes, both kept read-only."""
        psi = cls.__new__(cls)
        psi._freeze(n, k, _checked_keys(n, k, ancilla_dim, keys), amps, ancilla_dim)
        return psi

    def with_amps(self, amps) -> "QueryState":
        """The state on self.keys, checked when self was built, with d new amplitudes."""
        psi = type(self).__new__(type(self))
        psi._freeze(self.n, self.k, self.keys, amps, self.ancilla_dim)
        return psi

    def with_rows(self, rows) -> list["QueryState"]:
        """The states on self.keys whose amplitudes are the rows of one (R, d) matrix.

        The matrix is copied once, made read-only and scanned once for zeros;
        a row holding a zero goes through with_amps, which drops it.
        """
        rows = np.array(rows, dtype=np.complex128)
        if rows.ndim != 2 or rows.shape[1] != len(self.keys):
            raise ContractViolation(f"{rows.shape} amplitude rows for {len(self.keys)} keys")
        rows.flags.writeable = False
        states = []
        for row, has_zero in zip(rows, (rows == 0).any(axis=1).tolist()):
            if has_zero:
                states.append(self.with_amps(row))
                continue
            psi = type(self).__new__(type(self))
            vars(psi).update(n=self.n, k=self.k, keys=self.keys, amps=row,
                             ancilla_dim=self.ancilla_dim)
            states.append(psi)
        return states

    def _freeze(self, n, k, keys, amps, ancilla_dim) -> None:
        """Store checked keys and their amplitudes read-only, zero amplitudes dropped."""
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (len(keys),):
            raise ContractViolation(f"{amps.shape} amplitudes for {len(keys)} keys")
        if not (nonzero := amps != 0).all():
            keys, amps = keys[nonzero], amps[nonzero]
        keys.flags.writeable = amps.flags.writeable = False
        vars(self).update(n=n, k=k, keys=keys, amps=amps, ancilla_dim=ancilla_dim)

    def __eq__(self, other):
        if not isinstance(other, QueryState):
            return NotImplemented
        return self.same_space(other) and self.amplitudes == other.amplitudes

    @property
    def index(self) -> np.ndarray:
        return self.keys[:, :-1]

    @property
    def ancilla(self) -> np.ndarray:
        return self.keys[:, -1]

    @cached_property
    def probs(self) -> np.ndarray:
        # Python's abs(amp) ** 2: np.abs and x * x round differently
        return np.array([abs(amp) ** 2 for amp in self.amps.tolist()], dtype=np.float64)

    @cached_property
    def odd_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        return odd_incidence(self.index)

    @cached_property
    def mask_mass(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries' distinct odd masks, sorted (int64 for n <= 62, else 0/1 rows of n), and
        g, their probs summed per mask in entry order, as a bincount over all 2^n masks adds."""
        if self.n <= 62:
            masks, which = np.unique(odd_masks(self.index), return_inverse=True)
        else:
            rows = np.zeros((len(self.keys), self.n + 1), dtype=np.uint8)
            rows[self.odd_incidence] = 1
            masks, which = np.unique(rows[:, 1:], axis=0, return_inverse=True)
        return masks, np.bincount(which.ravel(), weights=self.probs)

    @cached_property
    def amplitudes(self) -> dict[AmplitudeKey, complex]:
        return dict(zip(key_tuples(self.keys), self.amps.tolist()))

    def entries(self) -> Iterator[tuple[IndexTuple, int, complex]]:
        for (t, a) in sorted(self.amplitudes):
            yield t, a, self.amplitudes[(t, a)]

    @cached_property
    def _squared_norm(self) -> float:
        return ordered_sum(self.probs)

    def squared_norm(self) -> float:
        return self._squared_norm

    def is_normalized(self) -> bool:
        return abs(self.squared_norm() - 1.0) <= ATOL

    def normalized(self) -> "QueryState":
        norm = math.sqrt(self.squared_norm())
        if norm == 0:
            raise ValidationError("cannot normalize the zero state")
        re, im = self.amps.real, self.amps.imag
        # the parts of Python's amp / norm, which divides by complex(norm, 0.0)
        amps = (np.stack([re + im * 0.0, im - re * 0.0], axis=1) / norm).view(np.complex128)
        return self.with_amps(amps[:, 0])

    def support(self) -> frozenset[AmplitudeKey]:
        return frozenset(self.amplitudes)

    def same_space(self, other: "QueryState") -> bool:
        return (
            self.n == other.n
            and self.k == other.k
            and self.ancilla_dim == other.ancilla_dim
        )


def oracle_phase(n: int, x: int, t: Sequence[int]) -> int:
    """Sign the phase oracle for x puts on the basis tuple t: (-1)^(sum of addressed bits)."""
    return 1 - 2 * parity(check_input(x, n) & odd_mask(validate_index_tuple(t, n, len(t))))


def oracle_signs(psi: QueryState, x: int) -> np.ndarray:
    """The sign, 1.0 or -1.0, that the phase oracle for x puts on each entry of psi."""
    entry, var = psi.odd_incidence
    bits = input_bits(check_input(x, psi.n), psi.n)[var - 1]
    hits = np.bincount(entry, weights=bits, minlength=len(psi.amps))
    return 1.0 - 2.0 * (hits % 2)


def apply_oracle(psi: QueryState, x: int) -> QueryState:
    """Apply the k-fold phase oracle for x; ancilla labels are untouched."""
    return psi.with_amps(psi.amps * oracle_signs(psi, x))


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


def _in_canonical_order(keys: np.ndarray) -> bool:
    """True if the key rows strictly increase lexicographically, as group_keys would order them."""
    step = keys[1:] != keys[:-1]
    col = np.argmax(step, axis=1)  # the first column in which each row leaves the one before
    rows = np.arange(len(col))
    return bool(step[rows, col].all() and (keys[1:][rows, col] > keys[:-1][rows, col]).all())


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """An orthonormal family of states, each labeled with an outcome.

    Labels may repeat; probabilities for a repeated label are summed.  The
    family must be complete on any state it measures (probabilities must sum
    to 1), which measure() enforces.

    Construction derives basis_keys, the (d, k + 1) key matrix of the sorted
    union of the effect supports, and V, the read-only (R, d)
    matrix whose row r is effect r's amplitudes over basis_keys; effects that
    share one key matrix, as QueryState.with_rows builds them, give V as one
    stack of their amplitudes, and basis_keys is that key matrix itself when
    it is already in canonical order.  V is float64 when no amplitude has a
    nonzero imaginary part, as in a Hadamard basis, and complex otherwise.
    Orthonormality is the single check |conj(V) V^T - I| <= ATOL on the
    whole matrix, after a whole-matrix finite check; the first offender is
    located only when a check fails.
    """

    effects: tuple[tuple[Outcome, QueryState], ...]
    basis_keys: np.ndarray = field(init=False, compare=False, repr=False)
    V: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        states = [s for _, s in self.effects]
        if not states:
            raise ValidationError("measurement needs at least one effect")
        first = states[0]
        for s in states[1:]:
            if not s.same_space(first):
                raise ValidationError("measurement states live in different spaces")
        shared = all(s.keys is first.keys for s in states)  # one support, as a Hadamard basis
        keys = first.keys if shared else np.vstack([s.keys for s in states])
        if shared:
            vecs = np.concatenate([s.amps for s in states]).reshape(len(states), len(keys))
            if not _in_canonical_order(keys):  # order the columns as group_keys orders the keys
                first = group_keys(keys)[0]
                keys, vecs = keys[first], vecs[:, first]
        else:
            first, rank = group_keys(keys)
            keys = keys[first]
            vecs = np.zeros((len(states), len(first)), dtype=complex)
            effect = np.repeat(np.arange(len(states)), [len(s.amps) for s in states])
            vecs[effect, rank] = np.concatenate([s.amps for s in states])
        if not vecs.imag.any():  # a real family, as a Hadamard basis: kept and checked as float64
            vecs = vecs.real.copy()
        if not np.isfinite(vecs).all():
            i = np.argmin(np.isfinite(vecs).all(axis=1))  # the first offender
            raise ValidationError(f"measurement state {i} has a non-finite amplitude")
        gram = vecs.conj() @ vecs.T if vecs.dtype == complex else vecs @ vecs.T
        gram.flat[:: len(states) + 1] -= 1.0
        gram = np.abs(gram)
        if not gram.max() <= ATOL:  # then find the offender: the gate reads the upper triangle
            bad = np.triu(gram > ATOL)
            if bad.any():
                # the first in row-major order: state i's norm precedes its pairs (i, j > i)
                i, j = divmod(int(np.argmax(bad)), len(states))
                if i == j:
                    raise ValidationError(f"measurement state {i} is not normalized")
                raise ValidationError(f"measurement states {i} and {j} are not orthogonal")
        vecs.setflags(write=False)
        object.__setattr__(self, "basis_keys", keys)
        object.__setattr__(self, "V", vecs)

    def relabel(self, fn: Callable[[Outcome], Outcome]) -> "ProjectiveMeasurement":
        return ProjectiveMeasurement(tuple((fn(o), s) for o, s in self.effects))


@dataclass(frozen=True)
class PovmMeasurement:
    """Positive operators over an explicitly declared ordered basis.

    The basis is a sequence of (index tuple, ancilla) labels, checked by the
    state key validator and kept as basis_keys, its (d, k + 1) key matrix;
    matrices are indexed against it.  Construction checks each element in
    turn (shape, finite, Hermitian) and writes it into M, one read-only
    complex (R, d, d) stack, then checks the whole stack PSD within tolerance.
    A failure names the first element that fails any of the four checks, as
    one loop over the elements would.  elements then holds the pairs
    (outcome, M[r]).  The stack must sum to the identity on the declared
    basis.
    """

    n: int
    k: int
    basis: tuple[AmplitudeKey, ...]
    elements: tuple[tuple[Outcome, np.ndarray], ...]
    ancilla_dim: int = 1
    basis_keys: np.ndarray = field(init=False, compare=False, repr=False)
    M: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        keys = _key_arrays(self.basis, self.n, self.k, self.ancilla_dim)
        keys = _checked_keys(self.n, self.k, self.ancilla_dim, keys, what="basis label")
        object.__setattr__(self, "basis_keys", keys)
        d = len(self.basis)
        stack = np.empty((len(self.elements), d, d), dtype=complex)
        for r, (outcome, mat) in enumerate(self.elements):
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (d, d):
                problem = f"has shape {mat.shape}, expected ({d}, {d})"
            elif not np.isfinite(mat).all():
                problem = "has a non-finite entry"
            elif np.max(np.abs(mat - mat.conj().T)) > ATOL:
                problem = "is not Hermitian"
            else:
                stack[r] = mat
                continue
            self._check_psd(stack[:r])  # an earlier element that is not PSD is named first
            raise ValidationError(f"element for outcome {outcome!r} {problem}")
        self._check_psd(stack)
        # the sum adds the elements in order; written so that NaN fails
        if not np.max(np.abs(stack.sum(axis=0) - np.eye(d))) <= ATOL:
            raise ValidationError("POVM elements do not sum to the identity")
        stack.setflags(write=False)
        object.__setattr__(self, "M", stack)
        object.__setattr__(self, "elements", tuple(zip([o for o, _ in self.elements], stack)))

    def _check_psd(self, stack: np.ndarray) -> None:
        """Name the first element of the checked stack with an eigenvalue below -ATOL.

        One stacked eigvalsh call finds them all, in float64 when the stack has no
        imaginary part: the real symmetric solver is about twice as fast.
        """
        if not len(stack):
            return
        low = np.linalg.eigvalsh(stack if stack.imag.any() else stack.real)[:, 0]
        if (bad := low < -ATOL).any():
            outcome = self.elements[int(np.argmax(bad))][0]
            raise ValidationError(f"element for outcome {outcome!r} is not PSD")

    def relabel(self, fn: Callable[[Outcome], Outcome]) -> "PovmMeasurement":
        """The same checked M and basis_keys under new labels; nothing is checked or copied again."""
        new = copy.copy(self)
        object.__setattr__(new, "elements", tuple((fn(o), m) for o, m in self.elements))
        return new


Measurement = Union[ProjectiveMeasurement, PovmMeasurement]


def _state_vector(psi: QueryState, meas: Measurement) -> np.ndarray:
    """psi's amplitudes over meas's basis; psi must be normalized, in meas's space and basis.

    A state on the basis's own key matrix gives its read-only amps as they are.
    """
    if not isinstance(meas, (ProjectiveMeasurement, PovmMeasurement)):
        raise ContractViolation(f"unsupported measurement type {type(meas)!r}")
    if not psi.is_normalized():
        raise ContractViolation("state must be normalized before measurement")
    ref = meas.effects[0][1] if isinstance(meas, ProjectiveMeasurement) else meas
    if (psi.n, psi.k, psi.ancilla_dim) != (ref.n, ref.k, ref.ancilla_dim):
        raise ContractViolation("state and measurement live in different spaces")
    if psi.keys is meas.basis_keys:  # on the basis's own key matrix, as apply_oracle keeps it
        return psi.amps
    d = len(meas.basis_keys)
    first, rank = group_keys(np.vstack([meas.basis_keys, psi.keys]))
    pos = first[rank[d:]]  # a stable sort puts a basis row first among equal keys
    outside = pos >= d
    if outside.any():
        key = key_tuples(psi.keys[outside])[0]
        raise ContractViolation(
            f"state support entry {key} is outside the declared measurement basis"
        )
    v = np.zeros(d, dtype=complex)
    v[pos] = psi.amps
    return v


def overlap_terms(V: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of conj(V) * v, broadcast, from separately rounded products.

    They round as Python's complex product does; numpy's complex multiply
    fuses multiply-add on some CPUs, so its bits vary by machine.
    """
    return V.real * v.real + V.imag * v.imag, V.real * v.imag - V.imag * v.real


def overlap_parts(V: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """overlap_terms(V, v), or only its real part when V is float64 and v has no imaginary part.

    The imaginary part left out is all zeros, and the real part differs from
    overlap_terms' at most in the sign of a zero, which neither |.|^2 nor a
    sum that starts from +0.0 can tell.
    """
    if V.dtype.kind == "f" and not v.imag.any():
        return (V * v.real,)
    return overlap_terms(V, v)


def measure(psi: QueryState, meas: Measurement) -> dict[Outcome, float]:
    """Outcome distribution of measuring psi; probabilities sum to 1 within 1e-9.

    No BLAS call and a fixed summation order: the same bits on every machine.
    """
    v = _state_vector(psi, meas)
    if isinstance(meas, ProjectiveMeasurement):
        # <s_r|psi>: the terms summed in basis order, the real part alone on a real family and state
        sums = np.cumsum(np.stack(overlap_parts(meas.V, v)), axis=2)[:, :, -1].tolist()
        ps = [abs(complex(*z)) ** 2 for z in zip(*sums)]
        pairs = meas.effects
    else:
        # Re <psi|M|psi> = Re <psi|M^dagger|psi> for any M: w_ra = sum_b conj(M_rba) v_b, one
        # loop over b so each temporary is (R, d), not stack-sized, then Re sum_a conj(v_a) w_ra,
        # each summed in basis order, so errors grow with d, not d^2
        wr = wi = 0.0
        for b, vb in enumerate(v):
            tr, ti = overlap_terms(meas.M[:, b], vb)
            wr, wi = wr + tr, wi + ti
        ps = [max(ordered_sum(t), 0.0) for t in v.real * wr + v.imag * wi]
        pairs = meas.elements
    probs: dict[Outcome, float] = {}
    for (outcome, _), p in zip(pairs, ps):  # summed per label in effect order
        probs[outcome] = probs.get(outcome, 0.0) + p
    total = sum(probs.values())
    if not abs(total - 1.0) <= ATOL:  # written so that NaN fails
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
    # flat = ancilla + ancilla_dim * (base-(n+1) digits of the tuple, little-endian)
    index = flat[:, None] // ancilla_dim // (n + 1) ** np.arange(k) % (n + 1)
    keys = np.column_stack([index, flat % ancilla_dim])
    return QueryState.from_arrays(n, k, keys, amps, ancilla_dim).normalized()


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
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):  # json reads NaN
                raise ValidationError(f"state entry {key}: amplitude {amp!r} is not finite")
            # every command needs a normalized state; hypot, unlike abs, does not overflow
            if not math.hypot(amp.real, amp.imag) <= 1.0 + ATOL:
                raise ValidationError(f"state entry {key}: amplitude {amp!r} has magnitude > 1")
            amps[key] = amp
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed state record: {exc}") from exc
    return QueryState(n, k, amps, ancilla_dim)


def save_state(psi: QueryState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(state_to_dict(psi)))


def load_state(path) -> QueryState:
    return state_from_dict(read_input(path, as_json=True))
