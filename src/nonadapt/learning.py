"""Exact learning from membership queries and the quantum-to-classical reduction.

A concept class is a finite set of candidate n-bit strings; a classical
nonadaptive learner queries a fixed distinguishing set of bit positions and
decodes.  A k-query quantum learner is turned into such a plan in three
steps: view it as a one-query learner of the k-fold tensor class, cover
every concept pair greedily by the tensor positions where the state's
squared-amplitude profile has mass, then expand each chosen tuple into its
distinct base indices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, islice
from typing import Iterable, Sequence

import numpy as np

from .bounds import _exact_slices
from .errors import (
    BoundViolation, ContractViolation, InputOutsideClass, ParseError, ValidationError, read_input,
    render_json,
)
from .qstate import (
    IndexTuple, QueryState, check_input, decode_words, encode_bits, fwht, odd_mask, odd_masks,
    oracle_phase, ordered_sum, parity,
)

MAX_TENSOR_POSITIONS = 1 << 20
# build_classical_plan's refusal limits: tensor-class entries, 1 byte each (the overlap
# check's 8-byte signs are per concept and support position), and pairs checked and printed
MAX_TENSOR_BITS = 1 << 24
MAX_OVERLAP_PAIRS = 1 << 17
# violating pairs a BoundViolation carries, the first in pair order
MAX_REPORTED_VIOLATIONS = 16
# check_pairwise_overlaps takes the spectrum path, for n <= MAX_SPECTRUM_BITS, when
# SPECTRUM_STEP_CELLS * n 2^n + SPECTRUM_FIXED_CELLS <= m^2 s.  With one BLAS thread on
# a 2-vCPU Xeon, a Gram cell costs about 0.12 ns and a transform step 5-13 ns (n = 14
# to 18: three or four slices and the autocorrelation's two transforms), about 64
# cells; the spectrum path's fixed work takes about 100 us more than the Gram's, about
# 2^20 cells.  Past n = 20 each 2^n transform is 8 MB and tens of ms.
MAX_SPECTRUM_BITS = 20
SPECTRUM_STEP_CELLS = 64
SPECTRUM_FIXED_CELLS = 1 << 20
# min_distinguishing_set's exact-search limit, in subset tests times concepts
# (about 10 ns each on a 2-CPU Xeon, so under 0.2 s)
MAX_EXACT_CELLS = 1 << 24
# subset-test cells per block of the exact search, a (block, m) int64 array of 64 KB:
# small enough that a search ending in its first block does little work past it
EXACT_BLOCK_CELLS = 1 << 13


@dataclass(frozen=True, eq=False)
class ConceptClass:
    """m distinct n-bit concepts; the learning task is to identify one by queries.

    ``bits`` is a read-only (m, n) uint8 matrix: row i is concept i and
    column j - 1 holds position j.  The constructor accepts any sequence of
    equal-length 0/1 rows and validates it once (at least one concept, every
    row of length n >= 1, entries 0/1, no duplicate rows).
    """

    n: int
    bits: np.ndarray

    def __post_init__(self):
        if len(self.bits) == 0 or self.n < 1:
            raise ValidationError(f"concept class needs a concept and n >= 1, got n={self.n}")
        if not (isinstance(self.bits, np.ndarray) and self.bits.shape[1:] == (self.n,)):
            for row in self.bits:  # ragged input: name the first row of the wrong length
                if len(row) != self.n:
                    word = encode_bits(np.array([row]).astype(np.uint8))[0]
                    raise ValidationError(f"concept {word} has length {len(row)}, not {self.n}")
        bits = np.array(self.bits)
        if not ((bits == 0) | (bits == 1)).all():
            raise ValidationError("concept entries must be 0 or 1")
        bits = bits.astype(np.uint8, copy=False)
        if not _all_distinct(bits):
            raise ValidationError("concept class contains duplicate concepts")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other):
        if not isinstance(other, ConceptClass):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.bits, other.bits)

    @property
    def m(self) -> int:
        return len(self.bits)


def pattern_keys(bits: np.ndarray) -> np.ndarray:
    """One numpy void key per 0/1 row; keys compare and sort bytewise, as the rows' words do."""
    packed = np.packbits(bits, axis=1)
    keys = np.ones((len(bits), packed.shape[1] + 1), dtype=np.uint8)  # last byte 1: zero-width rows
    keys[:, :-1] = packed
    return keys.view(f"V{keys.shape[1]}").ravel()


def _all_distinct(bits: np.ndarray) -> bool:
    """True iff no two rows are equal: the sorted keys have no two equal neighbours."""
    keys = np.sort(pattern_keys(bits))
    return not (keys[1:] == keys[:-1]).any()


def _codes(c: ConceptClass) -> np.ndarray:
    """Each concept as an int64, position j in bit j - 1; only for n <= 62."""
    return (c.bits.astype(np.int64) << np.arange(c.n)).sum(axis=1)


def _count(v: int) -> str:
    """v in decimal, or bounded by a power of two where decimal would be too long to print."""
    return str(v) if v < 1 << 64 else f"at least 2^{v.bit_length() - 1}"


def full_concept_class(n: int) -> ConceptClass:
    """All 2^n strings, ordered by integer encoding."""
    if n > 12:
        raise ValidationError(f"full class has 2^{n} concepts; n <= 12 required")
    return ConceptClass(n, (np.arange(1 << n)[:, None] >> np.arange(n)) & 1)


def save_concept_class(c: ConceptClass, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{c.n} {c.m}\n")
        fh.writelines(word + "\n" for word in encode_bits(c.bits))


def load_concept_class(path) -> ConceptClass:
    lines = read_input(path).splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"{path}: line 1: expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"{path}: line 1: expected integers, got {lines[0]!r}") from exc
    if m < 0:
        raise ParseError(f"{path}: line 1: concept count m = {m} is negative")
    if len(lines) < m + 1:
        raise ParseError(f"{path}: expected {m} concept lines, found {len(lines) - 1}")
    rows = [line.strip() for line in lines[1 : m + 1]]
    bits, lengths, bad = decode_words(rows)
    if (bad := bad | (lengths != n) | (lengths == 0)).any():
        raise ParseError(f"{path}: line {np.argmax(bad) + 2}: expected {n} characters of 0/1")
    return ConceptClass(n, bits.reshape(len(rows), n if rows else 0))


def _columns(c: ConceptClass, indices: Iterable[int]) -> np.ndarray:
    """Columns of c.bits holding the 1-based positions, in the given order."""
    indices = list(indices)
    try:
        cols = np.array(indices, dtype=np.intp)
    except OverflowError:  # an index beyond 64 bits is out of range too
        cols = None
    if cols is None or ((cols < 1) | (cols > c.n)).any():
        bad = min(i for i in indices if not 1 <= i <= c.n)
        raise ContractViolation(f"index {bad} out of range [1, {c.n}]")
    return cols - 1


def is_distinguishing(c: ConceptClass, indices: Iterable[int]) -> bool:
    """True iff every pair of concepts differs on at least one queried position."""
    return _all_distinct(c.bits[:, _columns(c, sorted(set(indices)))])


def min_distinguishing_set(c: ConceptClass) -> tuple[int, ...]:
    """A smallest set of positions distinguishing the class, by exact search.

    Subsets go by increasing size, ties to the lexicographically smallest; the
    search refuses beyond n = 24, and stops with a ValidationError once its subset
    tests times m pass MAX_EXACT_CELLS.  It tests a block of subsets at once: a subset
    distinguishes the class when the concepts' masked codes, sorted, have no two
    equal neighbours.
    """
    if c.m == 1:
        return ()
    if c.n > 24:
        raise ValidationError(f"exact search enumerates subsets of [{c.n}]; n <= 24 required")
    codes = _codes(c)
    budget = MAX_EXACT_CELLS // c.m  # subsets tested before the cells pass the limit
    block = max(1, EXACT_BLOCK_CELLS // c.m)
    # s positions separate at most 2^s concepts
    for size in range((c.m - 1).bit_length(), c.n + 1):
        subsets = combinations(range(c.n), size)
        while True:
            # the full index set always distinguishes, so an untested subset remains
            if budget == 0:
                raise ValidationError(f"exact search passed {MAX_EXACT_CELLS} subset-test cells")
            chosen = np.fromiter(
                chain.from_iterable(islice(subsets, min(block, budget))), dtype=np.int64
            ).reshape(-1, size)
            if not len(chosen):
                break
            budget -= len(chosen)
            masked = np.sort(codes & (1 << chosen).sum(axis=1)[:, None], axis=1)
            ok = (masked[:, 1:] != masked[:, :-1]).all(axis=1)
            if ok.any():
                return tuple((chosen[np.argmax(ok)] + 1).tolist())
    raise RuntimeError("unreachable: the full index set always distinguishes")


# --- k-fold tensor view ---------------------------------------------------


def tensor_bit(n: int, x: int, t: Sequence[int]) -> int:
    """XOR of the bits of input x addressed by the tuple, with bit 0 always 0."""
    return (1 - oracle_phase(n, x, t)) // 2


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


def tensor_power_class(c: ConceptClass, k: int, positions) -> ConceptClass:
    """The k-fold parity extensions x -> (XOR of addressed bits per tuple) at the given positions.

    A position is the base-(n+1) encoding of an index tuple; position 0 (the
    all-zero tuple) is the always-0 bit, so positions lie in [1, (n+1)^k).
    Column i - 1 of the class holds positions[i - 1], the XOR of the k
    columns its digits address in c.bits with a zero column 0 prepended.
    The class is not checked again: its rows are distinct only if the
    positions separate c, as all (n+1)^k - 1 of them do.
    """
    if k < 1:
        raise ContractViolation(f"k must be >= 1, got {k}")
    size = (c.n + 1) ** k
    if size > MAX_TENSOR_POSITIONS:
        raise ValidationError(f"tensor class would have {_count(size)} positions; too large")
    digits = np.array(positions, dtype=np.int64)
    if digits.ndim != 1 or ((digits < 1) | (digits >= size)).any():
        raise ContractViolation(f"tensor positions must be a list of integers in [1, {size})")
    padded = np.zeros((c.n + 1, c.m), dtype=np.uint8)  # row j is position j; row 0 reads 0
    padded[1:] = c.bits.T
    bits = padded[digits % (c.n + 1)]  # whole rows: one per position and digit
    for _ in range(k - 1):  # one more base-(n+1) digit per pass, least significant first
        digits //= c.n + 1
        bits ^= padded[digits % (c.n + 1)]
    bits = np.ascontiguousarray(bits.T)
    bits.flags.writeable = False
    tclass = ConceptClass.__new__(ConceptClass)
    vars(tclass).update(n=bits.shape[1], bits=bits)
    return tclass


@dataclass
class ClassicalOracle:
    """Classical membership-query access to a hidden n-bit input, with a call counter."""

    n: int
    x: int
    queries_made: int = 0

    def __post_init__(self):
        check_input(self.x, self.n)

    def query(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ContractViolation(f"query index {i} out of range [1, {self.n}]")
        self.queries_made += 1
        return self.x >> (i - 1) & 1


def simulate_tensor_query(t: Sequence[int], oracle: ClassicalOracle) -> int:
    """Evaluate one tensor position using classical queries to the base string.

    Queries each distinct nonzero index in the tuple once (cost <= k), then
    XORs the values carrying odd multiplicity.
    """
    t = tuple(t)
    queried = sum(oracle.query(i) << (i - 1) for i in sorted({i for i in t if i != 0}))
    return parity(queried & odd_mask(t))


# --- amplitude profiles and the probabilistic extraction -------------------


@dataclass(frozen=True, eq=False)
class AmplitudeProfile:
    """Squared amplitudes per query position (0 included), as read-only float64 ``values``."""

    values: np.ndarray

    def __post_init__(self):
        p = np.array(self.values, dtype=np.float64)
        if not np.isfinite(p).all():
            raise ValidationError("profile entries must be finite")
        if (p < 0).any():
            raise ValidationError("profile entries must be nonnegative")
        if not abs((total := ordered_sum(p)) - 1.0) <= 1e-9:
            raise ValidationError(f"profile sums to {total!r}, expected 1")
        p.flags.writeable = False
        object.__setattr__(self, "values", p)

    def __eq__(self, other):
        if not isinstance(other, AmplitudeProfile):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    @classmethod
    def uniform(cls, length: int) -> "AmplitudeProfile":
        return cls(np.full(length, 1.0 / length))

    @property
    def positions(self) -> int:
        return len(self.values)


def amplitude_profile(psi: QueryState) -> AmplitudeProfile:
    """|amplitude|^2 per tuple position, summed over ancilla labels."""
    if not psi.is_normalized():
        raise ContractViolation("state must be normalized")
    size = (psi.n + 1) ** psi.k
    if size > MAX_TENSOR_POSITIONS:
        raise ValidationError(f"profile would have {_count(size)} positions; too large")
    positions = psi.index @ (psi.n + 1) ** np.arange(psi.k)  # tuple_to_position of each entry
    return AmplitudeProfile(np.bincount(positions, weights=psi.probs, minlength=size))


@dataclass(frozen=True)
class PairOverlap:
    i: int
    j: int
    overlap_sq: float
    ok: bool


@dataclass(frozen=True, eq=False)
class OverlapReport:
    """The m(m-1)/2 pairs (i, j), i < j, in pair order: overlap_sq and ok (overlap_sq <= bound
    + 1e-12) per pair, and the (P, 2) ``pairs`` rows, each built only when read.

    Without ``codes``, ``sq`` is overlap_sq itself (the Gram path).  With ``codes``, the
    concepts as integers, ``sq`` holds the squared overlap of a pair by the XOR of its
    codes (the spectrum path), and worst() and passed read it without any pair array.
    """

    bound: float
    m: int
    sq: np.ndarray
    codes: np.ndarray | None = None

    @cached_property
    def overlap_sq(self) -> np.ndarray:
        if self.codes is None:
            return self.sq
        upper = np.arange(self.m)[:, None] < np.arange(self.m)  # row-major: pair order
        return self.sq[(self.codes[:, None] ^ self.codes)[upper]]

    @cached_property
    def ok(self) -> np.ndarray:
        return self.overlap_sq <= self.bound + 1e-12

    @property
    def passed(self) -> bool:
        return self.m < 2 or self.worst().ok

    @cached_property
    def pairs(self) -> np.ndarray:
        return np.stack(np.triu_indices(self.m, 1), axis=1)

    def _pair_rows(self, r: np.ndarray) -> np.ndarray:
        """The (i, j) rows of pair-order positions r: row i starts at position i(2m - i - 1)/2."""
        i = np.arange(self.m)
        starts = i * (2 * self.m - i - 1) // 2
        row = np.searchsorted(starts, r, side="right") - 1
        return np.stack([row, r - starts[row] + row + 1], axis=1)

    def violations(self, limit: int | None = None) -> tuple[PairOverlap, ...]:
        """The pairs over the bound in pair order; only the first limit when given."""
        bad = np.flatnonzero(~self.ok)[:limit]
        return tuple(
            PairOverlap(i, j, s, False)
            for (i, j), s in zip(self._pair_rows(bad).tolist(), self.overlap_sq[bad].tolist())
        )

    def worst(self) -> PairOverlap:
        """The binding pair: the first in pair order with the largest overlap_sq.

        ok only turns false as overlap_sq grows, so it is ok iff every pair is.
        """
        if self.m < 2:
            raise ContractViolation(f"no concept pair was checked (m = {self.m})")
        if self.codes is None:
            r = int(np.argmax(self.sq))
            i, j = self._pair_rows(np.array([r]))[0].tolist()
        else:
            i, j = self._first_top_pair
            r = self.codes[i] ^ self.codes[j]
        return PairOverlap(i, j, float(self.sq[r]), bool(self.sq[r] <= self.bound + 1e-12))

    @cached_property
    def _first_top_pair(self) -> tuple[int, int]:
        """The first pair in pair order whose codes' XOR has the largest sq among the pairs'.

        The XORs that occur come from one autocorrelation: fwht(fwht(1_C)^2) is 2^n times
        the count of ordered pairs per XOR.  Its partial sums are integers of at most the
        squares' total, 2^n m <= 2^(2n), so it is exact for n <= 26.  The first pair is
        then searched row by row, in blocks, and is found in the first block when row 0
        has a tied partner, as every concept of the full class has.
        """
        member = np.zeros(len(self.sq))
        member[self.codes] = 1.0
        occurs = fwht(np.square(fwht(member))) > 0.0
        occurs[0] = False  # XOR 0 pairs a concept with itself
        tied = occurs & (self.sq == np.max(self.sq, where=occurs, initial=-np.inf))
        rows = max(1, EXACT_BLOCK_CELLS // self.m)
        for start in range(0, self.m, rows):
            i = np.arange(start, min(start + rows, self.m))
            hit = tied[self.codes[i, None] ^ self.codes] & (i[:, None] < np.arange(self.m))
            if hit.any():
                r, j = divmod(int(np.argmax(hit)), self.m)  # row-major: the first in pair order
                return start + r, j
        raise RuntimeError("unreachable: the largest sq is some pair's")


def _overlap_bound(eps: float) -> float:
    if not 0.0 <= eps <= 0.5:
        raise ContractViolation(f"eps must be in [0, 1/2], got {eps}")
    return 4.0 * eps * (1.0 - eps)


def _gram_overlaps(profile: AmplitudeProfile, c: ConceptClass, eps: float) -> OverlapReport:
    """Every pair's overlap from one float64 Gram product over the profile's support.

    The profile weights c's positions, position 0 (which never differs) included.
    """
    if profile.positions != c.n + 1:
        raise ContractViolation(f"profile has {profile.positions} positions, expected {c.n + 1}")
    bound = _overlap_bound(eps)
    p = profile.values
    supp = np.flatnonzero(p[1:] > 0.0)  # columns of c.bits; position 0 never differs
    signs = np.where(c.bits[:, supp], -1.0, 1.0)
    gram = (signs * p[1:][supp]) @ signs.T
    gram += p[0]  # in place: the same bits as p[0] + the product
    upper = np.arange(c.m)[:, None] < np.arange(c.m)  # row-major: the pairs in pair order
    return OverlapReport(bound, c.m, np.square(gram[upper]))


def _spectrum_overlaps(psi: QueryState, c: ConceptClass, eps: float) -> OverlapReport:
    """Every pair's overlap as ghat(x ^ y), ghat the Walsh-Hadamard transform of the mask mass g.

    g(mu) is the squared-amplitude mass of psi's entries with odd mask mu, and
    the post-oracle states of concepts x and y overlap in
    sum_mu g(mu) (-1)^parity((x ^ y) & mu).  ghat sums, in slice order, the
    transforms of g's exact slices (bounds._exact_slices with K = 2^n): each
    transform adds 2^n integers below 2^53, so it is exact, overlaps equal by
    symmetry tie bit for bit, and no BLAS kernel is involved.
    """
    bound = _overlap_bound(eps)
    size = 1 << c.n
    g = np.bincount(odd_masks(psi.index), weights=psi.probs, minlength=size)
    ghat = np.zeros(size)
    for part in fwht(np.concatenate(_exact_slices(g[None], size))):
        ghat += part
    return OverlapReport(bound, c.m, np.square(ghat), _codes(c))


def _spectrum_is_cheaper(n: int, m: int, s: int) -> bool:
    """Whether the spectrum path's n 2^n transform steps beat the Gram's m^2 s cells."""
    spectrum = SPECTRUM_STEP_CELLS * n * (1 << n) + SPECTRUM_FIXED_CELLS
    return n <= MAX_SPECTRUM_BITS and spectrum <= m * m * s


def check_pairwise_overlaps(
    psi: QueryState, c: ConceptClass, eps: float,
    profile: AmplitudeProfile | None = None, tclass: ConceptClass | None = None,
) -> OverlapReport:
    """Check (sum_t p_t (-1)^(x_t + y_t))^2 <= 4 eps (1-eps) for every concept pair of c.

    This is the feasibility constraint a one-query learner of the k-fold tensor
    class must satisfy when it identifies every concept with error at most eps:
    p is psi's amplitude profile and x_t a concept's tensor bit at position t.
    The sum is also ghat(x ^ y), the Walsh-Hadamard transform of psi's mass per
    odd mask, so the check has two paths, chosen by _spectrum_is_cheaper from
    n, m and the profile's support size s (see SPECTRUM_STEP_CELLS):

    - the spectrum path, for n <= 20 where about n 2^n transform steps cost
      less than m^2 s Gram cells: one exact transform of the mask mass.
      Overlaps equal by symmetry tie bit for bit, the binding pair is the
      first in pair order among exact ties, and no BLAS product is involved,
      so no BLAS kernel or thread count moves a bit.  Its report builds a pair
      array only when violations() or the arrays are read.
    - the Gram path: one float64 Gram product over c's tensor class on the
      support, tclass when given (build_classical_plan passes the class its
      cover reads, and psi's profile), else built here.  Its bits are the
      same for any BLAS thread count but not for every BLAS kernel: the kernel
      picks the product's summation order, so the last bits of an overlap,
      and with them the binding pair among near ties, can move.
    """
    if psi.n != c.n:
        raise ContractViolation(f"state has n={psi.n}, concept class has n={c.n}")
    p = (amplitude_profile(psi) if profile is None else profile).values
    support = np.flatnonzero(p[1:] > 0.0) + 1
    if _spectrum_is_cheaper(c.n, c.m, len(support)):
        return _spectrum_overlaps(psi, c, eps)
    if tclass is None:
        tclass = tensor_power_class(c, psi.k, support)
    # dropping zeros keeps the profile's sum, so its check, bit for bit
    reduced = AmplitudeProfile(np.concatenate([p[:1], p[support]]))
    return _gram_overlaps(reduced, tclass, eps)


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
    profile: AmplitudeProfile, c: ConceptClass, k_draws: int, rng: np.random.Generator
) -> SampleResult:
    """Draw positions i.i.d. from the profile with rng and test the resulting set.

    Draws of position 0 are recorded but contribute nothing to the set,
    since position 0 reads 0 on every concept.  Deterministic given rng's state.
    """
    if k_draws < 1:
        raise ContractViolation(f"k_draws must be >= 1, got {k_draws}")
    if profile.positions != c.n + 1:
        raise ContractViolation(f"profile has {profile.positions} positions, expected {c.n + 1}")
    drawn = rng.choice(profile.positions, size=k_draws, p=profile.values)
    draws = tuple(int(i) for i in drawn)
    index_set = tuple(sorted({i for i in draws if i != 0}))
    return SampleResult(draws, index_set, is_distinguishing(c, index_set))


def _greedy_over_support(c: ConceptClass, candidates: Iterable[int]) -> tuple[int, ...] | None:
    """Greedy set cover of the concept pairs by candidate positions.

    Repeatedly takes the candidate separating the most still-colliding pairs,
    ties to the earliest candidate; None when the candidates cannot separate
    every pair.  Colliding pairs are kept as groups of two or more concepts
    that agree on every chosen position, so a position separates ones * zeros
    pairs per group; each step splits every group on the chosen position and
    counts the ones of the half reading 1, the other half's by subtraction.
    If some distribution over the candidates separates every pair with
    probability at least delta, the best candidate separates at least delta of
    the pairs left (an average is at most the maximum), so the cover of
    P = m(m-1)/2 pairs stops within floor(ln P / delta) + 1 positions
    (Lovasz 1975).
    """
    candidates = list(candidates)
    cols = c.bits[:, _columns(c, candidates)]
    weights = cols.astype(np.float32)  # counts below 2^24 add exactly in any BLAS order
    rows = np.arange(c.m)  # the colliding concepts, group by group
    sizes = np.array([c.m])
    ones = cols.sum(axis=0, dtype=np.int64)[None]  # per group, the concepts reading 1 per column
    chosen: list[int] = []
    while len(rows) > 1:  # false only for one concept: later steps end at the break
        gain = (ones * (sizes[:, None] - ones)).sum(axis=0)
        if not gain.any():
            return None
        best = int(np.argmax(gain))  # first maximum: ties to the earliest candidate
        chosen.append(candidates[best])
        bit = cols[rows, best] == 1
        group = np.repeat(np.arange(len(sizes)), sizes)[bit]  # the group of each row reading 1
        n1 = np.bincount(group, minlength=len(sizes))
        sizes = np.concatenate([sizes - n1, n1])  # each group's 0 half, then its 1 half
        keep = sizes > 1  # a group of one collides with nothing
        if not keep.any():
            break
        member = np.zeros((len(n1), len(group)), dtype=np.float32)
        member[group, np.arange(len(group))] = 1.0
        ones1 = (member @ weights[rows[bit]]).astype(np.int64)  # the 1 halves, counted
        rows = np.concatenate([rows[~bit], rows[bit]])[np.repeat(keep, sizes)]
        ones = np.concatenate([ones - ones1, ones1])[keep]
        sizes = sizes[keep]
    return tuple(sorted(chosen))


# --- classical query plans --------------------------------------------------


@dataclass(frozen=True)
class QueryPlan:
    """A nonadaptive classical learner: fixed query positions plus a sorted-key decoder."""

    base_queries: tuple[int, ...]
    concepts: ConceptClass
    keys: np.ndarray = field(compare=False)  # the concepts' pattern keys at the positions, sorted
    decoder: np.ndarray = field(compare=False)  # the concept index of each key

    def decode(self, rows: np.ndarray) -> np.ndarray:
        keys = pattern_keys(rows)  # one 0/1 row per observation, one column per base query
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        if not (found := self.keys[at] == keys).all():
            pattern = tuple(rows[np.argmin(found)].tolist())
            raise InputOutsideClass(f"observed pattern {pattern} matches no concept in the class")
        return self.decoder[at]


def make_plan(c: ConceptClass, base_queries: Iterable[int]) -> QueryPlan:
    """The plan on the sorted positions; a collision names j, the first concept whose
    pattern an earlier one has, and i, the first such earlier concept.
    """
    base = tuple(sorted(set(base_queries)))
    keys = pattern_keys(c.bits[:, _columns(c, base)])
    order = np.argsort(keys, kind="stable")  # equal keys stay in concept order
    ranked = keys[order]
    if (repeat := ranked[1:] == ranked[:-1]).any():
        j = int(order[1:][repeat].min())
        i = int(np.argmax(keys == keys[j]))
        raise ValidationError(f"positions {base} do not distinguish concepts {i} and {j}")
    return QueryPlan(base, c, ranked, order)


def classical_learn(plan: QueryPlan, oracle: ClassicalOracle):
    """Query exactly the plan's positions, decode, and report the query count."""
    if oracle.n != plan.concepts.n:
        raise ContractViolation(f"oracle has n={oracle.n}, plan expects {plan.concepts.n}")
    row = np.array([[oracle.query(i) for i in plan.base_queries]], dtype=np.uint8)
    return LearnResult(int(plan.decode(row)[0]), len(plan.base_queries))


@dataclass(frozen=True)
class LearnResult:
    concept_index: int
    queries_used: int


@dataclass(frozen=True)
class PlanResult:
    plan: QueryPlan
    audit: dict
    overlap_report: OverlapReport | None


def build_classical_plan(learner, concepts: ConceptClass, eps: float) -> PlanResult:
    """Derandomize a k-query quantum learner into a certain classical plan.

    The learner may be a full algorithm or a bare input state; only its state
    (and implied query count k) is consumed, and the caller is responsible
    for having verified that it learns the class with error at most eps.
    Steps: build the tensor class on the positions where the amplitude profile
    has mass (a position without mass adds nothing to an overlap and is never
    a candidate), check the pairwise overlap constraints, cover every pair
    greedily by those positions, and expand the chosen tuples into base query
    positions.  The check takes the exact spectrum path or the Gram path over
    the tensor class, whichever its cost model finds cheaper; only the Gram
    path's last bits, and so a binding pair among near ties, can depend on
    the BLAS kernel (see check_pairwise_overlaps).  A
    pair within the overlap bound is separated by a profile draw with
    probability at least delta = (1 - c)/2, c = 2 sqrt(eps(1-eps)), so the
    greedy cover takes at most floor(ln P / delta) + 1 <= 4 log2(m) / (1 - c)
    tuples of at most k base queries each.  The plan is deterministic,
    identifies every concept exactly, and stays within
    ceil(4 k log2(m) / (1 - 2 sqrt(eps(1-eps)))) base queries, checked at runtime.
    """
    psi = getattr(learner, "psi", learner)
    if not isinstance(psi, QueryState):
        raise ContractViolation("learner must be an algorithm or a QueryState")
    if psi.n != concepts.n:
        raise ContractViolation(f"learner state has n={psi.n}, concept class has n={concepts.n}")
    if not 0.0 <= eps < 0.5:
        raise ContractViolation(f"eps must be in [0, 1/2), got {eps}")
    if not psi.is_normalized():
        raise ContractViolation("state must be normalized")
    k, m = psi.k, concepts.m
    # a one-concept class needs no queries; the general path updates the audit
    audit = dict(m=m, k=k, eps=eps, bound=0, tuple_count=0, base_query_count=0)
    if m == 1:
        return PlanResult(make_plan(concepts, ()), audit, None)
    tensor_bits, pairs = m * ((concepts.n + 1) ** k - 1), m * (m - 1) // 2
    if tensor_bits > MAX_TENSOR_BITS or pairs > MAX_OVERLAP_PAIRS:
        raise ValidationError(
            f"plan for m = {m} concepts and k = {k} queries needs a tensor class of "
            f"{_count(tensor_bits)} bits and {pairs} pair checks; refusing beyond "
            f"{MAX_TENSOR_BITS} bits or {MAX_OVERLAP_PAIRS} pairs"
        )

    profile = amplitude_profile(psi)
    support = np.flatnonzero(profile.values[1:] > 0.0) + 1
    tclass = tensor_power_class(concepts, k, support)
    report = check_pairwise_overlaps(psi, concepts, eps, profile, tclass)
    if not report.passed:
        worst = report.worst()
        raise BoundViolation(
            f"concepts {worst.i} and {worst.j} have squared overlap "
            f"{worst.overlap_sq:.6g} > {report.bound:.6g}; the claimed error "
            f"rate {eps} cannot be correct",
            pairs=report.violations(MAX_REPORTED_VIOLATIONS),
        )

    selected = _greedy_over_support(tclass, range(1, len(support) + 1))
    if selected is None:
        raise BoundViolation(
            "profile support cannot separate all concept pairs; the claimed error rate is wrong"
        )
    tuples = [position_to_tuple(int(support[i - 1]), concepts.n, k) for i in selected]
    base = sorted({i for t in tuples for i in t if i != 0})
    budget = math.ceil(k * classical_query_bound(m, eps))
    if len(base) > budget:
        raise BoundViolation(f"plan needs {len(base)} base queries, beyond its budget {budget}")
    audit.update(bound=budget, tuple_count=len(selected), base_query_count=len(base))
    return PlanResult(make_plan(concepts, base), audit, report)


# --- plan serialization -----------------------------------------------------


def plan_to_dict(plan: QueryPlan) -> dict:
    """The plan's record; decoder_table maps each 0/1 pattern, in sorted order, to its concept."""
    key_bytes = plan.keys.view(np.uint8).reshape(len(plan.keys), -1)
    patterns = np.unpackbits(key_bytes, axis=1, count=len(plan.base_queries))
    return {
        "base_queries": list(plan.base_queries),
        "concepts": encode_bits(plan.concepts.bits),
        "decoder_table": dict(zip(encode_bits(patterns), plan.decoder.tolist())),
    }


def plan_from_dict(data: dict) -> QueryPlan:
    """Rebuild a plan from its record; the plan is derived, then its table compared.

    base_queries must be a strictly increasing list of plain ints and
    decoder_table a mapping of 0/1 pattern strings to plain ints; nothing is
    coerced.
    """
    try:
        base, words, table = data["base_queries"], data["concepts"], data["decoder_table"]
        if not (isinstance(base, list) and isinstance(words, list) and isinstance(table, dict)):
            raise TypeError("base_queries and concepts must be lists, decoder_table an object")
        for v in [*base, *table.values()]:
            if type(v) is not int:
                raise TypeError(f"{v!r} is not an integer")
        patterns = list(table)
        pattern_bits, pattern_lengths, bad = decode_words(patterns)
        if bad.any():
            raise TypeError(f"decoder pattern {patterns[np.argmax(bad)]!r} is not a 0/1 string")
        n = len(words[0])
    except (KeyError, IndexError, TypeError) as exc:
        raise ParseError(f"malformed plan record: {exc}") from exc
    bits, lengths, bad = decode_words(words)
    if (bad := bad | (lengths == 0)).any():
        raise ParseError(f"expected a nonempty 0/1 string, got {words[np.argmax(bad)]!r}")
    if lengths[r := np.argmax(lengths != n)] != n:  # a ragged class
        raise ValidationError(f"concept {words[r]} has length {lengths[r]}, not {n}")
    if any(a >= b for a, b in zip(base, base[1:])):
        raise ValidationError(f"base_queries {base} are not strictly increasing")
    plan = make_plan(ConceptClass(n, bits.reshape(len(words), n)), base)
    if not _same_decoder(plan, pattern_bits, pattern_lengths, list(table.values())):
        raise ValidationError("decoder_table differs from the one its base_queries induce")
    return plan


def _same_decoder(plan: QueryPlan, bits: np.ndarray, lengths: np.ndarray, indices: list) -> bool:
    """Whether decoded {pattern: index} rows (bits end to end, lengths) are the plan's decoder."""
    q = len(plan.base_queries)
    if len(indices) != len(plan.keys) or (lengths != q).any():
        return False
    keys = pattern_keys(bits.reshape(len(indices), q))
    order = np.argsort(keys)  # distinct: the patterns were distinct strings of one length
    if not (keys[order] == plan.keys).all():
        return False
    return [indices[i] for i in order.tolist()] == plan.decoder.tolist()


def save_plan(plan: QueryPlan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(plan_to_dict(plan)))


def load_plan(path) -> QueryPlan:
    return plan_from_dict(read_input(path, as_json=True))
