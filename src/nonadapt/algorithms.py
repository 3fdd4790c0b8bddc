"""Reference nonadaptive algorithms that meet the query lower bound.

Three constructions: a ceil(n/2)-query exact evaluator of the n-bit parity
function built from disjoint pair parities, a k-query learner measuring in
the Fourier basis over index subsets of size at most k, and a one-query
exact learner for the class of subset-parity concepts on n = 2^b - 1 bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Hashable, Iterable

import numpy as np

from .errors import ContractViolation, ValidationError
from .learning import ConceptClass
from .qstate import (
    Measurement,
    OracleString,
    PovmMeasurement,
    ProjectiveMeasurement,
    QueryState,
    apply_oracle,
    encode_bits,
    fwht,
    group_keys,
    key_tuples,
    measure,
    odd_masks,
    parity,
)

MAX_POVM_CELLS = 1 << 24
MAX_PARITY_N = 20  # 2^10 effects of 2^10 entries; the error_profile sweep then dominates


def _identity(label: Hashable) -> Hashable:
    return label


def _hadamard_basis(
    n: int, index: np.ndarray, labels: Iterable[Hashable]
) -> tuple[QueryState, ProjectiveMeasurement]:
    """Uniform state over the 2^r rows of an index matrix and the Hadamard basis over them.

    Row c and effect s (both in order, ancilla 0) meet with sign
    (-1)^(parity of c AND s); returns the query state and the projective
    measurement whose effect s carries the s'th label.  The state keeps the
    rows in canonical order, so the measurement's basis is the state's own
    key matrix, neither sorted again nor aligned per measured state.
    """
    d = len(index)
    r = d.bit_length() - 1
    amp = 2.0 ** (-r / 2.0)
    codes = np.lexsort(index.T[::-1])  # row c of the sorted matrix is row codes[c] of index
    index = index[codes]
    rows = amp * (1.0 - 2.0 * parity(np.arange(d)[:, None] & codes))
    keys = np.column_stack([index, np.zeros(d, np.int64)])
    psi = QueryState.from_arrays(n, index.shape[1], keys, np.full(d, amp))
    effects = tuple(zip(labels, psi.with_rows(rows)))
    return psi, ProjectiveMeasurement(effects)


@dataclass(frozen=True)
class NonadaptiveAlgorithm:
    """A fixed query state, one oracle application, a measurement, postprocessing."""

    name: str
    psi: QueryState
    meas: Measurement
    postprocess: Callable[[Hashable], Hashable] = field(default=_identity, compare=False)

    def __post_init__(self):
        if not self.psi.is_normalized():
            raise ContractViolation(f"{self.name}: query state is not normalized")

    @property
    def n(self) -> int:
        return self.psi.n

    @property
    def k(self) -> int:
        return self.psi.k


def run_algorithm(alg: NonadaptiveAlgorithm, x: OracleString) -> dict:
    """Outcome distribution of the algorithm on hidden string x, after postprocessing."""
    if x.n != alg.n:
        raise ContractViolation(f"oracle string has n={x.n}, algorithm expects {alg.n}")
    raw = measure(apply_oracle(alg.psi, x), alg.meas)
    out: dict = {}
    for label, p in raw.items():
        key = alg.postprocess(label)
        out[key] = out.get(key, 0.0) + p
    return out


def decision_measurement(alg: NonadaptiveAlgorithm) -> Measurement:
    """Fold the postprocessing into the measurement labels."""
    return alg.meas.relabel(alg.postprocess)


# --- pairwise-parity evaluator ----------------------------------------------


def parity_registers(n: int) -> tuple[tuple[int, int], ...]:
    """Disjoint index pairs covering [1, n]; odd n pads the last with index 0."""
    regs = [(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)]
    if n % 2 == 1:
        regs.append((n, 0))
    return tuple(regs)


def build_parity_algorithm(n: int) -> NonadaptiveAlgorithm:
    """Exact evaluator of x_1 XOR ... XOR x_n with ceil(n/2) queries.

    Register r holds (|a_r> + |b_r>)/sqrt(2) for the pair (a_r, b_r) =
    (2r-1, 2r); odd n pairs the last index with the fixed zero index.  One
    oracle application turns register r into a +/- state for the pair parity
    x_{a_r} XOR x_{b_r}, the product +/- measurement reads all pair parities
    simultaneously and deterministically, and their XOR is the total parity.
    Raw outcome labels are tuples of pair-parity bits.
    """
    if n < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    if n > MAX_PARITY_N:
        half = (n + 1) // 2
        raise ValidationError(
            f"parity evaluator for n = {n} needs 2^{half} effects of 2^{half} entries "
            f"each; refusing beyond n = {MAX_PARITY_N}"
        )
    regs = parity_registers(n)
    index = np.array(list(product(*regs)), dtype=np.int64)
    psi, meas = _hadamard_basis(n, index, product((0, 1), repeat=len(regs)))

    def total_parity(signs) -> int:
        return sum(signs) & 1

    return NonadaptiveAlgorithm("pairwise-parity", psi, meas, total_parity)


# --- uniform-subset Fourier learner -----------------------------------------


def subset_count(n: int, k: int) -> int:
    """Number of subsets of [n] with size at most k."""
    return sum(math.comb(n, j) for j in range(min(k, n) + 1))


def recovery_success_probability(n: int, k: int) -> float:
    """Closed-form success probability of the subset learner: 2^-n * sum_{j<=k} C(n, j)."""
    if not 0 <= k <= n:
        raise ContractViolation(f"require 0 <= k <= n, got n={n}, k={k}")
    return subset_count(n, k) / float(1 << n)


def _check_subset_range(n: int, k: int, max_n: int, what: str) -> None:
    if n < 1 or not 0 <= k <= n:
        raise ContractViolation(f"require n >= 1 and 0 <= k <= n, got n={n}, k={k}")
    if n > max_n:
        raise ValidationError(f"{what}; n <= {max_n} required")


def _subset_masks(n: int, k: int) -> np.ndarray:
    """The masks of [n] with at most k bits set, ascending; checks the range first."""
    _check_subset_range(n, k, 16, f"subset state enumerates 2^{n} masks")
    masks = np.arange(1 << n, dtype=np.int64)
    return masks[np.bitwise_count(masks) <= k]


def build_subset_state(n: int, k: int) -> QueryState:
    """Uniform superposition over index subsets of size at most k.

    A subset is encoded as its indices in increasing order padded with
    zeros; the oracle then applies the phase (-1)^(sum of x over the
    subset).  k = 0 is allowed and yields the single empty subset, carried
    in a length-1 register.
    """
    masks = _subset_masks(n, k)
    bits = (masks[:, None] >> np.arange(n)) & 1
    cols = np.argsort(-bits, axis=1, kind="stable")[:, : max(k, 1)]  # set bits first, ascending
    index = np.where(np.take_along_axis(bits, cols, axis=1) == 1, cols + 1, 0)
    amp = complex(1.0 / math.sqrt(len(masks)))
    keys = np.column_stack([index, np.zeros(len(masks), np.int64)])
    return QueryState.from_arrays(n, max(k, 1), keys, np.full(len(masks), amp))


def subset_outcome_distribution(
    n: int, k: int, x: OracleString, outcomes: Iterable[int] | None = None
) -> np.ndarray:
    """Distribution of the subset learner's Fourier measurement on input x.

    Entry y is the probability of outcome y in the OracleString.to_int
    encoding; the mass outside the measured family, 1 - sum, is failure.
    The post-oracle state's Fourier coefficients are built straight from
    the subset masks, with the amplitude build_subset_state uses; they are
    real, so the overlaps are too, and one Walsh-Hadamard transform gives them all.
    Given outcomes, returns only dist[outcomes], with the same bits, from
    _subset_transform_at per outcome: n (k + 1) additions each, no 2^n
    array, for n up to 63.  An outcome must be an integer index in [0, 2^n).
    """
    if x.n != n:
        raise ContractViolation(f"oracle string has n={x.n}, expected {n}")
    if outcomes is None:
        masks = _subset_masks(n, k)
        coeff = np.zeros(1 << n)
        amp = 1.0 / math.sqrt(len(masks))
        coeff[masks] = amp * (1.0 - 2.0 * parity(x.to_int() & masks))
        spectrum = fwht(coeff)
    else:
        _check_subset_range(n, k, 63, f"outcomes index [0, 2^{n}) as int64")
        amp, xi, spectrum = 1.0 / math.sqrt(subset_count(n, k)), x.to_int(), []
        for y in outcomes:
            if isinstance(y, bool) or not isinstance(y, (int, np.integer)) or not 0 <= y < 1 << n:
                raise ContractViolation(
                    f"an outcome must be an integer index in [0, {1 << n}), got {y!r}"
                )
            spectrum.append(_subset_transform_at(n, k, amp, xi ^ int(y)))
        spectrum = np.array(spectrum, dtype=float)
    return np.abs(spectrum * 2.0 ** (-n / 2.0)) ** 2


def _subset_transform_at(n: int, k: int, amp: float, z: int) -> float:
    """Entry y of fwht on the subset learner's coefficients for input x, given z = x XOR y.

    Coefficient m is +-amp if m has at most k bits set and 0 otherwise, so
    after s stages of fwht every entry is +-F(w), w the popcount of its
    bits s and up, with F(w) = amp for w <= k and 0 above.  Stage s pairs
    the entries of weight w and w + 1 into F(w) + F(w + 1), or F(w) -
    F(w + 1) exactly where bit s of z is 1.  Rounding to nearest is
    symmetric in sign, so these are the same additions of the same operands
    as in fwht, with the same bits (the sign of a zero aside, which the
    square drops).  The one entry left after n stages has w = 0 and sign +1.
    """
    f = [amp] * (k + 1) + [0.0]
    weights = range(k + 1)
    for s in range(n):
        if z >> s & 1:
            for w in weights:
                f[w] -= f[w + 1]
        else:
            for w in weights:
                f[w] += f[w + 1]
    return f[0]


def build_subset_algorithm(n: int, k: int) -> NonadaptiveAlgorithm:
    """The subset learner with its Fourier measurement materialized as a POVM.

    Effects are rank-one projectors onto the Fourier family restricted to
    the low-weight support, plus a remainder effect labeled "fail".  Only
    intended at small n; the distribution helper covers the rest.
    """
    if k < 1:
        raise ContractViolation(f"POVM form requires k >= 1, got {k}")
    psi = build_subset_state(n, k)
    d = len(psi.amps)
    if (1 << n) * d * d > MAX_POVM_CELLS:
        raise ValidationError(
            f"POVM would need {(1 << n) * d * d} cells; use subset_outcome_distribution"
        )
    keys = psi.keys[group_keys(psi.keys)[0]]  # the support in canonical order
    basis = tuple(key_tuples(keys))
    ys = np.arange(1 << n)
    vecs = 2.0 ** (-n / 2.0) * (1.0 - 2.0 * parity(ys[:, None] & odd_masks(keys[:, :-1])))
    effects = vecs[:, :, None] * vecs[:, None, :]  # every outer product, real
    labels = encode_bits(((ys[:, None] >> np.arange(n)) & 1).astype(np.uint8))
    elements = (*zip(labels, effects), ("fail", np.eye(d) - effects.sum(axis=0)))
    meas = PovmMeasurement(n=n, k=psi.k, basis=basis, elements=elements)
    return NonadaptiveAlgorithm(f"subset-fourier-{k}", psi, meas)


# --- one-query subset-parity learner ----------------------------------------


def hadamard_concept_class(b: int) -> ConceptClass:
    """The 2^b concepts on n = 2^b - 1 bits whose bit i is the parity of s AND i."""
    if not 1 <= b <= 4:
        raise ContractViolation(f"require 1 <= b <= 4, got {b}")
    n = (1 << b) - 1
    return ConceptClass(n, parity(np.arange(1 << b)[:, None] & np.arange(1, n + 1)))


def build_hadamard_algorithm(b: int) -> NonadaptiveAlgorithm:
    """One-query exact learner of the subset-parity class.

    The query state is uniform over all indices 0..n with n = 2^b - 1; the
    oracle imprints the pattern (-1)^(parity of s AND i), and these 2^b
    patterns are exactly the rows of a Hadamard matrix, hence orthogonal.
    Measuring in that basis recovers the concept index s with certainty.
    """
    if not 1 <= b <= 4:
        raise ContractViolation(f"require 1 <= b <= 4, got {b}")
    n = (1 << b) - 1
    psi, meas = _hadamard_basis(n, np.arange(n + 1)[:, None], range(1 << b))
    return NonadaptiveAlgorithm(f"subset-parity-{b}", psi, meas)


def build_hadamard_instance(b: int) -> tuple[ConceptClass, NonadaptiveAlgorithm]:
    """Concept class and matching one-query exact learner, index-aligned by s."""
    return hadamard_concept_class(b), build_hadamard_algorithm(b)
