"""Lower-bound machinery for nonadaptive phase-oracle algorithms.

The central quantity is the query weight W_j: the squared-amplitude mass of
basis tuples containing variable j an odd number of times.  Flipping bit j
of the input multiplies exactly those components by -1, so the overlap
between the two post-oracle states is 1 - 2*W_j.  Distinguishing the states
with error eps forces (1 - 2*W_j)^2 <= 4*eps*(1-eps), while the weights of a
normalized k-query state sum to at most k; together these give the query
lower bound n/2 * (1 - 2*sqrt(eps*(1-eps))) for functions depending on all
n variables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import TotalFunction
from .errors import ContractViolation, ValidationError
from .qstate import (
    ATOL,
    Measurement,
    ProjectiveMeasurement,
    QueryState,
    _state_vector,
    check_input,
    fwht,
    odd_masks,
    oracle_signs,
    ordered_sum,
    overlap_parts,
    overlap_terms,
)

EXACT_ATOL = 1e-12  # slack for pure sign arithmetic
SWEEP_CELLS = 1 << 18  # Gram cells per row block of the error_profile sweep


@dataclass(frozen=True)
class WeightProfile:
    """All n query weights of a state, with the counting bound noted."""

    n: int
    k: int
    weights: tuple[float, ...]

    @property
    def total(self) -> float:
        return sum(self.weights)


def query_weight(psi: QueryState, j: int) -> float:
    """W_j: squared-amplitude mass where variable j appears an odd number of times."""
    if not 1 <= j <= psi.n:
        raise ContractViolation(f"variable index {j} out of range [1, {psi.n}]")
    return weight_profile(psi).weights[j - 1]


def weight_profile(psi: QueryState) -> WeightProfile:
    """Every W_j, each summed over the entries in stored order."""
    if not psi.is_normalized():
        raise ContractViolation("state must be normalized")
    entry, var = psi.odd_incidence
    acc = np.bincount(var - 1, weights=psi.probs[entry], minlength=psi.n)
    return WeightProfile(psi.n, psi.k, tuple(acc.tolist()))


def oracle_pair_overlap(psi: QueryState, x: int, y: int) -> float:
    """<psi| (O_x O_y)^tensor-k |psi>; real because the operator is diagonal +/-1."""
    z = check_input(x, psi.n) ^ check_input(y, psi.n)
    return ordered_sum(oracle_signs(psi, z) * psi.probs)


def discrimination_feasible(overlap_sq: float, eps: float) -> bool:
    """True iff squared overlap <= 4*eps*(1-eps), the two-state discrimination limit."""
    if not 0.0 <= overlap_sq <= 1.0 + EXACT_ATOL:
        raise ContractViolation(f"overlap_sq must be in [0, 1], got {overlap_sq}")
    if not 0.0 <= eps <= 0.5:
        raise ContractViolation(f"eps must be in [0, 1/2], got {eps}")
    return overlap_sq <= 4.0 * eps * (1.0 - eps) + EXACT_ATOL


def helstrom_error(overlap_abs: float) -> float:
    """Minimum worst-case error for discriminating two equiprobable pure states.

    Satisfies 4*e*(1-e) = overlap_abs^2 exactly, so it witnesses that the
    discrimination bound is tight.
    """
    if not 0.0 <= overlap_abs <= 1.0 + EXACT_ATOL:
        raise ContractViolation(f"overlap_abs must be in [0, 1], got {overlap_abs}")
    return (1.0 - math.sqrt(max(0.0, 1.0 - overlap_abs**2))) / 2.0


def error_lower_bound(psi: QueryState, f: TotalFunction) -> float:
    """Smallest worst-case error any measurement on psi can achieve for f.

    For every variable j that f depends on there is a sensitive input pair
    whose post-oracle states overlap by 1 - 2*W_j, so the error is at least
    helstrom_error(|1 - 2*W_j|); the max over relevant j binds.
    """
    if psi.n != f.n:
        raise ContractViolation(f"state has n={psi.n}, function has n={f.n}")
    relevant = f.relevant_variables()
    if not relevant:
        raise ValidationError("function is constant: no sensitive pairs exist")
    profile = weight_profile(psi)
    return max(helstrom_error(abs(1.0 - 2.0 * profile.weights[j - 1])) for j in relevant)


def query_lower_bound(n: int, eps: float) -> float:
    """n/2 * (1 - 2*sqrt(eps*(1-eps))): queries needed at error eps, real-valued."""
    if n < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    if not 0.0 <= eps <= 0.5:
        raise ContractViolation(f"eps must be in [0, 1/2], got {eps}")
    return n / 2.0 * (1.0 - 2.0 * math.sqrt(eps * (1.0 - eps)))


def _exact_slices(z: np.ndarray, K: int) -> list[np.ndarray]:
    """Split a (K, u) real matrix into fixed-point slices whose pairwise Gram products are exact.

    Slice j holds integers of magnitude at most 2^beta times 2^(e - j*beta),
    where |z| < 2^e and K * 2^(2*beta) <= 2^53, so every partial sum of a slice
    product is an integer of at most 2^53 in its unit: BLAS computes it exactly,
    whatever its summation order, blocking or thread count.  Enough slices are
    kept that the dropped tail is of the order of one rounding, 2^(2e - 53),
    per Gram entry.  All-zero rows add an exact 0 to every product, so they
    are dropped, but only after K is counted: beta and the slices stay those
    of the whole matrix.  K counts the rows of that whole matrix: z's own
    rows and any left out as known to be all zero, as error_profile leaves
    out the imaginary half of a real family's overlaps with a real state.
    """
    bits = (K - 1).bit_length()  # K <= 2^bits
    z = z[z.any(axis=1)]
    beta = (53 - bits) // 2
    e = int(np.frexp(np.max(np.abs(z), initial=0.0))[1])
    parts = []
    for j in range(1, -(-(53 + bits) // beta) + 1):
        scale = math.ldexp(1.0, j * beta - e)
        parts.append(np.rint(z * scale) / scale)
        z = z - parts[-1]  # exact: the remainder has fewer significant bits than z
    return parts


def _gram_rows(parts: list[np.ndarray], rows: slice) -> np.ndarray:
    """Rows of z^T z from z's exact slices: the products above the tail, in a fixed order.

    The sum starts from +0.0, so a product with an all-zero slice, which adds
    only signed zeros, cannot change a bit of it and is skipped.
    """
    live = [part.any() for part in parts]  # NaN counts as nonzero
    gram = np.zeros((parts[0][:, rows].shape[1], parts[0].shape[1]))
    for i, left in enumerate(parts):
        for j, right in enumerate(parts[: len(parts) - i]):
            if live[i] and live[j]:
                gram += left[:, rows].T @ right
    return gram


def error_profile(psi: QueryState, meas: Measurement, f: TotalFunction) -> np.ndarray:
    """Pr[output != f(x)] for every input x, swept exactly over all 2^n inputs.

    The measurement must be two-outcome with labels in {0, 1}.  The oracle
    only flips signs, and basis entries with the same odd mask flip
    together, so the measurement is first folded onto the u <= d distinct
    masks mu_a.  Then Pr[label 1 | x] = sum_{a,b} (-1)^parity(x & (mu_a ^
    mu_b)) G1[a, b] for a real u x u Gram matrix G1 (the label-1 effects'
    folded overlaps with the state, or the POVM's label-1 elements weighted
    by the state), and likewise for the total over all outcomes.
    Scattering each Gram entry to mu_a ^ mu_b, in row-major order, and one
    Walsh-Hadamard transform of length 2^n give every input at once, at a
    cost of u^2 * R + n * 2^n instead of 2^n * d * R.  The Gram goes through
    in blocks of at most SWEEP_CELLS cells (at least one row), so peak
    memory does not grow with u^2.  The complex products round as Python's
    (qstate.overlap_terms); a float64 family on a real state forms only their
    real half (qstate.overlap_parts).  Projective Grams are sums of exact slice
    products, and the folds, the scatter and the transform do not use BLAS,
    so the result is bit-identical for any SWEEP_CELLS, any BLAS thread
    count and any CPU.
    """
    if psi.n != f.n:
        raise ContractViolation(f"state has n={psi.n}, function has n={f.n}")
    v0 = _state_vector(psi, meas)
    projective = isinstance(meas, ProjectiveMeasurement)
    labels = [label for label, _ in (meas.effects if projective else meas.elements)]
    if not set(labels) <= {0, 1}:
        raise ContractViolation(f"measurement labels must be in {{0, 1}}, got {set(labels)}")

    raw = odd_masks(meas.basis_keys[:, :-1])
    order = np.argsort(raw, kind="stable")
    starts = np.flatnonzero(np.diff(raw[order], prepend=-1))
    masks = raw[order[starts]]

    def fold(a: np.ndarray, axis: int) -> np.ndarray:
        """Sum a's basis axis within each odd mask, in basis order."""
        a = a.take(order, axis=axis)
        return a if len(starts) == len(raw) else np.add.reduceat(a, starts, axis=axis)

    ones = np.array([label == 1 for label in labels], dtype=bool)
    if projective:
        parts = [fold(w, 1) for w in overlap_parts(meas.V, v0)]  # (R, u) each: split by mask
        # K counts a real and an imaginary row per effect, even when the imaginary half is left out
        slices = [_exact_slices(np.concatenate([w[s] for w in parts]), 2 * int(s.sum()))
                  for s in (ones, ~ones)]

        def gram(rows: slice) -> tuple[np.ndarray, np.ndarray]:
            g1 = _gram_rows(slices[0], rows)
            return g1, g1 + _gram_rows(slices[1], rows)
    else:
        sums = meas.M.sum(0, where=ones[:, None, None]), meas.M.sum(0)  # in element order, no copy
        terms = (overlap_terms(v0[:, None], m) for m in sums)  # conj(v0_a) m_ab
        g1, g_all = (fold(fold(re * v0.real - im * v0.imag, 0), 1) for re, im in terms)

        def gram(rows: slice) -> tuple[np.ndarray, np.ndarray]:
            return g1[rows], g_all[rows]

    h = np.zeros((2, 1 << f.n))  # label 1, all outcomes
    step = max(1, SWEEP_CELLS // len(masks))
    for start in range(0, len(masks), step):
        rows = slice(start, start + step)
        at = masks[rows, None] ^ masks[None, :]
        for h_row, g in zip(h, gram(rows)):
            if start:  # onto the sums of the earlier blocks, one entry at a time
                np.add.at(h_row, at, g)
            else:  # from the same zeros, in the same order as np.add.at: the same bits
                h_row[:] = np.bincount(at.ravel(), weights=g.ravel(), minlength=len(h_row))
    slices = None  # drop the exact slices before fwht's two buffers stack on them
    p1, total = fwht(h)
    if not np.max(np.abs(total - 1.0)) <= ATOL:  # written so that NaN fails
        raise ContractViolation(
            "measurement is not complete on the state's oracle orbit"
        )

    return np.where(f.table == 1, 1.0 - p1, p1)


def worst_case_error(psi: QueryState, meas: Measurement, f: TotalFunction) -> float:
    """Max over all 2^n inputs of the probability the measurement mislabels f."""
    return float(np.max(error_profile(psi, meas, f)))


def bound_report(
    psi: QueryState, f: TotalFunction, meas: Measurement | None = None
) -> dict:
    """Verification record for one (state, function[, measurement]) instance.

    theorem1_rhs is the query lower bound evaluated over the variables f
    actually depends on, at the worst-case error when a measurement is given
    and at the state's error lower bound otherwise.
    """
    relevant = f.relevant_variables()
    if not relevant:
        raise ValidationError("function is constant: nothing to bound")
    profile = weight_profile(psi)
    eps_lb = error_lower_bound(psi, f)
    report = {
        "n": f.n,
        "n_eff": len(relevant),
        "k": psi.k,
        "weights": list(profile.weights),
        "eps_lower_bound": eps_lb,
    }
    eps_operative = eps_lb
    if meas is not None:
        wce = worst_case_error(psi, meas, f)
        report["worst_case_error"] = wce
        eps_operative = wce
    rhs = query_lower_bound(len(relevant), min(eps_operative, 0.5))
    report["theorem1_rhs"] = rhs
    report["pass"] = psi.k + ATOL >= rhs
    return report
