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
    OracleString,
    PovmMeasurement,
    ProjectiveMeasurement,
    QueryState,
    _state_vector,
    odd_masks,
    oracle_signs,
    ordered_sum,
    parity,
)

EXACT_ATOL = 1e-12  # slack for pure sign arithmetic
SWEEP_CELLS = 1 << 18  # (input, basis) cells per chunk of the error_profile sweep


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


def oracle_pair_overlap(psi: QueryState, x: OracleString, y: OracleString) -> float:
    """<psi| (O_x O_y)^tensor-k |psi>; real because the operator is diagonal +/-1."""
    if psi.n != x.n or psi.n != y.n:
        raise ContractViolation("state and oracle strings must share n")
    return ordered_sum(oracle_signs(psi, x ^ y) * psi.probs)


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


def error_profile(psi: QueryState, meas: Measurement, f: TotalFunction) -> np.ndarray:
    """Pr[output != f(x)] for every input x, swept exactly over all 2^n inputs.

    The measurement must be two-outcome with labels in {0, 1}.  The sweep is
    vectorized: the oracle only flips signs, so the post-oracle amplitude
    vectors for all inputs are one sign table away from the input state.
    Inputs go through in chunks of at most SWEEP_CELLS (input, basis) cells,
    so peak memory does not grow with 2^n * d.  A chunk holds a power of two
    inputs, at least two, because a one-row product goes to gemv and an odd
    row count to an edge kernel, both rounding unlike the whole sweep; so
    both the projective and the POVM result are bit-identical for any
    SWEEP_CELLS (an einsum would pick its reduction order by chunk shape).
    """
    if psi.n != f.n:
        raise ContractViolation(f"state has n={psi.n}, function has n={f.n}")
    if not psi.is_normalized():
        raise ContractViolation("state must be normalized")

    if isinstance(meas, ProjectiveMeasurement):
        ref = meas.effects[0][1]
        if not psi.same_space(ref):
            raise ContractViolation("state and measurement live in different spaces")
        labels = [label for label, _ in meas.effects]
        rows = meas.V.conj().T  # (d, R)
    else:
        if (psi.n, psi.k, psi.ancilla_dim) != (meas.n, meas.k, meas.ancilla_dim):
            raise ContractViolation("state and measurement live in different spaces")
        labels = [label for label, _ in meas.elements]
    if not set(labels) <= {0, 1}:
        raise ContractViolation(f"measurement labels must be in {{0, 1}}, got {set(labels)}")

    v0 = _state_vector(psi, meas.basis_keys)
    masks = odd_masks(meas.basis_keys[:, :-1])
    inputs = 1 << f.n
    step = 1 << max(1, (SWEEP_CELLS // len(v0)).bit_length() - 1)
    p1 = np.zeros(inputs)
    total = np.zeros(inputs)
    for start in range(0, inputs, step):
        chunk = slice(start, min(start + step, inputs))
        xs = np.arange(chunk.start, chunk.stop, dtype=np.int64)
        signs = 1.0 - 2.0 * parity(xs[:, None] & masks[None, :])
        amps = signs * v0[None, :]  # post-oracle states for this chunk's inputs
        if isinstance(meas, ProjectiveMeasurement):
            probs = np.abs(amps @ rows) ** 2
            for r, label in enumerate(labels):
                if label == 1:
                    p1[chunk] += probs[:, r]
            total[chunk] = probs.sum(axis=1)
        else:
            for label, mat in meas.elements:
                p = np.real(np.sum((amps.conj() @ mat) * amps, axis=1))
                total[chunk] += p
                if label == 1:
                    p1[chunk] += p
    if np.max(np.abs(total - 1.0)) > ATOL:
        raise ContractViolation(
            "measurement is not complete on the state's oracle orbit"
        )

    fvals = np.array(f.table, dtype=np.float64)
    return np.where(fvals == 1.0, 1.0 - p1, p1)


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
