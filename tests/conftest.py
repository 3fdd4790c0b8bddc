"""Shared builders for states and measurements used across the suite."""
from __future__ import annotations

import numpy as np

from nonadapt import PovmMeasurement, ProjectiveMeasurement, QueryState
from nonadapt.qstate import encode_bits, group_keys, input_bits


def S(word: str) -> int:
    """The input whose variable j is character j of a 0/1 word: "01" is 2."""
    return int(word[::-1], 2)


def word(x: int, n: int) -> str:
    """The 0/1 word of an n-bit input, variable 1 first: the inverse of S."""
    return encode_bits(input_bits(x, n)[None])[0]


def concept_inputs(c) -> list[int]:
    """The concepts of a class as inputs, in class order."""
    return [S(w) for w in encode_bits(c.bits)]


def k1_state(n: int, amps: dict[int, complex], ancilla_dim: int = 1) -> QueryState:
    """One-register state from {index: amplitude}."""
    return QueryState(n, 1, {((i,), 0): a for i, a in amps.items()}, ancilla_dim)


def uniform_k1(n: int, indices) -> QueryState:
    indices = list(indices)
    amp = 1.0 / np.sqrt(len(indices))
    return k1_state(n, {i: amp for i in indices})


def random_projective(rng: np.random.Generator, psi: QueryState, binary_labels: bool = True):
    """Random orthonormal measurement over the state's support, via QR."""
    basis = sorted(psi.support())
    d = len(basis)
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(raw)
    effects = []
    for col in range(d):
        vec = {basis[r]: complex(q[r, col]) for r in range(d)}
        label = int(rng.integers(0, 2)) if binary_labels else col
        effects.append((label, QueryState(psi.n, psi.k, vec, psi.ancilla_dim)))
    return ProjectiveMeasurement(tuple(effects))


def random_two_outcome_povm(rng: np.random.Generator, psi: QueryState) -> PovmMeasurement:
    """Random POVM {E, I - E} over the state's support."""
    basis = tuple(sorted(psi.support()))
    d = len(basis)
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(raw)
    eig = rng.uniform(0.0, 1.0, size=d)
    e0 = (q * eig) @ q.conj().T
    e1 = np.eye(d) - e0
    return PovmMeasurement(
        n=psi.n, k=psi.k, basis=basis,
        elements=((0, e0), (1, e1)),
        ancilla_dim=psi.ancilla_dim,
    )


def reference_stack(meas: ProjectiveMeasurement) -> tuple[np.ndarray, np.ndarray]:
    """The basis keys and the complex (R, d) stack of a projective family, real or not.

    The construction every family went through before a real one kept V as
    float64: every effect's amplitudes scattered to its keys' canonical ranks.
    """
    states = [s for _, s in meas.effects]
    keys = np.vstack([s.keys for s in states])
    first, rank = group_keys(keys)
    V = np.zeros((len(states), len(first)), dtype=complex)
    effect = np.repeat(np.arange(len(states)), [len(s.amps) for s in states])
    V[effect, rank] = np.concatenate([s.amps for s in states])
    return keys[first], V


def reference_state_vector(psi: QueryState, basis_keys: np.ndarray) -> np.ndarray:
    """psi's complex amplitudes over the basis, aligned by key, never read off psi directly."""
    d = len(basis_keys)
    first, rank = group_keys(np.vstack([basis_keys, psi.keys]))
    v = np.zeros(d, dtype=complex)
    v[first[rank[d:]]] = psi.amps
    return v


def with_negative_zero_imag(psi: QueryState) -> QueryState:
    """psi with every imaginary part -0.0 instead of +0.0."""
    amps = np.array(psi.amps)
    amps.imag = -0.0
    return QueryState.from_arrays(psi.n, psi.k, psi.keys, amps, psi.ancilla_dim)


def real_orthonormal_family(rng: np.random.Generator, psi: QueryState, shared: bool = True):
    """A random real orthonormal family over psi's keys with random 0/1 labels.

    Shared, every effect sits on psi's key matrix itself; otherwise each on its own copy.
    """
    d = len(psi.keys)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    labels = rng.integers(0, 2, size=d).tolist()
    return ProjectiveMeasurement(tuple(
        (label, QueryState.from_arrays(psi.n, psi.k, psi.keys if shared else psi.keys.copy(),
                                       q[:, c], psi.ancilla_dim))
        for c, label in enumerate(labels)
    ))
