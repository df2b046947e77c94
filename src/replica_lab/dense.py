"""Dense path-pair generator: the paper's object, and the tests' oracle of the l-blocks.

Propagating n (ket, bra) path pairs jointly turns the noise average into a
linear ODE on the 4^n-dimensional tensor space of pair states, with generator

  * a diagonal dephasing part, -gamma * (sum of per-pair ket-bra separations)^2,
  * an off-diagonal tunneling part, (i*delta/2) times the Kronecker sum of the
    single-pair jump matrix ``PAIR_JUMP``.

No production path builds it: it serves only the tests, as the oracle of the
blocks in :mod:`replica_lab.replica`.

Pair-state ordering is fixed as (ket, bra) = (L,L), (L,R), (R,L), (R,R) with
indices 0..3 and ket-bra separations 0, -1, +1, 0.  Multi-pair indices are
little-endian base 4: pair 0 is the least significant digit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import ModelParams, SpinState, WellLabel, _check_int, _check_real
from .replica import _expm

# Largest replica count; dim 4^6 = 4096 keeps dense linear algebra workable.
N_MAX = 6

# ket-bra separation per pair state, in units of the well spacing.
PAIR_XI = np.array([0.0, -1.0, 1.0, 0.0])

# Single-pair tunneling connectivity: entry (target, source) is +1 when the
# ket path hops, -1 when the bra path hops (the conjugate amplitude flips the
# sign); symmetric, rows sum to 0.
PAIR_JUMP = np.array([[0, -1, 1, 0], [-1, 0, 0, 1], [1, 0, 0, -1], [0, 1, -1, 0]])


def build_generator(n: int, params: ModelParams) -> np.ndarray:
    """The complex 4^n generator: dephasing diagonal plus tunneling Kronecker sum."""
    _check_int("replica count", n, 1, N_MAX)
    xi, jump = np.zeros(1), np.zeros((1, 1), dtype=int)
    for _ in range(n):  # the new pair is the most significant digit
        jump = np.kron(np.eye(4, dtype=int), jump) + np.kron(PAIR_JUMP, np.eye(len(xi), dtype=int))
        xi = np.add.outer(PAIR_XI, xi).ravel()
    gen = 0.5j * params.delta * jump
    gen[np.diag_indices_from(gen)] += -params.gamma * xi**2
    return gen


def evolve(gen: np.ndarray, v0: np.ndarray, t: float) -> np.ndarray:
    """Propagate a coefficient vector: exp(G t) @ v0."""
    v0 = np.asarray(v0, dtype=complex)
    if v0.shape != (len(gen),):
        raise ValueError(f"vector has shape {v0.shape}, generator dim is {len(gen)}")
    _check_real("time", t, 0)
    if t == 0.0:
        return v0.copy()
    return _expm(gen * t) @ v0


def pair_initial_vector(state: SpinState) -> np.ndarray:
    """Single-pair initial coefficients (|a|^2, a b*, a* b, |b|^2)."""
    a, b = complex(state.amp_left), complex(state.amp_right)
    return np.array([abs(a) ** 2, a * b.conjugate(), a.conjugate() * b, abs(b) ** 2])


def _pair_vectors(replicas: Sequence[tuple[SpinState, WellLabel]]) -> tuple[np.ndarray, np.ndarray]:
    """Initial vector and final-well selector of the replicas on the 4^n pair space."""
    v0, sel = np.ones(1), np.ones(1)
    for state, well in reversed(replicas):  # replica k is pair k, k = 0 least significant
        v0 = np.kron(v0, pair_initial_vector(state))
        sel = np.kron(sel, np.eye(4)[0 if well is WellLabel.LEFT else 3])
    return v0, sel
