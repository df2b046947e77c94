"""MomentSpec moments and the spectrum of the dense 4^n generator, as test oracles.

``_spec_vectors`` gives a spec's initial vector and selector on the 4^n
path-pair space.  Both stationary oracles contract the stationary projector of
the full generator with them, independently of the SO(3) blocks that
production code uses:

  * ``eig_moment``: the spectral projector onto the zero eigenspace, from a
    full eigendecomposition;
  * ``resolvent_moment``: the small-frequency residue lam * (lam I - G)^-1
    with Richardson extrapolation, mirroring the Laplace-domain argument.

``spectrum`` sorts the generator's eigenvalues, the oracle of the decay
rates.
"""

import numpy as np

from replica_lab.model import ModelParams
from replica_lab.dense import _pair_vectors, build_generator
from replica_lab.replica import MomentSpec, _spec_replicas, _zero_cutoff


def _spec_vectors(spec: MomentSpec) -> tuple[np.ndarray, np.ndarray]:
    return _pair_vectors(_spec_replicas(spec))


def _dense(spec: MomentSpec, params: ModelParams):
    v0, sel = _spec_vectors(spec)
    return build_generator(spec.n_pairs, params), v0.astype(complex), sel


def spectrum(gen: np.ndarray) -> np.ndarray:
    """All eigenvalues of the generator, sorted by real part descending."""
    eigvals = np.linalg.eigvals(gen)
    order = np.lexsort((-eigvals.imag, -eigvals.real))
    return eigvals[order]


def eig_moment(spec: MomentSpec, params: ModelParams) -> complex:
    """sel @ P0 @ v0 with P0 the spectral projector onto the zero eigenspace."""
    matrix, v0, sel = _dense(spec, params)
    eigvals, eigvecs = np.linalg.eig(matrix)
    mask = np.abs(eigvals) < _zero_cutoff(params)
    if not mask.any():
        raise ArithmeticError("no zero eigenvalue found; generator is not stationary")
    coeffs = np.linalg.solve(eigvecs, v0)
    return complex(sel @ (eigvecs[:, mask] @ coeffs[mask]))


def resolvent_moment(spec: MomentSpec, params: ModelParams) -> complex:
    """Richardson-extrapolated lam * sel @ (lam I - G)^-1 @ v0 as lam -> 0+."""
    matrix, v0, sel = _dense(spec, params)
    lam0 = 1e-6 * max(params.gamma, params.delta)
    eye = np.eye(matrix.shape[0], dtype=complex)
    values = []
    for lam in (lam0, lam0 / 2.0, lam0 / 4.0):
        x = np.linalg.solve(lam * eye - matrix, v0)
        values.append(lam * (sel @ x))
    f1, f2, f4 = values
    g1 = 2.0 * f2 - f1
    g2 = 2.0 * f4 - f2
    return (4.0 * g2 - g1) / 3.0
