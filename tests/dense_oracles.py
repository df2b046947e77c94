"""MomentSpec moments from the dense 4^n generator, as test oracles.

``_spec_vectors`` gives a spec's initial vector and selector on the 4^n
path-pair space.  Both stationary oracles contract the stationary projector of
the full generator with them, independently of the SO(3) blocks that
production code uses:

  * ``eig_moment``: the spectral projector onto the zero eigenspace, from a
    full eigendecomposition;
  * ``resolvent_moment``: the small-frequency residue lam * (lam I - G)^-1
    with Richardson extrapolation, mirroring the Laplace-domain argument.
"""

import numpy as np

from replica_lab.model import ModelParams, WellLabel
from replica_lab.replica import (
    MomentSpec,
    _kron_chain,
    _selector,
    _zero_cutoff,
    build_generator,
    pair_initial_vector,
)


def _spec_vectors(spec: MomentSpec) -> tuple[np.ndarray, np.ndarray]:
    init = pair_initial_vector(spec.initial_state)
    v0 = _kron_chain([init] * spec.n_pairs)
    sels = [_selector(WellLabel.LEFT)] * spec.n_left + [_selector(WellLabel.RIGHT)] * spec.n_right
    return v0, _kron_chain(sels)


def _dense(spec: MomentSpec, params: ModelParams):
    v0, sel = _spec_vectors(spec)
    return build_generator(spec.n_pairs, params).matrix(), v0.astype(complex), sel


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
