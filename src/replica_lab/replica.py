"""Replica engine: exact noise-averaged moments of per-realization probabilities.

A single noise realization turns the Bloch vector r of the initial state by
one random rotation R(t), so the probability of ending in the left well,
P = (1 + z)/2 with z the final Bloch z, is itself a random variable.  Its
moments are noise averages of polynomials in the final Bloch vector.

Averaged over the noise, a function of the Bloch vector evolves under
L = -i delta J_x - gamma J_z^2: tunneling turns the sphere about x and the
kicks diffuse the azimuth about z.  Both terms keep the harmonic degree l, so
L splits into blocks -(i delta/2)(J+ + J-) - gamma diag(m^2) of dimension
2l + 1, built from the ladder matrix sqrt(l(l+1) - m(m+1)) (L. D. Favro,
Phys. Rev. 119, 53 (1960); A. R. Edmonds, Angular Momentum in Quantum
Mechanics (1957)).  A quarter turn about z, diag(i^m), makes each block real:
B_l = delta (J+^T - J+)/2 - gamma diag(m^2), where (J+^T - J+)/2 = -i J_y is
also the generator of the turn that sets the polar angle.

  * MomentSpec moments at finite t: ((1+z)/2)^n ((1-z)/2)^m expands in
    Legendre polynomials P_l(z), l <= n + m; each term evolves in its block
    and is read at the initial Bloch angles.  The moment's decay rates are
    the eigenvalues of those blocks, kept where the term weighs them.
  * Stationary moments: for gamma, delta > 0 every block with l >= 1 decays,
    so u = R^T z-hat ends up uniform on the sphere and each replica's
    probability is (1 +- u.r_k)/2.  The product is a polynomial of degree n
    in u, which a Gauss-Legendre times trapezoid rule integrates exactly.
    Nothing is inverted or diagonalized, so the critical point
    gamma = 2 delta, where B_1 is defective, needs no special care.

The dense path-pair generator is the paper's object.  Propagating n (ket, bra)
path pairs jointly turns the noise average into a linear ODE on the
4^n-dimensional tensor space of pair states, with generator

  * a diagonal dephasing part, -gamma * (sum of per-pair ket-bra separations)^2,
  * an off-diagonal tunneling part, (i*delta/2) times the Kronecker sum of the
    single-pair jump matrix ``PAIR_JUMP``.

It serves only finite-time mixed moments, whose replicas start from
different states, and the tests, which use it as the oracle of the blocks.

Pair-state ordering is fixed as (ket, bra) = (L,L), (L,R), (R,L), (R,R) with
indices 0..3 and ket-bra separations 0, -1, +1, 0.  Multi-pair indices are
little-endian base 4: pair 0 is the least significant digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import legendre, polynomial

from .model import MAX_MOMENT_ORDER, ModelParams, SpinState, WellLabel, _bloch, _check_time

# Largest replica count of the dense generator; dim 4^6 = 4096 keeps dense
# linear algebra workable.
N_MAX = 6

# Eigenvalues with |mu| below this times max(gamma, delta) count as the
# stationary (zero) eigenspace; modes whose rate -Re mu does not exceed it do
# not decay.
ZERO_EIG_REL_CUTOFF = 1e-10

# Modes whose weight is below this share of sum_l |a_l| are absent from a
# moment's decay rates.
_REL_WEIGHT_TOL = 1e-9

_REAL_TOL = 1e-9

# ket-bra separation per pair state, in units of the well spacing.
PAIR_XI = np.array([0.0, -1.0, 1.0, 0.0])

# Single-pair tunneling connectivity: entry (target, source) is +1 when the
# ket path hops, -1 when the bra path hops (the conjugate amplitude flips the
# sign); symmetric, rows sum to 0.
PAIR_JUMP = np.array(
    [
        [0, -1, 1, 0],
        [-1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, -1, 0],
    ]
)


class NoStationaryLimitError(ValueError):
    """Raised when the dynamics has no unique stationary value (gamma or delta zero)."""


def _check_order(n: int, cap: int) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"replica count must be in 1..{cap}, got {n}")


def build_generator(n: int, params: ModelParams) -> np.ndarray:
    """The complex 4^n generator: dephasing diagonal plus tunneling Kronecker sum."""
    _check_order(n, N_MAX)
    xi, jump = np.zeros(1), np.zeros((1, 1), dtype=int)
    for _ in range(n):  # the new pair is the most significant digit
        jump = np.kron(np.eye(4, dtype=int), jump) + np.kron(PAIR_JUMP, np.eye(len(xi), dtype=int))
        xi = np.add.outer(PAIR_XI, xi).ravel()
    gen = 0.5j * params.delta * jump
    gen[np.diag_indices_from(gen)] += -params.gamma * xi**2
    return gen


def _expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential.  ``scipy.linalg`` loads here, on first use, so that
    the simulator and the statistics never pay for its import."""
    import scipy.linalg

    return scipy.linalg.expm(mat)


def evolve(gen: np.ndarray, v0: np.ndarray, t: float) -> np.ndarray:
    """Propagate a coefficient vector: exp(G t) @ v0."""
    v0 = np.asarray(v0, dtype=complex)
    if v0.shape != (len(gen),):
        raise ValueError(f"vector has shape {v0.shape}, generator dim is {len(gen)}")
    _check_time(t)
    if t == 0.0:
        return v0.copy()
    return _expm(gen * t) @ v0


@dataclass(frozen=True)
class MomentSpec:
    """Which moment to extract: initial state plus per-replica final wells."""

    initial_state: SpinState
    n_left: int
    n_right: int

    def __post_init__(self) -> None:
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError("replica counts must be >= 0")
        if self.n_pairs < 1:
            raise ValueError("need at least one replica")

    @property
    def n_pairs(self) -> int:
        return self.n_left + self.n_right


def pair_initial_vector(state: SpinState) -> np.ndarray:
    """Single-pair initial coefficients (|a|^2, a b*, a* b, |b|^2)."""
    a, b = complex(state.amp_left), complex(state.amp_right)
    return np.array([abs(a) ** 2, a * b.conjugate(), a.conjugate() * b, abs(b) ** 2])


def _pair_vectors(
    replicas: Sequence[tuple[SpinState, WellLabel]],
) -> tuple[np.ndarray, np.ndarray]:
    """Initial vector and final-well selector of the replicas on the 4^n pair space."""
    v0, sel = np.ones(1), np.ones(1)
    for state, well in reversed(replicas):  # replica k is pair k, k = 0 least significant
        v0 = np.kron(v0, pair_initial_vector(state))
        sel = np.kron(sel, np.eye(4)[0 if well is WellLabel.LEFT else 3])
    return v0, sel


def _as_probability(value: complex) -> float:
    if abs(value.imag) > _REAL_TOL:
        raise ArithmeticError(f"moment not real within {_REAL_TOL}: {value!r}")
    if not (-_REAL_TOL <= value.real <= 1.0 + _REAL_TOL):
        raise ArithmeticError(f"moment outside [0, 1] within {_REAL_TOL}: {value!r}")
    return min(1.0, max(0.0, value.real))


def _turn(ell: int) -> np.ndarray:
    """-i J_y = (J+^T - J+)/2 on |ell, m>, m = -ell..ell.

    J+ |m> = sqrt(ell(ell+1) - m(m+1)) |m+1> is the raising ladder.
    """
    m = np.arange(-ell, ell, dtype=float)
    up = np.diag(np.sqrt(ell * (ell + 1) - m * (m + 1)), -1)
    return 0.5 * (up.T - up)


def _block(ell: int, params: ModelParams) -> np.ndarray:
    """Degree-ell block of the noise-averaged generator, made real by the quarter turn diag(i^m)."""
    m = np.arange(-ell, ell + 1, dtype=float)
    return params.delta * _turn(ell) - params.gamma * np.diag(m**2)


def _legendre_terms(spec: MomentSpec, params: ModelParams):
    """(a_l, bra, B_l) of each Legendre term a_l P_l(z) of the moment's polynomial.

    The term contributes a_l bra @ exp(B_l t)[:, l], where e_l = |l, 0> is
    column l.  Before the quarter turn the bra is (D_l e_l)^H, with
    D_l = exp(-i phi J_z) exp(-i theta J_y) turning |l, 0> to the initial
    Bloch angles; after it, its entries are exp(-i m (phi - pi/2)) times the
    real column exp(theta (-i J_y))[:, l].  In that column and in the real
    evolved one, entries m and -m differ by (-1)^m, so the sine parts cancel
    and only cos(m (phi - pi/2)) remains.
    """
    x, y, z = _bloch(spec.initial_state)
    theta, phi = math.atan2(math.hypot(x, y), z), math.atan2(y, x)
    poly = polynomial.polymul(
        polynomial.polypow([0.5, 0.5], spec.n_left), polynomial.polypow([0.5, -0.5], spec.n_right)
    )
    for ell, coeff in enumerate(legendre.poly2leg(poly)):
        m = np.arange(-ell, ell + 1)
        bra = _expm(theta * _turn(ell))[:, ell] * np.cos(m * (phi - 0.5 * math.pi))
        yield coeff, bra, _block(ell, params)


def finite_time_moment(spec: MomentSpec, params: ModelParams, t: float) -> float:
    """<P_L^n_left P_R^n_right> at time t, exact to solver tolerance: a sum over l-blocks."""
    _check_time(t)
    _check_order(spec.n_pairs, MAX_MOMENT_ORDER)
    if t == 0.0:
        z = _bloch(spec.initial_state)[2]
        return _as_probability(((1.0 + z) / 2.0) ** spec.n_left * ((1.0 - z) / 2.0) ** spec.n_right)
    value = 0.0
    for ell, (coeff, bra, block) in enumerate(_legendre_terms(spec, params)):
        value += coeff * (bra @ _expm(block * t)[:, ell])
    return _as_probability(value)


def _require_stationary(params: ModelParams) -> None:
    if params.gamma == 0.0 or params.delta == 0.0:
        raise NoStationaryLimitError(
            "no stationary limit: dynamics is oscillatory (gamma=0) or frozen (delta=0)"
        )


def _haar_average(replicas: Sequence[tuple[SpinState, WellLabel]]) -> float:
    """Mean of prod_k (1 +- u.r_k)/2 over u uniform on the unit sphere.

    r_k is the Bloch vector of replica k's initial state; the sign is + for
    the left well.  The product is a polynomial of degree n in u.  The
    trapezoid rule with 2n + 1 nodes in phi is exact on its Fourier modes and
    leaves a polynomial of degree <= n in cos(theta), which Gauss-Legendre
    with n//2 + 1 nodes integrates exactly.
    """
    n = len(replicas)
    cos_t, weights = legendre.leggauss(n // 2 + 1)
    phi = 2.0 * np.pi * np.arange(2 * n + 1) / (2 * n + 1)
    sin_t = np.sqrt(1.0 - cos_t**2)[:, None]
    u = np.stack(np.broadcast_arrays(sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t[:, None]))
    product = np.ones(u.shape[1:])
    for state, well in replicas:
        sign = 1.0 if well is WellLabel.LEFT else -1.0
        product *= 0.5 * (1.0 + sign * np.tensordot(_bloch(state), u, axes=1))
    return float(weights @ product.sum(axis=1)) / (2.0 * len(phi))


def infinite_time_moment(spec: MomentSpec, params: ModelParams) -> float:
    """Stationary limit of :func:`finite_time_moment`: the Haar average of its polynomial."""
    _require_stationary(params)
    _check_order(spec.n_pairs, MAX_MOMENT_ORDER)
    state = spec.initial_state
    replicas = [(state, WellLabel.LEFT)] * spec.n_left + [(state, WellLabel.RIGHT)] * spec.n_right
    return _as_probability(_haar_average(replicas))


def mixed_initial_moment(
    replicas: Sequence[tuple[SpinState, WellLabel]],
    params: ModelParams,
    t: float | None = None,
) -> float:
    """<product over replicas of P(state_k -> well_k)> with per-replica initial states.

    Generalizes MomentSpec to correlators that pair different initial states
    against the same noise, e.g. the cross term of an initial-state
    sensitivity experiment.  t=None takes the stationary limit as a Haar
    average, exact up to ``MAX_MOMENT_ORDER`` replicas; a finite t evolves the
    dense 4^n generator, up to ``N_MAX`` replicas.
    """
    n = len(replicas)
    if t is None:
        _check_order(n, MAX_MOMENT_ORDER)
        _require_stationary(params)
        return _as_probability(_haar_average(replicas))
    _check_order(n, N_MAX)
    v0, sel = _pair_vectors(replicas)
    return _as_probability(sel @ evolve(build_generator(n, params), v0, t))


def _zero_cutoff(params: ModelParams) -> float:
    return ZERO_EIG_REL_CUTOFF * max(params.gamma, params.delta)


def moment_decay_rates(spec: MomentSpec, params: ModelParams) -> np.ndarray:
    """Decay rates actually present in the moment curve, slowest first.

    Expands each term a_l bra @ exp(B_l t) e_l of :func:`finite_time_moment`
    over the eigenmodes of B_l and keeps the rates (-Re mu) of modes whose
    weight is non-negligible, dropping modes that do not decay: the
    stationary mode, and at gamma = 0 the undamped rotations, whose
    eigenvalues are imaginary up to rounding.  Each block contributes each of
    its rates once, so rates that the 4^n generator repeats across copies of
    the same l appear once here.

    A weight counts as negligible against sum_l |a_l|, which bounds every
    term at every t >= 0 (the bra has norm at most 1 and exp(B_l t) is a
    contraction).  The summed mode weights are no such scale: near
    gamma = 2 delta, where B_1 is defective, two nearly equal modes carry
    large weights that cancel.
    """
    _check_order(spec.n_pairs, MAX_MOMENT_ORDER)
    eigvals, weights, scale = [], [], 0.0
    for ell, (coeff, bra, block) in enumerate(_legendre_terms(spec, params)):
        mu, modes = np.linalg.eig(block)
        eigvals.append(mu)
        weights.append(coeff * (bra @ modes) * np.linalg.solve(modes, np.eye(len(mu))[:, ell]))
        scale += abs(coeff)
    eigvals, weights = np.concatenate(eigvals), np.abs(np.concatenate(weights))
    active = (weights > _REL_WEIGHT_TOL * scale) & (-eigvals.real > _zero_cutoff(params))
    return np.sort(-eigvals[active].real)


def permutation_symmetry_defect(
    n: int, m: int, params: ModelParams, t: float | None = None
) -> float:
    """Defect of the initial/final permutation identity for moment orders (n, m).

    Compares <P_(L->L)^n P_(L->R)^m> against <P_(L->L)^m P_(R->L)^n>; the
    latter is the same selector pattern contracted against the all-right
    initial state.  The identity is exact in the stationary limit (t=None);
    at finite t it holds identically only for n == m, and the defect measures
    the remaining distance from stationarity otherwise.
    """
    if n == 0 and m == 0:
        return 0.0
    spec_left = MomentSpec(SpinState.localized(WellLabel.LEFT), n_left=n, n_right=m)
    spec_right = MomentSpec(SpinState.localized(WellLabel.RIGHT), n_left=n, n_right=m)
    if t is None:
        return abs(
            infinite_time_moment(spec_left, params) - infinite_time_moment(spec_right, params)
        )
    return abs(finite_time_moment(spec_left, params, t) - finite_time_moment(spec_right, params, t))
