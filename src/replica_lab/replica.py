"""Replica engine: exact noise-averaged moments of per-realization probabilities.

A single noise realization turns the Bloch vector r of the initial state by
one random rotation R(t), so the probability of ending in the left well,
P = (1 + z)/2 with z the final Bloch z, is itself a random variable.  With
u = R^T z-hat, replica k started from Bloch vector r_k ends in the left
(right) well with probability (1 +- u.r_k)/2, so every moment is the noise
average of F(u) = prod_k (1 +- u.r_k)/2, a polynomial of degree n in u.

Averaged over the noise, a function of the Bloch vector evolves under
L = -i delta J_x - gamma J_z^2: tunneling turns the sphere about x and the
kicks diffuse the azimuth about z.  Both terms keep the harmonic degree l, so
L splits into blocks -(i delta/2)(J+ + J-) - gamma diag(m^2) on |l, m>,
m = -l..l, built from the ladder matrix sqrt(l(l+1) - m(m+1)) (L. D. Favro,
Phys. Rev. 119, 53 (1960); A. R. Edmonds, Angular Momentum in Quantum
Mechanics (1957)).  A quarter turn about z, diag(i^m), makes each block
real: delta (J+^T - J+)/2 - gamma diag(m^2), where (J+^T - J+)/2 = -i J_y
is also the generator of the turn that sets the polar angle.

Every moment goes through one harmonic projection.  Let b_l(u) be the bra of
degree l at u: the column exp(theta_u (-i J_y)) |l, 0> times
cos(m (phi_u - pi/2)), which is |l, 0> turned to u and quarter-turned.  Its
entries are degree-l harmonics, so c_l = (2l+1)/(4 pi) int F(u) b_l(u) dOmega
projects out the degree-l part of F, and Funk-Hecke plus linearity give the
moment at t as sum_l c_l @ exp(B_l t) |l, 0>.  A Gauss-Legendre (n + 1)
times trapezoid (2n + 1) grid integrates the degree-2n integrand exactly.

The reflection |m> -> (-1)^m |-m> commutes with every block and fixes
|l, 0>, and b_l(u) is even under it, since both its column and
cos(m (phi_u - pi/2)) are even in m.  So c_l has no odd part and the orbit
of |l, 0> never leaves the even sector, spanned by |l, 0> and
(|m> + (-1)^m |-m>)/sqrt(2), m = 1..l.  The engine works only there: B_l
is the (l + 1)-square even block, e_0 = |l, 0> its first basis vector, and
every moment is sum_l c_l @ exp(B_l t) e_0.  (A step that turns a single
function about z would leave the sector.)

  * Finite-time moments, of one initial state (MomentSpec) or of one state
    per replica, sum the terms.  The moment's decay rates are the
    eigenvalues of the blocks, kept where the term weighs them.  A moment
    curve projects once and walks each block from one time to the next.
  * Stationary moments: for gamma, delta > 0 every block with l >= 1 decays,
    so the moment tends to c_0, the average of F over the sphere.  Nothing
    is inverted or diagonalized, so the critical point gamma = 2 delta,
    where B_1 is defective, needs no special care.

The dense path-pair generator, the paper's object, is the tests' oracle of the
blocks in :mod:`replica_lab.dense`; no production path builds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    MAX_MOMENT_ORDER, ModelParams, SpinState, WellLabel, _bloch, _check_int, _check_real,
)

# Eigenvalues with |mu| below this times max(gamma, delta) count as the
# stationary (zero) eigenspace; modes whose rate -Re mu does not exceed it do
# not decay.
ZERO_EIG_REL_CUTOFF = 1e-10

# Terms and modes whose weight is below this share of sum_l ||c_l|| are absent
# from a moment's decay rates.
_REL_WEIGHT_TOL = 1e-9

_REAL_TOL = 1e-9


class NoStationaryLimitError(ValueError):
    """Raised when the dynamics has no unique stationary value (gamma or delta zero)."""


def _expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential: a degree-18 Taylor sum of A/2^s with ||A/2^s||_1 <= 1/2,
    squared s times (N. J. Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).

    The squarings act on D = exp(A/2^s) - I, as (I + D)^2 = I + 2D + D^2, so a
    slow mode of a strongly damped block, 1 - O(2^-s) in exp(A/2^s), keeps its
    deviation from 1 instead of losing it to rounding 2^s times over.
    """
    norm = np.abs(mat).sum(axis=0).max(initial=0.0)
    squarings = math.ceil(math.log2(2.0 * norm)) if norm > 0.5 else 0
    scaled = mat * math.ldexp(1.0, -squarings)
    eye = np.eye(len(mat), dtype=scaled.dtype)
    inner = eye
    for k in range(18, 1, -1):
        inner = eye + scaled @ inner / k
    dev = scaled @ inner
    for _ in range(squarings):
        dev = 2.0 * dev + dev @ dev
    return eye + dev


@dataclass(frozen=True)
class MomentSpec:
    """Which moment to extract: initial state plus per-replica final wells."""

    initial_state: SpinState
    n_left: int
    n_right: int

    def __post_init__(self) -> None:
        _check_int("n_left", self.n_left, 0)
        _check_int("n_right", self.n_right, 0)
        _check_int("replica count", self.n_pairs, 1)

    @property
    def n_pairs(self) -> int:
        return self.n_left + self.n_right


def _as_probability(value: float) -> float:
    if not (-_REAL_TOL <= value <= 1.0 + _REAL_TOL):
        raise ArithmeticError(f"moment outside [0, 1] within {_REAL_TOL}: {value!r}")
    return min(1.0, max(0.0, value))


def _turn(ell: int) -> np.ndarray:
    """-i J_y = (J+^T - J+)/2 on the even sector of degree ell.

    With the raising ladder J+ |m> = a_m |m+1>, a_m = sqrt(ell(ell+1) - m(m+1)),
    it is tridiagonal with super-diagonal a_m/2, m = 0..ell-1; the first entry
    is times sqrt(2), because |ell, 0> has no partner in the sector.
    """
    m = np.arange(ell, dtype=float)
    up = 0.5 * np.sqrt(ell * (ell + 1) - m * (m + 1))
    up[:1] *= math.sqrt(2.0)
    return np.diag(up, 1) - np.diag(up, -1)


def _block(ell: int, params: ModelParams) -> np.ndarray:
    """Degree-ell block of the noise-averaged generator, quarter-turned by diag(i^m), on its even sector."""
    m = np.arange(ell + 1, dtype=float)
    return params.delta * _turn(ell) - params.gamma * np.diag(m**2)


def _spec_replicas(spec: MomentSpec) -> list[tuple[SpinState, WellLabel]]:
    state = spec.initial_state
    return [(state, WellLabel.LEFT)] * spec.n_left + [(state, WellLabel.RIGHT)] * spec.n_right


def _signed_bloch(replicas: Sequence[tuple[SpinState, WellLabel]]) -> np.ndarray:
    """(n, 3) rows +-r_k: replica k's Bloch vector, negated for the right well."""
    for k, (_, well) in enumerate(replicas):
        if not isinstance(well, WellLabel):
            raise ValueError(f"replica {k}: well must be a WellLabel, got {well!r}")
    return np.array([_bloch(s) * (1.0 if w is WellLabel.LEFT else -1.0) for s, w in replicas])


def _terms(bloch: np.ndarray, params: ModelParams):
    """(c_l, B_l) for l = 0..n: the projection of F(u) = prod_k (1 + u.bloch_k)/2 on b_l.

    F is sampled on the Gauss-Legendre times trapezoid grid.  The trapezoid
    sums of F cos(m (phi - pi/2)), m = 0..n, are one matrix product that
    every l shares.  The columns exp(theta (-i J_y)) e_0 at all nodes come
    from one eigh of the Hermitian J_y = i (-i J_y), whose eigenvalues on
    the sector are distinct.
    """
    n = len(bloch)
    # looked up here, so a process that computes no moment never loads numpy.polynomial
    cos_t, weights = np.polynomial.legendre.leggauss(n + 1)
    phi = 2.0 * np.pi * np.arange(2 * n + 1) / (2 * n + 1)
    sin_t = np.sqrt(1.0 - cos_t**2)[:, None]
    u = np.stack(np.broadcast_arrays(sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t[:, None]))
    product = np.prod(0.5 * (1.0 + np.tensordot(bloch, u, axes=1)), axis=0)
    m = np.arange(n + 1)
    fourier = (weights[:, None] * (product @ np.cos(np.outer(phi - 0.5 * np.pi, m)))).T
    theta = np.arccos(cos_t)
    for ell in range(n + 1):
        eigvals, vecs = np.linalg.eigh(1j * _turn(ell))
        columns = ((vecs * vecs[0].conj()) @ np.exp(-1j * np.outer(eigvals, theta))).real
        coeff = (columns * fourier[: ell + 1]).sum(axis=1)
        yield (2 * ell + 1) / (2.0 * len(phi)) * coeff, _block(ell, params)


def _moment(replicas: list, params: ModelParams, t: float | None) -> float:
    """<prod_k P(state_k -> well_k)> at t, or its stationary limit c_0 for t=None."""
    if t is not None:
        return float(moment_curve(replicas, params, [t])[0])
    _check_int("replica count", len(replicas), 1, MAX_MOMENT_ORDER)
    bloch = _signed_bloch(replicas)
    if params.gamma == 0.0 or params.delta == 0.0:
        raise NoStationaryLimitError(
            "no stationary limit: dynamics is oscillatory (gamma=0) or frozen (delta=0)"
        )
    coeff, _ = next(_terms(bloch, params))
    return _as_probability(coeff[0])


def finite_time_moment(spec: MomentSpec, params: ModelParams, t: float) -> float:
    """<P_L^n_left P_R^n_right> at time t, exact to rounding: a sum over l-blocks."""
    _check_real("time", t, 0)  # _moment reads t=None as the stationary limit
    return _moment(_spec_replicas(spec), params, t)


def infinite_time_moment(spec: MomentSpec, params: ModelParams) -> float:
    """Stationary limit of :func:`finite_time_moment`: the sphere average of its polynomial."""
    return _moment(_spec_replicas(spec), params, None)


def mixed_initial_moment(
    replicas: Sequence[tuple[SpinState, WellLabel]],
    params: ModelParams,
    t: float | None = None,
) -> float:
    """<product over replicas of P(state_k -> well_k)> with per-replica initial states.

    Generalizes MomentSpec to correlators that pair different initial states
    against the same noise, e.g. the cross term of an initial-state
    sensitivity experiment.  t=None takes the stationary limit.  Exact up to
    ``MAX_MOMENT_ORDER`` replicas at any t.
    """
    return _moment(list(replicas), params, t)


def moment_curve(
    replicas: Sequence[tuple[SpinState, WellLabel]],
    params: ModelParams,
    times: Sequence[float],
) -> np.ndarray:
    """:func:`mixed_initial_moment` at each of the non-decreasing ``times``, in one walk.

    The terms are projected once; each block's column, e_0 at t = 0, is then
    carried from one time to the next by exp(B_l h), one exponential per distinct
    gap h.  A one-time call is the walk of a single gap, so the first
    value is the one-time call's bit for bit; a later one moves from it by
    the rounding of the extra products, about 1e-15.  t = 0 gives its exact
    value, the product over replicas at u = z-hat.
    """
    _check_int("replica count", len(replicas), 1, MAX_MOMENT_ORDER)
    for t in times:
        _check_real("time", t, 0)
    gaps = [float(b) - float(a) for a, b in zip([0.0, *times], times)]
    if any(h < 0 for h in gaps):
        raise ValueError("times must be non-decreasing")
    bloch = _signed_bloch(replicas)
    values = [0.0] * len(gaps)
    for coeff, block in _terms(bloch, params):
        steps = {h: _expm(block * h) for h in set(gaps)}
        column = None  # e_0, so the first step is column 0 of its exponential
        for i, h in enumerate(gaps):
            column = steps[h][:, 0] if column is None else steps[h] @ column
            values[i] += coeff @ column
    at_zero = float(np.prod(0.5 * (1.0 + bloch[:, 2])))
    return np.array([_as_probability(at_zero if t == 0.0 else v) for t, v in zip(times, values)])


def _zero_cutoff(params: ModelParams) -> float:
    return ZERO_EIG_REL_CUTOFF * max(params.gamma, params.delta)


def moment_decay_rates(spec: MomentSpec, params: ModelParams) -> np.ndarray:
    """Decay rates actually present in the moment curve, slowest first.

    Expands each term c_l @ exp(B_l t) e_0 of :func:`finite_time_moment`
    over the eigenmodes of B_l and keeps the rates (-Re mu) of modes whose
    weight is non-negligible, dropping modes that do not decay: the
    stationary mode, and at gamma = 0 the undamped rotations, whose
    eigenvalues are imaginary up to rounding.  Each block contributes each of
    its rates once, so rates that the dense generator repeats across copies of
    the same l appear once here.

    The blocks are the even sectors of the full ones, so only the l + 1
    modes that carry weight are diagonalized.  At strong noise a full
    block's +-m pairs split below rounding, and an eigensolver would return
    an arbitrary mix of their even and odd modes, whose weights straddle the
    cut by chance.

    A weight counts as negligible against sum_l ||c_l||, which bounds every
    term at every t >= 0: B_l + B_l^T = -2 gamma diag(m^2) <= 0, so
    exp(B_l t) is a 2-norm contraction.  A term below that cut is skipped
    whole, since the defective B_1 at gamma = 2 delta inflates a rounding
    c_1 into weights above it; the summed mode weights are no scale for the
    same reason, as two nearly equal modes carry large weights that cancel.
    """
    _check_int("replica count", spec.n_pairs, 1, MAX_MOMENT_ORDER)
    terms = list(_terms(_signed_bloch(_spec_replicas(spec)), params))
    cut = _REL_WEIGHT_TOL * sum(np.linalg.norm(coeff) for coeff, _ in terms)
    rates = [np.zeros(0)]
    for coeff, block in terms:
        if np.linalg.norm(coeff) <= cut:
            continue
        mu, modes = np.linalg.eig(block)
        weights = np.abs((coeff @ modes) * np.linalg.solve(modes, np.eye(len(mu))[:, 0]))
        rates.append(-mu[(weights > cut) & (-mu.real > _zero_cutoff(params))].real)
    return np.sort(np.concatenate(rates))


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
    left, right = (
        _moment(_spec_replicas(MomentSpec(SpinState.localized(w), n, m)), params, t)
        for w in (WellLabel.LEFT, WellLabel.RIGHT)
    )
    return abs(left - right)


# Tests and perfbench's tracer use these names here; bound last, as dense imports from here.
from .dense import build_generator, evolve, pair_initial_vector  # noqa: E402,F401
