"""Core model: parameters, basis conventions, and exact reference curves.

The system is a particle in a symmetric double well, truncated to the
two-dimensional space spanned by the left/right localized states, with
tunneling rate ``delta`` and a classical white-noise field that randomizes
the left-right relative phase at dephasing rate ``gamma``.  Units fix
hbar = 1 and the well separation q0 = 1, so the noise field variance is
implied by gamma (``<phi^2> = 2*gamma``) and is never stored.

Basis convention: a state is a|L> + b|R>, its Bloch z is P_L - P_R
(+1 in the left well), and sigma_x maps |L> to |R> with no extra phase.

This module carries the closed-form noise-averaged curves for the
left-to-left survival probability and the averaged coherence, their
Laplace-domain counterparts, and the exact Beta(1,1) stationary moments.
Both the replica engine and the Monte Carlo simulator are checked against
these expressions.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

# Relative width of the window around gamma = 2*delta inside which the
# analytic critical limit replaces the direct two-exponential evaluation.
EPS_CRIT = 1e-9

# Tolerance for the imaginary residue left over by complex evaluation of
# the real-valued curves.  Exceeding it indicates a formula bug, so the
# check raises instead of silently clamping.
_REALNESS_TOL = 1e-12

# Highest moment order: the factorial guard of the exact rational moments and
# the order cap of the replica engine's MomentSpec moments and of the CLI.
MAX_MOMENT_ORDER = 20


def _check_int(name: str, value: int, lo: int, hi: float = math.inf) -> None:
    """The one count rule: an integer in [lo, hi], numpy's too, but never a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        bounds = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def _check_real(name: str, value: float, lo: float = -math.inf, strict: bool = False) -> None:
    """The one real rule: a finite real, numpy's too, never a bool, >= lo (> lo when strict)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (math.isfinite(value) and (value > lo if strict else value >= lo))
    ):
        bound = "" if lo == -math.inf else f" and {'>' if strict else '>='} {lo}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")


class WellLabel(Enum):
    """Which well a localized basis state sits in."""

    LEFT = "left"
    RIGHT = "right"


class Branch(Enum):
    """Damping regime of the averaged survival-probability curve."""

    OVERDAMPED = "overdamped"
    UNDERDAMPED = "underdamped"
    CRITICAL = "critical"


@dataclass(frozen=True)
class ModelParams:
    """Physics configuration: tunneling rate ``delta`` and dephasing rate ``gamma``.

    Both are angular frequencies (1/time); both must be finite and >= 0.
    """

    delta: float
    gamma: float

    def __post_init__(self) -> None:
        _check_real("delta", self.delta, 0)
        _check_real("gamma", self.gamma, 0)

    @property
    def discriminant(self) -> float:
        """gamma^2 - 4*delta^2; its sign selects the damping branch."""
        return self.gamma**2 - 4.0 * self.delta**2


def classify_branch(params: ModelParams) -> Branch:
    """Classify the damping regime, with a relative window for the critical case."""
    disc = params.discriminant
    scale = max(params.gamma**2, 4.0 * params.delta**2, 1.0)
    if abs(disc) < EPS_CRIT * scale:
        return Branch.CRITICAL
    return Branch.OVERDAMPED if disc > 0 else Branch.UNDERDAMPED


@dataclass(frozen=True)
class SpinState:
    """Pure state a|L> + b|R> of one noise realization.

    Must be normalized to 1e-12 at construction; every evolution step is an
    exact 2x2 unitary, so normalization survives to machine precision.
    """

    amp_left: complex
    amp_right: complex

    def __post_init__(self) -> None:
        norm_sq = abs(self.amp_left) ** 2 + abs(self.amp_right) ** 2
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |a|^2+|b|^2 = {norm_sq!r}")

    @classmethod
    def normalized(cls, amp_left: complex, amp_right: complex) -> "SpinState":
        """Build a state from unnormalized amplitudes."""
        norm = math.sqrt(abs(amp_left) ** 2 + abs(amp_right) ** 2)
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("cannot normalize zero or non-finite amplitudes")
        return cls(amp_left / norm, amp_right / norm)

    @classmethod
    def localized(cls, well: WellLabel) -> "SpinState":
        if well is WellLabel.LEFT:
            return cls(1.0 + 0.0j, 0.0j)
        return cls(0.0j, 1.0 + 0.0j)

    @property
    def p_left(self) -> float:
        return abs(self.amp_left) ** 2

    @property
    def p_right(self) -> float:
        return abs(self.amp_right) ** 2


def _bloch(state: SpinState) -> np.ndarray:
    """Bloch vector (x, y, z) of a|L> + b|R>: x + iy = 2 a b*, z = |a|^2 - |b|^2.

    So P_left = (1 + z)/2 and the coherence a b* = (x + iy)/2.  The simulator
    steps this vector; the replica engine reads its angles.
    """
    a, b = complex(state.amp_left), complex(state.amp_right)
    coh = 2.0 * a * b.conjugate()
    return np.array([coh.real, coh.imag, (a.real**2 + a.imag**2) - (b.real**2 + b.imag**2)])


def closed_form_p_ll(params: ModelParams, t: float) -> float:
    """Noise-averaged probability of staying in the left well.

    Evaluated as one complex-arithmetic expression with the principal square
    root of gamma^2 - 4*delta^2; the underdamped case turns into damped
    cosine/sine automatically.  Near the critical point the 0/0 form is
    replaced by its analytic limit 1/2 + exp(-gamma t/2)(1/2 + gamma t/4).
    The result must be real to 1e-12 (asserted) and is then clamped to [0, 1].
    """
    _check_real("time", t, 0)
    if t == 0.0:
        return 1.0
    gamma, delta = params.gamma, params.delta
    if classify_branch(params) is Branch.CRITICAL:
        return min(1.0, max(0.0, 0.5 + math.exp(-0.5 * gamma * t) * (0.5 + 0.25 * gamma * t)))
    root = cmath.sqrt(complex(params.discriminant))
    slow = -4.0 * delta**2 / (gamma + root)  # root - gamma, which cancels at gamma >> delta
    term_plus = cmath.exp(0.5 * t * slow) * (gamma + root) / (4.0 * root)
    term_minus = cmath.exp(-0.5 * t * (gamma + root)) * slow / (4.0 * root)
    value = 0.5 + term_plus + term_minus
    if abs(value.imag) > _REALNESS_TOL:
        raise ArithmeticError(
            f"survival probability not real: imag={value.imag!r} at t={t}, {params}"
        )
    return min(1.0, max(0.0, value.real))


def closed_form_offdiag(params: ModelParams, t: float) -> complex:
    """Noise-averaged coherence <Psi_L(t) Psi_R(t)*> (the LR density-matrix element).

    Written as a difference of two decaying exponentials so neither factor
    overflows in the strongly overdamped regime; critical limit handled as in
    :func:`closed_form_p_ll`.  Zero at t = 0 and as t -> infinity (gamma > 0).
    """
    _check_real("time", t, 0)
    gamma, delta = params.gamma, params.delta
    if classify_branch(params) is Branch.CRITICAL:
        return -0.5j * delta * t * math.exp(-0.5 * gamma * t)
    root = cmath.sqrt(complex(params.discriminant))
    slow = -4.0 * delta**2 / (gamma + root)  # root - gamma, which cancels at gamma >> delta
    e_fast = cmath.exp(-0.5 * t * (gamma + root))
    e_slow = cmath.exp(0.5 * t * slow)
    return (0.5j * delta / root) * (e_fast - e_slow)


def laplace_p_ll(params: ModelParams, lam: float) -> float:
    """Laplace transform of the averaged left-well survival probability."""
    _check_real("Laplace variable", lam, 0, strict=True)
    gamma, delta = params.gamma, params.delta
    numer = 2.0 * lam**2 + 2.0 * lam * gamma + delta**2
    denom = lam**2 + gamma * lam + delta**2
    return numer / (2.0 * lam * denom)


def laplace_p_ll_sq(params: ModelParams, lam: float) -> float:
    """Laplace transform of the second moment of the left-well survival probability.

    Three-term rational function; its residue at the origin is 1/3, the
    stationary value of the squared probability.
    """
    _check_real("Laplace variable", lam, 0, strict=True)
    gamma, delta = params.gamma, params.delta
    term1 = 1.0 / (3.0 * lam)
    term2 = (gamma + lam) / (2.0 * (delta**2 + gamma * lam + lam**2))
    numer3 = delta**2 + (gamma + lam) * (4.0 * gamma + lam)
    denom3 = 4.0 * delta**2 * (3.0 * gamma + lam) + lam * (gamma + lam) * (4.0 * gamma + lam)
    return term1 + term2 + numer3 / (6.0 * denom3)


def beta_cross_moment(n: int, m: int) -> Fraction:
    """Exact stationary cross moment n! m! / (n+m+1)!.

    This is the moment of P^n (1-P)^m for P uniform on (0, 1), the
    stationary law of the left-well probability.
    """
    _check_int("n", n, 0)
    _check_int("m", m, 0)
    _check_int("n + m", n + m, 0, MAX_MOMENT_ORDER)
    return Fraction(math.factorial(n) * math.factorial(m), math.factorial(n + m + 1))


def relaxation_times(params: ModelParams) -> tuple[float, float]:
    """Fast and slow relaxation times (1/gamma, gamma/delta^2).

    Meaningful as distinct scales when gamma >> delta; either is inf when the
    corresponding rate vanishes.
    """
    tau_fast = 1.0 / params.gamma if params.gamma > 0 else math.inf
    tau_slow = params.gamma / params.delta**2 if params.delta > 0 else math.inf
    if params.gamma == 0.0:
        tau_slow = math.inf
    return tau_fast, tau_slow


def stationary_time(params: ModelParams) -> float:
    """Effective infinity for stationary experiments: 20x the slowest timescale."""
    if params.gamma <= 0 or params.delta <= 0:
        raise ValueError("stationary limit requires gamma > 0 and delta > 0")
    tau_fast, tau_slow = relaxation_times(params)
    return 20.0 * max(tau_fast, tau_slow)
