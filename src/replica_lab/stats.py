"""Distribution evidence from ensembles of per-realization probabilities.

The stationary claim under test: the probability of ending in a given well,
viewed as a random variable over noise realizations, is uniform on (0, 1).
Moments against 1/(n+1), cross moments against the exact Beta(1,1) values,
histogram densities, and a one-sample Kolmogorov-Smirnov test provide the
evidence at sample scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _check_int, beta_cross_moment

_VALUE_TOL = 1e-9

# Fewest samples a moment report accepts (``moments`` and ``cross_moment``).
MIN_MOMENT_SAMPLES = 100


@dataclass(frozen=True)
class SampleSet:
    """Probabilities in [0, 1], one per independent trajectory."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("need a non-empty 1-d sample array")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        if values.min() < -_VALUE_TOL or values.max() > 1.0 + _VALUE_TOL:
            raise ValueError("samples must lie in [0, 1] within 1e-9")
        object.__setattr__(self, "values", np.clip(values, 0.0, 1.0))

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class MomentReport:
    order: tuple[int, int]  # powers of P and (1 - P)
    sample_moment: float
    standard_error: float
    reference: float
    z_score: float


def mean_se(xs: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error, sd(ddof=1)/sqrt(n); 0 for one sample."""
    mean = float(xs.mean())
    se = float(xs.std(ddof=1) / math.sqrt(xs.size)) if xs.size > 1 else 0.0
    return mean, se


def z_score(mean: float, reference: float, se: float) -> float:
    """(mean - reference)/se; at se = 0, 0 if mean equals reference, else +-inf."""
    if se > 0:
        return (mean - reference) / se
    return 0.0 if mean == reference else math.copysign(math.inf, mean - reference)


def moments(samples: SampleSet, max_order: int) -> list[MomentReport]:
    """Sample moments <P^n> for n = 1..max_order against the uniform references."""
    _check_int("max_order", max_order, 1, 10)
    return [cross_moment(samples, n, 0) for n in range(1, max_order + 1)]


def cross_moment(samples: SampleSet, n: int, m: int) -> MomentReport:
    """Sample <P^n (1-P)^m> against the exact n! m! / (n+m+1)! reference."""
    reference = float(beta_cross_moment(n, m))
    if n == 0 and m == 0:
        return MomentReport((0, 0), 1.0, 0.0, reference, 0.0)
    if samples.size < MIN_MOMENT_SAMPLES:
        raise ValueError(f"need >= {MIN_MOMENT_SAMPLES} samples for moment reports, got {samples.size}")
    mean, se = mean_se(samples.values**n * (1.0 - samples.values) ** m)
    return MomentReport((n, m), mean, se, reference, z_score(mean, reference, se))


@dataclass(frozen=True)
class HistogramResult:
    edges: np.ndarray
    counts: np.ndarray
    densities: np.ndarray


def histogram(samples: SampleSet, bins: int = 50) -> HistogramResult:
    """Uniform bins on [0, 1], left-closed right-open, last bin closed."""
    _check_int("bins", bins, 2)
    counts, edges = np.histogram(samples.values, bins=bins, range=(0.0, 1.0))
    densities = counts / (samples.size * (1.0 / bins))
    return HistogramResult(edges=edges, counts=counts, densities=densities)


def ks_uniform(samples: SampleSet) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic against Uniform(0,1) and its p-value.

    The p-value is the survival function of the asymptotic Kolmogorov
    distribution, summed from the theta-transformed series below y = 1.1 and
    from the alternating series 2 sum (-1)^(k-1) exp(-2 k^2 y^2) above it.
    Either converges in a few terms on its side of the switch, and together
    they agree with ``scipy.special.kolmogorov`` to about 5e-15 without
    loading ``scipy.special`` (about 25 MB and 0.2 s on a process that has
    only numpy).
    """
    n = samples.size
    if n < 50:
        raise ValueError(f"need >= 50 samples for the asymptotic p-value, got {n}")
    xs = np.sort(samples.values)
    ranks = np.arange(1, n + 1)
    d_plus = float(np.max(ranks / n - xs))
    d_minus = float(np.max(xs - (ranks - 1) / n))
    stat = max(d_plus, d_minus, 0.0)
    return stat, _kolmogorov_sf(math.sqrt(n) * stat)


def _kolmogorov_sf(y: float) -> float:
    """Survival function of the Kolmogorov distribution."""
    if y < 1e-8:
        return 1.0
    if y < 1.1:
        # theta-transformed series: accurate where the alternating form stalls
        factor = math.pi**2 / (8.0 * y * y)
        total = 0.0
        for k in range(1, 40):
            term = math.exp(-((2 * k - 1) ** 2) * factor)
            total += term
            if term < 1e-17 * max(total, 1e-300):
                break
        return max(0.0, min(1.0, 1.0 - math.sqrt(2.0 * math.pi) / y * total))
    total = 0.0
    sign = 1.0
    for k in range(1, 200):
        term = math.exp(-2.0 * k * k * y * y)
        total += sign * term
        if term < 1e-17:
            break
        sign = -sign
    return max(0.0, min(1.0, 2.0 * total))
