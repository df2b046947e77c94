import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from replica_lab.stats import (
    SampleSet,
    cross_moment,
    histogram,
    ks_uniform,
    moments,
)
from replica_lab.stats import _kolmogorov_sf


def uniform_samples(n: int, seed: int = 0) -> SampleSet:
    return SampleSet(np.random.default_rng(seed).uniform(size=n))


class TestSampleSet:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            SampleSet(np.array([-0.1]))
        with pytest.raises(ValueError):
            SampleSet(np.array([np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([]))

    def test_tolerated_rounding_is_clipped(self):
        samples = SampleSet(np.array([1.0 + 5e-10, -5e-10, 0.5]))
        assert samples.values.min() == 0.0
        assert samples.values.max() == 1.0


class TestMoments:
    def test_constant_samples_report_mismatch(self):
        samples = SampleSet(np.ones(200))
        reports = moments(samples, max_order=3)
        for report in reports:
            assert report.sample_moment == 1.0
            assert report.standard_error == 0.0
            assert math.isinf(report.z_score) and report.z_score > 0

    def test_uniform_calibration(self):
        samples = uniform_samples(100_000, seed=12)
        for report in moments(samples, max_order=6):
            assert abs(report.z_score) < 4.0
            n = report.order[0]
            assert report.reference == pytest.approx(1.0 / (n + 1))

    def test_order_and_size_guards(self):
        samples = uniform_samples(200)
        with pytest.raises(ValueError):
            moments(samples, max_order=11)
        with pytest.raises(ValueError):
            moments(uniform_samples(99), max_order=2)

    def test_permutation_invariance(self):
        values = np.random.default_rng(5).uniform(size=500)
        shuffled = values.copy()
        np.random.default_rng(6).shuffle(shuffled)
        first = moments(SampleSet(values), 4)
        second = moments(SampleSet(shuffled), 4)
        for a, b in zip(first, second):
            assert a.sample_moment == pytest.approx(b.sample_moment, abs=1e-15)
            assert a.standard_error == pytest.approx(b.standard_error, abs=1e-15)


class TestCrossMoment:
    def test_trivial_order(self):
        report = cross_moment(uniform_samples(200), 0, 0)
        assert report.sample_moment == 1.0
        assert report.standard_error == 0.0
        assert report.z_score == 0.0

    def test_uniform_calibration(self):
        samples = uniform_samples(100_000, seed=13)
        for n, m in [(1, 1), (2, 1), (1, 2)]:
            report = cross_moment(samples, n, m)
            assert abs(report.z_score) < 4.0

    def test_mirror_identity(self):
        values = np.random.default_rng(7).uniform(size=300)
        direct = cross_moment(SampleSet(values), 2, 1)
        mirrored = cross_moment(SampleSet(1.0 - values), 1, 2)
        assert direct.sample_moment == pytest.approx(mirrored.sample_moment, abs=1e-15)
        assert direct.reference == mirrored.reference


class TestHistogram:
    def test_point_mass_at_half_with_two_bins(self):
        hist = histogram(SampleSet(np.full(64, 0.5)), bins=2)
        assert list(hist.counts) == [0, 64]

    def test_endpoint_in_last_bin(self):
        hist = histogram(SampleSet(np.ones(10)), bins=50)
        assert hist.counts[-1] == 10
        assert hist.counts.sum() == 10

    def test_density_integrates_to_one(self):
        for bins in (2, 7, 50):
            hist = histogram(uniform_samples(1234, seed=3), bins=bins)
            integral = float(np.sum(hist.densities) / bins)
            assert integral == pytest.approx(1.0, abs=1e-12)
            assert np.all(hist.densities >= 0.0)

    def test_bins_guard(self):
        with pytest.raises(ValueError):
            histogram(uniform_samples(100), bins=1)


class TestKsUniform:
    def test_equally_spaced_grid(self):
        n = 400
        samples = SampleSet(np.arange(1, n + 1) / (n + 1))
        stat, p_value = ks_uniform(samples)
        assert stat == pytest.approx(1.0 / (n + 1), abs=1e-12)
        assert p_value > 0.999

    def test_point_mass_rejected(self):
        stat, p_value = ks_uniform(SampleSet(np.full(400, 0.5)))
        assert stat == pytest.approx(0.5)
        assert p_value < 1e-10

    def test_uniform_samples_not_rejected(self):
        stat, p_value = ks_uniform(uniform_samples(10_000, seed=21))
        assert p_value > 0.001

    def test_matches_scipy(self):
        samples = uniform_samples(5000, seed=22)
        stat, p_value = ks_uniform(samples)
        scipy_stat, _ = scipy.stats.kstest(samples.values, "uniform")
        assert stat == pytest.approx(float(scipy_stat), abs=1e-12)
        asymptotic = float(scipy.special.kolmogorov(math.sqrt(samples.size) * stat))
        assert p_value == pytest.approx(asymptotic, abs=1e-9)

    def test_survival_function_monotone(self):
        ys = np.linspace(0.01, 3.0, 300)
        values = [_kolmogorov_sf(float(y)) for y in ys]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] > 0.999999
        assert values[-1] < 1e-6

    def test_survival_function_vs_scipy(self):
        # both series, and both sides of their switch at y = 1.1
        ys = np.concatenate([np.linspace(0.01, 3.5, 350), [1.1 - 1e-12, 1.1, 1.1 + 1e-12]])
        for y in ys:
            mine = _kolmogorov_sf(float(y))
            ref = float(scipy.special.kolmogorov(float(y)))
            assert mine == pytest.approx(ref, rel=0, abs=1e-13)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            ks_uniform(SampleSet(np.linspace(0.1, 0.9, 49)))
