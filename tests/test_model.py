import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from replica_lab.model import (
    Branch,
    ModelParams,
    SpinState,
    WellLabel,
    beta_cross_moment,
    classify_branch,
    closed_form_offdiag,
    closed_form_p_ll,
    laplace_p_ll,
    laplace_p_ll_sq,
    relaxation_times,
    stationary_time,
)
from replica_lab.replica import MomentSpec, finite_time_moment

# Golden values computed independently: 40-digit numerical inverse Laplace
# (mpmath, Talbot contour) applied to the rational transforms.
P_LL_GOLD = {
    (1.0, 1.0, 0.7): 0.90546408284862618286,
    (5.0, 1.0, 2.0): 0.84437020431289082558,
    (0.2, 1.0, 3.1): 0.13597941492324108673,
    (2.0, 1.0, 1.3): 0.81341156198911448558,
    (1.0, 2.0, 0.9): 0.52652160128535929905,
}
# -Im of the averaged coherence (its real part is identically zero).
OFFDIAG_IMAG_GOLD = {
    (1.0, 1.0, 0.7): 0.23180925050022314986,
    (5.0, 1.0, 2.0): 0.071867054468895979996,
    (0.2, 1.0, 3.1): 0.021045595079211368567,
}


class TestModelParams:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ModelParams(delta=-1.0, gamma=0.0)
        with pytest.raises(ValueError):
            ModelParams(delta=1.0, gamma=-0.5)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ModelParams(delta=bad, gamma=1.0)
            with pytest.raises(ValueError):
                ModelParams(delta=1.0, gamma=bad)

    def test_zero_allowed(self):
        ModelParams(delta=0.0, gamma=0.0)


PARAMS = ModelParams(delta=1.0, gamma=1.0)


@pytest.mark.parametrize("value", [None, "1", True, False, np.True_, 1 + 0j],
                         ids=["none", "str", "true", "false", "np-bool", "complex"])
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda v: closed_form_p_ll(PARAMS, v), "time"),
        (lambda v: laplace_p_ll(PARAMS, v), "Laplace variable"),
        (lambda v: ModelParams(delta=v, gamma=1.0), "delta"),
        (lambda v: finite_time_moment(MomentSpec(SpinState.localized(WellLabel.LEFT), 1, 0),
                                      PARAMS, v), "time"),
    ],
    ids=["closed-form", "laplace", "params", "replica"],
)
def test_real_inputs_refuse_non_numbers_and_bools(call, name, value):
    # a non-number failed inside math.isfinite with a TypeError that named no
    # input, and a bool passed as 0 or 1: closed_form_p_ll(params, True) was 0.83
    with pytest.raises(ValueError, match=name):
        call(value)


class TestSpinState:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            SpinState(1.0, 1.0)

    def test_normalized_constructor(self):
        state = SpinState.normalized(1.0, 1.0j)
        assert abs(state.p_left + state.p_right - 1.0) < 1e-15
        assert abs(state.p_left - 0.5) < 1e-15

    def test_localized(self):
        assert SpinState.localized(WellLabel.LEFT).p_left == 1.0
        assert SpinState.localized(WellLabel.RIGHT).p_right == 1.0

    def test_well_sigma_z_convention(self):
        assert WellLabel.RIGHT.sigma_z == +1
        assert WellLabel.LEFT.sigma_z == -1


class TestBranch:
    def test_classification(self):
        assert classify_branch(ModelParams(delta=1.0, gamma=5.0)) is Branch.OVERDAMPED
        assert classify_branch(ModelParams(delta=1.0, gamma=0.2)) is Branch.UNDERDAMPED
        assert classify_branch(ModelParams(delta=1.0, gamma=2.0)) is Branch.CRITICAL

    def test_critical_window_is_relative(self):
        assert classify_branch(ModelParams(delta=1.0, gamma=2.0 * (1 + 1e-7))) is Branch.OVERDAMPED
        assert classify_branch(ModelParams(delta=1.0, gamma=2.0 * (1 + 1e-11))) is Branch.CRITICAL

    def test_discriminant_field(self):
        assert ModelParams(delta=1.0, gamma=3.0).discriminant == pytest.approx(5.0)


class TestClosedFormPll:
    def test_starts_at_one(self):
        for gamma, delta in [(0.0, 1.0), (1.0, 1.0), (5.0, 0.3), (2.0, 1.0)]:
            assert closed_form_p_ll(ModelParams(delta=delta, gamma=gamma), 0.0) == 1.0

    def test_long_time_limit_is_half(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        assert abs(closed_form_p_ll(params, 200.0) - 0.5) < 1e-12

    def test_no_noise_reduces_to_rabi(self):
        params = ModelParams(delta=1.3, gamma=0.0)
        for t in np.linspace(0.0, 12.0, 97):
            expected = math.cos(1.3 * t / 2.0) ** 2
            assert closed_form_p_ll(params, float(t)) == pytest.approx(expected, abs=1e-12)

    def test_critical_branch_closed_form(self):
        gamma = 2.0
        params = ModelParams(delta=1.0, gamma=gamma)
        for t in np.linspace(0.0, 15.0, 31):
            expected = 0.5 + math.exp(-gamma * t / 2.0) * (0.5 + gamma * t / 4.0)
            expected = min(1.0, expected)
            assert closed_form_p_ll(params, float(t)) == pytest.approx(expected, abs=1e-12)

    def test_continuity_across_critical_window(self):
        delta = 1.0
        critical = ModelParams(delta=delta, gamma=2.0 * delta)
        for sign in (+1.0, -1.0):
            near = ModelParams(delta=delta, gamma=2.0 * delta * (1.0 + sign * 1e-7))
            for t in np.linspace(0.0, 20.0 / critical.gamma, 57):
                gap = abs(closed_form_p_ll(near, float(t)) - closed_form_p_ll(critical, float(t)))
                assert gap < 1e-6

    def test_no_tunneling_stays_put(self):
        params = ModelParams(delta=0.0, gamma=3.0)
        for t in (0.0, 0.5, 7.0):
            assert closed_form_p_ll(params, t) == pytest.approx(1.0, abs=1e-14)

    def test_golden_values(self):
        for (gamma, delta, t), expected in P_LL_GOLD.items():
            got = closed_form_p_ll(ModelParams(delta=delta, gamma=gamma), t)
            assert got == pytest.approx(expected, abs=1e-13)

    def test_bounded_on_parameter_grid(self):
        rates = (0.0, 0.1, 1.0, 2.0, 10.0)
        for gamma in rates:
            for delta in rates:
                params = ModelParams(delta=delta, gamma=gamma)
                for t in np.linspace(0.0, 30.0, 301):
                    p = closed_form_p_ll(params, float(t))
                    assert 0.0 <= p <= 1.0

    def test_rejects_bad_time(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            closed_form_p_ll(params, -0.1)
        with pytest.raises(ValueError):
            closed_form_p_ll(params, math.nan)


class TestClosedFormOffdiag:
    def test_zero_at_start_and_infinity(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        assert closed_form_offdiag(params, 0.0) == 0.0
        assert abs(closed_form_offdiag(params, 200.0)) < 1e-12

    def test_strong_noise_peak(self):
        # At gamma = 50*delta the coherence magnitude peaks near delta/(2*gamma),
        # on the fast timescale 1/gamma (not the slow gamma/delta^2 one).
        gamma, delta = 50.0, 1.0
        params = ModelParams(delta=delta, gamma=gamma)
        ts = np.linspace(1e-4, 40.0 / gamma, 4000)
        mags = [abs(closed_form_offdiag(params, float(t))) for t in ts]
        peak = max(mags)
        t_peak = float(ts[int(np.argmax(mags))])
        assert peak == pytest.approx(delta / (2.0 * gamma), rel=0.15)
        assert 0.5 / gamma < t_peak < 20.0 / gamma

    def test_coherence_bound(self):
        for gamma, delta in [(0.0, 1.0), (0.5, 1.0), (2.0, 1.0), (10.0, 1.0)]:
            params = ModelParams(delta=delta, gamma=gamma)
            for t in np.linspace(0.0, 25.0, 401):
                assert abs(closed_form_offdiag(params, float(t))) <= 0.5 + 1e-12

    def test_golden_values(self):
        for (gamma, delta, t), expected in OFFDIAG_IMAG_GOLD.items():
            got = closed_form_offdiag(ModelParams(delta=delta, gamma=gamma), t)
            assert got.real == pytest.approx(0.0, abs=1e-14)
            assert -got.imag == pytest.approx(expected, abs=1e-13)

    def test_overdamped_large_time_no_overflow(self):
        params = ModelParams(delta=1.0, gamma=1000.0)
        value = closed_form_offdiag(params, 50.0)
        assert np.isfinite(value.real) and np.isfinite(value.imag)


def _laplace_quadrature(func, lam: float) -> float:
    value, err = scipy.integrate.quad(
        lambda t: func(t) * math.exp(-lam * t), 0.0, np.inf, limit=400, epsabs=1e-12, epsrel=1e-12
    )
    assert err < 1e-9
    return value


class TestLaplacePll:
    def test_residue_at_origin(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        lam = 1e-9
        assert lam * laplace_p_ll(params, lam) == pytest.approx(0.5, abs=1e-8)

    def test_no_tunneling_is_pure_pole(self):
        params = ModelParams(delta=0.0, gamma=2.0)
        for lam in (0.3, 1.0, 4.5):
            assert laplace_p_ll(params, lam) == pytest.approx(1.0 / lam, rel=1e-14)

    @pytest.mark.parametrize("gamma,delta", [(1.0, 1.0), (2.0, 1.0), (0.5, 1.0)])
    def test_matches_time_domain_quadrature(self, gamma, delta):
        params = ModelParams(delta=delta, gamma=gamma)
        for factor in (0.5, 1.0, 2.0):
            lam = factor * max(gamma, delta)
            direct = _laplace_quadrature(lambda t: closed_form_p_ll(params, t), lam)
            assert laplace_p_ll(params, lam) == pytest.approx(direct, abs=1e-8)

    def test_rejects_nonpositive(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        for lam in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                laplace_p_ll(params, lam)


class TestLaplacePllSq:
    def test_residue_at_origin_is_third(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        lam = 1e-9
        assert lam * laplace_p_ll_sq(params, lam) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_no_tunneling_is_pure_pole(self):
        params = ModelParams(delta=0.0, gamma=2.0)
        for lam in (0.3, 1.0, 4.5):
            assert laplace_p_ll_sq(params, lam) == pytest.approx(1.0 / lam, rel=1e-14)

    def test_small_tunneling_limit(self):
        params = ModelParams(delta=1e-8, gamma=2.0)
        assert laplace_p_ll_sq(params, 1.7) == pytest.approx(1.0 / 1.7, rel=1e-9)

    def test_initial_value_is_one(self):
        # large-frequency limit lam*F(lam) -> P^2(0) = 1
        params = ModelParams(delta=1.0, gamma=3.0)
        lam = 1e8
        assert lam * laplace_p_ll_sq(params, lam) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            laplace_p_ll_sq(params, 0.0)


class TestBetaCrossMoment:
    def test_known_values(self):
        assert beta_cross_moment(1, 0) == Fraction(1, 2)
        assert beta_cross_moment(1, 1) == Fraction(1, 6)
        assert beta_cross_moment(4, 0) == Fraction(1, 5)
        assert beta_cross_moment(2, 1) == Fraction(1, 12)
        assert beta_cross_moment(0, 0) == Fraction(1, 1)

    def test_matches_quadrature(self):
        for n, m in [(1, 0), (2, 3), (5, 2), (0, 4)]:
            direct, _ = scipy.integrate.quad(lambda p: p**n * (1 - p) ** m, 0.0, 1.0)
            assert float(beta_cross_moment(n, m)) == pytest.approx(direct, rel=1e-10)

    def test_guards(self):
        with pytest.raises(ValueError):
            beta_cross_moment(-1, 0)
        with pytest.raises(ValueError):
            beta_cross_moment(15, 6)
        with pytest.raises(ValueError):
            beta_cross_moment(1.5, 0)  # type: ignore[arg-type]
        with pytest.raises(ValueError, match="^n must"):
            beta_cross_moment(True, 0)  # would give 1/2


class TestTimescales:
    def test_relaxation_times(self):
        tau_fast, tau_slow = relaxation_times(ModelParams(delta=1.0, gamma=10.0))
        assert tau_fast == pytest.approx(0.1)
        assert tau_slow == pytest.approx(10.0)

    def test_stationary_time(self):
        assert stationary_time(ModelParams(delta=1.0, gamma=1.0)) == pytest.approx(20.0)
        assert stationary_time(ModelParams(delta=1.0, gamma=5.0)) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            stationary_time(ModelParams(delta=0.0, gamma=1.0))
