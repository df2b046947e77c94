import math
import os
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

import replica_lab.simulate as sim
from replica_lab.model import (
    ModelParams,
    SpinState,
    WellLabel,
    closed_form_offdiag,
    closed_form_p_ll,
)
from replica_lab.replica import MomentSpec, discrete_time_moment, finite_time_moment
from replica_lab.simulate import (
    NoiseStream,
    NormDriftError,
    PulseSpec,
    SimConfig,
    run_ensemble,
    run_paired_ensemble,
    run_trajectory,
    step,
)

LEFT = SpinState.localized(WellLabel.LEFT)
RIGHT = SpinState.localized(WellLabel.RIGHT)
PLUS = SpinState.normalized(1.0, 1.0)
MINUS = SpinState.normalized(1.0, -1.0)
RANDOM = SpinState.normalized(0.3 - 0.8j, -0.5 + 0.1j)


def philox_bytes(seed, group, rows):
    """(rows, 64) raw bytes of Philox keyed (seed, group), each word's low byte first."""
    words = np.random.Philox(key=[seed, group]).random_raw(8 * rows)
    shifts = np.arange(0, 64, 8, dtype=np.uint64)
    return ((words[:, None] >> shifts) & np.uint64(0xFF)).astype(np.uint8).reshape(rows, 64)


def table_phi(gamma, dt):
    """phi(m) = E[e^{i m alpha}] of the kick angle alpha = 2 kick z under the 256-point law."""
    alpha = 2.0 * math.sqrt(0.5 * gamma * dt) * sim._kick_points()
    return lambda m: np.cos(np.outer(m, alpha)).mean(axis=1)


def complex_strang(state, params, dt, normals, record_steps, pulse=None):
    """Oracle: the complex-amplitude Strang step, one trajectory, no merged rotations.

    Half rotation [[c, is], [is, c]] with angle delta*dt/4, phase kick
    (e^{i kick g} a, e^{-i kick g} b), half rotation; a pulse multiplies
    e^{i phi} onto a and e^{-i phi} onto b after its step.  Returns P_left and
    a b* at the record steps.
    """
    c, s = math.cos(0.25 * params.delta * dt), 1j * math.sin(0.25 * params.delta * dt)
    kick = math.sqrt(0.5 * params.gamma * dt)
    a, b = complex(state.amp_left), complex(state.amp_right)
    pulse_step = -1 if pulse is None else round(pulse.t0 / dt)
    p_left, coherence = [], []
    for k in range(len(normals) + 1):
        if k > 0:
            a, b = c * a + s * b, s * a + c * b
            phase = complex(math.cos(kick * normals[k - 1]), math.sin(kick * normals[k - 1]))
            a, b = a * phase, b * phase.conjugate()
            a, b = c * a + s * b, s * a + c * b
        if k == pulse_step:
            a, b = a * np.exp(1j * pulse.delta_phi), b * np.exp(-1j * pulse.delta_phi)
        if k in record_steps:
            p_left.append(abs(a) ** 2)
            coherence.append(a * b.conjugate())
    return np.array(p_left), np.array(coherence)


class TestSimConfig:
    def test_dt_cap_enforced(self):
        params = ModelParams(delta=1.0, gamma=4.0)
        SimConfig(params=params, dt=0.0025, t_final=1.0, seed=1, n_trajectories=1)
        with pytest.raises(ValueError):
            SimConfig(params=params, dt=0.01, t_final=1.0, seed=1, n_trajectories=1)

    def test_dt_cap_skipped_when_rate_zero(self):
        params = ModelParams(delta=0.0, gamma=4.0)
        SimConfig(params=params, dt=0.5, t_final=1.0, seed=1, n_trajectories=1)

    def test_rejects_bad_values(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            SimConfig(params=params, dt=0.0, t_final=1.0, seed=1, n_trajectories=1)
        with pytest.raises(ValueError):
            SimConfig(params=params, dt=0.01, t_final=-1.0, seed=1, n_trajectories=1)
        with pytest.raises(ValueError):
            SimConfig(params=params, dt=0.01, t_final=1.0, seed=1, n_trajectories=0)
        with pytest.raises(ValueError):
            SimConfig(params=params, dt=0.01, t_final=1.0, seed=1.5, n_trajectories=1)
        # a float count would fail in the first block, and True would run one trajectory
        for count in (2.5, True):
            with pytest.raises(ValueError, match="n_trajectories"):
                SimConfig(params=params, dt=0.01, t_final=1.0, seed=1, n_trajectories=count)
        # 1e19 steps overflow record_steps()'s int64; at dt = 5e-324, t_final/dt is inf
        for dt in (1e-18, 5e-324):
            with pytest.raises(ValueError, match="t_final/dt"):
                SimConfig(params=params, dt=dt, t_final=10.0, seed=1, n_trajectories=2)

    def test_seed_range(self):
        # the Philox key holds 64 bits: -1 would alias 2**64 - 1, and 2**64 + 5 alias 5
        params = ModelParams(delta=1.0, gamma=1.0)
        for seed in (0, 2**64 - 1, np.int64(3)):
            SimConfig(params=params, dt=0.01, t_final=1.0, seed=seed, n_trajectories=1)
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(params=params, dt=0.01, t_final=1.0, seed=seed, n_trajectories=1)

    def test_record_grid_bounds(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            SimConfig(
                params=params, dt=0.01, t_final=1.0, seed=1, n_trajectories=1,
                record_grid=(0.0, 2.0),
            )

    def test_record_times_snap_to_boundaries(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(
            params=params, dt=0.01, t_final=1.0, seed=1, n_trajectories=1,
            record_grid=(0.0, 0.503, 1.0),
        )
        assert np.allclose(cfg.record_times(), [0.0, 0.5, 1.0])
        # 0.0 and 0.004 snap to boundary 0: each boundary is recorded once
        cfg = SimConfig(
            params=params, dt=0.01, t_final=1.0, seed=1, n_trajectories=3,
            record_grid=(0.0, 0.004, 0.006, 0.503, 1.0),
        )
        assert cfg.record_steps().tolist() == [0, 1, 50, 100]
        ensemble = run_ensemble(cfg, LEFT, workers=1)
        assert len(ensemble.times) == len(ensemble.mean_p_left) == 4
        for t in (-0.1, 1.01 * cfg.t_final, math.nan, math.inf):
            with pytest.raises(ValueError, match="outside"):
                cfg.boundary(t)


class TestStep:
    def test_exact_unitarity(self):
        params = ModelParams(delta=1.0, gamma=2.0)
        state = SpinState.normalized(0.6, 0.8j)
        rng = np.random.default_rng(1)
        for _ in range(50):
            state = step(state, params, 0.004, float(rng.standard_normal()))
            norm = state.p_left + state.p_right
            assert abs(norm - 1.0) < 1e-14

    def test_pure_dephasing_preserves_populations(self):
        params = ModelParams(delta=0.0, gamma=2.0)
        state = SpinState.normalized(0.6, 0.8)
        out = step(state, params, 0.01, 1.7)
        assert out.p_left == pytest.approx(state.p_left, abs=1e-15)
        assert out.p_right == pytest.approx(state.p_right, abs=1e-15)

    def test_no_noise_is_exact_rabi(self):
        delta, dt = 1.0, 0.002
        params = ModelParams(delta=delta, gamma=0.0)
        state = LEFT
        for k in range(1, 501):
            state = step(state, params, dt, 0.0)
            expected = math.cos(delta * k * dt / 2.0) ** 2
            assert abs(state.p_left - expected) < 1e-10

    def test_coherence_factor_average_is_exact_dephasing_weight(self):
        # averaging the per-step coherence factor over the Gaussian kick angle
        # must give exactly e^{-gamma dt}; checked by quadrature over the
        # standard normal density
        gamma, dt = 1.7, 0.005
        params = ModelParams(delta=0.0, gamma=gamma)
        state = PLUS
        coh0 = complex(state.amp_left) * complex(state.amp_right).conjugate()

        def coherence_ratio(g: float) -> complex:
            out = step(state, params, dt, g)
            return complex(out.amp_left) * complex(out.amp_right).conjugate() / coh0

        density = lambda g: math.exp(-0.5 * g * g) / math.sqrt(2.0 * math.pi)
        real_part, _ = scipy.integrate.quad(lambda g: coherence_ratio(g).real * density(g), -9, 9)
        imag_part, _ = scipy.integrate.quad(lambda g: coherence_ratio(g).imag * density(g), -9, 9)
        assert real_part == pytest.approx(math.exp(-gamma * dt), abs=1e-10)
        assert imag_part == pytest.approx(0.0, abs=1e-10)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            step(LEFT, ModelParams(delta=1.0, gamma=1.0), 0.0, 0.3)


class TestNoiseStream:
    def test_deterministic_function_of_seed_and_id(self):
        first = NoiseStream(123, 7).normals(100)
        second = NoiseStream(123, 7).normals(100)
        assert np.array_equal(first, second)
        # a numpy integer is a count like any other
        assert np.array_equal(NoiseStream(np.uint64(5), 0).normals(8), NoiseStream(5, 0).normals(8))

    def test_chunking_does_not_change_draws(self):
        stream = NoiseStream(123, 7)
        chunked = np.concatenate([stream.normals(37), stream.normals(63)])
        assert np.array_equal(chunked, NoiseStream(123, 7).normals(100))

    def test_streams_differ_across_ids_and_seeds(self):
        base = NoiseStream(123, 7).normals(64)
        assert not np.array_equal(base, NoiseStream(123, 8).normals(64))
        assert not np.array_equal(base, NoiseStream(124, 7).normals(64))
        # the last column of one group against the first of the next
        last, first = NoiseStream(123, 63).normals(64), NoiseStream(123, 64).normals(64)
        assert not np.array_equal(last, first)

    @pytest.mark.parametrize("trajectory_id", [0, 7, 63, 64, 2099])
    def test_trajectory_reads_one_column_of_its_group_stream(self, trajectory_id):
        # draw k of trajectory i is byte 64 k + i % 64 of the raw words of
        # Philox keyed (seed, i // 64), little-endian, and its kick value is
        # that byte's point of the law: a drift here re-rolls every fixed-seed result
        seed, k = 123, 50
        expected = philox_bytes(seed, trajectory_id // 64, k)[:, trajectory_id % 64]
        assert np.array_equal(NoiseStream(seed, trajectory_id).indices(k), expected)
        assert np.array_equal(NoiseStream(seed, trajectory_id).normals(k), sim._kick_points()[expected])

    def test_group_stream_hands_over_rows_of_its_columns(self):
        wide = NoiseStream(123, 64, width=64).indices(64 * 10).reshape(10, 64)
        assert np.array_equal(wide, philox_bytes(123, 1, 10))
        part = NoiseStream(123, 70, width=5).indices(5 * 10).reshape(10, 5)
        assert np.array_equal(part, wide[:, 6:11])
        values = NoiseStream(123, 70, width=5).normals(5 * 10).reshape(10, 5)
        assert np.array_equal(values, sim._kick_points()[part])
        for col in (0, 6, 63):
            assert np.array_equal(wide[:, col], NoiseStream(123, 64 + col).indices(10))

    @pytest.mark.parametrize("trajectory_id,width", [(0, 0), (0, 65), (63, 2), (5, True)])
    def test_width_within_one_group(self, trajectory_id, width):
        with pytest.raises(ValueError, match="width"):
            NoiseStream(3, trajectory_id, width=width)

    def test_count_in_whole_rows(self):
        with pytest.raises(ValueError, match="multiple of width"):
            NoiseStream(3, 0, width=4).normals(10)
        with pytest.raises(ValueError, match="multiple of width"):
            NoiseStream(3, 0, width=4).indices(10)

    @pytest.mark.parametrize(
        "seed,trajectory_id,name",
        [
            (-1, 0, "seed"), (2**64, 0, "seed"), (2**64 + 3, 0, "seed"), (3, -1, "trajectory_id"),
            (True, 0, "seed"), (False, 0, "seed"), (3, True, "trajectory_id"),
            (3, False, "trajectory_id"),
        ],
    )
    def test_key_outside_64_bits_refused(self, seed, trajectory_id, name):
        # masking to 64 bits made -5 draw the stream of 2**64 - 5, and 2**64 + 3 that of 3;
        # a bool is an int, so True drew the stream of seed 1
        with pytest.raises(ValueError, match=name):
            NoiseStream(seed, trajectory_id)


class TestKickLaw:
    def test_law_is_symmetric_with_normal_moments(self):
        z = sim._kick_points()
        assert z.shape == (256,) and np.all(np.diff(z) > 0)
        assert np.array_equal(z[::-1], -z)
        for order, moment in ((2, 1.0), (4, 3.0), (6, 15.0)):
            assert abs(np.mean(z**order) - moment) <= 1e-13, order

    @pytest.mark.parametrize("gamma_dt,bound", [(1e-3, 1e-6), (1e-2, 2e-4)])
    def test_phi_matches_gaussian_rate(self, gamma_dt, bound):
        # the averaged kick's rate -log phi(m) against the Gaussian's gamma m^2 dt:
        # at criterion 7's gamma dt and at the dt cap
        m = np.arange(1, 7)
        rate = -np.log(table_phi(1.0, gamma_dt)(m))
        assert np.max(np.abs(rate / (gamma_dt * m**2) - 1.0)) <= bound

    def test_added_bias_is_below_strang_bias(self):
        # the exact discrete-time moments under the table law and under the
        # Gaussian law differ by at most 5% of the Gaussian scheme's own
        # splitting bias, for orders 1-6, at the dt cap and a tenth of it
        states = (LEFT, SpinState.normalized(0.6, 0.8j))
        for ratio in (0.05, 1.0, 3.0, 20.0):
            params = ModelParams(delta=1.0, gamma=ratio)
            cap = 0.01 * min(1.0 / ratio, 1.0)
            for dt in (cap, cap / 10):
                phi = table_phi(ratio, dt)
                for t in (1.0, 3.0):
                    n_steps = round(t / dt)
                    for state in states:
                        for order in range(1, 7):
                            spec = MomentSpec(state, order, 0)
                            gaussian = discrete_time_moment(spec, params, dt, n_steps)
                            table = discrete_time_moment(spec, params, dt, n_steps, phi)
                            strang = gaussian - finite_time_moment(spec, params, n_steps * dt)
                            assert abs(table - gaussian) <= 0.05 * abs(strang) + 1e-13, (
                                ratio, dt, t, state, order, table - gaussian, strang,
                            )

    def test_kernel_walks_the_discrete_oracle(self):
        # every pair of kicks at once: column 256 a + b of a 65536-wide block
        # draws byte a at step 1 and byte b at step 2, so the column average is
        # the exact expectation under the law after two coarse steps
        class AllPairs:
            def __init__(self, group):
                cols = 64 * group + np.arange(64)
                self.rows = np.stack([cols // 256, cols % 256]).astype(np.uint8)

            def indices(self, count):
                assert count == self.rows.size
                return self.rows.ravel()

        params, dt = ModelParams(delta=1.0, gamma=3.0), 0.4
        state = SpinState.normalized(0.8, 0.6j)
        block = sim._StateBlock(256 * 256, [state], np.empty(0, dtype=int))
        sim._advance(params, dt, 2, [AllPairs(g) for g in range(1024)], block)
        p_left = block.p_left()
        phi = table_phi(params.gamma, dt)
        for order in range(1, 7):
            for n_left in range(order + 1):
                expected = discrete_time_moment(MomentSpec(state, n_left, order - n_left), params, dt, 2, phi)
                value = np.mean(p_left**n_left * (1.0 - p_left) ** (order - n_left))
                assert value == pytest.approx(expected, abs=1e-13), (n_left, order)


class TestRunTrajectory:
    def test_full_rabi_period(self):
        dt = 0.002
        params = ModelParams(delta=1.0, gamma=0.0)
        cfg = SimConfig(params=params, dt=dt, t_final=2.0 * math.pi, seed=3, n_trajectories=1)
        result = run_trajectory(cfg, NoiseStream(3, 0), LEFT)
        # t_final snaps to a step boundary; the slope vanishes at the period,
        # so the residual error is O(dt^2)
        assert result.final_state.p_left == pytest.approx(1.0, abs=10.0 * dt**2)

    def test_norm_drift_budget(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=20.0, seed=3, n_trajectories=1)
        result = run_trajectory(cfg, NoiseStream(3, 0), PLUS)
        assert result.norm_drift < 1e-12 * cfg.n_steps

    def test_drift_violation_signaled(self, monkeypatch):
        monkeypatch.setattr(sim, "_DRIFT_BUDGET_PER_STEP", 0.0)
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=1.0, seed=3, n_trajectories=1)
        with pytest.raises(NormDriftError):
            run_trajectory(cfg, NoiseStream(3, 0), LEFT)

    def test_zero_pulse_is_identity(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=2.0, seed=9, n_trajectories=1)
        plain = run_trajectory(cfg, NoiseStream(9, 0), LEFT)
        pulsed = run_trajectory(cfg, NoiseStream(9, 0), LEFT, PulseSpec(0.0, 1.0))
        assert np.array_equal(plain.p_left_series, pulsed.p_left_series)
        assert plain.final_state == pulsed.final_state

    def test_pulse_rotates_symmetric_to_antisymmetric(self):
        # phase pi/2 at t=0 maps (1,1)/sqrt(2) onto (1,-1)/sqrt(2) up to a
        # global phase
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=0.0, seed=9, n_trajectories=1)
        result = run_trajectory(cfg, NoiseStream(9, 0), PLUS, PulseSpec(math.pi / 2.0, 0.0))
        out = result.final_state
        overlap = (
            complex(MINUS.amp_left).conjugate() * complex(out.amp_left)
            + complex(MINUS.amp_right).conjugate() * complex(out.amp_right)
        )
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)

    def test_pulse_time_validated(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=1.0, seed=9, n_trajectories=1)
        with pytest.raises(ValueError):
            run_trajectory(cfg, NoiseStream(9, 0), LEFT, PulseSpec(0.3, 2.0))

    def test_series_shape_and_times(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(
            params=params, dt=0.01, t_final=1.0, seed=9, n_trajectories=1,
            record_grid=(0.0, 0.25, 0.5, 1.0),
        )
        result = run_trajectory(cfg, NoiseStream(9, 0), LEFT)
        assert result.p_left_series.shape == (4,)
        assert result.p_left_series[0] == pytest.approx(1.0)
        assert np.allclose(result.times, [0.0, 0.25, 0.5, 1.0])


class TestRunEnsemble:
    def test_single_trajectory_ensemble_is_exact(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=3.0, seed=11, n_trajectories=1)
        ens = run_ensemble(cfg, LEFT)
        traj = run_trajectory(cfg, NoiseStream(11, 0), LEFT)
        assert np.array_equal(ens.mean_p_left, traj.p_left_series)
        assert ens.final_p_left[0] == traj.final_p_left

    def test_bit_identical_across_worker_counts(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=1.0, seed=11, n_trajectories=2500)
        serial = run_ensemble(cfg, LEFT, workers=1)
        parallel = run_ensemble(cfg, LEFT, workers=2)
        assert np.array_equal(serial.final_p_left, parallel.final_p_left)
        assert np.array_equal(serial.mean_p_left, parallel.mean_p_left)
        assert np.array_equal(serial.se_p_left, parallel.se_p_left)

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPLICA_LAB_THREADS", "0")
        assert sim.resolve_workers() >= 1
        monkeypatch.setenv("REPLICA_LAB_THREADS", "3")
        assert sim.resolve_workers() == 3
        monkeypatch.delenv("REPLICA_LAB_THREADS")
        assert sim.resolve_workers() == 1
        for workers in (1.5, True, -1):  # 1.5 and True would come back as the worker count
            with pytest.raises(ValueError, match="worker count"):
                sim.resolve_workers(workers)

    def test_auto_workers_count_usable_cpus(self, monkeypatch):
        # under taskset -c 0 the process may use one CPU of many
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("REPLICA_LAB_THREADS", "0")
        assert sim.resolve_workers() == 1
        assert sim.resolve_workers(0) == 1

    @pytest.mark.parametrize("value", ["abc", "-2", "1.5"])
    def test_workers_env_rejects_non_counts(self, monkeypatch, value):
        monkeypatch.setenv("REPLICA_LAB_THREADS", value)
        with pytest.raises(ValueError, match=r"REPLICA_LAB_THREADS must be a whole number >= 0"):
            sim.resolve_workers()

    def test_mean_tracks_closed_form(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.005, t_final=6.0, seed=5, n_trajectories=4000)
        ens = run_ensemble(cfg, LEFT)
        for i, t in enumerate(ens.times):
            if ens.se_p_left[i] == 0.0:
                assert ens.mean_p_left[i] == pytest.approx(closed_form_p_ll(params, float(t)))
                continue
            z = (ens.mean_p_left[i] - closed_form_p_ll(params, float(t))) / ens.se_p_left[i]
            assert abs(z) < 4.0

    def test_dephasing_calibration(self):
        # delta = 0: the averaged coherence must decay exactly as e^{-gamma t}
        gamma = 1.0
        params = ModelParams(delta=0.0, gamma=gamma)
        cfg = SimConfig(
            params=params, dt=0.01, t_final=2.0, seed=17, n_trajectories=4000,
            record_grid=(0.5, 1.0, 2.0),
        )
        ens = run_ensemble(cfg, PLUS)
        for i, t in enumerate(ens.times):
            expected = 0.5 * math.exp(-gamma * float(t))
            z_re = (ens.mean_offdiag[i].real - expected) / ens.se_offdiag_re[i]
            z_im = ens.mean_offdiag[i].imag / ens.se_offdiag_im[i]
            assert abs(z_re) < 4.0
            assert abs(z_im) < 4.0

    def test_dt_convergence_below_statistical_noise(self):
        # halving dt re-partitions the noise stream, so the two means are
        # independent estimates; their gap is judged against the standard
        # error of the difference
        params = ModelParams(delta=1.0, gamma=1.0)
        kwargs = dict(params=params, t_final=5.0, seed=23, n_trajectories=10000)
        coarse = run_ensemble(SimConfig(dt=0.01, **kwargs), LEFT)
        fine = run_ensemble(SimConfig(dt=0.005, **kwargs), LEFT)
        gap = np.abs(coarse.mean_p_left - fine.mean_p_left)
        se_diff = np.sqrt(coarse.se_p_left**2 + fine.se_p_left**2)
        assert np.all(gap[1:] < 4.0 * se_diff[1:])

    @staticmethod
    def _exact_scheme_mean(params, dt, n_steps):
        # noise-averaged one-step map of the splitting scheme: half rotation,
        # exact Gaussian dephasing weight, half rotation -- iterated exactly,
        # no sampling noise
        theta = 0.25 * params.delta * dt
        u = np.array(
            [[math.cos(theta), 1j * math.sin(theta)], [1j * math.sin(theta), math.cos(theta)]]
        )
        rotate = np.kron(u, u.conj())
        weight = np.diag([1.0, math.exp(-params.gamma * dt), math.exp(-params.gamma * dt), 1.0])
        one_step = rotate @ weight @ rotate
        vec = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        out = [1.0]
        for _ in range(n_steps):
            vec = one_step @ vec
            out.append(vec[0].real)
        return np.array(out)

    def test_splitting_bias_is_second_order_and_tiny(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        t_final = 5.0
        biases = {}
        for dt in (0.01, 0.005):
            n_steps = int(round(t_final / dt))
            mean = self._exact_scheme_mean(params, dt, n_steps)
            exact = np.array(
                [closed_form_p_ll(params, k * dt) for k in range(n_steps + 1)]
            )
            biases[dt] = np.max(np.abs(mean - exact))
        # far below the statistical noise of a 1e4..1e5 ensemble
        assert biases[0.01] < 1e-4
        # and shrinking like dt^2
        assert 3.0 < biases[0.01] / biases[0.005] < 5.0

    def test_unitarity_budget(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=10.0, seed=29, n_trajectories=256)
        ens = run_ensemble(cfg, LEFT)
        assert ens.max_norm_drift < 1e-12 * cfg.n_steps


class TestBlochKernel:
    @pytest.mark.parametrize(
        "state", [LEFT, RIGHT, PLUS, RANDOM], ids=["left", "right", "plus", "random"]
    )
    @pytest.mark.parametrize("pulse", [None, PulseSpec(1.1, 7.33)], ids=["plain", "pulse"])
    def test_matches_complex_strang_oracle(self, state, pulse):
        # same kick values, 2000 steps; records every 50 steps, so most steps run
        # merged rotations, and the pulse at step 733 splits one mid-segment
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(
            params=params, dt=0.01, t_final=20.0, seed=61, n_trajectories=1,
            record_grid=tuple(np.linspace(0.0, 20.0, 41)),
        )
        ens = run_ensemble(cfg, state, pulse)
        normals = NoiseStream(61, 0).normals(cfg.n_steps)
        p_left, coherence = complex_strang(state, params, cfg.dt, normals,
                                           set(cfg.record_steps().tolist()), pulse)
        assert np.max(np.abs(ens.mean_p_left - p_left)) < 1e-12
        assert np.max(np.abs(ens.mean_offdiag - coherence)) < 1e-12
        traj = run_trajectory(cfg, NoiseStream(61, 0), state, pulse)
        assert abs(traj.final_p_left - p_left[-1]) < 1e-12

    def test_bit_identical_across_block_widths(self):
        # one full block plus a partial block of 6, or of one trajectory (the
        # 1-d view of a width-1 block), over more than one noise chunk; the
        # bulk kick tables must not depend on the block width
        params = ModelParams(delta=1.0, gamma=1.0)
        one_block = SimConfig(params=params, dt=0.01, t_final=41.3, seed=67, n_trajectories=1024)
        pulse = PulseSpec(0.7, 17.31)
        full = run_ensemble(one_block, RANDOM, pulse).final_p_left
        for n_trajectories in (1030, 1025):
            cfg = replace(one_block, n_trajectories=n_trajectories)
            ens = run_ensemble(cfg, RANDOM, pulse)
            for i in sorted({0, 63, 64, 1023, 1024, n_trajectories - 1}):
                traj = run_trajectory(cfg, NoiseStream(67, i), RANDOM, pulse)
                assert ens.final_p_left[i] == traj.final_p_left
            assert np.array_equal(ens.final_p_left[:1024], full)

    @pytest.mark.parametrize("members", [1, 2])
    def test_turn_is_bit_identical_across_widths(self, members):
        # every column of a 1024-wide turn must equal the same turn on a block
        # of width 1, on the kernel's own views: the kick row on each member's
        # flat x + iy, the scalar tunneling and pulse factors on the flat
        # y + iz, the flat x + iy and the last member's x + iy
        n = 1024
        rng = np.random.default_rng(97)
        start = rng.standard_normal((members * n, 3))
        start /= np.linalg.norm(start, axis=1, keepdims=True)
        factors = np.exp(2j * 0.1 * sim._kick_points())
        kicks = np.take(factors, rng.integers(0, 256, (1, n), dtype=np.uint8))
        pulse = sim._StateBlock(1, [PLUS], np.empty(0, dtype=int), PulseSpec(0.7, 0.0))
        scalars = [np.complex128(complex(math.cos(0.3), math.sin(0.3))), pulse.pulse_factor]

        def block(width, rows):
            b = sim._StateBlock(width, [PLUS] * (len(rows) // width), np.empty(0, dtype=int))
            b.s[...] = rows
            return b

        def views(b, name):
            return {"members": b.members, "u": [b.u], "w": [b.w], "last": b.members[-1:]}[name]

        turns = [("members", kicks[0])] + [(name, f) for f in scalars for name in ("u", "w", "last")]
        for name, factor in turns:
            wide = block(n, start)
            for view in views(wide, name):
                sim._turn(view, factor, wide.scratch)
            for col in range(members * n):
                one = block(1, start[col : col + 1])
                own = factor[col % n : col % n + 1] if np.ndim(factor) else factor
                if name != "last" or col >= (members - 1) * n:
                    (view,) = views(one, name)
                    sim._turn(view, own, one.scratch)
                assert np.array_equal(one.s[0], wide.s[col]), (name, col)

    def test_working_memory_does_not_grow_with_run_length(self):
        # one block of 1024 trajectories x 3000 steps: draws held for the
        # whole block took 25.8 MiB, per-trajectory draw chunks and the slab
        # about 12.2 MiB, group streams drawing into the slab 4.5 MiB; with a
        # record at every step, per-trajectory records took 94.7 MiB, sums
        # taken at each record 4.3 MiB.  The three runs below peaked at
        # 3.35/3.64/3.92 MiB with 256-step slabs and 16-step kick tables, and
        # at 1.16/1.45/1.49 MiB with 64-step slabs and 8-step tables, and at
        # 0.60/0.98/0.92 MiB with byte slabs and table lookups.  Each is
        # traced on its second run: in a fresh process the first run of the
        # first one also loads numpy.random and peaked at 1.88 MiB
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=1e-3, t_final=3.0, seed=79, n_trajectories=1024)
        every_step = SimConfig(
            params=params, dt=1e-3, t_final=3.0, seed=79, n_trajectories=1024,
            record_grid=tuple(np.linspace(0.0, 3.0, 3001)),
        )
        runs = (
            lambda: run_ensemble(cfg, LEFT, workers=1),
            lambda: run_ensemble(every_step, LEFT, workers=1),
            lambda: run_paired_ensemble(cfg, LEFT, PLUS, pulse_on_b=PulseSpec(0.4, 1.5), workers=1),
        )
        for run in runs:
            run()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20

    def test_coarse_dt_mean_matches_discrete_oracle(self):
        # past SimConfig's dt cap the splitting bias dwarfs the Monte Carlo
        # error: the mean of P^n must sit at the table law's exact
        # discrete-time moment, far from the continuous one.  The seed was
        # fixed before any run.
        params, dt, n_steps, n = ModelParams(delta=1.0, gamma=3.0), 0.4, 3, 400_000
        state = SpinState.normalized(0.8, 0.6j)
        cfg = types.SimpleNamespace(params=params, dt=dt, n_steps=n_steps, seed=20261021, n_trajectories=n)
        sums, _, _ = sim._run_blocks(cfg, [state], np.array([n_steps]), None, 1)
        phi = table_phi(params.gamma, dt)
        for order, (total, total_sq) in ((1, sums[[0, 3], 0]), (2, sums[[3, 6], 0])):
            mean, se = sim._sums_mean_se(total, total_sq, n)
            spec = MomentSpec(state, order, 0)
            z_table = (mean - discrete_time_moment(spec, params, dt, n_steps, phi)) / se
            z_continuous = (mean - finite_time_moment(spec, params, n_steps * dt)) / se
            assert abs(z_table) <= 4.0, (order, z_table)
            assert abs(z_continuous) > 20.0, (order, z_continuous)

    def test_draws_only_through_positional_normals(self):
        # the kernel may ask a group stream for nothing but indices(count),
        # count a whole number of rows of at most _SLAB_STEPS steps, and must
        # take exactly one draw per trajectory per step
        class Recording:
            def __init__(self, trajectory_id, width):
                self.stream = NoiseStream(83, trajectory_id, width=width)
                self.width = width
                self.calls = []

            def indices(self, *args, **kwargs):
                self.calls.append((args, kwargs))
                return self.stream.indices(*args, **kwargs)

        n_steps = 2 * sim._SLAB_STEPS + 37
        streams = [Recording(0, 64), Recording(64, 3)]
        block = sim._StateBlock(67, [RANDOM], np.array([0, 5, n_steps]))
        sim._advance(ModelParams(delta=1.0, gamma=1.0), 0.01, n_steps, streams, block)
        for stream in streams:
            assert stream.calls
            for args, kwargs in stream.calls:
                assert kwargs == {} and len(args) == 1
                assert args[0] % stream.width == 0
                assert stream.width <= args[0] <= sim._SLAB_STEPS * stream.width
            assert sum(args[0] for args, _ in stream.calls) == n_steps * stream.width

    @pytest.mark.parametrize("gamma", [1.0, 3.0])
    def test_coherence_matches_closed_form(self, gamma):
        # x + iy = 2 a b*: the simulated <a b*> must follow closed_form_offdiag
        # in both parts, not its conjugate
        params = ModelParams(delta=1.0, gamma=gamma)
        cfg = SimConfig(params=params, dt=0.01 / gamma, t_final=6.0, seed=71, n_trajectories=3000)
        ens = run_ensemble(cfg, LEFT)
        for i, t in enumerate(ens.times):
            expected = closed_form_offdiag(params, float(t))
            for value, reference, se in (
                (ens.mean_offdiag[i].real, expected.real, ens.se_offdiag_re[i]),
                (ens.mean_offdiag[i].imag, expected.imag, ens.se_offdiag_im[i]),
            ):
                assert abs(value - reference) <= 5.0 * se + 1e-15
        assert np.max(np.abs(ens.mean_offdiag.imag)) > 0.1

    def test_noiseless_coherence_is_exact_rabi(self):
        # gamma = 0 from the left well: a = cos(delta t/2), b = i sin(delta t/2),
        # so a b* = -(i/2) sin(delta t)
        delta = 1.0
        params = ModelParams(delta=delta, gamma=0.0)
        cfg = SimConfig(params=params, dt=0.002, t_final=7.0, seed=73, n_trajectories=1)
        ens = run_ensemble(cfg, LEFT)
        exact = -0.5j * np.sin(delta * ens.times)
        assert np.max(np.abs(ens.mean_offdiag - exact)) < 1e-10
        out = run_trajectory(cfg, NoiseStream(73, 0), LEFT).final_state
        coherence = complex(out.amp_left) * complex(out.amp_right).conjugate()
        assert abs(coherence - exact[-1]) < 1e-10


class TestPulseValidation:
    @pytest.mark.parametrize("paired", [False, True], ids=["ensemble", "paired"])
    def test_t0_past_horizon_rejected_before_any_block(self, monkeypatch, paired):
        def refuse(*args, **kwargs):
            raise AssertionError("a block task ran before the pulse was checked")

        monkeypatch.setattr(sim, "_map_blocks", refuse)
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=1.0, seed=5, n_trajectories=2500)
        pulse = PulseSpec(0.3, 2.0)
        with pytest.raises(ValueError, match="outside"):
            if paired:
                run_paired_ensemble(cfg, LEFT, LEFT, pulse_on_b=pulse, workers=2)
            else:
                run_ensemble(cfg, LEFT, pulse=pulse, workers=2)


class TestRunPairedEnsemble:
    def test_identical_members_give_exact_zero(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=3.0, seed=31, n_trajectories=300)
        paired = run_paired_ensemble(cfg, PLUS, PLUS)
        assert np.all(paired.diff_final == 0.0)
        assert paired.mean_sq_diff == 0.0

    @pytest.mark.parametrize("state", [LEFT, RIGHT], ids=["left", "right"])
    @pytest.mark.parametrize("phi", [math.pi / 6.0, math.pi / 2.0], ids=["pi/6", "pi/2"])
    def test_pulse_on_localized_state_is_exact_noop(self, state, phi):
        # on a basis state the relative phase is only a global phase, so the
        # pulsed member must follow the unpulsed one bit for bit
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=5.0, seed=53, n_trajectories=200)
        paired = run_paired_ensemble(cfg, state, state, pulse_on_b=PulseSpec(phi, 0.0))
        assert paired.mean_sq_diff == 0.0
        plain = run_trajectory(cfg, NoiseStream(53, 0), state)
        pulsed = run_trajectory(cfg, NoiseStream(53, 0), state, PulseSpec(phi, 0.0))
        assert np.array_equal(plain.p_left_series, pulsed.p_left_series)

    @pytest.mark.parametrize("n_trajectories", [2100, 2049])
    def test_members_match_single_trajectories(self, n_trajectories):
        # two whole blocks and a partial one over two draw chunks, with a pulse
        # on B at step 777: both members share one kick table, and each must
        # equal its own single-trajectory run bit for bit.  The pulse step
        # splits a merged rotation in both members, so the single runs record
        # there and nowhere else, which splits theirs at the same step.  At
        # 2049 the last block holds one trajectory: its kick turns go through
        # scratch and its two-element tunneling view turns in place, as the
        # wide blocks turn every view.
        params = ModelParams(delta=1.0, gamma=1.0)
        pulse = PulseSpec(0.9, 7.77)
        cfg = SimConfig(params=params, dt=0.01, t_final=13.37, seed=89,
                        n_trajectories=n_trajectories, record_grid=(pulse.t0,))
        paired = run_paired_ensemble(cfg, PLUS, RANDOM, pulse_on_b=pulse)
        for i in (0, 63, 64, 1023, 1024, n_trajectories - 1):
            assert paired.final_p_a[i] == run_trajectory(cfg, NoiseStream(89, i), PLUS).final_p_left
            pulsed = run_trajectory(cfg, NoiseStream(89, i), RANDOM, pulse)
            assert paired.final_p_b[i] == pulsed.final_p_left

    @pytest.mark.parametrize("t0", [0.0, 1.0])
    def test_pi_pulse_is_exact_noop(self, t0):
        # phi = pi multiplies both amplitudes by -1, a global phase, on any state
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=5.0, seed=59, n_trajectories=200)
        paired = run_paired_ensemble(cfg, PLUS, PLUS, pulse_on_b=PulseSpec(math.pi, t0))
        assert paired.mean_sq_diff == 0.0

    def test_orthogonal_pair_sensitivity(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=20.0, seed=37, n_trajectories=3000)
        paired = run_paired_ensemble(cfg, PLUS, MINUS)
        z = (paired.mean_sq_diff - 1.0 / 3.0) / paired.se_sq_diff
        assert abs(z) < 4.0

    def test_left_vs_symmetric_sensitivity(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=20.0, seed=41, n_trajectories=3000)
        paired = run_paired_ensemble(cfg, LEFT, PLUS)
        z = (paired.mean_sq_diff - 1.0 / 6.0) / paired.se_sq_diff
        assert abs(z) < 4.0

    def test_pulse_response_against_replica_factor(self):
        params = ModelParams(delta=1.0, gamma=1.0)
        phi, t0 = math.pi / 2.0, 1.0
        cfg = SimConfig(params=params, dt=0.01, t_final=21.0, seed=43, n_trajectories=3000)
        paired = run_paired_ensemble(cfg, LEFT, LEFT, pulse_on_b=PulseSpec(phi, t0))
        factor = finite_time_moment(MomentSpec(LEFT, 1, 1), params, t0)
        predicted = factor * 4.0 * math.sin(phi) ** 2 / 3.0
        z = (paired.mean_sq_diff - predicted) / paired.se_sq_diff
        assert abs(z) < 4.0

    def test_common_noise_reduces_variance(self):
        # the whole point of pairing: differences under common noise are far
        # less variable than under independent noise
        params = ModelParams(delta=1.0, gamma=1.0)
        cfg = SimConfig(params=params, dt=0.01, t_final=5.0, seed=47, n_trajectories=2000)
        paired = run_paired_ensemble(cfg, PLUS, SpinState.normalized(1.0, 0.99))
        cfg_b = SimConfig(params=params, dt=0.01, t_final=5.0, seed=48, n_trajectories=2000)
        independent_a = run_ensemble(cfg, PLUS)
        independent_b = run_ensemble(cfg_b, SpinState.normalized(1.0, 0.99))
        var_common = paired.diff_final.var()
        var_indep = (independent_a.final_p_left - independent_b.final_p_left).var()
        assert var_common < 0.2 * var_indep
