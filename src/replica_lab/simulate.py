"""Stochastic trajectory simulator: single noise realizations as exact unitaries.

Each trajectory holds a pure two-component state and advances by a
Strang-split step: half tunneling rotation, a random phase kick, half
rotation.  Every factor is an exact 2x2 unitary, so normalization survives to
machine precision for any step size.  The phase-kick angle accumulated over
one step is exactly Gaussian with variance gamma*dt/2, which reproduces the
averaged coherence decay e^{-gamma t} exactly at any dt when delta = 0; the
only discretization bias is the O(dt^2) splitting error of the mean dynamics.

Noise streams are counter-based: trajectory i draws standard normals from
Philox keyed by (seed, i).  A trajectory's k-th draw is a pure function of
(seed, trajectory_id, k), independent of scheduling, block size, or worker
count, which makes runs bit-reproducible and lets paired runs consume the
identical field realization (common random numbers).

Trajectories are embarrassingly parallel; ensembles run in fixed blocks of
1024 trajectories, vectorized across the block, and blocks may be dispatched
to a process pool.  Partial sums are combined in block order, so results do
not depend on the degree of parallelism.  The worker count comes from the
REPLICA_LAB_THREADS environment variable (0 = auto, unset = serial).
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import ModelParams, SpinState

BLOCK_TRAJECTORIES = 1024
_STEP_CHUNK = 8192

_DRIFT_BUDGET_PER_STEP = 1e-12


class NormDriftError(RuntimeError):
    """Norm drift exceeded its budget: the stepper is broken, not the physics."""


@dataclass(frozen=True)
class SimConfig:
    """Ensemble configuration; dt must resolve both the tunneling and dephasing scales."""

    params: ModelParams
    dt: float
    t_final: float
    seed: int
    n_trajectories: int
    record_grid: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final!r}")
        gamma, delta = self.params.gamma, self.params.delta
        if gamma > 0 and delta > 0:
            cap = 0.01 * min(1.0 / gamma, 1.0 / delta)
            if self.dt > cap * (1 + 1e-12):
                raise ValueError(f"dt={self.dt} exceeds 0.01*min(1/delta, 1/gamma)={cap}")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        if not 0 <= self.seed < 2**64:
            # the Philox key holds 64 bits; a wider seed would alias another one
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.record_grid is not None:
            times = tuple(float(t) for t in self.record_grid)
            if any(not math.isfinite(t) or t < 0 or t > self.t_final * (1 + 1e-12) for t in times):
                raise ValueError("record_grid times must lie in [0, t_final]")
            object.__setattr__(self, "record_grid", times)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def record_steps(self) -> np.ndarray:
        """Record boundaries: requested grid snapped to step boundaries, sorted."""
        if self.record_grid is None:
            times = np.linspace(0.0, self.t_final, 21)
        else:
            times = np.sort(np.asarray(self.record_grid, dtype=float))
        return np.clip(np.rint(times / self.dt).astype(int), 0, self.n_steps)

    def record_times(self) -> np.ndarray:
        """Actual sample times (snapped boundaries times dt)."""
        return self.record_steps() * self.dt


@dataclass(frozen=True)
class PulseSpec:
    """Instantaneous relative-phase pulse: (a, b) -> (e^{i phi} a, e^{-i phi} b) at t0.

    The map holds up to a global phase, which the simulator does not keep:
    each trajectory multiplies e^{-2i phi} onto b when |b| <= |a|, and
    e^{2i phi} onto a otherwise.  P_left, the coherence a b* and the final
    P are unchanged by a global phase, so every recorded quantity is as the
    map above gives it, while ``TrajectoryResult.final_state`` after a pulse
    differs from (e^{i phi} a, e^{-i phi} b) by that global phase.  A zero
    amplitude stays exactly 0, so a pulse on either localized state is a
    bit-exact no-op.

    Applied at the step boundary nearest t0; records at that boundary see the
    post-pulse state.  The pulse changes phases only, so recorded
    probabilities at the pulse time itself are unaffected.
    """

    delta_phi: float
    t0: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta_phi):
            raise ValueError("delta_phi must be finite")
        if not (math.isfinite(self.t0) and self.t0 >= 0):
            raise ValueError("t0 must be finite and >= 0")


def _philox_key(seed: int, trajectory_id: int) -> np.ndarray:
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, trajectory_id], dtype=np.uint64)


@dataclass
class NoiseStream:
    """Counter-based normal stream for one trajectory.

    Draw k is a deterministic function of (seed, trajectory_id, k); streams
    with different trajectory ids are statistically independent.
    """

    seed: int
    trajectory_id: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        bitgen = np.random.Philox(key=_philox_key(self.seed, self.trajectory_id))
        self._gen = np.random.Generator(bitgen)

    def normals(self, count: int) -> np.ndarray:
        return self._gen.standard_normal(count)


@dataclass(frozen=True)
class TrajectoryResult:
    final_state: SpinState
    times: np.ndarray
    p_left_series: np.ndarray
    norm_drift: float


@dataclass(frozen=True)
class EnsembleResult:
    """Ensemble summaries plus per-trajectory final probabilities and provenance."""

    params: ModelParams
    dt: float
    t_final: float
    seed: int
    n_trajectories: int
    initial: tuple[complex, complex]
    pulse: Optional[PulseSpec]
    times: np.ndarray
    mean_p_left: np.ndarray
    se_p_left: np.ndarray
    mean_p_left_sq: np.ndarray
    se_p_left_sq: np.ndarray
    mean_offdiag: np.ndarray  # complex: <a b*> at each record time
    se_offdiag_re: np.ndarray
    se_offdiag_im: np.ndarray
    final_p_left: np.ndarray
    max_norm_drift: float
    n_steps: int


@dataclass(frozen=True)
class PairedEnsembleResult:
    """Common-random-number pair of runs and the law of their final difference."""

    params: ModelParams
    dt: float
    t_final: float
    seed: int
    n_trajectories: int
    initial_a: tuple[complex, complex]
    initial_b: tuple[complex, complex]
    pulse_on_b: Optional[PulseSpec]
    final_p_a: np.ndarray
    final_p_b: np.ndarray
    diff_final: np.ndarray
    mean_sq_diff: float
    se_sq_diff: float
    max_norm_drift: float


class _StateBlock:
    """Amplitudes of one trajectory block plus its recording buffers and pulse."""

    def __init__(
        self,
        n: int,
        initial: SpinState,
        record_steps: np.ndarray,
        pulse: Optional[PulseSpec] = None,
        cfg: Optional[SimConfig] = None,
    ):
        self.a = np.full(n, complex(initial.amp_left), dtype=complex)
        self.b = np.full(n, complex(initial.amp_right), dtype=complex)
        self.record_steps = record_steps
        self.pulse_boundary = _pulse_boundary(pulse, cfg)
        # relative phase e^{2i phi}; see PulseSpec.  fmod is exact: phi = +-pi
        # gives exactly 1, and |phi| < pi is left unchanged.
        self.pulse_phase = (
            cmath.exp(2j * math.fmod(pulse.delta_phi, math.pi)) if pulse else 1.0 + 0.0j
        )
        self.p_rec = np.empty((n, len(record_steps)))
        self.coh_rec = np.empty((n, len(record_steps)), dtype=complex)
        self.drift = np.zeros(n)
        self._ptr = 0

    def at_boundary(self, boundary: int) -> None:
        if self.pulse_boundary == boundary:
            on_b = np.abs(self.b) <= np.abs(self.a)
            self.b[on_b] *= self.pulse_phase.conjugate()
            self.a[~on_b] *= self.pulse_phase
        while self._ptr < len(self.record_steps) and self.record_steps[self._ptr] == boundary:
            self.p_rec[:, self._ptr] = self.a.real**2 + self.a.imag**2
            self.coh_rec[:, self._ptr] = self.a * np.conj(self.b)
            self._ptr += 1

    def step(self, gauss: np.ndarray, cos_half: float, isin_half: complex, kick: float) -> None:
        a, b = self.a, self.b
        a, b = cos_half * a + isin_half * b, isin_half * a + cos_half * b
        angle = kick * gauss
        phase = np.cos(angle) + 1j * np.sin(angle)
        a = a * phase
        b = b * np.conj(phase)
        a, b = cos_half * a + isin_half * b, isin_half * a + cos_half * b
        self.a, self.b = a, b
        norm = a.real**2 + a.imag**2 + b.real**2 + b.imag**2
        np.maximum(self.drift, np.abs(norm - 1.0), out=self.drift)


def _pulse_boundary(pulse: Optional[PulseSpec], cfg: SimConfig) -> int:
    if pulse is None:
        return -1
    if pulse.t0 > cfg.t_final * (1 + 1e-12):
        raise ValueError(f"pulse t0={pulse.t0} outside [0, t_final={cfg.t_final}]")
    return int(np.clip(round(pulse.t0 / cfg.dt), 0, cfg.n_steps))


def _advance(cfg: SimConfig, streams: Sequence[NoiseStream], blocks: Sequence[_StateBlock]) -> None:
    """March every state block through the run; blocks share the noise draws."""
    cos_half = math.cos(0.25 * cfg.params.delta * cfg.dt)
    isin_half = 1j * math.sin(0.25 * cfg.params.delta * cfg.dt)
    kick = math.sqrt(0.5 * cfg.params.gamma * cfg.dt)
    n_steps = cfg.n_steps

    for block in blocks:
        block.at_boundary(0)
    if n_steps == 0:
        return

    noise = np.empty((len(streams), min(_STEP_CHUNK, n_steps)))
    done = 0
    while done < n_steps:
        size = min(_STEP_CHUNK, n_steps - done)
        for row, stream in enumerate(streams):
            noise[row, :size] = stream.normals(size)
        for k in range(size):
            gauss = noise[:, k]
            for block in blocks:
                block.step(gauss, cos_half, isin_half, kick)
                block.at_boundary(done + k + 1)
        done += size


def _check_drift(drift: np.ndarray, n_steps: int) -> float:
    budget = _DRIFT_BUDGET_PER_STEP * max(n_steps, 1)
    worst = float(drift.max()) if drift.size else 0.0
    if worst >= budget:
        raise NormDriftError(f"norm drift {worst} exceeds budget {budget} ({n_steps} steps)")
    return worst


def step(state: SpinState, params: ModelParams, dt: float, gauss: float) -> SpinState:
    """One Strang-split step: half rotation, Gaussian phase kick, half rotation."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    cos_half = math.cos(0.25 * params.delta * dt)
    isin_half = 1j * math.sin(0.25 * params.delta * dt)
    kick = math.sqrt(0.5 * params.gamma * dt)
    a = np.array([complex(state.amp_left)])
    b = np.array([complex(state.amp_right)])
    a, b = cos_half * a + isin_half * b, isin_half * a + cos_half * b
    angle = kick * np.asarray([float(gauss)])
    phase = np.cos(angle) + 1j * np.sin(angle)
    a, b = a * phase, b * np.conj(phase)
    a, b = cos_half * a + isin_half * b, isin_half * a + cos_half * b
    return SpinState(complex(a[0]), complex(b[0]))


def run_trajectory(
    cfg: SimConfig,
    stream: NoiseStream,
    initial: SpinState,
    pulse: Optional[PulseSpec] = None,
) -> TrajectoryResult:
    """Evolve one noise realization, recording P_left on the grid."""
    record_steps = cfg.record_steps()
    block = _StateBlock(
        1,
        initial,
        record_steps,
        pulse=pulse,
        cfg=cfg,
    )
    _advance(cfg, [stream], [block])
    drift = _check_drift(block.drift, cfg.n_steps)
    return TrajectoryResult(
        final_state=SpinState(complex(block.a[0]), complex(block.b[0])),
        times=cfg.record_times(),
        p_left_series=block.p_rec[0].copy(),
        norm_drift=drift,
    )


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, else REPLICA_LAB_THREADS (0 = auto), else 1."""
    if workers is None:
        env = os.environ.get("REPLICA_LAB_THREADS", "").strip()
        if not env:
            return 1
        workers = int(env)
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"worker count must be >= 0, got {workers}")
    return workers


def _block_ranges(n_trajectories: int) -> list[tuple[int, int]]:
    return [
        (lo, min(lo + BLOCK_TRAJECTORIES, n_trajectories))
        for lo in range(0, n_trajectories, BLOCK_TRAJECTORIES)
    ]


def _ensemble_block(args) -> dict:
    cfg, lo, hi, initial_amps, pulse = args
    initial = SpinState(*initial_amps)
    streams = [NoiseStream(cfg.seed, i) for i in range(lo, hi)]
    block = _StateBlock(
        hi - lo,
        initial,
        cfg.record_steps(),
        pulse=pulse,
        cfg=cfg,
    )
    _advance(cfg, streams, [block])
    p, coh = block.p_rec, block.coh_rec
    return {
        "sum_p": p.sum(axis=0),
        "sum_p_sq": (p**2).sum(axis=0),
        "sum_p_4": (p**4).sum(axis=0),
        "sum_coh": coh.sum(axis=0),
        "sum_coh_re_sq": (coh.real**2).sum(axis=0),
        "sum_coh_im_sq": (coh.imag**2).sum(axis=0),
        "final_p": block.a.real**2 + block.a.imag**2,
        "drift_max": float(block.drift.max()),
    }


def _paired_block(args) -> dict:
    cfg, lo, hi, amps_a, amps_b, pulse_b = args
    streams = [NoiseStream(cfg.seed, i) for i in range(lo, hi)]
    no_records = np.empty(0, dtype=int)
    block_a = _StateBlock(hi - lo, SpinState(*amps_a), no_records)
    block_b = _StateBlock(
        hi - lo,
        SpinState(*amps_b),
        no_records,
        pulse=pulse_b,
        cfg=cfg,
    )
    _advance(cfg, streams, [block_a, block_b])
    return {
        "final_a": block_a.a.real**2 + block_a.a.imag**2,
        "final_b": block_b.a.real**2 + block_b.a.imag**2,
        "drift_max": float(max(block_a.drift.max(), block_b.drift.max())),
    }


def _map_blocks(worker, tasks, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(worker, tasks))


def _mean_se(total: np.ndarray, total_sq: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    mean = total / n
    if n < 2:
        return mean, np.zeros_like(mean)
    var = np.maximum(total_sq - n * mean**2, 0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def run_ensemble(
    cfg: SimConfig,
    initial: SpinState,
    pulse: Optional[PulseSpec] = None,
    workers: Optional[int] = None,
) -> EnsembleResult:
    """Run cfg.n_trajectories independent realizations and summarize them.

    Trajectory i always consumes the stream keyed (seed, i); partial sums are
    combined in fixed block order, so the result is bit-identical for any
    worker count.
    """
    n = cfg.n_trajectories
    amps = (complex(initial.amp_left), complex(initial.amp_right))
    tasks = [(cfg, lo, hi, amps, pulse) for lo, hi in _block_ranges(n)]
    results = _map_blocks(_ensemble_block, tasks, resolve_workers(workers))

    n_rec = len(cfg.record_steps())
    sum_p = np.zeros(n_rec)
    sum_p_sq = np.zeros(n_rec)
    sum_p_4 = np.zeros(n_rec)
    sum_coh = np.zeros(n_rec, dtype=complex)
    sum_coh_re_sq = np.zeros(n_rec)
    sum_coh_im_sq = np.zeros(n_rec)
    finals = []
    drift_max = 0.0
    for res in results:
        sum_p += res["sum_p"]
        sum_p_sq += res["sum_p_sq"]
        sum_p_4 += res["sum_p_4"]
        sum_coh += res["sum_coh"]
        sum_coh_re_sq += res["sum_coh_re_sq"]
        sum_coh_im_sq += res["sum_coh_im_sq"]
        finals.append(res["final_p"])
        drift_max = max(drift_max, res["drift_max"])
    _check_drift(np.array([drift_max]), cfg.n_steps)

    mean_p, se_p = _mean_se(sum_p, sum_p_sq, n)
    mean_p_sq, se_p_sq = _mean_se(sum_p_sq, sum_p_4, n)
    mean_coh = sum_coh / n
    _, se_re = _mean_se(sum_coh.real, sum_coh_re_sq, n)
    _, se_im = _mean_se(sum_coh.imag, sum_coh_im_sq, n)

    return EnsembleResult(
        params=cfg.params,
        dt=cfg.dt,
        t_final=cfg.t_final,
        seed=cfg.seed,
        n_trajectories=n,
        initial=amps,
        pulse=pulse,
        times=cfg.record_times(),
        mean_p_left=mean_p,
        se_p_left=se_p,
        mean_p_left_sq=mean_p_sq,
        se_p_left_sq=se_p_sq,
        mean_offdiag=mean_coh,
        se_offdiag_re=se_re,
        se_offdiag_im=se_im,
        final_p_left=np.concatenate(finals) if finals else np.empty(0),
        max_norm_drift=drift_max,
        n_steps=cfg.n_steps,
    )


def run_paired_ensemble(
    cfg: SimConfig,
    initial_a: SpinState,
    initial_b: SpinState,
    pulse_on_b: Optional[PulseSpec] = None,
    workers: Optional[int] = None,
) -> PairedEnsembleResult:
    """Run both initial states against the identical noise realizations.

    The per-trajectory difference P_A - P_B at t_final isolates the effect of
    the initial-state change (or of the pulse applied to run B) from the
    shared field fluctuations.
    """
    n = cfg.n_trajectories
    amps_a = (complex(initial_a.amp_left), complex(initial_a.amp_right))
    amps_b = (complex(initial_b.amp_left), complex(initial_b.amp_right))
    tasks = [(cfg, lo, hi, amps_a, amps_b, pulse_on_b) for lo, hi in _block_ranges(n)]
    results = _map_blocks(_paired_block, tasks, resolve_workers(workers))

    final_a = np.concatenate([res["final_a"] for res in results])
    final_b = np.concatenate([res["final_b"] for res in results])
    drift_max = max(res["drift_max"] for res in results)
    _check_drift(np.array([drift_max]), cfg.n_steps)

    diff = final_a - final_b
    sq = diff**2
    mean_sq = float(sq.mean())
    se_sq = float(sq.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return PairedEnsembleResult(
        params=cfg.params,
        dt=cfg.dt,
        t_final=cfg.t_final,
        seed=cfg.seed,
        n_trajectories=n,
        initial_a=amps_a,
        initial_b=amps_b,
        pulse_on_b=pulse_on_b,
        final_p_a=final_a,
        final_p_b=final_b,
        diff_final=diff,
        mean_sq_diff=mean_sq,
        se_sq_diff=se_sq,
        max_norm_drift=drift_max,
    )
