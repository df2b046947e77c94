"""Stochastic trajectory simulator: single noise realizations as exact rotations.

Each trajectory holds the real Bloch vector r = (x, y, z) of its pure state
a|L> + b|R>, with x + iy = 2 a b* and z = |a|^2 - |b|^2, so P_left =
(1 + z)/2 and the coherence a b* = (x + iy)/2.  The global phase of (a, b)
is not part of r.  A Strang-split step is a half tunneling rotation of (y, z)
by delta*dt/2, a phase kick that rotates (x, y) by 2*kick*z, and another
half rotation, with kick = sqrt(gamma*dt/2).  Every factor is an exact
rotation, so |r| = 1 survives to machine precision for any step size.

The kick value z is drawn from a 256-point table, not from a normal: the
points are the midpoint normal quantiles q_j = Phi^{-1}((j + 1/2)/256),
mapped by z = q (a + b q^2 + c q^4) so that the law is symmetric and its
2nd, 4th and 6th moments are exactly 1, 3 and 15, those of the standard
normal.  The noise-averaged step depends on the kick law only through
phi(m) = E[e^{i m alpha}] of the angle alpha = 2*kick*z, so this law gives
the Gaussian e^{-gamma m^2 dt} up to a relative error of the rate of order
(gamma dt)^3 m^6: 1e-7 at gamma dt = 1e-3 and 1e-4 at the dt cap 1e-2 for
m <= 6, far below the O(dt^2) splitting error of the mean dynamics, which is
the scheme's only other bias (P. E. Kloeden and E. Platen, Numerical
Solution of Stochastic Differential Equations (1992), sec. 14.2, on weak
schemes with discrete increments).  A draw is one random byte that indexes
the 256 kick factors e^{2i kick z_j}, built once per block.

One block kernel (``_advance``) steps every run: ensembles, paired runs,
single trajectories and ``step``.  It merges the closing half rotation of a
step with the opening half of the next and splits them only where the state
must be whole (records, the pulse, the last step).  A block keeps its Bloch
vectors trajectory-major, one (x, y, z) row each, so that x + iy and y + iz
are two complex views of the same memory: the kick rotation of (x, y) by
alpha is one complex multiply of the first by e^{i alpha}, a tunneling
rotation of (y, z) by beta one multiply of the second by e^{i beta}.  A
step's kick row turns the flat x + iy view of each member, a tunneling
factor the whole block's y + iz.  Views of two or more elements are turned in
place; a one-element view goes through a contiguous scratch and is copied
back, because numpy's in-place multiply on one strided element takes another
loop and changes the last bits.  So a pair of one trajectory per member turns
its kicks through the scratch and its two-element tunneling view in place.
The kick factors are looked up in bulk tables.  ``SpinState`` appears only
at the API boundary.  A block's working memory is bounded whatever its run
length and number of record times: the kick bytes go step-major into one
slab of at most 64 steps, a paired block's members share one table of kick
factors, and each record is summed over the columns when taken; a block of
1024 trajectories needs about 0.5 MB beyond its state and record sums.

Noise streams are counter-based and keyed per group of 64 trajectories:
trajectory i reads column i % 64 of the raw bytes of Philox keyed by
(seed, i // 64), little-endian 64-bit words that fill one 64-byte row per
step, so its k-th draw is byte 64 k + i % 64 of that sequence (J. K. Salmon
et al., SC11 (2011)); raw words need no rejection, so the offset is fixed.
The draw is a pure function of (seed, trajectory_id, k), independent of
scheduling, block size, or worker count, which makes runs bit-reproducible on
a host and lets paired runs consume the identical field realization (common
random numbers).

Trajectories are embarrassingly parallel; ensembles run in fixed blocks of
1024 trajectories, vectorized across the block, and blocks may be dispatched
to a process pool.  Partial sums are combined in block order, so results do
not depend on the degree of parallelism.  The worker count comes from the
REPLICA_LAB_THREADS environment variable (0 = one per usable CPU, unset = serial).
"""

from __future__ import annotations

import cmath
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .model import ModelParams, SpinState, _bloch, _check_int, _check_real
from .stats import mean_se

BLOCK_TRAJECTORIES = 1024
_GROUP_WIDTH = 64  # trajectories per Philox stream, one byte each per step; divides BLOCK_TRAJECTORIES
# Working memory of one block, whatever its number of steps: about
# _SLAB_STEPS bytes + (3 + 4 * members) * _TRIG_STEPS doubles per trajectory
# (0.5 MB at 1024 trajectories, 0.75 MB for a pair): the byte slab, the
# complex kick table and the lookup's index array, and the state path of a
# table with its norm_sq, plus one group's _SLAB_STEPS rows of bytes, on top
# of the block's state and record sums and whatever the process running it
# holds.  Both sizes only chunk the same arithmetic, so no output depends on
# them.
_SLAB_STEPS = 64  # steps per step-major slab of kick bytes
_TRIG_STEPS = 8  # steps per bulk table of kick factors
_KICK_POINTS = 256  # one per value of a byte

_DRIFT_BUDGET_PER_STEP = 1e-12

# A Philox key word holds 64 bits: a seed or trajectory id outside [0, 2**64)
# would alias another one.
_KEY_MAX = 2**64 - 1


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
        _check_real("dt", self.dt, 0, strict=True)
        _check_real("t_final", self.t_final, 0)
        gamma, delta = self.params.gamma, self.params.delta
        if gamma > 0 and delta > 0:
            cap = 0.01 * min(1.0 / gamma, 1.0 / delta)
            if self.dt > cap * (1 + 1e-12):
                raise ValueError(f"dt={self.dt} exceeds 0.01*min(1/delta, 1/gamma)={cap}")
        _check_int("n_trajectories", self.n_trajectories, 1)
        _check_int("seed", self.seed, 0, _KEY_MAX)
        # the step count, an int64 in record_steps(); refused as the float it is when too large
        steps = self.t_final / self.dt
        _check_int("t_final/dt", self.n_steps if steps < 2**63 else steps, 0, 2**63 - 1)
        if self.record_grid is not None:
            times = tuple(float(t) for t in self.record_grid)
            for t in times:
                self.boundary(t)
            object.__setattr__(self, "record_grid", times)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def t_simulated(self) -> float:
        """n_steps * dt, the horizon actually simulated: not t_final when dt does not divide it."""
        return self.n_steps * self.dt

    def boundary(self, t: float) -> int:
        """The step boundary nearest time t, at most n_steps; rejects t outside [0, t_final]."""
        if not 0 <= t <= self.t_final * (1 + 1e-12):
            raise ValueError(f"time {t} outside [0, t_final={self.t_final}]")
        return min(int(round(t / self.dt)), self.n_steps)

    def record_steps(self) -> np.ndarray:
        """Record boundaries: the distinct step boundaries of the requested grid, sorted."""
        grid = np.linspace(0.0, self.t_final, 21) if self.record_grid is None else self.record_grid
        return np.array(sorted({self.boundary(t) for t in grid}), dtype=int)

    def record_times(self) -> np.ndarray:
        """Actual sample times (snapped boundaries times dt)."""
        return self.record_steps() * self.dt


@dataclass(frozen=True)
class PulseSpec:
    """Instantaneous relative-phase pulse: (a, b) -> (e^{i phi} a, e^{-i phi} b) at t0.

    On the Bloch vector this is a rotation of (x, y) by 2*phi, since a b*
    picks up e^{2i phi}; the simulator multiplies x + iy by
    e^{2i fmod(phi, pi)}, the same rotation.  It is exact where it must be:
    on a localized state x + iy = 0, and any factor times 0 is 0, so the
    pulse is a bit-exact no-op; phi = 0 or +-pi gives the factor 1 + 0i
    exactly, again a no-op.
    ``TrajectoryResult.final_state`` carries no phase of its own (its larger
    amplitude is real), so it equals the map above up to a global phase.

    Applied at the step boundary nearest t0; records at that boundary see the
    post-pulse state.  The pulse changes phases only, so recorded
    probabilities at the pulse time itself are unaffected.
    """

    delta_phi: float
    t0: float

    def __post_init__(self) -> None:
        _check_real("delta_phi", self.delta_phi)
        _check_real("t0", self.t0, 0)


@functools.cache
def _kick_points() -> np.ndarray:
    """The 256 equiprobable kick values z_j, ascending: byte j draws z_j.

    z_j = q_j (a + b q_j^2 + c q_j^4) with q_j = Phi^{-1}((j + 1/2)/256), the
    midpoint normal quantiles; Newton's method on (a, b, c) makes the 2nd,
    4th and 6th moments 1, 3 and 15 (a, b, c = 1.02396407, -0.02213078,
    0.00323375).  The lower half mirrors the upper one, so the law is
    exactly symmetric.  Built once per process.
    """
    from statistics import NormalDist  # looked up here: only a run that draws loads it

    # the law is symmetric: fit on the upper half, whose even moments are the law's
    quantile = NormalDist().inv_cdf
    q = np.array([quantile((j + 0.5) / _KICK_POINTS) for j in range(_KICK_POINTS // 2, _KICK_POINTS)])
    powers = q ** np.array([[1], [3], [5]])  # z = coef @ powers
    orders = np.array([2, 4, 6])
    target = np.array([1.0, 3.0, 15.0])
    coef = np.array([1.0, 0.0, 0.0])
    for _ in range(8):
        z = coef @ powers
        residual = (z ** orders[:, None]).mean(axis=1) - target
        jacobian = (orders[:, None, None] * z ** (orders - 1)[:, None, None] * powers).mean(axis=2)
        coef -= np.linalg.solve(jacobian, residual)
    z = coef @ powers
    return np.concatenate([-z[::-1], z])


@dataclass
class NoiseStream:
    """Counter-based byte stream of one trajectory: the indices of its kick values.

    Draw k of trajectory i is byte 64 k + i % 64 of the raw output of Philox
    keyed (seed, i // 64), read as little-endian 64-bit words: a pure
    function of (seed, trajectory_id, k).  The group's stream fills whole
    64-byte rows of 8 words, so one trajectory's stream generates 8 words
    per step and keeps one byte; an ensemble's partial last group pays up to
    that too.

    ``indices(count)`` hands over the next count bytes; ``normals(count)``
    the kick values z_j they select, the 256-point law's values at the same
    draws.  The ensemble blocks pass the keyword ``width`` to cover that
    many adjacent trajectories of one group; both methods then hand over
    the next count / width steps, row-major.
    """

    seed: int
    trajectory_id: int
    width: int = field(default=1, kw_only=True)
    _col: int = field(init=False, repr=False)  # the first column within the group
    _bits: np.random.Philox = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_int("seed", self.seed, 0, _KEY_MAX)
        _check_int("trajectory_id", self.trajectory_id, 0, _KEY_MAX)
        group, self._col = divmod(int(self.trajectory_id), _GROUP_WIDTH)
        _check_int("width", self.width, 1, _GROUP_WIDTH - self._col)
        self._bits = np.random.Philox(key=np.array([self.seed, group], dtype=np.uint64))

    def indices(self, count: int) -> np.ndarray:
        rows, rest = divmod(count, self.width)
        if rest:
            raise ValueError(f"count must be a multiple of width={self.width}, got {count}")
        words = self._bits.random_raw(rows * _GROUP_WIDTH // 8).astype("<u8", copy=False)
        draws = words.view(np.uint8).reshape(rows, _GROUP_WIDTH)
        # a whole group's columns are contiguous, so ravel returns a view, not a copy
        return draws[:, self._col : self._col + self.width].ravel()

    def normals(self, count: int) -> np.ndarray:
        return _kick_points()[self.indices(count)]


@dataclass(frozen=True)
class TrajectoryResult:
    final_state: SpinState
    times: np.ndarray
    p_left_series: np.ndarray
    final_p_left: float  # (1 + z)/2, as EnsembleResult.final_p_left reports it
    norm_drift: float


@dataclass(frozen=True)
class EnsembleResult:
    """Ensemble summaries plus per-trajectory final probabilities."""

    params: ModelParams
    n_trajectories: int
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


@dataclass(frozen=True)
class PairedEnsembleResult:
    """Common-random-number pair of runs and the law of their final difference."""

    params: ModelParams
    n_trajectories: int
    final_p_a: np.ndarray
    final_p_b: np.ndarray
    diff_final: np.ndarray
    mean_sq_diff: float
    se_sq_diff: float
    max_norm_drift: float


def _spin_state(r: np.ndarray) -> SpinState:
    """The state with Bloch vector r/|r|, its larger amplitude taken real and >= 0."""
    x, y, z = (float(v) for v in r / math.sqrt(float(r @ r)))
    coh = 0.5 * complex(x, y)  # a b*
    if z >= 0.0:
        a = math.sqrt(0.5 * (1.0 + z))
        return SpinState(complex(a), coh.conjugate() / a)
    b = math.sqrt(0.5 * (1.0 - z))
    return SpinState(coh / b, complex(b))


class _StateBlock:
    """Bloch vectors of one trajectory block, one column each, plus the sums of its records.

    ``s`` is one trajectory-major (members * n, 3) array, so x, y and z of a
    column are adjacent (row ``s[i]`` is column i), and ``w`` and ``u`` are
    its complex views x + iy and y + iz, at byte offsets 0 and 8 with a
    stride of three doubles.  The members of a pair sit side by side: column
    ``k * n + i`` is trajectory i of member k, and every member of trajectory
    i consumes trajectory i's noise.  ``members`` holds the flat (n,) view of
    ``w`` of each member, and ``scratch`` the one-element scratch of
    ``_turn`` when n == 1, else None.  The pulse acts on the last member (run
    B of a pair) at step boundary ``pulse_boundary``, -1 without a pulse.
    """

    def __init__(
        self,
        n: int,
        initials: Sequence[SpinState],
        record_steps: np.ndarray,
        pulse: Optional[PulseSpec] = None,
        pulse_boundary: int = -1,
    ):
        self.n = n
        self.s = np.repeat(np.stack([_bloch(s) for s in initials]), n, axis=0)
        width = len(self.s)
        self.w, self.u = (
            np.ndarray((width,), complex, self.s, offset, (self.s.strides[0],)) for offset in (0, 8)
        )
        self.members = [self.w[k : k + n] for k in range(0, width, n)]
        self.scratch = np.empty(1, complex) if n == 1 else None  # see _turn
        self.record_steps = record_steps
        self.pulse_boundary = pulse_boundary
        # rotation of (x, y) by 2 phi.  fmod is exact: phi = +-pi gives an angle
        # of exactly 0, so a factor of exactly 1 + 0i, and |phi| < pi is left unchanged.
        angle = 2.0 * math.fmod(pulse.delta_phi, math.pi) if pulse else 0.0
        self.pulse_factor = cmath.rect(1.0, angle)
        # per record: sums over the columns of P_left, a b* as (re, im), their
        # squares and P_left^4; _terms holds the terms of one record
        self.sums, self._terms = np.zeros((7, len(record_steps))), np.empty((7, width))
        self.drift = 0.0
        self._ptr = 0

    def stops(self, n_steps: int) -> list[int]:
        """Step boundaries after step 1 where the state must be whole: records, pulse, end."""
        marks = set(int(k) for k in self.record_steps) | {self.pulse_boundary, n_steps}
        return sorted(k for k in marks if k >= 1)

    def at_boundary(self, boundary: int) -> None:
        if self.pulse_boundary == boundary:
            # on a localized state x + iy = 0, so the turn leaves it exactly unchanged
            _turn(self.members[-1], self.pulse_factor, self.scratch)
        if self._ptr < len(self.record_steps) and self.record_steps[self._ptr] == boundary:
            t = self._terms
            t[0] = self.p_left()
            np.multiply(0.5, self.s[:, :2].T, out=t[1:3])
            np.square(t[:3], out=t[3:6])
            np.power(t[0], 4, out=t[6])
            # in column order, not np.sum's pairwise order: fixed-seed outputs keep their bits
            self.sums[:, self._ptr] = np.add.accumulate(t, axis=1, out=t)[:, -1]
            self._ptr += 1

    def p_left(self) -> np.ndarray:
        """P_left = (1 + z)/2 of every column."""
        return 0.5 * (1.0 + self.s[:, 2])

    def norm_drift(self, path: np.ndarray, norm_sq: np.ndarray) -> None:
        """Fold max | |r|^2 - 1 | over a (steps, width, 3) path into ``drift``.

        Clobbers path, and norm_sq, a (steps, width) scratch array.
        """
        np.multiply(path, path, out=path)
        np.add(path[..., 0], path[..., 1], out=norm_sq)
        np.add(norm_sq, path[..., 2], out=norm_sq)
        # max |v - 1| is max(max v - 1, 1 - min v): rounding is monotone
        self.drift = max(self.drift, float(norm_sq.max()) - 1.0, 1.0 - float(norm_sq.min()))


def _kick_slabs(streams: Sequence, n: int, n_steps: int) -> Iterator[np.ndarray]:
    """Kick bytes of every step in step-major (steps, n) uint8 slabs: row j is one step.

    Stream j feeds columns 64 j .. min(64 j + 64, n) - 1, the layout of a
    block's groups; per slab of at most _SLAB_STEPS steps it hands over
    steps * width bytes, row-major, through ``indices(count)``.  The slabs
    share one buffer: a slab is valid until the next one is drawn.
    """
    cols = range(0, n, _GROUP_WIDTH)
    slab = np.empty((min(_SLAB_STEPS, n_steps), n), np.uint8)
    for k in range(0, n_steps, _SLAB_STEPS):
        draws = slab[: min(_SLAB_STEPS, n_steps - k)]
        for stream, col in zip(streams, cols, strict=True):
            group = draws[:, col : col + _GROUP_WIDTH]
            group[...] = stream.indices(group.size).reshape(group.shape)
        yield draws


def _turn(view: np.ndarray, factor, scratch: Optional[np.ndarray]) -> None:
    """view <- factor * view on a flat view: a complex scalar, or a member's kick row.

    Views of two or more elements are multiplied in place.  A one-element
    view (one trajectory per member) goes through the contiguous one-element
    ``scratch`` and is copied back: numpy's in-place multiply on a
    one-element strided view takes a plain loop, not the fused multiply-add
    loop of wider views, and would change the last bits, so a block of one
    trajectory would no longer equal its column of a wide block.
    """
    if len(view) > 1:
        np.multiply(view, factor, out=view)
    else:
        np.multiply(view, factor, out=scratch)
        view[...] = scratch


def _advance(
    params: ModelParams,
    dt: float,
    n_steps: int,
    streams: Sequence,
    block: _StateBlock,
    points: Optional[np.ndarray] = None,
) -> None:
    """March a block through n_steps Strang steps; stream j feeds columns 64 j.. of every member.

    One step is a tunneling rotation of (y, z) by delta*dt/2, a kick rotation
    of (x, y) by 2*kick*z, and another half rotation.  The kick value z is
    ``points[j]`` for a drawn byte j, by default the 256-point law.  A
    tunneling rotation is one ``_turn`` of the block's flat y + iz, a kick
    rotation one of each member's flat x + iy by that step's (n,) row of a
    bulk table of _TRIG_STEPS steps, looked up from the factors
    e^{2i kick z_j}; one-element views go through the block's scratch, so
    that a block of one trajectory keeps the bits of its column in a wide
    block.  The closing half of a step and the opening half of the next
    merge into one full rotation; the halves stay apart only around a stop
    (record, pulse, last step).  The state after every step is kept for a
    bulk norm check at the end of the table.
    """
    block.at_boundary(0)
    if n_steps == 0:
        return
    n = block.n
    half, full = 0.5 * params.delta * dt, params.delta * dt
    f_half, f_full = cmath.rect(1.0, half), cmath.rect(1.0, full)
    kick = math.sqrt(0.5 * params.gamma * dt)
    factors = np.exp(2j * kick * (_kick_points() if points is None else points))

    u, members, scratch = block.u, block.members, block.scratch
    rows = min(_TRIG_STEPS, n_steps)
    kicks = np.empty((rows, n), complex)
    path = np.empty((rows,) + block.s.shape)  # the state after each step of the table
    norm_sq = np.empty((rows, len(block.s)))
    stops = iter(block.stops(n_steps))
    stop = next(stops)
    whole = True  # the state sits on a step boundary: open with a half rotation

    k = 0
    for draws in _kick_slabs(streams, n, n_steps):
        for lo in range(0, len(draws), rows):
            m = min(rows, len(draws) - lo)
            # every byte drawn indexes a factor (``step`` draws only byte 0), and
            # "wrap" skips the buffered copy that the default "raise" makes
            np.take(factors, draws[lo : lo + m], out=kicks[:m], mode="wrap")
            for j in range(m):
                if whole:
                    _turn(u, f_half, scratch)
                for member in members:
                    _turn(member, kicks[j], scratch)
                k += 1
                whole = k == stop
                if whole:
                    _turn(u, f_half, scratch)
                    block.at_boundary(k)
                    stop = next(stops, -1)
                else:
                    _turn(u, f_full, scratch)
                path[j] = block.s
            block.norm_drift(path[:m], norm_sq[:m])


def _check_drift(drift: float, n_steps: int) -> float:
    budget = _DRIFT_BUDGET_PER_STEP * max(n_steps, 1)
    if drift >= budget:
        raise NormDriftError(f"norm drift {drift} exceeds budget {budget} ({n_steps} steps)")
    return drift


class _FirstPoint:
    """A stream of one trajectory that draws byte 0 at every step, for a kick table of one value."""

    def indices(self, count: int) -> np.ndarray:
        return np.zeros(count, np.uint8)


def step(state: SpinState, params: ModelParams, dt: float, gauss: float) -> SpinState:
    """One Strang-split step by the block kernel with the given kick value: half rotation, kick, half rotation."""
    _check_real("dt", dt, 0, strict=True)
    block = _StateBlock(1, [state], np.empty(0, dtype=int))
    _advance(params, dt, 1, [_FirstPoint()], block, np.array([float(gauss)]))
    return _spin_state(block.s[0])


def run_trajectory(
    cfg: SimConfig,
    stream: NoiseStream,
    initial: SpinState,
    pulse: Optional[PulseSpec] = None,
) -> TrajectoryResult:
    """Evolve one noise realization, recording P_left on the grid."""
    boundary = cfg.boundary(pulse.t0) if pulse else -1
    block = _StateBlock(1, [initial], cfg.record_steps(), pulse, boundary)
    _advance(cfg.params, cfg.dt, cfg.n_steps, [stream], block)
    drift = _check_drift(block.drift, cfg.n_steps)
    return TrajectoryResult(
        final_state=_spin_state(block.s[0]),
        times=cfg.record_times(),
        p_left_series=block.sums[0],
        final_p_left=float(block.p_left()[0]),
        norm_drift=drift,
    )


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, else REPLICA_LAB_THREADS, else 1.

    0, as argument or variable, means one worker per usable CPU: the CPUs in
    this process's affinity set (under ``taskset -c 0``, one), not every CPU
    of the machine.
    """
    if workers is None:
        env = os.environ.get("REPLICA_LAB_THREADS", "").strip()
        if not env:
            return 1
        if not env.isdecimal():
            raise ValueError(
                "REPLICA_LAB_THREADS must be a whole number >= 0 "
                f"(0 = one worker per usable CPU), got {env!r}"
            )
        workers = int(env)
    _check_int("worker count", workers, 0)
    if workers:
        return workers
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_task(args) -> tuple[np.ndarray, np.ndarray, float]:
    """Trajectories lo..hi-1 of every member against their shared noise streams.

    Returns the block's record sums as a (7, records) array, the final P_left
    as a (members, hi - lo) array, and the block's norm drift.
    """
    cfg, lo, hi, initials, record_steps, pulse, pulse_boundary = args
    streams = [
        NoiseStream(cfg.seed, i, width=min(i + _GROUP_WIDTH, hi) - i)
        for i in range(lo, hi, _GROUP_WIDTH)
    ]
    block = _StateBlock(hi - lo, initials, record_steps, pulse, pulse_boundary)
    _advance(cfg.params, cfg.dt, cfg.n_steps, streams, block)
    return block.sums, block.p_left().reshape(len(initials), hi - lo), block.drift


def _map_blocks(worker, tasks, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    # forked workers inherit numpy.random rather than each loading it for its first block
    import numpy.random  # noqa: F401
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(worker, tasks))


def _run_blocks(
    cfg: SimConfig,
    initials: Sequence[SpinState],
    record_steps: np.ndarray,
    pulse: Optional[PulseSpec],
    workers: Optional[int],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Run every block of cfg.n_trajectories and merge the blocks in block order.

    The pulse boundary is resolved before any block runs.  Returns the record
    sums, the finals as a (members, n_trajectories) array and the checked
    norm drift; the merge order makes them bit-identical for any worker count.
    """
    n = cfg.n_trajectories
    boundary = cfg.boundary(pulse.t0) if pulse else -1
    tasks = [
        (cfg, lo, min(lo + BLOCK_TRAJECTORIES, n), initials, record_steps, pulse, boundary)
        for lo in range(0, n, BLOCK_TRAJECTORIES)
    ]
    results = _map_blocks(_block_task, tasks, resolve_workers(workers))
    sums = sum(block_sums for block_sums, _, _ in results)
    finals = np.concatenate([block_finals for _, block_finals, _ in results], axis=1)
    drift = _check_drift(max(block_drift for _, _, block_drift in results), cfg.n_steps)
    return sums, finals, drift


def _sums_mean_se(
    total: np.ndarray, total_sq: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of n samples from their sum and sum of squares."""
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

    Trajectory i always consumes the draws of NoiseStream(seed, i); partial sums are
    combined in fixed block order, so the result is bit-identical for any
    worker count.
    """
    n = cfg.n_trajectories
    sums, finals, drift = _run_blocks(cfg, [initial], cfg.record_steps(), pulse, workers)
    p, re, im, p_sq, re_sq, im_sq, p_4 = sums
    mean_p, se_p = _sums_mean_se(p, p_sq, n)
    mean_p_sq, se_p_sq = _sums_mean_se(p_sq, p_4, n)
    _, se_re = _sums_mean_se(re, re_sq, n)
    _, se_im = _sums_mean_se(im, im_sq, n)
    coh = re.astype(complex)
    coh.imag = im

    return EnsembleResult(
        params=cfg.params,
        n_trajectories=n,
        times=cfg.record_times(),
        mean_p_left=mean_p,
        se_p_left=se_p,
        mean_p_left_sq=mean_p_sq,
        se_p_left_sq=se_p_sq,
        mean_offdiag=coh / n,
        se_offdiag_re=se_re,
        se_offdiag_im=se_im,
        final_p_left=finals[0],
        max_norm_drift=drift,
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
    _, (final_a, final_b), drift = _run_blocks(
        cfg, [initial_a, initial_b], np.empty(0, dtype=int), pulse_on_b, workers
    )
    diff = final_a - final_b
    mean_sq, se_sq = mean_se(diff**2)
    return PairedEnsembleResult(
        params=cfg.params,
        n_trajectories=cfg.n_trajectories,
        final_p_a=final_a,
        final_p_b=final_b,
        diff_final=diff,
        mean_sq_diff=mean_sq,
        se_sq_diff=se_sq,
        max_norm_drift=drift,
    )
