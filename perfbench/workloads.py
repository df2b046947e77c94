"""The benchmark's three workloads, their inputs, and the oracle checks on their outputs.

Every call into replica_lab goes through a module attribute
(``simulate.run_ensemble``, ``replica.infinite_time_moment``, ...), so the
traced run sees it once ``tracing.Tracer`` has replaced that attribute.

A workload issues its calls as a closed loop with one client: each call starts
after the previous one returned.  ``round`` does a fixed amount of work and
returns one ``Op`` per request.  Oracle checks run after the timed phase: each
``Op`` may carry a ``check`` closure that returns ``(label, ok, deviation)``
triples.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from replica_lab import cli, model, replica, simulate, stats
from replica_lab.model import ModelParams, SpinState, WellLabel

LEFT, RIGHT = WellLabel.LEFT, WellLabel.RIGHT
LEFT_STATE = SpinState.localized(LEFT)

Z_MAX = 6.0  # Monte Carlo means must sit within this many standard errors of the oracle
MOMENT_TOL = 1e-7  # the CLI's tolerance for stationary moments
CLOSED_FORM_TOL = 1e-8  # the CLI's tolerance for replica vs closed form
SUM_RULE_TOL = 1e-10  # exact identities between replica moments
KS_P_MIN = 1e-6

# gamma/delta points of the replica workload (delta = 1): generic, critical
# (defective transient block), strong noise, weak noise.
REPLICA_POINTS = {"gd1": 1.0, "gd2": 2.0, "gd20": 20.0, "gd0.05": 0.05}


def subseed(seed: int, *keys: int) -> int:
    """A 63-bit seed for one input, derived from the benchmark seed."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


@dataclass
class Op:
    """One call made by the benchmark client, with its latency and oracle verdicts."""

    name: str
    latency: float
    value: object = None
    error: str = ""
    tags: dict = field(default_factory=dict)
    check: Optional[Callable[[], list]] = None
    verdicts: list = field(default_factory=list)

    def run_check(self) -> None:
        if self.error or self.check is None:
            return
        try:
            self.verdicts = self.check()
        except Exception as exc:  # a crashing check is a failed call, not a harness crash
            self.verdicts = [("check raised", False, f"{type(exc).__name__}: {exc}")]

    @property
    def failed(self) -> bool:
        return bool(self.error) or any(not ok for _, ok, _ in self.verdicts)

    def failure(self) -> str:
        if self.error:
            return self.error
        return "; ".join(f"{label} ({dev})" for label, ok, dev in self.verdicts if not ok)


def call(ops: list, name: str, func: Callable, *args, tags: Optional[dict] = None, **kwargs) -> Op:
    """Time one call; an exception makes the call failed instead of stopping the run."""
    start = time.perf_counter()
    try:
        value, error = func(*args, **kwargs), ""
    except Exception as exc:
        value, error = None, f"{type(exc).__name__}: {exc}"
    op = Op(name, time.perf_counter() - start, value, error, tags or {})
    ops.append(op)
    return op


def within(label: str, value: float, reference: float, tol: float) -> tuple:
    dev = abs(value - reference)
    return (label, bool(dev <= tol), dev)


def known_defect(op: Op) -> str:
    """Why a failed call is a defect already recorded for the parent commit, or ''.

    Such a call is still checked and printed as a known defect and counted in
    ``ops_failed_frac``; it stays out of the result's ``failed`` (and leaves
    ``correct`` true), and only for the narrow failure described.
    """
    if op.name == "cli.main pulse" and op.tags.get("t0") == 0.0 and not op.error:
        value = op.tags.get("mean_sq_diff")
        if value is not None and 0.0 < value < 1e-20:
            return "zero-phase pulse leaves a rounding residue instead of an exact 0 (ROADMAP item 0)"
    if (
        op.name == "replica.mixed_initial_moment"
        and op.tags.get("point") == "gd2"
        and op.tags.get("t") is None
        and (op.error.startswith("ArithmeticError") or not op.error)
    ):
        return "stationary mixed moments use the dense eig projector, ill-conditioned at gamma = 2 delta"
    return ""


# -- oracles -------------------------------------------------------------


def _bloch(state: SpinState) -> np.ndarray:
    a, b = complex(state.amp_left), complex(state.amp_right)
    coh = a.conjugate() * b
    return np.array([2.0 * coh.real, 2.0 * coh.imag, abs(a) ** 2 - abs(b) ** 2])


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2)) if k > 0 else 1


def haar_moment(replicas) -> float:
    """Stationary <prod_k P(state_k -> well_k)> when the final state is uniform on the Bloch sphere.

    P(state -> L) = (1 + n.r)/2 with r the state's Bloch vector and n uniform
    on the unit sphere; E[n_x^i n_y^j n_z^k] = (i-1)!!(j-1)!!(k-1)!!/(i+j+k+1)!!
    for even powers and 0 otherwise.  At order 2 this is the sense law
    |ab' - a'b|^2 / 3.
    """
    poly = {(0, 0, 0): 1.0}
    for state, well in replicas:
        r = _bloch(state) * (1.0 if well is LEFT else -1.0)
        grown: dict = {}
        for powers, coef in poly.items():
            grown[powers] = grown.get(powers, 0.0) + 0.5 * coef
            for axis in range(3):
                bumped = tuple(p + (axis == i) for i, p in enumerate(powers))
                grown[bumped] = grown.get(bumped, 0.0) + 0.5 * coef * r[axis]
        poly = grown
    total = 0.0
    for powers, coef in poly.items():
        if all(p % 2 == 0 for p in powers):
            num = math.prod(_double_factorial(p - 1) for p in powers)
            total += coef * num / _double_factorial(sum(powers) + 1)
    return total


def _random_state(rng: np.random.Generator) -> SpinState:
    z = rng.normal(size=4)
    return SpinState.normalized(complex(z[0], z[1]), complex(z[2], z[3]))


def result_digest(result) -> str:
    """sha256 over every field of an ensemble result, arrays byte for byte."""
    digest = hashlib.sha256()
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        digest.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return digest.hexdigest()


def reproducibility_ops(seed: int) -> list:
    """Small runs at workers=1 and 2, each twice at one seed; all digests must match."""
    ops: list = []
    cfg = simulate.SimConfig(
        params=ModelParams(delta=1.0, gamma=1.0),
        dt=0.01,
        t_final=2.0,
        seed=subseed(seed, 99),
        n_trajectories=2100,  # two whole blocks and a partial one
    )
    pulse = simulate.PulseSpec(delta_phi=math.pi / 2, t0=0.5)
    runs = {
        "repro.run_ensemble": lambda w: simulate.run_ensemble(cfg, LEFT_STATE, workers=w),
        "repro.run_paired_ensemble": lambda w: simulate.run_paired_ensemble(
            cfg, LEFT_STATE, LEFT_STATE, pulse_on_b=pulse, workers=w
        ),
    }
    for name, run in runs.items():
        op = call(ops, name, lambda run=run: [result_digest(run(w)) for w in (1, 2, 1, 2)])
        op.check = lambda op=op: [
            ("sha256 equal across workers 1, 2 and reruns", len(set(op.value)) == 1, op.value)
        ]
    return ops


# -- workloads -----------------------------------------------------------


class Workload:
    name = ""
    workers = 1  # pool workers per call
    uses_simulate = False

    def __init__(self, seed: int, work_dir: Path, smoke: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        return str(self.work_dir / f"{label}-{self._dirs}")

    def first_calls(self) -> None:
        """The first call into each entry point the workload uses, at tiny sizes."""
        raise NotImplementedError

    def round(self, index: int) -> list:
        raise NotImplementedError

    def extra_ops(self) -> list:
        """Calls made once, outside the timed phase."""
        return reproducibility_ops(self.seed) if self.uses_simulate else []


def _stats_analysis(values: np.ndarray) -> dict:
    samples = stats.SampleSet(values)
    return {
        "moments": stats.moments(samples, max_order=6),
        "cross": [stats.cross_moment(samples, 1, 1), stats.cross_moment(samples, 2, 1)],
        "histogram": stats.histogram(samples, bins=50),
        "ks": stats.ks_uniform(samples),
        "n": samples.size,
    }


def _check_stats(analysis: dict) -> list:
    out = [
        (f"moment z {r.order}", abs(r.z_score) <= Z_MAX, r.z_score)
        for r in analysis["moments"] + analysis["cross"]
    ]
    counts = int(analysis["histogram"].counts.sum())
    out.append(("histogram counts", counts == analysis["n"], counts))
    out.append(("KS p-value", analysis["ks"][1] >= KS_P_MIN, analysis["ks"][1]))
    return out


class EnsembleWorkload(Workload):
    """Criterion-7 shape: gamma = delta = 1, dt = 1e-3, t_final = 20, 21 records, serial."""

    name = "ensemble"
    uses_simulate = True
    REQUESTS_PER_ROUND = 2

    def _config(self, seed: int, dt: float, t_final: float) -> simulate.SimConfig:
        return simulate.SimConfig(
            params=ModelParams(delta=1.0, gamma=1.0),
            dt=dt,
            t_final=t_final,
            seed=seed,
            n_trajectories=simulate.BLOCK_TRAJECTORIES,
        )

    def _request(self, cfg: simulate.SimConfig) -> tuple:
        result = simulate.run_ensemble(cfg, LEFT_STATE, workers=1)
        return result, _stats_analysis(result.final_p_left)

    def first_calls(self) -> None:
        self._request(self._config(subseed(self.seed, 7), 1e-3, 0.1))

    def round(self, index: int) -> list:
        ops: list = []
        dt = 1e-2 if self.smoke else 1e-3  # the stability cap, for a short stationary run
        for j in range(self.REQUESTS_PER_ROUND):
            cfg = self._config(subseed(self.seed, index, j), dt, 20.0)
            op = call(ops, "ensemble.request", self._request, cfg)
            op.check = lambda op=op: self._check(op.value)
        return ops

    @staticmethod
    def _check(value) -> list:
        result, analysis = value
        out = []
        for i, t in enumerate(result.times):
            t = float(t)
            closed = model.closed_form_p_ll(result.params, t)
            offdiag = model.closed_form_offdiag(result.params, t)
            out.append(within(f"mean_p_left t={t:g}", result.mean_p_left[i], closed,
                              Z_MAX * result.se_p_left[i] + 1e-12))
            out.append(within(f"re offdiag t={t:g}", result.mean_offdiag[i].real, offdiag.real,
                              Z_MAX * result.se_offdiag_re[i] + 1e-12))
            out.append(within(f"im offdiag t={t:g}", result.mean_offdiag[i].imag, offdiag.imag,
                              Z_MAX * result.se_offdiag_im[i] + 1e-12))
        return out + _check_stats(analysis)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _check_manifest(out: Path) -> list:
    manifest = _read_json(out / "manifest.json")
    verdicts = []
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        verdicts.append((f"manifest sha256 {name}", actual == digest, actual[:12]))
    return verdicts


def run_cli(argv: list) -> tuple:
    """cli.main with its console output captured; returns (exit code, output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, sink.getvalue()


def run_cli_ok(argv: list) -> None:
    code, console = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"replica-lab {argv[0]} exited {code}: {console.strip()[-200:]}")


def bytes_written(out_dir: str) -> int:
    path = Path(out_dir)
    return sum(p.stat().st_size for p in path.iterdir()) if path.is_dir() else 0


def check_cli(op: Op) -> list:
    code, console = op.value
    verdicts = [("exit code", code == 0, console.strip()[-200:])]
    if code != 0:
        return verdicts
    out = Path(op.tags["out_dir"])
    verdicts += _check_manifest(out)
    command = op.tags["command"]
    if command == "decay":
        with open(out / "decay.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                closed, mc, se = (float(row[k]) for k in ("p_ll_closed_form", "p_ll_mc_mean", "p_ll_mc_se"))
                verdicts.append(within(f"decay mc t={row['t']}", mc, closed, Z_MAX * se + 1e-12))
                verdicts.append(within(f"decay replica t={row['t']}", float(row["p_ll_replica"]),
                                       closed, CLOSED_FORM_TOL))
    elif command == "dist":
        report = _read_json(out / "dist.json")
        verdicts += [(f"dist moment z {m['order']}", abs(m["z_score"]) <= Z_MAX, m["z_score"])
                     for m in report["moments"] + report["cross_moments"]]
        verdicts.append(("dist KS p-value", report["ks"]["p_value"] >= KS_P_MIN, report["ks"]["p_value"]))
    elif command == "sense":
        z = _read_json(out / "sense.json")["z_score"]
        verdicts.append(("sense z-score", abs(z) <= Z_MAX, z))
    elif command == "pulse":
        report = _read_json(out / "pulse.json")
        op.tags["mean_sq_diff"] = report["mean_sq_diff"]
        if op.tags["t0"] == 0.0:
            # a pulse on a localized state is a global phase: the difference is exactly 0
            verdicts.append(("pulse exact zero", report["mean_sq_diff"] == 0.0, report["mean_sq_diff"]))
        else:
            verdicts.append(("pulse z-score", abs(report["z_score"]) <= Z_MAX, report["z_score"]))
    return verdicts


class CliParallelWorkload(Workload):
    """The CLI commands at their defaults, each ensemble on a 2-process pool."""

    name = "cli_parallel"
    workers = 2
    uses_simulate = True
    PULSE_T0 = 2.0

    def _commands(self) -> list:
        return [["decay"], ["dist"], ["sense"], ["pulse"], ["pulse", "--t0", str(self.PULSE_T0)]]

    def first_calls(self) -> None:
        for argv in self._commands()[:4]:
            out_dir = self.fresh_dir(argv[0])
            run_cli_ok(argv + ["--seed", str(subseed(self.seed, 7)), "--out-dir", out_dir,
                               "--trajectories", "2048", "--t-final", "0.5"])

    def round(self, index: int) -> list:
        ops: list = []
        extra = ["--trajectories", "2048"] if self.smoke else []
        for k, argv in enumerate(self._commands()):
            out_dir = self.fresh_dir(argv[0])
            full = argv + ["--seed", str(subseed(self.seed, index, k)), "--out-dir", out_dir] + extra
            t0 = float(argv[2]) if len(argv) > 2 else 0.0
            op = call(ops, f"cli.main {argv[0]}", run_cli, full,
                      tags={"command": argv[0], "out_dir": out_dir, "t0": t0})
            op.check = lambda op=op: check_cli(op)
        return ops


class ReplicaMomentsWorkload(Workload):
    """Moment table over four gamma/delta points; replica does the work, simulate none."""

    name = "replica_moments"

    def first_calls(self) -> None:
        params = ModelParams(delta=1.0, gamma=2.0)
        run_cli_ok(["moments", "--max-order", "6", "--out-dir", self.fresh_dir("moments")])
        replica.finite_time_moment(replica.MomentSpec(LEFT_STATE, 1, 1), params, 0.5)
        state = _random_state(np.random.default_rng(subseed(self.seed, 7)))
        replica.mixed_initial_moment([(state, LEFT), (LEFT_STATE, LEFT)], params)
        replica.moment_decay_rates(replica.MomentSpec(LEFT_STATE, 1, 0), params)

    def round(self, index: int) -> list:
        ops: list = []
        rng = np.random.default_rng(subseed(self.seed, index))
        max_inf, max_fin = (3, 2) if self.smoke else (6, 4)
        for point, ratio in REPLICA_POINTS.items():
            params = ModelParams(delta=1.0, gamma=ratio)
            tau = max(model.relaxation_times(params))
            t = tau * float(rng.uniform(0.5, 1.0))
            state_a, state_b = _random_state(rng), _random_state(rng)
            self._table(ops, point, params, t, max_inf, max_fin)
            self._sense(ops, point, params, t, state_a, state_b, smoke=self.smoke)
            for n in range(1, 4):
                op = call(ops, "replica.moment_decay_rates", replica.moment_decay_rates,
                          replica.MomentSpec(LEFT_STATE, n, 0), params, tags={"point": point})
                op.check = lambda op=op, n=n, params=params: self._check_rates(op.value, n, params)
        if not self.smoke:
            params = ModelParams(delta=1.0, gamma=1.0)
            replicas = [(state_a, LEFT)] * 3 + [(state_b, LEFT)] * 2
            self._stationary_mixed(ops, "gd1", params, replicas)
            argv = ["moments", "--max-order", "6", "--out-dir", self.fresh_dir("moments")]
            op = call(ops, "cli.main moments", run_cli, argv,
                      tags={"command": "moments", "out_dir": argv[-1], "point": "gd1"})
            op.check = lambda op=op: check_cli(op)
        return ops

    @staticmethod
    def _table(ops, point, params, t, max_inf, max_fin) -> None:
        for order in range(1, max_inf + 1):
            for n in range(order + 1):
                spec = replica.MomentSpec(LEFT_STATE, n, order - n)
                op = call(ops, "replica.infinite_time_moment", replica.infinite_time_moment,
                          spec, params, tags={"point": point})
                reference = float(model.beta_cross_moment(n, order - n))
                op.check = lambda op=op, ref=reference, n=n, m=order - n: [
                    within(f"stationary <P_L^{n} P_R^{m}> vs beta", op.value, ref, MOMENT_TOL)
                ]
        for order in range(1, max_fin + 1):
            group = [
                call(ops, "replica.finite_time_moment", replica.finite_time_moment,
                     replica.MomentSpec(LEFT_STATE, n, order - n), params, t, tags={"point": point})
                for n in range(order + 1)
            ]

            def sum_rule(group=group, order=order) -> list:
                total = sum(math.comb(order, n) * op.value for n, op in enumerate(group))
                verdicts = [within(f"finite sum rule n={order} t={t:g}", total, 1.0, SUM_RULE_TOL)]
                if order == 1:
                    closed = model.closed_form_p_ll(params, t)
                    verdicts.append(within("finite <P_R> vs closed form", group[0].value,
                                           1.0 - closed, CLOSED_FORM_TOL))
                return verdicts

            if not any(op.error for op in group):
                group[-1].check = sum_rule

    @staticmethod
    def _stationary_mixed(ops, point, params, replicas) -> Op:
        op = call(ops, "replica.mixed_initial_moment", replica.mixed_initial_moment,
                  replicas, params, tags={"point": point, "t": None})
        op.check = lambda op=op: [
            within(f"stationary mixed order {len(replicas)} vs Haar", op.value,
                   haar_moment(replicas), MOMENT_TOL)
        ]
        return op

    def _sense(self, ops, point, params, t, a, b, smoke) -> None:
        # stationary sense correlators <P_A^2>, <P_B^2>, <P_A P_B>, then order 4
        pa2, pb2, pab = (
            self._stationary_mixed(ops, point, params, reps)
            for reps in ([(a, LEFT), (a, LEFT)], [(b, LEFT), (b, LEFT)], [(a, LEFT), (b, LEFT)])
        )
        amp = complex(a.amp_left) * complex(b.amp_right) - complex(b.amp_left) * complex(a.amp_right)
        law = abs(amp) ** 2 / 3.0
        if not (pa2.error or pb2.error or pab.error):
            haar_check = pab.check
            pab.check = lambda: haar_check() + [
                within("sense law <P_A^2>+<P_B^2>-2<P_A P_B>",
                       pa2.value + pb2.value - 2.0 * pab.value, law, MOMENT_TOL)
            ]
        if not smoke:
            for k in range(5):
                self._stationary_mixed(ops, point, params, [(a, LEFT)] * k + [(b, LEFT)] * (4 - k))
        # finite time: the marginal rule <X P_B(L)> + <X P_B(R)> = <X> at orders 2 and 4
        for head in ([(a, LEFT)], [(a, LEFT), (a, LEFT), (b, LEFT)])[: 1 if smoke else 2]:
            group = [
                call(ops, "replica.mixed_initial_moment", replica.mixed_initial_moment,
                     reps, params, t, tags={"point": point, "t": t})
                for reps in (head + [(b, LEFT)], head + [(b, RIGHT)], head)
            ]
            if not any(op.error for op in group):
                group[-1].check = lambda group=group, order=len(head) + 1: [
                    within(f"finite marginal rule order {order}",
                           group[0].value + group[1].value, group[2].value, SUM_RULE_TOL)
                ]

    @staticmethod
    def _check_rates(rates: np.ndarray, n: int, params: ModelParams) -> list:
        ok = bool(len(rates)) and bool(np.all(np.isfinite(rates)) and np.all(rates > 0))
        verdicts = [(f"decay rates n={n} finite and positive", ok, rates[:4].tolist())]
        if n == 1:
            # <P_L> relaxes with exponents (gamma -/+ sqrt(gamma^2 - 4 delta^2)) / 2
            root = complex(params.gamma**2 - 4.0 * params.delta**2) ** 0.5
            closed = np.array([((params.gamma - root) / 2).real, ((params.gamma + root) / 2).real])
            dev = max(float(np.min(np.abs(closed - r))) for r in rates) if len(rates) else math.inf
            verdicts.append(("decay rates n=1 vs closed form", dev <= 1e-6 * params.gamma + 1e-9, dev))
        return verdicts


WORKLOADS = {w.name: w for w in (EnsembleWorkload, CliParallelWorkload, ReplicaMomentsWorkload)}
