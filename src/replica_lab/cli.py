"""Command-line front end: configure an experiment, run both engines, emit artifacts.

Commands
  decay    time grid of the survival probability: closed form, replica engine,
           coherence, and Monte Carlo mean with standard errors (CSV)
  moments  stationary replica moments vs exact references, plus the
           initial/final permutation-symmetry defects (JSON)
  dist     stationary ensemble: histogram CSV plus moment/KS report (JSON)
  sense    paired common-noise runs for two initial states vs the
           |a b' - a' b|^2 / 3 sensitivity law (JSON)
  pulse    paired runs with a relative-phase pulse on one member vs the
           replica-engine prediction (JSON)

Flag values override config-file entries (flat ``key = value`` lines mirroring
flag names), which override defaults.  Every run writes a manifest.json with
the resolved configuration and sha256 digests of all emitted files; data files
carry no timestamps, so re-running a manifest's configuration reproduces them
byte for byte.  Output directories are never overwritten.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .model import (
    MAX_MOMENT_ORDER,
    ModelParams,
    SpinState,
    WellLabel,
    closed_form_offdiag,
    closed_form_p_ll,
    beta_cross_moment,
    stationary_time,
)
from .replica import (
    MomentSpec,
    finite_time_moment,
    infinite_time_moment,
    permutation_symmetry_defect,
)
from .simulate import PulseSpec, SimConfig, run_ensemble, run_paired_ensemble
from .stats import SampleSet, cross_moment, histogram, ks_uniform, moments

_DECAY_GRID_POINTS = 201
_REPLICA_VS_CLOSED_TOL = 1e-8
_MOMENT_DEVIATION_TOL = 1e-7
_SYMMETRY_DEFECT_TOL = 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration of one CLI invocation."""

    experiment: str
    gamma: float
    delta: float
    dt: float
    t_final: float
    trajectories: int
    seed: int
    out_dir: str
    bins: int = 50
    max_order: int = 4
    phi: float = math.pi / 2
    t0: float = 0.0
    state_a: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)
    state_b: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    @property
    def params(self) -> ModelParams:
        return ModelParams(delta=self.delta, gamma=self.gamma)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "gamma": self.gamma,
            "delta": self.delta,
            "dt": self.dt,
            "t-final": self.t_final,
            "trajectories": self.trajectories,
            "seed": self.seed,
            "out-dir": self.out_dir,
            "bins": self.bins,
            "max-order": self.max_order,
            "phi": self.phi,
            "t0": self.t0,
            "state-a": ",".join(format(x, ".17g") for x in self.state_a),
            "state-b": ",".join(format(x, ".17g") for x in self.state_b),
        }


@dataclass
class RunManifest:
    tool_version: str
    command: str
    config: dict
    seed: int
    started_utc: str
    finished_utc: str
    outputs: dict


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for 64-bit floats."""
    return format(float(x), ".17g")


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


class CliError(Exception):
    pass


def _load_config_file(path: str, known_keys: set[str]) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known_keys:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value
    return entries


def _parse_state(text: str) -> tuple[float, float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise CliError(f"state must be 'a_re,a_im,b_re,b_im', got {text!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _state_from(values: tuple[float, float, float, float]) -> SpinState:
    state = complex(values[0], values[1]), complex(values[2], values[3])
    norm_sq = abs(state[0]) ** 2 + abs(state[1]) ** 2
    if abs(norm_sq - 1.0) > 1e-9:
        raise CliError(f"state not normalized within 1e-9: |a|^2+|b|^2 = {norm_sq}")
    return SpinState.normalized(state[0], state[1])


_KEY_PARSERS = {
    "gamma": float,
    "delta": float,
    "dt": float,
    "t-final": float,
    "trajectories": int,
    "seed": int,
    "out-dir": str,
    "bins": int,
    "max-order": int,
    "phi": float,
    "t0": float,
    "state-a": _parse_state,
    "state-b": _parse_state,
}

_SYMMETRIC = 1.0 / math.sqrt(2.0)
_DEFAULTS = {
    "gamma": 1.0,
    "delta": 1.0,
    "dt": None,  # resolved to the stability cap 0.01*min(1/gamma, 1/delta)
    "t-final": None,  # resolved to the stationary horizon
    "trajectories": 10000,
    "seed": 20260810,
    "out-dir": None,  # must be given
    "bins": 50,
    "max-order": 4,
    "phi": math.pi / 2,
    "t0": 0.0,
    "state-a": (_SYMMETRIC, 0.0, _SYMMETRIC, 0.0),
    "state-b": (_SYMMETRIC, 0.0, -_SYMMETRIC, 0.0),
}


def _resolve_config(args: argparse.Namespace, command: str) -> ExperimentConfig:
    file_entries: dict[str, str] = {}
    if args.config:
        file_entries = _load_config_file(args.config, set(_KEY_PARSERS))
    defaults = dict(_DEFAULTS)
    if command == "pulse":
        defaults["state-a"] = (1.0, 0.0, 0.0, 0.0)  # start localized left

    def pick(key: str):
        flag_value = getattr(args, key.replace("-", "_"), None)
        if flag_value is not None:
            return _KEY_PARSERS[key](flag_value) if isinstance(flag_value, str) else flag_value
        if key in file_entries:
            return _KEY_PARSERS[key](file_entries[key])
        return defaults[key]

    gamma, delta = pick("gamma"), pick("delta")
    params = ModelParams(delta=delta, gamma=gamma)
    dt = pick("dt")
    if dt is None:
        if gamma <= 0 and delta <= 0:
            raise CliError("dt must be given when gamma = delta = 0")
        positive = [1.0 / r for r in (gamma, delta) if r > 0]
        dt = 0.01 * min(positive)
    t_final = pick("t-final")
    t0 = pick("t0")
    if t_final is None:
        if gamma <= 0 or delta <= 0:
            raise CliError("t-final must be given when gamma or delta is 0")
        t_final = stationary_time(params)
        if command == "pulse":
            t_final += t0
    out_dir = pick("out-dir")
    if out_dir is None:
        raise CliError("--out-dir is required (flag or config file)")
    cfg = ExperimentConfig(
        experiment=command,
        gamma=gamma,
        delta=delta,
        dt=dt,
        t_final=t_final,
        trajectories=pick("trajectories"),
        seed=pick("seed"),
        out_dir=str(out_dir),
        bins=pick("bins"),
        max_order=pick("max-order"),
        phi=pick("phi"),
        t0=t0,
        state_a=pick("state-a"),
        state_b=pick("state-b"),
    )
    _check_inputs(cfg)
    return cfg


def _check_inputs(cfg: ExperimentConfig) -> None:
    """Reject invalid inputs before a command creates its output directory."""
    if cfg.experiment == "moments":
        if not 1 <= cfg.max_order <= MAX_MOMENT_ORDER:
            raise CliError(f"max-order must be in 1..{MAX_MOMENT_ORDER}")
        return
    _sim_config(cfg)  # SimConfig checks dt, t-final, trajectories and seed
    if cfg.experiment == "dist":
        if cfg.bins < 2:
            raise CliError("bins must be >= 2")
        if _dist_moment_order(cfg) < 1:
            raise CliError("max-order must be >= -1 (dist reports min(max-order + 2, 6) moments)")
    if cfg.experiment in ("sense", "pulse"):
        _state_from(cfg.state_a)
    if cfg.experiment == "sense":
        _state_from(cfg.state_b)
    if cfg.experiment == "pulse":
        PulseSpec(delta_phi=cfg.phi, t0=cfg.t0)


def _dist_moment_order(cfg: ExperimentConfig) -> int:
    return min(cfg.max_order + 2, 6)


def _prepare_out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    if out.exists() and any(out.iterdir()):
        raise CliError(f"output directory {out} exists and is not empty; refusing to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _finish(
    out: Path, cfg: ExperimentConfig, started: str, files: dict[str, bytes]
) -> None:
    digests = {}
    for name, data in files.items():
        path = out / name
        _write_atomic(path, data)
        digests[name] = _sha256(path)
    manifest = RunManifest(
        tool_version=__version__,
        command=cfg.experiment,
        config=cfg.to_dict(),
        seed=cfg.seed,
        started_utc=started,
        finished_utc=_utc_now(),
        outputs=digests,
    )
    _write_atomic(out / "manifest.json", _json_bytes(manifest.__dict__))


def _sim_config(cfg: ExperimentConfig, record_grid=None) -> SimConfig:
    return SimConfig(
        params=cfg.params,
        dt=cfg.dt,
        t_final=cfg.t_final,
        seed=cfg.seed,
        n_trajectories=cfg.trajectories,
        record_grid=tuple(record_grid) if record_grid is not None else None,
    )


def cmd_decay(cfg: ExperimentConfig) -> int:
    started = _utc_now()
    out = _prepare_out_dir(cfg)
    params = cfg.params
    grid = np.linspace(0.0, cfg.t_final, _DECAY_GRID_POINTS)
    ensemble = run_ensemble(_sim_config(cfg, record_grid=grid), SpinState.localized(WellLabel.LEFT))
    times = ensemble.times  # snapped to step boundaries

    spec = MomentSpec(SpinState.localized(WellLabel.LEFT), 1, 0)
    worst = 0.0
    rows = []
    for i, t in enumerate(times):
        closed = closed_form_p_ll(params, float(t))
        replica = finite_time_moment(spec, params, float(t))
        offdiag = closed_form_offdiag(params, float(t))
        worst = max(worst, abs(closed - replica))
        rows.append(
            (
                t,
                closed,
                replica,
                offdiag.real,
                offdiag.imag,
                ensemble.mean_p_left[i],
                ensemble.se_p_left[i],
            )
        )

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["t", "p_ll_closed_form", "p_ll_replica", "re_offdiag", "im_offdiag", "p_ll_mc_mean", "p_ll_mc_se"]
    )
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    _finish(out, cfg, started, {"decay.csv": buffer.getvalue().encode()})

    if worst > _REPLICA_VS_CLOSED_TOL:
        print(
            f"FAIL: replica vs closed-form deviation {worst:.3e} exceeds {_REPLICA_VS_CLOSED_TOL}",
            file=sys.stderr,
        )
        return 1
    print(f"decay: wrote {out / 'decay.csv'} (engines agree to {worst:.3e})")
    return 0


def cmd_moments(cfg: ExperimentConfig) -> int:
    started = _utc_now()
    out = _prepare_out_dir(cfg)
    params = cfg.params
    initial = SpinState.localized(WellLabel.LEFT)

    entries = []
    worst_dev = 0.0
    for n in range(1, cfg.max_order + 1):
        value = infinite_time_moment(MomentSpec(initial, n, 0), params)
        ref = float(beta_cross_moment(n, 0))
        entries.append({"n_left": n, "n_right": 0, "value": value, "reference": ref,
                        "abs_deviation": abs(value - ref)})
        worst_dev = max(worst_dev, abs(value - ref))
    for n in range(1, 4):
        for m in range(1, 4):
            if n + m > 4 or n + m > cfg.max_order + 1:
                continue
            value = infinite_time_moment(MomentSpec(initial, n, m), params)
            ref = float(beta_cross_moment(n, m))
            entries.append({"n_left": n, "n_right": m, "value": value, "reference": ref,
                            "abs_deviation": abs(value - ref)})
            worst_dev = max(worst_dev, abs(value - ref))

    defects = []
    worst_defect = 0.0
    for n, m in ((1, 1), (2, 0), (2, 1)):
        defect = permutation_symmetry_defect(n, m, params)
        defects.append({"n": n, "m": m, "defect": defect})
        worst_defect = max(worst_defect, defect)

    payload = {
        "params": {"gamma": cfg.gamma, "delta": cfg.delta},
        "moments": entries,
        "symmetry_defects": defects,
        "tolerances": {"moment": _MOMENT_DEVIATION_TOL, "defect": _SYMMETRY_DEFECT_TOL},
    }
    _finish(out, cfg, started, {"moments.json": _json_bytes(payload)})

    if worst_dev > _MOMENT_DEVIATION_TOL or worst_defect > _SYMMETRY_DEFECT_TOL:
        print(
            f"FAIL: deviation {worst_dev:.3e} (tol {_MOMENT_DEVIATION_TOL}) or "
            f"defect {worst_defect:.3e} (tol {_SYMMETRY_DEFECT_TOL})",
            file=sys.stderr,
        )
        return 1
    print(f"moments: wrote {out / 'moments.json'} (max deviation {worst_dev:.3e})")
    return 0


def cmd_dist(cfg: ExperimentConfig) -> int:
    started = _utc_now()
    out = _prepare_out_dir(cfg)
    sim_cfg = _sim_config(cfg, record_grid=(cfg.t_final,))
    ensemble = run_ensemble(sim_cfg, SpinState.localized(WellLabel.LEFT))
    samples = SampleSet(
        ensemble.final_p_left, provenance=f"seed={cfg.seed} dt={_fmt(cfg.dt)}"
    )
    hist = histogram(samples, bins=cfg.bins)
    stat, p_value = ks_uniform(samples)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["bin_low", "bin_high", "count", "density"])
    for i in range(cfg.bins):
        writer.writerow(
            [_fmt(hist.edges[i]), _fmt(hist.edges[i + 1]), int(hist.counts[i]), _fmt(hist.densities[i])]
        )

    reports = moments(samples, max_order=_dist_moment_order(cfg))
    crosses = [cross_moment(samples, 1, 1), cross_moment(samples, 2, 1)]
    payload = {
        "n_samples": samples.size,
        "t_final": cfg.t_final,
        "t_simulated": sim_cfg.t_simulated,
        "ks": {"statistic": stat, "p_value": p_value},
        "moments": [report.__dict__ | {"order": list(report.order)} for report in reports],
        "cross_moments": [report.__dict__ | {"order": list(report.order)} for report in crosses],
        "max_norm_drift": ensemble.max_norm_drift,
    }
    _finish(
        out,
        cfg,
        started,
        {"histogram.csv": buffer.getvalue().encode(), "dist.json": _json_bytes(payload)},
    )
    print(f"dist: wrote {out / 'histogram.csv'} and {out / 'dist.json'} (KS p={p_value:.4g})")
    return 0


def cmd_sense(cfg: ExperimentConfig) -> int:
    started = _utc_now()
    out = _prepare_out_dir(cfg)
    state_a = _state_from(cfg.state_a)
    state_b = _state_from(cfg.state_b)
    sim_cfg = _sim_config(cfg, record_grid=(cfg.t_final,))
    paired = run_paired_ensemble(sim_cfg, state_a, state_b)

    a, b = complex(state_a.amp_left), complex(state_a.amp_right)
    ap, bp = complex(state_b.amp_left), complex(state_b.amp_right)
    reference = abs(a * bp - ap * b) ** 2 / 3.0
    se = paired.se_sq_diff
    z = (paired.mean_sq_diff - reference) / se if se > 0 else 0.0
    payload = {
        "mean_sq_diff": paired.mean_sq_diff,
        "standard_error": se,
        "reference": reference,
        "z_score": z,
        "n_trajectories": cfg.trajectories,
        "t_final": cfg.t_final,
        "t_simulated": sim_cfg.t_simulated,
    }
    _finish(out, cfg, started, {"sense.json": _json_bytes(payload)})
    print(f"sense: wrote {out / 'sense.json'} (z={z:+.2f})")
    return 0


def cmd_pulse(cfg: ExperimentConfig) -> int:
    started = _utc_now()
    out = _prepare_out_dir(cfg)
    initial = _state_from(cfg.state_a)
    pulse = PulseSpec(delta_phi=cfg.phi, t0=cfg.t0)
    sim_cfg = _sim_config(cfg, record_grid=(cfg.t_final,))
    paired = run_paired_ensemble(sim_cfg, initial, initial, pulse_on_b=pulse)

    t0_snapped = round(cfg.t0 / cfg.dt) * cfg.dt
    factor = finite_time_moment(MomentSpec(initial, 1, 1), cfg.params, t0_snapped)
    predicted = factor * 4.0 * math.sin(cfg.phi) ** 2 / 3.0
    se = paired.se_sq_diff
    z = (paired.mean_sq_diff - predicted) / se if se > 0 else 0.0
    payload = {
        "mean_sq_diff": paired.mean_sq_diff,
        "standard_error": se,
        "equal_time_cross_moment": factor,
        "predicted": predicted,
        "z_score": z,
        "pulse": {"phi": cfg.phi, "t0": cfg.t0, "t0_snapped": t0_snapped},
        "t_final": cfg.t_final,
        "t_simulated": sim_cfg.t_simulated,
    }
    _finish(out, cfg, started, {"pulse.json": _json_bytes(payload)})
    print(f"pulse: wrote {out / 'pulse.json'} (z={z:+.2f})")
    return 0


_COMMANDS = {
    "decay": cmd_decay,
    "moments": cmd_moments,
    "dist": cmd_dist,
    "sense": cmd_sense,
    "pulse": cmd_pulse,
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--gamma", type=float, default=None, help="dephasing rate")
    shared.add_argument("--delta", type=float, default=None, help="tunneling rate")
    shared.add_argument("--dt", type=float, default=None, help="time step")
    shared.add_argument("--t-final", type=float, default=None, help="run length")
    shared.add_argument("--trajectories", type=int, default=None, help="ensemble size")
    shared.add_argument("--seed", type=int, default=None, help="master seed")
    shared.add_argument("--out-dir", type=str, default=None, help="output directory (must not exist)")
    shared.add_argument("--config", type=str, default=None, help="flat key=value config file")

    parser = argparse.ArgumentParser(
        prog="replica-lab",
        description="Two-level dephasing laboratory: replica moments vs trajectory ensembles",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("decay", parents=[shared], help="survival-probability decay curves")
    p_moments = sub.add_parser("moments", parents=[shared], help="stationary replica moments")
    p_moments.add_argument(
        "--max-order", type=int, default=None, help=f"highest pure moment (<= {MAX_MOMENT_ORDER})"
    )
    p_dist = sub.add_parser("dist", parents=[shared], help="stationary distribution evidence")
    p_dist.add_argument("--bins", type=int, default=None, help="histogram bins")
    p_dist.add_argument(
        "--max-order", type=int, default=None,
        help="pure moments are reported up to min(max-order + 2, 6)",
    )
    p_sense = sub.add_parser("sense", parents=[shared], help="initial-state sensitivity")
    p_sense.add_argument("--state-a", type=str, default=None, help="a_re,a_im,b_re,b_im")
    p_sense.add_argument("--state-b", type=str, default=None, help="a_re,a_im,b_re,b_im")
    p_pulse = sub.add_parser("pulse", parents=[shared], help="phase-pulse response")
    p_pulse.add_argument("--phi", type=float, default=None, help="pulse phase (radians)")
    p_pulse.add_argument("--t0", type=float, default=None, help="pulse application time")
    p_pulse.add_argument("--state-a", type=str, default=None, help="initial state")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args, args.command)
        return _COMMANDS[args.command](cfg)
    except (CliError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
