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

Each configuration key is one entry of ``_KEYS``: its parser, its default,
its help text and the subcommands that take it as a flag.  A flag overrides
the same-named key of a ``--config`` file (flat ``key = value`` lines whose
keys are exactly the flag names), which overrides the default.  Each command
checks its inputs before its first ensemble, and the output directory is
created only after the command has run, so a rejected input leaves nothing
behind; an output path other than an empty directory is never overwritten.
Every run writes a manifest.json with the resolved configuration and sha256
digests of all emitted files; data files carry no timestamps, so re-running
a manifest's configuration reproduces them byte for byte.
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
from typing import Callable, Optional

import numpy as np

from . import __version__
from .model import (
    MAX_MOMENT_ORDER,
    ModelParams,
    SpinState,
    WellLabel,
    _check_int,
    closed_form_offdiag,
    closed_form_p_ll,
    beta_cross_moment,
    stationary_time,
)
from .replica import (
    MomentSpec,
    finite_time_moment,
    infinite_time_moment,
    mixed_initial_moment,
    moment_curve,
    permutation_symmetry_defect,
)
from .simulate import PulseSpec, SimConfig, run_ensemble, run_paired_ensemble
from .stats import (
    MIN_MOMENT_SAMPLES, SampleSet, cross_moment, histogram, ks_uniform, moments, z_score,
)

_DECAY_GRID_POINTS = 201
_DIST_MOMENT_ORDER = 6
_REPLICA_VS_CLOSED_TOL = 1e-8
_MOMENT_DEVIATION_TOL = 1e-7
_SYMMETRY_DEFECT_TOL = 1e-9


class CliError(Exception):
    pass


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for 64-bit floats."""
    return format(float(x), ".17g")


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


@dataclass(frozen=True)
class _Key:
    """One configuration key: its parser, default, help and the subcommands with its flag."""

    parse: Callable[[str], object]
    default: object
    help: str
    commands: Optional[tuple[str, ...]] = None  # None: every subcommand


_SYMMETRIC = 1.0 / math.sqrt(2.0)
_KEYS = {
    "gamma": _Key(float, 1.0, "dephasing rate"),
    "delta": _Key(float, 1.0, "tunneling rate"),
    "dt": _Key(float, None, "time step (default 0.01 * min(1/gamma, 1/delta))"),
    "t-final": _Key(float, None, "run length (default the stationary horizon, plus t0 for pulse)"),
    "trajectories": _Key(int, 10000, "ensemble size"),
    "seed": _Key(int, 20260810, "master seed"),
    "out-dir": _Key(str, None, "output directory (must not exist)"),
    "bins": _Key(int, 50, "histogram bins", ("dist",)),
    "max-order": _Key(int, 4, f"highest pure moment (<= {MAX_MOMENT_ORDER})", ("moments",)),
    "phi": _Key(float, math.pi / 2, "pulse phase (radians)", ("pulse",)),
    "t0": _Key(float, 0.0, "pulse application time", ("pulse",)),
    "state-a": _Key(
        _parse_state, (_SYMMETRIC, 0.0, _SYMMETRIC, 0.0),
        "initial state a_re,a_im,b_re,b_im (pulse default: localized left)", ("sense", "pulse"),
    ),
    "state-b": _Key(
        _parse_state, (_SYMMETRIC, 0.0, -_SYMMETRIC, 0.0),
        "second initial state a_re,a_im,b_re,b_im", ("sense",),
    ),
}
_PULSE_STATE_A = (1.0, 0.0, 0.0, 0.0)


def _attr(key: str) -> str:
    return key.replace("-", "_")


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_config_file(path: str) -> dict[str, object]:
    """The parsed values of a flat ``key = value`` file, by key."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    entries: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            entries[key] = _KEYS[key].parse(value)
        except (CliError, ValueError) as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return entries


def _resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Each key from its flag, else the config file, else its default; then dt and t-final."""
    file_entries = _load_config_file(args.config) if args.config else {}
    cfg = argparse.Namespace(experiment=args.command)
    for key, spec in _KEYS.items():
        flag = getattr(args, _attr(key), None)  # absent where the subcommand has no such flag
        default = _PULSE_STATE_A if (args.command, key) == ("pulse", "state-a") else spec.default
        value = file_entries.get(key, default) if flag is None else spec.parse(flag)
        setattr(cfg, _attr(key), value)

    cfg.params = ModelParams(delta=cfg.delta, gamma=cfg.gamma)
    if cfg.dt is None:
        if cfg.gamma <= 0 and cfg.delta <= 0:
            raise CliError("dt must be given when gamma = delta = 0")
        cfg.dt = 0.01 * min(1.0 / r for r in (cfg.gamma, cfg.delta) if r > 0)
    if cfg.t_final is None:
        if cfg.gamma <= 0 or cfg.delta <= 0:
            raise CliError("t-final must be given when gamma or delta is 0")
        cfg.t_final = stationary_time(cfg.params)
        if cfg.experiment == "pulse":
            cfg.t_final += cfg.t0
    if cfg.out_dir is None:
        raise CliError("--out-dir is required (flag or config file)")
    return cfg


def _finite(value):
    """value with each non-finite float, at any depth of dicts and lists, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json_bytes(payload: dict) -> bytes:
    """Strict JSON: a non-finite float (an infinite z-score) is written as null."""
    text = json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode()


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def _finish(
    out: Path, cfg: argparse.Namespace, started: str, files: dict[str, bytes]
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, data in files.items():
        path = out / name
        _write_atomic(path, data)
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    config = {"experiment": cfg.experiment}
    for key in _KEYS:
        value = getattr(cfg, _attr(key))
        config[key] = ",".join(map(_fmt, value)) if isinstance(value, tuple) else value
    manifest = {
        "tool_version": __version__,
        "command": cfg.experiment,
        "config": config,
        "seed": cfg.seed,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": digests,
    }
    _write_atomic(out / "manifest.json", _json_bytes(manifest))


def _sim_config(cfg: argparse.Namespace, record_grid, min_trajectories: int = 2) -> SimConfig:
    """The command's ensemble; its statistics need at least min_trajectories samples."""
    if cfg.trajectories < min_trajectories:
        raise CliError(f"{cfg.experiment} needs trajectories >= {min_trajectories}, "
                       f"got {cfg.trajectories}")
    return SimConfig(
        params=cfg.params,
        dt=cfg.dt,
        t_final=cfg.t_final,
        seed=cfg.seed,
        n_trajectories=cfg.trajectories,
        record_grid=tuple(record_grid),
    )


# What a command returns: the data files to write, the summary printed on
# success, and the failure message (None when the run passes its own checks).
_Outcome = tuple[dict[str, bytes], str, Optional[str]]


def cmd_decay(cfg: argparse.Namespace) -> _Outcome:
    params = cfg.params
    left = SpinState.localized(WellLabel.LEFT)
    grid = np.linspace(0.0, cfg.t_final, _DECAY_GRID_POINTS)
    ensemble = run_ensemble(_sim_config(cfg, grid), left)

    curve = moment_curve([(left, WellLabel.LEFT)], params, ensemble.times)
    worst = 0.0
    rows = []
    for i, t in enumerate(ensemble.times):  # distinct: grid points on one boundary give one row
        closed = closed_form_p_ll(params, float(t))
        replica = float(curve[i])
        offdiag = closed_form_offdiag(params, float(t))
        worst = max(worst, abs(closed - replica))
        rows.append([_fmt(x) for x in (t, closed, replica, offdiag.real, offdiag.imag,
                                       ensemble.mean_p_left[i], ensemble.se_p_left[i])])
    header = ["t", "p_ll_closed_form", "p_ll_replica", "re_offdiag", "im_offdiag",
              "p_ll_mc_mean", "p_ll_mc_se"]

    failure = None
    if worst > _REPLICA_VS_CLOSED_TOL:
        failure = f"replica vs closed-form deviation {worst:.3e} exceeds {_REPLICA_VS_CLOSED_TOL}"
    return {"decay.csv": _csv_bytes(header, rows)}, f"engines agree to {worst:.3e}", failure


def cmd_moments(cfg: argparse.Namespace) -> _Outcome:
    _check_int("max-order", cfg.max_order, 1, MAX_MOMENT_ORDER)
    params = cfg.params
    initial = SpinState.localized(WellLabel.LEFT)
    orders = [(n, 0) for n in range(1, cfg.max_order + 1)]
    orders += [
        (n, m) for n in range(1, 4) for m in range(1, 4) if n + m <= min(4, cfg.max_order + 1)
    ]

    entries = []
    for n, m in orders:
        value = infinite_time_moment(MomentSpec(initial, n, m), params)
        ref = float(beta_cross_moment(n, m))
        entries.append({"n_left": n, "n_right": m, "value": value, "reference": ref,
                        "abs_deviation": abs(value - ref)})
    defects = [
        {"n": n, "m": m, "defect": permutation_symmetry_defect(n, m, params)}
        for n, m in ((1, 1), (2, 0), (2, 1))
    ]
    worst_dev = max(entry["abs_deviation"] for entry in entries)
    worst_defect = max(entry["defect"] for entry in defects)

    payload = {
        "params": {"gamma": cfg.gamma, "delta": cfg.delta},
        "moments": entries,
        "symmetry_defects": defects,
        "tolerances": {"moment": _MOMENT_DEVIATION_TOL, "defect": _SYMMETRY_DEFECT_TOL},
    }
    failure = None
    if worst_dev > _MOMENT_DEVIATION_TOL or worst_defect > _SYMMETRY_DEFECT_TOL:
        failure = (
            f"deviation {worst_dev:.3e} (tol {_MOMENT_DEVIATION_TOL}) or "
            f"defect {worst_defect:.3e} (tol {_SYMMETRY_DEFECT_TOL})"
        )
    return {"moments.json": _json_bytes(payload)}, f"max deviation {worst_dev:.3e}", failure


def cmd_dist(cfg: argparse.Namespace) -> _Outcome:
    sim_cfg = _sim_config(cfg, (cfg.t_final,), MIN_MOMENT_SAMPLES)
    _check_int("bins", cfg.bins, 2)
    left = SpinState.localized(WellLabel.LEFT)
    ensemble = run_ensemble(sim_cfg, left)
    samples = SampleSet(ensemble.final_p_left)
    hist = histogram(samples, bins=cfg.bins)
    stat, p_value = ks_uniform(samples)

    bins = [
        [_fmt(hist.edges[i]), _fmt(hist.edges[i + 1]), int(hist.counts[i]), _fmt(hist.densities[i])]
        for i in range(cfg.bins)
    ]

    def entry(report) -> dict:
        # reference and z_score are stationary; the _at_t pair is exact at t_simulated
        reference_at_t = finite_time_moment(MomentSpec(left, *report.order), cfg.params,
                                            sim_cfg.t_simulated)
        return report.__dict__ | {
            "order": list(report.order),
            "reference_at_t": reference_at_t,
            "z_score_at_t": z_score(report.sample_moment, reference_at_t, report.standard_error),
        }

    reports = moments(samples, max_order=_DIST_MOMENT_ORDER)
    crosses = [cross_moment(samples, 1, 1), cross_moment(samples, 2, 1)]
    payload = {
        "n_samples": samples.size,
        "t_final": cfg.t_final,
        "t_simulated": sim_cfg.t_simulated,
        "ks": {"statistic": stat, "p_value": p_value, "law": "stationary Uniform(0, 1)"},
        "moments": [entry(report) for report in reports],
        "cross_moments": [entry(report) for report in crosses],
        "max_norm_drift": ensemble.max_norm_drift,
    }
    files = {
        "histogram.csv": _csv_bytes(["bin_low", "bin_high", "count", "density"], bins),
        "dist.json": _json_bytes(payload),
    }
    return files, f"KS p={p_value:.4g}", None


def cmd_sense(cfg: argparse.Namespace) -> _Outcome:
    state_a = _state_from(cfg.state_a)
    state_b = _state_from(cfg.state_b)
    sim_cfg = _sim_config(cfg, (cfg.t_final,))
    paired = run_paired_ensemble(sim_cfg, state_a, state_b)

    a, b = complex(state_a.amp_left), complex(state_a.amp_right)
    ap, bp = complex(state_b.amp_left), complex(state_b.amp_right)
    reference = abs(a * bp - ap * b) ** 2 / 3.0
    # <(P_A - P_B)^2> = <P_A^2> + <P_B^2> - 2 <P_A P_B> at the simulated horizon
    t = sim_cfg.t_simulated
    pa2, pb2, pab = (
        mixed_initial_moment([(s, WellLabel.LEFT), (r, WellLabel.LEFT)], cfg.params, t)
        for s, r in ((state_a, state_a), (state_b, state_b), (state_a, state_b))
    )
    reference_at_t = pa2 + pb2 - 2.0 * pab
    se = paired.se_sq_diff
    z = z_score(paired.mean_sq_diff, reference, se)
    z_at_t = z_score(paired.mean_sq_diff, reference_at_t, se)
    payload = {
        "mean_sq_diff": paired.mean_sq_diff,
        "standard_error": se,
        "reference": reference,
        "z_score": z,
        "reference_at_t": reference_at_t,
        "z_score_at_t": z_at_t,
        "n_trajectories": cfg.trajectories,
        "t_final": cfg.t_final,
        "t_simulated": sim_cfg.t_simulated,
    }
    return {"sense.json": _json_bytes(payload)}, f"z={z:+.2f} z_at_t={z_at_t:+.2f}", None


def cmd_pulse(cfg: argparse.Namespace) -> _Outcome:
    initial = _state_from(cfg.state_a)
    pulse = PulseSpec(delta_phi=cfg.phi, t0=cfg.t0)
    sim_cfg = _sim_config(cfg, (cfg.t_final,))
    t0_snapped = sim_cfg.boundary(cfg.t0) * cfg.dt
    paired = run_paired_ensemble(sim_cfg, initial, initial, pulse_on_b=pulse)
    factor = finite_time_moment(MomentSpec(initial, 1, 1), cfg.params, t0_snapped)
    predicted = factor * 4.0 * math.sin(cfg.phi) ** 2 / 3.0
    se = paired.se_sq_diff
    z = z_score(paired.mean_sq_diff, predicted, se)
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
    return {"pulse.json": _json_bytes(payload)}, f"z={z:+.2f}", None


_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], _Outcome], str]] = {
    "decay": (cmd_decay, "survival-probability decay curves"),
    "moments": (cmd_moments, "stationary replica moments"),
    "dist": (cmd_dist, "stationary distribution evidence"),
    "sense": (cmd_sense, "initial-state sensitivity"),
    "pulse": (cmd_pulse, "phase-pulse response"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replica-lab",
        description="Two-level dephasing laboratory: replica moments vs trajectory ensembles",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for key, spec in _KEYS.items():
            if spec.commands is None or name in spec.commands:
                # argparse lets a CliError from _parse_state escape, so states
                # stay text until _resolve_config parses them
                kind = str if spec.parse is _parse_state else spec.parse
                command.add_argument(f"--{key}", type=kind, default=None, help=spec.help)
        command.add_argument("--config", type=str, default=None, help="flat key=value config file")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command, _ = _COMMANDS[args.command]
    try:
        cfg = _resolve_config(args)
        out = Path(cfg.out_dir)
        if out.exists() and not (out.is_dir() and not any(out.iterdir())):
            raise CliError(f"output path {out} exists and is not an empty directory; "
                           "refusing to overwrite")
        ancestor = next(path for path in out.parents if path.exists())
        if not ancestor.is_dir():
            raise CliError(f"output path {out} lies below {ancestor}, which is not a directory")
        started = _utc_now()
        files, summary, failure = command(cfg)  # creates nothing on disk
        try:
            _finish(out, cfg, started, files)
        except OSError as exc:
            raise CliError(f"cannot write output directory {out}: {exc}") from None
    except (CliError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failure is not None:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    wrote = " and ".join(str(out / name) for name in files)
    print(f"{cfg.experiment}: wrote {wrote} ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
