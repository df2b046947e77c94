import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import replica_lab
from replica_lab.cli import _build_parser, main
from replica_lab.model import ModelParams, SpinState, WellLabel, closed_form_p_ll
from replica_lab.replica import MomentSpec, finite_time_moment


def run_cli(*args) -> int:
    return main(list(args))


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_json(path):
    # strict: NaN, Infinity and -Infinity are refused
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


def assert_null_where_undefined(entry, values):
    """At standard error 0, a z field is null where its values differ and 0 where they agree."""
    assert entry["standard_error"] == 0.0
    for field, (mean, reference) in values.items():
        assert entry[field] == (0.0 if entry[mean] == entry[reference] else None), field


class TestDecay:
    def test_writes_expected_columns_and_agrees(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "decay", "--gamma", "1", "--delta", "1", "--t-final", "8",
            "--trajectories", "500", "--out-dir", str(out),
        )
        assert code == 0
        with open(out / "decay.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == [
            "t", "p_ll_closed_form", "p_ll_replica", "re_offdiag", "im_offdiag",
            "p_ll_mc_mean", "p_ll_mc_se",
        ]
        first = rows[0]
        assert float(first["t"]) == 0.0
        assert float(first["p_ll_closed_form"]) == 1.0
        assert float(first["re_offdiag"]) == 0.0
        assert float(first["im_offdiag"]) == 0.0
        for row in rows:
            assert abs(float(row["p_ll_closed_form"]) - float(row["p_ll_replica"])) <= 1e-8

    def test_critical_point_has_no_nan(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "decay", "--gamma", "2", "--delta", "1", "--t-final", "10",
            "--trajectories", "200", "--out-dir", str(out),
        )
        assert code == 0
        table = np.genfromtxt(out / "decay.csv", delimiter=",", skip_header=1)
        assert np.all(np.isfinite(table))

    def test_grid_finer_than_dt_writes_each_time_once(self, tmp_path):
        # 201 grid points over 100 steps snap onto 101 step boundaries
        out = tmp_path / "run"
        code = run_cli(
            "decay", "--t-final", "1", "--trajectories", "200", "--out-dir", str(out),
        )
        assert code == 0
        times = np.genfromtxt(out / "decay.csv", delimiter=",", skip_header=1)[:, 0]
        assert len(times) == 101
        assert np.all(np.diff(times) > 0)


class TestMoments:
    def test_default_table(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("moments", "--out-dir", str(out)) == 0
        payload = read_json(out / "moments.json")
        values = {(e["n_left"], e["n_right"]): e["value"] for e in payload["moments"]}
        for key, expected in {(1, 0): 1 / 2, (2, 0): 1 / 3, (3, 0): 1 / 4, (4, 0): 1 / 5,
                              (1, 1): 1 / 6}.items():
            assert values[key] == pytest.approx(expected, abs=1e-7)
        for entry in payload["moments"]:
            assert entry["abs_deviation"] <= 1e-7
        for defect in payload["symmetry_defects"]:
            assert defect["defect"] < 1e-9

    def test_conjecture_extension_orders(self, tmp_path):
        for max_order in (6, 20):
            out = tmp_path / f"run{max_order}"
            assert run_cli("moments", "--max-order", str(max_order), "--out-dir", str(out)) == 0
            payload = read_json(out / "moments.json")
            values = {(e["n_left"], e["n_right"]): e["value"] for e in payload["moments"]}
            assert values[(5, 0)] == pytest.approx(1 / 6, abs=1e-7)
            assert values[(6, 0)] == pytest.approx(1 / 7, abs=1e-7)
        assert values[(20, 0)] == pytest.approx(1 / 21, abs=1e-7)

    def test_critical_point_symmetry(self, tmp_path):
        # gamma = 2 delta makes the transient block defective; the stationary
        # Haar average does not see it
        out = tmp_path / "run"
        assert run_cli("moments", "--gamma", "2", "--out-dir", str(out)) == 0
        payload = read_json(out / "moments.json")
        for entry in payload["moments"]:
            assert entry["abs_deviation"] <= 1e-12
        for defect in payload["symmetry_defects"]:
            assert defect["defect"] < 1e-12


class TestDist:
    def test_outputs_and_digests(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("dist", "--trajectories", "1500", "--out-dir", str(out)) == 0
        payload = read_json(out / "dist.json")
        assert payload["n_samples"] == 1500
        assert [m["order"] for m in payload["moments"]] == [[n, 0] for n in range(1, 7)]
        assert 0.0 <= payload["ks"]["p_value"] <= 1.0
        with open(out / "histogram.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 50
        total = sum(int(row["count"]) for row in rows)
        assert total == 1500
        manifest = read_json(out / "manifest.json")
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest
        assert set(manifest["outputs"]) == {"histogram.csv", "dist.json"}

    def test_custom_bins(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("dist", "--trajectories", "800", "--bins", "10", "--out-dir", str(out)) == 0
        with open(out / "histogram.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 10

    def test_short_horizon_judged_at_its_time(self, tmp_path):
        # at t = 1 from the left well the uniform law is far off; every moment
        # report must sit near its exact value at t_simulated (default seed)
        out = tmp_path / "run"
        code = run_cli("dist", "--t-final", "1", "--trajectories", "2000", "--out-dir", str(out))
        assert code == 0
        payload = read_json(out / "dist.json")
        assert payload["ks"]["law"] == "stationary Uniform(0, 1)"
        params = ModelParams(delta=1.0, gamma=1.0)
        t = payload["t_simulated"]
        entries = payload["moments"] + payload["cross_moments"]
        assert len(entries) == 8
        for entry in entries:
            assert abs(entry["z_score_at_t"]) <= 4.0, entry
        first = payload["moments"][0]
        assert first["reference_at_t"] == pytest.approx(closed_form_p_ll(params, t), abs=1e-12)
        assert abs(first["z_score"]) > 20.0

    def test_zero_standard_error_writes_null_z(self, tmp_path):
        # without noise every trajectory is the same: some reports have se = 0
        out = tmp_path / "run"
        code = run_cli("dist", "--gamma", "0", "--t-final", "1", "--trajectories", "200",
                       "--out-dir", str(out))
        assert code == 0
        payload = read_json(out / "dist.json")
        exact = [e for e in payload["moments"] + payload["cross_moments"]
                 if e["standard_error"] == 0.0]
        assert exact
        for entry in exact:
            assert_null_where_undefined(entry, {
                "z_score": ("sample_moment", "reference"),
                "z_score_at_t": ("sample_moment", "reference_at_t"),
            })
        assert any(entry["z_score_at_t"] is None for entry in exact)


class TestSense:
    def test_default_orthogonal_pair(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("sense", "--trajectories", "1200", "--out-dir", str(out)) == 0
        payload = read_json(out / "sense.json")
        assert payload["reference"] == pytest.approx(1 / 3, abs=1e-12)
        assert abs(payload["z_score"]) < 4.0

    def test_short_horizon_judged_at_its_time(self, tmp_path):
        # at t = 1 the stationary law 1/3 is far off; the reference at t is 0.19429
        out = tmp_path / "run"
        code = run_cli("sense", "--t-final", "1", "--trajectories", "2000", "--out-dir", str(out))
        assert code == 0
        payload = read_json(out / "sense.json")
        assert payload["reference_at_t"] == pytest.approx(0.19429, abs=1e-5)
        assert abs(payload["z_score_at_t"]) < 4.0
        assert abs(payload["z_score"]) > 20.0

    def test_identical_states(self, tmp_path):
        out = tmp_path / "run"
        state = "0.70710678118654757,0,0.70710678118654757,0"
        code = run_cli(
            "sense", "--state-a", state, "--state-b", state,
            "--trajectories", "300", "--out-dir", str(out),
        )
        assert code == 0
        payload = read_json(out / "sense.json")
        assert payload["mean_sq_diff"] == 0.0
        assert payload["reference"] == 0.0

    def test_rejects_unnormalized_state(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "sense", "--state-a", "1,0,1,0", "--trajectories", "300", "--out-dir", str(out)
        )
        assert code == 2


class TestPulse:
    def test_zero_phase_gives_exact_zero(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "pulse", "--phi", "0", "--t0", "1.0", "--trajectories", "400",
            "--t-final", "5", "--out-dir", str(out),
        )
        assert code == 0
        payload = read_json(out / "pulse.json")
        assert payload["mean_sq_diff"] == 0.0
        assert payload["predicted"] == 0.0

    def test_response_matches_prediction(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "pulse", "--phi", str(math.pi / 2), "--t0", "1.0",
            "--trajectories", "2000", "--out-dir", str(out),
        )
        assert code == 0
        payload = read_json(out / "pulse.json")
        assert payload["predicted"] > 0.0
        assert abs(payload["z_score"]) < 4.0

    def test_zero_standard_error_writes_null_z(self, tmp_path):
        # phi = pi is an exact no-op, so every difference is 0, while the
        # prediction rounds to 4.6e-33: the z-score is undefined, not 0
        out = tmp_path / "run"
        code = run_cli(
            "pulse", "--state-a", "0.6,0,0.8,0", "--phi", str(math.pi), "--t-final", "1",
            "--trajectories", "100", "--out-dir", str(out),
        )
        assert code == 0
        payload = read_json(out / "pulse.json")
        assert payload["mean_sq_diff"] == 0.0
        assert payload["predicted"] > 0.0
        assert_null_where_undefined(payload, {"z_score": ("mean_sq_diff", "predicted")})


class TestHorizon:
    @pytest.mark.parametrize("command", ["dist", "sense", "pulse"])
    def test_reports_simulated_horizon(self, tmp_path, command):
        # dt = 0.03 does not divide t_final = 1: round(33.3) = 33 steps reach 0.99
        out = tmp_path / "run"
        code = run_cli(
            command, "--dt", "0.03", "--t-final", "1.0", "--gamma", "0.3", "--delta", "0.3",
            "--trajectories", "200", "--out-dir", str(out),
        )
        assert code == 0
        payload = read_json(out / f"{command}.json")
        assert payload["t_final"] == 1.0
        assert payload["t_simulated"] == 33 * 0.03


class TestConfigHandling:
    def test_file_then_flag_precedence(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("gamma = 2.0\ntrajectories = 300\nt-final = 4\n")
        out1 = tmp_path / "a"
        assert run_cli("dist", "--config", str(config), "--out-dir", str(out1)) == 0
        manifest = read_json(out1 / "manifest.json")
        assert manifest["config"]["gamma"] == 2.0
        assert manifest["config"]["trajectories"] == 300

        out2 = tmp_path / "b"
        code = run_cli(
            "dist", "--config", str(config), "--gamma", "3.0", "--out-dir", str(out2)
        )
        assert code == 0
        manifest = read_json(out2 / "manifest.json")
        assert manifest["config"]["gamma"] == 3.0

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("gamm = 2.0\n")
        assert run_cli("dist", "--config", str(config), "--out-dir", str(tmp_path / "x")) == 2

    # a directory cannot be read as a file, whatever the user's permissions
    @pytest.mark.parametrize("name", ["absent.cfg", "."], ids=["missing", "unreadable"])
    def test_config_file_read_error_is_input_error(self, tmp_path, capsys, name):
        config = tmp_path / name
        out = tmp_path / "run"
        assert run_cli("moments", "--config", str(config), "--out-dir", str(out)) == 2
        assert f"cannot read config file {config}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,lineno,key",
        [("gamma = abc\n", 1, "gamma"), ("# seeds\nseed = 1.5\n", 2, "seed"),
         ("state-a = 1,0\n", 1, "state-a"), ("state-b = 1,0,x,0\n", 1, "state-b")],
        ids=["float", "int", "state-count", "state-part"],
    )
    def test_bad_config_value_names_file_line_and_key(self, tmp_path, capsys, text, lineno, key):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        out = tmp_path / "run"
        assert run_cli("sense", "--config", str(config), "--out-dir", str(out)) == 2
        assert f"error: {config}:{lineno}: bad value for {key!r}: " in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_that_is_a_file_is_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("keep me\n")
        assert run_cli("moments", "--out-dir", str(out)) == 2
        assert "is not an empty directory" in capsys.readouterr().err
        assert out.read_text() == "keep me\n"

    def test_out_dir_below_a_file_is_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("keep me\n")
        assert run_cli("moments", "--out-dir", str(afile / "sub")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{afile}, which is not a directory" in err
        assert "Traceback" not in err
        assert afile.read_text() == "keep me\n"

    def test_write_error_is_error(self, tmp_path, monkeypatch, capsys):
        def full_disk(path, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("replica_lab.cli._write_atomic", full_disk)
        out = tmp_path / "run"
        assert run_cli("moments", "--out-dir", str(out)) == 2
        assert f"error: cannot write output directory {out}: " in capsys.readouterr().err

    def test_existing_empty_out_dir_is_used(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        assert run_cli("moments", "--out-dir", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "moments.json"]

    @pytest.mark.parametrize("value", ["abc", "-2"])
    def test_bad_worker_variable_creates_no_directory(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("REPLICA_LAB_THREADS", value)
        out = tmp_path / "run"
        assert run_cli("dist", "--out-dir", str(out)) == 2
        assert "REPLICA_LAB_THREADS must be a whole number >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_collision_is_error(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("moments", "--out-dir", str(out)) == 0
        assert run_cli("moments", "--out-dir", str(out)) == 2

    def test_missing_out_dir_is_error(self, tmp_path):
        assert run_cli("moments") == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--max-order", "21"],
            ["moments", "--max-order", "0"],
            ["dist", "--seed", "-1"],
            ["dist", "--trajectories", "0"],
            ["dist", "--bins", "1"],
            ["sense", "--state-a", "1,0,1,0"],
            ["pulse", "--t0", "-1"],
            ["moments", "--gamma", "0", "--t-final", "5"],
            ["moments", "--delta", "0", "--t-final", "3"],
            ["pulse", "--t0", "10", "--t-final", "5"],
            ["dist", "--trajectories", "40"],
            ["dist", "--trajectories", "80"],
            ["sense", "--trajectories", "1"],
            ["pulse", "--trajectories", "1"],
            ["decay", "--trajectories", "1"],
        ],
        ids=[
            "max-order-high", "max-order-low", "seed", "trajectories", "bins",
            "state", "t0", "moments-gamma-0", "moments-delta-0",
            "t0-past-horizon", "dist-40", "dist-80", "sense-1", "pulse-1",
            "decay-1",
        ],
    )
    def test_invalid_input_creates_no_directory(self, tmp_path, argv):
        out = tmp_path / "run"
        assert run_cli(*argv, "--out-dir", str(out)) == 2
        assert not out.exists()

    def test_dist_takes_no_max_order(self, tmp_path, capsys):
        # dist always reports orders 1..6; max-order is a moments key
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("dist", "--max-order", "3", "--out-dir", str(out))
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --max-order 3" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    def test_option_sets_types_and_defaults(self):
        shared = {
            "--gamma": float, "--delta": float, "--dt": float, "--t-final": float,
            "--trajectories": int, "--seed": int, "--out-dir": str, "--config": str,
        }
        expected = {
            "decay": shared,
            "moments": shared | {"--max-order": int},
            "dist": shared | {"--bins": int},
            "sense": shared | {"--state-a": str, "--state-b": str},
            "pulse": shared | {"--phi": float, "--t0": float, "--state-a": str},
        }
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(expected)
        for name, subparser in sub.choices.items():
            options = {
                option: action for action in subparser._actions for option in action.option_strings
            }
            assert set(options) == set(expected[name]) | {"-h", "--help"}, name
            for option, kind in expected[name].items():
                assert options[option].type is kind, (name, option)
                assert options[option].default is None, (name, option)


class TestReproducibility:
    def test_rerun_from_manifest_config_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "first"
        assert run_cli("dist", "--trajectories", "600", "--out-dir", str(out1)) == 0
        manifest = read_json(out1 / "manifest.json")

        # rebuild the command line from the manifest's resolved configuration
        out2 = tmp_path / "second"
        cfg = manifest["config"]
        code = run_cli(
            "dist",
            "--gamma", repr(cfg["gamma"]), "--delta", repr(cfg["delta"]),
            "--dt", repr(cfg["dt"]), "--t-final", repr(cfg["t-final"]),
            "--trajectories", str(cfg["trajectories"]), "--seed", str(cfg["seed"]),
            "--bins", str(cfg["bins"]),
            "--out-dir", str(out2),
        )
        assert code == 0
        for name in ("histogram.csv", "dist.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        second_manifest = read_json(out2 / "manifest.json")
        assert second_manifest["outputs"] == manifest["outputs"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sense", "--state-a", "0.6,0.8,0,0", "--state-b", "0,0.6,0.8,0", "--gamma", "0.7"],
            ["pulse", "--state-a", "0.36,0.48,-0.64,-0.48", "--phi", "0.5", "--t0", "0.3",
             "--gamma", "0.3"],
        ],
        ids=["sense", "pulse"],
    )
    def test_rerun_from_manifest_config_file_is_byte_identical(self, tmp_path, argv):
        out1 = tmp_path / "first"
        flags = ["--t-final", "2", "--trajectories", "300", "--seed", "17"]
        assert run_cli(*argv, *flags, "--out-dir", str(out1)) == 0
        manifest = read_json(out1 / "manifest.json")

        # every resolved key, states and phi included, goes through the config file
        config = tmp_path / "run.cfg"
        config.write_text("".join(
            f"{key} = {value}\n" for key, value in manifest["config"].items()
            if key not in ("experiment", "out-dir")
        ))
        out2 = tmp_path / "second"
        assert run_cli(argv[0], "--config", str(config), "--out-dir", str(out2)) == 0
        name = f"{argv[0]}.json"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        second_config = read_json(out2 / "manifest.json")["config"]
        assert second_config == manifest["config"] | {"out-dir": str(out2)}


class TestImports:
    @staticmethod
    def _fresh_python(code: str) -> str:
        src = str(Path(replica_lab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.strip()

    def test_cli_import_leaves_scipy_special_out(self):
        # scipy.special adds about 25 MB of peak RSS and 0.2 s to a process
        # that has only numpy
        code = "import sys, replica_lab.cli; print('scipy.special' in sys.modules)"
        assert self._fresh_python(code) == "False"

    @pytest.mark.parametrize("first,second", [("dense", "replica"), ("replica", "dense")])
    def test_dense_and_replica_load_in_either_order(self, first, second):
        # replica binds the oracle names from dense at its end; dense imports from replica
        code = textwrap.dedent(f"""
            import sys
            import replica_lab.{first}, replica_lab.{second}
            from replica_lab.dense import build_generator
            from replica_lab.replica import build_generator as bound
            assert bound is build_generator
            print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """)
        assert self._fresh_python(code) == "[]"

    def test_simulator_and_stats_leave_scipy_out(self):
        # numpy is the only runtime dependency: no call loads any scipy module
        code = textwrap.dedent("""
            import json, sys
            import replica_lab.cli
            from replica_lab.model import ModelParams, SpinState, WellLabel
            from replica_lab.replica import (
                MomentSpec, finite_time_moment, mixed_initial_moment, moment_decay_rates,
            )
            from replica_lab.simulate import SimConfig, run_ensemble, run_paired_ensemble
            from replica_lab.stats import SampleSet, cross_moment, histogram, ks_uniform, moments

            params = ModelParams(delta=1.0, gamma=1.0)
            cfg = SimConfig(params, dt=0.01, t_final=0.5, seed=3, n_trajectories=200)
            left, right = SpinState.localized(WellLabel.LEFT), SpinState.localized(WellLabel.RIGHT)
            samples = SampleSet(run_ensemble(cfg, left, workers=1).final_p_left)
            run_paired_ensemble(cfg, left, right, workers=1)
            moments(samples, 3)
            cross_moment(samples, 1, 1)
            histogram(samples)
            ks_uniform(samples)
            # replica loads numpy.polynomial at its first moment, not at import
            assert "numpy.polynomial" not in sys.modules
            value = finite_time_moment(MomentSpec(left, 2, 1), params, 0.7)
            pair = [(left, WellLabel.LEFT), (right, WellLabel.RIGHT)]
            mixed = mixed_initial_moment(pair, params, 0.7)
            moment_decay_rates(MomentSpec(left, 2, 1), params)
            scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            print(json.dumps({"scipy": scipy, "value": value, "mixed": mixed}))
        """)
        report = json.loads(self._fresh_python(code))
        assert report["scipy"] == []
        params = ModelParams(delta=1.0, gamma=1.0)
        spec = MomentSpec(SpinState.localized(WellLabel.LEFT), 2, 1)
        assert report["value"] == finite_time_moment(spec, params, 0.7)
        # P(R -> R) = P(L -> L) in every realization
        same = finite_time_moment(MomentSpec(spec.initial_state, 2, 0), params, 0.7)
        assert report["mixed"] == pytest.approx(same, abs=1e-14)
