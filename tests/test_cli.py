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
from replica_lab.model import ModelParams, SpinState, WellLabel
from replica_lab.replica import MomentSpec, finite_time_moment


def run_cli(*args) -> int:
    return main(list(args))


def read_json(path):
    return json.loads(path.read_text())


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


class TestSense:
    def test_default_orthogonal_pair(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("sense", "--trajectories", "1200", "--out-dir", str(out)) == 0
        payload = read_json(out / "sense.json")
        assert payload["reference"] == pytest.approx(1 / 3, abs=1e-12)
        assert abs(payload["z_score"]) < 4.0

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
            ["dist", "--max-order", "-2"],
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
            "dist-max-order", "state", "t0", "moments-gamma-0", "moments-delta-0",
            "t0-past-horizon", "dist-40", "dist-80", "sense-1", "pulse-1",
            "decay-1",
        ],
    )
    def test_invalid_input_creates_no_directory(self, tmp_path, argv):
        out = tmp_path / "run"
        assert run_cli(*argv, "--out-dir", str(out)) == 2
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
            "dist": shared | {"--bins": int, "--max-order": int},
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
            "--bins", str(cfg["bins"]), "--max-order", str(cfg["max-order"]),
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

    def test_simulator_and_stats_leave_scipy_out(self):
        # only the replica engine's matrix exponential loads scipy.linalg
        code = textwrap.dedent("""
            import json, sys
            import replica_lab.cli
            from replica_lab.model import ModelParams, SpinState, WellLabel
            from replica_lab.replica import MomentSpec, finite_time_moment
            from replica_lab.simulate import SimConfig, run_ensemble, run_paired_ensemble
            from replica_lab.stats import SampleSet, cross_moment, histogram, ks_uniform, moments

            def scipy_modules():
                return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

            params = ModelParams(delta=1.0, gamma=1.0)
            cfg = SimConfig(params, dt=0.01, t_final=0.5, seed=3, n_trajectories=200)
            left, right = SpinState.localized(WellLabel.LEFT), SpinState.localized(WellLabel.RIGHT)
            samples = SampleSet(run_ensemble(cfg, left, workers=1).final_p_left)
            run_paired_ensemble(cfg, left, right, workers=1)
            moments(samples, 3)
            cross_moment(samples, 1, 1)
            histogram(samples)
            ks_uniform(samples)
            before = scipy_modules()
            value = finite_time_moment(MomentSpec(left, 2, 1), params, 0.7)
            print(json.dumps({"before": before, "value": value, "linalg": "scipy.linalg" in sys.modules}))
        """)
        report = json.loads(self._fresh_python(code))
        assert report["before"] == []
        spec = MomentSpec(SpinState.localized(WellLabel.LEFT), 2, 1)
        assert report["value"] == finite_time_moment(spec, ModelParams(delta=1.0, gamma=1.0), 0.7)
        assert report["linalg"] is True
