"""Fast smoke test of the benchmark harness: every workload at tiny sizes, untraced and traced.

usage: python3 perfbench/smoke.py

Runs ``run.py --smoke`` (one set-up process, tiny inputs, one-second timed
phase) for each workload in BENCHMARK.json with ``--trace 0`` and ``--trace 1``
and checks each last line against BENCHMARK.json: the result keys, the metric
names and units, and that no call failed other than through a recorded known defect.  Then checks that run.py
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's files.  Exits nonzero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def _fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _check_result(spec: dict, workload: str, trace: int, proc: subprocess.CompletedProcess) -> None:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        _fail(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
        _fail(f"{where}: correct={result['correct']} attempted={result['attempted']}\n" + "\n".join(failures))
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        _fail(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(units))}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            _fail(f"{where}: {name} = {value!r}")
        if not trace and value <= 0:
            _fail(f"{where}: end-to-end metric {name} = {value} is not positive")
    print(f"smoke: ok {where} (attempted {result['attempted']}, failed {result['failed']})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            _check_result(spec, workload, trace, _run(ROOT, workload, trace))

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            _fail(f"without sources run.py exited {proc.returncode} and printed {proc.stdout[-200:]!r}")
        print("smoke: ok without sources run.py exits", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
