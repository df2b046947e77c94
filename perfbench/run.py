"""Benchmark of replica-lab: three closed-loop workloads, end-to-end and per-layer metrics.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/smoke.py          # every workload at tiny sizes, in seconds

Run from a checkout of the repository; the package is imported from its
``src`` directory.  One process, one client: every call into replica_lab
starts after the previous one returned.

1. Set-up: several fresh processes each import replica_lab and make the first
   call into every entry point the workload uses; ``setup_s`` is the median.
2. Warm-up: the same first calls in this process, untimed.
3. Timed phase: rounds of fixed work until the next round would overrun
   ``--seconds``.  With ``--trace 1`` untraced and traced rounds alternate; the
   traced ones wrap the package's public functions (tracing.py) and give the
   per-layer metrics, the untraced ones the tracing overhead.
4. Checks, outside the timed phase: every output against its oracle, and a
   bit-reproducibility check across worker counts.

The last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  ``failed``
counts the failed calls other than those through a defect that
``workloads.known_defect`` records for the parent commit; those are printed as
``KNOWN DEFECT`` lines and counted in the printed ``ops_failed_frac``.
``correct`` is false when ``failed`` is not 0.
Spans go to .perfbench_work/traces/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

NPROC = len(os.sched_getaffinity(0))

# Thread environment of each workload, set before numpy loads.  Pool workers
# times BLAS threads per process stay within nproc: the parent waits while a
# pool runs.  BLAS runs one thread everywhere: on 2 shared cores a second
# OpenBLAS thread made the replica calls about 30% slower, twice the CPU and
# much noisier, and it caused the cold first-call stalls in set-up.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
THREAD_ENV = {
    "ensemble": {"REPLICA_LAB_THREADS": None, **_ONE_BLAS_THREAD},
    "cli_parallel": {"REPLICA_LAB_THREADS": "2", **_ONE_BLAS_THREAD},
    "replica_moments": {"REPLICA_LAB_THREADS": None, **_ONE_BLAS_THREAD},
}
SETUP_PROCESSES = 5
# A first call slower than the warm repeat by more than this is a cold stall.
STALL_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    from tracing import CLI_COMMANDS, REPLICA_ORDERS
    from workloads import REPLICA_POINTS

    units = {
        "simulate.noise.draws": "count",
        "simulate.noise.busy_s": "s",
        "simulate.noise.draws_per_s": "1/s",
        "simulate.kernel.self_s": "s",
        "simulate.kernel.traj_steps_per_s": "1/s",
        "simulate.traj_steps_per_s": "1/s",
        "simulate.run.traj_steps": "count",
        "simulate.pool.tasks": "count",
        "simulate.pool.children_cpu_s": "s",
        "simulate.pool.utilization": "ratio",
        "simulate.max_norm_drift": "1",
    }
    for func, orders in REPLICA_ORDERS.items():
        for n in orders:
            units[f"replica.{func}.n{n}.p50_s"] = "s"
    units["replica.moment_decay_rates.p50_s"] = "s"
    units.update({
        "replica.build_generator.busy_s": "s",
        "replica.evolve.busy_s": "s",
        "replica.self_s": "s",
    })
    for point in REPLICA_POINTS:
        units[f"replica.max_abs_dev.{point}"] = "1"
    units.update({"stats.busy_s": "s", "stats.ks_uniform.busy_s": "s", "model.busy_s": "s"})
    for cmd in CLI_COMMANDS:
        units[f"cli.main.{cmd}.busy_s"] = "s"
    units.update({
        "cli.self_s": "s",
        "cli.bytes_written": "bytes",
        "bench.self_s": "s",
        "setup.import_s": "s",
        "setup.first_call_s": "s",
        "setup.cold_stall_count": "count",
        "trace.wall_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREAD_ENV))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up process")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _cpu_now() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "replica_lab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def host_record(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": NPROC,
        "caches": _cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "REPLICA_LAB_THREADS")},
    }


def thread_check(workload, ops: list) -> None:
    """Pool workers times BLAS threads per process must not exceed nproc."""
    from workloads import Op

    blas = int(os.environ.get("OPENBLAS_NUM_THREADS") or NPROC)
    busy = max(workload.workers * blas, blas)
    ops.append(Op("env.threads", 0.0, verdicts=[
        (f"{workload.workers} workers x {blas} BLAS threads <= nproc {NPROC}", busy <= NPROC, busy)
    ]))


def run_setup(name: str, seed: int, work: Path, count: int, ops: list) -> list:
    """Fresh processes, one after another; returns their timing records."""
    from workloads import Op

    records = []
    for i in range(count):
        start = time.perf_counter()
        cmd = [sys.executable, str(HERE / "setup_child.py"), "--workload", name,
               "--seed", str(seed), "--work-dir", str(work / f"setup{i}")]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
            error = "" if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-400:]}"
        except subprocess.TimeoutExpired:
            error = "timed out"
        wall = time.perf_counter() - start
        ops.append(Op("setup.process", wall, error=error))
        if not error:
            records.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return records


@dataclass
class Round:
    wall: float
    cpu: float
    traced: bool
    ops: list


def timed_phase(workload, seconds: float, tracer) -> tuple[list, list]:
    """Rounds until the next one would overrun; with a tracer, untraced and traced alternate."""
    rounds, roots = [], []
    start = time.perf_counter()
    per_pair = 2 if tracer else 1
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            roots.append(tracer.open("bench.round", "bench"))
        cpu0, t0 = _cpu_now(), time.perf_counter()
        ops = workload.round(len(rounds))
        wall, cpu = time.perf_counter() - t0, _cpu_now() - cpu0
        if traced:
            tracer.close(roots[-1])
            tracer.uninstall()
        rounds.append(Round(wall, cpu, traced, ops))
        elapsed = time.perf_counter() - start
        if len(rounds) % per_pair == 0 and elapsed + per_pair * wall > seconds:
            return rounds, roots


def _median(values) -> float:
    return float(statistics.median(values))


def _max_abs_dev(ops: list) -> dict:
    from workloads import REPLICA_POINTS

    worst = {point: 0.0 for point in REPLICA_POINTS}
    for op in ops:
        point = op.tags.get("point")
        if point not in worst:
            continue
        for _, _, dev in op.verdicts:
            if isinstance(dev, float):
                worst[point] = max(worst[point], dev)
    return worst


def measure(args: argparse.Namespace, work: Path) -> int:
    # numpy and the package load here, after main() set the thread environment
    import numpy as np

    import tracing
    import workloads

    host = host_record(args.workload, args.seed)
    print("host " + json.dumps(host, sort_keys=True))

    extra_ops: list = []
    workload = workloads.WORKLOADS[args.workload](args.seed, work / "calls", smoke=args.smoke)
    thread_check(workload, extra_ops)
    setups = run_setup(args.workload, args.seed, work, 1 if args.smoke else SETUP_PROCESSES, extra_ops)
    workloads.call(extra_ops, "warm-up", workload.first_calls)

    tracer = tracing.Tracer() if args.trace else None
    rounds, roots = timed_phase(workload, args.seconds, tracer)

    timed_ops = [op for r in rounds for op in r.ops]
    extra_ops += workload.extra_ops()
    all_ops = timed_ops + extra_ops
    for op in all_ops:
        op.run_check()
    failed = [op for op in all_ops if op.failed]
    unexpected = [op for op in failed if not workloads.known_defect(op)]

    plain = [r for r in rounds if not r.traced]
    plain_ops = [op.latency for r in plain for op in r.ops]
    setup_totals = [s["import_s"] + s["first_call_s"] for s in setups]
    stalls = sum(1 for s in setups if s["first_call_s"] - s["warm_call_s"] > STALL_S)
    if not setup_totals:  # every set-up process failed; report their wall time
        setup_totals = [op.latency for op in extra_ops if op.name == "setup.process"]

    def line(name, value, unit, note=""):
        print(f"metric {name} = {value:.6g} {unit}{'  (' + note + ')' if note else ''}")

    print(f"workload {args.workload}: {len(rounds)} rounds in the timed phase "
          f"({sum(r.wall for r in rounds):.2f} s), {len(timed_ops)} calls, one closed-loop client")
    if args.trace == 0:
        metrics = {
            "setup_s": _median(setup_totals),
            "wall_s": _median([r.wall for r in plain]),
            "cpu_s": _median([r.cpu for r in plain]),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
        notes = {
            "setup_s": f"median of {len(setup_totals)} fresh processes, {stalls} cold stalls",
            "wall_s": f"median of {len(plain)} rounds",
            "cpu_s": f"median of {len(plain)} rounds, self + reaped children",
        }
    else:
        spans = tracer.spans
        metrics = tracing.per_layer(spans, roots)
        metrics.update({
            "setup.import_s": _median([s["import_s"] for s in setups] or [0.0]),
            "setup.first_call_s": _median([s["first_call_s"] for s in setups] or [0.0]),
            "setup.cold_stall_count": float(stalls),
            "trace.overhead_frac": _median([r.wall for r in rounds if r.traced])
            / _median([r.wall for r in plain]) - 1.0,
            "cli.bytes_written": _median([
                sum(workloads.bytes_written(op.tags["out_dir"]) for op in r.ops if "out_dir" in op.tags)
                for r in rounds
            ]),
        })
        for point, dev in _max_abs_dev(all_ops).items():
            metrics[f"replica.max_abs_dev.{point}"] = dev
        shares = " + ".join(f"{layer} {metrics[f'self.{layer}']:.4g}" for layer in tracing.LAYERS)
        print(f"self time by layer, median traced round: {shares} = {metrics['trace.wall_s']:.4g} s")
        units = per_layer_units()
        metrics = {name: metrics[name] for name in units}
        notes = {
            "simulate.kernel.self_s": "parent side only: pool workers are not traced",
            "simulate.noise.draws": "in-process draws only",
            "trace.overhead_frac": f"{len(roots)} traced vs {len(plain)} untraced rounds",
        }
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"host": host, "metrics": metrics, "roots": roots,
                                          "spans": tracer.dump()}))
        print(f"trace: {len(spans)} spans written to {trace_file.relative_to(ROOT)}")
    for name, unit in units.items():
        line(name, metrics[name], unit, notes.get(name, ""))
    if args.trace == 0:
        # Per-call latency, printed only: a run has 10-30 calls on ensemble and
        # cli_parallel, too few for a p90, and the calls of a round differ in
        # kind, so a percentile lands on the edge between two kinds and jumps
        # between runs (it spread 26% on cli_parallel where wall_s spread 19%).
        for q in (50, 90):
            line(f"op_p{q}_s", float(np.percentile(plain_ops, q)), "s", f"{len(plain_ops)} calls")
    line("ops_failed_frac", len(failed) / len(all_ops), "ratio",
         f"{len(failed)} of {len(all_ops)} calls, {len(failed) - len(unexpected)} through known defects")
    for op in failed:
        reason = workloads.known_defect(op)
        label = f"KNOWN DEFECT {op.name} [{reason}]" if reason else f"FAILED {op.name}"
        print(f"{label}: {op.failure()[:300]}")

    result = {
        "correct": not unexpected,
        "attempted": len(all_ops),
        "failed": len(unexpected),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "replica_lab" / "__init__.py").is_file():
        print(f"run.py: no replica_lab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for key, value in THREAD_ENV[args.workload].items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
