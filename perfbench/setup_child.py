"""One fresh-process set-up measurement; run by run.py, prints one JSON line.

usage: python3 perfbench/setup_child.py --workload NAME --seed N --work-dir DIR

Times the import of replica_lab, then the first call into each entry point the
workload uses (cold: first LAPACK call, first pool spawn), then the same calls
again (warm).  PYTHONPATH must name the checkout's ``src``.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import replica_lab.cli  # noqa: F401  (imports every module of the package)
    import_s = time.perf_counter() - start

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.work_dir))
    start = time.perf_counter()
    workload.first_calls()
    first_call_s = time.perf_counter() - start
    start = time.perf_counter()
    workload.first_calls()
    warm_call_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "first_call_s": first_call_s, "warm_call_s": warm_call_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
