"""Print every metric of every workload in one go.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Runs perfbench/run.py for each workload, once with tracing off (end-to-end
metrics, fail rate and reasons, p90 where a run has 100 calls) and once with
tracing on (per-layer metrics and tracing overhead), each in a fresh process,
and prints their readable lines.  Exits 1 if any run failed.
"""

import argparse
import os
import subprocess
import sys

from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run([sys.executable, RUN, "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)], capture_output=True, text=True)
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            if done.returncode:
                print(done.stderr, file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
