"""Print every end-to-end and per-layer metric of every workload, with units.

Run from the root of a source checkout:

    python3 perfbench/report.py --seed 1 --seconds 45

Each workload runs twice through ``run.py``: untraced for the end-to-end
metrics, traced for the per-layer ones.  Exits non-zero if a run fails or
reports a failed check.
"""

import argparse
import json
import os
import subprocess
import sys

from run import HERE, load_spec


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args()
    status = 0
    for workload in (w["name"] for w in load_spec()["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: run failed ({proc.returncode})")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                status = 1
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
