"""discflux benchmark: one workload, one seed, one measurement window.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 45 --trace 0

Workloads are described in ``perfbench/workloads.py``.  With ``--trace 0``
the result carries the end-to-end metrics:

- ``wall_s``: median wall time of one operation, tracing off;
- ``cell_updates_per_s``: cell updates of one operation over ``wall_s``;
- ``peak_rss_mb``: peak resident memory of the measuring process;
- ``setup_s``: median, over several fresh interpreters, of the time to start
  Python, import discflux and build the workload's inputs.

``setup_s`` and the Python-bound parts of ``wall_s`` are scaled to
reference host speed with a calibration kernel timed next to them
(``perfbench/calibrate.py``).  The raw medians are printed and recorded too.

With ``--trace 1`` it carries the per-layer metrics of a traced run (see
``perfbench/spans.py``) and the tracing overhead.  Every process runs
single-threaded (BLAS thread variables pinned to 1).  The environment record,
every operation's wall time, the output digests and any failed check go to
``.perfbench_out/`` in the checkout; the last line of standard output is the
JSON result.

``python3 perfbench/run.py --record-digests`` rewrites the reference output
digests in ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 4
TIME_LIMIT_S = 170.0

def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


# {{{ environment record


def _read(path, default=None):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return default


def commit():
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    value = _read(os.path.join(ROOT, ".git", ref))
    if value:
        return value
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs"), "") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "discflux", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def machine():
    cpu = None
    for line in (_read("/proc/cpuinfo", "") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(os.path.join(index, "level")), _read(os.path.join(index, "type"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(index, "size"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "thread_vars": {var: "1" for var in THREAD_VARS},
    }


# }}}


def time_setup(workload, seed, env):
    """Median set-up time over fresh processes, scaled to reference speed.

    The median of four leaves out the first probe in a fresh checkout, which
    also compiles the bytecode caches.
    """
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    times, scaled = [], []
    kernel = calibrate.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
        before, kernel = kernel, calibrate.kernel_seconds()
        scaled.append(times[-1] * calibrate.factor(before, kernel))
    return statistics.median(scaled), times


def load_spec():
    """Workload names and metric units, as ``BENCHMARK.json`` declares them."""
    with open(SPEC) as fh:
        return json.load(fh)


def main(argv=None):
    started = perf_counter()
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="Run one discflux benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite perfbench/digests.json from this checkout")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "discflux", "__init__.py")):
        sys.exit(f"no discflux sources under {SRC}; run from the root of a checkout")
    env = child_env()
    measure_cmd = [sys.executable, os.path.join(HERE, "measure.py")]
    workdir = os.path.join(OUT, "work")

    if args.record_digests:
        proc = subprocess.run(measure_cmd + ["--record-digests", DIGESTS, "--workdir", workdir],
                              env=env, cwd=ROOT, timeout=TIME_LIMIT_S)
        return proc.returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    setup_s = setup_times = None
    if not args.trace:
        setup_s, setup_times = time_setup(args.workload, args.seed, env)

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = measure_cmd + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--digests", DIGESTS,
        "--spans", os.path.join(OUT, f"spans-{args.workload}.csv"),
    ]
    remaining = TIME_LIMIT_S - (perf_counter() - started)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"measurement exceeded {TIME_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        sys.exit(f"measurement process failed with exit code {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_sha256": source_digest(),
        "machine": machine(), "setup_times_s": setup_times, **child,
    }
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    if args.trace:
        values = child["per_layer"]
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": child["wall_s"],
            "cell_updates_per_s": child["cell_updates_per_op"] / child["wall_s"],
            "peak_rss_mb": child["peak_rss_mb"],
            "setup_s": setup_s,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"# commit {record['commit']} source {record['source_sha256'][:16]} "
          f"versions {json.dumps(child['versions'])} machine {json.dumps(record['machine'])}")
    print(f"# {args.workload}: {child['attempted']} ops, {child['failed']} failed, "
          f"{len(child['walls_s'])} timed")
    for key, value in child.get("phases_s", {}).items():
        print(f"# {key} {value:.6g} s (median per op)")
    for key, metric in metrics.items():
        print(f"# {key} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"# raw medians: wall {child['wall_raw_s']:.6g} s, "
              f"set-up {statistics.median(setup_times):.6g} s; calibration kernel "
              f"{statistics.median(child['kernels_s']):.6g} s "
              f"(reference {calibrate.REFERENCE_S} s)")
    if child["digest_mismatches"]:
        print(f"# output digests differ from the reference: {child['digest_mismatches']}")
    for name in child.get("silent_layers", []):
        print(f"# WARNING: expected layer {name} recorded no calls")
    for failure in child["failures"]:
        print(f"# FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
