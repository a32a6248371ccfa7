"""Measurement process for one workload; started by ``run.py``.

Runs one traced warm-up operation (exact counters, no raw spans), then the
timed operations until ``--seconds`` have passed: untraced ones with
``--trace 0``; untraced and traced ones in turn with ``--trace 1``.  The
calibration kernel (``calibrate.py``) runs before the first and after every
operation.  In each untraced time, the Python-bound parts are scaled to
reference host speed with the kernel times on either side.  Every operation's outputs are
checked and digested outside the timed region.  The last line of standard
output is a JSON record for ``run.py``.

``--record-digests FILE`` instead runs each workload's reference operation
once and writes the output digests that later runs compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import discflux  # noqa: E402

if not os.path.abspath(discflux.__file__).startswith(SRC + os.sep):
    sys.exit(f"discflux was imported from {discflux.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# The seed whose digests are recorded for seeded workloads.
REFERENCE_SEED = 0
MIN_OPS = 3


def run_op(workload, seed, workdir, tracer=None):
    """Build and execute once; returns (wall seconds, outcome)."""
    start = perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        try:
            inputs = workload.build(seed)
            result = workload.execute(inputs, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = perf_counter() - start
    except Exception:
        wall = perf_counter() - start
        outcome = workloads.Outcome(failures=["raised:\n" + traceback.format_exc()])
        return wall, outcome
    try:
        outcome = workload.check(inputs, result)
    except Exception:
        outcome = workloads.Outcome(failures=["check raised:\n" + traceback.format_exc()])
    del result
    return wall, outcome


class Ledger:
    """Operations attempted and failed, digests seen, failures kept."""

    def __init__(self, expected_digests):
        self.expected = expected_digests
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_digests = None
        self.mismatches = []

    def record(self, outcome, reference: bool, repeat: bool = True):
        """Count one operation; ``repeat`` marks the run's own inputs."""
        self.attempted += 1
        if outcome.failures:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.extend(outcome.failures)
        if repeat and self.first_digests is None:
            self.first_digests = dict(outcome.digests)
        elif repeat:
            # the same inputs must give the same outputs within a run
            for key, value in outcome.digests.items():
                if self.first_digests.get(key) != value and f"repeat:{key}" not in self.mismatches:
                    self.mismatches.append(f"repeat:{key}")
        if reference and self.expected is not None:
            for key, value in outcome.digests.items():
                if self.expected.get(key) != value and key not in self.mismatches:
                    self.mismatches.append(key)


def layer_metrics(tracer, counters) -> dict:
    """Per-operation layer figures from one traced operation."""
    agg = tracer.aggregates
    counts = tracer.counts

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    cells = counts.get("solver.cell_updates", 0)
    march_s = incl("solver.run") + counts.get("solver.standalone_step_s", 0.0)
    custom_calls = counts.get("fluxes.invert.custom_calls", 0)
    return {
        "solver.step.calls": calls("solver.step"),
        "solver.step.self_s": self_s("solver.step"),
        "solver.step.us_per_call": 1e6 * incl("solver.step") / max(calls("solver.step"), 1),
        "solver.run.calls": calls("solver.run"),
        "solver.run.self_s": self_s("solver.run"),
        "solver.steps": counts.get("solver.steps", 0),
        "solver.cell_updates": cells,
        "solver.ns_per_cell_update": 1e9 * march_s / max(cells, 1),
        "solver.retained_bytes": counts.get("solver.retained_bytes", 0),
        "fluxes.invert.calls": calls("fluxes.invert"),
        "fluxes.invert.self_s": self_s("fluxes.invert"),
        "fluxes.invert.evals_per_call":
            counts.get("fluxes.invert.custom_evals", 0) / max(custom_calls, 1),
        "fluxes.invert.max_flux_residual": counters.get("fluxes.invert.max_flux_residual", 0.0),
        "fluxes.invert_near.calls": calls("fluxes.invert_near"),
        "fluxes.deriv_bounds.calls": calls("fluxes.deriv_bounds"),
        "fluxes.deriv_bounds.self_s": self_s("fluxes.deriv_bounds"),
        "fluxes.invariant_interval.s": incl("fluxes.invariant_interval"),
        "fluxes.custom.scalar_evals": counters.get("fluxes.custom.scalar_evals", 0),
        "analysis.entropy_residual.s": incl("analysis.entropy_residual"),
        "analysis.flux_lipschitz_in_space.s": incl("analysis.flux_lipschitz_in_space"),
        "analysis.spatial_tv.s": incl("analysis.spatial_tv"),
        "analysis.l1_error.s": incl("analysis.l1_error"),
        "cli.cmd_run.self_s": self_s("cli.cmd_run"),
        "cli.cmd_run.bytes_written": counters.get("cli.cmd_run.bytes_written", 0),
        "cli.convergence_report.s": incl("cli.convergence_report"),
        "cli.cmd_verify.s": incl("cli.cmd_verify"),
        "config.build.s": spans.top_level_seconds(tracer.spans, "config."),
        "grid.build_grid.s": incl("grid.build_grid"),
        "grid.cell_average.s": incl("grid.cell_average"),
    }


def measure(workload, seed, seconds, trace, workdir, expected, spans_path):
    ledger = Ledger(expected)

    # warm-up: fills caches and lazy set-up, and counts the work of one op
    counter = spans.Tracer(keep_spans=False)
    _, outcome = run_op(workload, seed, workdir, counter)
    ledger.record(outcome, reference=not workload.seeded)
    counts = dict(counter.counts)

    plain, scaled, traced, phases = [], [], [], []
    kernels = [calibrate.kernel_seconds()]
    per_layer = []
    silent = []
    window = perf_counter()
    while perf_counter() - window < seconds or len(plain) < MIN_OPS:
        wall, outcome = run_op(workload, seed, workdir)
        kernels.append(calibrate.kernel_seconds())
        ledger.record(outcome, reference=not workload.seeded)
        plain.append(wall)
        # only the Python-bound parts follow the kernel's drift
        python_s = sum(outcome.phases.get(f"{part.name}_s", 0.0)
                       for part in workload.parts if part.python_bound)
        scaled.append(wall + python_s * (calibrate.factor(kernels[-2], kernels[-1]) - 1.0))
        phases.append(outcome.phases)
        if trace:
            tracer = spans.Tracer()
            wall, outcome = run_op(workload, seed, workdir, tracer)
            ledger.record(outcome, reference=not workload.seeded)
            traced.append(wall)
            per_layer.append(layer_metrics(tracer, outcome.counters))
            if len(traced) == 1:
                silent = [name for name in workload.expected_layers
                          if name not in tracer.aggregates]
                write_spans(spans_path, tracer.spans)
            kernels.append(calibrate.kernel_seconds())
    if workload.seeded:
        _, outcome = run_op(workload, REFERENCE_SEED, workdir)
        ledger.record(outcome, reference=True, repeat=False)

    record = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "digests": ledger.first_digests,
        "digest_mismatches": ledger.mismatches,
        "walls_s": plain,
        "wall_raw_s": statistics.median(plain),
        "wall_s": statistics.median(scaled),
        "kernels_s": kernels,
        "cell_updates_per_op": counts.get("solver.cell_updates", 0),
        "steps_per_op": counts.get("solver.steps", 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "phases_s": {key: statistics.median(p[key] for p in phases if key in p)
                     for key in dict.fromkeys(k for p in phases for k in p)},
    }
    if trace:
        layers = {key: statistics.median(m[key] for m in per_layer) for key in per_layer[0]}
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        layers["host.kernel_s"] = statistics.median(kernels)
        layers["trace.silent_layers"] = len(silent)
        layers["digest.mismatches"] = len(ledger.mismatches)
        record["per_layer"] = layers
        record["traced_walls_s"] = traced
        record["silent_layers"] = silent
    return record


def write_spans(path, recorded):
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_s,end_s\n")
        origin = recorded[0][3] if recorded else 0.0
        for sid, parent, name, start, end in sorted(recorded):
            fh.write(f"{sid},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")


def versions():
    import scipy
    import yaml

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "PyYAML": yaml.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--digests", help="JSON file of expected digests")
    parser.add_argument("--spans", help="CSV file for the spans of one traced op")
    parser.add_argument("--record-digests", metavar="FILE")
    args = parser.parse_args(argv)

    if args.record_digests:
        os.makedirs(args.workdir, exist_ok=True)
        table = {}
        for name, workload in workloads.WORKLOADS.items():
            _, outcome = run_op(workload, REFERENCE_SEED, args.workdir)
            if outcome.failures:
                sys.exit(f"{name}: " + "\n".join(outcome.failures))
            table[name] = outcome.digests
        with open(args.record_digests, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    workload = workloads.WORKLOADS[args.workload]
    expected = None
    if args.digests and os.path.exists(args.digests):
        with open(args.digests) as fh:
            expected = json.load(fh).get(workload.name)
    os.makedirs(args.workdir, exist_ok=True)
    record = measure(workload, args.seed, args.seconds, args.trace, args.workdir,
                     expected, args.spans)
    record["versions"] = versions()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
