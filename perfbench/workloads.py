"""The benchmark's workloads: inputs, the timed operation, and its checks.

A workload is one or more parts run one after the other as one timed
operation, repeated for the measurement window.  The parts:

- ``paper_tables``: ``convergence`` and ``verify`` for both presets, called
  the way the CLI calls them.  Per-step Python overhead at n <= 2048
  dominates it.
- ``fine_grid``: ``discflux run`` for experiment1 at n=16384 (CSV snapshots
  and ``meta.json`` into a temporary directory) plus ``run`` for experiment2 at
  the same n.  Kernel throughput and output writing dominate it.
- ``diagnostics``: experiment1 at n=1024 with every level retained, then the
  entropy residual, the flux Lipschitz quotient and the variation
  diagnostics of ``analysis``.
- ``custom_multi``: three interfaces with a linear, a Burgers, a custom and a
  concave quadratic law and a tabulated inflow trace, drawn from the seed.
  Numerical inversion and derivative bounds dominate it; the presets invert
  in closed form.

The ``presets`` workload runs the first three, ``custom_multi`` the last.
A part's ``build(seed)`` makes its inputs (the set-up a fresh process pays)
and ``execute(inputs, workdir)`` does the rest; the timed operation is both.
``check(inputs, result)`` runs outside the timed region and returns the
failed checks, the output digests and the exact counters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from discflux import analysis, cli, config as dconfig, fluxes, grid as dgrid, solver

PRESETS = ("experiment1", "experiment2")

# Expected error tables and tolerances of tests/test_acceptance.py at the
# commit that defined this benchmark; the tables must not move.
EXPECTED_ERRORS = {
    "experiment1": (1.751e-01, 1.256e-01, 8.865e-02, 5.918e-02,
                    3.637e-02, 1.978e-02, 8.145e-03),
    "experiment2": (2.771e-01, 1.823e-01, 1.261e-01, 8.390e-02,
                    5.125e-02, 2.780e-02, 1.132e-02),
}
EXPECTED_RATES = {
    "experiment1": (0.48, 0.50, 0.58, 0.70, 0.88, 1.28),
    "experiment2": (0.60, 0.53, 0.59, 0.71, 0.88, 1.30),
}
EXPECTED_RESOLUTIONS = (16, 32, 64, 128, 256, 512, 1024)
ERROR_RTOL = 0.10
RATE_ATOL = 0.1

# Relative residual at which ``fluxes.invert`` documents that it stops.
INVERT_RTOL = 1e-12
# verify's limits for the entropy residual and the per-subdomain TV excess.
ENTROPY_LIMIT = 1e-12
TVD_LIMIT = 1e-12

FINE_N = 16384
CUSTOM_N = 2048
DIAG_N = 1024


@dataclass
class Outcome:
    """What the checks of one operation found."""

    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)

    def require(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)


def sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        elif isinstance(part, str):
            h.update(part.encode())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def state_digest(state) -> str:
    return sha256(state.u, float(state.t), int(state.step))


def _check_state(out: Outcome, label: str, u: np.ndarray, u_range):
    lo, hi = u_range
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    out.require(bool(np.all(np.isfinite(u))), f"{label}: non-finite values")
    out.require(
        bool(np.all(u >= lo - slack) and np.all(u <= hi + slack)),
        f"{label}: values [{u.min():.17g}, {u.max():.17g}] leave the invariant "
        f"interval [{lo:.17g}, {hi:.17g}]",
    )


def flux_residual(model, grid, u: np.ndarray) -> float:
    """Largest interface flux mismatch, relative to ``invert``'s stop scale.

    At interface ``i`` the law on the right must reproduce the flux of the
    left neighbour under the law on the left.  ``invert`` stops once
    ``|f_right(u) - w| <= 1e-12 * max(1, |w|)``, so a value at most 1 means
    every interface met that stop.
    """
    worst = 0.0
    for i, p in enumerate(grid.interface_cells):
        w = float(model.segments[i](u[p - 1]))
        got = float(model.segments[i + 1](u[p]))
        worst = max(worst, abs(got - w) / (INVERT_RTOL * max(1.0, abs(w))))
    return worst


def _check_residual(out: Outcome, model, grid, states):
    worst = max(flux_residual(model, grid, s.u) for s in states)
    key = "fluxes.invert.max_flux_residual"
    out.counters[key] = max(out.counters.get(key, 0.0), worst * INVERT_RTOL)
    out.require(worst <= 1.0,
                f"interface flux residual {worst * INVERT_RTOL:.3e} (relative) "
                f"exceeds invert's documented stop {INVERT_RTOL:g}")


# {{{ paper_tables


def build_paper_tables(seed):
    return {name: dconfig.preset(name) for name in PRESETS}


def execute_paper_tables(inputs, workdir):
    result = {}
    for name, config in inputs.items():
        table, report = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(table):
            conv_code = cli.cmd_convergence(config)
        t1 = perf_counter()
        with contextlib.redirect_stdout(report):
            verify_code = cli.cmd_verify(config)
        t2 = perf_counter()
        result[name] = {
            "convergence_code": conv_code, "table": table.getvalue(),
            "verify_code": verify_code, "verify": report.getvalue(),
            "convergence_s": t1 - t0, "verify_s": t2 - t1,
        }
    return result


def check_paper_tables(inputs, result) -> Outcome:
    out = Outcome()
    out.phases["convergence_s"] = sum(r["convergence_s"] for r in result.values())
    out.phases["verify_s"] = sum(r["verify_s"] for r in result.values())
    for name, r in result.items():
        out.require(r["convergence_code"] == 0, f"{name}: convergence exit {r['convergence_code']}")
        out.require(r["verify_code"] == 0,
                    f"{name}: verify exit {r['verify_code']}:\n{r['verify']}")
        rows = [line.split(",") for line in r["table"].strip().splitlines()[1:]]
        ns = tuple(int(row[0]) for row in rows)
        errors = np.asarray([float(row[1]) for row in rows])
        rates = np.asarray([float(row[2]) for row in rows[1:]])
        out.require(ns == EXPECTED_RESOLUTIONS, f"{name}: resolutions {ns}")
        if ns == EXPECTED_RESOLUTIONS:
            err_dev = float(np.max(np.abs(errors / EXPECTED_ERRORS[name] - 1.0)))
            rate_dev = float(np.max(np.abs(rates - EXPECTED_RATES[name])))
            out.require(err_dev <= ERROR_RTOL,
                        f"{name}: error table deviates by {err_dev:.2%}")
            out.require(rate_dev <= RATE_ATOL,
                        f"{name}: rates deviate by {rate_dev:.3f}")
        out.digests[f"{name}.table"] = sha256(r["table"])
        out.digests[f"{name}.verify"] = sha256(r["verify"])
    return out


# }}}


# {{{ fine_grid


def build_fine_grid(seed):
    config1 = dconfig.preset("experiment1")
    config2 = dconfig.preset("experiment2")
    return {
        "config1": config1,
        "config2": config2,
        "problem2": dconfig.build_problem(config2),
        "grid2": dgrid.build_grid(config2.xmin, config2.xmax, FINE_N, config2.interfaces),
        "model2": dconfig.build_model(config2),
        "solver2": dconfig.build_solver_config(config2),
    }


def execute_fine_grid(inputs, workdir):
    out_dir = tempfile.mkdtemp(prefix="fine_grid-", dir=workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.cmd_run(inputs["config1"], FINE_N, out_dir)
    trajectory = solver.run(inputs["problem2"], inputs["grid2"], inputs["model2"],
                            inputs["solver2"], snapshot_times=inputs["config2"].snapshots)
    return {"code": code, "out_dir": out_dir, "trajectory": trajectory}


def check_fine_grid(inputs, result) -> Outcome:
    out = Outcome()
    out_dir = result["out_dir"]
    try:
        out.require(result["code"] == 0, f"cmd_run exit {result['code']}")
        config1 = inputs["config1"]
        model1 = dconfig.build_model(config1)
        grid1 = dgrid.build_grid(config1.xmin, config1.xmax, FINE_N, config1.interfaces)
        range1 = fluxes.invariant_interval(model1, dconfig.data_range(config1))
        names = sorted(os.listdir(out_dir))
        expected = sorted([f"snapshot_t{t:g}.csv" for t in config1.snapshots] + ["meta.json"])
        out.require(names == expected, f"cmd_run wrote {names}, expected {expected}")
        written = 0
        snapshots = []
        for fname in names:
            with open(os.path.join(out_dir, fname), "rb") as fh:
                data = fh.read()
            written += len(data)
            out.digests[f"experiment1.{fname}"] = sha256(data)
            if fname.endswith(".csv"):
                lines = data.decode().splitlines()
                out.require(len(lines) == FINE_N + 1,
                            f"{fname}: {len(lines) - 1} data rows, expected {FINE_N}")
                u = np.asarray([float(line.split(",")[1]) for line in lines[1:]])
                _check_state(out, f"experiment1 {fname}", u, range1)
                snapshots.append(solver.State(u, 0.0, 0))
            else:
                meta = json.loads(data)
                out.require(meta.get("n") == FINE_N, f"meta.json n={meta.get('n')}")
        out.counters["cli.cmd_run.bytes_written"] = written

        trajectory = result["trajectory"]
        config2, model2, grid2 = inputs["config2"], inputs["model2"], inputs["grid2"]
        range2 = fluxes.invariant_interval(model2, dconfig.data_range(config2))
        states2 = [trajectory.final] + [s.state for s in trajectory.snapshots]
        for k, state in enumerate(states2):
            _check_state(out, f"experiment2 state {k}", state.u, range2)
        out.digests["experiment2.final"] = state_digest(trajectory.final)
        if snapshots:
            _check_residual(out, model1, grid1, snapshots)
        _check_residual(out, model2, grid2, states2)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return out


# }}}


# {{{ custom_multi

CUSTOM_INTERFACES = (-0.5, 0.0, 0.5)
CUSTOM_LAM = 0.3
CUSTOM_T_END = 0.6
CUSTOM_SNAPSHOTS = (0.2, 0.4, 0.6)
# Box the seed draws the datum and the trace from.  Its invariant interval is
# about [0.063, 2.0]: every law increases there and lam * max speed is 0.6.
CUSTOM_BOX = (0.5, 2.0)
CUSTOM_PIECES = 8
CUSTOM_TRACE_POINTS = 13


class CountingLaw:
    """The custom law ``u + 0.1 sin u``, counting evaluations at scalars."""

    def __init__(self):
        self.scalar_evals = 0

    def __call__(self, u):
        if not isinstance(u, np.ndarray):
            self.scalar_evals += 1
        return u + 0.1 * np.sin(u)

    @staticmethod
    def deriv(u):
        return 1.0 + 0.1 * np.cos(u)


def custom_inputs(seed):
    """Piecewise-constant datum and inflow samples drawn from the box."""
    rng = np.random.default_rng(abs(seed))
    lo, hi = CUSTOM_BOX
    breakpoints = np.sort(rng.uniform(-0.95, 0.95, CUSTOM_PIECES - 1))
    values = rng.uniform(lo, hi, CUSTOM_PIECES)
    times = np.linspace(0.0, CUSTOM_T_END, CUSTOM_TRACE_POINTS)
    trace = rng.uniform(lo, hi, CUSTOM_TRACE_POINTS)
    return tuple(breakpoints), tuple(values), times, trace


def build_custom_multi(seed):
    breakpoints, values, times, trace = custom_inputs(seed)
    law = CountingLaw()
    model = fluxes.PiecewiseFlux(CUSTOM_INTERFACES, (
        fluxes.linear_flux(1.0),
        fluxes.quadratic_flux(1.0, 0.0, interval=(0.05, 4.0)),
        fluxes.custom_flux(law, law.deriv, interval=(0.0, 4.0)),
        fluxes.quadratic_flux(-0.2, 2.0, interval=(0.0, 4.0)),
    ))
    return {
        "law": law,
        "model": model,
        "grid": dgrid.build_grid(-1.0, 1.0, CUSTOM_N, CUSTOM_INTERFACES),
        "problem": solver.ProblemSpec((-1.0, 1.0), dgrid.PiecewiseConstant(breakpoints, values)),
        "solver": solver.SolverConfig(
            lam=CUSTOM_LAM, t_end=CUSTOM_T_END,
            left=solver.Inflow(dgrid.SampledTable(times, trace)),
        ),
        "data_range": (min(min(values), trace.min()), max(max(values), trace.max())),
    }


def execute_custom_multi(inputs, workdir):
    return solver.run(inputs["problem"], inputs["grid"], inputs["model"], inputs["solver"],
                      snapshot_times=CUSTOM_SNAPSHOTS)


def check_custom_multi(inputs, trajectory) -> Outcome:
    out = Outcome()
    model, grid = inputs["model"], inputs["grid"]
    u_range = fluxes.invariant_interval(model, inputs["data_range"])
    states = [trajectory.final] + [s.state for s in trajectory.snapshots]
    out.require(len(trajectory.snapshots) == len(CUSTOM_SNAPSHOTS),
                f"{len(trajectory.snapshots)} snapshots, expected {len(CUSTOM_SNAPSHOTS)}")
    for k, state in enumerate(states):
        _check_state(out, f"state {k}", state.u, u_range)
    _check_residual(out, model, grid, states)
    out.counters["fluxes.custom.scalar_evals"] = inputs["law"].scalar_evals
    out.digests["final"] = state_digest(trajectory.final)
    for snap in trajectory.snapshots:
        out.digests[f"snapshot_t{snap.requested:g}"] = state_digest(snap.state)
    return out


# }}}


# {{{ diagnostics


def build_diagnostics(seed):
    config = dconfig.preset("experiment1")
    return {
        "config": config,
        "model": dconfig.build_model(config),
        "problem": dconfig.build_problem(config),
        "grid": dgrid.build_grid(config.xmin, config.xmax, DIAG_N, config.interfaces),
        "solver": dconfig.build_solver_config(config),
    }


def execute_diagnostics(inputs, workdir):
    model, grid = inputs["model"], inputs["grid"]
    trajectory = solver.run(inputs["problem"], grid, model, inputs["solver"],
                            retain_levels=True, record_increments=True)
    lo, hi = fluxes.invariant_interval(model, dconfig.data_range(inputs["config"]))
    entropy = analysis.entropy_residual(trajectory, grid, model, np.linspace(lo, hi, 17))
    lipschitz = analysis.flux_lipschitz_in_space(trajectory, grid, model)
    n_sub = model.n_interfaces + 1
    tv = np.asarray([[analysis.spatial_tv(level, grid, subdomain=i) for i in range(n_sub)]
                     for level in trajectory.levels])
    temporal = np.asarray([analysis.temporal_tv(trajectory, j) for j in range(grid.n)])
    return {"trajectory": trajectory, "range": (lo, hi), "entropy": entropy,
            "lipschitz": lipschitz, "tv": tv, "temporal": temporal}


def check_diagnostics(inputs, result) -> Outcome:
    out = Outcome()
    model, grid = inputs["model"], inputs["grid"]
    trajectory = result["trajectory"]
    levels = trajectory.levels
    _check_state(out, "final", trajectory.final.u, result["range"])
    _check_residual(out, model, grid, levels)
    residual = result["entropy"].max_residual
    out.require(residual <= ENTROPY_LIMIT,
                f"entropy residual {residual:.3e} above {ENTROPY_LIMIT:g}")
    # the first cell of a subdomain is set by the boundary or the interface
    # map; its motion is the only admissible TV source (as in verify)
    starts = [sl.start for sl in grid.subdomain_slices()]
    u_all = np.stack([lv.u for lv in levels])
    allowance = np.abs(np.diff(u_all[:, starts], axis=0))
    excess = float(np.max(np.diff(result["tv"], axis=0) - allowance))
    out.require(excess <= TVD_LIMIT, f"per-subdomain TV excess {excess:.3e} above {TVD_LIMIT:g}")
    lipschitz = result["lipschitz"]
    out.require(math.isfinite(lipschitz) and lipschitz > 0.0,
                f"flux Lipschitz quotient {lipschitz}")
    out.require(bool(np.all(np.isfinite(result["temporal"]))), "non-finite temporal TV")
    out.digests["final"] = state_digest(trajectory.final)
    out.digests["diagnostics"] = sha256(
        np.asarray([residual, lipschitz]), result["tv"], result["temporal"],
        repr(result["entropy"].argmax))
    return out


# }}}


@dataclass(frozen=True)
class Part:
    """One operation with its own inputs, checks and expected layers."""

    name: str
    build: object
    execute: object
    check: object
    seeded: bool
    # interpreter overhead dominates; its time is scaled by the host-speed kernel
    python_bound: bool
    # layers that must record calls in a traced run; silence is flagged
    expected_layers: tuple


@dataclass(frozen=True)
class Workload:
    """Parts run one after the other as one timed operation."""

    name: str
    parts: tuple

    @property
    def seeded(self) -> bool:
        return any(part.seeded for part in self.parts)

    @property
    def expected_layers(self) -> tuple:
        return tuple(dict.fromkeys(n for part in self.parts for n in part.expected_layers))

    def build(self, seed):
        return {part.name: part.build(seed) for part in self.parts}

    def execute(self, inputs, workdir):
        results = {}
        for part in self.parts:
            start = perf_counter()
            result = part.execute(inputs[part.name], workdir)
            results[part.name] = (result, perf_counter() - start)
        return results

    def check(self, inputs, results) -> Outcome:
        out = Outcome()
        for part in self.parts:
            result, seconds = results[part.name]
            got = part.check(inputs[part.name], result)
            out.failures.extend(f"{part.name}: {f}" for f in got.failures)
            out.digests.update((f"{part.name}.{k}", v) for k, v in got.digests.items())
            for key, value in got.counters.items():
                merge = max if key == "fluxes.invert.max_flux_residual" else sum
                out.counters[key] = merge((out.counters.get(key, 0), value))
            out.phases.update(got.phases)
            out.phases[f"{part.name}_s"] = seconds
        return out


PAPER_TABLES = Part(
    "paper_tables", build_paper_tables, execute_paper_tables, check_paper_tables, False, True,
    ("config.preset", "cli.cmd_convergence", "cli.convergence_report", "cli.cmd_verify",
     "solver.run", "solver.step", "fluxes.invert", "fluxes.deriv_bounds",
     "fluxes.invariant_interval", "analysis.l1_error", "analysis.entropy_residual",
     "grid.build_grid", "grid.cell_average"))
FINE_GRID = Part(
    "fine_grid", build_fine_grid, execute_fine_grid, check_fine_grid, False, False,
    ("config.preset", "cli.cmd_run", "solver.run", "fluxes.invert",
     "fluxes.invariant_interval", "grid.build_grid", "grid.cell_average"))
DIAGNOSTICS = Part(
    "diagnostics", build_diagnostics, execute_diagnostics, check_diagnostics, False, False,
    ("config.preset", "solver.run", "fluxes.invariant_interval",
     "analysis.entropy_residual", "analysis.flux_lipschitz_in_space",
     "analysis.spatial_tv", "analysis.temporal_tv", "grid.build_grid",
     "grid.cell_average"))
CUSTOM_MULTI = Part(
    "custom_multi", build_custom_multi, execute_custom_multi, check_custom_multi, True, True,
    ("fluxes.custom_flux", "solver.run", "fluxes.invert", "fluxes.deriv_bounds",
     "fluxes.invariant_interval", "grid.build_grid", "grid.cell_average"))

# The three preset parts share one workload: on a host whose speed drifts,
# Python-bound timings (paper_tables) swing far more than numpy-bound ones,
# and their sum over a long window is what stays steady.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("presets", (PAPER_TABLES, FINE_GRID, DIAGNOSTICS)),
        Workload("custom_multi", (CUSTOM_MULTI,)),
    )
}
