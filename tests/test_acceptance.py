"""End-to-end acceptance checks: error tables, invariants, exactness sentinels.

Each test prints a single summary line with the measured values so the full
gate is readable from the pytest output even when everything passes.
"""

import dataclasses

import numpy as np
import pytest

import oracles
from discflux import (
    PiecewiseFlux,
    SolverConfig,
    State,
    build_grid,
    build_model,
    build_problem,
    build_solver_config,
    cell_average,
    data_range,
    entropy_residual,
    initial_datum,
    invariant_interval,
    linear_flux,
    ooc,
    preset,
    run,
    step,
)

RESOLUTIONS = (16, 32, 64, 128, 256, 512, 1024)

REFERENCE_ERRORS_1 = (1.751e-01, 1.256e-01, 8.865e-02, 5.918e-02,
                      3.637e-02, 1.978e-02, 8.145e-03)
REFERENCE_RATES_1 = (0.48, 0.50, 0.58, 0.70, 0.88, 1.28)

REFERENCE_ERRORS_2 = (2.771e-01, 1.823e-01, 1.261e-01, 8.390e-02,
                      5.125e-02, 2.780e-02, 1.132e-02)
REFERENCE_RATES_2 = (0.60, 0.53, 0.59, 0.71, 0.88, 1.30)


@pytest.fixture
def announce(capsys):
    def _announce(label, ok, detail):
        with capsys.disabled():
            print(f"{label}: {'PASS' if ok else 'FAIL'} - {detail}")
    return _announce


def _unpack(report):
    ns = tuple(row[0] for row in report.rows)
    errors = np.asarray([row[1] for row in report.rows])
    rates = np.asarray([row[2] for row in report.rows[1:]])
    return ns, errors, rates


def _table_check(study, reference_errors, reference_rates, budget):
    report, elapsed = study
    ns, errors, rates = _unpack(report)
    assert ns == RESOLUTIONS
    err_dev = float(np.max(np.abs(errors / reference_errors - 1.0)))
    rate_dev = float(np.max(np.abs(rates - reference_rates)))
    ok = err_dev <= 0.10 and rate_dev <= 0.1 and elapsed < budget
    detail = (f"max error dev {err_dev:.2%} (limit 10%), "
              f"max rate dev {rate_dev:.3f} (limit 0.1), "
              f"{elapsed:.1f}s (limit {budget:.0f}s)")
    return ok, detail


def test_01_experiment1_error_table_and_rates(experiment1_study, announce):
    ok, detail = _table_check(experiment1_study, REFERENCE_ERRORS_1,
                              REFERENCE_RATES_1, 60.0)
    announce("experiment1 error table", ok, detail)
    assert ok, detail


def test_02_experiment2_error_table_and_rates(experiment2_study, announce):
    ok, detail = _table_check(experiment2_study, REFERENCE_ERRORS_2,
                              REFERENCE_RATES_2, 90.0)
    announce("experiment2 error table", ok, detail)
    assert ok, detail


def test_03_rate_floor_and_global_slope(experiment1_study, experiment2_study,
                                        announce):
    details = []
    ok = True
    for name, (report, _) in (("experiment1", experiment1_study),
                              ("experiment2", experiment2_study)):
        ns, errors, rates = _unpack(report)
        dx = 2.0 / np.asarray(ns)
        slope = float(np.polyfit(np.log(dx), np.log(errors), 1)[0])
        ok = ok and float(rates.min()) >= 0.45 and 0.5 <= slope <= 1.35
        details.append(f"{name}: min rate {rates.min():.3f}, slope {slope:.3f}")
    detail = "; ".join(details) + " (rate floor 0.45, slope in [0.5, 1.35])"
    announce("rate floor and slope", ok, detail)
    assert ok, detail


def test_04_pre_interaction_oracle_rates(announce):
    # until the jump reaches the interface the solution is the datum carried
    # at unit speed, so exact cell averages come from a shifted step
    config = preset("experiment1")
    model = build_model(config)
    problem = build_problem(config)
    solver_config = SolverConfig(lam=config.lam, t_end=0.3)
    errors = []
    for n in (64, 128, 256, 512, 1024):
        grid = build_grid(config.xmin, config.xmax, n, config.interfaces)
        traj = run(problem, grid, model, solver_config)
        exact = oracles.exact_step_average([-0.5 + 0.3], [0.5, 2.0], grid.edges)
        errors.append((n, float(np.sum(np.abs(traj.final.u - exact)) * grid.dx)))
    # pairwise rates oscillate with the jump's offset inside its cell, so the
    # measured order over the ladder is the least-squares slope
    ns = np.asarray([n for n, _ in errors])
    errs = np.asarray([e for _, e in errors])
    slope = float(np.polyfit(np.log(2.0 / ns), np.log(errs), 1)[0])
    rates = ooc(errors)
    ok = 0.4 <= slope <= 0.6
    detail = (f"measured order {slope:.3f} (limit [0.4, 0.6]); pairwise "
              + ", ".join(f"{r:.3f}" for r in rates))
    announce("advected-jump oracle", ok, detail)
    assert ok, detail


def test_05_steady_state_preservation(announce):
    # u = 2 satisfies the interface flux continuity g(2) = f(2) exactly
    config = dataclasses.replace(
        preset("experiment1"),
        initial={"kind": "piecewise_constant", "breakpoints": [], "values": [2.0]},
    )
    model = build_model(config)
    grid = build_grid(config.xmin, config.xmax, 64, config.interfaces)
    solver_config = build_solver_config(config)
    state = State(u=cell_average(initial_datum(config), grid), t=0.0, step=0)
    one_step = float(np.max(np.abs(step(state, grid, model, solver_config).u - 2.0)))
    final = run(build_problem(config), grid, model, solver_config).final
    full_run = float(np.max(np.abs(final.u - 2.0)))
    ok = one_step <= 1e-13 and full_run <= 1e-11
    detail = (f"single-step drift {one_step:.3e} (limit 1e-13), "
              f"full-run drift {full_run:.3e} (limit 1e-11)")
    announce("steady state", ok, detail)
    assert ok, detail


def test_06_entropy_residual_bound(announce):
    worst = {}
    for name in ("experiment1", "experiment2"):
        config = preset(name)
        model = build_model(config)
        grid = build_grid(config.xmin, config.xmax, 64, config.interfaces)
        traj = run(build_problem(config), grid, model,
                   build_solver_config(config), retain_levels=True)
        lo, hi = invariant_interval(model, data_range(config))
        report = entropy_residual(traj, grid, model, np.linspace(lo, hi, 17))
        worst[name] = report.max_residual
    ok = max(worst.values()) <= 1e-12
    detail = ", ".join(f"{k}: max residual {v:.3e}" for k, v in worst.items()) \
        + " (limit 1e-12; 17 constants, n=64)"
    announce("entropy inequality", ok, detail)
    assert ok, detail


def test_07_temporal_variation_stability(announce):
    config = preset("experiment1")
    model = build_model(config)
    problem = build_problem(config)
    solver_config = build_solver_config(config)
    normalized = {}
    for n in (128, 1024):
        grid = build_grid(config.xmin, config.xmax, n, config.interfaces)
        traj = run(problem, grid, model, solver_config, record_increments=True)
        u0 = cell_average(initial_datum(config), grid)
        tv0 = float(np.sum(np.abs(np.diff(u0))))
        normalized[n] = float(traj.temporal_increments.max()) / tv0
    ok = normalized[1024] < 1.05 * normalized[128]
    detail = (f"max cell variation / TV(u0): n=128 {normalized[128]:.4f}, "
              f"n=1024 {normalized[1024]:.4f} (growth limit 5%)")
    announce("temporal variation", ok, detail)
    assert ok, detail


def test_08_numerical_flux_equivalence(announce):
    # the march against the plain-loop Godunov min/max edge flux, one step
    # at a time from every marched level
    worst, details = 0.0, []
    for name in ("experiment1", "experiment2"):
        config = preset(name)
        model = build_model(config)
        grid = build_grid(config.xmin, config.xmax, 64, config.interfaces)
        solver_config = build_solver_config(config)
        bracket = invariant_interval(model, data_range(config))
        levels = run(build_problem(config), grid, model, solver_config,
                     retain_levels=True).levels
        for before, after in zip(levels, levels[1:]):
            lam = (after.t - before.t) / grid.dx if after is levels[-1] else solver_config.lam
            expected = oracles.reference_step(before.u, lam, model.segments,
                                              grid.interface_cells, bracket,
                                              edge_flux=oracles.godunov_edge)
            gap = float(np.max(np.abs(after.u - expected)))
            limit = oracles.reference_step_gap(model.segments, bracket, lam)
            worst = max(worst, gap / limit)
        details.append(f"{name}: {len(levels) - 1} steps")
    ok = worst <= 1.0
    detail = f"max gap / derived limit {worst:.3f} ({', '.join(details)})"
    announce("scheme equivalence", ok, detail)
    assert ok, detail


def test_09_monotone_order_preservation(announce):
    config = preset("experiment1")
    model = build_model(config)
    grid = build_grid(config.xmin, config.xmax, 64, config.interfaces)
    solver_config = build_solver_config(config)
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(100):
        a = rng.uniform(0.5, 2.0, grid.n)
        b = rng.uniform(0.5, 2.0, grid.n)
        low = State(u=np.minimum(a, b), t=0.0, step=0)
        high = State(u=np.maximum(a, b), t=0.0, step=0)
        for _ in range(200):
            low = step(low, grid, model, solver_config, u_range=(0.5, 2.0))
            high = step(high, grid, model, solver_config, u_range=(0.5, 2.0))
        worst = max(worst, float(np.max(low.u - high.u)))
    ok = worst <= 1e-13
    detail = f"worst ordering violation {worst:.3e} over 100 pairs x 200 steps (limit 1e-13)"
    announce("order preservation", ok, detail)
    assert ok, detail


def test_10_unit_cfl_shift_exactness(announce):
    # with lam * slope = 1 the update copies the left neighbour verbatim
    rng = np.random.default_rng(3)
    n, m = 48, 7
    grid = build_grid(0.0, 1.0, n, ())
    u0 = rng.uniform(-1.0, 3.0, n)
    ok = True
    results = []
    for slope, lam in ((1.0, 1.0), (0.5, 2.0)):
        model = PiecewiseFlux((), (linear_flux(slope),))
        solver_config = SolverConfig(lam=lam, t_end=1.0)
        state = State(u=u0.copy(), t=0.0, step=0)
        for _ in range(m):
            state = step(state, grid, model, solver_config)
        shifted = np.concatenate([np.full(m, u0[0]), u0[:-m]])
        bitwise = bool(np.array_equal(state.u, shifted))
        l1 = float(np.sum(np.abs(state.u - shifted)) * grid.dx)
        ok = ok and bitwise and l1 == 0.0
        results.append(f"a={slope}, lam={lam}: bitwise={bitwise}, l1={l1}")
    detail = "; ".join(results) + f" after {m} steps"
    announce("unit-CFL shift", ok, detail)
    assert ok, detail
