from functools import partial

import numpy as np
import pytest

from discflux import (
    DiscfluxError,
    DomainError,
    Inflow,
    Outflow,
    PiecewiseConstant,
    PiecewiseFlux,
    ProblemSpec,
    SampledTable,
    SolverConfig,
    StabilityError,
    State,
    build_grid,
    build_model,
    build_problem,
    build_solver_config,
    cell_average,
    custom_flux,
    data_range,
    inflow_boundary_value,
    invariant_interval,
    linear_flux,
    MonotonicityError,
    numerical_flux_value,
    preset,
    quadratic_flux,
    run,
    step,
)
from discflux import solver
from discflux.solver import _slab_average
from oracles import (
    godunov_edge,
    reference_levels,
    reference_step,
    reference_step_gap,
    slab_average_oracle,
    upwind_edge,
)

TRANSPORT_THEN_BURGERS = PiecewiseFlux(
    (0.0,), (linear_flux(1.0), quadratic_flux(1.0, interval=(0.25, 3.0)))
)
BURGERS_THEN_TRANSPORT = PiecewiseFlux(
    (0.0,), (quadratic_flux(1.0, interval=(1.0, 6.0)), linear_flux(1.0))
)


def random_state(grid, lo, hi, seed):
    rng = np.random.default_rng(seed)
    return State(rng.uniform(lo, hi, size=grid.n), 0.0, 0)


# {{{ single step


@pytest.mark.parametrize("edge_flux", [upwind_edge, godunov_edge], ids=["upwind", "godunov"])
@pytest.mark.parametrize(
    "model, lo, hi, lam",
    [
        (TRANSPORT_THEN_BURGERS, 0.5, 2.0, 0.5),
        (BURGERS_THEN_TRANSPORT, 2.0, 3.0, 0.2),
    ],
)
def test_step_matches_loop_transcription(model, lo, hi, lam, edge_flux):
    # the march has one update; Godunov's min/max edge flux, transcribed
    # independently, must give the same level for increasing laws
    grid = build_grid(-1.0, 1.0, 16, (0.0,))
    state = random_state(grid, lo, hi, seed=7)
    config = SolverConfig(lam=lam, t_end=1.0)
    new = step(state, grid, model, config, u_range=(lo, 5.0))
    expected = reference_step(
        state.u, lam, model.segments, grid.interface_cells, brackets=(lo, 5.0),
        edge_flux=edge_flux,
    )
    assert np.max(np.abs(new.u - expected)) < 1e-13
    assert new.t == pytest.approx(lam * grid.dx)
    assert new.step == 1


def test_ghost_cell_reads_the_updated_neighbour():
    grid = build_grid(-1.0, 1.0, 8, (0.0,))
    u = np.array([0.5, 0.5, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0])
    config = SolverConfig(lam=0.5, t_end=1.0)
    new = step(State(u.copy(), 0.0, 0), grid, TRANSPORT_THEN_BURGERS, config,
               u_range=(0.5, 2.0))
    # left neighbour of the interface cell moved this step, and the ghost
    # value must match its *new* flux, not the stale one
    f = TRANSPORT_THEN_BURGERS.segments[1]
    assert float(f(new.u[4])) == pytest.approx(new.u[3], abs=1e-12)
    stale = np.sqrt(2.0 * u[3])
    fresh = np.sqrt(2.0 * new.u[3])
    assert new.u[3] != u[3]  # the neighbour did move
    assert abs(new.u[4] - fresh) < 1e-12 < abs(new.u[4] - stale)


def test_step_cfl_violation_raises():
    grid = build_grid(-1.0, 1.0, 8, (0.0,))
    state = State(np.full(8, 2.0), 0.0, 0)
    config = SolverConfig(lam=0.6, t_end=1.0)  # wave speed 2 -> product 1.2
    with pytest.raises(StabilityError, match="> 1"):
        step(state, grid, TRANSPORT_THEN_BURGERS, config, u_range=(0.5, 2.0))


def test_step_unit_cfl_is_allowed():
    grid = build_grid(-1.0, 1.0, 8, (0.0,))
    state = State(np.full(8, 2.0), 0.0, 0)
    config = SolverConfig(lam=0.5, t_end=1.0)  # product exactly 1
    new = step(state, grid, TRANSPORT_THEN_BURGERS, config, u_range=(0.5, 2.0))
    assert np.array_equal(new.u, state.u)  # constant states are fixed points


def test_outflow_keeps_boundary_cell():
    grid = build_grid(-1.0, 1.0, 8)
    model = PiecewiseFlux((), (linear_flux(1.0),))
    state = random_state(grid, 0.0, 1.0, seed=5)
    new = step(state, grid, model, SolverConfig(lam=0.9, t_end=1.0))
    assert new.u[0] == state.u[0]


def test_scheme_kinds_agree_stepwise():
    # public step under the godunov name against the plain-loop Godunov
    # min/max edge flux, from the preset data on
    for name in ("experiment1", "experiment2"):
        cfg = preset(name)
        model = build_model(cfg)
        grid = build_grid(cfg.xmin, cfg.xmax, 64, cfg.interfaces)
        config = build_solver_config(cfg, "godunov")
        bracket = invariant_interval(model, data_range(cfg))
        limit = reference_step_gap(model.segments, bracket, config.lam)
        state = State(cell_average(build_problem(cfg).initial, grid), 0.0, 0)
        for _ in range(40):
            expected = reference_step(state.u, config.lam, model.segments,
                                      grid.interface_cells, bracket, edge_flux=godunov_edge)
            state = step(state, grid, model, config, u_range=bracket)
            assert np.max(np.abs(state.u - expected)) <= limit


def test_numerical_flux_forms():
    seg = quadratic_flux(1.0, 0.0, interval=(0.5, 3.0))
    a, b = np.array([1.0, 2.0]), np.array([2.0, 1.0])
    upwind = numerical_flux_value("upwind", seg, a, b)
    godunov = numerical_flux_value("godunov", seg, a, b)
    eo = numerical_flux_value("engquist_osher", seg, a, b)
    # an increasing law always takes the left state's flux
    assert np.array_equal(upwind, seg(a))
    assert np.array_equal(godunov, seg(a))
    assert np.array_equal(eo, seg(a))
    with pytest.raises(ValueError, match="unknown numerical flux"):
        numerical_flux_value("lax", seg, 1.0, 2.0)


def test_solver_config_validation():
    with pytest.raises(ValueError, match="lam must be positive"):
        SolverConfig(lam=0.0, t_end=1.0)
    with pytest.raises(ValueError, match="unknown numerical flux"):
        SolverConfig(lam=0.5, t_end=1.0, numerical_flux="roe")
    with pytest.raises(ValueError, match="right boundary"):
        SolverConfig(lam=0.5, t_end=1.0, right=Inflow(lambda t: 1.0))


# }}}


# {{{ inflow boundary


def test_inflow_boundary_value_slab_mean():
    table = SampledTable(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    # the trace is linear, so each slab mean is the midpoint value
    assert inflow_boundary_value(table, 1, 0.25) == pytest.approx(0.75)
    assert inflow_boundary_value(lambda t: 3.0 * t, 2, 0.1) == pytest.approx(0.75)
    with pytest.raises(ValueError, match="nonnegative"):
        inflow_boundary_value(table, -1, 0.25)
    with pytest.raises(ValueError, match="dt must be positive"):
        inflow_boundary_value(table, 1, 0.0)


def test_inflow_table_slab_average_honours_kinks():
    # trace has a kink strictly inside the slab; exact trapezoid on the kink
    # differs from any rule that ignores it
    table = SampledTable(np.array([0.0, 0.3, 1.0]), np.array([0.0, 3.0, 3.0]))
    got = inflow_boundary_value(table, 1, 0.25)
    # slab (0.25, 0.5): linear up to 3 at 0.3, then flat
    exact = ((0.05 * 0.5 * (2.5 + 3.0)) + (0.2 * 3.0)) / 0.25
    assert got == pytest.approx(exact, rel=1e-14)


def test_table_slab_average_matches_the_masked_trapezoid_bit_for_bit():
    rng = np.random.default_rng(17)
    seen = {"one piece": 0, "inner points": 0, "ends on last point": 0, "empty": 0}
    for _ in range(500):
        pts = rng.uniform(-3.0, 3.0) + np.cumsum(rng.uniform(0.01, 1.0, 13))
        table = SampledTable(pts, rng.uniform(-2.0, 2.0, 13))
        lo, hi = pts[0], pts[-1]
        slabs = []
        for _ in range(16):
            width = (hi - lo) * 10.0 ** rng.uniform(-5.0, 0.0)
            t0 = rng.uniform(lo, hi - width)
            slabs.append((t0, t0 + width))
        slabs += [(hi - width, hi) for width in (hi - lo) * rng.uniform(0.0, 1.0, 2)]
        slabs += [(t, t) for t in rng.uniform(lo, hi, 2)]
        k = int(rng.integers(0, 12))
        slabs += [(pts[k], pts[k + 1]), (pts[k], rng.uniform(pts[k], hi))]
        # within the table's roundoff slack past either end
        slabs += [(lo - 1e-13, rng.uniform(lo, hi)), (rng.uniform(lo, hi), hi + 1e-13)]
        for t0, t1 in slabs:
            assert _slab_average(table, t0, t1) == slab_average_oracle(table, t0, t1)
            inner = np.count_nonzero((pts > t0) & (pts < t1))
            if t0 == t1:
                seen["empty"] += 1
            elif t1 == hi:
                seen["ends on last point"] += 1
            else:
                seen["inner points" if inner else "one piece"] += 1
    assert sum(seen.values()) >= 10000
    assert min(seen.values()) >= 500, seen


def test_table_slab_average_returns_a_constant_stretch_exactly():
    # 0.9 on [0, 0.4], then a ramp: the trapezoid's (y0 + y1)/2 * w / w does
    # not always round back to 0.9, so a constant stretch returns its value
    table = SampledTable(np.array([0.0, 0.1, 0.25, 0.4, 1.0]),
                         np.array([0.9, 0.9, 0.9, 0.9, 2.0]))
    rng = np.random.default_rng(3)
    for t0, t1 in np.sort(rng.uniform(0.0, 0.4, (200, 2)), axis=1):
        assert _slab_average(table, t0, t1) == slab_average_oracle(table, t0, t1) == 0.9
    assert _slab_average(table, 0.3, 0.5) == slab_average_oracle(table, 0.3, 0.5) > 0.9


def test_tabulated_inflow_holding_the_datum_keeps_a_run_bitwise_steady():
    grid = build_grid(0.0, 1.0, 256)
    model = PiecewiseFlux((), (quadratic_flux(1.0, interval=(0.25, 3.0)),))
    trace = SampledTable(np.array([0.0, 0.07, 0.2, 0.33, 0.5]), np.full(5, 0.9))
    config = SolverConfig(lam=0.4, t_end=0.5, left=Inflow(trace))
    problem = ProblemSpec((0.0, 1.0), PiecewiseConstant((), (0.9,)))
    trajectory = run(problem, grid, model, config, retain_levels=True)
    assert len(trajectory.levels) > 300
    for level in trajectory.levels:
        assert np.array_equal(level.u, np.full(grid.n, 0.9))


def test_inflow_table_slab_past_the_end_raises():
    table = SampledTable(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    # slab (0.75, 1) ends on the last point; (1, 1.25) and (1.25, 1.5) leave the table
    assert inflow_boundary_value(table, 3, 0.25) == 1.75
    for k in (4, 5):
        with pytest.raises(DomainError, match="outside the tabulated range"):
            inflow_boundary_value(table, k, 0.25)
    later = SampledTable(np.array([0.5, 1.0]), np.array([0.0, 2.0]))
    with pytest.raises(DomainError, match="outside the tabulated range"):
        inflow_boundary_value(later, 1, 0.25)


def test_run_with_inflow_pins_boundary_cell():
    grid = build_grid(0.0, 1.0, 16)
    model = PiecewiseFlux((), (linear_flux(1.0),))
    trace = SampledTable(np.array([0.0, 10.0]), np.array([1.0, 21.0]))
    config = SolverConfig(lam=0.5, t_end=0.25, left=Inflow(trace))
    problem = ProblemSpec((0.0, 1.0), PiecewiseConstant((), (1.0,)))
    trajectory = run(problem, grid, model, config, retain_levels=True)
    dt = 0.5 * grid.dx
    for k, level in enumerate(trajectory.levels[1:-1], start=1):
        assert level.u[0] == pytest.approx(inflow_boundary_value(trace, k, dt))
    # the final shortened slab would poke past t_end; it clips and falls back
    # to the endpoint trace value when empty
    assert trajectory.levels[-1].u[0] == pytest.approx(float(trace(0.25)), abs=1e-12)


def test_inflow_trace_that_rejects_arrays_is_called_per_entry():
    # the trace range and every slab mean fall back to scalar calls; plain
    # arithmetic rounds the same either way, so the runs must agree bit for bit
    def scalar_trace(t):
        if isinstance(t, np.ndarray):
            raise TypeError("scalars only")
        return 0.8 + t * (1.5 - t)

    def array_trace(t):
        return 0.8 + t * (1.5 - t)

    grid = build_grid(-1.0, 1.0, 64, (0.0,))
    runs = [
        run(exp1_problem(), grid, TRANSPORT_THEN_BURGERS,
            SolverConfig(lam=0.5, t_end=0.9, left=Inflow(trace)), retain_levels=True)
        for trace in (scalar_trace, array_trace)
    ]
    levels = [[level.u for level in r.levels] for r in runs]
    assert len(levels[0]) == len(levels[1]) > 2
    for got, want in zip(*levels):
        assert np.array_equal(got, want)


# }}}


# {{{ full march


def exp1_problem():
    datum = PiecewiseConstant((-0.5,), (0.5, 2.0))
    return ProblemSpec((-1.0, 1.0), datum)


def test_run_level_times_are_exact():
    grid = build_grid(-1.0, 1.0, 64, (0.0,))
    config = SolverConfig(lam=0.5, t_end=0.9)
    trajectory = run(exp1_problem(), grid, TRANSPORT_THEN_BURGERS, config,
                     retain_levels=True)
    dt = 0.5 * grid.dx
    assert trajectory.final.t == 0.9  # exact, not accumulated
    assert trajectory.final.step == len(trajectory.levels) - 1
    for k, level in enumerate(trajectory.levels[:-1]):
        assert level.t == k * dt
    # last step is shortened, never overshoots
    assert trajectory.levels[-1].t - trajectory.levels[-2].t <= dt + 1e-15


def test_run_exact_multiple_of_dt_has_no_stub_step():
    grid = build_grid(-1.0, 1.0, 16, (0.0,))
    config = SolverConfig(lam=0.5, t_end=0.5)  # dt = 1/16, exactly 8 steps
    trajectory = run(exp1_problem(), grid, TRANSPORT_THEN_BURGERS, config)
    assert trajectory.final.step == 8
    assert trajectory.final.t == 0.5


def test_snapshots_take_first_level_at_or_after():
    grid = build_grid(-1.0, 1.0, 16, (0.0,))
    config = SolverConfig(lam=0.5, t_end=0.9)
    trajectory = run(exp1_problem(), grid, TRANSPORT_THEN_BURGERS, config,
                     snapshot_times=[0.3, 0.0, 0.9])
    dt = 0.5 * grid.dx
    assert [s.requested for s in trajectory.snapshots] == [0.0, 0.3, 0.9]
    assert trajectory.snapshots[0].state.t == 0.0
    first_after = dt * np.ceil(0.3 / dt - 1e-12)
    assert trajectory.snapshots[1].state.t == pytest.approx(first_after)
    assert trajectory.snapshots[2].state.t == 0.9
    with pytest.raises(ValueError, match="snapshot times"):
        run(exp1_problem(), grid, TRANSPORT_THEN_BURGERS, config,
            snapshot_times=[1.7])


def test_run_checks_domain_and_stability():
    grid = build_grid(0.0, 1.0, 8)
    model = PiecewiseFlux((), (linear_flux(1.0),))
    with pytest.raises(ValueError, match="problem lives on"):
        run(exp1_problem(), grid, model, SolverConfig(lam=0.5, t_end=0.1))
    grid = build_grid(-1.0, 1.0, 8, (0.0,))
    with pytest.raises(StabilityError, match="reduce lam"):
        run(exp1_problem(), grid, TRANSPORT_THEN_BURGERS,
            SolverConfig(lam=0.9, t_end=0.1))


def test_run_records_increments(three_interface_model):
    # verify's temporal-TV check takes these sums for the retained levels'
    # summed increments, so the two agree bit for bit, with inflow and a
    # custom law too
    cases = [(exp1_problem(), build_grid(-1.0, 1.0, 32, (0.0,)), TRANSPORT_THEN_BURGERS,
              SolverConfig(lam=0.5, t_end=0.3)),
             window_case("three-interfaces", three_interface_model)[:4]]
    for problem, grid, model, config in cases:
        trajectory = run(problem, grid, model, config,
                         record_increments=True, retain_levels=True)
        u_all = np.stack([lv.u for lv in trajectory.levels])
        expected = np.sum(np.abs(np.diff(u_all, axis=0)), axis=0)
        assert np.array_equal(trajectory.temporal_increments, expected)


def test_constant_state_is_a_fixed_point_of_run():
    grid = build_grid(-1.0, 1.0, 32, (0.0,))
    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((), (2.0,)))
    config = SolverConfig(lam=0.5, t_end=0.9)
    trajectory = run(problem, grid, TRANSPORT_THEN_BURGERS, config)
    assert np.array_equal(trajectory.final.u, np.full(32, 2.0))


def test_ordered_states_stay_ordered():
    grid = build_grid(-1.0, 1.0, 32, (0.0,))
    config = SolverConfig(lam=0.5, t_end=1.0)
    rng = np.random.default_rng(21)
    a = rng.uniform(0.5, 2.0, size=32)
    b = rng.uniform(0.5, 2.0, size=32)
    low = State(np.minimum(a, b), 0.0, 0)
    high = State(np.maximum(a, b), 0.0, 0)
    for _ in range(50):
        low = step(low, grid, TRANSPORT_THEN_BURGERS, config, u_range=(0.5, 2.0))
        high = step(high, grid, TRANSPORT_THEN_BURGERS, config, u_range=(0.5, 2.0))
        assert np.max(low.u - high.u) <= 1e-14


def test_tv_never_grows_inside_subdomains():
    grid = build_grid(-1.0, 1.0, 64, (0.0,))
    config = SolverConfig(lam=0.2, t_end=0.5)
    problem = ProblemSpec(
        (-1.0, 1.0),
        lambda x: 2.0 + np.exp(-np.square((np.asarray(x) + 0.75) / 0.1)),
    )
    trajectory = run(problem, grid, BURGERS_THEN_TRANSPORT, config,
                     retain_levels=True)
    for before, after in zip(trajectory.levels, trajectory.levels[1:]):
        for sl in grid.subdomain_slices():
            tv_before = np.sum(np.abs(np.diff(before.u[sl])))
            tv_after = np.sum(np.abs(np.diff(after.u[sl])))
            # the subdomain's first cell is set from outside (boundary or
            # interface map); its motion is the only admissible growth
            moved = abs(after.u[sl.start] - before.u[sl.start])
            assert tv_after <= tv_before + moved + 1e-12


def test_interface_flux_is_continuous_at_every_level():
    grid = build_grid(-1.0, 1.0, 64, (0.0,))
    config = SolverConfig(lam=0.5, t_end=0.9)
    trajectory = run(exp1_problem(), grid, TRANSPORT_THEN_BURGERS, config,
                     retain_levels=True)
    g, f = TRANSPORT_THEN_BURGERS.segments
    p = grid.interface_cells[0]
    for level in trajectory.levels[1:]:
        assert float(f(level.u[p])) == pytest.approx(float(g(level.u[p - 1])),
                                                     abs=1e-12)


def test_interface_flux_is_continuous_to_machine_precision(three_interface_model):
    # every interface map, closed-form or iterative, must reproduce the left
    # neighbour's flux to a few ulps at every level
    model = three_interface_model
    grid = build_grid(-1.0, 1.0, 256, model.interfaces)
    trace = np.random.default_rng(19).uniform(0.5, 2.0, 13)
    config = SolverConfig(lam=0.3, t_end=0.6,
                          left=Inflow(SampledTable(np.linspace(0.0, 0.6, 13), trace)))
    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((-0.7, -0.2, 0.3, 0.8),
                                                         (1.6, 0.6, 1.9, 0.8, 1.3)))
    trajectory = run(problem, grid, model, config, retain_levels=True)
    eps = np.finfo(float).eps
    assert len(trajectory.levels) > 200
    for level in trajectory.levels[1:]:
        for p, left, right in zip(grid.interface_cells, model.segments, model.segments[1:]):
            w = float(left(level.u[p - 1]))
            assert abs(float(right(level.u[p])) - w) <= 4.0 * eps * max(1.0, abs(w))


# }}}


# {{{ run against the public step


# Transport | Burgers | transport at slope 2.  Data 2 | 2 | 1 are a steady
# state bit for bit: every interface map sends 2 to 2 and 2 to 1 exactly, so
# the recompute spans of the blocks downstream of a disturbance empty out.
STEADY_2_2_1 = PiecewiseFlux((-0.5, 0.0), (
    linear_flux(1.0), quadratic_flux(1.0, interval=(0.05, 4.0)), linear_flux(2.0)))


def window_case(name, three_interface_model=None):
    """``(problem, grid, model, config, data range)`` of a march the recompute spans shape.

    - ``flat-runs``: a pulse in the first block of the steady state at
      n=2048; the spans of the quiet blocks empty out and reopen when the
      pulse's domain of dependence reaches them.
    - ``signed-zeros``: a linear block holding 0.0 left of -0.9 and -0.0
      right of it; the front where -0.0 turns into 0.0 moves one cell a step
      without changing any value.
    - ``one-cell-subdomain``: the Burgers subdomain is one cell between two
      interfaces, so the block right of it reopens through two interface maps.
    - ``inflow-shortened``: transport of a step from 1 to 0.9, fed by an
      inflow table that holds 1 and then moves.  The final step is half a
      step: 0.9 is a fixed point of the full step's convex combination but,
      in rounding, not of the shortened step's, so that step must recompute
      every cell.
    - ``three-interfaces``: every law kind, the custom one included, with a
      9-point inflow table and a shortened final step.
    - ``reaches-last-cell``: ``flat-runs``' pulse at n=256; it first reaches
      each interface on a step inside a window.
    - ``one-cell-chain``: ``one-cell-subdomain`` with the pulse near the
      interface; it first reaches the one-cell subdomain, and through its
      map the next interface cell, on a step inside a window.
    """
    if name == "flat-runs":
        model, n, lam, t_end = STEADY_2_2_1, 2048, 0.3, 0.1
        datum = PiecewiseConstant((-0.6, -0.55, -0.5, 0.0), (2.0, 2.4, 2.0, 2.0, 1.0))
        left = Outflow()
    elif name == "signed-zeros":
        model = PiecewiseFlux((0.5,), (linear_flux(1.0),
                                       quadratic_flux(1.0, 1.0, interval=(-0.5, 3.0))))
        n, lam, t_end = 256, 0.5, 0.6
        datum = PiecewiseConstant((-0.9, 0.5), (0.0, -0.0, 1.0))
        left = Outflow()
    elif name == "reaches-last-cell":
        model, n, lam, t_end = STEADY_2_2_1, 256, 0.3, 0.3
        datum = PiecewiseConstant((-0.9, -0.85, -0.5, 0.0), (2.0, 2.4, 2.0, 2.0, 1.0))
        left = Outflow()
    elif name in ("one-cell-subdomain", "one-cell-chain"):
        model = PiecewiseFlux((0.0, 2.0 / 256), STEADY_2_2_1.segments)
        n, lam, t_end = 256, 0.3, 0.4
        pulse = -0.9 if name == "one-cell-subdomain" else -0.4
        datum = PiecewiseConstant((pulse, pulse + 0.05, 0.0, 2.0 / 256),
                                  (2.0, 2.4, 2.0, 2.0, 1.0))
        left = Outflow()
    elif name == "inflow-shortened":
        model, n, lam = PiecewiseFlux((), (linear_flux(1.0),)), 256, 0.3
        t_end = 0.3 + 0.5 * lam * 2.0 / n  # 128 full steps and half of one
        datum = PiecewiseConstant((-0.5,), (1.0, 0.9))
        left = Inflow(SampledTable(np.array([0.0, 0.1, 0.15, 0.2, t_end]),
                                   np.array([1.0, 1.0, 1.2, 0.7, 1.0])))
    elif name == "three-interfaces":
        model, n, lam, t_end = three_interface_model, 64, 0.3, 0.31
        datum = PiecewiseConstant((-0.7, -0.2, 0.3, 0.8), (1.6, 0.6, 1.9, 0.8, 1.3))
        trace = np.random.default_rng(11).uniform(0.5, 2.0, 9)
        left = Inflow(SampledTable(np.linspace(0.0, t_end, 9), trace))
    values = list(datum.values)
    if isinstance(left, Inflow):
        values += list(left.trace.values)
    return (ProblemSpec((-1.0, 1.0), datum), build_grid(-1.0, 1.0, n, model.interfaces),
            model, SolverConfig(lam=lam, t_end=t_end, left=left), (min(values), max(values)))


def record_spans(monkeypatch):
    """Log the spans each window of the march's full steps starts from."""
    log = []
    window = solver._March.window

    def logged(self, u, prev):
        spans, live = window(self, u, prev)
        log.append(list(spans))
        return spans, live

    monkeypatch.setattr(solver._March, "window", logged)
    return log


@pytest.mark.parametrize(
    "case", ["signed-zeros", "one-cell-subdomain", "inflow-shortened", "three-interfaces"])
def test_run_equals_a_loop_of_public_steps(three_interface_model, case):
    # run recomputes only the cells in its spans; public step recomputes all
    problem, grid, model, config, data_range = window_case(case, three_interface_model)
    trajectory = run(problem, grid, model, config, retain_levels=True)

    u_range = invariant_interval(model, data_range)
    t_end = config.t_end
    dt = config.lam * grid.dx
    n_full = int(t_end // dt)
    state = State(cell_average(problem.initial, grid), 0.0, 0)
    levels = [state]
    for k in range(1, n_full + 2):
        full = k <= n_full
        nxt = step(state, grid, model, config,
                   dt=None if full else t_end - n_full * dt, u_range=u_range)
        # run pins each level to its precomputed time
        state = State(nxt.u, k * dt if full else t_end, k)
        levels.append(state)

    assert len(levels) > 2 * solver._NARROW_EVERY or case == "three-interfaces"
    assert 0.0 < levels[-1].t - levels[-2].t < dt
    assert len(trajectory.levels) == len(levels)
    for got, want in zip(trajectory.levels, levels):
        assert (got.t, got.step) == (want.t, want.step)
        assert np.array_equal(got.u, want.u)
    assert np.array_equal(trajectory.final.u, levels[-1].u)


def assert_run_matches_reference_advance(problem, grid, model, config, data_range):
    # every retained level against an independent march of the allocating
    # array-form update, bit for bit
    trajectory = run(problem, grid, model, config, retain_levels=True)
    levels = reference_levels(cell_average(problem.initial, grid), grid, model, config,
                              invariant_interval(model, data_range))
    assert len(trajectory.levels) == len(levels)
    for k, (level, u) in enumerate(zip(trajectory.levels, levels)):
        assert np.array_equal(level.u, u), f"level {k}"
    return trajectory


def test_run_matches_the_reference_advance_on_three_interfaces(three_interface_model):
    trajectory = assert_run_matches_reference_advance(
        *window_case("three-interfaces", three_interface_model))
    # 33 full steps of 0.009375 and a shortened one
    assert trajectory.final.step == 34


@pytest.mark.parametrize("name", ["experiment1", "experiment2"])
def test_run_matches_the_reference_advance_on_presets(name):
    cfg = preset(name)
    grid = build_grid(cfg.xmin, cfg.xmax, 64, cfg.interfaces)
    problem, model = build_problem(cfg), build_model(cfg)
    u0 = cell_average(problem.initial, grid)
    assert_run_matches_reference_advance(problem, grid, model, build_solver_config(cfg),
                                         (float(u0.min()), float(u0.max())))


@pytest.mark.parametrize(
    "case", ["flat-runs", "signed-zeros", "one-cell-subdomain", "inflow-shortened"])
def test_run_matches_the_reference_advance_where_spans_shrink_and_reopen(monkeypatch, case):
    problem, grid, model, config, data_range = window_case(case)
    log = record_spans(monkeypatch)
    assert_run_matches_reference_advance(problem, grid, model, config, data_range)
    bounds = (0, *grid.interface_cells, grid.n)
    blocks = list(zip(*log))
    # every case narrows some span below its block's whole interior
    assert any(e - s < b - a - 1
               for spans, a, b in zip(blocks, bounds, bounds[1:]) for s, e in spans)
    if case == "signed-zeros":
        # no value moves in the linear block, but its sign front keeps it open
        assert all(s < e for s, e in blocks[0])
    elif case == "inflow-shortened":
        # an inflow cell may move on any step, so its block always starts at
        # the boundary's neighbour
        assert all(s == 1 < e for s, e in blocks[0])
    else:
        # some span empties out and reopens
        assert any(s0 >= e0 and s1 < e1
                   for spans in blocks for (s0, e0), (s1, e1) in zip(spans, spans[1:]))


def test_a_custom_law_block_narrows_with_the_window():
    # a custom law is elementwise, so its block recomputes only its span, as
    # a quadratic block does, and the levels stay those of the whole update
    sizes = []

    def law(u):
        if isinstance(u, np.ndarray):
            sizes.append(u.size)
        return u + 0.1 * np.sin(u)

    model = PiecewiseFlux((0.0,), (
        linear_flux(1.0),
        custom_flux(law, lambda u: 1.0 + 0.1 * np.cos(u), interval=(0.0, 4.0))))
    grid = build_grid(-1.0, 1.0, 256, model.interfaces)
    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((), (1.0,)))
    config = SolverConfig(lam=0.3, t_end=0.25)
    sizes.clear()
    trajectory = run(problem, grid, model, config, retain_levels=True)
    steps = trajectory.final.step
    assert steps > 3 * solver._NARROW_EVERY
    # the interface map moves the first custom cell off 1.0 on the first
    # step, a whole one; the change spreads one cell a step, so every later
    # full step is far short of the 128 values a whole update of the block
    # takes, its 127 interior cells and the interface cell upwind of them
    # (the shortened last step recomputes them all)
    assert len(sizes) == steps and sizes[0] == sizes[-1] == 128
    assert max(sizes[1:-1]) < 128
    levels = reference_levels(cell_average(problem.initial, grid), grid, model, config,
                              invariant_interval(model, (1.0, 1.0)))
    assert len(trajectory.levels) == len(levels)
    for k, (level, u) in enumerate(zip(trajectory.levels, levels)):
        assert np.array_equal(level.u, u), f"level {k}"


@pytest.mark.parametrize("case", ["reaches-last-cell", "one-cell-chain"])
def test_a_disturbance_reaching_an_interface_within_a_window(monkeypatch, case):
    # a window's spans are fixed at its start; a change that reaches a
    # block's last cell later in the window must still reach the interface
    # cells downstream, through a one-cell subdomain too
    problem, grid, model, config, data_range = window_case(case)
    log = record_spans(monkeypatch)
    trajectory = assert_run_matches_reference_advance(problem, grid, model, config, data_range)
    levels = np.stack([level.u for level in trajectory.levels])
    bounds = (0, *grid.interface_cells, grid.n)
    for p in grid.interface_cells:
        k = int(np.flatnonzero(levels[1:, p] != levels[:-1, p])[0]) + 1
        # full steps from the second on go in windows starting at step 2
        assert 2 < k < trajectory.final.step and (k - 2) % solver._NARROW_EVERY != 0
        # the nearest block upstream with an interior reached its end when
        # the window started
        i = max(i for i, (a, b) in enumerate(zip(bounds, bounds[1:])) if b <= p and b - a > 1)
        assert log[(k - 2) // solver._NARROW_EVERY][i][1] == bounds[i + 1]


def test_run_hands_experiment1_kernels_fewer_than_half_of_its_cells(monkeypatch):
    # cells whose upwind inputs did not change keep their value, so most of
    # the nominal cell updates of a Riemann problem never reach a kernel
    received, sizes = 0, []
    array_form = solver._array_form

    def count(size):
        nonlocal received
        received += size

    def counting(seg, shape):
        bind = array_form(seg, shape)
        sizes.append(shape)

        def counting_bind(u):
            # the bound step runs every call, so this one counts each step's cells
            calls, values = bind(u)
            return [partial(count, u.size)] + calls, values
        return counting_bind

    monkeypatch.setattr(solver, "_array_form", counting)
    cfg = preset("experiment1")
    grid = build_grid(cfg.xmin, cfg.xmax, 4096, cfg.interfaces)
    trajectory = run(build_problem(cfg), grid, build_model(cfg), build_solver_config(cfg))
    assert sizes == [(grid.n // 2,)]
    assert 0 < received < 0.5 * trajectory.final.step * (grid.n // 2)


@pytest.mark.parametrize("left_law", ["transport", "custom"])
def test_quiet_interface_maps_are_skipped_bit_for_bit(monkeypatch, three_interface_model,
                                                      left_law):
    # a map whose left neighbour cannot move in a window, and whose cell did
    # not change when it started, would write the value its cell holds; a
    # custom law upstream keeps the map live no more than a linear one
    inversions = 0
    resolve = solver._inverse

    def counting(seg, bracket, image=None):
        inverse = resolve(seg, bracket, image)

        def counted(w):
            nonlocal inversions
            inversions += 1
            return inverse(w)
        return counted

    monkeypatch.setattr(solver, "_inverse", counting)
    cfg = preset("experiment1")
    grid = build_grid(cfg.xmin, cfg.xmax, 1024, cfg.interfaces)
    model, config = build_model(cfg), build_solver_config(cfg)
    if left_law == "custom":
        # u + 0.1 sin u | Burgers; the transmitted state reaches 2.05, so
        # lam comes down from 0.5 to stay stable
        model = PiecewiseFlux(model.interfaces,
                              (three_interface_model.segments[2], model.segments[1]))
        config = SolverConfig(lam=0.4, t_end=cfg.t_end)
    trajectory = assert_run_matches_reference_advance(
        build_problem(cfg), grid, model, config, data_range(cfg))
    assert 0 < inversions < trajectory.final.step


def test_march_evaluates_the_right_law_at_the_bracket_ends_once(three_interface_model):
    # the interface inverse is resolved with the plan: the custom law on the
    # right of interface 2 is evaluated at the bracket ends once per run, not
    # on every step
    segs = three_interface_model.segments
    scalar_args = []

    def law(u):
        if not isinstance(u, np.ndarray):
            scalar_args.append(float(u))
        return segs[2].func(u)

    model = PiecewiseFlux(three_interface_model.interfaces, (
        segs[0], segs[1], custom_flux(law, segs[2].deriv, interval=segs[2].interval), segs[3]))
    grid = build_grid(-1.0, 1.0, 64, model.interfaces)
    # data below 2: the Burgers map sqrt(2u) raises the top of the bracket and
    # the concave map lowers its bottom, so neither end is a data value at
    # which the bracket computation itself evaluates the law
    values = (1.2, 0.6, 1.4, 0.8, 1.1)
    trace = np.random.default_rng(11).uniform(0.5, 1.5, 9)
    data_lo, data_hi = min(*values, *trace), max(*values, *trace)
    lo, hi = invariant_interval(model, (data_lo, data_hi))
    assert lo < data_lo and hi > data_hi
    config = SolverConfig(lam=0.3, t_end=0.31,
                          left=Inflow(SampledTable(np.linspace(0.0, 0.31, 9), trace)))
    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((-0.7, -0.2, 0.3, 0.8), values))
    scalar_args.clear()
    trajectory = run(problem, grid, model, config)
    assert trajectory.final.step == 34
    assert scalar_args.count(lo) <= 1
    assert scalar_args.count(hi) <= 1


def test_snapshots_and_final_state_own_their_arrays():
    grid = build_grid(-1.0, 1.0, 16, (0.0,))
    config = SolverConfig(lam=0.5, t_end=0.9)
    dt = config.lam * grid.dx
    # consecutive levels, so a snapshot sharing a march buffer would show
    trajectory = run(exp1_problem(), grid, TRANSPORT_THEN_BURGERS, config,
                     snapshot_times=[0.0, dt, 2 * dt, 3 * dt, 0.9], retain_levels=True)
    arrays = [s.state.u for s in trajectory.snapshots] + [trajectory.final.u]
    arrays += [level.u for level in trajectory.levels]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    snaps = trajectory.snapshots
    assert np.array_equal(snaps[0].state.u, cell_average(exp1_problem().initial, grid))
    for snap, level in zip(snaps[1:4], trajectory.levels[1:4]):
        assert np.array_equal(snap.state.u, level.u)
    assert np.array_equal(snaps[-1].state.u, trajectory.final.u)


def test_step_without_bracket_ignores_leftover_memory():
    # step writes every cell of a fresh buffer; a cell it missed would show
    # whatever memory the allocator hands back
    model = PiecewiseFlux((-0.5, 0.0, 0.5), (
        linear_flux(1.0),
        quadratic_flux(1.0, interval=(0.05, 4.0)),
        linear_flux(1.0),
        quadratic_flux(-0.2, 2.0, interval=(0.0, 4.0)),
    ))
    grid = build_grid(-1.0, 1.0, 32, model.interfaces)
    state = State(np.full(32, 1.0), 0.0, 0)
    config = SolverConfig(lam=0.3, t_end=1.0)
    expected = step(state, grid, model, config, u_range=(0.0, 4.0)).u
    for fill in (np.nan, 1e300):
        junk = np.full(32, fill)
        del junk
        assert np.array_equal(step(state, grid, model, config).u, expected)


def test_step_without_bracket_uses_the_invariant_interval_of_its_data(three_interface_model):
    model = three_interface_model
    grid = build_grid(-1.0, 1.0, 64, model.interfaces)
    config = SolverConfig(lam=0.3, t_end=1.0)
    rng = np.random.default_rng(23)
    for _ in range(50):
        state = State(rng.uniform(0.5, 2.0, grid.n), 0.0, 0)
        u_range = invariant_interval(model, (state.u.min(), state.u.max()))
        assert np.array_equal(step(state, grid, model, config).u,
                              step(state, grid, model, config, u_range=u_range).u)


def test_step_without_bracket_covers_the_inflow_trace():
    # a one-cell first subdomain hands the imposed boundary value straight to
    # the interface map, so the bracket must cover the trace, as run's does
    grid = build_grid(-1.0, 1.0, 8, (-0.75,))
    model = PiecewiseFlux((-0.75,), TRANSPORT_THEN_BURGERS.segments)
    config = SolverConfig(lam=0.3, t_end=1.0, left=Inflow(lambda t: 2.5 + 0.0 * t))
    state = State(np.ones(8), 0.0, 0)
    new = step(state, grid, model, config).u
    assert new[:2] == pytest.approx([2.5, np.sqrt(5.0)], rel=1e-15)
    u_range = invariant_interval(model, (1.0, 2.5))
    assert np.array_equal(new, step(state, grid, model, config, u_range=u_range).u)


def test_step_rejects_a_law_that_stops_increasing_as_run_does():
    # the concave law -0.2 u^2/2 + 2u peaks at u = 10, inside its block's data
    model = PiecewiseFlux((0.0,), (quadratic_flux(-0.2, 2.0, interval=(0.0, 4.0)),
                                   linear_flux(1.0)))
    grid = build_grid(-1.0, 1.0, 16, model.interfaces)
    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((-0.5,), (9.0, 12.0)))
    config = SolverConfig(lam=0.05, t_end=0.1)
    with pytest.raises(ValueError, match="flux law 0 stops increasing") as from_run:
        run(problem, grid, model, config)
    state = State(cell_average(problem.initial, grid), 0.0, 0)
    with pytest.raises(ValueError, match="flux law 0 stops increasing") as from_step:
        step(state, grid, model, config)
    assert str(from_step.value) == str(from_run.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_law_with_a_nan_derivative_raises_in_run_and_step():
    # u^1.5 has the derivative 1.5 sqrt(u), NaN below 0: the -1.0 piece
    # makes the derivative bounds NaN, which a test d_min <= 0 lets through
    law = custom_flux(lambda u: u * np.sqrt(u), lambda u: 1.5 * np.sqrt(u), interval=(0.5, 2.5))
    model = PiecewiseFlux((), (law,))
    grid = build_grid(-1.0, 1.0, 16)
    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((-0.5, 0.0), (1.0, -1.0, 1.0)))
    config = SolverConfig(lam=0.3, t_end=0.2)
    with pytest.raises(MonotonicityError, match="flux law 0 has a NaN derivative"):
        run(problem, grid, model, config)
    state = State(cell_average(problem.initial, grid), 0.0, 0)
    with pytest.raises(MonotonicityError, match="flux law 0 has a NaN derivative"):
        step(state, grid, model, config)


def test_a_law_that_stops_increasing_raises_a_typed_value_error():
    model = PiecewiseFlux((), (quadratic_flux(-0.2, 2.0, interval=(0.0, 4.0)),))
    grid = build_grid(0.0, 1.0, 8)
    problem = ProblemSpec((0.0, 1.0), PiecewiseConstant((0.5,), (9.0, 12.0)))
    with pytest.raises(MonotonicityError) as exc:
        run(problem, grid, model, SolverConfig(lam=0.05, t_end=0.1))
    # both bases: existing `except ValueError` callers still catch it
    assert isinstance(exc.value, DiscfluxError)
    assert isinstance(exc.value, ValueError)


# }}}
