import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from discflux import (
    DiscfluxError,
    DomainError,
    GridAlignmentError,
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
    entropy_residual,
    flux_lipschitz_in_space,
    inflow_boundary_value,
    invariant_interval,
    linear_flux,
    MonotonicityError,
    preset,
    quadratic_flux,
    run,
    step,
)
from discflux import cli, solver
from discflux.cli import _ordering_gap
from discflux.config import from_dict
from discflux.solver import _slab_average
from oracles import (
    godunov_edge,
    record_spans,
    reference_advance,
    reference_levels,
    reference_step,
    reference_step_gap,
    slab_average_oracle,
    upwind_edge,
    window_scan,
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
    # independently, must give the same level for increasing laws, within
    # the derived gap, or 1e-13 where that is smaller (3.1e-13 on the first
    # model, 9.9e-14 on the second)
    grid = build_grid(-1.0, 1.0, 16, (0.0,))
    state = random_state(grid, lo, hi, seed=7)
    config = SolverConfig(lam=lam, t_end=1.0)
    new = step(state, grid, model, config, u_range=(lo, 5.0))
    expected = reference_step(
        state.u, lam, model.segments, grid.interface_cells, brackets=(lo, 5.0),
        edge_flux=edge_flux,
    )
    gap = np.max(np.abs(new.u - expected))
    assert gap < 1e-13 and gap <= reference_step_gap(model.segments, (lo, 5.0), lam)
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


@pytest.mark.parametrize("model", [PiecewiseFlux((), (linear_flux(1.0),)),
                                   TRANSPORT_THEN_BURGERS], ids=["no-interface", "one-interface"])
def test_step_rejects_a_nan_dt(model):
    grid = build_grid(-1.0, 1.0, 8, model.interfaces)
    state = State(np.full(8, 2.0), 0.0, 0)
    with pytest.raises(ValueError, match="dt must be nonnegative, got nan"):
        step(state, grid, model, SolverConfig(lam=0.5, t_end=1.0), dt=float("nan"))
    # and a state that is not on its grid
    with pytest.raises(ValueError, match="state has 8 cells, grid has 16"):
        step(state, build_grid(-1.0, 1.0, 16, model.interfaces), model,
             SolverConfig(lam=0.5, t_end=1.0))


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
    # public step against the plain-loop Godunov min/max edge flux, from the
    # preset data on
    for name in ("experiment1", "experiment2"):
        cfg = preset(name)
        model = build_model(cfg)
        grid = build_grid(cfg.xmin, cfg.xmax, 64, cfg.interfaces)
        config = build_solver_config(cfg)
        bracket = invariant_interval(model, data_range(cfg))
        limit = reference_step_gap(model.segments, bracket, config.lam)
        state = State(cell_average(build_problem(cfg).initial, grid), 0.0, 0)
        for _ in range(40):
            expected = reference_step(state.u, config.lam, model.segments,
                                      grid.interface_cells, bracket, edge_flux=godunov_edge)
            state = step(state, grid, model, config, u_range=bracket)
            assert np.max(np.abs(state.u - expected)) <= limit


@pytest.mark.parametrize("domain", [(1.0, -1.0), (0.0, math.inf)])
def test_problem_spec_needs_a_finite_increasing_domain(domain):
    with pytest.raises(ValueError, match="need a finite domain with xmin < xmax"):
        ProblemSpec(domain, PiecewiseConstant((), (1.0,)))


def test_state_copy_owns_its_array():
    state = State(np.array([1.0, 2.0]), 0.5, 3)
    twin = state.copy()
    twin.u[0] = -1.0
    assert state.u.tolist() == [1.0, 2.0]
    assert (twin.t, twin.step) == (0.5, 3) and twin.u.tolist() == [-1.0, 2.0]


def test_solver_config_validation():
    with pytest.raises(ValueError, match="lam must be positive"):
        SolverConfig(lam=0.0, t_end=1.0)
    with pytest.raises(ValueError, match="t_end must be nonnegative"):
        SolverConfig(lam=0.5, t_end=-1.0)
    with pytest.raises(ValueError, match="left boundary"):
        SolverConfig(lam=0.5, t_end=1.0, left="inflow")


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_inflow_boundary_value_rejects_a_non_finite_slab_mean(bad):
    # run's check on its boundary column: level 4's slab lies past the jump
    # to a non-finite value, level 2's before it
    def trace(t):
        return np.where(np.asarray(t) > 0.3, bad, 1.0)

    assert inflow_boundary_value(trace, 2, 0.1) == 1.0
    with pytest.raises(DomainError, match=rf"averages to {bad} over the slab \[0\.4, 0\.5\]"):
        inflow_boundary_value(trace, 4, 0.1)


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


def constant_trace(v):
    # the closure YAML `kind: constant` builds
    return lambda t: v + 0.0 * np.asarray(t, dtype=float)


def test_constant_callable_inflow_returns_its_value_exactly():
    # five equal samples weighted by the Gauss-Legendre rule need not sum back
    # to their value
    rng = np.random.default_rng(11)
    for v in rng.uniform(0.1, 10.0, 2000):
        assert _slab_average(constant_trace(v), 0.1, 0.2) == v


def test_a_callable_slab_average_keeps_each_slab_s_own_sum():
    # every slab's nodes go to the trace in one call, but each slab keeps its
    # own 1-D weighted sum, which a 2-D product rounds differently in about
    # a third of these slabs; a scalar call is the same slab in the array
    def trace(t):
        return 1.5 + 0.25 * np.sin(7.0 * np.asarray(t))

    t0 = np.linspace(0.0, 1.0, 2001)[:-1].tolist()
    t1 = [t + 1.0 / 2000 for t in t0]
    means = _slab_average(trace, np.array(t0), np.array(t1)).tolist()
    assert means == [slab_average_oracle(trace, a, b) for a, b in zip(t0, t1)]
    assert means[::97] == [_slab_average(trace, a, b) for a, b in zip(t0[::97], t1[::97])]


def constant_inflow_config(v):
    return from_dict({
        "domain": {"xmin": -1.0, "xmax": 1.0},
        "interfaces": [],
        "fluxes": [{"kind": "linear"}],
        "initial": {"kind": "piecewise_constant", "breakpoints": [], "values": [v]},
        "lambda": 0.5,
        "t_end": 0.5,
        "resolutions": [32],
        "reference_n": 32,
        "boundary": {"left": {"kind": "inflow", "trace": {"kind": "constant", "value": v}}},
    })


def test_constant_inflow_holding_the_datum_keeps_a_run_bitwise_steady():
    grid = build_grid(-1.0, 1.0, 32)
    model = PiecewiseFlux((), (linear_flux(1.0),))
    rng = np.random.default_rng(12)
    for v in rng.uniform(0.1, 10.0, 100):
        # from the library, and from a YAML constant trace
        problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((), (v,)))
        config = SolverConfig(lam=0.5, t_end=0.5, left=Inflow(constant_trace(v)))
        assert np.array_equal(run(problem, grid, model, config).final.u, np.full(grid.n, v))
        cfg = constant_inflow_config(float(v))
        final = run(build_problem(cfg), grid, build_model(cfg), build_solver_config(cfg)).final
        assert np.array_equal(final.u, np.full(grid.n, v))


@pytest.mark.parametrize("scalar_only, array_form", [
    (lambda t: 1.5 + 0.25 * float(t), lambda t: 1.5 + 0.25 * np.asarray(t)),
    (lambda t: 1.25, lambda t: np.full(np.shape(t), 1.25)),
], ids=["rejects-arrays", "returns-one-float"])
def test_a_scalar_only_inflow_trace_runs_as_its_array_form(scalar_only, array_form):
    # the bracket's samples and every slab's quadrature take the per-entry
    # loop for a trace that rejects an array or answers it with one float,
    # and give the bits of the same trace written for arrays
    grid = build_grid(0.0, 1.0, 16)
    problem = ProblemSpec((0.0, 1.0), PiecewiseConstant((0.5,), (1.0, 2.0)))
    model = PiecewiseFlux((), (quadratic_flux(1.0, interval=(0.5, 3.0)),))

    def levels(trace):
        config = SolverConfig(lam=0.3, t_end=0.5, left=Inflow(trace))
        return [lv.u.tobytes() for lv in run(problem, grid, model, config, retain_levels=True).levels]

    assert levels(scalar_only) == levels(array_form)


def test_a_callable_inflow_is_called_as_often_at_any_resolution():
    # the bracket's samples, the quadrature nodes of every nonempty slab and
    # the ends of the empty ones (here the shortened step's: its level starts
    # at t_end) take one call each, however many levels the run has
    calls = []

    def trace(t):
        calls.append(np.shape(t))
        return 1.5 + 0.25 * np.sin(np.asarray(t))

    problem = ProblemSpec((0.0, 1.0), PiecewiseConstant((0.5,), (1.0, 2.0)))
    model = PiecewiseFlux((), (quadratic_flux(1.0, interval=(0.5, 3.0)),))
    config = SolverConfig(lam=0.3, t_end=0.5, left=Inflow(trace))
    counts = []
    for n in (64, 512):
        calls.clear()
        run(problem, build_grid(0.0, 1.0, n), model, config)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 3, counts


def test_a_custom_laws_float_calls_do_not_grow_with_the_resolution():
    # each interface's column is inverted in one elementwise call, so a
    # custom law is called at floats only for the bracket ends and by
    # invariant_interval, however many levels the run has
    floats = []

    def law(u):
        if not isinstance(u, np.ndarray):
            floats.append(u)
        return u + 0.1 * np.sin(u)

    model = PiecewiseFlux((-0.5, 0.0, 0.5), (
        linear_flux(1.0),
        quadratic_flux(1.0, interval=(0.05, 4.0)),
        custom_flux(law, lambda u: 1.0 + 0.1 * np.cos(u), interval=(0.0, 4.0)),
        quadratic_flux(-0.2, 2.0, interval=(0.0, 4.0)),
    ))
    rng = np.random.default_rng(29)
    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((-0.7, -0.2, 0.3, 0.8),
                                                         tuple(rng.uniform(0.5, 2.0, 5))))
    trace = SampledTable(np.linspace(0.0, 0.6, 13), rng.uniform(0.5, 2.0, 13))
    config = SolverConfig(lam=0.3, t_end=0.6, left=Inflow(trace))
    counts = []
    for n in (64, 512):
        floats.clear()
        run(problem, build_grid(-1.0, 1.0, n, model.interfaces), model, config)
        counts.append(len(floats))
    assert counts[0] == counts[1] <= 12, counts


def test_run_brackets_the_inflow_column_as_well_as_the_trace_samples():
    # a spike narrower than the bracket's sample spacing (t_end/1024) falls
    # between those samples but not between a slab's quadrature nodes: the
    # boundary cell would take means up to 5.41, lam * f' = 4.87, and march
    # into overflow
    def trace(t):
        return 1.0 + 5.0 * (np.abs(np.asarray(t) - 100.5 / 1024) < 0.2 / 1024)

    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((), (1.0,)))
    model = PiecewiseFlux((), (quadratic_flux(1.0, interval=(0.5, 10.0)),))
    config = SolverConfig(lam=0.9, t_end=1.0, left=Inflow(trace))
    with pytest.raises(StabilityError, match=r"on \[1, 5\.40768\]"):
        run(problem, build_grid(-1.0, 1.0, 4096), model, config)


def _nan_near_03(t):
    """An inflow trace that is 1 but NaN for |t - 0.3| < 0.01."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t - 0.3) < 0.01, np.nan, 1.0 + 0.0 * t)


BURGERS_01_4 = quadratic_flux(1.0, interval=(0.1, 4.0))


@pytest.mark.parametrize("model", [
    PiecewiseFlux((), (BURGERS_01_4,)),
    PiecewiseFlux((0.0,), (BURGERS_01_4, linear_flux(1.0))),
], ids=["one-law", "interface"])
def test_a_nan_inflow_is_rejected_before_the_march(model):
    # Python's min and max would drop a NaN slab mean from the bracket and
    # let it into the march; the first slab whose quadrature reaches the NaN
    # stretch, (0.28125, 0.290625), is named before the march instead
    grid = build_grid(-1.0, 1.0, 64, model.interfaces)
    config = SolverConfig(lam=0.3, t_end=0.9, left=Inflow(_nan_near_03))
    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((), (1.0,)))
    with pytest.raises(DomainError, match="inflow trace averages to nan over the slab") as exc:
        run(problem, grid, model, config)
    t0, t1 = (float(v) for v in str(exc.value).rsplit("[", 1)[1].rstrip("]").split(", "))
    dt = config.lam * grid.dx
    assert t0 < 0.29 < t1 and t1 - t0 == pytest.approx(dt)
    assert slab_average_oracle(_nan_near_03, t0 - dt, t0) == 1.0


def test_a_nan_trace_sample_is_rejected_before_the_march():
    # NaN at t = 0 alone: every slab's quadrature misses it, the bracket's
    # samples do not
    def trace(t):
        t = np.asarray(t, dtype=float)
        return np.where(t == 0.0, np.nan, 1.0 + 0.0 * t)

    config = SolverConfig(lam=0.3, t_end=0.9, left=Inflow(trace))
    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((), (1.0,)))
    with pytest.raises(DomainError, match=r"inflow trace is nan at its sample t=0\.0$"):
        run(problem, build_grid(-1.0, 1.0, 64), PiecewiseFlux((), (BURGERS_01_4,)), config)


def test_step_rejects_a_nan_time_with_an_inflow():
    # a NaN clock gives a NaN slab, whose mean must not become the boundary cell
    model = PiecewiseFlux((), (BURGERS_01_4,))
    config = SolverConfig(lam=0.3, t_end=0.9, left=Inflow(lambda t: 1.0 + 0.0 * t))
    state = State(np.ones(64), math.nan, 0)
    with pytest.raises(DomainError, match=r"over the slab \[nan, nan\]"):
        step(state, build_grid(-1.0, 1.0, 64), model, config)


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
        assert level.u[0] == inflow_boundary_value(trace, k, dt)
    # the final shortened slab would poke past t_end; it clips and falls back
    # to the endpoint trace value when empty
    assert trajectory.levels[-1].u[0] == pytest.approx(float(trace(0.25)), abs=1e-12)


def test_inflow_boundary_value_is_the_boundary_cell_run_writes():
    # dt = 0.3/64 is not dyadic, so k*dt and (k-1)*dt + dt part on some levels;
    # the helper must take run's start, bit for bit, on every full slab
    grid = build_grid(0.0, 1.0, 64)
    model = PiecewiseFlux((), (linear_flux(1.0),))
    problem = ProblemSpec((0.0, 1.0), PiecewiseConstant((), (1.0,)))
    dt = 0.3 * grid.dx
    rng = np.random.default_rng(23)
    for _ in range(20):
        trace = SampledTable(np.linspace(0.0, 1.0, 9), rng.uniform(0.5, 2.0, 9))
        config = SolverConfig(lam=0.3, t_end=0.93, left=Inflow(trace))
        levels = run(problem, grid, model, config, retain_levels=True).levels
        full = [k for k in range(1, len(levels)) if (k - 1) * dt + dt + dt <= 0.93]
        assert len(full) == 197
        assert [levels[k].u[0] for k in full] == [inflow_boundary_value(trace, k, dt)
                                                  for k in full]


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


def march_on_length(length, left):
    """An 8-cell step datum under u on [0, length], lam 0.5, to 2.5 steps, snapshot at 1.5."""
    grid = build_grid(0.0, length, 8)
    dt = 0.5 * grid.dx
    config = SolverConfig(lam=0.5, t_end=2.5 * dt, left=left(dt))
    problem = ProblemSpec((0.0, length), PiecewiseConstant((0.5 * length,), (2.0, 1.0)))
    return run(problem, grid, PiecewiseFlux((), (linear_flux(1.0),)), config, [1.5 * dt],
               retain_levels=True)


@pytest.mark.parametrize("left", [
    lambda dt: Outflow(),
    lambda dt: Inflow(SampledTable(dt * np.array([0.0, 1.25, 2.5]), [2.0, 3.0, 2.5])),
], ids=["outflow", "inflow"])
@pytest.mark.parametrize("length", [2.0 ** -60, 2.0 ** -40, 2.0 ** 40])
def test_a_run_marches_alike_on_every_length_scale(length, left):
    # the stub-step cut, the snapshot checks and the empty-slab rule scale
    # with the run's own times: a power-of-two length takes the same three
    # steps, the snapshot at level 2 and the same bits as on [0, 1], at
    # times scaled exactly by the length
    want = march_on_length(1.0, left)
    got = march_on_length(length, left)
    assert [lv.step for lv in got.levels] == [lv.step for lv in want.levels] == [0, 1, 2, 3]
    assert [lv.u.tobytes() for lv in got.levels] == [lv.u.tobytes() for lv in want.levels]
    assert [lv.t for lv in got.levels] == [lv.t * length for lv in want.levels]
    [snapshot] = got.snapshots
    assert snapshot.state.step == 2 and snapshot.state.t == want.snapshots[0].state.t * length


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
    for times in ([1.7], [np.nan], [0.3, np.nan, 0.6]):
        with pytest.raises(ValueError, match="snapshot times"):
            run(exp1_problem(), grid, TRANSPORT_THEN_BURGERS, config,
                snapshot_times=times)


def test_run_checks_domain_and_stability():
    grid = build_grid(0.0, 1.0, 8)
    model = PiecewiseFlux((), (linear_flux(1.0),))
    with pytest.raises(ValueError, match="problem lives on"):
        run(exp1_problem(), grid, model, SolverConfig(lam=0.5, t_end=0.1))
    grid = build_grid(-1.0, 1.0, 8, (0.0,))
    with pytest.raises(StabilityError, match="reduce lam"):
        run(exp1_problem(), grid, TRANSPORT_THEN_BURGERS,
            SolverConfig(lam=0.9, t_end=0.1))


def test_an_off_grid_interface_runs_as_a_model_on_its_snapped_edge():
    # experiment1 with its interface at 0.1, on no edge at any power of two:
    # the grid moves it to its nearest edge, and the run is the run of a
    # model whose interface is that edge, bit for bit
    config = dataclasses.replace(preset("experiment1"), interfaces=(0.1,))
    problem, solver_config = build_problem(config), build_solver_config(config)
    for n in [16, 32, 64, 128, 256, 512, 1024, 2048]:
        grid = build_grid(-1.0, 1.0, n, config.interfaces)
        assert grid.interfaces != config.interfaces
        again = build_grid(-1.0, 1.0, n, grid.interfaces)
        for field in dataclasses.fields(grid):
            assert (np.asarray(getattr(grid, field.name)).tobytes()
                    == np.asarray(getattr(again, field.name)).tobytes()), field.name
        snapped = build_model(dataclasses.replace(config, interfaces=grid.interfaces))
        got = run(problem, grid, build_model(config), solver_config).final.u
        assert got.tobytes() == run(problem, again, snapped, solver_config).final.u.tobytes()


@pytest.mark.parametrize("interfaces", [(), (-0.5, 0.5), (0.5,)],
                         ids=["no-interface", "two-interfaces", "another-edge"])
def test_a_grid_built_for_other_interfaces_is_refused(interfaces):
    # the march and the diagnostics pair each law with one subdomain of the
    # grid; on a grid built for other interfaces that pairing is wrong
    config = preset("experiment1")
    model, problem, solver_config = (build_model(config), build_problem(config),
                                     build_solver_config(config))
    trajectory = run(problem, build_grid(-1.0, 1.0, 16, config.interfaces), model,
                     solver_config, retain_levels=True)
    grid = build_grid(-1.0, 1.0, 16, interfaces)
    calls = [lambda: run(problem, grid, model, solver_config),
             lambda: step(trajectory.final, grid, model, solver_config),
             lambda: entropy_residual(trajectory, grid, model, [1.0]),
             lambda: flux_lipschitz_in_space(trajectory, grid, model)]
    for call in calls:
        with pytest.raises(GridAlignmentError, match=r"\(0.0,\) snap to \[8\] for n=16"):
            call()


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

    Whatever ``solver._NARROW_EVERY``, the cases of ``long`` cells, eight
    windows' length, span more than two windows, and ``flat-runs`` lasts 11.

    - ``flat-runs``: a pulse in the first block of the steady state at
      n=2048; the spans of the quiet blocks empty out and reopen when the
      pulse's domain of dependence reaches them.
    - ``signed-zeros``: a linear block holding 0.0 left of -0.9 and -0.0
      right of it; the front where -0.0 turns into 0.0 moves one cell a step
      without changing any value.
    - ``one-cell-subdomain``: the Burgers subdomain is one cell between two
      interfaces, so the block right of it is fed through two interface
      maps; the pulse never reaches them, so that block stays closed.
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
    long = 8 * solver._NARROW_EVERY
    if name == "flat-runs":
        model, n, lam = STEADY_2_2_1, 2048, 0.3
        t_end = 11 * solver._NARROW_EVERY * lam * 2.0 / n
        datum = PiecewiseConstant((-0.6, -0.55, -0.5, 0.0), (2.0, 2.4, 2.0, 2.0, 1.0))
        left = Outflow()
    elif name == "signed-zeros":
        model = PiecewiseFlux((0.5,), (linear_flux(1.0),
                                       quadratic_flux(1.0, 1.0, interval=(-0.5, 3.0))))
        n, lam, t_end = long, 0.5, 0.6
        datum = PiecewiseConstant((-0.9, 0.5), (0.0, -0.0, 1.0))
        left = Outflow()
    elif name == "reaches-last-cell":
        model, n, lam, t_end = STEADY_2_2_1, 256, 0.3, 0.3
        datum = PiecewiseConstant((-0.9, -0.85, -0.5, 0.0), (2.0, 2.4, 2.0, 2.0, 1.0))
        left = Outflow()
    elif name in ("one-cell-subdomain", "one-cell-chain"):
        n, lam, t_end = long, 0.3, 0.4
        model = PiecewiseFlux((0.0, 2.0 / n), STEADY_2_2_1.segments)
        pulse = -0.9 if name == "one-cell-subdomain" else -0.4
        datum = PiecewiseConstant((pulse, pulse + 0.05, 0.0, 2.0 / n),
                                  (2.0, 2.4, 2.0, 2.0, 1.0))
        left = Outflow()
    elif name == "inflow-shortened":
        model, n, lam = PiecewiseFlux((), (linear_flux(1.0),)), long, 0.3
        t_end = 0.3 + 0.5 * lam * 2.0 / n  # n / 2 full steps and half of one
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


def test_run_matches_the_reference_advance_with_a_callable_inflow(three_interface_model):
    # a callable trace's slab means come from the quadrature, slab by slab;
    # the data range takes the trace at run's 1025 sample times
    problem, grid, model, config, _ = window_case("three-interfaces", three_interface_model)
    trace = lambda t: 1.2 + 0.5 * np.sin(9.0 * np.asarray(t, dtype=float))  # noqa: E731
    config = SolverConfig(lam=config.lam, t_end=config.t_end, left=Inflow(trace))
    values = np.append(problem.initial.values, trace(np.linspace(0.0, config.t_end, 1025)))
    trajectory = assert_run_matches_reference_advance(
        problem, grid, model, config, (float(values.min()), float(values.max())))
    assert len({float(level.u[0]) for level in trajectory.levels}) == len(trajectory.levels)


@pytest.mark.parametrize(
    "case", ["flat-runs", "signed-zeros", "one-cell-subdomain", "inflow-shortened"])
def test_run_matches_the_reference_advance_where_spans_shrink_and_reopen(monkeypatch, case):
    problem, grid, model, config, data_range = window_case(case)
    log = record_spans(monkeypatch)
    assert_run_matches_reference_advance(problem, grid, model, config, data_range)
    bounds = (0, *grid.interface_cells, grid.n)
    blocks = [log[a] for a in bounds[:-1]]
    # every case narrows some span below its block's whole interior
    assert any(e - s < b - a - 1
               for spans, a, b in zip(blocks, bounds, bounds[1:]) for s, e in spans)
    if case == "signed-zeros":
        # no value moves in the linear block, but its sign front keeps it open
        assert all(s < e for s, e in blocks[0])
    elif case == "inflow-shortened":
        # the span holds the boundary cell in exactly the windows whose
        # inflow column moves: not in the first, while the table holds 1,
        # and in every one after it
        assert blocks[0][0][0] > 0
        assert all(s == 0 < e for s, e in blocks[0][1:])
    elif case == "one-cell-subdomain":
        # the block right of the one-cell subdomain reads its first-cell
        # column, which the pulse never reaches, and opens in no window
        assert blocks[2] and all(s == e for s, e in blocks[2])
    else:
        # some span empties out and reopens
        assert any(s0 >= e0 and s1 < e1
                   for spans in blocks for (s0, e0), (s1, e1) in zip(spans, spans[1:]))


def test_an_inflow_pulse_on_a_windows_first_level_reaches_the_march():
    # the second window writes levels k = _NARROW_EVERY + 2 on; a trace that
    # moves only on level k's slab, (k dt, (k + 1) dt), must open that
    # window's span at the boundary cell, whose neighbours then carry the
    # pulse downwind
    n, lam = 64, 0.5
    dt = lam * 2.0 / n
    k = solver._NARROW_EVERY + 2
    t_end = (k + 23.6) * dt
    trace = SampledTable(np.array([0.0, k * dt, (k + 0.5) * dt, (k + 1) * dt, t_end]),
                         np.array([1.0, 1.0, 2.0, 1.0, 1.0]))
    model = PiecewiseFlux((), (linear_flux(1.0),))
    config = SolverConfig(lam=lam, t_end=t_end, left=Inflow(trace))
    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((), (1.0,)))
    trajectory = assert_run_matches_reference_advance(
        problem, build_grid(-1.0, 1.0, n), model, config, (1.0, 2.0))
    boundary = [float(level.u[0]) for level in trajectory.levels]
    assert [j for j, v in enumerate(boundary) if v != 1.0] == [k]


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
    # eight windows' length of cells, so that the march spans three windows
    n = 8 * solver._NARROW_EVERY
    grid = build_grid(-1.0, 1.0, n, model.interfaces)
    problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant((), (1.0,)))
    config = SolverConfig(lam=0.3, t_end=0.25)
    sizes.clear()
    trajectory = run(problem, grid, model, config, retain_levels=True)
    steps = trajectory.final.step
    assert steps > 3 * solver._NARROW_EVERY
    # before the block marches, the law takes the Newton passes of the
    # bracket's inversions and of the interface inverse, whose first pass is
    # the block's whole first-cell column; then the
    # interface map moves the first custom cell off 1.0 on the first step,
    # a whole one; the change spreads one cell a step, so every later full
    # step is far short of the n / 2 values a whole update of the block
    # takes, its n / 2 - 1 interior cells and the interface cell upwind of
    # them (the shortened last step recomputes them all)
    newton, kernel = sizes[:-steps], sizes[-steps:]
    assert max(newton) == steps
    assert kernel[0] == kernel[-1] == n // 2
    assert max(kernel[1:-1]) < n // 2
    levels = reference_levels(cell_average(problem.initial, grid), grid, model, config,
                              invariant_interval(model, (1.0, 1.0)))
    assert len(trajectory.levels) == len(levels)
    for k, (level, u) in enumerate(zip(trajectory.levels, levels)):
        assert np.array_equal(level.u, u), f"level {k}"


@pytest.mark.parametrize("case", ["reaches-last-cell", "one-cell-chain"])
def test_a_disturbance_reaching_an_interface_within_a_window(monkeypatch, case):
    # a window's spans are fixed at its start; a change that reaches a
    # block's last cell later in the window must still reach the interface
    # cells downstream, through a one-cell subdomain too, and the span of
    # the block right of them must hold its first cell in that window, as
    # its first-cell column moves there
    problem, grid, model, config, data_range = window_case(case)
    log = record_spans(monkeypatch)
    trajectory = assert_run_matches_reference_advance(problem, grid, model, config, data_range)
    levels = np.stack([level.u for level in trajectory.levels])
    bounds = (0, *grid.interface_cells, grid.n)
    for p, end in zip(grid.interface_cells, bounds[2:]):
        k = int(np.flatnonzero(levels[1:, p] != levels[:-1, p])[0]) + 1
        # full steps from the second on go in windows starting at step 2
        assert 2 < k < trajectory.final.step and (k - 2) % solver._NARROW_EVERY != 0
        w = (k - 2) // solver._NARROW_EVERY
        # the nearest block upstream with an interior reached its end when
        # the window started
        i = max(i for i, (a, b) in enumerate(zip(bounds, bounds[1:])) if b <= p and b - a > 1)
        assert log[bounds[i]][w][1] == bounds[i + 1]
        s, e = log[p][w]
        assert s == p < e


def test_run_hands_experiment1_kernels_fewer_than_half_of_its_cells(monkeypatch):
    # cells whose upwind inputs did not change keep their value, so most of
    # the nominal cell updates of a Riemann problem never reach the law's
    # array form, bound whole or, for a folded law, for its squares alone
    received, sizes = 0, []

    def count(size):
        nonlocal received
        received += size

    def counting(build):
        def counted(*args):
            bind = build(*args)
            sizes.append(args[-1])

            def counting_bind(u, **fold):
                # the bound step runs every call, so this one counts each step's cells
                calls, values = bind(u, **fold)
                return [partial(count, u.size)] + calls, values
            return counting_bind
        return counted

    monkeypatch.setattr(solver, "_array_form", counting(solver._array_form))
    cfg = preset("experiment1")
    grid = build_grid(cfg.xmin, cfg.xmax, 4096, cfg.interfaces)
    trajectory = run(build_problem(cfg), grid, build_model(cfg), build_solver_config(cfg))
    assert sizes == [(grid.n // 2,)]
    assert 0 < received < 0.5 * trajectory.final.step * (grid.n // 2)


def order_check_levels(name):
    """Every level of verify's stacked order-check march on a preset, block by block."""
    cfg = preset(name)
    model, data = build_model(cfg), data_range(cfg)
    grid = build_grid(cfg.xmin, cfg.xmax, min(cfg.resolutions), cfg.interfaces)
    levels = np.empty((101, 2, 20, grid.n))
    march = cli._march

    def recorded(*args):
        for k, cells, new, old in march(*args):
            levels[k][..., cells] = new
            yield k, cells, new, old

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_march", recorded)
        _ordering_gap(data, model, build_solver_config(cfg), grid,
                      invariant_interval(model, data))
    return levels[1:]


@pytest.mark.parametrize("case", ["experiment1", "experiment2", "custom-chain",
                                  "order-check-experiment1", "order-check-experiment2"])
def test_every_level_is_the_same_at_any_window_length(monkeypatch, three_interface_model,
                                                      case):
    # a span skips only cells whose inputs did not change, so a window of 2,
    # 32 or 128 steps gives every retained level the same bits; the custom
    # chain has every law kind, a seeded datum and a 13-point inflow table
    def levels():
        if case.startswith("order-check"):
            return order_check_levels(case.split("-")[-1])
        if case == "custom-chain":
            rng = np.random.default_rng(7)
            breakpoints = tuple(np.sort(rng.uniform(-0.95, 0.95, 7)))
            problem = ProblemSpec((-1.0, 1.0), PiecewiseConstant(
                breakpoints, tuple(rng.uniform(0.5, 2.0, 8))))
            trace = SampledTable(np.linspace(0.0, 0.6, 13), rng.uniform(0.5, 2.0, 13))
            model, config = three_interface_model, SolverConfig(0.3, 0.6, Inflow(trace))
            grid = build_grid(-1.0, 1.0, 512, model.interfaces)
        else:
            cfg = preset(case)
            problem, model, config = build_problem(cfg), build_model(cfg), build_solver_config(cfg)
            grid = build_grid(cfg.xmin, cfg.xmax, 256, cfg.interfaces)
        return np.stack([level.u for level in run(problem, grid, model, config,
                                                  retain_levels=True).levels])

    marched, windows = {}, {}
    for length in (2, 32, 128):
        monkeypatch.setattr(solver, "_NARROW_EVERY", length)
        log = record_spans(monkeypatch)
        marched[length] = levels()
        windows[length] = len(log[0])
        monkeypatch.undo()
    # the window length took effect: more windows at 2 steps than at 128
    assert windows[2] > windows[32] >= windows[128] > 0
    for length in (32, 128):
        assert np.array_equal(marched[length].view(np.int64), marched[2].view(np.int64))


@pytest.mark.parametrize("case", ["saturated", "quiet"])
def test_a_window_reuses_the_calls_of_a_repeated_span_and_lam(monkeypatch, case):
    # a block whose span and lam repeat from window to window binds each
    # direction of its step once for each distinct (span, lam), not once a
    # window: a smooth datum fed by a smooth inflow changes every cell of
    # its block at every step, and the steady state 2 | 2 | 1 changes none
    if case == "saturated":
        model = PiecewiseFlux((), (linear_flux(1.0),))
        datum = lambda x: 1.5 + 0.4 * np.sin(3.0 * np.asarray(x, dtype=float))  # noqa: E731
        left = Inflow(lambda t: 1.5 + 0.4 * np.sin(7.0 * np.asarray(t, dtype=float)))
    else:
        model, datum = STEADY_2_2_1, PiecewiseConstant((-0.5, 0.0), (2.0, 2.0, 1.0))
        left = Outflow()
    grid = build_grid(-1.0, 1.0, 64, model.interfaces)
    n_steps = 5 * solver._NARROW_EVERY + 1  # a whole step and five windows
    config = SolverConfig(lam=0.5, t_end=n_steps * 0.5 * grid.dx, left=left)
    bound = []
    bind = solver._bind

    def logged(u, new, lam, block, span):
        bound.append((block.a, span, lam, id(u)))
        return bind(u, new, lam, block, span)

    monkeypatch.setattr(solver, "_bind", logged)
    log = record_spans(monkeypatch)
    trajectory = run(ProblemSpec((-1.0, 1.0), datum), grid, model, config)
    assert trajectory.final.step == n_steps
    for a, spans in log.items():
        assert len(spans) == 5 and len(set(spans)) == 1
        expected = (a, grid.n) if case == "saturated" else (a + 1, a + 1)
        assert spans[0] == expected
    # every (block, span, lam, direction) is bound once: the first step's
    # direction and the windows' other one when the span is the whole
    # block, and both directions once more when it is empty
    assert len(bound) == len(set(bound)) == len(log) * (2 if case == "saturated" else 3)


@pytest.mark.parametrize("batch", [(), (2, 3)])
@pytest.mark.parametrize("case", ["none", "all", "first-cell", "ahead-only", "signed-zero",
                                  "last-cell"])
def test_the_window_scan_finds_the_full_scans_span(case, batch):
    # the one-pass scan (two argmax reads over one comparison, an any over
    # rows for a stack) returns the span of a full reshape/any/nonzero scan;
    # a window of 3 steps on 32-cell blocks leaves room to widen
    grid = build_grid(-1.0, 1.0, 64, (0.0,))
    length = 3
    for block in solver._blocks(grid, TRANSPORT_THEN_BURGERS, (0.5, 2.0),
                                np.ones((*batch, grid.n))):
        a, b = block.a, block.b
        prev = np.full((*batch, grid.n), 1.0)
        u = prev.copy()
        ahead = np.full((length, *batch), 1.0)
        if case == "all":
            u[..., a:b] = 1.5
            ahead[:] = 1.5
        elif case == "first-cell":
            u[..., a] = 1.5
            ahead[:] = 1.5
        elif case == "ahead-only":
            ahead[-1] = 1.25
        elif case == "signed-zero":
            prev[..., a:b], u[..., a:b], ahead[:] = -0.0, -0.0, -0.0
            u[(0,) * len(batch) + (a + 3,)] = 0.0
        elif case == "last-cell":
            u[..., b - 1] = 1.5
        span = solver._window(u, prev, block, ahead)
        assert span == window_scan(u, prev, a, b, ahead, length)
        assert span == {"none": (a + 1, a + 1), "all": (a, b), "first-cell": (a, a + 4),
                        "ahead-only": (a, a + 4), "signed-zero": (a + 3, a + 7),
                        "last-cell": (b - 1, b)}[case]


@pytest.mark.parametrize("left_law", ["transport", "custom"])
def test_quiet_interface_maps_are_skipped_bit_for_bit(monkeypatch, three_interface_model,
                                                      left_law):
    # one elementwise call maps the left block's whole last-cell column,
    # quiet levels included, and a quiet level's entry is the value its cell
    # already holds, so the levels keep the bits of a map at every step, a
    # custom law upstream as much as a linear one
    inversions = []
    resolve = solver._inverse

    def counting(seg, bracket, image=None):
        inverse = resolve(seg, bracket, image)

        def counted(w):
            inversions.append(np.shape(w))
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
    assert inversions == [(trajectory.final.step,)]


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


# {{{ the update forms and the folded Burgers chain


S_LAM, S_LOW = 2.0 ** 480, 2.0 ** -520
VALUES = (0.5, 2.0, 1.25, 0.75, 1.5, 1.0, 2.0, 0.5)


@pytest.mark.parametrize("seg, values, lam, count", [
    (linear_flux(0.8, 0.3), VALUES, 0.9, 3),
    (quadratic_flux(1.0, interval=(0.05, 4.0)), VALUES, 0.4, 4),
    # lam*c rounds: 3 * 2^-1074 halves to a rounded subnormal
    (quadratic_flux(1.0, interval=(0.5 / S_LAM, 2.0 * S_LAM)), (S_LAM, 1.0 / S_LAM) * 4,
     3.0 * 2.0 ** -1074, 5),
    # c*u*u is subnormal, outside the fold's margin
    (quadratic_flux(1.0, interval=(0.1 * S_LOW, 10.0 * S_LOW)),
     tuple(v * S_LOW for v in VALUES), 0.25 / S_LOW, 5),
    (quadratic_flux(-0.2, 2.0, interval=(0.0, 4.0)), VALUES, 0.4, 7),
    (custom_flux(lambda u: u + 0.1 * np.sin(u), lambda u: 1.0 + 0.1 * np.cos(u),
                 interval=(0.0, 4.0)), VALUES, 0.9, 4),
], ids=["linear", "folded", "chain-lam-rounds", "chain-outside-margin", "quadratic-b",
        "custom"])
def test_each_update_form_binds_its_calls_and_the_reference_step(seg, values, lam, count):
    # _blocks fixes each block's update: a linear law's convex combination
    # in 3 ufunc calls; the upwind difference, the subtract and the product
    # with lam after the law's form, its square alone for a folded c*u^2, its
    # square and c on the law's chain, and those with b*u for b != 0, or one
    # call of a custom law; each step has the bits of the reference update
    model = PiecewiseFlux((), (seg,))
    u = np.array(values)
    grid = build_grid(0.0, 1.0, u.size)
    bracket = (float(u.min()), float(u.max()))
    block, = solver._blocks(grid, model, bracket, u)
    new = u.copy()  # the first cell is the march's to set
    calls = solver._bind(u, new, lam, block, (block.a, block.b))
    assert len(calls) == count
    for call in calls:
        call()
    want = reference_advance(u, 0.0, lam * grid.dx, lam, model, (), bracket)
    assert new.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["experiment1", "experiment2"])
def test_each_presets_burgers_block_binds_four_calls(name):
    # u^2/2 binds its square, the difference, one product with lam/2 and the
    # subtract: the law's 1/2 rides on lam instead of taking a pass of its own
    cfg = preset(name)
    model, solver_config = build_model(cfg), build_solver_config(cfg)
    grid = build_grid(cfg.xmin, cfg.xmax, 64, cfg.interfaces)
    u = np.full(grid.n, 1.0)
    blocks = solver._blocks(grid, model, invariant_interval(model, data_range(cfg)), u)
    burgers, = (block for block, seg in zip(blocks, model.segments)
                if seg.kind == "quadratic")
    calls = solver._bind(u, np.empty_like(u), cfg.lam, burgers, (burgers.a, burgers.b))
    assert len(calls) == 4
    assert calls[0].func is np.square and float(calls[2].args[1]) == cfg.lam * 0.5


@pytest.mark.parametrize("binade", [-480, -520, -536])
def test_squares_outside_the_normal_floats_keep_the_laws_chain(binade):
    # u^2/2 | 2u^2 on data near 2^binade: at -480 c*u*u stays inside the
    # fold's margin and both c fold into lam; at -520 and -536 u*u is
    # subnormal, so both laws keep their chain, whose levels equal the
    # oracle's where a fold's would not
    s = 2.0 ** binade
    model = PiecewiseFlux((0.5,), (quadratic_flux(1.0, interval=(0.1 * s, 10.0 * s)),
                                   quadratic_flux(4.0, interval=(0.01 * s, 10.0 * s))))
    grid = build_grid(0.0, 1.0, 64, model.interfaces)
    datum = PiecewiseConstant((0.2, 0.3, 0.7), (0.5 * s, 2.0 * s, 0.75 * s, 1.25 * s))
    bracket = invariant_interval(model, (0.5 * s, 2.0 * s))
    lam = 0.9 / max(seg.deriv_bounds(*bracket)[1] for seg in model.segments)
    config = SolverConfig(lam=lam, t_end=60 * lam * grid.dx)
    folds = binade == -480
    u = np.full(grid.n, s)
    calls = [solver._bind(u, np.empty_like(u), lam, block, (block.a, block.b))
             for block in solver._blocks(grid, model, bracket, u)]
    # a fold binds the square alone and scales by lam*c, the chain also c*u*u and lam
    assert [len(bound) for bound in calls] == ([4, 4] if folds else [5, 5])
    scales = [float(bound[-2].args[1]) for bound in calls]
    assert scales == ([lam * 0.5, lam * 2.0] if folds else [lam, lam])

    def levels():
        trajectory = run(ProblemSpec((0.0, 1.0), datum), grid, model, config, retain_levels=True)
        return [level.u for level in trajectory.levels]

    want = reference_levels(cell_average(datum, grid), grid, model, config, bracket)
    assert all(np.array_equal(got, u) for got, u in zip(levels(), want))
    if not folds:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_fold", lambda seg, lo, hi: 0.5 * seg.params[0])
            assert not all(np.array_equal(got, u) for got, u in zip(levels(), want))


def test_a_lam_whose_product_with_c_rounds_scales_the_squares_apart():
    # lam = 3 * 2^-1074 halves to a rounded subnormal, so the fold's lam*c
    # would move the bits of a cell next to one at 2^480; c then scales the
    # squares as in the law's chain, and the step equals the oracle's
    s = 2.0 ** 480
    model = PiecewiseFlux((), (quadratic_flux(1.0, interval=(0.5 / s, 2.0 * s)),))
    grid = build_grid(0.0, 8.0, 8)
    u = np.array([s, 1.0 / s] * 4)
    dt = 3.0 * 2.0 ** -1074
    lam = dt / grid.dx
    assert lam * 0.5 / 0.5 != lam
    new = step(State(u.copy(), 0.0, 0), grid, model, SolverConfig(lam=1.0, t_end=1.0),
               dt=dt, u_range=(1.0 / s, s))
    want = reference_advance(u, 0.0, dt, lam, model, (), (1.0 / s, s))
    assert new.u.tobytes() == want.tobytes()
    assert new.u[1] > 1e-40  # the left neighbour's flux moved the small cell


def test_step_decides_the_fold_on_the_state_as_well_as_the_bracket():
    # a bracket of ordinary values, and a state whose u*u is subnormal: the
    # plan keeps the law's chain, and the step equals the oracle's
    s = 2.0 ** -530
    model = PiecewiseFlux((), (quadratic_flux(1.0, interval=(0.1 * s, 4.0)),))
    grid = build_grid(0.0, 1.0, 16)
    u = np.linspace(0.5, 2.0, grid.n) * s
    lam = 0.25 / (2.0 * s)
    new = step(State(u.copy(), 0.0, 0), grid, model, SolverConfig(lam=lam, t_end=1.0),
               u_range=(0.5, 2.0))
    want = reference_advance(u, 0.0, lam * grid.dx, lam, model, (), (0.5, 2.0))
    assert new.u.tobytes() == want.tobytes()


# }}}
