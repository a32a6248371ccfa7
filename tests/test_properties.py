"""Properties of the march and its diagnostics over drawn models, grids and data."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from discflux import (
    DivergentRangeError,
    Inflow,
    Outflow,
    PiecewiseConstant,
    PiecewiseFlux,
    ProblemSpec,
    SampledTable,
    SolverConfig,
    build_grid,
    cell_average,
    custom_flux,
    entropy_residual,
    invariant_interval,
    linear_flux,
    quadratic_flux,
    run,
)
from discflux import analysis
from discflux.fluxes import _array_form
from discflux.solver import _March
from oracles import entropy_residual_whole, reference_levels, same_report

# Built once: a custom law is sampled densely when it is wrapped.
CUSTOM_LAWS = (
    custom_flux(lambda u: u + 0.1 * np.sin(u), lambda u: 1.0 + 0.1 * np.cos(u),
                interval=(0.0, 8.0)),
    custom_flux(lambda u: u * u * u / 6.0 + u, lambda u: 0.5 * u * u + 1.0,
                interval=(0.0, 8.0)),
)

# Data values: any in the box, or one of a few repeated ones, so that pieces
# of equal value leave flat runs the march's spans can skip.
VALUES = st.one_of(st.floats(0.5, 2.0), st.sampled_from([0.5, 1.0, 2.0]))

laws = st.one_of(
    st.builds(linear_flux, st.floats(0.5, 2.0), st.sampled_from([0.0, 0.25])),
    st.builds(lambda a: quadratic_flux(a, interval=(0.05, 8.0)), st.floats(0.5, 1.5)),
    st.builds(lambda a, b: quadratic_flux(a, b, interval=(0.05, 8.0)),
              st.floats(0.5, 1.5), st.floats(0.1, 1.0)),
    st.just(quadratic_flux(-0.2, 2.0, interval=(0.0, 8.0))),
    st.sampled_from(CUSTOM_LAWS),
)


# Law coefficients: any in a box, or one of a few named ones.  b = 0 drops
# the b*u term, and a = -0.2 is a law whose float and array values once
# differed by an ulp at about 2% of points.
SLOPES = st.one_of(st.sampled_from([-0.2, 0.7, 1.5]), st.floats(0.1, 2.0), st.floats(-2.0, -0.1))
OFFSETS = st.one_of(st.sampled_from([0.0, 2.0]), st.floats(-2.0, 2.0))


@st.composite
def law_points(draw):
    """A linear or quadratic law and up to 64 points where it increases."""
    a, b = draw(SLOPES), draw(OFFSETS)
    if draw(st.booleans()):
        seg, (lo, hi) = linear_flux(abs(a), b), (-4.0, 4.0)
    else:
        vertex = -b / a
        lo, hi = (vertex + 0.05, vertex + 4.0) if a > 0.0 else (vertex - 4.0, vertex - 0.05)
        seg = quadratic_flux(a, b, interval=(lo, hi))
    return seg, np.array(draw(st.lists(st.floats(lo, hi), min_size=1, max_size=64)))


@st.composite
def marches(draw):
    """A model with 1-3 interfaces on an aligned grid, data, boundary and end time."""
    n = draw(st.integers(8, 512))
    k = draw(st.integers(1, 3))
    cells = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k, unique=True)))
    model = PiecewiseFlux(tuple(p / n for p in cells), tuple(draw(laws) for _ in range(k + 1)))
    grid = build_grid(0.0, 1.0, n, model.interfaces)
    breakpoints = sorted(draw(st.lists(st.floats(0.01, 0.99), max_size=5, unique=True)))
    datum = PiecewiseConstant(tuple(breakpoints),
                              tuple(draw(VALUES) for _ in range(len(breakpoints) + 1)))
    # up to 200 steps, so that draws cross several of the march's windows
    steps = draw(st.integers(1, 200))
    fraction = draw(st.sampled_from([0.0, 0.5, 0.3]))
    inflow = draw(st.booleans())
    trace = np.array(draw(st.lists(VALUES, min_size=2, max_size=8))) if inflow else None
    cfl = draw(st.floats(0.2, 1.0))
    return model, grid, datum, steps + fraction, trace, cfl


def march_config(case):
    """The drawn case's data range, bracket and solver config, or ``None``.

    Keeps the draws whose laws all increase on the invariant interval, and
    takes lam from its fastest wave speed.
    """
    model, grid, datum, steps, trace, cfl = case
    u0 = cell_average(datum, grid)
    lo, hi = float(u0.min()), float(u0.max())
    if trace is not None:
        lo, hi = min(lo, float(trace.min())), max(hi, float(trace.max()))
    try:
        bracket = invariant_interval(model, (lo, hi))
    except DivergentRangeError:
        return None
    bounds = [seg.deriv_bounds(*bracket) for seg in model.segments]
    if not all(d_min > 0.0 for d_min, _ in bounds):
        return None
    lam = cfl / max(d_max for _, d_max in bounds)
    t_end = steps * lam * grid.dx
    left = Outflow()
    if trace is not None:
        left = Inflow(SampledTable(np.linspace(0.0, t_end, trace.size), trace))
    return (lo, hi), bracket, SolverConfig(lam=lam, t_end=t_end, left=left)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(law_points())
def test_a_law_gives_one_value_per_point(drawn):
    # a law's value at a float, inside an array and from the march's bound
    # array form has the same bits, so every edge flux of a block can come
    # from the one array form
    seg, u = drawn
    values = seg(u)
    assert np.array([seg(float(v)) for v in u]).tobytes() == values.tobytes()
    if seg.kind == "quadratic":
        calls, bound = _array_form(seg, u.size + 3)(u)
        for call in calls:
            call()
        assert bound.tobytes() == values.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(marches())
def test_run_equals_the_reference_update_at_every_level(case):
    model, grid, datum, steps, trace, cfl = case
    drawn = march_config(case)
    assume(drawn is not None)
    _, bracket, config = drawn
    u0 = cell_average(datum, grid)

    trajectory = run(ProblemSpec((0.0, 1.0), datum), grid, model, config, retain_levels=True)
    levels = reference_levels(u0, grid, model, config, bracket)
    assert len(trajectory.levels) == len(levels) == int(np.ceil(steps)) + 1
    for level, u in zip(trajectory.levels, levels):
        assert np.array_equal(level.u, u)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(marches(), st.integers(0, 2**32 - 1))
def test_a_stacked_plan_marches_each_row_as_a_one_row_plan(case, seed):
    # a (2, 3) stack of states, the datum and five drawn from the data's
    # range, marched in whole steps both ways between two buffers: every
    # row of every level has the bits of its own one-row march
    model, grid, datum, steps, _, _ = case
    drawn = march_config(case)
    assume(drawn is not None)
    (lo, hi), bracket, config = drawn
    lam, dt = config.lam, config.lam * grid.dx
    stack = np.random.default_rng(seed).uniform(lo, hi, (2, 3, grid.n))
    stack[0, 0] = cell_average(datum, grid)
    spare = np.empty_like(stack)
    stacked = _March(grid, model, config, bracket, batch=stack.shape[:-1])
    both_ways = (stacked.bind(stack, spare, lam), stacked.bind(spare, stack, lam))
    alone = _March(grid, model, config, bracket)
    rows = [(row.copy(), np.empty(grid.n)) for row in stack.reshape(-1, grid.n)]
    rows_both_ways = [(alone.bind(u, new, lam), alone.bind(new, u, lam)) for u, new in rows]
    for k in range(int(np.ceil(steps))):
        stacked.advance(both_ways[k % 2], k * dt, dt)
        level = (spare, stack)[k % 2].reshape(-1, grid.n)
        for got, buffers, row_ways in zip(level, rows, rows_both_ways):
            alone.advance(row_ways[k % 2], k * dt, dt)
            assert got.tobytes() == buffers[1 - k % 2].tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(marches(), st.integers(1, 17))
def test_entropy_residual_equals_the_whole_array_form(case, n_constants):
    # the active band, the quiet +0.0 and the per-constant merge give the
    # whole residual's value, sign of zero and first argmax, in blocks of
    # the default size and of one step each
    model, grid, datum, _, _, _ = case
    drawn = march_config(case)
    assume(drawn is not None)
    data_range, _, config = drawn
    trajectory = run(ProblemSpec((0.0, 1.0), datum), grid, model, config, retain_levels=True)
    # constants from the data's range, as verify samples them: each one's
    # adapted chain stays inside the invariant interval
    constants = np.linspace(*data_range, n_constants)
    want = entropy_residual_whole(trajectory, grid, model, constants)
    same_report(entropy_residual(trajectory, grid, model, constants), want)
    with mock.patch.object(analysis, "_RESIDUAL_BLOCK_BYTES", 1):
        same_report(entropy_residual(trajectory, grid, model, constants), want)
