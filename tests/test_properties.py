"""Properties of the march over drawn models, grids and data."""

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
    invariant_interval,
    linear_flux,
    quadratic_flux,
    run,
)
from oracles import reference_levels

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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(marches())
def test_run_equals_the_reference_update_at_every_level(case):
    model, grid, datum, steps, trace, cfl = case
    u0 = cell_average(datum, grid)
    lo, hi = float(u0.min()), float(u0.max())
    if trace is not None:
        lo, hi = min(lo, float(trace.min())), max(hi, float(trace.max()))
    # keep the draws whose laws all increase on the invariant interval, and
    # take lam from its fastest wave speed
    try:
        bracket = invariant_interval(model, (lo, hi))
    except DivergentRangeError:
        assume(False)
    bounds = [seg.deriv_bounds(*bracket) for seg in model.segments]
    assume(all(d_min > 0.0 for d_min, _ in bounds))
    lam = cfl / max(d_max for _, d_max in bounds)
    t_end = steps * lam * grid.dx
    left = Outflow()
    if trace is not None:
        left = Inflow(SampledTable(np.linspace(0.0, t_end, trace.size), trace))
    config = SolverConfig(lam=lam, t_end=t_end, left=left)

    trajectory = run(ProblemSpec((0.0, 1.0), datum), grid, model, config, retain_levels=True)
    levels = reference_levels(u0, grid, model, config, bracket)
    assert len(trajectory.levels) == len(levels) == int(np.ceil(steps)) + 1
    for level, u in zip(trajectory.levels, levels):
        assert np.array_equal(level.u, u)
