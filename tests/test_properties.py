"""Properties of the march and its diagnostics over drawn models, grids and data."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from discflux import (
    DivergentRangeError,
    GridAlignmentError,
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
    flux_lipschitz_in_space,
    invariant_interval,
    linear_flux,
    quadratic_flux,
    run,
)
from discflux import analysis
from discflux.errors import _tolerance
from discflux.fluxes import _array_form, _chain, _inverse
from discflux.solver import _NARROW_EVERY, _inflow_column, _march
from oracles import (
    adapted_constants_reference,
    entropy_residual_whole,
    flux_lipschitz_whole,
    invariant_interval_reference,
    reference_levels,
    same_report,
    scalar_inverse,
    slab_average_oracle,
)

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
    """A model with 1-3 interfaces anywhere in (0, 1), its grid, data, boundary and end time.

    The grid snaps each interface to its nearest edge; draws that snap two
    interfaces to one edge are dropped.
    """
    n = draw(st.integers(8, 512))
    k = draw(st.integers(1, 3))
    # at least half a cell from either end, so that no draw snaps to an end
    inside = st.floats(0.5 / n, 1.0 - 0.5 / n, exclude_max=True)
    interfaces = sorted(draw(st.lists(inside, min_size=k, max_size=k, unique=True)))
    model = PiecewiseFlux(tuple(interfaces), tuple(draw(laws) for _ in range(k + 1)))
    try:
        grid = build_grid(0.0, 1.0, n, model.interfaces)
    except GridAlignmentError:
        assume(False)
    breakpoints = sorted(draw(st.lists(st.floats(0.01, 0.99), max_size=5, unique=True)))
    datum = PiecewiseConstant(tuple(breakpoints),
                              tuple(draw(VALUES) for _ in range(len(breakpoints) + 1)))
    # up to six windows of steps and a few more, so that draws cross several
    # of the march's windows
    steps = draw(st.integers(1, 6 * _NARROW_EVERY + 8))
    fraction = draw(st.sampled_from([0.0, 0.5, 0.3]))
    inflow = draw(st.booleans())
    trace = np.array(draw(st.lists(VALUES, min_size=2, max_size=8))) if inflow else None
    cfl = draw(st.floats(0.2, 1.0))
    return model, grid, datum, steps + fraction, trace, cfl


def data_bounds(case):
    """The drawn case's least and largest value over its datum's cell averages and its trace."""
    _, grid, datum, _, trace, _ = case
    u0 = cell_average(datum, grid)
    lo, hi = float(u0.min()), float(u0.max())
    if trace is not None:
        lo, hi = min(lo, float(trace.min())), max(hi, float(trace.max()))
    return lo, hi


def march_config(case):
    """The drawn case's data range, bracket and solver config, or ``None``.

    Keeps the draws whose laws all increase on the invariant interval, and
    takes lam from its fastest wave speed.
    """
    model, grid, datum, steps, trace, cfl = case
    lo, hi = data_bounds(case)
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


@st.composite
def inversions(draw):
    """A law, a bracket where it increases and targets on and around its image.

    The law is linear, a convex or the concave quadratic, or a custom law;
    the bracket may be one point.  The targets hold the image's ends, one
    ulp past each, points inside the inverse's slack past each and points
    inside the image.
    """
    seg = draw(st.one_of(
        st.builds(linear_flux, st.floats(0.5, 2.0), st.sampled_from([0.0, 0.25])),
        st.builds(lambda a, b: quadratic_flux(a, b, interval=(0.05, 8.0)),
                  st.floats(0.5, 1.5), st.sampled_from([0.0, 0.3])),
        st.just(quadratic_flux(-0.2, 2.0, interval=(0.0, 8.0))),
        st.sampled_from(CUSTOM_LAWS),
    ))
    lo = draw(st.floats(0.05, 8.0))
    hi = draw(st.one_of(st.just(lo), st.floats(lo, 8.0)))
    f_lo, f_hi = float(seg(lo)), float(seg(hi))
    slack = _tolerance(1e-9, f_lo, f_hi)
    inside = st.floats(0.0, 1.0).map(lambda f: f_lo + f * (f_hi - f_lo))
    near = st.floats(0.0, 1.0).map(lambda f: f * slack)
    targets = draw(st.lists(st.one_of(
        st.sampled_from([f_lo, f_hi, np.nextafter(f_lo, -np.inf), np.nextafter(f_hi, np.inf)]),
        near.map(lambda d: f_lo - d), near.map(lambda d: f_hi + d), inside), min_size=1, max_size=40))
    return seg, (lo, hi), targets


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(inversions(), st.sampled_from([np.nan, np.inf, -np.inf, "below", "above"]),
       st.integers(0, 40))
def test_the_elementwise_inverse_is_the_scalar_inverse_at_every_entry(drawn, bad, where):
    # one array call gives each entry the bits of the scalar inverse; a
    # batch with a target the scalar inverse rejects raises its error for
    # the first such entry
    seg, bracket, targets = drawn
    inverse, oracle = _inverse(seg, bracket), scalar_inverse(seg, bracket)
    want = np.array([oracle(w) for w in targets])
    assert inverse(np.array(targets)).tobytes() == want.tobytes()
    f_lo, f_hi = float(seg(bracket[0])), float(seg(bracket[1]))
    if bad == "below":
        bad = f_lo - 2.0 * _tolerance(1e-9, f_lo, f_hi) - 1e-3
    elif bad == "above":
        bad = f_hi + 2.0 * _tolerance(1e-9, f_lo, f_hi) + 1e-3
    batch = list(targets)
    batch.insert(min(where, len(batch)), bad)
    batch.append(np.nan)
    with pytest.raises(Exception) as expected:
        for w in batch:
            oracle(w)
    with pytest.raises(type(expected.value)) as got:
        inverse(np.array(batch))
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def run_and_reference_levels(case):
    """Every level of ``run`` on a drawn case and of the reference update, or ``None``."""
    model, grid, datum, steps, trace, cfl = case
    drawn = march_config(case)
    if drawn is None:
        return None
    _, bracket, config = drawn
    trajectory = run(ProblemSpec((0.0, 1.0), datum), grid, model, config, retain_levels=True)
    levels = reference_levels(cell_average(datum, grid), grid, model, config, bracket)
    return [level.u for level in trajectory.levels], levels


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(marches())
def test_run_equals_the_reference_update_at_every_level(case):
    drawn = run_and_reference_levels(case)
    assume(drawn is not None)
    got, levels = drawn
    assert len(got) == len(levels) == int(np.ceil(case[3])) + 1
    for u, want in zip(got, levels):
        assert np.array_equal(u, want)


@st.composite
def folded_marches(draw):
    """A model of 1-4 interfaces whose laws are ``c*u**2``, c = ±2^k with k in [-6, 6].

    The data and an optional inflow trace take the laws' sign, so that every
    law increases on them, and one binade: an ordinary one, or one that puts
    ``c*u*u`` within a few binades of the fold's guard at either end of the
    normal floats, on both sides of it.
    """
    n = draw(st.integers(8, 256))
    k = draw(st.integers(1, 4))
    cells = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k, unique=True)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    scale = sign * 2.0 ** draw(st.one_of(st.integers(-4, 4), st.integers(490, 498),
                                          st.integers(-505, -495)))
    interval = tuple(sorted((scale / 64.0, scale * 64.0)))
    laws = tuple(quadratic_flux(sign * 2.0 ** (draw(st.integers(-6, 6)) + 1), interval=interval)
                 for _ in range(k + 1))
    model = PiecewiseFlux(tuple(p / n for p in cells), laws)
    grid = build_grid(0.0, 1.0, n, model.interfaces)
    breakpoints = sorted(draw(st.lists(st.floats(0.01, 0.99), max_size=5, unique=True)))
    datum = PiecewiseConstant(tuple(breakpoints),
                              tuple(scale * draw(VALUES) for _ in range(len(breakpoints) + 1)))
    steps = draw(st.integers(1, 100)) + draw(st.sampled_from([0.0, 0.5]))
    trace = None
    if draw(st.booleans()):
        trace = scale * np.array(draw(st.lists(VALUES, min_size=2, max_size=8)))
    return model, grid, datum, steps, trace, draw(st.floats(0.2, 1.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(folded_marches())
def test_folded_laws_march_the_reference_update_at_every_level(case):
    # lam*c on the squares' difference, where the law's chain takes c*u*u:
    # every level has the bits of the reference update, whose edge fluxes
    # are the law's own, whether the plan folds each law or not
    drawn = run_and_reference_levels(case)
    assume(drawn is not None)
    got, levels = drawn
    assert len(got) == len(levels)
    for u, want in zip(got, levels):
        assert u.tobytes() == want.tobytes()


@st.composite
def inflow_runs(draw):
    """A grid, lam and end time with an inflow trace: a table or a callable.

    A table starts at 0 and ends at the end time or past it; its inner
    points fall anywhere or on level times, and a value of ``None`` repeats
    the one before it, so that slabs hold table points and constant
    stretches.  The end time may leave a shortened final step.
    """
    n = draw(st.integers(4, 64))
    lam = draw(st.floats(0.2, 1.0))
    dt = lam * build_grid(0.0, 1.0, n).dx
    steps = draw(st.integers(1, 120))
    t_end = (steps + draw(st.sampled_from([0.0, 0.5, 0.3, 0.999]))) * dt
    kind = draw(st.sampled_from(["table", "constant", "smooth"]))
    if kind == "constant":
        v = draw(VALUES)
        trace = lambda t: v + 0.0 * np.asarray(t, dtype=float)  # noqa: E731
    elif kind == "smooth":
        a = draw(st.floats(0.1, 0.5))
        trace = lambda t: 1.0 + a * np.sin(7.0 * np.asarray(t, dtype=float))  # noqa: E731
    else:
        end = t_end * draw(st.sampled_from([1.0, 1.5]))
        inner = draw(st.lists(st.one_of(st.floats(0.0, 1.0).map(lambda f: f * end),
                                        st.integers(1, steps).map(lambda k: k * dt)),
                              max_size=draw(st.sampled_from([3, 3 * steps]))))
        pts = np.unique([0.0, end, *(t for t in inner if t < end)])
        # 0.9 is a value whose one-piece trapezoid need not round back to it
        values = [0.9]
        for v in draw(st.lists(st.one_of(VALUES, st.just(0.9), st.none()),
                               min_size=pts.size, max_size=pts.size)):
            values.append(values[-1] if v is None else v)
        trace = SampledTable(pts, np.array(values[1:]))
    return n, lam, t_end, trace


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(inflow_runs())
def test_the_inflow_column_is_the_slab_mean_of_every_level(case):
    # the boundary cell of every level has the bits of the trace's mean over
    # that level's slab, the time arithmetic of the reference march included
    n, lam, t_end, trace = case
    grid = build_grid(0.0, 1.0, n)
    config = SolverConfig(lam=lam, t_end=t_end, left=Inflow(trace))
    problem = ProblemSpec((0.0, 1.0), PiecewiseConstant((), (1.0,)))
    model = PiecewiseFlux((), (linear_flux(1.0),))
    levels = run(problem, grid, model, config, retain_levels=True).levels
    dt = lam * grid.dx
    n_full = int(np.floor(t_end / dt + 1e-12))
    for k, level in enumerate(levels[1:], 1):
        t0 = (k - 1) * dt + (dt if k <= n_full else t_end - n_full * dt)
        want = slab_average_oracle(trace, t0, min(t0 + dt, t_end))
        assert float(level.u[0]).hex() == want.hex(), f"level {k}"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(marches(), st.integers(0, 2**32 - 1), st.booleans())
def test_a_stacked_plan_marches_each_row_as_a_one_row_plan(case, seed, windowed):
    # a (2, 3) stack of states, the datum and five drawn from the data's
    # range, marched through _march over more than two windows: every
    # block of every row at every level has the bits of that row's own
    # one-row march.  Windowed, the five are flat on the datum's pieces, so
    # the spans, which hold the cells that changed in any row, narrow
    model, grid, datum, steps, _, _ = case
    drawn = march_config(case)
    assume(drawn is not None)
    (lo, hi), bracket, config = drawn
    lam, dt = config.lam, config.lam * grid.dx
    rng = np.random.default_rng(seed)
    if windowed:
        pieces = rng.uniform(lo, hi, (6, len(datum.values)))
        stack = np.stack([cell_average(PiecewiseConstant(datum.breakpoints, tuple(values)), grid)
                          for values in pieces]).reshape(2, 3, grid.n)
    else:
        stack = rng.uniform(lo, hi, (2, 3, grid.n))
    stack[0, 0] = cell_average(datum, grid)
    lams = [lam] * int(max(np.ceil(steps), 2 * _NARROW_EVERY + 3))
    column = _inflow_column(config.left, dt * np.arange(len(lams)), dt, dt, config.t_end)
    stacked = _march(grid, model, bracket, stack, np.empty_like(stack), lams, column)
    alone = [_march(grid, model, bracket, row.copy(), np.empty(grid.n), lams, column)
             for row in stack.reshape(-1, grid.n)]
    marched = 0
    for (k, cells, level, _), *rows in zip(stacked, *alone):
        marched += 1
        for got, (row_k, row_cells, want, _) in zip(level.reshape(-1, level.shape[-1]), rows):
            assert (row_k, row_cells) == (k, cells)
            assert got.tobytes() == want.tobytes()
    assert marched == len(lams) * len(model.segments)


# Entropy constants: on the data, past a law's image or a quadratic's
# vertex on either side, and two whose flux overflows a quadratic law.
CONSTANTS = st.one_of(VALUES, st.floats(-20.0, 20.0), st.sampled_from([1e160, -1e160]))


def same_bits_or_error(got, want):
    """``got()`` and ``want()`` give the same floats bit for bit, or raise one error class."""
    try:
        expected = [float(v).hex() for v in want()]
    except Exception as exc:
        with pytest.raises(type(exc)):
            got()
    else:
        assert [float(v).hex() for v in got()] == expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(marches(), st.lists(CONSTANTS, min_size=1, max_size=4))
def test_the_chain_keeps_the_bits_of_the_hand_written_loops(case, constants):
    # the invariant interval and the adapted constants are one pass through
    # the interface maps; on the data's range and its hull with each
    # constant, and for each constant, they give the bits of their former
    # loops, or raise the error class those raise
    model, seed = case[0], data_bounds(case)
    for lo, hi in [seed, *((min(seed[0], c), max(seed[1], c)) for c in constants)]:
        same_bits_or_error(lambda: invariant_interval(model, (lo, hi)),
                           lambda: invariant_interval_reference(model, (lo, hi)))
    for c in constants:
        same_bits_or_error(lambda: _chain(model, c, seed),
                           lambda: adapted_constants_reference(model, c, seed))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(marches(), st.integers(1, 17))
def test_entropy_residual_equals_the_whole_array_form(case, n_constants):
    # the active band, the quiet +0.0 and the per-constant merge give the
    # whole residual's value, sign of zero and first argmax, in blocks of
    # the default size and of one step each; the Lipschitz quotient's carried
    # pair sums give the bits of its whole form on the same blocks
    model, grid, datum, _, _, _ = case
    drawn = march_config(case)
    assume(drawn is not None)
    data_range, _, config = drawn
    trajectory = run(ProblemSpec((0.0, 1.0), datum), grid, model, config, retain_levels=True)
    # constants from the data's range, as verify samples them: each one's
    # adapted chain stays inside the invariant interval
    constants = np.linspace(*data_range, n_constants)
    want = entropy_residual_whole(trajectory, grid, model, constants)
    quotient = flux_lipschitz_whole(trajectory, grid, model).hex()
    same_report(entropy_residual(trajectory, grid, model, constants), want)
    assert flux_lipschitz_in_space(trajectory, grid, model).hex() == quotient
    with mock.patch.object(analysis, "_RESIDUAL_BLOCK_BYTES", 1):
        same_report(entropy_residual(trajectory, grid, model, constants), want)
        assert flux_lipschitz_in_space(trajectory, grid, model).hex() == quotient
