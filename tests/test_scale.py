"""One scale rule: every range, window and slack check scales with its data.

Each check takes its tolerance from ``errors._tolerance``, relative to the
values it compares, so it reads the same after x, t or u are rescaled.  Every
case runs at s = 2^-60, 2^-40, 1 and 2^40: a value a relative 2^-20 past a
range of size s is rejected, and one within roundoff of it accepted, at
every s.
"""

import math

import numpy as np
import pytest

from discflux import (
    DomainError,
    Inflow,
    PiecewiseConstant,
    PiecewiseFlux,
    ProblemSpec,
    ProjectionError,
    SampledTable,
    SolverConfig,
    State,
    UnsupportedOracleError,
    ValidityError,
    build_grid,
    cell_average,
    custom_flux,
    exact_linear_advection,
    exact_two_flux_riemann,
    l1_error,
    linear_flux,
    preset,
    run,
)
from discflux.config import build_model, from_dict, to_dict
from discflux.errors import _tolerance
from discflux.grid import _empty, _slab_average
from discflux.solver import _inflow_column
from oracles import slab_average_oracle

FAR = 2.0 ** -20  # relative distance far past every tolerance

scales = pytest.mark.parametrize("s", [2.0 ** -60, 2.0 ** -40, 1.0, 2.0 ** 40],
                                 ids=["2^-60", "2^-40", "1", "2^40"])


def test_the_tolerance_is_relative_with_a_normal_floor():
    assert _tolerance(1e-9, -3.0, 2.0) == 1e-9 * 3.0
    assert _tolerance(1e-12, 0.0) == 1e-12 * 2.0 ** -1022
    got = _tolerance(1e-15, np.array([0.0, 1.0, -4.0]), np.array([2.0, -0.5, 0.0]))
    assert got.tolist() == [1e-15 * 2.0, 1e-15 * 1.0, 1e-15 * 4.0]


@scales
def test_a_table_rejects_a_query_past_its_range(s):
    table = SampledTable(np.array([0.0, s]), np.array([1.0, 2.0]))
    assert table(s * (1.0 + 1e-15)) == 2.0 and table(-s * 1e-15) == 1.0
    for t in (s * (1.0 + FAR), -s * FAR, np.nan):
        with pytest.raises(DomainError, match="tabulated range"):
            table(t)


@scales
def test_a_table_datum_must_cover_the_domain(s):
    table = SampledTable(np.array([0.0, s]), np.array([1.0, 2.0]))
    assert cell_average(table, build_grid(0.0, s, 4)).shape == (4,)
    with pytest.raises(DomainError, match="table covers"):
        cell_average(table, build_grid(-s * FAR, s, 4))


@scales
def test_a_run_needs_its_grid_on_the_problems_domain(s):
    problem = ProblemSpec((0.0, s), PiecewiseConstant((), (1.0,)))
    model = PiecewiseFlux((), (linear_flux(1.0),))
    config = SolverConfig(lam=0.5, t_end=0.0)
    assert run(problem, build_grid(0.0, s, 8), model, config).final.step == 0
    with pytest.raises(ValueError, match="problem lives on"):
        run(problem, build_grid(0.0, 2.0 * s, 8), model, config)


def flat(grid, t):
    return State(np.ones(grid.n), t, 0)


@scales
def test_l1_error_needs_one_domain(s):
    coarse, fine = build_grid(0.0, s, 4), build_grid(0.0, s, 8)
    assert l1_error(flat(coarse, s), coarse, flat(fine, s), fine) == 0.0
    wide = build_grid(0.0, 2.0 * s, 8)
    with pytest.raises(ProjectionError, match="different domains"):
        l1_error(flat(coarse, s), coarse, flat(wide, s), wide)


@scales
def test_l1_error_needs_one_time(s):
    coarse, fine = build_grid(0.0, s, 4), build_grid(0.0, s, 8)
    assert l1_error(flat(coarse, s), coarse, flat(fine, s * (1.0 + 1e-14)), fine) == 0.0
    with pytest.raises(ProjectionError, match="different times"):
        l1_error(flat(coarse, s), coarse, flat(fine, s * (1.0 + FAR)), fine)


@scales
def test_build_model_pads_the_data_range_by_its_own_scale(s):
    # experiment1 with its data scaled by s: Burgers increases on the padded
    # range [0.5 s, 2 s] at every s
    raw = to_dict(preset("experiment1"))
    raw["initial"]["values"] = [v * s for v in raw["initial"]["values"]]
    lo, hi = build_model(from_dict(raw)).segments[1].interval
    assert 0.0 < lo < 0.5 * s and 2.0 * s < hi < 2.0 * s * (1.0 + 1e-5)


@scales
def test_the_oracle_window_scales_with_its_end(s):
    bounded = exact_linear_advection(1.0, np.asarray, valid_until=s)
    assert bounded(0.0, s * (1.0 + 1e-13)) == -s * (1.0 + 1e-13)
    for t in (2.0 * s, -s * FAR):
        with pytest.raises(ValidityError, match="validity window"):
            bounded(0.0, t)
    unbounded = exact_linear_advection(1.0, np.asarray)
    assert unbounded(0.0, 2.0 ** 40 * s) == -(2.0 ** 40) * s
    with pytest.raises(ValidityError, match="validity window"):
        unbounded(0.0, -s * FAR)


@scales
def test_the_oracle_convexity_check_scales_with_the_law(s):
    # s * (u + sign * u**2 / 10) into s * u: the law's derivative is of size s
    def model(sign):
        law = custom_flux(lambda u: s * (u + sign * 0.1 * u * u),
                          lambda u: s * (1.0 + sign * 0.2 * np.asarray(u)), interval=(0.0, 3.0))
        return PiecewiseFlux((0.0,), (law, linear_flux(s)))

    assert exact_two_flux_riemann(model(1.0), 1.0, 0.5, -0.5).valid_until > 0.0
    with pytest.raises(UnsupportedOracleError, match="not convex"):
        exact_two_flux_riemann(model(-1.0), 1.0, 0.5, -0.5)


def test_the_slab_average_and_the_inflow_column_share_the_empty_slab_rule():
    # slabs of 1 to 64 ulps at t = 0.5 straddle the rule's edge, 1e-15 * t
    # (about 4.5 ulps), on a table steep enough that a slab's mean and its
    # end value differ: one array call gives every slab the oracle's bits,
    # empty or not, and so do a scalar call and a one-level column
    table = SampledTable(np.array([0.0, 1.0]), np.array([0.0, 1e12]))
    t0 = 0.5
    ends = [t0 + k * math.ulp(t0) for k in range(1, 65)]
    assert 0 < sum(bool(_empty(t0, t1)) for t1 in ends) < len(ends)
    means = _slab_average(table, np.full(len(ends), t0), np.array(ends)).tolist()
    assert means == [slab_average_oracle(table, t0, t1) for t1 in ends]
    for t1, mean in zip(ends, means):
        got = _slab_average(table, t0, t1)
        assert type(got) is float and got == mean
        assert _inflow_column(Inflow(table), [0.0], t0, t1 - t0, t1) == [mean]
