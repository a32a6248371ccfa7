"""Error norms, rates, and the variation/entropy diagnostics."""

import math

import numpy as np
import pytest

from discflux import (
    PiecewiseConstant,
    PiecewiseFlux,
    ProblemSpec,
    SolverConfig,
    State,
    Trajectory,
    build_grid,
    build_model,
    build_problem,
    build_solver_config,
    cell_average,
    custom_flux,
    entropy_residual,
    exact_linear_advection,
    flux_lipschitz_in_space,
    linear_flux,
    l1_error,
    l1_error_vs_oracle,
    ooc,
    preset,
    quadratic_flux,
    run,
    spatial_tv,
    temporal_tv,
)
from discflux import analysis
from discflux.analysis import _adapted_constants
from discflux.errors import (
    MissingDataError,
    ProjectionError,
    SequencingError,
    ValidityError,
)
from oracles import entropy_residual_whole, flux_lipschitz_all_pairs, same_report


def _state(u, t=0.0, step=0):
    return State(u=np.asarray(u, dtype=float), t=t, step=step)


# {{{ l1_error


def test_l1_error_projects_fine_onto_coarse():
    coarse_grid = build_grid(0.0, 1.0, 2, ())
    fine_grid = build_grid(0.0, 1.0, 4, ())
    coarse = _state([1.0, 2.0])
    fine = _state([1.0, 3.0, 2.0, 2.0])
    # fine cell pairs average to [2, 2], so the only defect is |1 - 2| * 0.5
    assert l1_error(coarse, coarse_grid, fine, fine_grid) == pytest.approx(0.5)
    exact_refinement = _state([1.5, 0.5, 2.0, 2.0])
    assert l1_error(coarse, coarse_grid, exact_refinement, fine_grid) == 0.0


def test_l1_error_rejects_mismatched_inputs():
    grid_a = build_grid(0.0, 1.0, 2, ())
    grid_b = build_grid(0.0, 2.0, 4, ())
    with pytest.raises(ProjectionError, match="different domains"):
        l1_error(_state([0.0, 0.0]), grid_a, _state([0.0] * 4), grid_b)
    grid_c = build_grid(0.0, 1.0, 3, ())
    with pytest.raises(ProjectionError, match="not a multiple"):
        l1_error(_state([0.0, 0.0]), grid_a, _state([0.0] * 3), grid_c)
    grid_d = build_grid(0.0, 1.0, 4, ())
    with pytest.raises(ProjectionError, match="different times"):
        l1_error(_state([0.0, 0.0], t=0.5), grid_a, _state([0.0] * 4, t=0.25), grid_d)


def test_l1_error_vs_oracle_exact_for_linear_profile():
    # cell averages of a linear profile equal its value at the cell center,
    # and 16-point quadrature integrates it exactly, so the distance is
    # roundoff only
    grid = build_grid(0.0, 1.0, 8, ())
    sol = exact_linear_advection(0.5, lambda x: 2.0 * x + 1.0, valid_until=0.25)
    state = _state(2.0 * grid.centers + 0.75, t=0.25)
    assert l1_error_vs_oracle(state, grid, sol) < 1e-14
    with pytest.raises(ValidityError):
        l1_error_vs_oracle(_state(grid.centers, t=0.3), grid, sol)


# }}}


# {{{ observed orders


def test_ooc_of_halving_errors_is_one():
    rates = ooc([(16, 0.8), (32, 0.4), (64, 0.2)])
    assert rates == pytest.approx([1.0, 1.0])


def test_ooc_requires_doubled_resolutions():
    with pytest.raises(SequencingError, match="must double"):
        ooc([(16, 0.1), (48, 0.05)])


def test_ooc_degenerate_inputs():
    assert ooc([(16, 0.1)]) == []
    assert ooc([]) == []
    with pytest.raises(ValueError, match="positive"):
        ooc([(16, 0.1), (32, 0.0)])


# }}}


# {{{ variation diagnostics


def test_spatial_tv_whole_split_and_per_subdomain():
    grid = build_grid(-1.0, 1.0, 8, (0.0,))
    state = _state([0.0, 1.0, 0.0, 2.0, 5.0, 5.0, 6.0, 4.0])
    assert spatial_tv(state, grid) == pytest.approx(10.0)
    # dropping the pair straddling the interface removes |5 - 2|
    assert spatial_tv(state, grid, split_at_interfaces=True) == pytest.approx(7.0)
    assert spatial_tv(state, grid, subdomain=0) == pytest.approx(4.0)
    assert spatial_tv(state, grid, subdomain=1) == pytest.approx(3.0)


def test_temporal_tv_accumulates_level_differences():
    config = preset("experiment1")
    grid = build_grid(config.xmin, config.xmax, 16, config.interfaces)
    model = build_model(config)
    problem = build_problem(config)
    solver_config = build_solver_config(config)
    traj = run(problem, grid, model, solver_config,
               record_increments=True, retain_levels=True)
    u_all = np.stack([lv.u for lv in traj.levels])
    manual = np.abs(np.diff(u_all, axis=0)).sum(axis=0)
    for cell in (0, 5, grid.interface_cells[0], 15):
        assert temporal_tv(traj, cell) == pytest.approx(manual[cell], abs=1e-13)

    bare = run(problem, grid, model, solver_config)
    with pytest.raises(MissingDataError, match="record_increments"):
        temporal_tv(bare, 5)


def test_flux_lipschitz_flat_for_translating_step():
    # a step translating through a linear law pins the quotient at the flux
    # jump over the shock speed, (2 - 0.5)/1, independent of resolution
    config = preset("experiment1")
    model = build_model(config)
    problem = build_problem(config)
    solver_config = build_solver_config(config)
    values = []
    for n in (32, 64, 128):
        grid = build_grid(config.xmin, config.xmax, n, config.interfaces)
        traj = run(problem, grid, model, solver_config, retain_levels=True)
        values.append(flux_lipschitz_in_space(traj, grid, model))
    assert values == pytest.approx([1.5, 1.5, 1.5], rel=1e-6)


def test_flux_lipschitz_stays_capped_while_shock_sharpens():
    # the smooth bump steepens into a shock whose trace variation converges
    # from below, so the quotient grows toward its limit at coarse
    # resolutions; it must stay well under the trace-variation ceiling
    config = preset("experiment2")
    model = build_model(config)
    problem = build_problem(config)
    solver_config = build_solver_config(config)
    grid = build_grid(config.xmin, config.xmax, 128, config.interfaces)
    traj = run(problem, grid, model, solver_config, retain_levels=True)
    assert flux_lipschitz_in_space(traj, grid, model) < 3.5


def _all_pairs_quotient(traj, grid, model):
    return flux_lipschitz_all_pairs([lv.u for lv in traj.levels], [lv.t for lv in traj.levels],
                                    grid.centers, model.segments, grid.interface_cells)


@pytest.mark.parametrize("name", ["experiment1", "experiment2"])
@pytest.mark.parametrize("n", [64, 256])
def test_flux_lipschitz_matches_all_pairs_oracle(name, n):
    config = preset(name)
    model = build_model(config)
    grid = build_grid(config.xmin, config.xmax, n, config.interfaces)
    traj = run(build_problem(config), grid, model, build_solver_config(config),
               retain_levels=True)
    got = flux_lipschitz_in_space(traj, grid, model)
    assert got == pytest.approx(_all_pairs_quotient(traj, grid, model), rel=1e-14)


def test_flux_lipschitz_matches_all_pairs_oracle_on_three_interfaces(three_interface_model):
    model = three_interface_model
    grid = build_grid(-1.0, 1.0, 64, model.interfaces)
    datum = PiecewiseConstant((-0.7, -0.2, 0.3, 0.8), (1.6, 0.6, 1.9, 0.8, 1.3))
    traj = run(ProblemSpec((-1.0, 1.0), datum), grid, model,
               SolverConfig(lam=0.3, t_end=0.4), retain_levels=True)
    got = flux_lipschitz_in_space(traj, grid, model)
    assert got == pytest.approx(_all_pairs_quotient(traj, grid, model), rel=1e-14)


# }}}


# {{{ entropy residual


def test_entropy_residual_nonpositive_on_upwind_run():
    config = preset("experiment1")
    grid = build_grid(config.xmin, config.xmax, 32, config.interfaces)
    model = build_model(config)
    problem = build_problem(config)
    solver_config = build_solver_config(config)
    traj = run(problem, grid, model, solver_config, retain_levels=True)
    constants = np.linspace(0.6, 1.9, 9)
    report = entropy_residual(traj, grid, model, constants)
    assert report.max_residual <= 1e-12
    cell, step, c = report.argmax
    assert 0 < cell < grid.n
    assert 0 <= step < traj.final.step
    assert c in report.sampled_c
    assert report.sampled_c == tuple(constants)


@pytest.mark.parametrize("block_bytes", [None, 1], ids=["default-blocks", "one-step-blocks"])
@pytest.mark.parametrize("name, n", [("experiment1", 256), ("experiment2", 256)])
def test_entropy_residual_equals_the_whole_array_form(monkeypatch, name, n, block_bytes):
    # blocks of steps in reused buffers, the out-of-law cells masked with
    # -inf: the same report as one allocation per (levels x cells) array
    if block_bytes is not None:
        monkeypatch.setattr(analysis, "_RESIDUAL_BLOCK_BYTES", block_bytes)
    config = preset(name)
    grid = build_grid(config.xmin, config.xmax, n, config.interfaces)
    model = build_model(config)
    traj = run(build_problem(config), grid, model, build_solver_config(config),
               retain_levels=True)
    u0 = traj.levels[0].u
    constants = np.linspace(float(u0.min()), float(u0.max()), 17)
    # more steps than one block holds, so blocks meet inside the run
    assert len(traj.levels) - 1 > analysis._RESIDUAL_BLOCK_BYTES // (32 * n)
    assert entropy_residual(traj, grid, model, constants) == entropy_residual_whole(
        traj, grid, model, constants)


@pytest.mark.parametrize("block_bytes", [None, 1], ids=["default-blocks", "one-step-blocks"])
def test_entropy_residual_keeps_the_first_of_tied_maxima(monkeypatch, block_bytes):
    # a steady state gives a zero residual at every in-law cell, step and
    # constant: the first cell of the first step under the first constant wins
    if block_bytes is not None:
        monkeypatch.setattr(analysis, "_RESIDUAL_BLOCK_BYTES", block_bytes)
    config = preset("experiment1")
    grid = build_grid(config.xmin, config.xmax, 32, config.interfaces)
    model = build_model(config)
    levels = [_state(np.full(32, 1.5), t=0.01 * k, step=k) for k in range(6)]
    traj = Trajectory(final=levels[-1], snapshots=(), levels=levels)
    report = entropy_residual(traj, grid, model, [0.5, 1.0, 2.0])
    assert report == entropy_residual_whole(traj, grid, model, [0.5, 1.0, 2.0])
    assert (report.max_residual, report.argmax) == (0.0, (1, 0, 0.5))


def _levels(rows, dt=1.0):
    return [_state(u, t=dt * k, step=k) for k, u in enumerate(rows)]


@pytest.mark.parametrize("block_bytes", [None, 1], ids=["default-blocks", "one-step-blocks"])
def test_entropy_residual_counts_a_fully_quiet_block(monkeypatch, block_bytes):
    # every cell falls by 0.1 in steps 0 and 2, whose residuals are -0.1/dt
    # for constants below the data; step 1 is flat in space and time, a
    # block without an active band, and its first cell's +0.0 wins
    if block_bytes is not None:
        monkeypatch.setattr(analysis, "_RESIDUAL_BLOCK_BYTES", block_bytes)
    grid = build_grid(0.0, 1.0, 8, ())
    model = PiecewiseFlux((), (quadratic_flux(1.0, interval=(0.5, 2.5)),))
    levels = _levels([np.full(8, v) for v in (1.5, 1.4, 1.4, 1.3)], dt=0.01)
    traj = Trajectory(final=levels[-1], snapshots=(), levels=levels)
    report = entropy_residual(traj, grid, model, [0.5, 1.0])
    same_report(report, entropy_residual_whole(traj, grid, model, [0.5, 1.0]))
    assert (report.max_residual, report.argmax) == (0.0, (1, 1, 0.5))


@pytest.mark.parametrize("block_bytes", [None, 1], ids=["default-blocks", "one-step-blocks"])
def test_entropy_residual_sees_a_cell_that_moves_only_in_space(monkeypatch, block_bytes):
    # a rising step held still is no solution: nothing moves in time, and
    # the residual at the step's right cell is the flux jump over dx
    if block_bytes is not None:
        monkeypatch.setattr(analysis, "_RESIDUAL_BLOCK_BYTES", block_bytes)
    grid = build_grid(0.0, 1.0, 8, ())
    model = PiecewiseFlux((), (quadratic_flux(1.0, interval=(0.5, 2.5)),))
    levels = _levels([np.array([1.0] * 5 + [2.0] * 3)] * 4, dt=0.01)
    traj = Trajectory(final=levels[-1], snapshots=(), levels=levels)
    report = entropy_residual(traj, grid, model, [0.5])
    same_report(report, entropy_residual_whole(traj, grid, model, [0.5]))
    assert (report.max_residual, report.argmax) == ((2.0 - 0.5) / grid.dx, (5, 0, 0.5))


# One linear law u on [0, 16] in 4 cells, dt = dx = 4, the constant 0: a
# step whose two differences are each minus the smallest subnormal,
# divided by 4, gives the residual -0.0.  U is that unit.
U = 5e-324
SIGNED_ZERO_CASES = {
    # the -0.0 at cell 1 comes before the quiet cells 2 and 3
    "band-first": ([[3 * U, 2 * U, 2 * U, 2 * U], [3 * U, U, 2 * U, 2 * U]], "-0x0.0p+0", 1),
    # the quiet cell 1 comes before the -0.0 at cell 2
    "quiet-first": ([[3 * U, 3 * U, 2 * U, 2 * U], [3 * U, 3 * U, U, 2 * U]], "0x0.0p+0", 1),
    # cell 1 is +0.0 in the band: it moves in space, by a flux difference
    # of -0.0, and stays in time
    "band-plus-zero": ([[3 * U, 2 * U, 2 * U, 2 * U]] * 2, "0x0.0p+0", 1),
}


@pytest.mark.parametrize("block_bytes", [None, 1], ids=["default-blocks", "one-step-blocks"])
@pytest.mark.parametrize("name", sorted(SIGNED_ZERO_CASES))
def test_entropy_residual_ties_a_quiet_zero_with_a_band_zero_in_order(monkeypatch, name,
                                                                       block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(analysis, "_RESIDUAL_BLOCK_BYTES", block_bytes)
    rows, sign, cell = SIGNED_ZERO_CASES[name]
    grid = build_grid(0.0, 16.0, 4, ())
    model = PiecewiseFlux((), (linear_flux(1.0),))
    levels = _levels(rows, dt=4.0)
    traj = Trajectory(final=levels[-1], snapshots=(), levels=levels)
    report = entropy_residual(traj, grid, model, [0.0])
    same_report(report, entropy_residual_whole(traj, grid, model, [0.0]))
    assert report.max_residual.hex() == sign
    assert report.argmax == (cell, 0, 0.0)


def _burgers_levels(n=32):
    # one law: the adapted constants need no inversion, which a non-finite
    # level would defeat
    grid = build_grid(0.0, 1.0, n, ())
    model = PiecewiseFlux((), (quadratic_flux(1.0, interval=(0.5, 2.5)),))
    problem = ProblemSpec((0.0, 1.0), PiecewiseConstant((0.3,), (2.0, 1.0)))
    traj = run(problem, grid, model, SolverConfig(lam=0.4, t_end=0.3), retain_levels=True)
    return grid, model, traj.levels


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_entropy_residual_reports_an_infinite_last_level():
    # an inf at the last level only enters a rate: +inf at the step before
    grid, model, levels = _burgers_levels()
    levels[-1] = _state(np.where(np.arange(grid.n) == 20, np.inf, levels[-1].u),
                        t=levels[-1].t, step=levels[-1].step)
    traj = Trajectory(final=levels[-1], snapshots=(), levels=levels)
    constants = np.linspace(0.5, 2.0, 17)
    report = entropy_residual(traj, grid, model, constants)
    same_report(report, entropy_residual_whole(traj, grid, model, constants))
    assert report.max_residual == np.inf
    assert report.argmax == (20, len(levels) - 2, 0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entropy_residual_matches_the_whole_form_on_a_non_finite_level(bad):
    # a NaN, or an inf met by the flux difference, makes the residual NaN,
    # which wins; the quiet cells outside the band are not +0.0 then, and
    # the band widens to every cell
    grid, model, levels = _burgers_levels()
    k = len(levels) // 2
    u = levels[k].u.copy()
    u[3] = bad
    levels[k] = _state(u, t=levels[k].t, step=levels[k].step)
    traj = Trajectory(final=levels[-1], snapshots=(), levels=levels)
    assert len(levels) - 1 <= analysis._RESIDUAL_BLOCK_BYTES // (32 * grid.n)
    constants = np.linspace(0.5, 2.0, 17)
    report = entropy_residual(traj, grid, model, constants)
    same_report(report, entropy_residual_whole(traj, grid, model, constants))


# u^1.5 is NaN below 0.  "quiet-nan": on the flat, finite run of -1 at the
# left, NaN - NaN is not +0.0, so those cells are evaluated like every
# other.  "band-nan": one negative value gives a NaN flux inside the band.
NAN_FLUX_CASES = {
    "quiet-nan": [[-1.0, -1.0, -1.0, 2.0, 2.0, 1.5, 1.0, 1.0],
                  [-1.0, -1.0, -1.0, 2.0, 1.9, 1.6, 1.1, 1.0],
                  [-1.0, -1.0, -1.0, 2.0, 1.8, 1.7, 1.2, 1.0]],
    "band-nan": [[2.0, 2.0, 2.0, 2.0, 1.5, 1.5, 1.0, 1.0],
                 [2.0, 2.0, 2.0, 2.0, 1.5, -1.0, 1.0, 1.0],
                 [2.0, 2.0, 2.0, 2.0, 1.6, 1.4, 1.2, 1.0]],
}
# (cell, step, constant) of each case's first NaN residual
NAN_FLUX_FIRST = {"quiet-nan": (1, 0, 0.5), "band-nan": (5, 1, 0.5)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, block_bytes", [("quiet-nan", None), ("quiet-nan", 1),
                                               ("band-nan", None), ("band-nan", 1)])
def test_entropy_residual_does_not_call_a_nan_flux_quiet(monkeypatch, name, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(analysis, "_RESIDUAL_BLOCK_BYTES", block_bytes)
    grid = build_grid(0.0, 1.0, 8, ())
    law = custom_flux(lambda u: u * np.sqrt(u), lambda u: 1.5 * np.sqrt(u), interval=(0.5, 2.5))
    model = PiecewiseFlux((), (law,))
    levels = _levels([np.array(r) for r in NAN_FLUX_CASES[name]], dt=0.01)
    traj = Trajectory(final=levels[-1], snapshots=(), levels=levels)
    constants = [0.5, 1.5]
    report = entropy_residual(traj, grid, model, constants)
    same_report(report, entropy_residual_whole(traj, grid, model, constants))
    # a NaN wins and sticks: the first constant's first NaN, by step then cell
    assert math.isnan(report.max_residual)
    assert report.argmax == NAN_FLUX_FIRST[name]


def test_entropy_residual_catches_downwind_march():
    # marching with the right neighbour's flux is anti-diffusive; the
    # residual turns strongly positive within a few steps
    seg = quadratic_flux(1.0, interval=(0.5, 2.5))
    model = PiecewiseFlux((), (seg,))
    grid = build_grid(0.0, 1.0, 32, ())
    u = cell_average(PiecewiseConstant((0.5,), (2.0, 1.0)), grid)
    lam = 0.2
    dt = lam * grid.dx
    levels = [_state(u.copy())]
    for k in range(5):
        flux = seg(u)
        new = u.copy()
        new[:-1] = u[:-1] - lam * (flux[1:] - flux[:-1])
        u = new
        levels.append(_state(u.copy(), t=(k + 1) * dt, step=k + 1))
    traj = Trajectory(final=levels[-1], snapshots=(), levels=levels)
    report = entropy_residual(traj, grid, model, [1.5])
    assert report.max_residual > 1.0


def test_entropy_residual_needs_retained_levels():
    grid = build_grid(0.0, 1.0, 4, ())
    model = PiecewiseFlux((), (quadratic_flux(1.0, interval=(0.5, 2.5)),))
    traj = Trajectory(final=_state([1.0] * 4), snapshots=(), levels=None)
    with pytest.raises(MissingDataError, match="retain_levels"):
        entropy_residual(traj, grid, model, [1.0])


def test_adapted_constants_chain_through_flux_continuity():
    model = build_model(preset("experiment2"))
    adapted = _adapted_constants(model, 3.0, seed=(1.0, 6.0))
    assert adapted == pytest.approx([3.0, 4.5])
    assert model.segments[1](adapted[1]) == pytest.approx(
        model.segments[0](adapted[0]), abs=1e-14)


# }}}
