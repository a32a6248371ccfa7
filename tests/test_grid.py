import numpy as np
import pytest

from discflux import (
    DomainError,
    GridAlignmentError,
    PiecewiseConstant,
    SampledTable,
    build_grid,
    cell_average,
)
from discflux import grid as grid_module
from oracles import adaptive_simpson, exact_step_average


def test_build_grid_basic():
    grid = build_grid(-1.0, 1.0, 8)
    assert grid.n == 8
    assert grid.dx == 0.25
    assert grid.edges[0] == -1.0 and grid.edges[-1] == 1.0
    assert np.allclose(grid.centers, np.arange(-0.875, 1.0, 0.25))
    assert grid.interface_cells == ()
    assert np.all(grid.subdomain_of_cell == 0)
    assert grid.subdomain_slices() == [slice(0, 8)]


def test_interface_lands_on_edge():
    grid = build_grid(-1.0, 1.0, 64, (0.0,))
    assert grid.interface_cells == (32,)
    assert grid.edges[32] == 0.0  # snapped exactly, no roundoff residue
    assert np.all(grid.subdomain_of_cell[:32] == 0)
    assert np.all(grid.subdomain_of_cell[32:] == 1)
    assert grid.subdomain_slices() == [slice(0, 32), slice(32, 64)]


def test_an_interface_snaps_to_its_nearest_edge_ties_to_the_right():
    # 0.0 at n=63 sits at edge index 31.5 and at n=65 at 32.5: both ties go
    # right, where Python's round would send the second to the even 32
    for n, p in [(63, 32), (65, 33)]:
        grid = build_grid(-1.0, 1.0, n, (0.0,))
        assert grid.interface_cells == (p,)
        assert grid.interfaces == (grid.edges[p],)
        assert grid.edges.tobytes() == np.linspace(-1.0, 1.0, n + 1).tobytes()
    # 0.1 at n=128 sits at 70.4: cell 70, moved left by 0.4 dx
    grid = build_grid(-1.0, 1.0, 128, (0.1,))
    assert grid.interface_cells == (70,)
    assert grid.interfaces == (0.09375,)
    assert np.isclose((grid.interfaces[0] - 0.1) / grid.dx, -0.4, rtol=0.0, atol=1e-12)
    assert np.all(grid.subdomain_of_cell[:70] == 0) and np.all(grid.subdomain_of_cell[70:] == 1)
    # two interfaces that reach one edge collide; a finer grid parts them
    with pytest.raises(GridAlignmentError, match=r"edge indices \[9, 9\] for n=16"):
        build_grid(-1.0, 1.0, 16, (0.1, 0.12))
    assert build_grid(-1.0, 1.0, 128, (0.1, 0.12)).interface_cells == (70, 72)


def test_interface_on_boundary_rejected():
    with pytest.raises(ValueError, match="strictly inside"):
        build_grid(-1.0, 1.0, 8, (-1.0,))
    with pytest.raises(ValueError, match="strictly increasing"):
        build_grid(-1.0, 1.0, 8, (0.5, 0.25))


def test_interface_needs_room_on_both_sides():
    # aligned at the last interior edge would leave zero cells on the right
    with pytest.raises(GridAlignmentError, match="one cell on each side"):
        build_grid(0.0, 1.0, 2, (0.999999999999,))


def test_grid_argument_validation():
    with pytest.raises(ValueError, match="xmin < xmax"):
        build_grid(1.0, -1.0, 8)
    with pytest.raises(ValueError, match="at least one cell"):
        build_grid(0.0, 1.0, 0)
    for n in (64.9, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"whole number of cells, got n={n}"):
            build_grid(-1.0, 1.0, n, (0.0,))


def test_piecewise_constant_lookup():
    f = PiecewiseConstant((-0.5, 0.5), (1.0, 2.0, 3.0))
    x = np.array([-0.7, -0.5, 0.0, 0.5, 0.8])
    # a value exactly on a breakpoint takes the right-hand piece
    assert np.array_equal(f(x), [1.0, 2.0, 2.0, 3.0, 3.0])
    with pytest.raises(ValueError, match="breakpoints need"):
        PiecewiseConstant((0.0,), (1.0,))


@pytest.mark.parametrize("build, error, message", [
    (lambda: PiecewiseConstant((0.5, -0.5), (1.0, 2.0, 3.0)), ValueError,
     r"breakpoints must be strictly increasing: \(0.5, -0.5\)"),
    (lambda: SampledTable([0.0, 1.0, 2.0], [1.0, 2.0]), ValueError,
     "need matching 1d arrays with at least two samples"),
    (lambda: SampledTable([0.0, 1.0], [1.0, np.nan]), ValueError, "table entries must be finite"),
    (lambda: cell_average("1.0", build_grid(0.0, 1.0, 4)), TypeError,
     "cannot average data of type str"),
], ids=["breakpoints-decreasing", "table-mismatched", "table-not-finite", "datum-type"])
def test_a_datum_input_check_raises_its_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_cell_average_steps_exact():
    grid = build_grid(-1.0, 1.0, 10)
    datum = PiecewiseConstant((-0.13, 0.4), (1.0, 5.0, 2.0))
    got = cell_average(datum, grid)
    expected = exact_step_average(datum.breakpoints, datum.values, grid.edges)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-15)
    # cells fully inside one piece carry that value bit for bit
    assert got[0] == 1.0 and got[-1] == 2.0


def test_cell_average_step_on_edge_is_bitwise():
    grid = build_grid(-1.0, 1.0, 8)
    datum = PiecewiseConstant((-0.5,), (0.5, 2.0))
    got = cell_average(datum, grid)
    assert np.array_equal(got, [0.5, 0.5, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])


def test_cell_average_breakpoint_outside_domain():
    grid = build_grid(0.0, 1.0, 4)
    with pytest.raises(DomainError, match="strictly inside"):
        cell_average(PiecewiseConstant((2.0,), (1.0, 2.0)), grid)


def test_the_quadrature_rule_is_numpys_five_point_rule_byte_for_byte():
    # the rule is written out to keep numpy.polynomial unloaded; experiment2's
    # Gaussian datum and every callable inflow slab are averaged through it
    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert grid_module._GL_NODES.tobytes() == nodes.tobytes()
    assert grid_module._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_cell_average_smooth_matches_adaptive_quadrature():
    def bump(x):
        return 2.0 + np.exp(-np.square((np.asarray(x) + 0.75) / 0.1))

    def worst_deviation(n):
        grid = build_grid(-1.0, 1.0, n)
        got = cell_average(bump, grid)
        expected = np.array([
            adaptive_simpson(lambda v: float(bump(v)), a, b, tol=1e-14) / (b - a)
            for a, b in zip(grid.edges[:-1], grid.edges[1:])
        ])
        return float(np.max(np.abs(got - expected)))

    coarse, fine = worst_deviation(32), worst_deviation(64)
    assert coarse < 1e-9
    # five-point Gauss is order ten: halving the cells should slash the
    # quadrature error by roughly 2^10 (leave slack for roundoff flooring)
    assert fine < coarse / 100.0


def test_cell_average_of_a_constant_callable_is_exact():
    # five equal samples weighted by the Gauss-Legendre rule need not sum back
    # to their value; about half of these constants once missed by an ulp
    grid = build_grid(0.0, 1.0, 64)
    for v in np.random.default_rng(0).uniform(0.1, 5.0, 200):
        assert np.array_equal(cell_average(lambda x: v + 0.0 * x, grid), np.full(64, v))


def test_cell_average_scalar_only_callable():
    # a datum that chokes on arrays still averages via the scalar fallback
    def scalar_only(x):
        return float(x) ** 2

    grid = build_grid(0.0, 1.0, 5)
    got = cell_average(scalar_only, grid)
    assert np.allclose(got, cell_average(lambda x: np.asarray(x) ** 2, grid))


def test_a_datum_that_returns_one_float_takes_the_per_entry_loop():
    # a constant written as a float answers an array with the wrong shape;
    # each entry then gets the value alone
    grid = build_grid(0.0, 1.0, 5)
    assert cell_average(lambda x: 0.7, grid).tolist() == [0.7] * 5


def test_a_domain_error_passes_through_without_the_per_entry_loop():
    calls = []

    def datum(x):
        calls.append(np.shape(x))
        raise DomainError("datum undefined here")

    with pytest.raises(DomainError, match="datum undefined here"):
        cell_average(datum, build_grid(0.0, 1.0, 5))
    assert calls == [(5, 5)]


def test_sampled_table_interpolates():
    table = SampledTable(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 3.5]))
    assert table(0.5) == 2.0
    assert np.allclose(table(np.array([0.0, 1.5])), [1.0, 3.25])
    with pytest.raises(DomainError, match="tabulated range"):
        table(2.5)
    with pytest.raises(ValueError, match="strictly increasing"):
        SampledTable(np.array([0.0, 0.0, 1.0]), np.zeros(3))


def test_cell_average_table_linear_is_exact():
    # a piecewise-linear table sampled on a grid whose cells do not straddle
    # kinks integrates exactly under the per-cell quadrature
    points = np.linspace(-1.0, 1.0, 9)
    table = SampledTable(points, 2.0 * points + 3.0)
    grid = build_grid(-1.0, 1.0, 8)
    got = cell_average(table, grid)
    assert np.allclose(got, 2.0 * grid.centers + 3.0, rtol=0.0, atol=1e-14)


def test_cell_average_table_must_cover_domain():
    table = SampledTable(np.array([-0.5, 0.5]), np.array([1.0, 2.0]))
    grid = build_grid(-1.0, 1.0, 4)
    with pytest.raises(DomainError, match="table covers"):
        cell_average(table, grid)
