"""Uniform cell grids with the flux interfaces moved onto cell edges.

The coupling at a flux interface is applied to the first cell on its right,
so each interface is moved to its nearest cell edge, ties to the right.  The
move is at most half a cell, an O(dx) change in the solution that the
O(sqrt(dx)) rate of monotone schemes absorbs.  The grid holds the moved
positions; the flux model keeps the true ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GridAlignmentError, _tolerance

# an interface closer to an edge than this fraction of the domain's length is
# on it, and keeps its own bits there
_ALIGN_RTOL = 1e-9

# nodes/weights for 5-point Gauss-Legendre on [-1, 1]: numpy's leggauss(5) bit
# for bit, written out so that importing the package leaves numpy.polynomial
# unloaded
_GL_NODES = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                      0.5384693101056831, 0.906179845938664])
_GL_WEIGHTS = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                        0.4786286704993663, 0.23692688505618928])


@dataclass(frozen=True)
class Grid:
    """A uniform grid of ``n`` cells on ``[xmin, xmax]``.

    ``interfaces`` are the snapped interface positions, each on a cell edge:
    ``interface_cells[i]`` is the index of the first cell to the right of
    ``interfaces[i]``, and ``edges[interface_cells[i]]`` equals it exactly.
    ``subdomain_of_cell[j]`` counts the interfaces left of cell ``j``'s center.
    """

    xmin: float
    xmax: float
    n: int
    dx: float
    edges: np.ndarray
    interfaces: tuple[float, ...]
    interface_cells: tuple[int, ...]
    subdomain_of_cell: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def subdomain_slices(self) -> list[slice]:
        """One slice of cell indices per subdomain, left to right."""
        bounds = (0, *self.interface_cells, self.n)
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def build_grid(xmin: float, xmax: float, n: int, interfaces: Sequence[float] = ()) -> Grid:
    """Build an ``n``-cell grid with each flux interface snapped to a cell edge.

    Interface ``x`` at fractional edge index ``pos = (x - xmin) / dx`` moves to
    edge ``floor(pos + 0.5)``, a tie going right.  One already on its edge, to
    1e-9 of the domain's length, writes its own value into that edge.
    Raises :class:`GridAlignmentError` when two interfaces snap to one edge
    or one snaps to an end of the domain.
    """
    xmin, xmax = float(xmin), float(xmax)
    if not (math.isfinite(xmin) and math.isfinite(xmax)) or xmin >= xmax:
        raise ValueError(f"need xmin < xmax, got [{xmin}, {xmax}]")
    if not float(n).is_integer():
        raise ValueError(f"need a whole number of cells, got n={n}")
    n = int(n)
    if n < 1:
        raise ValueError(f"need at least one cell, got n={n}")
    interfaces = tuple(float(x) for x in interfaces)
    if any(b <= a for a, b in zip(interfaces, interfaces[1:])):
        raise ValueError(f"interfaces must be strictly increasing: {interfaces}")
    if any(not (xmin < x < xmax) for x in interfaces):
        raise ValueError(f"interfaces must lie strictly inside ({xmin}, {xmax})")

    dx = (xmax - xmin) / n
    cells = _snap(xmin, dx, interfaces)
    if any(not 0 < p < n for p in cells) or len(set(cells)) < len(cells):
        raise GridAlignmentError(
            f"interfaces {interfaces} snap to edge indices {cells} for n={n}; each needs "
            f"its own edge, with at least one cell on each side: refine the grid"
        )
    edges = np.linspace(xmin, xmax, n + 1)
    for p, xi in zip(cells, interfaces):
        if abs((xi - xmin) / dx - p) <= _ALIGN_RTOL * n:
            edges[p] = xi

    snapped = tuple(float(edges[p]) for p in cells)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Grid(
        xmin=xmin,
        xmax=xmax,
        n=n,
        dx=dx,
        edges=edges,
        interfaces=snapped,
        interface_cells=tuple(cells),
        subdomain_of_cell=np.searchsorted(snapped, centers).astype(np.intp),
    )


def _snap(xmin: float, dx: float, interfaces) -> list[int]:
    """The edge index each interface moves to: ``floor(pos + 0.5)``, ties to the right."""
    return [math.floor((x - xmin) / dx + 0.5) for x in interfaces]


def _check_snapped(grid: Grid, interfaces) -> None:
    """Raise :class:`GridAlignmentError` unless ``grid`` was built for ``interfaces``.

    The march and the diagnostics pair each law with one subdomain of the grid.
    """
    cells = _snap(grid.xmin, grid.dx, interfaces)
    if tuple(cells) != grid.interface_cells:
        raise GridAlignmentError(
            f"the grid has its interfaces at edge indices {list(grid.interface_cells)}, "
            f"but the model's interfaces {tuple(interfaces)} snap to {cells} for n={grid.n}: "
            f"build the grid for the model's interfaces"
        )


# {{{ initial data


@dataclass(frozen=True)
class PiecewiseConstant:
    """A step function: ``values[i]`` between ``breakpoints[i-1]`` and ``breakpoints[i]``."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(x) for x in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != len(self.breakpoints) + 1:
            raise ValueError(
                f"{len(self.breakpoints)} breakpoints need "
                f"{len(self.breakpoints) + 1} values, got {len(self.values)}"
            )
        if any(b <= a for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError(f"breakpoints must be strictly increasing: {self.breakpoints}")

    def __call__(self, x):
        idx = np.searchsorted(self.breakpoints, np.asarray(x, dtype=float), side="right")
        return np.asarray(self.values, dtype=float)[idx]


@dataclass(frozen=True)
class SampledTable:
    """Tabulated values at strictly increasing points, linearly interpolated."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if pts.ndim != 1 or pts.shape != vals.shape or pts.size < 2:
            raise ValueError("need matching 1d arrays with at least two samples")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise ValueError("table entries must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("table points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.points[0], self.points[-1]
        slack = _tolerance(1e-12, lo, hi)
        if not (np.all(x >= lo - slack) and np.all(x <= hi + slack)):  # so NaN fails
            raise DomainError(f"query [{x.min()}, {x.max()}] outside the tabulated range: "
                              f"the table covers [{lo}, {hi}]")
        return np.interp(x, self.points, self.values)


def cell_average(u0, grid: Grid) -> np.ndarray:
    """Per-cell means of the initial datum.

    Step functions are averaged exactly (a cell fully inside one piece gets
    that piece's value bit for bit); callables and tables via 5-point
    Gauss-Legendre per cell, a cell whose samples are all equal getting
    that value.
    """
    if isinstance(u0, PiecewiseConstant):
        return _average_steps(u0, grid)
    if isinstance(u0, SampledTable):
        u0(np.array([grid.xmin, grid.xmax]))  # covers the domain, by the table's own check
        return _average_quadrature(u0, grid)
    if callable(u0):
        return _average_quadrature(u0, grid)
    raise TypeError(f"cannot average data of type {type(u0).__name__}")


def _average_steps(u0: PiecewiseConstant, grid: Grid) -> np.ndarray:
    bps = np.asarray(u0.breakpoints)
    vals = np.asarray(u0.values, dtype=float)
    if bps.size and (bps[0] <= grid.xmin or bps[-1] >= grid.xmax):
        raise DomainError(
            f"breakpoints {u0.breakpoints} must lie strictly inside "
            f"({grid.xmin}, {grid.xmax})"
        )
    left, right = grid.edges[:-1], grid.edges[1:]
    i_left = np.searchsorted(bps, left, side="right")
    i_right = np.searchsorted(bps, right, side="left")
    out = vals[i_left].copy()
    for j in np.nonzero(i_left != i_right)[0]:
        cuts = np.concatenate(([left[j]], bps[i_left[j]:i_right[j]], [right[j]]))
        out[j] = np.dot(np.diff(cuts), vals[i_left[j]:i_right[j] + 1]) / grid.dx
    return out


def _average_quadrature(f: Callable, grid: Grid) -> np.ndarray:
    # five equal samples give their value; the weighted sum need not
    x = grid.centers[:, None] + (0.5 * grid.dx) * _GL_NODES[None, :]
    fx = _evaluate(f, x)
    return np.where((fx == fx[:, :1]).all(axis=1), fx[:, 0], fx @ _GL_WEIGHTS / 2.0)


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:
    """``f`` at every entry of ``x``: one vectorised call, else one call per entry.

    The per-entry loop covers callables that reject arrays or return the
    wrong shape; :class:`DomainError` is a genuine answer and passes through.
    """
    try:
        fx = np.asarray(f(x), dtype=float)
        if fx.shape != x.shape:
            raise ValueError
    except DomainError:
        raise
    except Exception:
        fx = np.asarray([f(v) for v in x.flat], dtype=float).reshape(x.shape)
    return fx


# }}}
