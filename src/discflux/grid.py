"""Uniform cell grids whose edges are forced onto the flux interfaces.

The coupling at a flux interface is applied to the first cell on its right,
so every interface must coincide with a cell edge.  Construction checks this
and, on failure, suggests nearby cell counts that would align.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GridAlignmentError, _tolerance

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

    ``interface_cells[i]`` is the index of the first cell to the right of
    ``interfaces[i]``; equivalently ``edges[interface_cells[i]]`` equals the
    interface position exactly.  ``subdomain_of_cell[j]`` counts the
    interfaces left of cell ``j``'s center.
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
    """Build an ``n``-cell grid, snapping edges onto the flux interfaces.

    Raises :class:`GridAlignmentError` (naming the offending interface and
    nearby admissible values of ``n``) when an interface does not fall on a
    cell edge to relative precision 1e-9.
    """
    xmin, xmax = float(xmin), float(xmax)
    if not (math.isfinite(xmin) and math.isfinite(xmax)) or xmin >= xmax:
        raise ValueError(f"need xmin < xmax, got [{xmin}, {xmax}]")
    n = int(n)
    if n < 1:
        raise ValueError(f"need at least one cell, got n={n}")
    interfaces = tuple(float(x) for x in interfaces)
    if any(b <= a for a, b in zip(interfaces, interfaces[1:])):
        raise ValueError(f"interfaces must be strictly increasing: {interfaces}")
    if any(not (xmin < x < xmax) for x in interfaces):
        raise ValueError(f"interfaces must lie strictly inside ({xmin}, {xmax})")

    dx = (xmax - xmin) / n
    cells = []
    for xi in interfaces:
        pos = (xi - xmin) / dx
        p = round(pos)
        if abs(pos - p) > _ALIGN_RTOL * n:
            lower, upper = _admissible_near(xmin, xmax, interfaces, n)
            hint = " or ".join(f"n={m}" for m in (lower, upper) if m is not None)
            raise GridAlignmentError(
                f"interface x={xi} falls at fractional edge index {pos} "
                f"for n={n}; nearest aligned choices: {hint or 'none found'}"
            )
        cells.append(int(p))
    if any(not 0 < p < n for p in cells):
        raise GridAlignmentError(
            f"every interface needs at least one cell on each side "
            f"(edge indices {cells} for n={n})"
        )
    if any(q <= p for p, q in zip(cells, cells[1:])):
        raise GridAlignmentError(
            f"two interfaces share a cell edge at n={n} (edge indices {cells}); "
            f"refine the grid"
        )

    edges = np.linspace(xmin, xmax, n + 1)
    for p, xi in zip(cells, interfaces):
        edges[p] = xi
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Grid(
        xmin=xmin,
        xmax=xmax,
        n=n,
        dx=dx,
        edges=edges,
        interfaces=interfaces,
        interface_cells=tuple(cells),
        subdomain_of_cell=np.searchsorted(interfaces, centers).astype(np.intp),
    )


def _admissible_near(xmin, xmax, interfaces, n):
    """Nearest cell counts below and above ``n`` aligning all interfaces."""

    def aligned(m):
        dxm = (xmax - xmin) / m
        return all(
            abs((xi - xmin) / dxm - round((xi - xmin) / dxm)) <= _ALIGN_RTOL * m
            and 0 < round((xi - xmin) / dxm) < m
            for xi in interfaces
        )

    lower = next((m for m in range(n - 1, 0, -1) if aligned(m)), None)
    upper = next((m for m in range(n + 1, max(4 * n, 4096)) if aligned(m)), None)
    return lower, upper


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
