"""Error norms, convergence rates, and the discrete inequalities the march obeys.

The diagnostics here are measurements, not proofs: total variation per
subdomain, per-cell temporal variation, a discrete space-Lipschitz quotient of
the flux, and the cellwise entropy residual with subdomain-adapted constants.
Each should stay bounded (or nonpositive) on any valid run, and the tests pin
that down with explicit tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DiagnosticInputError,
    MissingDataError,
    ProjectionError,
    SequencingError,
    _tolerance,
)
from .exact import ExactSolution
from .fluxes import PiecewiseFlux, _chain
from .grid import Grid, _check_snapped
from .solver import State, Trajectory

# Bytes of the per-block work arrays of entropy_residual and
# flux_lipschitz_in_space, sized to stay in cache.
_RESIDUAL_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class ErrorReport:
    """A convergence table: (n, l1_error, rate) rows plus provenance."""

    rows: tuple[tuple[int, float, Optional[float]], ...]
    reference: str
    config_digest: str


@dataclass(frozen=True)
class EntropyResidualReport:
    """Largest discrete entropy residual and where it occurred."""

    max_residual: float
    argmax: tuple[int, int, float]  # (cell, step, base constant)
    sampled_c: tuple[float, ...]


# {{{ errors and rates


def l1_error(coarse: State, coarse_grid: Grid, fine: State, fine_grid: Grid) -> float:
    """L1 distance after projecting the fine state onto the coarse grid.

    Each group of fine cells is averaged onto the coarse cell it tiles, so the
    fine grid must be a whole-number refinement of the coarse one over the
    same domain, at the same time.
    """
    slack = _tolerance(1e-12, coarse_grid.xmin, coarse_grid.xmax)
    if max(abs(coarse_grid.xmin - fine_grid.xmin), abs(coarse_grid.xmax - fine_grid.xmax)) > slack:
        raise ProjectionError(f"grids cover different domains: [{coarse_grid.xmin}, "
                              f"{coarse_grid.xmax}] vs [{fine_grid.xmin}, {fine_grid.xmax}]")
    if fine_grid.n % coarse_grid.n != 0:
        raise ProjectionError(
            f"fine n={fine_grid.n} is not a multiple of coarse n={coarse_grid.n}"
        )
    _check_on(coarse, coarse_grid)
    _check_on(fine, fine_grid)
    if abs(coarse.t - fine.t) > _tolerance(1e-12, coarse.t, fine.t):
        raise ProjectionError(f"states live at different times: {coarse.t} vs {fine.t}")
    ratio = fine_grid.n // coarse_grid.n
    projected = fine.u.reshape(coarse_grid.n, ratio).mean(axis=1)
    return float(np.sum(np.abs(coarse.u - projected)) * coarse_grid.dx)


def l1_error_vs_oracle(state: State, grid: Grid, exact: ExactSolution, t: float = None) -> float:
    """L1 distance between the state and per-cell averages of a closed form.

    The closed-form solution is averaged with 16-point quadrature per cell,
    accurate far below scheme error for piecewise-smooth profiles.  Raises
    :class:`ProjectionError` when the state is not on ``grid``, and
    :class:`ValidityError` through the oracle when ``t`` is out of window.
    """
    _check_on(state, grid)
    t = state.t if t is None else float(t)
    # taken here, its only use, so that importing the package leaves
    # numpy.polynomial unloaded
    nodes, weights = np.polynomial.legendre.leggauss(16)
    x = grid.centers + (0.5 * grid.dx) * nodes[:, None]
    vals = exact(x.ravel(), t).reshape(x.shape)
    averages = np.multiply(vals, weights[:, None]).sum(axis=0) / 2.0
    return float(np.sum(np.abs(state.u - averages)) * grid.dx)


def ooc(errors: Sequence[tuple[int, float]]) -> list[float]:
    """Observed orders of convergence from (n, error) pairs under doubling."""
    rows = [(int(n), float(e)) for n, e in errors]
    if len(rows) < 2:
        return []
    for (n_prev, _), (n_next, _) in zip(rows, rows[1:]):
        if n_next != 2 * n_prev:
            raise SequencingError(
                f"resolutions must double between rows, got {n_prev} -> {n_next}"
            )
    if any(not e > 0.0 for _, e in rows):  # so NaN fails
        raise ValueError("errors must be positive to take rates")
    return [math.log2(e_prev / e_next) for (_, e_prev), (_, e_next) in zip(rows, rows[1:])]


# }}}


# {{{ variation diagnostics


def spatial_tv(state: State, grid: Grid, subdomain: Optional[int] = None) -> float:
    """Total variation of the cell values; ``subdomain=i`` restricts to its cells.

    Raises :class:`ProjectionError` when the state is not on ``grid`` or it
    has no subdomain ``i``.
    """
    _check_on(state, grid)
    if subdomain is None:
        return float(_variation(state.u))
    slices = grid.subdomain_slices()
    if not -len(slices) <= subdomain < len(slices):
        raise ProjectionError(f"subdomain {subdomain} is not one of the grid's {len(slices)}")
    return float(_variation(state.u[slices[subdomain]]))


def _check_on(state: State, grid: Grid, what: str = "a state"):
    """Raise :class:`ProjectionError` unless ``state`` holds one value per cell of ``grid``."""
    if state.u.shape != (grid.n,):
        raise ProjectionError(f"{what} of shape {state.u.shape} is not on a grid of "
                              f"{grid.n} cells")


def _variation(block: np.ndarray) -> np.float64:
    # np.diff and np.sum are Python wrappers that cost as much as the
    # arithmetic on a few hundred cells
    return np.abs(block[1:] - block[:-1]).sum()


def temporal_tv(trajectory: Trajectory, cell: int) -> float:
    """Accumulated per-cell level-to-level variation sum_n |u_j^{n+1} - u_j^n|.

    Raises :class:`ProjectionError` for a cell outside ``[0, n)``.
    """
    increments = trajectory.temporal_increments
    if increments is None:
        raise MissingDataError(
            "run did not accumulate increments; pass record_increments=True"
        )
    cell = int(cell)
    if not 0 <= cell < increments.size:
        raise ProjectionError(f"cell {cell} is not one of the trajectory's {increments.size}")
    return float(increments[cell])


def flux_lipschitz_in_space(trajectory: Trajectory, grid: Grid, model: PiecewiseFlux) -> float:
    """Largest discrete space-Lipschitz quotient of the flux within a subdomain.

    For every cell pair (j, j') sharing a law, the quotient is
    ``sum_n dt_n |f(u_j^n) - f(u_j'^n)| / |x_j - x_j'|`` over the retained
    levels; the maximum is returned.  Only adjacent pairs are evaluated: by
    the triangle inequality a pair's numerator is at most the sum of the
    adjacent numerators between them, its distance is the sum of the adjacent
    distances, and a ratio of sums is at most the largest ratio.  Boundedness
    of this quotient under refinement is the testable statement; there is no
    exact constant to hit.  A NaN quotient wins, as in the entropy report.
    A grid not built for ``model``'s interfaces raises
    :class:`GridAlignmentError`, and a level not on it :class:`ProjectionError`.

    Each subdomain reads the level store in blocks of about
    ``_RESIDUAL_BLOCK_BYTES`` and never copies it whole.  The running pair
    sums are carried into the next block as its first row, so one
    ``sum(axis=0)`` per block adds the levels one by one, in level order:
    the sum of the whole (levels x pairs) array, bit for bit.  A subdomain of
    two cells has one pair, whose column numpy sums pairwise instead; it
    takes all its levels in one block of O(levels) values.
    """
    levels, dts = _retained_levels(trajectory, grid, model)
    worst = 0.0
    for seg, sl in zip(model.segments, grid.subdomain_slices()):
        if sl.stop - sl.start < 2:
            continue
        value = float(np.max(_pair_sums(seg, levels[:-1], sl, dts) / np.diff(grid.centers[sl])))
        if _wins(value, worst):
            worst = value
    return worst


def _pair_sums(seg, levels, cols, dts):
    """``sum_n dts[n] |f(u_{j+1}^n) - f(u_j^n)|`` over ``levels``, per adjacent pair of ``cols``."""
    width = cols.stop - cols.start
    rows = dts.size if width == 2 else _block_rows(width)
    # the carried pair sums, then one block's pair terms; the first block
    # carries nothing, so that a lone column is summed from its first level
    terms = np.empty((rows + 1, width - 1))
    for k, block in _level_blocks(levels, cols, rows):
        weighted = np.multiply(seg(block), dts[k:k + len(block), None], out=block)
        pairs = terms[1:len(block) + 1]
        np.abs(np.subtract(weighted[:, 1:], weighted[:, :-1], out=pairs), out=pairs)
        terms[0] = terms[0 if k else 1:len(block) + 1].sum(axis=0)
    return terms[0]


# }}}


# {{{ entropy residual


def entropy_residual(
    trajectory: Trajectory,
    grid: Grid,
    model: PiecewiseFlux,
    c_samples: Sequence[float],
) -> EntropyResidualReport:
    """Largest discrete entropy residual over cells, steps, and constants.

    For each base constant c the entropy pair |u - c_i|, |f(u) - f(c_i)| uses
    the constant adapted to each subdomain: c_0 = c and every interface maps
    c_{i} through flux continuity, which keeps f^(i)(c_i) the same number in
    every subdomain.  The residual

        (|u^{n+1} - c_i| - |u^n - c_i|)/dt + (q_j^n - q_{j-1}^n)/dx

    is evaluated at every cell whose left neighbour shares its law (this keeps
    out the boundary cell and the interface cells, which are not produced by
    the conservative update), and should be nonpositive up to roundoff on any
    stable run.  The argmax is the first occurrence over constants, then
    steps, then cells.  A NaN residual wins and sticks: the report is then
    NaN, with its argmax at the first NaN.  A grid not built for ``model``'s
    interfaces raises :class:`GridAlignmentError`, a level not on it
    :class:`ProjectionError`, an empty ``c_samples`` or a constant that is not
    finite :class:`DiagnosticInputError`, and a constant whose adapted chain
    transmits a non-finite flux, or one outside a law's image, :class:`FluxRangeError`.

    The steps go in blocks of about ``_RESIDUAL_BLOCK_BYTES``, whose levels
    are read into one reused buffer: the level store is never copied whole,
    and the seed range of the adapted constants comes from each level's own
    least and largest value.  A cell is
    quiet in a step when u_j^{n+1}, u_j^n and u_{j-1}^n are bitwise equal:
    with the entropy and flux differences finite, both terms are x - x and
    its residual is +0.0 for every constant.  Each block evaluates the
    constants only on its active band, from its first to its last in-law
    column holding a cell that is not quiet, and counts the quiet cells
    outside the band as one +0.0 at the block's first step and first such
    cell.  The cost follows the band; the report is the one the whole
    (steps x cells) residual gives.
    """
    levels, dts = _retained_levels(trajectory, grid, model)
    # cells eligible for the conservative-update inequality
    in_law = np.zeros(grid.n, dtype=bool)
    in_law[1:] = grid.subdomain_of_cell[1:] == grid.subdomain_of_cell[:-1]
    eligible = np.flatnonzero(in_law)
    if eligible.size == 0:
        raise DiagnosticInputError("no interior cell has an in-law left neighbour")

    seed = _level_range(levels)
    constants = tuple(float(c) for c in c_samples)
    if not constants:
        raise DiagnosticInputError("no entropy constant to sample: c_samples is empty")
    for c in constants:
        if not math.isfinite(c):
            raise DiagnosticInputError(f"entropy constant {c} is not finite")
    adapted = np.array([_chain(model, c, seed) for c in constants])
    c_cells = adapted[:, grid.subdomain_of_cell]
    f_cs = np.array([float(model.segments[0](a[0])) for a in adapted])
    # A quiet cell holds one value x through its block, and its residual is
    # +0.0 while |x - c_i| and |f(x) - f(c)| are finite: the first is where
    # it is at both ends of the data's range, the second where it is at the
    # least and largest flux of the block's first step.
    finite_eta = bool(np.isfinite(np.subtract.outer(seed, adapted)).all())
    laws = [(seg, sl.start, sl.stop) for seg, sl in zip(model.segments, grid.subdomain_slices())]
    # per constant, the first occurrence of its largest value
    bests = [(-math.inf, 0, 0)] * len(constants)  # (value, step, cell)
    # blocks of steps in six reused buffers of at most n values a step row
    # (the levels and eta take one row more), about 1.5 x
    # _RESIDUAL_BLOCK_BYTES in all
    n = grid.n
    rows = min(dts.size, _block_rows(n))
    eta_buf, f_buf, q_buf = np.empty((rows + 1) * n), np.empty(rows * n), np.empty(rows * n)
    res_buf, div_buf = np.empty(rows * n), np.empty(rows * n)
    f_first = np.empty(n)
    for i0, u in _level_blocks(levels, slice(0, n), rows, overlap=1):
        m, ub = len(u) - 1, u.view(np.int64)
        moving = np.any(ub[1:] != ub[:-1], axis=0)
        moving[1:] |= np.any(ub[:-1, 1:] != ub[:-1, :-1], axis=0)
        _evaluate_laws(laws, u[:1], 0, n, f_first[None, :])
        f_range = (f_first.min(), f_first.max())
        if not (finite_eta and np.isfinite(np.subtract.outer(f_range, f_cs)).all()):
            moving[:] = True
        active = eligible[moving[eligible]]
        lo, hi = (int(active[0]), int(active[-1]) + 1) if active.size else (0, 0)
        w = hi - lo
        # the quiet candidate: the first in-law cell outside the band
        outside = eligible[(eligible < lo) | (eligible >= hi)]
        quiet = int(outside[0]) if outside.size else None
        if w:
            eta = eta_buf[:(m + 1) * w].reshape(m + 1, w)
            flux = _evaluate_laws(laws, u[:m], lo - 1, hi, f_buf[:m * (w + 1)].reshape(m, w + 1))
            q = q_buf[:m * (w + 1)].reshape(m, w + 1)
            residual, div = res_buf[:m * w].reshape(m, w), div_buf[:m * w].reshape(m, w)
            out_of_law, dt = ~in_law[lo:hi], dts[i0:i0 + m, None]
        for k, c_cell in enumerate(c_cells):
            value, step, cell = 0.0, i0, quiet
            if w:
                np.abs(np.subtract(u[:, lo:hi], c_cell[lo:hi], out=eta), out=eta)
                np.abs(np.subtract(flux, f_cs[k], out=q), out=q)
                # the rate, then the rate plus the divergence, in place
                np.subtract(eta[1:], eta[:-1], out=residual)
                np.divide(residual, dt, out=residual)
                np.divide(np.subtract(q[:, 1:], q[:, :-1], out=div), grid.dx, out=div)
                np.add(residual, div, out=residual)
                # cells without an in-law left neighbour never win the argmax
                np.copyto(residual, -math.inf, where=out_of_law)
                idx = int(np.argmax(residual))
                row, col = divmod(idx, w)
                band = float(residual.flat[idx])
                # argmax gives the band's first NaN, else its first maximum;
                # it beats the quiet +0.0 when larger or NaN, or equal and first
                first = band == 0.0 and quiet is not None and (row, lo + col) < (0, quiet)
                if quiet is None or not band <= 0.0 or first:
                    value, step, cell = band, i0 + row, lo + col
            if _wins(value, bests[k][0]):
                bests[k] = (value, step, cell)
    best, best_where = -math.inf, (0, 0, 0.0)
    for c, (value, step, cell) in zip(constants, bests):
        if _wins(value, best):
            best, best_where = value, (cell, step, c)
    return EntropyResidualReport(max_residual=best, argmax=best_where, sampled_c=constants)


def _wins(value: float, best: float) -> bool:
    """Whether ``value`` replaces an earlier ``best``: larger, or the first NaN.

    An earlier maximum keeps a tie, and a NaN, once in, stays.
    """
    return value > best or (math.isnan(value) and not math.isnan(best))


def _evaluate_laws(laws, u, lo, hi, out):
    """Each law's flux on its columns of ``u[:, lo:hi]``, written to ``out``."""
    for seg, start, stop in laws:
        a, b = max(start, lo), min(stop, hi)
        if a < b:
            out[:, a - lo:b - lo] = seg(u[:, a:b])
    return out


def _retained_levels(trajectory: Trajectory, grid: Grid, model: PiecewiseFlux) -> tuple:
    """The retained levels and the time steps between them, checked once: the
    one reader of ``trajectory.levels``.  A level off ``grid`` raises
    :class:`ProjectionError` naming it."""
    _check_snapped(grid, model.interfaces)
    levels = trajectory.levels
    if not levels or len(levels) < 2:
        raise MissingDataError("run did not retain time levels; pass retain_levels=True")
    for k, level in enumerate(levels):
        _check_on(level, grid, f"level {k}")
    dts = np.diff(np.asarray([lv.t for lv in levels]))
    if not np.all(dts > 0.0):
        raise DiagnosticInputError("trajectory levels must be strictly increasing in time")
    return levels, dts


def _level_range(levels: Sequence[State]) -> tuple[float, float]:
    """Least and largest value over ``levels``; np.min and np.max keep a NaN level's NaN."""
    return float(np.min([v.u.min() for v in levels])), float(np.max([v.u.max() for v in levels]))


def _block_rows(width: int) -> int:
    """Rows of a block whose work arrays of ``width`` floats a row each take
    about a quarter of ``_RESIDUAL_BLOCK_BYTES``; at least one."""
    return max(1, _RESIDUAL_BLOCK_BYTES // (4 * width * 8))


def _level_blocks(levels: Sequence[State], cols: slice, rows: int, overlap: int = 0):
    """Yield ``(k, block)``: ``levels[k:k + rows + overlap]`` at columns ``cols``.

    ``k`` steps by ``rows``, so consecutive blocks share ``overlap`` levels.
    Every block is a leading part of one reused float buffer, which a caller
    may overwrite: the level store is read a block at a time, never copied
    whole.
    """
    buf = np.empty((rows + overlap, cols.stop - cols.start))
    for k in range(0, len(levels) - overlap, rows):
        chunk = levels[k:k + rows + overlap]
        block = buf[:len(chunk)]
        for row, level in zip(block, chunk):
            row[...] = level.u[cols]
        yield k, block


# }}}
