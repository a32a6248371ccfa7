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
    MissingDataError,
    ProjectionError,
    SequencingError,
    ValidityError,
)
from .exact import ExactSolution
from .fluxes import PiecewiseFlux, invert_near
from .grid import Grid
from .solver import State, Trajectory

# nodes/weights for the oracle cell-average quadrature
_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Bytes of entropy_residual's per-block work arrays, sized to stay in cache.
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
    scale = max(1.0, abs(coarse_grid.xmin), abs(coarse_grid.xmax))
    if (
        abs(coarse_grid.xmin - fine_grid.xmin) > 1e-12 * scale
        or abs(coarse_grid.xmax - fine_grid.xmax) > 1e-12 * scale
    ):
        raise ProjectionError(
            f"grids cover different domains: [{coarse_grid.xmin}, {coarse_grid.xmax}] "
            f"vs [{fine_grid.xmin}, {fine_grid.xmax}]"
        )
    if fine_grid.n % coarse_grid.n != 0:
        raise ProjectionError(
            f"fine n={fine_grid.n} is not a multiple of coarse n={coarse_grid.n}"
        )
    if abs(coarse.t - fine.t) > 1e-12 * max(1.0, abs(coarse.t), abs(fine.t)):
        raise ProjectionError(f"states live at different times: {coarse.t} vs {fine.t}")
    ratio = fine_grid.n // coarse_grid.n
    projected = fine.u.reshape(coarse_grid.n, ratio).mean(axis=1)
    return float(np.sum(np.abs(coarse.u - projected)) * coarse_grid.dx)


def l1_error_vs_oracle(state: State, grid: Grid, exact: ExactSolution, t: float = None) -> float:
    """L1 distance between the state and per-cell averages of a closed form.

    The closed-form solution is averaged with 16-point quadrature per cell,
    accurate far below scheme error for piecewise-smooth profiles.  Raises
    :class:`ValidityError` through the oracle when ``t`` is out of window.
    """
    t = state.t if t is None else float(t)
    x = grid.centers[:, None] + (0.5 * grid.dx) * _GL16_NODES[None, :]
    vals = exact(x.ravel(), t).reshape(x.shape)
    averages = vals @ _GL16_WEIGHTS / 2.0
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
    if any(e <= 0.0 for _, e in rows):
        raise ValueError("errors must be positive to take rates")
    return [math.log2(e_prev / e_next) for (_, e_prev), (_, e_next) in zip(rows, rows[1:])]


# }}}


# {{{ variation diagnostics


def spatial_tv(
    state: State,
    grid: Grid,
    subdomain: Optional[int] = None,
    split_at_interfaces: bool = False,
) -> float:
    """Total variation of the cell values.

    ``subdomain=i`` restricts to that subdomain's cells; with
    ``split_at_interfaces`` the whole-domain sum drops the pairs straddling an
    interface (the interface cell may move against its left neighbour without
    meaning anything for either law).
    """
    slices = grid.subdomain_slices()
    if subdomain is not None:
        return float(_variation(state.u[slices[subdomain]]))
    if split_at_interfaces:
        return float(sum(_variation(state.u[sl]) for sl in slices))
    return float(_variation(state.u))


def _variation(block: np.ndarray) -> np.float64:
    # np.diff and np.sum are Python wrappers that cost as much as the
    # arithmetic on a few hundred cells
    return np.abs(block[1:] - block[:-1]).sum()


def temporal_tv(trajectory: Trajectory, cell: int) -> float:
    """Accumulated per-cell level-to-level variation sum_n |u_j^{n+1} - u_j^n|."""
    if trajectory.temporal_increments is None:
        raise MissingDataError(
            "run did not accumulate increments; pass record_increments=True"
        )
    return float(trajectory.temporal_increments[int(cell)])


def flux_lipschitz_in_space(trajectory: Trajectory, grid: Grid, model: PiecewiseFlux) -> float:
    """Largest discrete space-Lipschitz quotient of the flux within a subdomain.

    For every cell pair (j, j') sharing a law, the quotient is
    ``sum_n dt_n |f(u_j^n) - f(u_j'^n)| / |x_j - x_j'|`` over the retained
    levels; the maximum is returned.  Only adjacent pairs are evaluated: by
    the triangle inequality a pair's numerator is at most the sum of the
    adjacent numerators between them, its distance is the sum of the adjacent
    distances, and a ratio of sums is at most the largest ratio.  Boundedness
    of this quotient under refinement is the testable statement; there is no
    exact constant to hit.
    """
    levels = _require_levels(trajectory)
    times = np.asarray([lv.t for lv in levels])
    dts = np.diff(times)
    centers = grid.centers
    worst = 0.0
    for seg, sl in zip(model.segments, grid.subdomain_slices()):
        m = sl.stop - sl.start
        if m < 2:
            continue
        values = np.stack([lv.u[sl] for lv in levels])  # (levels, m)
        fluxes = np.asarray(seg(values), dtype=float)
        weighted = fluxes[:-1] * dts[:, None]
        # summed level by level, the order of a per-pair loop over levels
        pair_sums = np.abs(np.diff(weighted, axis=1)).sum(axis=0)
        pair_dist = np.diff(centers[sl])
        worst = max(worst, float(np.max(pair_sums / pair_dist)))
    return worst


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
    NaN, with its argmax at the first NaN.

    The steps go in blocks of about ``_RESIDUAL_BLOCK_BYTES``.  A cell is
    quiet in a step when u_j^{n+1}, u_j^n and u_{j-1}^n are bitwise equal:
    with the entropy and flux differences finite, both terms are x - x and
    its residual is +0.0 for every constant.  Each block evaluates the
    constants only on its active band, from its first to its last in-law
    column holding a cell that is not quiet, and counts the quiet cells
    outside the band as one +0.0 at the block's first step and first such
    cell.  The cost follows the band; the report is the one the whole
    (steps x cells) residual gives.
    """
    levels = _require_levels(trajectory)
    u_all = np.stack([lv.u for lv in levels])  # (L, n)
    dts = np.diff(np.asarray([lv.t for lv in levels]))
    if not np.all(dts > 0.0):
        raise ValueError("trajectory levels must be strictly increasing in time")
    # cells eligible for the conservative-update inequality
    in_law = np.zeros(grid.n, dtype=bool)
    in_law[1:] = grid.subdomain_of_cell[1:] == grid.subdomain_of_cell[:-1]
    eligible = np.flatnonzero(in_law)
    if eligible.size == 0:
        raise ValueError("no interior cell has an in-law left neighbour")

    seed = (float(u_all.min()), float(u_all.max()))
    constants = tuple(float(c) for c in c_samples)
    adapted = np.array([_adapted_constants(model, c, seed) for c in constants])
    adapted = adapted.reshape(len(constants), model.n_interfaces + 1)
    c_cells = adapted[:, grid.subdomain_of_cell]
    f_cs = np.array([float(model.segments[0](a[0])) for a in adapted])
    # A quiet cell holds one value x through its block, and its residual is
    # +0.0 while |x - c_i| and |f(x) - f(c)| are finite: the first is where
    # it is at both ends of the data's range, the second where it is at the
    # least and largest flux of the block's first step.
    finite_eta = bool(np.isfinite(np.subtract.outer(seed, adapted)).all())
    laws = [(seg, sl.start, sl.stop) for seg, sl in zip(model.segments, grid.subdomain_slices())]
    bits = u_all.view(np.int64)
    # per constant, the first occurrence of its largest value
    bests = [(-math.inf, 0, 0)] * len(constants)  # (value, step, cell)
    # blocks of steps in five reused buffers of at most n values a step row
    # (eta takes one row more), about 1.25 x _RESIDUAL_BLOCK_BYTES in all
    n, steps = grid.n, dts.size
    rows = min(steps, max(1, _RESIDUAL_BLOCK_BYTES // (4 * n * u_all.itemsize)))
    eta_buf, f_buf, q_buf = np.empty((rows + 1) * n), np.empty(rows * n), np.empty(rows * n)
    res_buf, div_buf = np.empty(rows * n), np.empty(rows * n)
    f_first = np.empty(n)
    for i0 in range(0, steps, rows):
        m = min(rows, steps - i0)
        u, ub = u_all[i0:i0 + m + 1], bits[i0:i0 + m + 1]
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


def _adapted_constants(model: PiecewiseFlux, c: float, seed: tuple[float, float]) -> np.ndarray:
    """Per-subdomain constants chained through flux continuity."""
    out = [float(c)]
    for i in range(model.n_interfaces):
        w = float(model.segments[i](out[-1]))
        out.append(invert_near(model.segments[i + 1], w, seed))
    return np.asarray(out)


def _require_levels(trajectory: Trajectory) -> list:
    if not trajectory.levels or len(trajectory.levels) < 2:
        raise MissingDataError(
            "run did not retain time levels; pass retain_levels=True"
        )
    return trajectory.levels


# }}}
