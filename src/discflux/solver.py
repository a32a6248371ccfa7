"""Single-sided finite-volume march for piecewise-flux conservation laws.

Each subdomain is advanced with a monotone upwind update (information travels
rightward because every law is increasing).  Each interface cell, the first
cell right of the interface, takes at every level the value whose law carries
the same flux as the cell on its left at that level.  That map is what couples
the subdomains: flux is continuous across the interface even though the
conserved quantity generally is not.  As nothing travels leftward, the march
takes the subdomains one at a time, left to right, each through every level.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from typing import Callable, Container, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, MonotonicityError, StabilityError, _tolerance
from .fluxes import PiecewiseFlux, invariant_interval, _array_form, _inverse
from .grid import (Grid, SampledTable, cell_average, _check_snapped, _evaluate, _GL_NODES,
                   _GL_WEIGHTS)

_CFL_SLACK = 1e-12

# Steps in one window of the march, which share their recompute spans.
_NARROW_EVERY = 128

# c*u**2 folds its c into lam only while c*u*u stays this many binades inside
# the normal floats on the march's range, far past any roundoff excursion
_FOLD_MARGIN = 2.0 ** 1000


# {{{ problem and configuration


@dataclass(frozen=True)
class Outflow:
    """Open boundary: the ghost value repeats the boundary cell."""


@dataclass(frozen=True)
class Inflow:
    """Prescribed left-boundary trace, averaged over each time slab."""

    trace: Union[Callable, SampledTable]


@dataclass(frozen=True)
class ProblemSpec:
    """Domain and initial datum; the flux model is supplied separately."""

    domain: tuple[float, float]
    initial: object

    def __post_init__(self):
        lo, hi = float(self.domain[0]), float(self.domain[1])
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError(f"need a finite domain with xmin < xmax, got {self.domain}")
        object.__setattr__(self, "domain", (lo, hi))


@dataclass(frozen=True)
class SolverConfig:
    """March parameters: ``lam`` is the time step divided by the cell width.

    Every edge flux is upwind and the right boundary is open: increasing laws
    carry no information leftward, so only the left boundary is a choice.
    """

    lam: float
    t_end: float
    left: Union[Outflow, Inflow] = Outflow()

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if not isinstance(self.left, (Outflow, Inflow)):
            raise ValueError("left boundary must be Outflow or Inflow")


@dataclass
class State:
    """Cell values at one time level."""

    u: np.ndarray
    t: float
    step: int

    def copy(self) -> "State":
        return State(self.u.copy(), self.t, self.step)


@dataclass(frozen=True)
class Snapshot:
    """State at the first computed level at or after the requested time."""

    requested: float
    state: State


@dataclass
class Trajectory:
    """March output: final state, snapshots, and optional per-level records."""

    final: State
    snapshots: list[Snapshot]
    temporal_increments: Optional[np.ndarray] = None  # per-cell sums of |u_new - u_old|
    levels: Optional[list[State]] = None


# }}}


# {{{ stability


def _check_cfl(lam: float, laws) -> float:
    """``lam`` times the largest wave speed of ``(law, lo, hi)`` triples.

    The march's one stability rule.  Raises :class:`MonotonicityError` when
    the ``k``-th law stops increasing on its interval or its derivative
    there is NaN, and :class:`StabilityError` when the product exceeds one
    beyond roundoff.
    """
    speed, fastest = 0.0, None
    for k, (seg, lo, hi) in enumerate(laws):
        d_min, d_max = seg.deriv_bounds(lo, hi)
        if not d_min > 0.0:
            what = "has a NaN derivative" if math.isnan(d_min) else "stops increasing"
            raise MonotonicityError(
                f"flux law {k} {what} on [{lo:.6g}, {hi:.6g}]: "
                f"min derivative {d_min:.6g}"
            )
        if d_max > speed:
            speed, fastest = d_max, (k, lo, hi)
    if lam * speed > 1.0 + _CFL_SLACK:
        k, lo, hi = fastest
        raise StabilityError(
            f"lambda*max_speed = {lam * speed:.6g} > 1 for flux law {k} on "
            f"[{lo:.6g}, {hi:.6g}]; reduce lam below {1.0 / speed:.6g}"
        )
    return lam * speed


# }}}


# {{{ march


class _Block(NamedTuple):
    """One subdomain of a march: cells ``a`` to ``b - 1`` and their update.

    ``update(u, dst, lam)`` gives the argument-free calls of a step at lam
    into ``dst`` from ``u``, the same cells with their upwind one in front.
    """

    a: int
    b: int
    update: Callable


def _fold(seg, lo: float, hi: float) -> Optional[float]:
    """``c`` when ``seg`` is ``c*u**2`` whose ``c`` folds into lam on ``[lo, hi]``, else ``None``.

    The march's one test for the fold.  The block then differences the
    squares ``S = u*u`` and scales by ``lam*c`` where the law's chain scales
    by ``c`` first and by lam after.  Both give the same bits when ``c`` is
    a power of two and ``c*S`` a normal float for every value the block can
    read: then ``c*S`` and ``c`` times a difference are exact scalings, so
    ``lam * (c*S_j - c*S_{j-1})`` and ``(lam*c) * (S_j - S_{j-1})`` are one
    real number rounded once, as long as ``lam*c`` is exact too, which
    :func:`_upwind` checks for each lam.  A range reaching zero, or
    whose ``c*u*u`` comes within ``_FOLD_MARGIN`` of the normal range's
    ends, keeps the law's chain.
    """
    if seg.kind != "quadratic" or seg.params[1] != 0.0:
        return None
    c = 0.5 * seg.params[0]
    if abs(math.frexp(c)[0]) != 0.5 or not (lo > 0.0 or hi < 0.0):
        return None
    small, large = sorted((abs(lo), abs(hi)))
    if 1.0 / _FOLD_MARGIN <= abs(c) * small * small and abs(c) * large * large <= _FOLD_MARGIN:
        return c
    return None


def _convex(slope: float, shape) -> Callable:
    """A linear law's update: each cell's convex combination with its upwind one.

    Exact at weight one; one product goes through a scratch buffer of the block's own.
    """
    scratch = np.empty(shape)

    def update(u, dst, lam):
        # constants as 0-d arrays: a ufunc converts a Python float on every call
        w, tmp = lam * slope, scratch[..., :dst.shape[-1]]
        return [partial(np.multiply, u[..., 1:], np.array(1.0 - w), dst),
                partial(np.multiply, u[..., :-1], np.array(w), tmp),
                partial(np.add, dst, tmp, dst)]
    return update


def _upwind(form: Callable, c: Optional[float]) -> Callable:
    """Any other law's update: the conservative difference of its upwind edge fluxes.

    ``form`` is the law's :func:`~discflux.fluxes._array_form`.  With ``c``
    from :func:`_fold` it is bound with ``fold=True``, the squares alone,
    and ``c`` rides on lam, unless lam*c rounds, which binds the law's chain.
    """
    def update(u, dst, lam):
        fold = c is not None and lam * c / c == lam
        calls, edge = form(u, fold=True) if fold else form(u)
        return [*calls,
                partial(np.subtract, edge[..., 1:], edge[..., :-1], dst),
                partial(np.multiply, dst, np.array(lam * c if fold else lam), dst),
                partial(np.subtract, u[..., 1:], dst, dst)]
    return update


def _blocks(grid: Grid, model: PiecewiseFlux, bracket: tuple[float, float], u: np.ndarray) -> list:
    """Every subdomain of a march of ``u`` as a :class:`_Block`, one-cell ones included.

    Each update is fixed here once: a convex combination for a linear law,
    the conservative upwind difference for any other, whose ``c`` folds into
    lam for a law ``c*u**2`` that :func:`_fold` accepts on the hull of
    ``bracket`` and ``u``, a range holding every value a block reads.  A
    block's arrays take ``u``'s batch shape, ``u.shape[:-1]``.
    """
    values = (min(bracket[0], float(u.min())), max(bracket[1], float(u.max())))
    blocks = []
    for seg, sl in zip(model.segments, grid.subdomain_slices()):
        shape = (*u.shape[:-1], sl.stop - sl.start)
        if seg.kind == "linear":
            update = _convex(seg.params[0], shape)
        else:
            update = _upwind(_array_form(seg, shape), _fold(seg, *values))
        blocks.append(_Block(sl.start, sl.stop, update))
    return blocks


def _bind(u: np.ndarray, new: np.ndarray, lam: float, block: _Block, span: tuple) -> list:
    """The calls of ``block``'s step from ``u`` into ``new`` at ``lam``.

    They write the block's interior cells in ``span``, a half-open range
    ``(s, e)`` of its cells; the first cell is the march's to set.  In a
    batched march the span applies to every row.
    """
    s, e = span
    s = max(s, block.a + 1)
    if s >= e:
        return []
    return block.update(u[..., s - 1:e], new[..., s:e], lam)


def _window(u: np.ndarray, prev: np.ndarray, block: _Block, ahead: np.ndarray) -> tuple:
    """``block``'s span, its cells that may change, in a window starting from ``u``.

    ``prev`` holds the level before ``u``, and ``ahead`` the block's
    first cell at the levels the window writes.  The span is the block's
    range of cells that differ bitwise between ``u`` and ``prev`` in any
    row (so 0.0 and -0.0 differ), widened downwind by the window's
    length, as a change travels one cell a step, and capped at the
    block's end.  It starts at the first cell when that differs, or when
    ``ahead`` holds another value; an empty span is ``(a + 1, a + 1)``.
    """
    a, b = block.a, block.b
    changed = u[..., a:b].view(np.int64) != prev[..., a:b].view(np.int64)
    if changed.ndim > 1:
        changed = changed.reshape(-1, b - a).any(axis=0)
    changed[0] |= (ahead.view(np.int64) != u[..., a].view(np.int64)).any()
    first = int(changed.argmax())
    if not changed[first]:
        return a + 1, a + 1
    return a + first, min(b - int(changed[::-1].argmax()) + len(ahead), b)


def _march(grid: Grid, model: PiecewiseFlux, bracket: tuple[float, float], u: np.ndarray,
           new: np.ndarray, lams: Sequence[float], column: Optional[np.ndarray],
           shown: Container[int] = None):
    """March ``u`` one step per lam of ``lams``, one block after another.

    Increasing laws and upwind edge fluxes make each subdomain an initial-
    boundary value problem of its own: its cells read only its cells, and
    its first cell is set from outside, by the inflow or the outflow ghost
    for the first block and by the interface map for the others.  The
    blocks are :func:`_blocks` of ``u``, whose shape ``(*batch, n)`` may
    stack states: every row gets the bits a one-row march would give it.
    Each interface coupling ``(left law, inverse)`` holds the right law's
    elementwise inverse on ``bracket``, with the bracket's flux image
    computed once.

    ``column`` holds the first block's first cell at each new level,
    :func:`_inflow_column`'s slab means, or is ``None`` for an outflow
    boundary, whose cell keeps its value.  Each block marches every
    level, alternating between ``u`` and ``new`` and writing ``new``
    first, and after the step to each level ``k`` in ``shown`` (every
    level without it) yields ``(k, cells, new, old)``: the block's slice
    and its views at levels ``k`` and ``k - 1``.  Its last cell's values
    at every level, mapped through the interface in one call, are the
    next block's first-cell column.

    A step whose lam differs from the step before's writes every cell;
    the others go in windows of up to ``_NARROW_EVERY`` steps that share
    each block's span (:func:`_window`), which write the first cell and
    record the last one only where the span holds them.  The window
    invariant: at its start the buffer written next holds the level before
    the current one, and over the window a cell's value can only change if
    it lies in its block's span.  An interior cell outside it then has, on
    every step, the inputs it had one step before, so its new value, a
    function of those inputs alone (every law is elementwise), is the one
    the target buffer already holds; a first cell outside it takes, at each
    level, the value both buffers hold.  A window binds (:func:`_bind`)
    each direction it takes between ``u`` and ``new`` once, and keeps the
    window before's calls when its span and lam are the same.
    """
    blocks = _blocks(grid, model, bracket, u)
    segs = model.segments
    couplings = [(left.func, _inverse(right, bracket)) for left, right in zip(segs, segs[1:])]
    if not lams:
        return
    batch = u.shape[:-1]
    firsts = u[..., 0].copy() if column is None else np.reshape(column, (-1,) + (1,) * len(batch))
    firsts = np.broadcast_to(firsts, (len(lams), *batch))
    shown = range(len(lams) + 1) if shown is None else shown
    # (start, stop, lam, narrow): no cell is known to keep its value at a new lam
    windows, k = [], 0
    for lam, group in groupby(lams):
        m = len(list(group))
        windows += [(k, k + 1, lam, False),
                    *((j, min(j + _NARROW_EVERY, k + m), lam, True)
                      for j in range(k + 1, k + m, _NARROW_EVERY))]
        k += m
    for i, block in enumerate(blocks):
        if i:
            left, inverse = couplings[i - 1]
            firsts = inverse(left(lasts))
        lasts = np.empty(firsts.shape)
        cells = slice(block.a, block.b)
        views = ((new[..., cells], u[..., cells]), (u[..., cells], new[..., cells]))
        # a one-row march takes the cheaper integer index
        first, end = ((..., block.a), (..., block.b - 1)) if batch else (block.a, block.b - 1)
        targets, key = (new, u), None  # step k writes targets[k % 2]
        for k, stop, lam, narrow in windows:
            x, y = targets[1 - k % 2], targets[k % 2]
            span = _window(x, y, block, firsts[k:stop]) if narrow else (block.a, block.b)
            if (span, lam) != key:
                key, bound = (span, lam), [None, None]
            for j in range(k, min(k + 2, stop)):  # the directions the window takes
                if bound[j % 2] is None:
                    bound[j % 2] = _bind(targets[1 - j % 2], targets[j % 2], lam, block, span)
            head, tail = span[0] == block.a, span[1] == block.b
            if not tail:
                # the last cell keeps its value through the window
                lasts[k:stop] = x[end]
            for j in range(k, stop):
                for call in bound[j % 2]:
                    call()
                if head:
                    targets[j % 2][first] = firsts[j]
                if tail:
                    lasts[j] = targets[j % 2][end]
                if j + 1 in shown:
                    yield j + 1, cells, *views[j % 2]


# }}}


# {{{ single step


def step(
    state: State,
    grid: Grid,
    model: PiecewiseFlux,
    config: SolverConfig,
    dt: float = None,
    u_range: tuple[float, float] = None,
) -> State:
    """Advance one time level.

    Every subdomain is updated with its own law, then each interface cell is
    overwritten with the value whose flux (under the right law) matches the
    updated cell on its left.  ``u_range``, when given, brackets those
    inversions; otherwise the bracket is the invariant interval of the
    current data (and of an inflow trace, as in :func:`run`).

    Applies :func:`run`'s stability rule to each subdomain's own values:
    raises :class:`MonotonicityError` when a law stops increasing on them and
    :class:`StabilityError` when ``dt`` exceeds what they allow.  Raises
    :class:`GridAlignmentError` when ``grid`` was not built for ``model``'s
    interfaces.
    """
    u = state.u
    if u.shape != (grid.n,):
        raise ValueError(f"state has {u.shape[0]} cells, grid has {grid.n}")
    _check_snapped(grid, model.interfaces)
    if dt is None:
        lam = config.lam
        dt = lam * grid.dx
    else:
        dt = float(dt)
        if not dt >= 0.0:  # so NaN fails
            raise ValueError(f"dt must be nonnegative, got {dt}")
        lam = dt / grid.dx

    _check_cfl(lam, [(seg, float(u[sl].min()), float(u[sl].max()))
                     for seg, sl in zip(model.segments, grid.subdomain_slices())])
    column = _inflow_column(config.left, [state.t], dt, config.lam * grid.dx, config.t_end)
    if u_range is None:
        u_range = _bracket(model, config, u, column)
    new = np.empty_like(u)
    for _ in _march(grid, model, u_range, u, new, [lam], column, shown=()):
        pass
    return State(new, state.t + dt, state.step + 1)


def inflow_boundary_value(trace, step_index: int, dt: float) -> float:
    """Boundary-cell value at a level: the trace's mean over that level's slab.

    Level ``k``'s slab is ``(t, t + dt)``, ``t`` one step after ``(k-1)*dt``
    by :func:`_inflow_column`'s rule: for every full step whose slab ends by
    ``t_end`` this is :func:`run`'s level-``k`` boundary cell bit for bit.  Level 0
    takes the initial datum instead, so callers normally ask for ``k >= 1``.
    """
    k = int(step_index)
    if k < 0:
        raise ValueError(f"step index must be nonnegative, got {k}")
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    return float(_inflow_column(Inflow(trace), [(k - 1) * dt], dt, dt, math.inf)[0])


def _slab_average(trace, t0, t1):
    """Mean of the trace over each slab ``(t0, t1)``, the value at ``t1`` if it is empty.

    Elementwise; a Python float for scalars.  A table is integrated exactly
    on its kinks, the points strictly inside the slab: one array pass serves
    the slabs inside one piece, the rest go one by one, and the table call
    rejects a slab past its ends.  A callable takes 5-point Gauss-Legendre,
    all slabs' nodes in one call but each slab's sum as its own 1-D dot
    product, whose bits a 2-D product need not keep.  A slab whose samples
    are all equal gives that value exactly.
    """
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    out, empty = np.empty(t0.shape), _empty(t0, t1)
    if empty.any():
        out[empty] = _evaluate(trace, t1[empty])
    a, b = t0[~empty], t1[~empty]
    means = np.empty(a.shape)
    if isinstance(trace, SampledTable):
        pts = trace.points
        i, j = pts.searchsorted(a, "right"), pts.searchsorted(b)
        one = (i == j) & (0 < i) & (i < pts.size)
        y0, y1 = np.interp(a[one], pts, trace.values), np.interp(b[one], pts, trace.values)
        w = (b - a)[one]
        means[one] = np.where(y0 == y1, y0, 0.5 * (y1 + y0) * w / w)
        for k in np.flatnonzero(~one).tolist():
            xs = np.concatenate(([a[k]], pts[i[k]:j[k]], [b[k]]))
            ys = trace(xs)
            means[k] = ys[0] if np.all(ys == ys[0]) else (
                float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))) / (b[k] - a[k]))
    elif a.size:
        ys = _evaluate(trace, (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _GL_NODES)
        means[:] = ys[:, 0]
        for k in np.flatnonzero((ys != ys[:, :1]).any(axis=1)).tolist():
            means[k] = float(ys[k] @ _GL_WEIGHTS) / 2.0
    out[~empty] = means
    return out if out.ndim else float(out)


def _empty(t0, t1):
    """Whether the slab ``(t0, t1)`` is too short to average over; elementwise."""
    return t1 - t0 <= _tolerance(1e-15, t0, t1)


def _inflow_column(left, times, steps, slab: float, t_end: float) -> Optional[np.ndarray]:
    """Boundary cell of each level ``steps`` after the pinned ``times``, for :func:`_march`.

    The one slab rule: a slab starts at ``t = time + step`` and its cell is
    :func:`_slab_average` of the trace over ``(t, min(t + slab, t_end))``;
    ``None`` on outflow.  Raises :class:`DomainError` naming the first slab
    whose mean is not finite.
    """
    if not isinstance(left, Inflow):
        return None
    t0 = np.add(times, steps, dtype=float)
    t1 = np.minimum(t0 + slab, t_end)
    column = _slab_average(left.trace, t0, t1)
    bad = ~np.isfinite(column)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"inflow trace averages to {column[i]} over the slab "
                          f"[{t0[i]}, {t1[i]}]")
    return column


# }}}


# {{{ full march


def run(
    problem: ProblemSpec,
    grid: Grid,
    model: PiecewiseFlux,
    config: SolverConfig,
    snapshot_times: Sequence[float] = (),
    *,
    record_increments: bool = False,
    retain_levels: bool = False,
) -> Trajectory:
    """March from the initial datum to ``config.t_end``.

    Full steps use ``dt = lam * dx``; one shortened final step lands exactly
    on the end time.  Stability is checked once, up front, on the invariant
    range of the data: no interface map can escape it and every inversion is
    clamped to it, so a run either fails immediately or finishes.  Each
    subdomain's update is resolved once as well; the steps then only apply it.

    Snapshots record the first level at or after each requested time.
    ``record_increments`` accumulates per-cell sums of level-to-level changes;
    ``retain_levels`` keeps every level (memory scales with step count).
    Raises :class:`GridAlignmentError` when ``grid`` was not built for
    ``model``'s interfaces, and ``ValueError`` when ``t_end / dt`` steps
    cannot be counted (``dt`` rounds to 0, or the count passes ``sys.maxsize``).
    """
    (x0, x1), slack = problem.domain, _tolerance(1e-12, *problem.domain)
    if abs(grid.xmin - x0) > slack or abs(grid.xmax - x1) > slack:
        raise ValueError(f"grid spans [{grid.xmin}, {grid.xmax}] but the problem lives on "
                         f"{problem.domain}")
    _check_snapped(grid, model.interfaces)
    t_end = config.t_end
    pending = sorted(float(s) for s in snapshot_times)
    t_slack = _tolerance(1e-12, t_end)
    if not all(-t_slack <= s <= t_end + t_slack for s in pending):  # so NaN fails
        raise ValueError(f"snapshot times {pending} must lie within [0, {t_end}]")

    u0 = cell_average(problem.initial, grid)
    dt = config.lam * grid.dx
    ratio = (t_end / dt if dt else math.inf) if t_end > 0.0 else 0.0
    if not ratio < sys.maxsize:  # so NaN fails
        raise ValueError(f"dt = {dt} gives t_end / dt = {ratio} steps, more than a run can take")
    n_full = int(math.floor(ratio + 1e-12))
    remainder = t_end - n_full * dt
    if remainder <= _tolerance(1e-12, dt, t_end):
        remainder = 0.0
    # every level's step, lam, time and boundary value before the first step;
    # the clock is pinned to multiples of dt and to t_end, as summing drifts
    lengths = [dt] * n_full + [remainder] * bool(remainder)
    lams = [config.lam] * n_full + [h / grid.dx for h in lengths[n_full:]]
    level_times = [k * dt for k in range(len(lengths))] + [t_end]
    column = _inflow_column(config.left, level_times[:-1], lengths, dt, t_end)
    u_range = _bracket(model, config, u0, column)
    _check_cfl(config.lam, [(seg, *u_range) for seg in model.segments])

    # the march alternates between two buffers, block by block, and the last
    # one written is final; every level handed out is an array of its own,
    # at the level index found before the march, which each block fills
    at = np.searchsorted(level_times, np.subtract(pending, t_slack)).tolist()
    snapshots = [Snapshot(s, State(u0.copy(), level_times[k], k)) for s, k in zip(pending, at)]
    due: dict = {}
    for snap in snapshots:
        due.setdefault(snap.state.step, []).append(snap.state.u)
    levels = [State(u0.copy(), t, k) for k, t in enumerate(level_times)] if retain_levels else None
    increments = np.zeros(grid.n) if record_increments else None
    change = np.empty_like(u0) if record_increments else None
    buffers = (u0, np.empty_like(u0))

    shown = None if record_increments or retain_levels else due
    for k, cells, new, old in _march(grid, model, u_range, *buffers, lams, column, shown):
        if record_increments:
            diff = np.subtract(new, old, out=change[cells])
            increments[cells] += np.abs(diff, out=diff)
        if retain_levels:
            levels[k].u[cells] = new
        for u in due.get(k, ()):
            u[cells] = new

    k = len(lams)
    return Trajectory(
        final=State(buffers[k % 2], level_times[k], k),
        snapshots=snapshots,
        temporal_increments=increments,
        levels=levels,
    )


def _bracket(model: PiecewiseFlux, config: SolverConfig, u: np.ndarray,
             column: Optional[np.ndarray]) -> tuple[float, float]:
    """Invariant interval of ``u``, of an inflow trace on [0, t_end] and of its ``column``.

    A table is sampled at its own points, a callable at 1025; a spike
    between those samples can still reach the column's quadrature nodes.
    Raises :class:`DomainError` at the first sample that is not finite.
    """
    lo, hi = float(u.min()), float(u.max())
    if isinstance(config.left, Inflow):
        trace, t_end = config.left.trace, config.t_end
        pts = trace.points if isinstance(trace, SampledTable) else np.linspace(0.0, t_end, 1025)
        ts = np.concatenate(([0.0], pts[(pts > 0.0) & (pts < t_end)], [t_end]))
        samples = _evaluate(trace, ts)
        bad = ~np.isfinite(samples)
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(f"inflow trace is {samples[i]} at its sample t={ts[i]}")
        vals = np.append(samples, column)
        lo, hi = min(lo, float(vals.min())), max(hi, float(vals.max()))
    return invariant_interval(model, (lo, hi))


# }}}
