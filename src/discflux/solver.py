"""Single-sided finite-volume march for piecewise-flux conservation laws.

Each subdomain is advanced with a monotone upwind update (information travels
rightward because every law is increasing).  Afterwards each interface cell,
the first cell right of the interface, is overwritten so that its law carries
the same flux as the freshly updated cell on its left.  That overwrite is what
couples the subdomains: flux is continuous across the interface even though
the conserved quantity generally is not.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import MonotonicityError, StabilityError
from .fluxes import PiecewiseFlux, FluxSegment, invariant_interval, _array_form, _inverse
from .grid import Grid, SampledTable, cell_average, _evaluate, _GL_NODES, _GL_WEIGHTS

_CFL_SLACK = 1e-12

# Full steps in one window of the march, which share their recompute spans.
_NARROW_EVERY = 32

# Accepted edge-flux names.  For increasing laws each is f(u_left) (see
# numerical_flux_value), so a name selects no code; verify checks the collapse.
_NUMERICAL_FLUXES = ("upwind", "godunov", "engquist_osher")


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

    ``numerical_flux`` names an accepted edge flux; for increasing laws each
    is the one upwind update, so the name is validated but selects no code.
    """

    lam: float
    t_end: float
    numerical_flux: str = "upwind"
    left: Union[Outflow, Inflow] = Outflow()
    right: Outflow = Outflow()

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.numerical_flux not in _NUMERICAL_FLUXES:
            raise ValueError(f"unknown numerical flux {self.numerical_flux!r}")
        if not isinstance(self.left, (Outflow, Inflow)):
            raise ValueError("left boundary must be Outflow or Inflow")
        if not isinstance(self.right, Outflow):
            raise ValueError(
                "increasing laws carry no information leftward; "
                "the right boundary must be Outflow"
            )


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


# {{{ numerical flux


def numerical_flux_value(kind: str, seg: FluxSegment, u_left, u_right):
    """Edge flux F(a, b) of one law; accepts scalars or arrays.

    For strictly increasing laws all three kinds collapse to ``f(a)``: the
    exact Riemann edge value picks the left state, and the derivative-sign
    splitting has an identically zero decreasing part.  ``godunov`` keeps its
    min/max form so the collapse is observable rather than assumed.
    """
    if kind not in _NUMERICAL_FLUXES:
        raise ValueError(f"unknown numerical flux kind: {kind!r}")
    if kind == "godunov":
        f_left, f_right = seg(u_left), seg(u_right)
        return np.where(
            np.asarray(u_left) <= np.asarray(u_right),
            np.minimum(f_left, f_right),
            np.maximum(f_left, f_right),
        )
    # upwind, and engquist_osher: f = f_inc + f_dec split by derivative sign,
    # where f_dec of an increasing law is identically zero, leaving f_inc(a) = f(a)
    return seg(u_left)


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


# {{{ march plan


class _March:
    """Everything one level-to-level update needs, resolved once.

    Holds each subdomain's cell bounds ``(a, b)`` with its update: the slope
    of a linear law, whose update is a convex combination, or else the
    law's array form on up to ``b - a`` values, which gives every upwind
    edge flux of the block, its last cell's right edge included.  Each
    interface coupling ``(p, left law, inverse)`` holds the right law's
    inverse on the bracket, with the bracket's flux image computed once.
    Also kept: the left-boundary trace and a scratch buffer.

    :meth:`bind` resolves one step from a caller-owned array into another as
    argument-free calls on views, and :meth:`advance` runs a bound
    step, so a march can alternate between two buffers with the step of
    each direction bound once.  Steps bound without spans write every cell.
    A plan built with a ``batch`` shape marches arrays of shape
    ``(*batch, n)``, each row a state of its own, as one step; every row
    gets the bits a one-row march would give it.

    Full steps of :func:`run` go in windows of ``_NARROW_EVERY`` steps that
    share their spans (:meth:`window`).  The window invariant: at its start
    the buffer written next holds the level before the current one, and
    over the window a cell's value can only change if it lies in its
    block's span or is a block's first cell whose interface map is live.
    A cell outside its span then has, on every step, the inputs it had one
    step before, so its new value, a function of those inputs alone (every
    law is elementwise), is the one the target buffer already holds.  An
    interface map is live when its left neighbour may move in the window,
    or when its cell differed bitwise at the window's start.
    """

    def __init__(self, grid: Grid, model: PiecewiseFlux, config: SolverConfig,
                 bracket: tuple[float, float], batch: tuple = ()):
        segs = model.segments
        bounds = (0, *grid.interface_cells, grid.n)
        # every subdomain, one-cell ones included: a one-cell subdomain has
        # no interior, its cell is the boundary or an interface cell
        self.subdomains = [
            (a, b, seg.params[0] if seg.kind == "linear" else None,
             _array_form(seg, (*batch, b - a)) if seg.kind != "linear" and b - a > 1 else None)
            for seg, a, b in zip(segs, bounds, bounds[1:])
        ]
        self.whole = [(a + 1, b) for a, b in zip(bounds, bounds[1:])]
        self.firsts = np.array(bounds)
        self.couplings = tuple(
            (p, left.func, _inverse(right, bracket))
            for p, left, right in zip(grid.interface_cells, segs, segs[1:])
        )
        self.trace = config.left.trace if isinstance(config.left, Inflow) else None
        self.slab = config.lam * grid.dx
        self.t_end = config.t_end
        self.scratch = np.empty((*batch, grid.n))

    def bind(self, u: np.ndarray, new: np.ndarray, lam: float,
             spans: list = None, live: list = None) -> tuple:
        """The step from ``u`` into ``new`` at ``lam``, for :meth:`advance`.

        Without ``spans`` every cell of ``new`` is written.  ``spans`` holds,
        for each subdomain, the half-open range ``(s, e)`` of its interior
        cells to recompute (empty as ``s == e``), and ``live`` whether each
        interface map runs; only those cells and, with an inflow, the
        boundary cell are written.  In a batched plan the spans apply to
        every row.
        """
        # constants as 0-d arrays: a ufunc converts a Python float on every call
        calls, scale = [], np.array(lam)
        for (*_, slope, array_form), (s, e) in zip(self.subdomains, spans or self.whole):
            if s >= e:
                continue
            dst, tmp = new[..., s:e], self.scratch[..., s:e]
            if slope is not None:
                # convex combination of the two upwind cells, exact at weight one
                w = lam * slope
                calls += (partial(np.multiply, u[..., s:e], np.array(1.0 - w), dst),
                          partial(np.multiply, u[..., s - 1:e - 1], np.array(w), tmp),
                          partial(np.add, dst, tmp, dst))
                continue
            # conservative difference of the upwind edge fluxes f(u_left)
            kernel, edge = array_form(u[..., s - 1:e])
            calls += kernel
            calls += (partial(np.subtract, edge[..., 1:], edge[..., :-1], tmp),
                      partial(np.multiply, tmp, scale, tmp),
                      partial(np.subtract, u[..., s:e], tmp, dst))
        if spans is None and self.trace is None:
            # ghost repeats the boundary cell, so the update cancels exactly
            calls.append(partial(np.copyto, new[..., :1], u[..., :1]))
        couplings = [c for c, on in zip(self.couplings, live or repeat(True)) if on]
        maps = [(new[row], *c) for row in np.ndindex(new.shape[:-1]) for c in couplings]
        return calls, new[..., 0], maps

    def advance(self, bound: tuple, t: float, dt: float):
        """Run a step bound by :meth:`bind`; its level starts at ``t`` and lasts ``dt``."""
        calls, inflow, maps = bound
        for call in calls:
            call()
        if self.trace is not None:
            t_new = t + dt
            inflow[()] = _slab_average(self.trace, t_new, min(t_new + self.slab, self.t_end))

        # interface cells: match the flux of the updated left neighbour
        for row, p, left, inverse in maps:
            row[p] = inverse(left(float(row[p - 1])))

    def window(self, u: np.ndarray, prev: np.ndarray) -> tuple[list, list]:
        """Spans and live interface maps of a window starting from ``u``.

        ``prev`` holds the level before ``u``.  A block's span is its range
        of cells that differ bitwise between the two (so 0.0 and -0.0
        differ), widened downwind by the window's length, as a change
        travels one cell a step, and capped at the block's end.  It opens
        at the block's second cell when the first cell differs or may move
        in the window: an inflow cell, an interface cell whose upstream
        span reaches its block's last cell, or one that follows a chain of
        one-cell subdomains from such a cell.
        """
        changed = (u.view(np.int64) != prev.view(np.int64)).nonzero()[0]
        # changed[i:j] are the changed cells of a subdomain
        starts = changed.searchsorted(self.firsts).tolist()
        spans, live = [], []
        moving = self.trace is not None
        for (a, b, *_), i, j in zip(self.subdomains, starts, starts[1:]):
            first_changed = i < j and int(changed[i]) == a
            if a:
                live.append(moving or first_changed)
            if b - a < 2:
                # the next interface cell's left neighbour is this block's first cell
                spans.append((b, b))
                continue
            if moving or i < j:
                s = a + 1 if moving or first_changed else int(changed[i])
                e = min((int(changed[j - 1]) if i < j else a) + 1 + _NARROW_EVERY, b)
            else:
                s = e = a + 1
            spans.append((s, e))
            moving = e == b
        return spans, live


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
    :class:`StabilityError` when ``dt`` exceeds what they allow.
    """
    u = state.u
    if u.shape != (grid.n,):
        raise ValueError(f"state has {u.shape[0]} cells, grid has {grid.n}")
    if dt is None:
        lam = config.lam
        dt = lam * grid.dx
    else:
        dt = float(dt)
        if dt < 0.0:
            raise ValueError(f"dt must be nonnegative, got {dt}")
        lam = dt / grid.dx

    _check_cfl(lam, [(seg, float(u[sl].min()), float(u[sl].max()))
                     for seg, sl in zip(model.segments, grid.subdomain_slices())])
    if u_range is None:
        u_range = _bracket(model, config, u)
    new = np.empty_like(u)
    march = _March(grid, model, config, u_range)
    march.advance(march.bind(u, new, lam), state.t, dt)
    return State(new, state.t + dt, state.step + 1)


def inflow_boundary_value(trace, step_index: int, dt: float) -> float:
    """Boundary-cell value at a level: the trace's mean over that level's slab.

    Level ``k`` carries the mean over ``(k*dt, (k+1)*dt)``.  The level-0 value
    comes from the initial datum instead, so callers normally ask for
    ``step_index >= 1``.
    """
    k = int(step_index)
    if k < 0:
        raise ValueError(f"step index must be nonnegative, got {k}")
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    return _slab_average(trace, k * dt, (k + 1) * dt)


def _slab_average(trace, t0: float, t1: float) -> float:
    """Mean of the trace over (t0, t1); point value when the slab is empty.

    A table that is constant over the slab gives its value exactly.
    """
    if t1 - t0 <= 1e-15 * max(1.0, abs(t0)):
        return float(trace(t1))
    if isinstance(trace, SampledTable):
        # piecewise-linear data integrates exactly on its own kinks; i:j are
        # the table points strictly inside the slab
        pts = trace.points
        i, j = bisect_right(pts, t0), bisect_left(pts, t1)
        if 0 < i == j < pts.size:
            # one piece inside the table: the one-term trapezoid, in scalars
            y0, y1 = np.interp((t0, t1), pts, trace.values)
            if y0 == y1:
                return float(y0)
            return float(0.5 * (y1 + y0) * (t1 - t0)) / (t1 - t0)
        # otherwise the table call also rejects slabs past its ends
        xs = np.concatenate(([t0], pts[i:j], [t1]))
        ys = trace(xs)
        if np.all(ys == ys[0]):
            # a constant stretch: the trapezoid need not round back to it
            return float(ys[0])
        return float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))) / (t1 - t0)
    x = 0.5 * (t0 + t1) + (0.5 * (t1 - t0)) * _GL_NODES
    return float(_evaluate(trace, x) @ _GL_WEIGHTS) / 2.0


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
    clamped to it, so a run either fails immediately or finishes.  The march
    plan is built once as well; the steps then only apply it.

    Snapshots record the first level at or after each requested time.
    ``record_increments`` accumulates per-cell sums of level-to-level changes;
    ``retain_levels`` keeps every level (memory scales with step count).
    """
    if abs(grid.xmin - problem.domain[0]) > 1e-12 * max(1.0, abs(grid.xmin)) or abs(
        grid.xmax - problem.domain[1]
    ) > 1e-12 * max(1.0, abs(grid.xmax)):
        raise ValueError(
            f"grid spans [{grid.xmin}, {grid.xmax}] but the problem lives on "
            f"{problem.domain}"
        )
    t_end = config.t_end
    pending = sorted(float(s) for s in snapshot_times)
    if pending and (pending[0] < -1e-12 or pending[-1] > t_end + 1e-12):
        raise ValueError(f"snapshot times {pending} must lie within [0, {t_end}]")

    u0 = cell_average(problem.initial, grid)
    u_range = _bracket(model, config, u0)
    _check_cfl(config.lam, [(seg, *u_range) for seg in model.segments])

    dt = config.lam * grid.dx
    n_full = int(math.floor(t_end / dt + 1e-12)) if t_end > 0.0 else 0
    remainder = t_end - n_full * dt
    if remainder <= 1e-12 * max(dt, 1.0):
        remainder = 0.0
    level_times = [k * dt for k in range(n_full + 1)]
    if remainder:
        level_times.append(t_end)
    else:
        level_times[-1] = t_end

    # the march alternates between two buffers; every level handed out
    # (snapshot or retained) is a copy, and the last one written is final
    march = _March(grid, model, config, u_range)
    u, spare = u0, np.empty_like(u0)
    t, k = 0.0, 0
    snapshots: list[Snapshot] = []

    def take_due():
        while pending and t >= pending[0] - 1e-12:
            snapshots.append(Snapshot(pending.pop(0), State(u.copy(), t, k)))

    take_due()
    increments = np.zeros(grid.n) if record_increments else None
    change = np.empty_like(u0) if record_increments else None
    levels = [State(u.copy(), t, k)] if retain_levels else None
    last_lam = remainder / grid.dx

    for k in range(1, len(level_times)):
        if k > n_full:
            # the shortened step's lam differs, so no cell is known to be fixed
            march.advance(march.bind(u, spare, last_lam), t, remainder)
        elif k == 1:
            # the first step writes a whole level into the empty spare buffer
            march.advance(march.bind(u, spare, config.lam), t, dt)
        else:
            # full steps recompute only their window's spans (see _March);
            # a window starts on an even step, with u and spare as bound first
            if (k - 2) % _NARROW_EVERY == 0:
                spans, live = march.window(u, spare)
                window = (march.bind(u, spare, config.lam, spans, live),
                          march.bind(spare, u, config.lam, spans, live))
            march.advance(window[k % 2], t, dt)
        if record_increments:
            np.subtract(spare, u, out=change)
            increments += np.abs(change, out=change)
        u, spare = spare, u
        # pin the clock to the precomputed level; summing dt would drift
        t = level_times[k]
        if retain_levels:
            levels.append(State(u.copy(), t, k))
        take_due()

    return Trajectory(
        final=State(u, t, k),
        snapshots=snapshots,
        temporal_increments=increments,
        levels=levels,
    )


def _bracket(model: PiecewiseFlux, config: SolverConfig, u: np.ndarray) -> tuple[float, float]:
    """Invariant interval of ``u`` and of any inflow trace on [0, t_end] (sampled if callable)."""
    lo, hi = float(u.min()), float(u.max())
    if isinstance(config.left, Inflow):
        trace, t_end = config.left.trace, config.t_end
        if isinstance(trace, SampledTable):
            pts = trace.points
            vals = np.append(trace.values[(pts > 0.0) & (pts < t_end)], (trace(0.0), trace(t_end)))
        else:
            vals = _evaluate(trace, np.linspace(0.0, t_end, 1025))
        lo, hi = min(lo, float(vals.min())), max(hi, float(vals.max()))
    return invariant_interval(model, (lo, hi))


# }}}
