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
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import StabilityError
from .fluxes import PiecewiseFlux, FluxSegment, invariant_interval, _array_form, _inverse
from .grid import Grid, SampledTable, cell_average, _evaluate, _GL_NODES, _GL_WEIGHTS

_CFL_SLACK = 1e-12

# Full steps between two narrowings of the march's recompute spans to the
# cells that changed.
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

    The march's one stability rule.  Raises ``ValueError`` when the ``k``-th
    law stops increasing on its interval and :class:`StabilityError` when the
    product exceeds one beyond roundoff.
    """
    speed, fastest = 0.0, None
    for k, (seg, lo, hi) in enumerate(laws):
        d_min, d_max = seg.deriv_bounds(lo, hi)
        if d_min <= 0.0:
            raise ValueError(
                f"flux law {k} stops increasing on [{lo:.6g}, {hi:.6g}]: "
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
    of a linear law, whose update is a convex combination, or else the law's
    array form for the block's upwind edge fluxes (a quadratic law writes
    them into two buffers of the block's size) and its scalar form for the
    last edge.  Each interface coupling ``(p, left law, inverse)`` holds the
    right law's inverse on the bracket, with the bracket's flux image
    computed once.  Also kept: the left-boundary trace and a scratch buffer.
    :meth:`advance` writes a caller-owned array, so a march can alternate
    between two buffers.
    """

    def __init__(self, grid: Grid, model: PiecewiseFlux, config: SolverConfig,
                 bracket: tuple[float, float]):
        segs = model.segments
        bounds = (0, *grid.interface_cells, grid.n)
        # a one-cell subdomain has no interior: its cell is the boundary or
        # an interface cell.  The last entry says whether the block follows
        # its span: a custom law is always called on the whole interior, so
        # it sees the arguments it would without spans.
        self.updates = [
            (a, b, seg.params[0], None, None, True) if seg.kind == "linear"
            else (a, b, None, _array_form(seg, b - 1 - a), seg.func, seg.kind != "custom")
            for seg, a, b in zip(segs, bounds, bounds[1:])
            if b - a > 1
        ]
        self.couplings = tuple(
            (p, left.func, _inverse(right, bracket))
            for p, left, right in zip(grid.interface_cells, segs, segs[1:])
        )
        self.trace = config.left.trace if isinstance(config.left, Inflow) else None
        self.slab = config.lam * grid.dx
        self.t_end = config.t_end
        self.scratch = np.empty(grid.n)

    def whole_spans(self) -> list:
        """Spans that recompute every block's whole interior, for a first step."""
        return [(a + 1, b) for a, b, *_ in self.updates]

    def advance(self, u: np.ndarray, new: np.ndarray, t: float, dt: float, lam: float,
                spans: list = None, narrow: bool = False):
        """Write the level after ``u`` (at time ``t``, step ``dt = lam * dx``) into ``new``.

        Without ``spans`` every cell of ``new`` is written.  ``spans`` holds,
        for each update block, the half-open range ``(s, e)`` of its interior
        cells to recompute (empty as ``s == e``); only those cells, the
        boundary cell and the interface cells are written, except that a
        custom-law block always recomputes its whole interior.  That is
        exact under the span invariant: ``new`` holds the level that ``u``
        was computed from by a step of the same ``lam``, and every interior
        cell in which the two differ bitwise lies in its block's span
        together with its downwind neighbour.  A cell outside the span then
        has the inputs it had one step ago, so its new value is its value in
        ``u``, which ``new`` already holds.

        The spans are then moved on so the invariant holds for the next
        step.  With ``narrow``, a span first shrinks to the cells that
        changed bitwise (so 0.0 and -0.0 differ).  Each span grows by one
        cell downwind and reopens at the block's second cell when the
        block's first cell may have moved: an inflow boundary cell, or an
        interface cell whose upstream span reached the cell on its left.
        Spans that cover a whole interior (:meth:`whole_spans`) satisfy the
        invariant for any content of ``new``.
        """
        scratch = self.scratch
        whole = spans is None
        moved = self.trace is not None
        if narrow:
            u_bits, new_bits = u.view(np.int64), new.view(np.int64)
        for i, (a, b, slope, array_form, scalar_form, windowed) in enumerate(self.updates):
            s, e = (a + 1, b) if whole else spans[i]
            if s < e:
                dst, tmp = new[s:e], scratch[s:e]
                if slope is not None:
                    # convex combination of the two upwind cells, exact at weight one
                    w = lam * slope
                    np.multiply(u[s:e], 1.0 - w, out=dst)
                    np.multiply(u[s - 1:e - 1], w, out=tmp)
                    np.add(dst, tmp, out=dst)
                else:
                    # conservative difference of the upwind edge fluxes
                    # f(u_left); the block's last cell takes its right edge
                    # from the law's scalar form, as the interior ones use
                    # its array form
                    if e < b:
                        edge = np.asarray(array_form(u[s - 1:e]))
                        np.subtract(edge[1:], edge[:-1], out=tmp)
                    else:
                        edge = np.asarray(array_form(u[s - 1:b - 1]))
                        np.subtract(edge[1:], edge[:-1], out=tmp[:-1])
                        tmp[-1] = scalar_form(float(u[b - 1])) - edge[-1]
                    np.multiply(tmp, lam, out=tmp)
                    np.subtract(u[s:e], tmp, out=dst)
            if whole or not windowed:
                moved = True
                continue
            if narrow and s < e:
                changed = np.flatnonzero(new_bits[s:e] != u_bits[s:e])
                s, e = (s + int(changed[0]), s + int(changed[-1]) + 1) if changed.size \
                    else (a + 1, a + 1)
            elif moved and e == b and s == a + 1:
                # a whole span whose first cell may have moved stays whole,
                # and its last cell may have moved too
                continue
            last = s < e == b
            if s < e < b:
                e += 1
            if moved:
                s, e = a + 1, (e if s < e else a + 2)
            spans[i] = (s, e)
            moved = last

        if self.trace is not None:
            t_new = t + dt
            new[0] = _slab_average(self.trace, t_new, min(t_new + self.slab, self.t_end))
        else:
            # ghost repeats the boundary cell, so the update cancels exactly
            new[0] = u[0]

        # interface cells: match the flux of the updated left neighbour
        for p, left, inverse in self.couplings:
            new[p] = inverse(left(float(new[p - 1])))


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
    raises ``ValueError`` when a law stops increasing on them and
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
    _March(grid, model, config, u_range).advance(u, new, state.t, dt, lam)
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
    """Mean of the trace over (t0, t1); point value when the slab is empty."""
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
            return float(0.5 * (y1 + y0) * (t1 - t0)) / (t1 - t0)
        # otherwise the table call also rejects slabs past its ends
        xs = np.concatenate(([t0], pts[i:j], [t1]))
        ys = trace(xs)
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

    # full steps recompute only the cells in their spans (see _March.advance);
    # the first step writes a whole level into the empty spare buffer
    spans = march.whole_spans()

    for k in range(1, len(level_times)):
        if k <= n_full:
            march.advance(u, spare, t, dt, config.lam, spans, k % _NARROW_EVERY == 0)
        else:
            # the shortened step's lam differs, so no cell is known to be fixed
            march.advance(u, spare, t, remainder, last_lam)
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
