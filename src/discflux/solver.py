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
from .fluxes import PiecewiseFlux, FluxSegment, invariant_interval, invert, invert_near, max_wave_speed
from .grid import Grid, SampledTable, cell_average, _evaluate, _GL_NODES, _GL_WEIGHTS

_CFL_SLACK = 1e-12

# For increasing laws every one of these gives the same edge fluxes
# (see numerical_flux_value); they stay selectable so that can be checked.
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
    """March parameters: ``lam`` is the time step divided by the cell width."""

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
    return _edge_flux(kind, seg)(u_left, u_right)


def _edge_flux(kind: str, seg: FluxSegment) -> Callable:
    """The edge-flux function ``F(u_left, u_right)`` of one law and kind."""
    if kind == "godunov":
        def godunov(u_left, u_right):
            f_left, f_right = seg(u_left), seg(u_right)
            return np.where(
                np.asarray(u_left) <= np.asarray(u_right),
                np.minimum(f_left, f_right),
                np.maximum(f_left, f_right),
            )

        return godunov
    # upwind, and engquist_osher: f = f_inc + f_dec split by derivative sign,
    # where f_dec of an increasing law is identically zero, leaving f_inc(a) = f(a)
    return lambda u_left, u_right: seg(u_left)


# }}}


# {{{ march plan


class _March:
    """Everything one level-to-level update needs, resolved once.

    Holds each subdomain's cell bounds ``(seg, a, b)`` with its update (a
    convex combination for a linear law, edge fluxes otherwise), the interface
    couplings ``(p, left law, right law)``, the inversion bracket, the
    left-boundary trace and a scratch buffer.  :meth:`advance` writes into a
    caller-owned array, so a march can alternate between two buffers.
    """

    def __init__(self, grid: Grid, model: PiecewiseFlux, config: SolverConfig,
                 bracket: Optional[tuple[float, float]]):
        segs = model.segments
        bounds = (0, *grid.interface_cells, grid.n)
        self.blocks = tuple(zip(segs, bounds, bounds[1:]))
        # a one-cell subdomain has no interior: its cell is the boundary or
        # an interface cell
        self.updates = [
            (seg, a, b, seg.params[0], None) if seg.kind == "linear"
            else (seg, a, b, None, _edge_flux(config.numerical_flux, seg))
            for seg, a, b in self.blocks
            if b - a > 1
        ]
        self.couplings = tuple(zip(grid.interface_cells, segs, segs[1:]))
        self.bracket = bracket
        self.trace = config.left.trace if isinstance(config.left, Inflow) else None
        self.slab = config.lam * grid.dx
        self.t_end = config.t_end
        self.scratch = np.empty(grid.n)

    def advance(self, u: np.ndarray, new: np.ndarray, t: float, dt: float, lam: float):
        """Write the level after ``u`` (at time ``t``, step ``dt = lam * dx``) into ``new``."""
        scratch = self.scratch
        for seg, a, b, slope, edges in self.updates:
            dst, tmp = new[a + 1:b], scratch[a + 1:b]
            if slope is not None:
                # convex combination of the two upwind cells; exact at weight
                # one, and identical for every numerical flux kind
                w = lam * slope
                np.multiply(u[a + 1:b], 1.0 - w, out=dst)
                np.multiply(u[a:b - 1], w, out=tmp)
                np.add(dst, tmp, out=dst)
            else:
                # conservative difference of the edge fluxes; the last cell's
                # right edge uses the law's scalar form, as the interior ones
                # use its array form
                edge = np.asarray(edges(u[a:b - 1], u[a + 1:b]))
                np.subtract(edge[1:], edge[:-1], out=tmp[:-1])
                tmp[-1] = seg(u[b - 1]) - edge[-1]
                np.multiply(tmp, lam, out=tmp)
                np.subtract(u[a + 1:b], tmp, out=dst)

        if self.trace is not None:
            t_new = t + dt
            new[0] = _slab_average(self.trace, t_new, min(t_new + self.slab, self.t_end))
        else:
            # ghost repeats the boundary cell, so the update cancels exactly
            new[0] = u[0]

        # interface cells: match the flux of the updated left neighbour
        for p, left, right in self.couplings:
            w = float(left(new[p - 1]))
            if self.bracket is not None:
                new[p] = invert(right, w, self.bracket)
            else:
                new[p] = invert_near(right, w, (float(new.min()), float(new.max())))


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
    inversions; otherwise the bracket grows from the current data.

    Raises :class:`StabilityError` when ``dt`` exceeds what the current cell
    values allow (derivative sup times dt/dx above one).
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

    march = _March(grid, model, config, u_range)
    speed = 0.0
    for seg, a, b in march.blocks:
        block = u[a:b]
        speed = max(speed, seg.deriv_bounds(float(block.min()), float(block.max()))[1])
    if lam * speed > 1.0 + _CFL_SLACK:
        raise StabilityError(
            f"dt/dx * max wave speed = {lam * speed:.6g} > 1 at t={state.t:.6g} "
            f"(dt={dt:.6g}, speed={speed:.6g})"
        )

    # without a bracket, inversions seed from the new level's range; interface
    # cells not yet coupled hold their old values until their turn
    new = u.copy()
    march.advance(u, new, state.t, dt, lam)
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
    data_lo, data_hi = float(u0.min()), float(u0.max())
    if isinstance(config.left, Inflow):
        tr_lo, tr_hi = _trace_range(config.left.trace, t_end)
        data_lo, data_hi = min(data_lo, tr_lo), max(data_hi, tr_hi)
    u_range = invariant_interval(model, (data_lo, data_hi))
    for k, seg in enumerate(model.segments):
        dmin = seg.deriv_bounds(*u_range)[0]
        if dmin <= 0.0:
            raise ValueError(
                f"flux law {k} stops increasing on the invariant range "
                f"{u_range}: min derivative {dmin}"
            )
    speed = max_wave_speed(model, u_range)
    if config.lam * speed > 1.0 + _CFL_SLACK:
        raise StabilityError(
            f"lam * max wave speed = {config.lam * speed:.6g} > 1 on the "
            f"invariant range {u_range}; reduce lam below {1.0 / speed:.6g}"
        )

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
        if k <= n_full:
            march.advance(u, spare, t, dt, config.lam)
        else:
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


def _trace_range(trace, t_end: float) -> tuple[float, float]:
    """Range of the boundary trace over [0, t_end] (sampled for callables)."""
    if t_end <= 0.0:
        v = float(trace(0.0))
        return v, v
    if isinstance(trace, SampledTable):
        pts = trace.points
        inside = trace.values[(pts > 0.0) & (pts < t_end)]
        ends = np.asarray([trace(0.0), trace(t_end)])
        vals = np.concatenate((inside, ends))
        return float(vals.min()), float(vals.max())
    vals = _evaluate(trace, np.linspace(0.0, t_end, 1025))
    return float(vals.min()), float(vals.max())


# }}}
