"""Closed-form reference solutions for benchmarking the march.

Two constructions are provided: plain translation for a single linear law,
and the solution of a single-jump datum interacting with one flux interface.
The latter tracks at most three elementary waves (the datum's own wave, the
wave the interface emits at time zero to restore flux continuity, and the
wave it emits when the datum's jump arrives) and reports the time window on
which that picture remains valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnsupportedOracleError, ValidityError, _tolerance
from .fluxes import FluxSegment, PiecewiseFlux, _chain, invariant_interval


@dataclass(frozen=True)
class ExactSolution:
    """A space-time evaluator together with its window of validity.

    Calling outside ``[0, valid_until]`` raises :class:`ValidityError`; the
    end ``valid_until`` takes a slack relative to itself, the exact zero
    none.  Values exactly on a discontinuity take the right-hand limit.
    """

    evaluator: Callable
    valid_until: float

    def __call__(self, x, t: float):
        t = float(t)
        if not 0.0 <= t <= self.valid_until + _tolerance(1e-12, self.valid_until):
            raise ValidityError(f"t={t} is outside the validity window [0, {self.valid_until}]")
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.evaluator(x_arr, t)
        return out if np.ndim(x) else float(out[0])


def exact_linear_advection(speed: float, u0: Callable, valid_until: float = math.inf) -> ExactSolution:
    """Translation of the initial datum at constant speed."""
    speed = float(speed)
    if not math.isfinite(speed):
        raise ValueError(f"speed must be finite, got {speed}")

    def evaluator(x, t):
        return np.asarray(u0(x - speed * t), dtype=float)

    return ExactSolution(evaluator, float(valid_until))


# {{{ one jump crossing one interface


@dataclass(frozen=True)
class _Wave:
    """A single jump or fan in one law, launched at (x0, t0)."""

    seg: FluxSegment
    x0: float
    t0: float
    left: float
    right: float
    fan: bool
    s_tail: float  # equal to s_head for jumps
    s_head: float

    def head(self, t: float) -> float:
        return self.x0 + self.s_head * (t - self.t0)

    def sample(self, x: np.ndarray, t: float) -> np.ndarray:
        dt = t - self.t0
        if dt <= 0.0:
            return np.where(x < self.x0, self.left, self.right)
        if not self.fan:
            return np.where(x < self.x0 + self.s_tail * dt, self.left, self.right)
        ratio = (x - self.x0) / dt
        inner = _deriv_inverse(self.seg, np.clip(ratio, self.s_tail, self.s_head),
                               self.left, self.right)
        out = np.where(ratio <= self.s_tail, self.left, inner)
        return np.where(ratio >= self.s_head, self.right, out)


def _deriv_inverse(seg: FluxSegment, s: np.ndarray, u_lo: float, u_hi: float) -> np.ndarray:
    """Solve ``seg.deriv(u) == s`` elementwise inside a fan."""
    if seg.kind == "quadratic":
        a, b = seg.params
        return (s - b) / a
    lo = np.full_like(s, u_lo)
    hi = np.full_like(s, u_hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = np.asarray(seg.deriv(mid)) < s
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _make_wave(seg: FluxSegment, x0: float, t0: float, left: float, right: float) -> Optional[_Wave]:
    if left == right:
        return None
    if seg.kind == "linear":
        a = seg.params[0]
        return _Wave(seg, x0, t0, left, right, fan=False, s_tail=a, s_head=a)
    if left > right:
        s = (float(seg(left)) - float(seg(right))) / (left - right)
        return _Wave(seg, x0, t0, left, right, fan=False, s_tail=s, s_head=s)
    return _Wave(
        seg, x0, t0, left, right, fan=True,
        s_tail=float(seg.deriv(left)), s_head=float(seg.deriv(right)),
    )


def _require_convex_or_linear(seg: FluxSegment, lo: float, hi: float):
    if seg.kind == "linear":
        return
    if seg.kind == "quadratic":
        if seg.params[0] > 0.0:
            return
        raise UnsupportedOracleError(
            "concave quadratic laws are not covered by this construction"
        )
    d = np.asarray(seg.deriv(np.linspace(lo, hi, 1025)), dtype=float)
    if np.any(np.diff(d) < -_tolerance(1e-10, d.min(), d.max())):
        raise UnsupportedOracleError(
            f"law is not convex on [{lo}, {hi}]; wave structure would be richer "
            f"than one jump or fan per event"
        )


def exact_two_flux_riemann(
    model: PiecewiseFlux, u_left: float, u_right: float, jump_pos: float
) -> ExactSolution:
    """Solution for a single-jump datum left of a single flux interface.

    The datum is ``u_left`` below ``jump_pos`` and ``u_right`` above it,
    marching under ``model`` with exactly one interface.  Three waves can
    occur: the datum's own wave in the left law, the wave emitted at the
    interface at time zero (restoring flux continuity against ``u_right``),
    and the wave emitted when the datum's jump reaches the interface.  The
    validity window ends when waves in the right law would start to interact,
    or when a fan (rather than a jump) reaches the interface.

    Laws must be linear or convex on the relevant range; anything else raises
    :class:`UnsupportedOracleError`.
    """
    if model.n_interfaces != 1:
        raise UnsupportedOracleError(
            f"construction needs exactly one interface, model has {model.n_interfaces}"
        )
    u_left, u_right, jump_pos = float(u_left), float(u_right), float(jump_pos)
    pos_iface = model.interfaces[0]
    if not jump_pos < pos_iface:
        raise ValueError(
            f"datum jump at {jump_pos} must sit left of the interface at {pos_iface}"
        )
    g, f = model.segments
    u_range = invariant_interval(model, (min(u_left, u_right), max(u_left, u_right)))
    _require_convex_or_linear(g, *u_range)
    _require_convex_or_linear(f, *u_range)

    # transmitted states: values the right law needs to carry the left flux
    v_right, v_left = (_chain(model, u, u_range)[1] for u in (u_right, u_left))

    w_datum = _make_wave(g, jump_pos, 0.0, u_left, u_right)
    w_start = _make_wave(f, pos_iface, 0.0, v_right, u_right)

    valid_until = math.inf
    w_arrival = None
    # when the datum wave's head reaches the interface
    t_hit = (math.inf if w_datum is None or w_datum.s_head <= 0.0
             else (pos_iface - jump_pos) / w_datum.s_head)
    if w_datum is not None and w_datum.fan:
        # once a fan touches the interface the transmitted state varies
        # continuously and this three-wave picture stops applying
        valid_until = t_hit
    elif math.isfinite(t_hit):
        w_arrival = _make_wave(f, pos_iface, t_hit, v_left, v_right)
    if w_arrival is not None and w_start is not None and w_arrival.s_head > w_start.s_tail:
        valid_until = min(
            valid_until,
            w_arrival.s_head * t_hit / (w_arrival.s_head - w_start.s_tail),
        )

    def evaluator(x, t):
        out = np.full_like(x, u_left)
        on_left = x < pos_iface
        if w_datum is not None:
            out[on_left] = w_datum.sample(x[on_left], t)
        xr = x[~on_left]
        vals = np.full_like(xr, u_right)
        if w_start is not None:
            vals = w_start.sample(xr, t)
        if w_arrival is not None and t > w_arrival.t0:
            vals = np.where(xr < w_arrival.head(t), w_arrival.sample(xr, t), vals)
        out[~on_left] = vals
        return out

    return ExactSolution(evaluator, valid_until)


# }}}
