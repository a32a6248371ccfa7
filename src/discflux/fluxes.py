"""Flux models for conservation laws that switch flux across fixed interfaces.

A model is a sorted list of interface positions together with one flux law per
subdomain (one more law than interfaces).  Every law must be strictly
increasing in the conserved quantity: the positive lower bound ``alpha`` on
the derivative is what makes single-sided differencing stable and the
interface coupling (flux continuity) uniquely invertible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import DivergentRangeError, FluxRangeError, InterfaceAmbiguityError

# Number of samples used when validating or bounding a user-supplied flux.
_N_SAMPLES = 4097

# Numerical inversion stops at a residual or a bracket a few machine epsilons wide.
_EPS = float(np.finfo(float).eps)


# {{{ flux segments


@dataclass(frozen=True)
class FluxSegment:
    """One strictly increasing flux law on a single subdomain.

    ``func`` and ``deriv`` accept floats or numpy arrays.  ``alpha`` is a
    positive lower bound for ``deriv`` on ``interval``, the interval the
    segment was validated on at construction time.  ``kind`` is one of
    ``"linear"``, ``"quadratic"`` or ``"custom"`` and selects analytic
    shortcuts for inversion and derivative bounds where they exist.
    """

    func: Callable
    deriv: Callable
    alpha: float
    interval: tuple[float, float]
    kind: str = "custom"
    params: tuple = ()

    def __call__(self, u):
        return self.func(u)

    def deriv_bounds(self, lo: float, hi: float) -> tuple[float, float]:
        """Infimum and supremum of the derivative over ``[lo, hi]``.

        Exact for the builtin kinds (the derivative is constant or monotone);
        sampled on a dense grid for custom laws.
        """
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        if self.kind == "linear":
            a = self.params[0]
            return a, a
        if self.kind == "quadratic":
            d_lo, d_hi = float(self.deriv(lo)), float(self.deriv(hi))
            return min(d_lo, d_hi), max(d_lo, d_hi)
        u = np.linspace(lo, hi, _N_SAMPLES)
        d = np.asarray(self.deriv(u), dtype=float)
        return float(d.min()), float(d.max())


def linear_flux(a: float, b: float = 0.0) -> FluxSegment:
    """Flux ``f(u) = a*u + b`` with slope ``a > 0``."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("linear flux coefficients must be finite")
    if a <= 0.0:
        raise ValueError(f"linear flux needs a positive slope, got a={a}")
    return FluxSegment(
        func=lambda u: a * u + b,
        deriv=lambda u: np.full_like(np.asarray(u, dtype=float), a),
        alpha=a,
        interval=(-math.inf, math.inf),
        kind="linear",
        params=(a, b),
    )


def quadratic_flux(a: float, b: float = 0.0, *, interval: tuple[float, float]) -> FluxSegment:
    """Flux ``f(u) = a*u**2/2 + b*u``, increasing on the given interval.

    The derivative ``a*u + b`` is affine, so monotonicity on ``interval`` is
    checked exactly at the endpoints.  The law is evaluated as ``u*u * (a/2)
    + u*b``, with the square ``u * u`` for a float and ``np.square(u)`` for an
    array, both rounded once, so a value gives the same bits as a float and
    inside an array.  Where ``b == 0`` the ``u*b`` term is left out: it is a
    zero of ``u``'s sign, which is ``a``'s sign wherever the law increases,
    and adding it changes no value there.
    """
    a, b = float(a), float(b)
    lo, hi = _checked_interval(interval)
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0.0:
        raise ValueError("quadratic flux needs finite coefficients and a != 0")
    alpha = min(a * lo + b, a * hi + b)
    if alpha <= 0.0:
        raise ValueError(
            f"quadratic flux is not increasing on [{lo}, {hi}]: "
            f"min derivative {alpha}"
        )
    c = 0.5 * a

    def func(u):
        square = np.square(u) if isinstance(u, np.ndarray) else u * u
        return square * c + u * b if b != 0.0 else square * c

    return FluxSegment(
        func=func,
        deriv=lambda u: a * np.asarray(u, dtype=float) + b,
        alpha=alpha,
        interval=(lo, hi),
        kind="quadratic",
        params=(a, b),
    )


def _array_form(seg: FluxSegment, shape) -> Callable:
    """A nonlinear ``seg`` on float views of up to ``shape``, resolved once.

    ``shape`` is a size or a tuple ``(*batch, size)``.  Returns ``bind(u)``,
    which gives the argument-free calls that write ``seg(u)`` into the
    first ``u.shape[-1]`` entries of each row of a buffer of that shape
    owned by the form, and the view of the result they fill.  The calls can
    be run any number of times, and each run of calls bound to any view
    overwrites the previous result.  A quadratic law is bound as the ufunc
    calls of its formula (see :func:`quadratic_flux`) through two such
    buffers, so each value has the bits of the law's float form.  A custom
    law is one call of its ``func``, elementwise as :func:`custom_flux`
    checks.
    """
    out = np.empty(shape)
    if seg.kind == "custom":
        return lambda u: ([partial(_fill, seg.func, u, out[..., :u.shape[-1]])],
                          out[..., :u.shape[-1]])
    a, b = seg.params
    # constants as 0-d arrays: a ufunc converts a Python float on every call
    c, b = np.array(0.5 * a), (np.array(b) if b != 0.0 else None)
    tmp = np.empty(shape)

    def bind(u):
        dst, term = out[..., :u.shape[-1]], tmp[..., :u.shape[-1]]
        calls = [partial(np.square, u, dst), partial(np.multiply, dst, c, dst)]
        if b is not None:
            calls += (partial(np.multiply, u, b, term), partial(np.add, dst, term, dst))
        return calls, dst
    return bind


def _fill(func, u, out):
    out[...] = func(u)


def custom_flux(func: Callable, deriv: Callable, *, interval: tuple[float, float]) -> FluxSegment:
    """Wrap a user-supplied flux and its derivative after sampling checks.

    The pair is sampled densely on ``interval``: the derivative must stay
    strictly positive and must agree with a central difference of ``func``.
    ``func`` must be elementwise: its value at an entry of an array may not
    depend on the other entries, as the march evaluates it on sub-slices of
    a block and at single values.  It is checked by evaluating ``func`` on
    the sample without its first entry.  Behaviour outside the sampled
    interval is the caller's responsibility.
    """
    lo, hi = _checked_interval(interval)
    u = np.linspace(lo, hi, _N_SAMPLES)
    fu = np.asarray(func(u), dtype=float)
    du = np.asarray(deriv(u), dtype=float)
    if fu.shape != u.shape or du.shape != u.shape:
        raise ValueError("flux and derivative must evaluate elementwise on arrays")
    if not (np.all(np.isfinite(fu)) and np.all(np.isfinite(du))):
        raise ValueError(f"flux or derivative is not finite on [{lo}, {hi}]")
    # an evaluation rounded once in its input and once in its output is
    # within eps * (|f| + |u f'|) of the law, so two evaluations of an
    # elementwise law at one point differ by at most twice that
    roundoff = 2.0 * _EPS * float(np.max(np.abs(fu)) + np.max(np.abs(u * du)))
    shifted = np.asarray(func(u[1:]), dtype=float)
    if shifted.shape != fu[1:].shape or not np.all(np.abs(shifted - fu[1:]) <= roundoff):
        raise ValueError(
            "flux is not elementwise: evaluated without the first sample, its "
            f"values at the others move by more than the roundoff {roundoff:.3e}"
        )
    dmin = float(du.min())
    if dmin <= 0.0:
        worst = float(u[np.argmin(du)])
        raise ValueError(
            f"flux is not strictly increasing on [{lo}, {hi}]: "
            f"derivative {dmin} at u={worst}"
        )
    # consistency of deriv with func on a coarser subsample
    uc = u[16:-16:16]
    h = 1e-6 * np.maximum(1.0, np.abs(uc))
    fd = (np.asarray(func(uc + h), dtype=float) - np.asarray(func(uc - h), dtype=float)) / (2.0 * h)
    dc = np.asarray(deriv(uc), dtype=float)
    mismatch = np.abs(fd - dc) / np.maximum(1.0, np.abs(dc))
    if float(mismatch.max()) > 1e-4:
        worst = float(uc[np.argmax(mismatch)])
        raise ValueError(
            f"derivative disagrees with a finite difference of the flux "
            f"near u={worst} (relative mismatch {float(mismatch.max()):.2e})"
        )
    # sampling may straddle the true minimum, keep a safety margin
    return FluxSegment(
        func=func,
        deriv=deriv,
        alpha=0.999 * dmin,
        interval=(lo, hi),
        kind="custom",
        params=(),
    )


def _checked_interval(interval) -> tuple[float, float]:
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"need a finite interval with lo < hi, got [{lo}, {hi}]")
    return lo, hi


# }}}


# {{{ piecewise model


@dataclass(frozen=True)
class PiecewiseFlux:
    """Interface positions ``x_1 < ... < x_N`` and N+1 flux laws, left to right.

    ``segments[i]`` governs the subdomain between ``interfaces[i-1]`` and
    ``interfaces[i]`` (unbounded at the ends).  ``N == 0`` is allowed and
    means a single law everywhere.
    """

    interfaces: tuple[float, ...]
    segments: tuple[FluxSegment, ...]

    def __post_init__(self):
        object.__setattr__(self, "interfaces", tuple(float(x) for x in self.interfaces))
        object.__setattr__(self, "segments", tuple(self.segments))
        if len(self.segments) != len(self.interfaces) + 1:
            raise ValueError(
                f"{len(self.interfaces)} interfaces need "
                f"{len(self.interfaces) + 1} flux laws, got {len(self.segments)}"
            )
        if any(not math.isfinite(x) for x in self.interfaces):
            raise ValueError("interface positions must be finite")
        if any(b <= a for a, b in zip(self.interfaces, self.interfaces[1:])):
            raise ValueError(f"interfaces must be strictly increasing: {self.interfaces}")

    @property
    def n_interfaces(self) -> int:
        return len(self.interfaces)


def segment_at(model: PiecewiseFlux, x: float) -> FluxSegment:
    """The flux law governing position ``x``.

    Raises :class:`InterfaceAmbiguityError` when ``x`` sits exactly on an
    interface, where two laws meet and the question has no single answer.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"position must be finite, got {x}")
    if x in model.interfaces:
        raise InterfaceAmbiguityError(f"x={x} lies on a flux interface")
    return model.segments[bisect_right(model.interfaces, x)]


def max_wave_speed(model: PiecewiseFlux, interval: tuple[float, float]) -> float:
    """Largest derivative any law attains on ``interval`` (sets the CFL limit)."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ValueError(f"need a finite interval with lo <= hi, got [{lo}, {hi}]")
    return max(seg.deriv_bounds(lo, hi)[1] for seg in model.segments)


# }}}


# {{{ inversion


def invert(seg: FluxSegment, w: float, bracket: tuple[float, float]) -> float:
    """Solve ``seg(u) == w`` for ``u`` within ``bracket``.

    Closed-form for the builtin kinds.  Custom laws take safeguarded Newton
    steps with ``seg.deriv`` from the regula-falsi point of the bracket: each
    evaluation narrows the bracket by the sign of the residual, and a step
    that would not land strictly inside it bisects instead.  The iteration
    stops at a flux residual of ``2 * eps * max(1, |w|)`` or once the bracket
    is ``4 * eps`` wide relative to its ends.  Raises
    :class:`FluxRangeError` when ``w`` is not in the image of the bracket (up
    to a small slack absorbing roundoff).  Each call evaluates the law at
    the bracket ends; the solver's march, which inverts on one bracket for a
    whole run, does that once per run through the same code.
    """
    return _inverse(seg, bracket)(w)


def _inverse(seg: FluxSegment, bracket: tuple[float, float],
             image: tuple[float, float] = None) -> Callable[[float], float]:
    """The map ``w -> invert(seg, w, bracket)``, resolved once.

    The bracket is checked and the law evaluated at its ends here, not on
    each call; results and error texts are those of :func:`invert`.  A
    caller that has already evaluated the law at the bracket ends passes
    those values as ``image``.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        def reject(w):
            raise ValueError(f"bad inversion request: w={float(w)}, bracket=[{lo}, {hi}]")
        return reject
    f_lo, f_hi = (float(seg(lo)), float(seg(hi))) if image is None else image
    slack = 1e-9 * max(1.0, abs(f_lo), abs(f_hi))
    kind, params = seg.kind, seg.params

    def inverse(w):
        w = float(w)
        if not math.isfinite(w):
            raise ValueError(f"bad inversion request: w={w}, bracket=[{lo}, {hi}]")
        if w < f_lo - slack or w > f_hi + slack:
            raise FluxRangeError(
                f"w={w} is outside the flux image [{f_lo}, {f_hi}] "
                f"of the bracket [{lo}, {hi}]"
            )
        w = min(max(w, f_lo), f_hi)
        if kind == "linear":
            a, b = params
            return (w - b) / a
        if kind == "quadratic":
            a, b = params
            s = math.sqrt(max(b * b + 2.0 * a * w, 0.0))
            # the root on the increasing branch; avoid cancellation when b > 0
            return 2.0 * w / (b + s) if b > 0.0 else (s - b) / a
        if f_hi <= f_lo:
            # a one-point bracket is its own root
            return lo
        tol = 2.0 * _EPS * max(1.0, abs(w))
        u_lo, u_hi = lo, hi
        u = min(max(lo + (w - f_lo) / (f_hi - f_lo) * (hi - lo), lo), hi)
        for _ in range(200):
            r = float(seg(u)) - w
            if abs(r) <= tol:
                break
            if r < 0.0:
                u_lo = u
            else:
                u_hi = u
            if u_hi - u_lo <= 4.0 * _EPS * max(1.0, abs(u_lo), abs(u_hi)):
                break
            d = float(seg.deriv(u))
            # a NaN or nonpositive slope, or a step leaving the bracket, bisects
            newton = u - r / d if d > 0.0 else math.nan
            u = newton if u_lo < newton < u_hi else 0.5 * (u_lo + u_hi)
        return u

    return inverse


def invert_near(seg: FluxSegment, w: float, seed: tuple[float, float]) -> float:
    """Like :func:`invert`, but grows the bracket outward from ``seed``.

    Used when only a rough idea of where the root lives is available.  The
    bracket stays where a quadratic law increases, right of the vertex
    ``-b/a`` of a convex one and left of a concave one's; the seed is
    clamped there first.  Linear and custom laws grow without a bound (a
    custom law beyond its declared interval is the caller's responsibility).
    The law is evaluated once at each end of the bracket found.  Raises
    :class:`FluxRangeError` when ``w`` lies outside a quadratic's image over
    its increasing side, or if doubling the bracket 200 times never captures
    ``w`` (the flux image is bounded away from it).
    """
    lo, hi = float(seed[0]), float(seed[1])
    if hi < lo:
        lo, hi = hi, lo
    cap_lo, cap_hi = _increasing_range(seg)
    lo, hi = min(max(lo, cap_lo), cap_hi), min(max(hi, cap_lo), cap_hi)
    width = max(hi - lo, 1e-6 * max(1.0, abs(lo), abs(hi)))
    for _ in range(200):
        f_lo, f_hi = float(seg(lo)), float(seg(hi))
        slack = 1e-9 * max(1.0, abs(f_lo), abs(f_hi))
        if f_lo - slack <= w <= f_hi + slack:
            return _inverse(seg, (lo, hi), (f_lo, f_hi))(w)
        if (w < f_lo and lo <= cap_lo) or (w > f_hi and hi >= cap_hi):
            raise FluxRangeError(
                f"could not bracket w={w}: the law increases on [{cap_lo}, {cap_hi}], "
                f"and its image stops at [{f_lo}, {f_hi}] on [{lo}, {hi}]"
            )
        if w < f_lo:
            lo = max(lo - width, cap_lo)
        if w > f_hi:
            hi = min(hi + width, cap_hi)
        width *= 2.0
    raise FluxRangeError(
        f"could not bracket w={w}: flux image still [{float(seg(lo))}, "
        f"{float(seg(hi))}] after growing the bracket to [{lo}, {hi}]"
    )


def _increasing_range(seg: FluxSegment) -> tuple[float, float]:
    """Where a quadratic ``seg`` increases; the whole line for other kinds."""
    if seg.kind != "quadratic":
        return -math.inf, math.inf
    a, b = seg.params
    return (-b / a, math.inf) if a > 0.0 else (-math.inf, -b / a)


# }}}


# {{{ invariant interval


def invariant_interval(model: PiecewiseFlux, data_range: tuple[float, float]) -> tuple[float, float]:
    """Smallest interval containing the data that the interface maps cannot leave.

    Values in subdomain ``i`` come either from the data or through the
    increasing coupling map ``u -> segments[i]^{-1}(segments[i-1](u))``
    applied to values of subdomain ``i-1``, so subdomain ``i``'s range is the
    hull of the data and the image of subdomain ``i-1``'s range.  Coupling
    runs only rightward, so one left-to-right pass is already the fixed
    point; the hull of all subdomain ranges is returned.  Raises
    :class:`DivergentRangeError` when a map leaves a law's flux image or
    goes non-finite.
    """
    lo, hi = float(data_range[0]), float(data_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ValueError(f"need a finite range with lo <= hi, got [{lo}, {hi}]")
    segs = model.segments
    r_lo, r_hi = hull_lo, hull_hi = lo, hi
    for i in range(1, model.n_interfaces + 1):
        try:
            m_lo = invert_near(segs[i], float(segs[i - 1](r_lo)), (lo, hi))
            m_hi = invert_near(segs[i], float(segs[i - 1](r_hi)), (lo, hi))
        except FluxRangeError as exc:
            raise DivergentRangeError(
                f"interface map {i} pushes the range outside the flux image: {exc}"
            ) from exc
        r_lo, r_hi = min(lo, m_lo), max(hi, m_hi)
        if not (math.isfinite(r_lo) and math.isfinite(r_hi)):
            raise DivergentRangeError(
                f"interface map {i} produced a non-finite range [{r_lo}, {r_hi}]"
            )
        hull_lo, hull_hi = min(hull_lo, r_lo), max(hull_hi, r_hi)
    return hull_lo, hull_hi


# }}}
