"""Flux models for conservation laws that switch flux across fixed interfaces.

A model is a sorted list of interface positions together with one flux law per
subdomain (one more law than interfaces).  Every law must be strictly
increasing in the conserved quantity: a positive lower bound on the
derivative is what makes single-sided differencing stable and the interface
coupling (flux continuity) uniquely invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import DivergentRangeError, FluxRangeError, _tolerance

# Number of samples used when validating or bounding a user-supplied flux.
_N_SAMPLES = 4097

# Numerical inversion stops at a residual or a bracket a few machine epsilons wide.
_EPS = float(np.finfo(float).eps)


# {{{ flux segments


@dataclass(frozen=True)
class FluxSegment:
    """One strictly increasing flux law on a single subdomain.

    ``func`` and ``deriv`` accept floats or numpy arrays.  ``interval`` is
    the interval on which the law was checked to increase when it was
    built.  ``kind`` is one of ``"linear"``, ``"quadratic"`` or
    ``"custom"`` and selects analytic shortcuts for inversion and
    derivative bounds where they exist.
    """

    func: Callable
    deriv: Callable
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
    calls of its formula (see :func:`quadratic_flux`) through such a
    buffer, and one more for a ``u*b`` term, so each value has the bits of
    the law's float form; bound
    with ``fold=True`` it leaves out the product with ``c = a/2``, so a law
    ``c*u**2`` gives its squares ``u*u`` alone.  A custom law is one call
    of its ``func``, elementwise as :func:`custom_flux` checks.
    """
    out = np.empty(shape)
    if seg.kind == "custom":
        return lambda u: ([partial(_fill, seg.func, u, out[..., :u.shape[-1]])],
                          out[..., :u.shape[-1]])
    a, b = seg.params
    # constants as 0-d arrays: a ufunc converts a Python float on every call
    c, b = np.array(0.5 * a), (np.array(b) if b != 0.0 else None)
    tmp = np.empty(shape) if b is not None else None

    def bind(u, fold=False):
        dst = out[..., :u.shape[-1]]
        calls = [partial(np.square, u, dst)]
        if not fold:
            calls.append(partial(np.multiply, dst, c, dst))
        if b is not None:
            term = tmp[..., :u.shape[-1]]
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
    return FluxSegment(
        func=func,
        deriv=deriv,
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
    return float(_inverse(seg, bracket)(w))


def _inverse(seg: FluxSegment, bracket: tuple[float, float],
             image: tuple[float, float] = None) -> Callable[[np.ndarray], np.ndarray]:
    """The map ``w -> invert(seg, w, bracket)`` on every entry of an array, resolved once.

    The bracket is checked and the law evaluated at its ends here, not on
    each call; each entry gets the bits of :func:`invert`, and an array its
    error at the first entry it rejects.  A caller that has already
    evaluated the law at the bracket ends passes those values as ``image``.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        return partial(_check_targets, bracket=(lo, hi))
    f_lo, f_hi = (float(seg(lo)), float(seg(hi))) if image is None else image
    # invert_near accepts a bracket within this same slack of its image, so
    # a target it accepts is never rejected here
    slack = _tolerance(1e-9, f_lo, f_hi)
    kind, params = seg.kind, seg.params

    def inverse(w):
        w = _check_targets(w, (lo, hi), (f_lo, f_hi), slack)
        w = np.minimum(np.maximum(w, f_lo), f_hi)
        if kind == "linear":
            a, b = params
            return (w - b) / a
        if kind == "quadratic":
            a, b = params
            s = np.sqrt(np.maximum(b * b + 2.0 * a * w, 0.0))
            # the root on the increasing branch; avoid cancellation when b > 0
            return 2.0 * w / (b + s) if b > 0.0 else (s - b) / a
        if f_hi <= f_lo or not w.size:
            # a one-point bracket is its own root
            return np.full(w.shape, lo)
        return _newton(seg, w.ravel(), lo, hi, f_lo, f_hi).reshape(w.shape)

    return inverse


def _check_targets(w, bracket, image=None, slack=0.0) -> np.ndarray:
    """``w`` as a float array, after raising :func:`invert`'s error for its first bad entry.

    Without an ``image`` (a bad bracket) every entry is a bad request.
    """
    w = np.asarray(w, dtype=float)
    lo, hi = bracket
    if image is None:
        bad = np.ones(w.shape, dtype=bool)
    else:
        f_lo, f_hi = image
        bad = ~np.isfinite(w) | (w < f_lo - slack) | (w > f_hi + slack)
    if bad.any():
        first = float(w.flat[int(np.argmax(bad))])
        if image is None or not math.isfinite(first):
            raise ValueError(f"bad inversion request: w={first}, bracket=[{lo}, {hi}]")
        raise FluxRangeError(
            f"w={first} is outside the flux image [{f_lo}, {f_hi}] "
            f"of the bracket [{lo}, {hi}]"
        )
    return w


def _newton(seg: FluxSegment, w: np.ndarray, lo: float, hi: float, f_lo: float,
            f_hi: float) -> np.ndarray:
    """:func:`invert`'s safeguarded Newton iteration on each entry of a nonempty 1-D ``w``.

    Each pass calls the law and its derivative once, on the entries still
    iterating, each of which takes its own scalar iteration's operations.
    """
    tol = 2.0 * _EPS * np.maximum(1.0, np.abs(w))
    u_lo, u_hi = np.full(w.shape, lo), np.full(w.shape, hi)
    u = np.minimum(np.maximum(lo + (w - f_lo) / (f_hi - f_lo) * (hi - lo), lo), hi)
    live = np.arange(w.size)
    for _ in range(200):
        x = u[live]
        r = np.asarray(seg(x), dtype=float) - w[live]
        # a stopped entry's bracket is not read again
        a = u_lo[live] = np.where(r < 0.0, x, u_lo[live])
        b = u_hi[live] = np.where(r < 0.0, u_hi[live], x)
        go = ~((np.abs(r) <= tol[live])
               | (b - a <= 4.0 * _EPS * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))))
        live, x, r, a, b = live[go], x[go], r[go], a[go], b[go]
        if not live.size:
            break
        d = np.asarray(seg.deriv(x), dtype=float)
        # a NaN or nonpositive slope, or a step leaving the bracket, bisects
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(d > 0.0, x - r / d, np.nan)
        u[live] = np.where((a < newton) & (newton < b), newton, 0.5 * (a + b))
    return u


def invert_near(seg: FluxSegment, w: float, seed: tuple[float, float]) -> float:
    """Like :func:`invert`, but grows the bracket outward from ``seed``.

    Used when only a rough idea of where the root lives is available.  The
    bracket stays where a quadratic law increases, right of the vertex
    ``-b/a`` of a convex one and left of a concave one's; the seed is
    clamped there first.  Linear and custom laws grow without a bound (a
    custom law beyond its declared interval is the caller's responsibility).
    The law is evaluated once at each end of the bracket found.  A
    non-finite ``w`` is :func:`invert`'s bad request on the seed, raised
    before any evaluation.  Raises :class:`FluxRangeError` when ``w`` lies
    outside a quadratic's image over its increasing side, when the next
    bracket or the root would pass the largest float, or if doubling the
    bracket 200 times never captures ``w`` (the flux image is bounded away
    from it).
    """
    lo, hi = float(seed[0]), float(seed[1])
    if hi < lo:
        lo, hi = hi, lo
    w = float(_check_targets(w, (lo, hi), (-math.inf, math.inf)))
    cap_lo, cap_hi = _increasing_range(seg)
    lo, hi = min(max(lo, cap_lo), cap_hi), min(max(hi, cap_lo), cap_hi)
    width = max(hi - lo, 1e-6 * max(1.0, abs(lo), abs(hi)))
    for _ in range(200):
        f_lo, f_hi = float(seg(lo)), float(seg(hi))
        slack = _tolerance(1e-9, f_lo, f_hi)
        if f_lo - slack <= w <= f_hi + slack:
            # where the law overflows at an end of the bracket, w's root may overflow too
            with np.errstate(over="ignore"):
                root = float(_inverse(seg, (lo, hi), (f_lo, f_hi))(w))
            if not math.isfinite(root):
                raise FluxRangeError(f"could not invert w={w}: its root on [{lo}, {hi}] "
                                     f"is {root}")
            return root
        if (w < f_lo and lo <= cap_lo) or (w > f_hi and hi >= cap_hi):
            raise FluxRangeError(
                f"could not bracket w={w}: the law increases on [{cap_lo}, {cap_hi}], "
                f"and its image stops at [{f_lo}, {f_hi}] on [{lo}, {hi}]"
            )
        if w < f_lo:
            lo = max(lo - width, cap_lo)
        if w > f_hi:
            hi = min(hi + width, cap_hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise FluxRangeError(f"could not bracket w={w}: the next bracket [{lo}, {hi}] "
                                 f"passes the largest float")
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
    hull of the data and the image of subdomain ``i-1``'s range.  Every map
    increases, so the low ends chain from the data's low end and the high
    ends from its high end (:func:`_chain`), each joined with the data at
    every step; coupling runs only rightward, so one left-to-right pass is
    already the fixed point, and the hull of all subdomain ranges is
    returned.  Raises :class:`DivergentRangeError` when a map transmits a
    non-finite flux or takes a value outside a law's flux image or past the
    largest float; the low chain runs first.
    """
    lo, hi = float(data_range[0]), float(data_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ValueError(f"need a finite range with lo <= hi, got [{lo}, {hi}]")
    try:
        return (min(_chain(model, lo, (lo, hi), keep=lambda v: min(lo, v))),
                max(_chain(model, hi, (lo, hi), keep=lambda v: max(hi, v))))
    except FluxRangeError as exc:
        raise DivergentRangeError(str(exc)) from exc


def _chain(model: PiecewiseFlux, u: float, seed: tuple[float, float], keep=float) -> list:
    """``u`` and its image through each interface map in turn, left to right.

    The map ``i`` takes ``v`` to ``invert_near(segments[i], segments[i-1](v),
    seed)``; ``keep`` turns each image into the next map's input and is what
    the list holds.  With the default, the entries are the constants of one
    flux level carried across every interface.  Raises
    :class:`FluxRangeError`, naming the map and ``u``, where a map transmits
    a non-finite flux or its flux has no root in the next law.
    """
    out = [float(u)]
    for i, x in enumerate(model.interfaces):
        w = float(model.segments[i](out[-1]))
        try:
            if math.isfinite(w):
                out.append(keep(invert_near(model.segments[i + 1], w, seed)))
                continue
            why = ""
        except FluxRangeError as exc:
            why = f", which the next law cannot invert: {exc}"
        raise FluxRangeError(f"interface map {i + 1} at x={x}: the chain from {out[0]} "
                             f"transmits the flux {w}{why}")
    return out


# }}}
