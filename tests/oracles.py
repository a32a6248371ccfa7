"""Slow, independent re-implementations used to cross-check the library.

Everything here is written from the definitions with plain loops and
bisection so that agreement with the package is meaningful.  The
exceptions are :func:`reference_advance`, the march's allocating array-form
update, :func:`scalar_inverse`, the interface inverse one float at a time,
:func:`entropy_residual_whole` and :func:`flux_lipschitz_whole`, the
entropy residual and the flux's Lipschitz quotient over all levels at once,
:func:`ordering_gap_per_pair`, verify's order check one pair member at a
time, and :func:`invariant_interval_reference` and
:func:`adapted_constants_reference`, the former hand-written loops over
the interface maps: the package must reproduce each bit for bit.  :func:`window_scan` is
the march's window span by the former reshape, ``any`` and ``nonzero`` scan,
and :func:`record_spans` no oracle but a probe of the march's windows.
"""

import bisect
import math
from typing import Callable
from collections import defaultdict

import numpy as np

from discflux import (DivergentRangeError, EntropyResidualReport, FluxRangeError, FluxSegment,
                      SampledTable, invert_near)
from discflux.cli import _unit_draws
from discflux.errors import _tolerance
from discflux import solver

# scalar_inverse's Newton stops at a residual or a bracket a few machine epsilons wide
_EPS = float(np.finfo(float).eps)


# bisect_root's stopping tolerance: a residual, or a bracket relative to the root
BISECT_TOL = 5e-15


def bisect_root(func, lo, hi, tol=BISECT_TOL, itmax=300):
    """Root of an increasing function by pure bisection."""
    f_lo, f_hi = func(lo), func(hi)
    if f_lo > 0.0 or f_hi < 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: {f_lo}, {f_hi}")
    for _ in range(itmax):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if abs(f_mid) <= tol or hi - lo <= tol * max(1.0, abs(mid)):
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def adaptive_simpson(func, a, b, tol=1e-12, max_depth=40):
    """Recursive adaptive Simpson quadrature of a scalar function."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        fl, fr = func(xl), func(xr)
        left = simpson(x0, x1, f0, fl, f1)
        right = simpson(x1, x2, f1, fr, f2)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, x1, f0, fl, f1, left, 0.5 * eps, depth + 1) + recurse(
            x1, x2, f1, fr, f2, right, 0.5 * eps, depth + 1
        )

    fa, fb = func(a), func(b)
    fm = func(0.5 * (a + b))
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 0)


def exact_step_average(breakpoints, values, edges):
    """Exact cell means of a step function over the given cell edges."""
    breakpoints = [float(x) for x in breakpoints]
    values = [float(v) for v in values]
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        cuts = [a] + [x for x in breakpoints if a < x < b] + [b]
        total = 0.0
        for c0, c1 in zip(cuts[:-1], cuts[1:]):
            piece = bisect.bisect_right(breakpoints, 0.5 * (c0 + c1))
            total += (c1 - c0) * values[piece]
        out.append(total / (b - a))
    return np.asarray(out)


def slab_average_oracle(trace, t0, t1):
    """Mean of an inflow trace over (t0, t1); the point value at ``t1`` if the slab is empty.

    A ``SampledTable`` is integrated by the trapezoid on its kinks: the
    table points strictly inside the slab are picked with a mask and joined
    to the slab's ends.  A callable takes the 5-point Gauss-Legendre rule,
    on one array of its nodes.  Either way a slab where every sampled value
    is the same gives that value.
    """
    if t1 - t0 <= 1e-15 * max(abs(t0), abs(t1)):
        return float(trace(t1))
    if isinstance(trace, SampledTable):
        pts = trace.points
        xs = np.concatenate(([t0], pts[(pts > t0) & (pts < t1)], [t1]))
        ys = trace(xs)
        if np.all(ys == ys[0]):
            return float(ys[0])
        return float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))) / (t1 - t0)
    nodes, weights = np.polynomial.legendre.leggauss(5)
    ys = np.asarray(trace(0.5 * (t0 + t1) + (0.5 * (t1 - t0)) * nodes), dtype=float)
    if np.all(ys == ys[0]):
        return float(ys[0])
    return float(ys @ weights) / 2.0


def upwind_edge(f, a, b):
    """Upwind edge flux of an increasing law: the left state's flux."""
    return f(a)


def godunov_edge(f, a, b):
    """Godunov edge flux: min of f over [a, b] if a <= b, else max over [b, a].

    Written for laws monotone between the two states, where the extremes sit
    at the ends.
    """
    fa, fb = f(a), f(b)
    return min(fa, fb) if a <= b else max(fa, fb)


def reference_step(u, lam, fluxes, interface_cells, brackets, edge_flux=upwind_edge):
    """One update transcribed from its definition with plain loops.

    Subdomain interiors first (each with its own law, the edge flux
    ``edge_flux(f, left state, right state)`` on both sides and the old
    neighbours; past the last cell the outflow ghost repeats it), the
    boundary cell kept, then every interface cell from its freshly updated
    left neighbour through flux continuity.  ``brackets`` bounds the root
    search of each inversion.
    """
    u = [float(v) for v in u]
    n = len(u)
    bounds = [0, *interface_cells, n]
    ghost = u + [u[-1]]
    new = list(u)
    for i, f in enumerate(fluxes):
        for j in range(bounds[i] + 1, bounds[i + 1]):
            new[j] = u[j] - lam * (edge_flux(f, u[j], ghost[j + 1]) - edge_flux(f, u[j - 1], u[j]))
    lo, hi = brackets
    # a flux on the edge of the bracket's image may miss it by an ulp, so
    # the search reaches one bisection tolerance past the bracket
    pad = BISECT_TOL * max(1.0, abs(lo), abs(hi))
    for i, p in enumerate(interface_cells):
        w = fluxes[i](new[p - 1])
        new[p] = bisect_root(lambda v: fluxes[i + 1](v) - w, lo - pad, hi + pad)
    return np.asarray(new)


def scalar_inverse(seg: FluxSegment, bracket: tuple[float, float],
             image: tuple[float, float] = None) -> Callable[[float], float]:
    """The map ``w -> invert(seg, w, bracket)`` on one float, resolved once.

    The interface inverse as it was before it took whole arrays, kept as
    it was: closed forms for the builtin kinds, a safeguarded Newton
    iteration with Python floats for a custom law, and :func:`invert`'s
    error texts.  The package's elementwise inverse must give each entry
    these bits.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        def reject(w):
            raise ValueError(f"bad inversion request: w={float(w)}, bracket=[{lo}, {hi}]")
        return reject
    f_lo, f_hi = (float(seg(lo)), float(seg(hi))) if image is None else image
    # invert_near accepts a bracket within this same slack of its image, so
    # a target it accepts is never rejected here
    slack = _tolerance(1e-9, f_lo, f_hi)
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


def invariant_interval_reference(model, data_range):
    """``fluxes.invariant_interval`` as a hand-written loop over the interface maps.

    Both ends of each map in one pass, each with its own finite check and
    error wrapper: the package's one chain must give these bits, and raise
    :class:`DivergentRangeError` wherever this does.
    """
    lo, hi = float(data_range[0]), float(data_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ValueError(f"need a finite range with lo <= hi, got [{lo}, {hi}]")
    segs = model.segments
    r_lo, r_hi = hull_lo, hull_hi = lo, hi
    for i in range(1, model.n_interfaces + 1):
        w_lo, w_hi = float(segs[i - 1](r_lo)), float(segs[i - 1](r_hi))
        if not (math.isfinite(w_lo) and math.isfinite(w_hi)):
            raise DivergentRangeError(
                f"interface map {i} transmits a non-finite flux [{w_lo}, {w_hi}] "
                f"from the range [{r_lo}, {r_hi}]"
            )
        try:
            m_lo = invert_near(segs[i], w_lo, (lo, hi))
            m_hi = invert_near(segs[i], w_hi, (lo, hi))
        except FluxRangeError as exc:
            raise DivergentRangeError(
                f"interface map {i} pushes the range outside the flux image: {exc}"
            ) from exc
        r_lo, r_hi = min(lo, m_lo), max(hi, m_hi)
        hull_lo, hull_hi = min(hull_lo, r_lo), max(hull_hi, r_hi)
    return hull_lo, hull_hi


def adapted_constants_reference(model, c, seed):
    """Per-subdomain entropy constants chained through flux continuity, by a loop of its own.

    Raises :class:`FluxRangeError` where an interface transmits a non-finite
    flux, or one outside the next law's image.
    """
    out = [float(c)]
    for i in range(model.n_interfaces):
        w = float(model.segments[i](out[-1]))
        if not math.isfinite(w):
            raise FluxRangeError(f"adapted constants of c={c}: the interface at "
                                 f"x={model.interfaces[i]} transmits the flux {w} from {out[-1]}")
        out.append(invert_near(model.segments[i + 1], w, seed))
    return np.asarray(out)


def reference_step_gap(segments, bracket, lam, tol=BISECT_TOL):
    """Largest gap a march step may show against :func:`reference_step` on ``bracket``.

    With U = max(1, |lo|, |hi|), F the largest |f| at the bracket ends,
    alpha and L the smallest and largest slope of any law on the bracket:

    - an interior cell is a few roundings apart on each side: the update's
      own (one ulp of U) and, scaled by ``lam``, four in each flux
      evaluation and their difference (ulps of F), so at most
      ``2 eps (U + 8 lam F)``;
    - an interface cell carries its left neighbour's gap through the map's
      slope, at most L / alpha; ``bisect_root`` stops at a residual ``tol``,
      which is ``tol / alpha`` in the root, or at a bracket ``tol * U``
      wide; the residual is evaluated with a roundoff of ``2 eps F``; and
      the march's inverse rounds by an ulp or two of U.
    """
    lo, hi = bracket
    eps = float(np.finfo(float).eps)
    scale = max(1.0, abs(lo), abs(hi))
    flux = max(abs(float(seg(v))) for seg in segments for v in (lo, hi))
    slopes = [seg.deriv_bounds(lo, hi) for seg in segments]
    alpha, top = min(d for d, _ in slopes), max(d for _, d in slopes)
    interior = 2.0 * eps * (scale + 8.0 * lam * flux)
    return (interior * (1.0 + top / alpha) + max(tol / alpha, tol * scale)
            + 2.0 * eps * flux / alpha + 2.0 * eps * scale)


def reference_advance(u, t, dt, lam, model, interface_cells, bracket, trace=None,
                      slab=None, t_end=None):
    """One level of the march in its allocating array form.

    Each block of two or more cells is updated from the old level: a linear
    law ``a*u + b`` by the convex combination ``(1 - lam*a) u_j + lam*a
    u_{j-1}``, any other law by upwind edge fluxes ``f(u[a:b-1])`` on an
    array and, past the block's last cell, ``f`` at a float.  The march
    takes that last edge from the array form too, so a march equal to this
    update shows that the law gives one value per point either way.  The
    boundary cell keeps its value or, with an inflow ``trace``, takes its
    :func:`slab_average_oracle` over ``(t + dt, min(t + dt + slab,
    t_end))``.  Each interface cell is then one :func:`scalar_inverse` of
    its updated left neighbour's flux on ``bracket``.
    """
    new = np.empty_like(u)
    bounds = [0, *interface_cells, u.size]
    for seg, a, b in zip(model.segments, bounds, bounds[1:]):
        if b - a < 2:
            continue
        if seg.kind == "linear":
            w = lam * seg.params[0]
            new[a + 1:b] = u[a + 1:b] * (1.0 - w) + u[a:b - 1] * w
        else:
            edge = seg(u[a:b - 1])
            diff = np.append(edge[1:] - edge[:-1], seg(u[b - 1]) - edge[-1])
            new[a + 1:b] = u[a + 1:b] - lam * diff
    if trace is None:
        new[0] = u[0]
    else:
        new[0] = slab_average_oracle(trace, t + dt, min(t + dt + slab, t_end))
    for i, p in enumerate(interface_cells):
        w = float(model.segments[i](new[p - 1]))
        new[p] = scalar_inverse(model.segments[i + 1], bracket)(w)
    return new


def reference_levels(u0, grid, model, config, bracket):
    """Every level of a march of :func:`reference_advance` from ``u0`` to ``config.t_end``.

    Full steps of ``dt = lam * dx`` and, when the end time is not a whole
    number of them, one shortened step; level ``k`` of the full steps
    starts at ``k * dt``, as the march pins it.  An inflow boundary takes
    ``config.left.trace``'s slab means, a slab reaching past the end time
    being cut there.
    """
    trace = getattr(config.left, "trace", None)
    dt = config.lam * grid.dx
    n_full = int(np.floor(config.t_end / dt + 1e-12))
    remainder = config.t_end - n_full * dt
    if remainder <= 1e-12 * max(dt, config.t_end):
        remainder = 0.0
    levels = [u0]
    for k in range(1, n_full + 1 + (remainder > 0.0)):
        step_dt = dt if k <= n_full else remainder
        levels.append(reference_advance(
            levels[-1], (k - 1) * dt, step_dt, step_dt / grid.dx if k > n_full else config.lam,
            model, grid.interface_cells, bracket, trace=trace, slab=dt, t_end=config.t_end))
    return levels


def window_scan(u, prev, a, b, ahead, length):
    """The span of cells ``a`` to ``b - 1`` for a window of ``length`` steps, by a full scan.

    Every cell that differs bitwise between ``u`` and ``prev`` in any row,
    the first one also where ``ahead`` differs from ``u``, widened by
    ``length`` cells downwind and capped at ``b``; ``(a + 1, a + 1)`` when
    none does.
    """
    differs = u[..., a:b].view(np.int64) != prev[..., a:b].view(np.int64)
    changed = differs.reshape(-1, b - a).any(axis=0)
    changed[0] |= (ahead.view(np.int64) != u[..., a].view(np.int64)).any()
    changed = changed.nonzero()[0]
    if not changed.size:
        return a + 1, a + 1
    return a + int(changed[0]), min(a + int(changed[-1]) + 1 + length, b)


def record_spans(monkeypatch):
    """Log the span each window of the march's steps gives each block.

    Returns a dict from a block's first cell to the spans of its windows, in
    the order the windows start.
    """
    log = defaultdict(list)
    window = solver._window

    def logged(u, prev, block, ahead):
        span = window(u, prev, block, ahead)
        log[block.a].append(span)
        return span

    monkeypatch.setattr(solver, "_window", logged)
    return log


def ordering_gap_per_pair(data, model, solver_config, grid, u_range):
    """Verify's order-check gap with each member of each pair marched alone.

    Takes verify's 20 pairs from the same counter hash,
    :func:`discflux.cli._unit_draws`, scaled into ``data``, the config's
    data range, and marches the low and the high member of each for 100
    steps of :func:`reference_advance`; an inflow cell takes
    :func:`slab_average_oracle` over the slab one step after each level's
    pinned time ``k * dt``.  Returns the largest low-minus-high gap; the
    first NaN gap wins and stays.
    """
    lam = solver_config.lam
    dt = lam * grid.dx
    trace, t_end = getattr(solver_config.left, "trace", None), solver_config.t_end
    lo, hi = data
    worst = 0.0
    for a, b in lo + (hi - lo) * _unit_draws((20, 2, grid.n)):
        low, high = np.minimum(a, b), np.maximum(a, b)
        for k in range(100):
            low, high = [reference_advance(u, k * dt, dt, lam, model, grid.interface_cells,
                                           u_range, trace=trace, slab=dt, t_end=t_end)
                         for u in (low, high)]
            value = float(np.max(low - high))
            if value > worst or (np.isnan(value) and not np.isnan(worst)):
                worst = value
    return worst


def flux_lipschitz_all_pairs(levels, times, centers, fluxes, interface_cells):
    """Largest space-Lipschitz quotient of the flux over every same-law cell pair.

    ``levels`` holds the cell values of each level and ``times`` their times.
    For cells j < k under one law the quotient is
    ``sum_n dt_n |f(u_j^n) - f(u_k^n)| / (x_k - x_j)``, with the law evaluated
    one value at a time.
    """
    dts = np.diff(times)
    bounds = [0, *interface_cells, len(centers)]
    worst = 0.0
    for i, f in enumerate(fluxes):
        cells = range(bounds[i], bounds[i + 1])
        flux = {j: np.array([float(f(float(lv[j]))) for lv in levels[:-1]]) for j in cells}
        for j in cells:
            for k in cells:
                if k > j:
                    total = np.sum(dts * np.abs(flux[j] - flux[k]))
                    worst = max(worst, float(total / (centers[k] - centers[j])))
    return worst


def flux_lipschitz_whole(trajectory, grid, model):
    """``analysis.flux_lipschitz_in_space`` with every (levels x cells) array allocated whole.

    Each subdomain's levels are stacked, weighted by their steps and
    differenced, and one ``sum(axis=0)`` adds the levels' pair terms.  A NaN
    quotient wins.
    """
    levels = trajectory.levels
    dts = np.diff(np.asarray([lv.t for lv in levels]))
    worst = 0.0
    for seg, sl in zip(model.segments, grid.subdomain_slices()):
        if sl.stop - sl.start < 2:
            continue
        values = np.stack([lv.u[sl] for lv in levels])
        fluxes = np.asarray(seg(values), dtype=float)
        weighted = fluxes[:-1] * dts[:, None]
        pair_sums = np.abs(np.diff(weighted, axis=1)).sum(axis=0)
        value = float(np.max(pair_sums / np.diff(grid.centers[sl])))
        if value > worst or (np.isnan(value) and not np.isnan(worst)):
            worst = value
    return worst


def same_report(got, want):
    """Assert two entropy reports agree, down to the sign of a zero maximum.

    A NaN maximum agrees with a NaN, which ``==`` on the reports would not allow.
    """
    assert (got.argmax, got.sampled_c) == (want.argmax, want.sampled_c)
    assert float(got.max_residual).hex() == float(want.max_residual).hex()


def entropy_residual_whole(trajectory, grid, model, c_samples):
    """``analysis.entropy_residual`` with every (levels x cells) array allocated whole.

    For each constant the residual is formed over all steps at once, the
    in-law cells are picked by fancy indexing and the first argmax is kept
    across constants by a strict comparison.  ``np.argmax`` picks a
    constant's first NaN, and the first constant with a NaN wins.
    """
    u_all = np.stack([lv.u for lv in trajectory.levels])
    dts = np.diff(np.asarray([lv.t for lv in trajectory.levels]))
    flux_all = np.empty_like(u_all)
    for seg, sl in zip(model.segments, grid.subdomain_slices()):
        flux_all[:, sl] = seg(u_all[:, sl])
    same_law = grid.subdomain_of_cell[1:] == grid.subdomain_of_cell[:-1]
    seed = (float(u_all.min()), float(u_all.max()))
    best, best_where = -np.inf, (0, 0, 0.0)
    constants = tuple(float(c) for c in c_samples)
    for c in constants:
        adapted = adapted_constants_reference(model, c, seed)
        c_cell = adapted[grid.subdomain_of_cell]
        fc = float(model.segments[0](adapted[0]))
        eta = np.abs(u_all - c_cell)
        q = np.abs(flux_all - fc)
        rate = (eta[1:, 1:] - eta[:-1, 1:]) / dts[:, None]
        div = (q[:-1, 1:] - q[:-1, :-1]) / grid.dx
        residual = (rate + div)[:, same_law]
        idx = int(np.argmax(residual))
        value = float(residual.flat[idx])
        if value > best or (np.isnan(value) and not np.isnan(best)):
            step_i, col = np.unravel_index(idx, residual.shape)
            cell = int(np.nonzero(same_law)[0][col]) + 1
            best, best_where = value, (cell, int(step_i), c)
    return EntropyResidualReport(max_residual=best, argmax=best_where, sampled_c=constants)
