"""Slow, independent re-implementations used to cross-check the library.

Everything here is written from the definitions with plain loops and
bisection so that agreement with the package is meaningful.  The
exceptions are :func:`reference_advance`, the march's allocating array-form
update, :func:`entropy_residual_whole`, the entropy residual over all
levels at once, and :func:`ordering_gap_per_pair`, verify's order check one
pair member at a time: the package must reproduce each bit for bit.
"""

import bisect

import numpy as np

from discflux import EntropyResidualReport, invert
from discflux.analysis import _adapted_constants
from discflux.config import data_range
from discflux.solver import _March


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


def slab_average_oracle(table, t0, t1):
    """Mean of a ``SampledTable`` over (t0, t1) by the trapezoid on its kinks.

    The table points strictly inside the slab are picked with a mask and
    joined to the slab's ends; an empty slab gives the point value at ``t1``
    and a slab where every sampled value is the same gives that value.
    """
    if t1 - t0 <= 1e-15 * max(1.0, abs(t0)):
        return float(table(t1))
    pts = table.points
    inner = pts[(pts > t0) & (pts < t1)]
    xs = np.concatenate(([t0], inner, [t1]))
    ys = table(xs)
    if np.all(ys == ys[0]):
        return float(ys[0])
    return float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))) / (t1 - t0)


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
    boundary cell keeps its value or, with an inflow table ``trace``, takes
    its mean over ``(t + dt, min(t + dt + slab, t_end))``.  Each interface
    cell is then one :func:`discflux.invert` of its updated left
    neighbour's flux on ``bracket``.
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
        new[p] = invert(model.segments[i + 1], w, bracket)
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
    if remainder <= 1e-12 * max(dt, 1.0):
        remainder = 0.0
    levels = [u0]
    for k in range(1, n_full + 1 + (remainder > 0.0)):
        step_dt = dt if k <= n_full else remainder
        levels.append(reference_advance(
            levels[-1], (k - 1) * dt, step_dt, step_dt / grid.dx if k > n_full else config.lam,
            model, grid.interface_cells, bracket, trace=trace, slab=dt, t_end=config.t_end))
    return levels


def ordering_gap_per_pair(config, model, solver_config, grid, u_range):
    """Verify's order-check gap with each member of each pair marched alone.

    Draws 20 pairs from the config's data range in order, a pair's two
    states one after the other, and marches the low and the high member of
    each for 100 whole steps on a one-row plan, two buffers each.  Returns
    the largest low-minus-high gap; the first NaN gap wins and stays.
    """
    march = _March(grid, model, solver_config, u_range)
    lam = solver_config.lam
    dt = lam * grid.dx
    low, low_new, high, high_new, gap = (np.empty(grid.n) for _ in range(5))
    steps = [march.bind(old, new, lam) for old, new in
             ((low, low_new), (low_new, low), (high, high_new), (high_new, high))]
    targets = ((low_new, high_new), (low, high))
    rng = np.random.default_rng(0)
    lo, hi = data_range(config)
    worst = 0.0
    for _ in range(20):
        a = lo + (hi - lo) * rng.random(grid.n)
        b = lo + (hi - lo) * rng.random(grid.n)
        np.minimum(a, b, out=low)
        np.maximum(a, b, out=high)
        t = 0.0
        for i in range(100):
            march.advance(steps[i % 2], t, dt)
            march.advance(steps[2 + i % 2], t, dt)
            np.subtract(*targets[i % 2], out=gap)
            t += dt
            value = float(np.max(gap))
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
        adapted = _adapted_constants(model, c, seed)
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
