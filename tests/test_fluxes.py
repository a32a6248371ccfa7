from dataclasses import replace

import numpy as np
import pytest

from discflux import (
    DivergentRangeError,
    FluxRangeError,
    InterfaceAmbiguityError,
    PiecewiseFlux,
    custom_flux,
    invariant_interval,
    invert,
    invert_near,
    linear_flux,
    max_wave_speed,
    quadratic_flux,
)
from discflux.fluxes import _array_form, _inverse
from oracles import bisect_root

EPS = float(np.finfo(float).eps)


def make_two_law_model():
    """Linear transport on the left, convex law on the right, split at 0."""
    return PiecewiseFlux(
        (0.0,), (linear_flux(1.0), quadratic_flux(1.0, interval=(0.25, 3.0)))
    )


def test_linear_flux_values_and_bounds():
    seg = linear_flux(2.0, -1.0)
    assert seg(3.0) == 5.0
    u = np.array([-1.0, 0.0, 4.0])
    assert np.array_equal(seg(u), 2.0 * u - 1.0)
    assert seg.deriv_bounds(-10.0, 10.0) == (2.0, 2.0)
    assert seg.alpha == 2.0


def test_linear_flux_rejects_nonpositive_slope():
    with pytest.raises(ValueError, match="positive slope"):
        linear_flux(0.0)
    with pytest.raises(ValueError, match="positive slope"):
        linear_flux(-1.0)


def test_quadratic_flux_matches_formula():
    seg = quadratic_flux(2.0, 0.5, interval=(0.0, 4.0))
    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 4.0, size=50)
    assert np.allclose(seg(u), u * u + 0.5 * u, rtol=0.0, atol=1e-14)
    assert np.allclose(seg.deriv(u), 2.0 * u + 0.5)
    # derivative is affine, so the bounds are the endpoint values exactly
    assert seg.deriv_bounds(1.0, 3.0) == (2.5, 6.5)


def test_quadratic_flux_rejects_nonincreasing_interval():
    with pytest.raises(ValueError, match="not increasing"):
        quadratic_flux(1.0, 0.0, interval=(-1.0, 1.0))
    with pytest.raises(ValueError, match="a != 0"):
        quadratic_flux(0.0, 1.0, interval=(0.0, 1.0))


def test_custom_flux_accepts_monotone_pair():
    seg = custom_flux(
        lambda u: np.exp(u), lambda u: np.exp(u), interval=(-1.0, 1.0)
    )
    assert seg.kind == "custom"
    assert 0.0 < seg.alpha <= np.exp(-1.0)
    lo, hi = seg.deriv_bounds(-0.5, 0.5)
    assert lo == pytest.approx(np.exp(-0.5), rel=1e-6)
    assert hi == pytest.approx(np.exp(0.5), rel=1e-6)


def test_custom_flux_rejects_decreasing():
    with pytest.raises(ValueError, match="not strictly increasing"):
        custom_flux(lambda u: -u, lambda u: -np.ones_like(u), interval=(0.0, 1.0))
    # sign change inside the interval is also caught
    with pytest.raises(ValueError, match="not strictly increasing"):
        custom_flux(lambda u: u**3 / 3.0, lambda u: u**2, interval=(-1.0, 1.0))


def test_custom_flux_rejects_inconsistent_derivative():
    with pytest.raises(ValueError, match="finite difference"):
        custom_flux(lambda u: u * u, lambda u: 2.1 * u + 0.3, interval=(1.0, 2.0))


def test_custom_flux_must_be_elementwise():
    # the march evaluates a law on sub-slices of a block; a value that
    # depends on the other entries would change with the slice
    with pytest.raises(ValueError, match="not elementwise"):
        custom_flux(lambda u: u + 0.01 * np.mean(u), lambda u: 1.0 + 0.0 * u,
                    interval=(0.0, 4.0))
    # an ulp that depends on the array is roundoff, not a dependence
    seg = custom_flux(lambda u: u + (np.size(u) % 2) * np.spacing(u), lambda u: 1.0 + 0.0 * u,
                      interval=(0.0, 4.0))
    assert seg.kind == "custom"


def test_piecewise_model_validation():
    with pytest.raises(ValueError, match="flux laws"):
        PiecewiseFlux((0.0,), (linear_flux(1.0),))
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseFlux((1.0, 1.0), (linear_flux(1.0),) * 3)


def test_segment_at():
    from discflux.fluxes import segment_at

    model = make_two_law_model()
    assert segment_at(model, -0.3) is model.segments[0]
    assert segment_at(model, 0.7) is model.segments[1]
    with pytest.raises(InterfaceAmbiguityError):
        segment_at(model, 0.0)


def test_max_wave_speed():
    model = make_two_law_model()
    # linear law contributes 1, quadratic law contributes max(u) on the range
    assert max_wave_speed(model, (0.5, 2.0)) == 2.0
    assert max_wave_speed(model, (0.25, 0.75)) == 1.0


@pytest.mark.parametrize(
    "seg, bracket",
    [
        (linear_flux(3.0, -2.0), (-5.0, 5.0)),
        (quadratic_flux(1.0, 0.0, interval=(0.5, 3.0)), (0.5, 3.0)),
        (quadratic_flux(2.0, 1.0, interval=(0.0, 2.0)), (0.0, 2.0)),
    ],
)
def test_invert_round_trip(seg, bracket):
    rng = np.random.default_rng(11)
    for u in rng.uniform(bracket[0], bracket[1], size=20):
        w = float(seg(u))
        assert invert(seg, w, bracket) == pytest.approx(u, rel=1e-12, abs=1e-12)


def test_invert_custom_matches_bisection_oracle():
    seg = custom_flux(lambda u: np.sinh(u), lambda u: np.cosh(u), interval=(0.0, 3.0))
    for w in (0.1, 1.0, 5.0):
        got = invert(seg, w, (0.0, 3.0))
        expected = bisect_root(lambda v: np.sinh(v) - w, 0.0, 3.0)
        assert got == pytest.approx(expected, abs=1e-11)


def sin_law(u):
    return u + 0.1 * np.sin(u)


def sin_law_deriv(u):
    return 1.0 + 0.1 * np.cos(u)


@pytest.mark.parametrize(
    "func, deriv, bracket",
    [
        (np.sinh, np.cosh, (0.0, 3.0)),
        (sin_law, sin_law_deriv, (0.0, 4.0)),
        # slope 1e-3 at the left end of the bracket, 12 at the right
        (lambda u: u**3 + 1e-3 * u, lambda u: 3.0 * u**2 + 1e-3, (0.0, 2.0)),
    ],
    ids=["sinh", "u+0.1sin(u)", "flat-at-left"],
)
def test_invert_custom_reaches_machine_precision(func, deriv, bracket):
    seg = custom_flux(func, deriv, interval=bracket)
    f_lo, f_hi = float(func(bracket[0])), float(func(bracket[1]))
    for w in np.random.default_rng(5).uniform(f_lo, f_hi, size=400):
        u = invert(seg, w, bracket)
        assert bracket[0] <= u <= bracket[1]
        assert abs(float(func(u)) - w) <= 4.0 * EPS * max(1.0, abs(w))


def test_invert_custom_needs_few_flux_evaluations():
    scalar_calls = 0

    def law(u):
        nonlocal scalar_calls
        if not isinstance(u, np.ndarray):
            scalar_calls += 1
        return sin_law(u)

    seg = custom_flux(law, sin_law_deriv, interval=(0.0, 4.0))
    ws = np.random.default_rng(7).uniform(float(law(0.0)), float(law(4.0)), size=1000)
    scalar_calls = 0
    for w in ws:
        invert(seg, w, (0.0, 4.0))
    # two bracket ends plus a few Newton steps; pure bisection needs about 40
    assert scalar_calls / ws.size <= 8.0


@pytest.mark.parametrize("slope", [0.0, np.nan, 1e-300], ids=["zero", "nan", "overshoot"])
def test_invert_custom_bisects_where_newton_cannot_step(slope):
    # a derivative that gives no step, or one far outside the bracket, falls
    # back to bisection and still converges
    seg = replace(custom_flux(np.sinh, np.cosh, interval=(0.0, 3.0)),
                  deriv=lambda u: slope)
    for w in (0.1, 1.0, 5.0, 9.9):
        u = invert(seg, w, (0.0, 3.0))
        assert abs(float(np.sinh(u)) - w) <= 4.0 * EPS * max(1.0, abs(w))
    # a one-point bracket needs no step at all
    assert invert(seg, float(np.sinh(1.0)), (1.0, 1.0)) == 1.0


@pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
def test_invert_custom_rejects_non_finite_target(w):
    seg = custom_flux(np.sinh, np.cosh, interval=(0.0, 3.0))
    with pytest.raises(ValueError, match="bad inversion request"):
        invert(seg, w, (0.0, 3.0))


def test_invert_quadratic_avoids_cancellation():
    # huge linear part: the naive (sqrt(b^2 + 2aw) - b)/a root loses all digits
    seg = quadratic_flux(1.0, 1e8, interval=(0.0, 10.0))
    u = 1e-4
    w = float(seg(u))
    assert invert(seg, w, (0.0, 10.0)) == pytest.approx(u, rel=1e-12)


def test_invert_outside_image():
    seg = quadratic_flux(1.0, 0.0, interval=(1.0, 2.0))
    with pytest.raises(FluxRangeError, match="outside the flux image"):
        invert(seg, 10.0, (1.0, 2.0))
    # values inside the roundoff slack are clamped instead
    top = float(seg(2.0))
    assert invert(seg, top + 1e-13, (1.0, 2.0)) == pytest.approx(2.0)


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@pytest.mark.parametrize(
    "a, b, interval",
    [(1.0, 0.0, (0.05, 4.0)), (-0.2, 2.0, (0.0, 4.0)), (0.7, 0.3, (-0.4, 3.0)),
     (-1.0, 0.0, (-4.0, -0.05))],
)
def test_quadratic_array_form_writes_the_law_into_its_buffers(a, b, interval):
    # b == 0 drops the b*u term, a zero of a's sign wherever the law
    # increases, so the values must not move, signed zeros included
    seg = quadratic_flux(a, b, interval=interval)
    lo, hi = seg.interval
    u = np.concatenate(([lo, hi], np.random.default_rng(3).uniform(lo, hi, 10_000)))
    bind = _array_form(seg, u.size)

    def evaluate(view):
        calls, values = bind(view)
        for call in calls:
            call()
        return values

    first = evaluate(u)
    expected = 0.5 * a * np.square(u) + b * u
    assert first.tobytes() == seg(u).tobytes() == expected.tobytes()
    # calls bound to the next view reuse the same buffer instead of allocating
    again = evaluate(u[::-1])
    assert np.shares_memory(first, again)
    assert again.tobytes() == expected[::-1].tobytes()


@pytest.mark.parametrize(
    "seg, bracket",
    [
        (linear_flux(3.0, -2.0), (-5.0, 5.0)),
        (quadratic_flux(-0.2, 2.0, interval=(0.0, 4.0)), (0.0, 4.0)),
        (quadratic_flux(-1.0, 0.0, interval=(-4.0, -0.05)), (-4.0, -0.05)),
        (custom_flux(sin_law, sin_law_deriv, interval=(0.0, 4.0)), (0.0, 4.0)),
    ],
    ids=["linear", "quadratic-b>0", "quadratic-b<=0", "custom"],
)
def test_resolved_inverse_equals_invert_on_every_call(seg, bracket):
    # one inverse serves a whole march, so no call may leave state behind
    inverse = _inverse(seg, bracket)
    lo, hi = bracket
    f_lo, f_hi = float(seg(lo)), float(seg(hi))
    ws = np.concatenate(([f_lo, f_hi, f_hi + 1e-13],
                         np.random.default_rng(13).uniform(f_lo, f_hi, 500)))
    for w in ws:
        assert same_bits(inverse(w), invert(seg, w, bracket))

    for w in (f_lo - 1.0, f_hi + 1.0):
        text = (f"w={w} is outside the flux image [{f_lo}, {f_hi}] "
                f"of the bracket [{lo}, {hi}]")
        for solve in (inverse, lambda w: invert(seg, w, bracket)):
            with pytest.raises(FluxRangeError) as exc:
                solve(w)
            assert str(exc.value) == text
    for w, br in ((np.nan, bracket), (np.inf, bracket), (1.0, (hi, lo)), (1.0, (np.nan, hi))):
        text = f"bad inversion request: w={w}, bracket=[{float(br[0])}, {float(br[1])}]"
        for solve in (_inverse(seg, br), lambda w: invert(seg, w, br)):
            with pytest.raises(ValueError) as exc:
                solve(w)
            assert str(exc.value) == text


def test_invert_near_grows_bracket():
    seg = quadratic_flux(1.0, 0.0, interval=(0.1, 50.0))
    w = float(seg(40.0))
    assert invert_near(seg, w, (1.0, 2.0)) == pytest.approx(40.0, rel=1e-12)


def test_invert_near_gives_up_on_bounded_image():
    seg = custom_flux(
        np.arctan, lambda u: 1.0 / (1.0 + u * u), interval=(-50.0, 50.0)
    )
    with pytest.raises(FluxRangeError, match="could not bracket"):
        invert_near(seg, 2.0, (0.0, 1.0))


# Data (0.5, 2.0) with a transmitted state that growing the bracket by
# doubling steps would overshoot: past the vertex of u^2 at 0, and past the
# peak of -u^2/2 + 3u at 3.
VERTEX_CASES = {
    "convex": (PiecewiseFlux((0.0,), (quadratic_flux(1.0, interval=(0.05, 4.0)),
                                      quadratic_flux(2.0, interval=(0.05, 4.0)))),
               (np.sqrt(0.125), 2.0)),
    "concave": (PiecewiseFlux((0.0,), (linear_flux(2.2),
                                       quadratic_flux(-1.0, 3.0, interval=(0.05, 2.9)))),
                (3.0 - np.sqrt(6.8), 3.0 - np.sqrt(0.2))),
}


@pytest.mark.parametrize("name", sorted(VERTEX_CASES))
def test_invert_near_stops_growing_at_a_quadratics_vertex(name):
    model, (root_lo, root_hi) = VERTEX_CASES[name]
    left, right = model.segments
    root = root_lo if name == "convex" else root_hi
    w = float(left(0.5 if name == "convex" else 2.0))
    got = invert_near(right, w, (0.5, 2.0))
    assert got == pytest.approx(root, rel=4 * EPS)
    assert got == invert(right, w, (0.05, 2.9))


def test_invariant_interval_reaches_past_the_seed_towards_a_vertex():
    convex, want = VERTEX_CASES["convex"]
    assert invariant_interval(convex, (0.5, 2.0)) == pytest.approx(want, rel=4 * EPS)
    concave, want = VERTEX_CASES["concave"]
    assert invariant_interval(concave, (0.5, 2.0)) == pytest.approx(want, rel=4 * EPS)


def test_invert_near_rejects_a_target_below_a_quadratics_vertex():
    # u^2/2 never goes below 0 where it increases, and -u^2/2 + 3u never
    # above 4.5; the bracket stops at the vertex instead of running past it
    convex = quadratic_flux(1.0, interval=(0.05, 4.0))
    with pytest.raises(FluxRangeError,
                       match=r"could not bracket w=-0.1: the law increases on \[-?0.0, inf\]"):
        invert_near(convex, -0.1, (0.5, 2.0))
    concave = quadratic_flux(-1.0, 3.0, interval=(0.05, 2.9))
    with pytest.raises(FluxRangeError, match=r"increases on \[-inf, 3.0\]"):
        invert_near(concave, 4.6, (0.5, 2.0))
    # a seed past the vertex is clamped to the increasing side first
    assert invert_near(convex, 0.5, (-3.0, 0.2)) == pytest.approx(1.0, rel=4 * EPS)


def test_invert_near_evaluates_each_bracket_end_once():
    # the bracket search hands the flux image it computed to the inversion;
    # a search that calls invert on the found bracket evaluates both ends twice
    scalar_calls = 0

    def law(u):
        nonlocal scalar_calls
        if not isinstance(u, np.ndarray):
            scalar_calls += 1
        return sin_law(u)

    def invert_near_through_invert(seg, w, seed):
        lo, hi = seed
        width = max(hi - lo, 1e-6 * max(1.0, abs(lo), abs(hi)))
        while True:
            f_lo, f_hi = float(seg(lo)), float(seg(hi))
            slack = 1e-9 * max(1.0, abs(f_lo), abs(f_hi))
            if f_lo - slack <= w <= f_hi + slack:
                return invert(seg, w, (lo, hi))
            if w < f_lo:
                lo -= width
            if w > f_hi:
                hi += width
            width *= 2.0

    seg = custom_flux(law, sin_law_deriv, interval=(-20.0, 20.0))
    rng = np.random.default_rng(29)
    # targets inside the seed's image and up to ten seed widths outside it
    for w in np.concatenate((rng.uniform(0.9, 2.1, 100), rng.uniform(-10.0, 15.0, 100))):
        scalar_calls = 0
        got = invert_near(seg, w, (1.0, 2.0))
        calls = scalar_calls
        scalar_calls = 0
        want = invert_near_through_invert(seg, w, (1.0, 2.0))
        assert same_bits(got, want)
        assert calls == scalar_calls - 2


def test_invariant_interval_single_law():
    model = PiecewiseFlux((), (linear_flux(1.0),))
    assert invariant_interval(model, (0.5, 2.0)) == (0.5, 2.0)


def test_invariant_interval_expands_through_interface():
    # left law u^2/2, right law u: the coupling maps u to u^2/2, so data in
    # [2, 3] feeds values up to 4.5 into the right subdomain
    model = PiecewiseFlux(
        (0.0,), (quadratic_flux(1.0, interval=(1.0, 6.0)), linear_flux(1.0))
    )
    lo, hi = invariant_interval(model, (2.0, 3.0))
    assert lo == 2.0
    assert hi == pytest.approx(4.5, abs=1e-12)


def test_invariant_interval_contracting_map():
    # left law u, right law u^2/2 on positive states: the map is sqrt(2u),
    # which keeps [0.5, 2] inside itself
    model = PiecewiseFlux(
        (0.0,), (linear_flux(1.0), quadratic_flux(1.0, interval=(0.25, 3.0)))
    )
    lo, hi = invariant_interval(model, (0.5, 2.0))
    assert (lo, hi) == (0.5, 2.0)


def test_invariant_interval_three_subdomains_chains():
    # two interfaces: data [2, 3] maps to [2, 4.5] in the middle subdomain,
    # whose range then maps through u/2 into the third, reaching down to 1
    model = PiecewiseFlux(
        (-0.5, 0.5),
        (
            quadratic_flux(1.0, interval=(1.0, 8.0)),
            linear_flux(1.0),
            linear_flux(2.0),
        ),
    )
    lo, hi = invariant_interval(model, (2.0, 3.0))
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(4.5, abs=1e-12)


def test_invariant_interval_divergent_when_image_runs_out():
    # the right law's image is bounded by pi/2, so transporting data at 2
    # through the interface has no solution
    model = PiecewiseFlux(
        (0.0,),
        (
            linear_flux(1.0),
            custom_flux(np.arctan, lambda u: 1.0 / (1.0 + u * u), interval=(-50.0, 50.0)),
        ),
    )
    with pytest.raises(DivergentRangeError, match="outside the flux image"):
        invariant_interval(model, (1.5, 2.0))


@pytest.mark.parametrize("data", [(0.5, 2.5), (0.5, 3.0)])
def test_invariant_interval_is_one_pass_on_a_custom_law(three_interface_model, data):
    # the custom law is inverted iteratively, to machine precision; the
    # range must come out finite, as one left-to-right pass
    segs = three_interface_model.segments
    lo, hi = invariant_interval(three_interface_model, data)
    assert np.isfinite(lo) and np.isfinite(hi)

    r_lo, r_hi = want_lo, want_hi = data
    for left, right in zip(segs, segs[1:]):
        # every right-hand law increases on [0, 9]
        m_lo = bisect_root(lambda v: right(v) - left(r_lo), 0.0, 9.0)
        m_hi = bisect_root(lambda v: right(v) - left(r_hi), 0.0, 9.0)
        r_lo, r_hi = min(data[0], m_lo), max(data[1], m_hi)
        want_lo, want_hi = min(want_lo, r_lo), max(want_hi, r_hi)
    # invert's stop scales its residual by max(1, |w|), never below one, so
    # the check carries an absolute floor; the lower end here is about 0.063
    assert lo == pytest.approx(want_lo, rel=1e-12, abs=1e-12)
    assert hi == pytest.approx(want_hi, rel=1e-12, abs=1e-12)
