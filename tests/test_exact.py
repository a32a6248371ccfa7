import numpy as np
import pytest

from discflux import (
    PiecewiseFlux,
    UnsupportedOracleError,
    ValidityError,
    custom_flux,
    exact_linear_advection,
    exact_two_flux_riemann,
    linear_flux,
    quadratic_flux,
)

TRANSPORT_THEN_BURGERS = PiecewiseFlux(
    (0.0,), (linear_flux(1.0), quadratic_flux(1.0, interval=(0.25, 3.0)))
)
BURGERS_THEN_TRANSPORT = PiecewiseFlux(
    (0.0,), (quadratic_flux(1.0, interval=(0.5, 6.0)), linear_flux(1.0))
)


def test_linear_advection_translates():
    sol = exact_linear_advection(2.0, lambda x: np.sin(x))
    x = np.linspace(-3.0, 3.0, 41)
    assert np.allclose(sol(x, 0.25), np.sin(x - 0.5))
    assert sol(1.0, 0.0) == pytest.approx(np.sin(1.0))


@pytest.mark.parametrize("speed", [np.inf, np.nan])
def test_linear_advection_rejects_a_non_finite_speed(speed):
    with pytest.raises(ValueError, match=f"speed must be finite, got {speed}"):
        exact_linear_advection(speed, np.sin)


def test_validity_window():
    sol = exact_linear_advection(1.0, lambda x: np.asarray(x), valid_until=0.5)
    sol(0.0, 0.5)  # boundary of the window is fine
    with pytest.raises(ValidityError, match="validity window"):
        sol(0.0, 0.6)
    with pytest.raises(ValidityError):
        sol(0.0, -0.1)
    with pytest.raises(ValidityError):
        sol(0.0, np.nan)


def test_scalar_input_gives_scalar_output():
    sol = exact_linear_advection(1.0, lambda x: np.asarray(x) ** 2)
    out = sol(2.0, 1.0)
    assert isinstance(out, float) and out == 1.0
    arr = sol(np.array([2.0, 3.0]), 1.0)
    assert arr.shape == (2,)


def test_two_flux_riemann_before_the_interface():
    # upward jump carried at unit speed toward the interface; the right
    # subdomain stays at its continuation value until the jump arrives
    sol = exact_two_flux_riemann(TRANSPORT_THEN_BURGERS, 0.5, 2.0, -0.5)
    x = np.array([-0.9, -0.3, -0.1, 0.2, 0.8])
    assert np.allclose(sol(x, 0.3), [0.5, 0.5, 2.0, 2.0, 2.0])
    assert np.allclose(sol(x, 0.0), [0.5, 2.0, 2.0, 2.0, 2.0])


def test_two_flux_riemann_after_the_interface():
    # once the jump reaches x=0 at t=0.5 it re-emerges as a rarefaction of
    # the convex law, anchored at the interface
    sol = exact_two_flux_riemann(TRANSPORT_THEN_BURGERS, 0.5, 2.0, -0.5)
    t = 0.7
    assert sol(-0.1, t) == pytest.approx(0.5)
    assert sol(0.1, t) == pytest.approx(1.0)   # interface trace: u^2/2 = 0.5
    assert sol(0.3, t) == pytest.approx(1.5)   # inside the fan, u = x/(t-0.5)
    assert sol(0.5, t) == pytest.approx(2.0)   # beyond the fan head
    assert np.isinf(sol.valid_until)


def test_two_flux_riemann_flux_continuity():
    sol = exact_two_flux_riemann(TRANSPORT_THEN_BURGERS, 0.5, 2.0, -0.5)
    g, f = TRANSPORT_THEN_BURGERS.segments
    eps = 1e-9
    for t in (0.1, 0.45, 0.6, 1.3):
        left = float(g(sol(-eps, t)))
        right = float(f(sol(+eps, t)))
        assert right == pytest.approx(left, abs=1e-7)


def test_two_flux_riemann_fan_touching_interface_limits_validity():
    # increasing jump in the left convex law spreads as a fan whose head
    # travels at speed two; past the touch time the construction is silent
    sol = exact_two_flux_riemann(BURGERS_THEN_TRANSPORT, 1.0, 2.0, -0.5)
    assert sol.valid_until == pytest.approx(0.25)
    # at t=0.2 the fan spans characteristic speeds [1, 2]: left state below
    # the tail ray, u = (x + 0.5)/t inside, right state beyond the head
    x = np.array([-0.4, -0.2, 0.3])
    assert np.allclose(sol(x, 0.2), [1.0, 1.5, 2.0])
    with pytest.raises(ValidityError):
        sol(x, 0.3)


def test_two_flux_riemann_downward_jump_is_a_shock():
    sol = exact_two_flux_riemann(BURGERS_THEN_TRANSPORT, 3.0, 2.0, -0.5)
    # chord speed (f(3) - f(2))/(3 - 2) = 2.5
    t = 0.1
    assert sol(-0.5 + 0.25 - 0.01, t) == pytest.approx(3.0)
    assert sol(-0.5 + 0.25 + 0.01, t) == pytest.approx(2.0)
    # the shock reaches the interface at t = 0.2 and re-emerges in the
    # linear law as a contact carrying the matched trace value 4.5; nothing
    # interacts after that, so the window stays open
    assert np.isinf(sol.valid_until)
    assert sol(-0.1, 0.3) == pytest.approx(3.0)
    assert sol(0.05, 0.3) == pytest.approx(4.5)
    assert sol(0.2, 0.3) == pytest.approx(2.0)
    # a constant datum sends no wave of its own; the interface alone emits a
    # shock from the continuation value sqrt(2) down to 1, at chord speed
    # (1 - 1/2)/(sqrt(2) - 1)
    sol = exact_two_flux_riemann(TRANSPORT_THEN_BURGERS, 1.0, 1.0, -0.5)
    assert np.isinf(sol.valid_until)
    head = 0.3 * 0.5 / (np.sqrt(2.0) - 1.0)
    assert head == pytest.approx(0.3621, abs=1e-4)
    x = np.array([-0.6, -0.01, 0.01, head - 0.01, head + 0.01, 0.9])
    assert np.allclose(sol(x, 0.3), [1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), 1.0, 1.0])


def test_two_flux_riemann_collision_closes_window():
    # both laws convex, mismatched continuation: the interface launches a
    # startup shock at t=0, and the datum shock's arrival wave later catches
    # it; the window must close exactly at the catch-up time
    model = PiecewiseFlux(
        (0.0,),
        (quadratic_flux(1.0, interval=(2.5, 9.0)),
         quadratic_flux(0.5, interval=(2.5, 9.0))),
    )
    sol = exact_two_flux_riemann(model, 4.0, 3.0, -0.5)
    t_hit = 0.5 / 3.5  # datum shock speed (8 - 4.5)/(4 - 3)
    s_start = (4.5 - 2.25) / (np.sqrt(18.0) - 3.0)
    s_arrival = (8.0 - 4.5) / (np.sqrt(32.0) - np.sqrt(18.0))
    expected = s_arrival * t_hit / (s_arrival - s_start)
    assert sol.valid_until == pytest.approx(expected, rel=1e-12)
    # three right-subdomain plateaus while both waves are in flight
    t = 0.3
    assert sol(-0.1, t) == pytest.approx(4.0)
    assert sol(0.2, t) == pytest.approx(np.sqrt(32.0))
    assert sol(0.45, t) == pytest.approx(np.sqrt(18.0))
    assert sol(0.6, t) == pytest.approx(3.0)


def test_two_flux_riemann_with_a_convex_custom_law_matches_its_quadratic():
    # Burgers given as a custom law takes the bisection fan and the sampled
    # convexity check: through the fan, the shock and the collision it
    # agrees with the quadratic's closed form within 1e-12
    burgers = custom_flux(lambda u: 0.5 * u * u, lambda u: np.asarray(u), interval=(0.25, 3.0))
    custom = PiecewiseFlux((0.0,), (linear_flux(1.0), burgers))
    x = np.linspace(-1.0, 2.0, 301)
    for u_left, u_right in ((0.5, 2.0), (2.0, 0.5)):
        want = exact_two_flux_riemann(TRANSPORT_THEN_BURGERS, u_left, u_right, -0.5)
        got = exact_two_flux_riemann(custom, u_left, u_right, -0.5)
        assert got.valid_until == pytest.approx(want.valid_until, rel=1e-12, abs=0.0)
        t_last = min(want.valid_until, 1.5)
        for t in np.linspace(0.0, t_last, 7):
            assert np.max(np.abs(got(x, t) - want(x, t))) <= 1e-12


def test_oracle_requires_one_interface():
    single = PiecewiseFlux((), (linear_flux(1.0),))
    with pytest.raises(UnsupportedOracleError, match="exactly one interface"):
        exact_two_flux_riemann(single, 1.0, 2.0, -0.5)


def test_oracle_requires_jump_left_of_interface():
    with pytest.raises(ValueError, match="left of the interface"):
        exact_two_flux_riemann(TRANSPORT_THEN_BURGERS, 0.5, 2.0, 0.5)


def test_oracle_rejects_concave_laws():
    model = PiecewiseFlux(
        (0.0,), (linear_flux(1.0), quadratic_flux(-1.0, 10.0, interval=(0.0, 5.0)))
    )
    with pytest.raises(UnsupportedOracleError, match="concave"):
        exact_two_flux_riemann(model, 1.0, 2.0, -0.5)
