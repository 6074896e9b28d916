import numpy as np
import pytest

from conjtamer import (
    Diffeo,
    NonMonotone,
    build_diffeo,
    compose,
    conjugate_action,
    identity,
    invert,
    pwl_diffeo,
    rotation,
)
from conjtamer.diffeo import translations
from conjtamer.errors import DegenerateDerivative, SpaceMismatch
from conjtamer.space import circle, interval

from helpers import log_deriv_sup, mobius_gen, wobble

RNG = np.random.default_rng(20240817)


def smooth(space, scale=0.4, offset=0.0):
    """Random trig log-derivative track, exactly integrated into a diffeo."""
    t = space.track_nodes()
    a, b = RNG.uniform(-scale, scale, size=2)
    samples = a * np.sin(2 * np.pi * t) + b * np.cos(4 * np.pi * t)
    return Diffeo.from_log_deriv(space, samples, offset=offset)


def sup(v):
    return float(np.max(np.abs(v)))


def circ_sup(a, b):
    """Sup of the mod-1 distance (circle values may differ by wraparound)."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return float(np.max(np.minimum(d, 1.0 - d)))


# ---------------------------------------------------------------------------
# closed forms


def test_mobius_values_match_closed_form():
    f = mobius_gen(4096)
    x = np.linspace(0, 1, 1001)
    np.testing.assert_allclose(f(x), x / (2 - x), atol=1e-14)
    np.testing.assert_allclose(f.derivative(x), 2 / (2 - x) ** 2, rtol=1e-13)


def test_rotation_is_exact_and_lifts_by_degree_one():
    sp = circle(512)
    r = rotation(sp, 0.25)
    x = np.linspace(-2, 3, 777)
    np.testing.assert_allclose(r.eval_lift(x), x + 0.25, atol=1e-15)
    assert sup(r.log_derivative(x)) == 0.0


def test_degree_one_lift():
    f = wobble(1024)
    x = np.linspace(0, 1, 301)
    np.testing.assert_allclose(f.eval_lift(x + 1.0), f.eval_lift(x) + 1.0, atol=1e-12)
    np.testing.assert_allclose(f.eval_lift(x - 2.0), f.eval_lift(x) - 2.0, atol=1e-12)


# ---------------------------------------------------------------------------
# group laws


@pytest.mark.parametrize("grid", [512, 4096])
def test_compose_invert_round_trip(grid):
    for f in (mobius_gen(grid), wobble(grid)):
        x = np.linspace(0, 1, 2049)
        assert sup(compose(f, invert(f)).eval_lift(x) - x) <= 1e-8
        assert sup(compose(invert(f), f).eval_lift(x) - x) <= 1e-8


def test_invert_of_invert():
    f = wobble(512)
    x = np.linspace(0, 1, 513)
    assert sup(invert(invert(f)).eval_lift(x) - f.eval_lift(x)) <= 1e-9


def test_associativity_within_grid_tolerance():
    sp = interval(1024)
    f, g, h = smooth(sp), smooth(sp), smooth(sp)
    lip = float(np.exp(max(log_deriv_sup(q) for q in (f, g, h))))
    x = np.linspace(0, 1, 1001)
    lhs = compose(compose(f, g), h)(x)
    rhs = compose(f, compose(g, h))(x)
    assert sup(lhs - rhs) <= 4.0 / sp.grid_size * lip


def test_identity_is_neutral():
    sp = circle(512)
    f = smooth(sp, offset=0.37)
    e = identity(sp)
    x = np.linspace(0, 1, 500)
    assert sup(compose(f, e)(x) - f(x)) <= 1e-12
    assert sup(compose(e, f)(x) - f(x)) <= 1e-12


@pytest.mark.parametrize("text, angle", [("x + 0.3", 0.3), ("0.3 + x", 0.3), ("x - 0.25", 0.75)])
def test_a_translation_formula_is_a_rotation_on_the_circle(text, angle):
    # the plan of the rotation, so that rotations.spec's generators walk as
    # z -> z + c and commute exactly; the interval still refuses the formula
    f = build_diffeo(text, circle(64))
    assert [(p.angle, s) for p, s in f.plan] == [(angle, 1)]
    assert translations([f.as_plan(), rotation(circle(64), 0.1).as_plan()])
    with pytest.raises(NonMonotone):
        build_diffeo(text, interval(64))


def test_chain_rule_against_central_differences():
    f, g = mobius_gen(4096), smooth(interval(4096))
    fg = compose(f, g)
    x = np.linspace(0.05, 0.95, 101)
    h = 1e-5
    fd = (fg.eval_lift(x + h) - fg.eval_lift(x - h)) / (2 * h)
    np.testing.assert_allclose(fg.derivative(x), fd, rtol=1e-3, atol=1e-3)


# ---------------------------------------------------------------------------
# conjugation


def test_conjugation_matches_explicit_composition():
    sp = circle(1024)
    f = wobble(1024)
    phi = compose(rotation(sp, 0.21), build_diffeo("x + 0.07*sin(2*pi*x)", sp))
    conj = conjugate_action(f, phi)
    explicit = compose(compose(phi, f), invert(phi))
    x = np.linspace(0, 1, 733)
    assert circ_sup(conj(x), explicit(x)) <= 1e-8


def test_conjugation_matches_grid_backed_composition():
    # with a grid-only conjugator the two routes agree to interpolation error
    sp = circle(1024)
    f = wobble(1024)
    phi = smooth(sp, offset=0.21)
    conj = conjugate_action(f, phi)
    explicit = compose(compose(phi, f), invert(phi))
    x = np.linspace(0, 1, 733)
    assert circ_sup(conj(x), explicit(x)) <= 10.0 / sp.grid_size


def test_conjugation_log_derivative_cocycle():
    # log D(phi f phi^-1) o phi = u o f + log Df - u,  u = log Dphi
    sp = interval(1024)
    f = mobius_gen(1024)
    phi = smooth(sp)
    conj = conjugate_action(f, phi)
    x = np.linspace(0, 1, 501)
    lhs = conj.log_derivative(phi(x))
    rhs = phi.log_derivative(f(x)) + f.log_derivative(x) - phi.log_derivative(x)
    assert sup(lhs - rhs) <= 1e-8


def test_conjugation_with_grid_backed_map():
    sp = interval(4096)
    # grid-backed conjugator: raw samples only, so interpolation error is in play
    phi = Diffeo.from_log_deriv(sp, smooth(sp).log_deriv.samples)
    g = mobius_gen(4096)
    conj = conjugate_action(g, phi)
    x = np.linspace(0, 1, 257)
    lhs = conj.log_derivative(phi(x))
    rhs = phi.log_derivative(g(x)) + g.log_derivative(x) - phi.log_derivative(x)
    assert sup(lhs - rhs) <= 10.0 / sp.grid_size


# ---------------------------------------------------------------------------
# serialization and validation


def test_payload_round_trip_grid_backed():
    # a map already defined by its track reconstructs byte-stably
    f = smooth(circle(512), offset=0.61)
    p = f.to_payload()
    g = Diffeo.from_payload(p)
    assert g.space == f.space
    assert g.offset == f.offset
    np.testing.assert_array_equal(g.log_deriv.samples, f.log_deriv.samples)
    assert g.to_payload() == p


def test_payload_round_trip_exact_map():
    # exact maps serialize their track; reconstruction is quadrature-accurate
    f = mobius_gen(512)
    g = Diffeo.from_payload(f.to_payload())
    x = np.linspace(0, 1, 400)
    assert sup(g(x) - f(x)) <= 2e-5
    assert sup(g.log_derivative(x) - f.log_derivative(x)) <= 1e-5


def test_pwl_rejects_decreasing_values():
    sp = circle(256)
    with pytest.raises(DegenerateDerivative):
        pwl_diffeo(sp, ((0.0, 0.0), (0.4, 0.6), (0.6, 0.5), (1.0, 1.0)))


@pytest.mark.parametrize(
    "space, points",
    [
        (interval(256), ((0.0, 0.0), (0.5, 0.5), (0.5, 0.7), (1.0, 1.0))),
        (interval(256), ((0.0, 0.0), (0.0, 0.2), (1.0, 1.0))),
        (circle(256), ((0.0, 0.1), (0.3, 0.4), (0.3, 0.6), (1.0, 1.1))),
    ],
)
def test_pwl_rejects_repeated_abscissae(space, points):
    # a repeated x is a jump of the map, not a steep slope
    with pytest.raises(NonMonotone):
        pwl_diffeo(space, points)


def test_pwl_circle_needs_degree_one():
    with pytest.raises(NonMonotone):
        pwl_diffeo(circle(256), ((0.0, 0.1), (1.0, 0.9)))


def test_derivative_floor_enforced():
    sp = interval(256)
    t = sp.track_nodes()
    samples = -25.0 * np.sin(np.pi * t) ** 2  # exp(-25) < 1e-9 in the middle
    with pytest.raises(DegenerateDerivative):
        Diffeo.from_log_deriv(sp, samples)


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatch):
        compose(mobius_gen(256), wobble(256))


def test_build_diffeo_rejects_non_monotone_expression():
    with pytest.raises(NonMonotone):
        build_diffeo("x + 0.5*sin(2*pi*x)", circle(256))
