"""Property-based checks of the algebraic identities the solvers rely on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conjtamer import (
    Diffeo,
    Presentation,
    Word,
    compose,
    conjugate_action,
    flatten_hyperbolic,
    invert,
    log_density_normalizer,
    word_realize,
)
from conjtamer.space import circle, interval

from helpers import conj_rotation_action, log_deriv_sup, mobius_action, rigid_rotations

SP_I = interval(256)
SP_C = circle(256)
SP_C_FINE = circle(1024)
X = np.linspace(0.0, 1.0, 201)

amplitudes = st.tuples(
    st.floats(-0.45, 0.45, allow_nan=False),
    st.floats(-0.45, 0.45, allow_nan=False),
)
offsets = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)
letters = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from([-1, 1])),
    max_size=8,
).map(tuple)


def trig_diffeo(space, amps, offset=0.0):
    a, b = amps
    t = space.track_nodes()
    samples = a * np.sin(2 * np.pi * t) + b * np.cos(4 * np.pi * t)
    return Diffeo.from_log_deriv(space, samples, offset=offset)


@settings(deadline=None, max_examples=40)
@given(amplitudes, offsets)
def test_inversion_round_trip(amps, offset):
    # lifts compose to the identity plus a constant integer; the grid-backed
    # inverse re-interpolates, so the residual scales like h^2
    f = trig_diffeo(SP_C_FINE, amps, offset)
    finv = invert(f)
    for a, b in ((f, finv), (finv, f)):
        d = b.eval_lift(a.eval_lift(X)) - X
        k = round(float(np.median(d)))
        assert float(np.max(np.abs(d - k))) <= 1e-5


@settings(deadline=None, max_examples=25)
@given(amplitudes, amplitudes, amplitudes)
def test_composition_is_associative(a1, a2, a3):
    f, g, h = (trig_diffeo(SP_I, a) for a in (a1, a2, a3))
    lip = float(np.exp(max(log_deriv_sup(q) for q in (f, g, h))))
    lhs = compose(compose(f, g), h).eval_lift(X)
    rhs = compose(f, compose(g, h)).eval_lift(X)
    assert float(np.max(np.abs(lhs - rhs))) <= 4.0 / SP_I.grid_size * lip


@settings(deadline=None, max_examples=25)
@given(amplitudes, amplitudes)
def test_chain_rule(a1, a2):
    # exact at the nodes where the composed track is sampled
    f, g = trig_diffeo(SP_I, a1), trig_diffeo(SP_I, a2)
    fg = compose(f, g)
    nodes = SP_I.track_nodes()
    np.testing.assert_allclose(
        fg.log_derivative(nodes),
        f.log_derivative(g.eval_lift(nodes)) + g.log_derivative(nodes),
        atol=1e-12,
    )


@settings(deadline=None, max_examples=25)
@given(amplitudes)
def test_conjugation_preserves_fixed_point_multiplier(amps):
    # smooth conjugation cannot change Df at a fixed point
    f = mobius_action(256).gens[0]
    phi = trig_diffeo(SP_I, amps)
    conj = conjugate_action(f, phi)
    d0 = float(conj.derivative(np.array([0.0]))[0])
    assert d0 == pytest.approx(0.5, abs=1e-4)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([2.0, 3.0, 4.0, 6.0, 8.0]), st.floats(1e-5, 1e-3))
def test_flattening_limit_law(alpha, t):
    flat, _, _ = flatten_hyperbolic(mobius_action(512), alpha=alpha)
    measured = float(flat.gens[0].eval_lift(np.array([t]))[0]) / t
    assert measured == pytest.approx(2.0 ** (-1.0 / alpha), abs=1e-4)


@settings(deadline=None, max_examples=60)
@given(letters)
def test_normal_form_idempotent(raw):
    for p in (Presentation.zd(2, ("a", "b")), Presentation.heisenberg()):
        w = Word(tuple(ltr for ltr in raw if ltr[0] < p.rank))
        nf = p.normal_form(w)
        assert p.normal_form(nf).letters == nf.letters


@settings(deadline=None, max_examples=30)
@given(letters, letters)
def test_realization_is_a_homomorphism(l1, l2):
    act = rigid_rotations(256)
    w1, w2 = Word(l1), Word(l2)
    lhs = word_realize(act, w1 * w2)
    rhs = compose(word_realize(act, w1), word_realize(act, w2))
    assert float(np.max(np.abs(lhs.eval_lift(X) - rhs.eval_lift(X)))) <= 1e-10


@settings(deadline=None, max_examples=30)
@given(st.floats(0.0, 1.0, allow_nan=False))
def test_blended_density_integral_at_most_one(s):
    from conjtamer import birkhoff_solution

    act = conj_rotation_action(256)
    u4 = birkhoff_solution(act, 4).u.samples
    u5 = birkhoff_solution(act, 5).u.samples
    c = log_density_normalizer(act.space, (1 - s) * u4 + s * u5)
    assert c >= -1e-12


@settings(deadline=None, max_examples=30)
@given(amplitudes, offsets)
def test_payload_round_trip(amps, offset):
    f = trig_diffeo(SP_C, amps, offset)
    p = f.to_payload()
    g = Diffeo.from_payload(p)
    np.testing.assert_array_equal(g.log_deriv.samples, f.log_deriv.samples)
    # values are renormalized by a quadrature total of 1±eps on reload
    np.testing.assert_allclose(g.values, f.values, atol=2e-15)
    assert g.to_payload() == p
