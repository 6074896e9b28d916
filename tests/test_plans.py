"""Composition plans: the free reduction of compose, invert and
conjugate_action, and plan evaluators against the closure-chain oracle."""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conjtamer import (
    Diffeo,
    birkhoff_solution,
    build_action,
    build_diffeo,
    compose,
    conjugate_action,
    conjugated_rotation,
    deroin_cdf,
    identity,
    invert,
    load_action_spec,
    parse_action_spec,
    pwl_diffeo,
    rotation,
)
from conjtamer.diffeo import WalkState, iterate
from conjtamer.pipeline import dumps_canonical
from conjtamer.space import circle, interval

from helpers import (
    GOLDEN,
    SILVER,
    assert_close,
    closure_compose,
    closure_conjugate,
    closure_invert,
    closure_leaf,
    wobble,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"

# breakpoints away from the floats hypothesis favours; the circle map has
# equal first and last slopes, so x = 0 is no corner either
PWL_CIRCLE = ((0.0, 0.05), (0.2137, 0.30644), (0.6071, 0.57852), (1.0, 1.05))
PWL_INTERVAL = ((0.0, 0.0), (0.3137, 0.4719), (1.0, 1.0))


def angles(plan):
    return [p.angle for p, _ in plan if p.angle is not None]


# ---------------------------------------------------------------------------
# Reduction.


def test_compose_with_inverse_is_the_empty_plan():
    h = wobble(256)
    assert compose(h, invert(h)).plan == ()
    assert compose(invert(h), h).plan == ()
    g = conjugated_rotation(circle(256), h, GOLDEN)
    assert compose(g, invert(g)).plan == ()
    # a map given by its log-derivative track is one primitive, and cancels too
    t = Diffeo.from_log_deriv(circle(256), h.log_deriv.samples, h.offset)
    assert compose(t, invert(t)).plan == ()
    assert compose(invert(t), t).plan == ()


def test_adjacent_rotations_merge():
    sp = circle(256)
    r = compose(rotation(sp, 0.25), rotation(sp, 0.5))
    assert len(r.plan) == 1 and angles(r.plan) == [0.75]
    assert compose(rotation(sp, 0.25), rotation(sp, -0.25)).plan == ()


def test_conjugated_rotations_cancel_their_conjugator():
    sp = circle(256)
    h = wobble(256)
    g1 = conjugated_rotation(sp, h, GOLDEN)
    g2 = conjugated_rotation(sp, h, 0.125)
    (head, s), *_ = g1.plan
    assert s == 1 and g1.plan[-1] == (head, -1)
    plan = compose(g1, g2).plan
    assert len(plan) == 3 and plan[0] == (head, 1) and plan[2] == (head, -1)
    assert angles(plan) == [GOLDEN + 0.125]


def test_a3_z2_conj_generators_share_their_h_primitive():
    action = build_action(load_action_spec(str(SPECS / "a3_z2.spec"))._replace(grid_size=256))
    g1, g2 = action.gens
    assert g1.plan[0][0] is g2.plan[0][0]
    assert g1.plan[-1] == (g1.plan[0][0], -1)


def test_rotations_that_cancel_merge_to_the_empty_plan():
    # merged letter by letter, these angles sum to -2.2e-16, not 0; the
    # f(0) in [0, 1) frame would then lift the map to x + 1 - 2.2e-16
    sp = circle(256)
    word = [SILVER, SILVER, -GOLDEN, -GOLDEN, GOLDEN, GOLDEN, -SILVER, -SILVER]
    f = rotation(sp, 0.0)
    for angle in word:
        f = compose(f, rotation(sp, angle))
    assert f.plan == () and f.offset == 0.0


def test_bare_variable_is_the_identity_plan():
    # c = x adds nothing to a walk: a walk through it stays in h's
    # coordinates, as if the letter were not there
    sp = circle(256)
    c = build_diffeo("x", sp)
    assert c.plan == ()
    g = conjugated_rotation(sp, wobble(256), GOLDEN)
    walk = WalkState.start(sp.nodes, [c.as_plan(), g.as_plan()])
    assert walk.head == g.plan[:1]
    assert walk.step(c.as_plan()) is walk


def test_integer_shift_joins_the_rotation():
    # g(0) lands in [1, 2): the shift back into [0, 1) folds into the angle,
    # so h stays at both ends of the plan
    sp = circle(256)
    g = conjugated_rotation(sp, wobble(256), 1.375)
    assert 0.0 <= g.offset < 1.0
    assert len(g.plan) == 3 and angles(g.plan) == [0.375]


def test_integer_shift_keeps_the_conjugating_head():
    # phi∘f∘phi⁻¹ with f(0) in [0.995, 1): the conjugate's lift at 0 lands
    # in [1, 2) and the shift back sits mid-plan, after phi, so walks keep
    # phi as their head
    sp = circle(512)
    f = build_diffeo("x + 0.995 + 0.05*sin(2*pi*x)/(2*pi)", sp)
    phi = Diffeo.from_log_deriv(sp, 0.3 * np.sin(2 * np.pi * sp.track_nodes()), 0.7)
    g = conjugate_action(f, phi)
    assert angles(g.plan) == [-1.0]
    assert WalkState.start(sp.nodes, (g.plan,)).head == g.plan[:1]
    x, ld = iterate(g, sp.nodes, 50)
    y, acc = sp.nodes, 0.0
    for _ in range(50):
        y, d = g.apply(y)
        acc = acc + d
    assert np.max(np.abs(x - y)) < 1e-12 and np.max(np.abs(ld - acc)) < 1e-12


# ---------------------------------------------------------------------------
# Plans against the closure-chain oracle, on random words.


@lru_cache(maxsize=None)
def generators(kind):
    """(diffeo, closure oracle) pairs: conj, pwl, Möbius and rotation maps."""
    if kind == "circle":
        sp = circle(256)
        h = wobble(256)
        h_o = closure_leaf(h)
        pairs = [
            (conjugated_rotation(sp, h, GOLDEN),
             closure_conjugate(closure_leaf(rotation(sp, GOLDEN)), h_o)),
            (pwl_diffeo(sp, PWL_CIRCLE), None),
            (rotation(sp, 0.3), None),
            (h, h_o),
        ]
    else:
        sp = interval(256)
        pairs = [
            (build_diffeo("mobius(1, 0, -1, 2)", sp), None),
            (pwl_diffeo(sp, PWL_INTERVAL), None),
            (build_diffeo("x + 0.05*sin(2*pi*x)", sp), None),
        ]
    return tuple((f, o if o is not None else closure_leaf(f)) for f, o in pairs)


def realize(kind, word):
    f, oracle = None, None
    for i, s in word:
        g, g_o = generators(kind)[i]
        if s < 0:
            g, g_o = invert(g), closure_invert(g_o)
        f = g if f is None else compose(f, g)
        oracle = g_o if oracle is None else closure_compose(oracle, g_o)
    return f, oracle


@st.composite
def words(draw):
    kind = draw(st.sampled_from(["circle", "interval"]))
    n = len(generators(kind))
    word = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([1, -1])),
                 min_size=1, max_size=4)
    )
    lo, hi = (-1.5, 2.5) if kind == "circle" else (0.0, 1.0)
    x = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=5))
    return kind, word, np.array(x)


def assert_same_lift(v, v_o, kind):
    # where f(0) is within rounding of an integer, the two normalizations
    # may pick lifts one apart
    if kind == "circle":
        v = v - np.round(v - v_o)
    assert_close(v, v_o)


@settings(deadline=None, max_examples=60)
@given(case=words())
def test_plan_jets_and_inverses_match_the_closure_oracle(case):
    kind, word, x = case
    f, oracle = realize(kind, word)
    v, ld = f.jet(x)
    v_o, ld_o = oracle.jet(x)
    assert_same_lift(v, v_o, kind)
    assert_close(ld, ld_o)
    vi, ldi = f.inverse_jet(x)
    assert_same_lift(vi, oracle.inverse(x), kind)
    assert_close(ldi, closure_invert(oracle).jet(x)[1])


@settings(deadline=None, max_examples=20)
@given(case=words())
def test_conjugate_action_matches_the_closure_oracle(case):
    kind, word, x = case
    f, oracle = realize(kind, word)
    phi, phi_o = generators(kind)[1]
    v, ld = conjugate_action(f, phi).jet(x)
    v_o, ld_o = closure_conjugate(oracle, phi_o).jet(x)
    assert_same_lift(v, v_o, kind)
    assert_close(ld, ld_o)


def test_mobius_inverse_is_closed_form():
    f = build_diffeo("mobius(1, 0, -1, 2)", interval(256))
    y = np.linspace(0.0, 1.0, 11)
    x, ld = f.inverse_jet(y)
    np.testing.assert_allclose(x, 2.0 * y / (1.0 + y), rtol=0, atol=1e-15)
    np.testing.assert_allclose(ld, np.log(2.0 / (1.0 + y) ** 2), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Action.conjugated walks the entries that every plan ends with once.


def _a3_z2(tmp_path):
    # g1 and g2 share the primitive of h, so h⁻¹∘phi⁻¹ is walked once
    action = build_action(load_action_spec(str(SPECS / "a3_z2.spec"))._replace(grid_size=256))
    u = birkhoff_solution(action, 3).u
    return action, Diffeo.from_log_deriv(u.space, u.samples)


def _heisenberg(tmp_path):
    # c = x has an empty plan: phi·phi⁻¹ cancels and c stays the identity
    action = build_action(load_action_spec(str(SPECS / "heisenberg_proj.spec"))._replace(grid_size=256))
    u = 0.3 * np.sin(2 * np.pi * action.space.track_nodes())
    return action, Diffeo.from_log_deriv(action.space, u)


def _a4_deroin(tmp_path):
    # one generator, conjugated by a map whose inverse is a Newton solve
    action = build_action(load_action_spec(str(SPECS / "a4.spec"))._replace(grid_size=256))
    return action, deroin_cdf(action, 0.9, 8).conjugator


def _grid_only(tmp_path):
    # generators loaded from a payload file are one log-density primitive each
    g = conjugated_rotation(circle(256), "x + 0.1*sin(2*pi*x)", GOLDEN)
    (tmp_path / "g.json").write_text(dumps_canonical(g.to_payload()))
    text = "[space]\nkind = circle\ngrid_size = 256\n\n[group]\ntype = abelian\n" \
        "generators = g1 g2\n\n[generators]\ng1 = @g.json\ng2 = @g.json\n"
    action = build_action(parse_action_spec(text), base_dir=str(tmp_path))
    assert all(len(g.plan) == 1 and g.plan[0][0].angle is None for g in action.gens)
    u = 0.2 * np.cos(2 * np.pi * action.space.track_nodes())
    return action, Diffeo.from_log_deriv(action.space, u)


def _plan_key(plan):
    # merged rotations are new primitives: compare them by angle
    return [(p.angle if p.angle is not None else id(p), s) for p, s in plan]


def _assert_same_map(f, g):
    assert f.values.tobytes() == g.values.tobytes()
    assert f.log_deriv.samples.tobytes() == g.log_deriv.samples.tobytes()
    assert _plan_key(f.plan) == _plan_key(g.plan)


@pytest.mark.parametrize(
    "make", [_a3_z2, _heisenberg, _a4_deroin, _grid_only],
    ids=["a3_z2", "heisenberg_proj", "a4-deroin", "grid-only"],
)
def test_conjugated_action_matches_each_conjugate_byte_for_byte(make, tmp_path):
    action, phi = make(tmp_path)
    conjugated = action.conjugated(phi)
    for g, cg in zip(action.gens, conjugated.gens):
        _assert_same_map(cg, conjugate_action(g, phi))
        # the walk of the whole plan phi·g·phi⁻¹, as before the shared walk
        plan = phi.as_plan() + g.as_plan() + phi.as_plan(-1)
        _assert_same_map(cg, Diffeo.from_plan(action.space, plan))
        if g.plan == ():
            _assert_same_map(cg, identity(action.space))
