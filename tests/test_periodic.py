import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conjtamer import (
    InfiniteHyperbolicSet,
    NonConvergence,
    NotCircle,
    SizeOverflow,
    build_diffeo,
    detect_resilient,
    find_periodic_points,
    flatten_hyperbolic,
    identity,
    orbit_multiplier,
    rotation,
    rotation_number,
)
from conjtamer import Action, Diffeo, Presentation, build_action, load_action_spec
from conjtamer.cli import main
from conjtamer.diffeo import Primitive, WalkState, iterate
import conjtamer.diffeo as diffeo_mod
import conjtamer.periodic as periodic_mod
from conjtamer.periodic import (
    FlatteningMap,
    _Bridge,
    _can_chain,
    _distinct_words,
    _first_chain,
    flatten_conjugate,
)
from conjtamer.space import circle, interval
from conjtamer.words import Word

from helpers import (
    GOLDEN,
    c1_refinement_ratio,
    conj_rotation_action,
    conj_rotation_z2,
    dense_first_chain,
    interval_pingpong_action,
    mobius_action,
    pingpong_action,
    product_distinct_words,
    rigid_rotations,
    wobble,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"

LOG2 = float(np.log(2.0))


# ---------------------------------------------------------------------------
# periodic points


def test_mobius_fixed_points_and_multipliers():
    orbits = find_periodic_points(mobius_action(1024).gens[0], 3)
    assert [(o.points, o.period) for o in orbits] == [((0.0,), 1), ((1.0,), 1)]
    assert orbits[0].multiplier == pytest.approx(0.5, abs=1e-9)
    assert orbits[1].multiplier == pytest.approx(2.0, abs=1e-9)
    assert not orbits[0].parabolic and not orbits[1].parabolic


def test_interval_inventory_walks_fixed_points_only(monkeypatch):
    # an increasing map of [0, 1] has no orbit of least period above 1: the
    # nodes walk one iterate whatever n_max is
    f = mobius_action(1024).gens[0]
    walked = []
    real = periodic_mod.iterates
    monkeypatch.setattr(
        periodic_mod, "iterates", lambda g, x, n: walked.append((np.size(x), n)) or real(g, x, n)
    )
    assert find_periodic_points(f, 3) == find_periodic_points(f, 1)
    assert [n for size, n in walked if size == f.space.grid_size + 1] == [1, 1]


def test_identity_like_powers_are_excluded():
    sp = circle(256)
    assert find_periodic_points(identity(sp), 2) == []
    # R_{1/3}: every point has period 3, so the inventory stays empty
    assert find_periodic_points(rotation(sp, 1.0 / 3.0), 4) == []


def test_irrational_rotation_has_no_periodic_points():
    assert find_periodic_points(conj_rotation_action(512).gens[0], 3) == []


def test_interior_fixed_points_of_circle_map():
    sp = circle(1024)
    f = build_diffeo("x + 0.03*sin(2*pi*x)", sp)
    orbits = find_periodic_points(f, 2)
    pts = sorted(p for o in orbits for p in o.points)
    assert pts == pytest.approx([0.0, 0.5], abs=1e-9)
    mults = {round(p, 6): o.multiplier for o in orbits for p in o.points}
    assert mults[0.0] == pytest.approx(1 + 0.06 * np.pi, abs=1e-6)
    assert mults[0.5] == pytest.approx(1 - 0.06 * np.pi, abs=1e-6)


def test_orbits_of_least_period_four():
    # the map of test_pipeline's PERIOD_FOUR spec commutes with R_1/4 and
    # moves x = k/8 by exactly 1/4: each root of f^4 - id - 1 is walked into
    # its orbit, in forward order from its smallest point, and the roots met
    # again on that orbit add none
    f = build_diffeo("x + 0.25 + 0.005*sin(8*pi*x)", circle(512))
    assert find_periodic_points(f, 3) == []
    orbits = find_periodic_points(f, 4)
    assert [o.period for o in orbits] == [4, 4]
    assert orbits[0].points == pytest.approx((0.0, 0.25, 0.5, 0.75), abs=1e-12)
    assert orbits[1].points == pytest.approx((0.125, 0.375, 0.625, 0.875), abs=1e-12)
    assert orbits[0].log_multiplier == pytest.approx(0.473, abs=1e-3)
    assert orbits[1].log_multiplier == pytest.approx(-0.537, abs=1e-3)


def test_bisection_raises_when_a_bracket_stays_open():
    # a displacement jumping across zero just above x = 0: after 60 halvings
    # the bracket is still far wider than its ulps, and |dm| stays 0.1
    class Jump:
        space = interval(16)

        def as_plan(self):
            jet = lambda x: (x + np.where(x > 1e-300, 0.1, -0.1), np.zeros_like(x))
            return ((Primitive(False, jet), 1),)

    with pytest.raises(NonConvergence):
        find_periodic_points(Jump(), 1)


@pytest.mark.parametrize(
    "measure",
    [lambda g: find_periodic_points(g, 3), lambda g: rotation_number(g, iters=1000)],
    ids=["find_periodic_points", "rotation_number"],
)
def test_orbit_walk_solves_h_once(monkeypatch, measure):
    # g = h R h^-1 walks as z -> z + alpha after one Newton inverse of h:
    # the nodes' orbit is read at periods 1..3 (no root, no bisection), the
    # base points' orbit after 1000 steps; iterating g.eval_lift would solve
    # 1 + 2 + 3 and 1000 times
    g = conj_rotation_action(256).gens[0]
    calls = []
    invert01 = Diffeo._invert01

    def counted(self, y):
        calls.append(np.size(y))
        return invert01(self, y)

    monkeypatch.setattr(Diffeo, "_invert01", counted)
    measure(g)
    assert len(calls) == 1


def _conjugated_generator():
    """g1 of conj_rotation_z2(512) conjugated by a log-density primitive phi:
    the plan phi·h·R·h⁻¹·phi⁻¹, with h a Newton-inverted expression."""
    sp = circle(512)
    phi = Diffeo.from_log_deriv(sp, 0.3 * np.sin(2 * np.pi * sp.track_nodes()), 0.1)
    return conj_rotation_z2(512).gens[0], conj_rotation_z2(512).conjugated(phi).gens[0], phi


def test_conjugated_orbit_walk_solves_h_once(monkeypatch):
    # phi·h·R·h⁻¹·phi⁻¹ walks as z -> z + alpha in the coordinates of the
    # head phi·h: one Newton solve of h for the whole walk, not one per step
    _, g, _ = _conjugated_generator()
    calls = []
    newton = diffeo_mod._newton

    def counted(*args):
        calls.append(1)
        return newton(*args)

    monkeypatch.setattr(diffeo_mod, "_newton", counted)
    rho, _ = rotation_number(g, iters=2000)
    assert len(calls) == 1
    assert rho == pytest.approx(GOLDEN, abs=1e-3)
    assert WalkState.start(np.zeros(1), [g.as_plan()]).head == g.plan[:2]


def test_conjugated_iterates_are_conjugate_iterates():
    # phi g^n phi⁻¹ = (phi g phi⁻¹)^n, through plain map evaluation of phi,
    # phi⁻¹ and the chain rule; no walk shares a head with the other
    g, cg, phi = _conjugated_generator()
    x = np.linspace(0.0, 1.0, 17)
    y, ld_y = phi.inverse_jet(x)
    for n in range(1, 51):
        gy, ld_g = iterate(g, y, n)
        v, ld_v = phi.jet(gy)
        got, ld = iterate(cg, x, n)
        np.testing.assert_allclose(got, v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ld, ld_y + ld_g + ld_v, rtol=0, atol=1e-12)


def test_orbit_multiplier_chain_rule():
    f = mobius_action(512).gens[0]
    assert orbit_multiplier(f, 0.0, 1) == pytest.approx(0.5, abs=1e-12)
    assert orbit_multiplier(f, 1.0, 2) == pytest.approx(4.0, abs=1e-9)


# ---------------------------------------------------------------------------
# rotation numbers


def test_rotation_number_rigid():
    rho, err = rotation_number(rotation(circle(512), 0.25), iters=1000)
    assert rho == pytest.approx(0.25, abs=1e-12)
    assert err == pytest.approx(1e-3, abs=1e-12)


def test_rotation_number_with_fixed_point_is_zero():
    f = build_diffeo("x + 0.03*sin(2*pi*x)", circle(512))
    rho, err = rotation_number(f, iters=4096)
    assert abs(rho) <= err


def test_rotation_number_is_conjugation_invariant():
    g = conj_rotation_action(1024).gens[0]
    rho, _ = rotation_number(g, iters=10_000)
    assert rho == pytest.approx(GOLDEN, abs=1e-4)


def test_rotation_number_needs_circle():
    with pytest.raises(NotCircle):
        rotation_number(mobius_action(256).gens[0], iters=500)


# ---------------------------------------------------------------------------
# flattening


def test_flatten_mobius_with_delta():
    act = mobius_action(1024)
    flat, psi, report = flatten_hyperbolic(act, delta=0.1)
    assert report.alpha == pytest.approx(LOG2 / 0.1, abs=1e-12)
    assert report.flagged == (0.0, 1.0)
    assert report.log_multipliers_before[0.0] == pytest.approx(-LOG2, abs=1e-9)
    assert report.log_multipliers_after[0.0] == pytest.approx(-0.1, abs=1e-9)
    assert report.log_multipliers_after[1.0] == pytest.approx(0.1, abs=1e-9)


@pytest.mark.parametrize("alpha", [2.0, 4.0, 8.0])
def test_flattening_limit_law(alpha):
    # the tamed multiplier at 0 is (1/2)^(1/alpha), measured by differencing
    act = mobius_action(1024)
    flat, psi, report = flatten_hyperbolic(act, alpha=alpha)
    g = flat.gens[0]
    t = 1e-4
    measured = float(g.eval_lift(np.array([t]))[0]) / t
    assert measured == pytest.approx(2.0 ** (-1.0 / alpha), abs=1e-4)


def test_flatten_parabolic_only_returns_identity():
    act = conj_rotation_action(512)
    flat, psi, report = flatten_hyperbolic(act, delta=0.1)
    assert report.alpha == 1.0
    assert report.flagged == ()
    x = np.linspace(0, 1, 200)
    for sign in (1, -1):
        assert float(np.max(np.abs(psi.prim.apply(x, sign)[0] - x))) == 0.0
    assert flat is act


def test_flatten_cap():
    with pytest.raises(InfiniteHyperbolicSet):
        flatten_hyperbolic(mobius_action(512), delta=0.1, cap=1)


def test_flattened_map_is_c1_on_the_grid():
    act = mobius_action(4096)
    flat, _, _ = flatten_hyperbolic(act, delta=0.1)
    track = np.asarray(flat.gens[0].log_deriv.samples)
    assert np.all(np.isfinite(track))
    # refinement ratio near 2 certifies a continuous derivative
    assert 1.7 <= c1_refinement_ratio(flat.gens[0]) <= 2.3


def test_refinement_ratio_separates_smooth_from_corner():
    assert 1.9 <= c1_refinement_ratio(wobble(1024)) <= 2.05
    corner = pingpong_action(1024).gens[0]
    assert c1_refinement_ratio(corner) <= 1.2


def test_flatten_circle_map_with_a_flagged_point_on_the_fold():
    # the germs of the flagged point 0 straddle the fold of the circle, so
    # the segment table wraps around 1; the flattened map stays a C^1
    # degree-one lift whose inverse is its inverse
    sp = circle(512)
    act = Action(
        sp, Presentation.zd(1, ("f",)), {"f": build_diffeo("x + 0.05*sin(2*pi*x)", sp)}
    )
    flat, _, report = flatten_hyperbolic(act, delta=0.1)
    assert report.alpha == pytest.approx(3.7710984345710017, rel=1e-12)
    assert report.flagged == (0.0, 0.5)
    after = report.log_multipliers_after
    assert after[0.0] == pytest.approx(0.0724449716630, abs=1e-9)
    assert after[0.5] == pytest.approx(-0.1, abs=1e-12)
    g = flat.gens[0]
    assert c1_refinement_ratio(g) == pytest.approx(1.92, abs=0.01)
    x = np.linspace(-1.5, 2.5, 4001)
    assert float(np.max(np.abs(g.eval_lift(x + 1) - g.eval_lift(x) - 1))) <= 4.5e-16
    assert float(np.max(np.abs(g.invert_lift(g.eval_lift(x)) - x))) <= 1e-12


@pytest.mark.parametrize(
    "space, text, delta, starts, sides",
    [
        # no segment starts at 0 after the fold: the bridge across 1 is
        # copied there, shifted by -1
        (circle(512), "x + 0.05*sin(2*pi*(x - 0.3))", 0.1,
         [0.0, 0.25, 0.3, 0.35, 0.75, 0.8, 0.85], [0, -1, 1, 0, -1, 1, 0]),
        # 0 and 1 are parabolic, so 0.5 alone is flagged: a bridge from 0 and
        # a bridge to 1 end the table
        (interval(512), "x + 4*x^2*(1-x)^2*(x - 0.5)", 0.05,
         [0.0, 0.45, 0.5, 0.55], [0, -1, 1, 0]),
    ],
    ids=["circle-copy-at-0", "interval-end-bridges"],
)
def test_flattening_segment_table_ends(space, text, delta, starts, sides):
    act = Action(space, Presentation.zd(1, ("f",)), {"f": build_diffeo(text, space)})
    _, psi, report = flatten_hyperbolic(act, delta=delta)
    assert psi._starts == pytest.approx(starts, abs=1e-12)
    assert psi._sides.tolist() == sides
    for o in report.orbits:
        assert abs(report.log_multipliers_after[o.points[0]]) <= o.period * delta * (1 + 1e-6)
    # log Dpsi is continuous where two segments meet off the flagged points,
    # and 0 at an unflagged end of the interval
    edges = psi._starts[(psi._sides != 1) & ((psi._starts > 0.0) | space.is_circle)]
    left, right = (psi.prim.apply(edges + t, 1)[1] for t in (-1e-9, 1e-9))
    assert float(np.max(np.abs(left - right))) <= 1e-6
    if not space.is_circle:
        assert psi.prim.apply(np.array([0.0, 1.0]), 1)[1].tolist() == [0.0, 0.0]
    x = np.linspace(0.0, 1.0, 2001 if space.is_circle else 4001)
    back = psi.prim.apply(psi.prim.apply(x, 1)[0], -1)[0]
    assert float(np.max(np.abs(back - x))) <= 4 * np.spacing(1.0)


@pytest.mark.parametrize(
    "space, text",
    [(interval(512), "mobius(1, 0, -1, 2)"), (circle(512), "x + 0.05*sin(2*pi*x)")],
    ids=["interval", "circle"],
)
def test_flattened_generator_maps_a_0d_point_to_a_0d_point(space, text):
    # as every Diffeo does: both jets of a flattened generator take a scalar
    # and give scalars, equal to the one-point batch
    act = Action(space, Presentation.zd(1, ("f",)), {"f": build_diffeo(text, space)})
    g = flatten_hyperbolic(act, delta=0.1)[0].gens[0]
    assert np.shape(g.eval_lift(0.5)) == ()
    for jet in (g.jet, g.inverse_jet):
        v, ld = jet(0.5)
        assert np.shape(v) == np.shape(ld) == ()
        assert (v, ld) == tuple(a[0] for a in jet(np.array([0.5])))


def test_flatten_at_alpha_one_leaves_every_map_alone():
    # psi is the identity at alpha 1, so a flagged set that the other
    # generator moves is no obstruction and every conjugate is g itself
    act = pingpong_action(512)
    flat, _, report = flatten_hyperbolic(act, alpha=1.0)
    assert len(report.flagged) == 3
    x = np.linspace(-0.5, 1.5, 2001)
    for g, h in zip(act.gens, flat.gens):
        assert float(np.max(np.abs(h.eval_lift(x) - g.eval_lift(x)))) <= 1e-15
        assert float(np.max(np.abs(h.invert_lift(x) - g.invert_lift(x)))) <= 1e-15
        assert np.array_equal(h.log_deriv.samples, g.log_deriv.samples)


def test_flatten_conjugate_fixes_flagged_points():
    act = mobius_action(512)
    psi = FlatteningMap(act.space, (0.0, 1.0), 4.0)
    g = flatten_conjugate(psi, act.gens[0])
    assert float(g(np.array([0.0]))[0]) == 0.0
    assert float(g(np.array([1.0]))[0]) == 1.0


@pytest.mark.parametrize(
    "slopes",
    [(1 / 64, 1 / 64), (0.5, 0.5), (3.0, 1 / 64), (1.0, 1.0)],
    ids=["1/64", "1/2", "3", "identity"],
)
def test_bridge_inverse_round_trip(slopes):
    # the bridge inverts without Newton-bisection: a seed from its table and
    # a fixed number of Newton steps on the cubic reach rounding for every
    # end slope in (0, 3]; (3, 3) would have Dbridge = 0 at the midpoint
    bridge = _Bridge(0.25, 0.75, *slopes)
    x = np.linspace(0.25, 0.75, 2049)
    y = bridge.jet(x)[0]
    back, ld = bridge.invert(y)
    v, d = bridge.jet(back)
    assert float(np.max(np.abs(v - y))) <= 1e-12
    assert float(np.max(np.abs(back - x))) <= 1e-12
    assert np.array_equal(ld, np.log(d))
    if slopes == (1.0, 1.0):
        assert np.array_equal(back, y) and not ld.any()


def test_bridge_inverse_raises_on_a_nan_target():
    with pytest.raises(NonConvergence):
        _Bridge(0.0, 0.5, 0.25, 1.0).invert(np.array([0.1, np.nan]))


def test_flattening_never_calls_newton(monkeypatch):
    # psi, psi⁻¹ and the Möbius map all invert in closed form or directly;
    # near the repelling end the germ collapse limits the round trip to 4e-11
    calls = []
    newton = diffeo_mod._newton

    def counted(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(diffeo_mod, "_newton", counted)
    monkeypatch.setattr(periodic_mod, "_newton", counted, raising=False)
    flat, _, _ = flatten_hyperbolic(mobius_action(512), delta=0.05)
    g = flat.gens[0]
    x = np.linspace(0.0, 1.0, 1001)
    assert float(np.max(np.abs(g.invert_lift(g.eval_lift(x)) - x))) <= 1e-10
    assert calls == []


# ---------------------------------------------------------------------------
# The one-pass flattened jet against the formulation it replaced: psi⁻¹, g
# and psi at every point, one segment at a time, then the germ values
# replaced.


def bridge_value(b, x):
    s = (x - b.a) / (b.b - b.a)
    t10, t11 = s * (1.0 - s) ** 2, s * s * (s - 1.0)
    return x + (b.b - b.a) * ((b.slope_a - 1.0) * t10 + (b.slope_b - 1.0) * t11)


def bridge_deriv(b, x):
    s = (x - b.a) / (b.b - b.a)
    d10, d11 = (1.0 - s) * (1.0 - 3.0 * s), s * (3.0 * s - 2.0)
    return 1.0 + (b.slope_a - 1.0) * d10 + (b.slope_b - 1.0) * d11


def two_pass_psi_jet(psi, x, sign):
    """psi (sign 1) or psi⁻¹ (sign -1) on the fundamental domain, one
    segment at a time; a bridge inverts by Newton steps on its value and
    derivative evaluated apart."""
    seg = psi._segment(x)
    v, ld = np.empty_like(x), np.empty_like(x)
    r, q = psi.radius, psi._q

    def germ(z, power):
        return r * np.power(np.maximum(z, 0.0) / r, power)

    for i in np.flatnonzero(np.bincount(seg, minlength=len(psi._payload))):
        sel = seg == i
        side, pay = psi._sides[i], psi._payload[i]
        value, deriv = (lambda t: bridge_value(pay, t)), (lambda t: bridge_deriv(pay, t))
        if not side and sign > 0:
            v[sel], ld[sel] = value(x[sel]), np.log(deriv(x[sel]))
        elif not side:
            y = x[sel]
            xs, vs = pay._table
            k = np.clip(np.searchsorted(vs, y) - 1, 0, xs.size - 2)
            lo, hi = xs[k], xs[k + 1]
            t = np.clip(lo + (y - vs[k]) / (vs[k + 1] - vs[k]) * (hi - lo), lo, hi)
            for _ in range(periodic_mod._BRIDGE_STEPS):
                fx = value(t) - y
                t = np.where(fx == 0.0, t, np.clip(t - fx / deriv(t), lo, hi))
            v[sel], ld[sel] = t, -np.log(deriv(t))
        else:
            z = np.abs(x[sel] - pay)
            z_img = germ(z, q) if sign > 0 else germ(z, psi.alpha)
            v[sel] = pay + side * z_img
            z_src = z if sign > 0 else z_img
            ld[sel] = sign * (math.log(q) + (q - 1.0) * (np.log(z_src) - math.log(r)))
    return v, ld


def two_pass_conjugate(psi, g, s):
    """The jet of psi∘g^s∘psi⁻¹ in the two-pass formulation."""
    prim = Primitive(
        psi.space.is_circle,
        lambda x: two_pass_psi_jet(psi, x, 1),
        lambda y: two_pass_psi_jet(psi, y, -1),
        base=psi.prim.base,
    )
    q, r = psi._q, psi.radius

    def conjugated(x):
        k = np.floor(x) if psi.space.is_circle else 0.0
        seg = psi._segment(x - k)
        cell = seg + len(psi._starts) * (k - np.min(k, initial=0)).astype(int)
        c, side = psi._centers[seg] + k, psi._sides[seg]
        y, ld_y = prim.apply(x, -1)
        w, ld_g = g.apply(y, s)
        v, ld_v = prim.apply(w, 1)
        ld = ld_v + ld_g + ld_y
        at = np.flatnonzero(side)
        if at.size == 0:
            return v, ld
        rep = np.full(cell.max() + 1, at[0])
        rep[cell[at]] = at
        gc, lm = (a[cell[at]] for a in g.apply(c[rep], s))
        side = side[at]
        z_x = np.abs(x[at] - c[at])
        z_y = r * np.power(np.maximum(z_x, 0.0) / r, psi.alpha)
        z_gy = np.maximum((w[at] - gc) * side, 0.0)
        lin, inside = z_y < 1e-9, z_gy <= r
        v_in = gc + side * (r * np.power(np.maximum(z_gy, 0.0) / r, q))
        ld_in = ld_g[at] + (q - 1.0) * (np.log(np.maximum(z_gy, 1e-300)) - np.log(z_y))
        v_lin = gc + side * np.exp(q * lm) * z_x
        v[at] = np.where(lin, v_lin, np.where(inside, v_in, v[at]))
        ld[at] = np.where(lin, q * lm, np.where(inside, ld_in, ld[at]))
        return v, ld

    return conjugated


def flattening_probe(psi, grid):
    """Points of [0, 1] that reach every branch of the flattened jet: the
    nodes, the midpoints, random points, offsets from the flagged points
    below and above the linearization threshold, and the germ edges."""
    nodes = np.linspace(0.0, 1.0, grid + 1)
    offsets = np.array([0.0, 1e-300, 1e-15, 1e-12, 1e-10, 1e-9, 1e-7, 1e-4, 1e-2])
    near = [c + sign * offsets for c in psi.nodes for sign in (1.0, -1.0)]
    edges = [c + sign * psi.radius * np.array([1 - 1e-12, 1.0, 1 + 1e-12])
             for c in psi.nodes for sign in (1.0, -1.0)]
    rng = np.random.default_rng(17)
    x = np.concatenate([nodes, nodes[:-1] + 0.5 / grid, rng.uniform(0.0, 1.0, 2000), *near, *edges])
    return np.clip(x, 0.0, 1.0)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grid", [256, 512])
@pytest.mark.parametrize("delta", [0.05, 0.1])
def test_flattened_jet_matches_two_pass_formulation(grid, delta):
    # every bit on the interval, forward and inverse: the one-pass jet finds
    # each segment once, takes psi⁻¹ of a germ point from the offset that
    # its germ value uses, and evaluates psi only where the value is kept
    act = mobius_action(grid)
    flat, psi, _ = flatten_hyperbolic(act, delta=delta)
    ((prim, _),) = flat.gens[0].plan
    x = flattening_probe(psi, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s, jet in ((1, prim.fwd), (-1, prim.bwd)):
            v, ld = jet(x)
            v_ref, ld_ref = two_pass_conjugate(psi, act.gens[0], s)(x)
            assert same_bits(v, v_ref) and same_bits(ld, ld_ref)


def circle_flattening():
    sp = circle(512)
    act = Action(
        sp, Presentation.zd(1, ("f",)), {"f": build_diffeo("x + 0.05*sin(2*pi*x)", sp)}
    )
    return flatten_hyperbolic(act, delta=0.1)


@pytest.mark.parametrize(
    "make", [lambda: flatten_hyperbolic(mobius_action(512), delta=0.1), circle_flattening],
    ids=["interval", "circle"],
)
def test_flattened_jet_is_batch_independent(make):
    # a point's value never depends on the others in its batch: the jet of
    # a concatenation is the concatenation of the jets, germ cells and all
    flat, psi, _ = make()
    g = flat.gens[0]
    x = flattening_probe(psi, 512)
    if psi.space.is_circle:
        x = np.concatenate([x - 1.0, x, x + 1.0])
    x = np.random.default_rng(3).permutation(x)
    parts = np.array_split(x, [7, 8, 400, 1500, 1501])
    for s in (1, -1):
        v, ld = g.apply(x, s)
        pieces = [g.apply(p, s) for p in parts]
        assert same_bits(v, np.concatenate([p[0] for p in pieces]))
        assert same_bits(ld, np.concatenate([p[1] for p in pieces]))


# ---------------------------------------------------------------------------
# resilient detection


def test_pingpong_witness_found():
    w = detect_resilient(pingpong_action(4096), 2, 0.01)
    assert w is not None
    d = w.to_dict()
    assert d["word_f"] == "f" and d["word_g"] == "g"
    assert d["margin"] > 0.01
    # the defining chain x < f(x) < f(y) < g(x) < g(y) < y
    chain = d["chain"]
    assert chain == sorted(chain)
    assert len(chain) == 6
    assert d["x"] == chain[0] and d["y"] == chain[-1]


def test_rotations_have_no_witness():
    assert detect_resilient(rigid_rotations(1024), 4, 0.01) is None


def test_conjugated_rotation_has_no_witness():
    assert detect_resilient(conj_rotation_action(1024), 4, 0.01) is None


def test_single_generator_has_no_witness():
    assert detect_resilient(mobius_action(512), 2, 0.01) is None


def test_witness_is_deterministic():
    a = detect_resilient(pingpong_action(2048), 2, 0.01)
    b = detect_resilient(pingpong_action(2048), 2, 0.01)
    assert a.to_dict() == b.to_dict()


def test_interval_pingpong_witness_found():
    w = detect_resilient(interval_pingpong_action(512), 2, 0.01)
    assert (w.display_f, w.display_g) == ("f", "g")
    # the interval scans every node: x and y are nodes 12 and 325 of 512
    assert (w.x, w.y) == (12 / 512, 325 / 512)
    assert list(w.chain) == sorted(w.chain) and w.margin > 0.01


@pytest.mark.parametrize("r", [0.0, -0.01, math.nan, math.inf])
def test_detect_rejects_resolution_outside_the_positive_reals(r):
    with pytest.raises(ValueError, match="resolution"):
        detect_resilient(pingpong_action(256), 2, r)


@pytest.mark.parametrize(
    "build, last", [(pingpong_action, 255 / 256), (interval_pingpong_action, 1.0)]
)
def test_scan_holds_each_point_once(build, last, monkeypatch):
    # the circle scan stops before x = 1, which is x = 0 again
    import conjtamer.periodic as periodic

    scanned = []
    inner = periodic._first_chain

    def recorded(xs, *args):
        scanned.append(xs)
        return inner(xs, *args)

    monkeypatch.setattr(periodic, "_first_chain", recorded)
    detect_resilient(build(256), 2, 1.0 / 1024)
    (xs,) = scanned
    assert xs[0] == 0.0 and xs[-1] == last and np.all(np.diff(xs) > 0)


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.spec")), ids=lambda p: p.stem)
def test_distinct_words_are_the_product_enumeration_without_identity(path):
    # the trie BFS keeps the first spelling of each normal form, in the order
    # of the letter products; only the identity, which a spelled commutator
    # of Z^2 or of the Heisenberg group reaches at length 4, is left out
    action = build_action(load_action_spec(str(path))._replace(grid_size=64))
    pres = action.presentation
    for max_len in range(6):
        expected = [
            seq for seq in product_distinct_words(action, max_len)
            if pres.normal_form(Word(seq)).letters
        ]
        assert _distinct_words(action, max_len) == expected


def test_word_images_match_letter_by_letter_walk():
    # an image built on its suffix's cached walk must be the very array that
    # one walk of the word's letters makes in the same plan coordinates
    act = conj_rotation_z2(256)
    nodes = act.space.nodes
    words = _distinct_words(act, 3)
    for i, walk in act.walk_words(words, nodes):
        assert np.array_equal(walk.point()[0], act.word_cocycle(words[i], nodes)[1])


@pytest.mark.parametrize(
    "build, max_len",
    [(pingpong_action, 2), (conj_rotation_z2, 3), (interval_pingpong_action, 2)],
)
def test_sweep_matches_dense_scan_on_word_images(build, max_len):
    # every node, as detect_resilient scans a 256 grid: x = 1 only on the
    # interval, since on the circle it is x = 0 again
    act = build(256)
    xs = act.space.track_nodes()
    words = _distinct_words(act, max_len)
    images = [None] * len(words)
    for i, walk in act.walk_words(words, xs):
        images[i] = walk.point()[0] % 1.0 if act.space.is_circle else walk.point()[0]
    for r in (1.0 / 256, 0.01, 0.05):
        hit = _first_chain(xs, len(images), lambda k: images[k], r)
        assert hit == dense_first_chain(xs, images, r)


def _synthetic_image(rng, xs, on_circle, shape, q):
    """A piecewise-linear lift sampled at xs: random knots, or a north-south
    map squeezing an arc [a, b] into a width 10^-k arc inside it.  Circle
    lifts get a random integer frame and are reduced mod 1; q > 0 rounds
    the values to multiples of 1/q, which makes ties."""
    if shape == "north-south":
        a, b = np.sort(rng.uniform(0.02, 0.98, 2))
        w = 10.0 ** -rng.integers(1, 8)
        c = rng.uniform(a, max(a, b - w))
        kx, ky = np.array([a, b]), np.array([c, c + w])
        f0 = rng.uniform(0.0, a) if on_circle else 0.0
    else:
        k = rng.integers(1, 5)
        kx = np.sort(rng.uniform(0.0, 1.0, k))
        f0 = rng.uniform(-0.5, 0.5) if on_circle else 0.0
        gap = 10.0 ** rng.uniform(-9, -0.3) if on_circle else 0.0
        ky = f0 + np.sort(rng.uniform(0.0, 1.0 - gap, k))
    lift = np.interp(xs, np.r_[0.0, kx, 1.0], np.r_[f0, ky, f0 + 1.0])
    lift = lift + rng.integers(-2, 3) if on_circle else lift
    if q:
        lift = np.round(lift * q) / q
    return lift % 1.0 if on_circle else lift


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    on_circle=st.booleans(),
    closed=st.booleans(),
    m=st.integers(2, 64),
    count=st.integers(2, 6),
    shape=st.sampled_from(["random", "north-south"]),
    q=st.sampled_from([0, 64, 128, 256]),
    res=st.sampled_from(["zero", "cell", "0.01"]),
)
def test_sweep_matches_dense_scan(seed, on_circle, closed, m, count, shape, q, res):
    rng = np.random.default_rng(seed)
    r = {"zero": 0.0, "cell": 1.0 / m, "0.01": 0.01}[res]
    # a closed circle grid scans x = 0 and x = 1, one point: see above
    assume(not (on_circle and closed and r == 0.0))
    xs = np.arange(m + closed) / m if on_circle else np.linspace(0.0, 1.0, m)
    images = [_synthetic_image(rng, xs, on_circle, shape, q) for _ in range(count)]
    hit = _first_chain(xs, count, lambda k: images[k], r)
    assert hit == dense_first_chain(xs, images, r)
    if hit is not None:
        fk, gk, i, j = hit
        f, g = images[fk], images[gk]
        assert np.min(np.diff([xs[i], f[i], f[j], g[i], g[j], xs[j]])) > r


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    on_circle=st.booleans(),
    m=st.integers(2, 64),
    shape=st.sampled_from(["random", "north-south"]),
    q=st.sampled_from([0, 64, 256]),
    res=st.sampled_from(["zero", "cell", "0.01"]),
)
def test_chain_words_pass_the_filter(seed, on_circle, m, shape, q, res):
    # every pair the dense scan finds a chain for is made of two words that
    # pass _can_chain, so sweeping only those loses no chain
    rng = np.random.default_rng(seed)
    r = {"zero": 0.0, "cell": 1.0 / m, "0.01": 0.01}[res]
    xs = np.arange(m) / m if on_circle else np.linspace(0.0, 1.0, m)
    images = [_synthetic_image(rng, xs, on_circle, shape, q) for _ in range(4)]
    for f in images:
        for g in images:
            if dense_first_chain(xs, [f, g], r) is not None:
                assert _can_chain(xs, f, r) and _can_chain(xs, g, r)


@pytest.mark.parametrize("which", ["conj_rotation_z2", "heisenberg_proj"])
def test_conjugated_rotations_sweep_no_word(which, pytestconfig, monkeypatch):
    # a conjugated rotation lies above x before its wrap and below x after
    # it, so no word passes the filter and the pair sweep never runs; the
    # walks invert the shared distortion h once, for the scanned points
    import conjtamer.periodic as periodic
    from conjtamer.diffeo import Diffeo

    spec = pytestconfig.rootpath / "specs" / "heisenberg_proj.spec"
    act = (
        conj_rotation_z2(1024)
        if which == "conj_rotation_z2"
        else build_action(load_action_spec(str(spec)))
    )
    passed, inversions = [], []
    inner_filter, inner_invert = periodic._can_chain, Diffeo._invert01

    def recorded(*args):
        passed.append(inner_filter(*args))
        return passed[-1]

    def counted(self, y):
        inversions.append(np.size(y))
        return inner_invert(self, y)

    monkeypatch.setattr(periodic, "_can_chain", recorded)
    monkeypatch.setattr(Diffeo, "_invert01", counted)
    assert detect_resilient(act, 4, 0.01) is None
    assert len(passed) == len(_distinct_words(act, 4)) and not any(passed)
    assert len(inversions) <= 1


def _least_above_brute(v, r):
    t = v + r
    while not t - v > r:
        t = math.nextafter(t, math.inf)
    while math.nextafter(t, -math.inf) - v > r:
        t = math.nextafter(t, -math.inf)
    return t


@pytest.mark.parametrize("r", [0.0, 0.01, 0.1, 0.15])
@pytest.mark.parametrize("x0", [0.0, 1e-9, 0.1])
def test_sweep_edges_are_exact_floats(x0, r):
    # every margin of this chain is the least float above r, so lowering any
    # link by one float breaks it: each searchsorted edge must be exact
    c = [x0]
    for _ in range(5):
        c.append(_least_above_brute(c[-1], r))
    for k in range(6):
        d = list(c)
        if k:
            d[k] = math.nextafter(d[k], -math.inf)
        xs, images = np.array([d[0], d[5]]), [np.array(d[1:3]), np.array(d[3:5])]
        hit = _first_chain(xs, 2, images.__getitem__, r)
        assert hit == dense_first_chain(xs, images, r)
        assert hit == ((0, 1, 0, 1) if k == 0 else None)


def test_hyperbolic_point_orbit_stays_finite_on_nilpotent_rotations():
    # Every bundled nilpotent example acts through rotations, so generators
    # have no hyperbolic periodic points and the finiteness dichotomy is
    # vacuous; assert the premise so a future example change is noticed.
    sp = circle(512)
    p = Presentation.heisenberg()
    act = Action(
        sp,
        p,
        {
            "a": rotation(sp, GOLDEN),
            "b": rotation(sp, 0.414214),
            "c": identity(sp),
        },
    )
    for g in act.gens:
        assert [o for o in find_periodic_points(g, 3) if not o.parabolic] == []


@pytest.mark.parametrize(
    "build, max_len, cap",
    [(pingpong_action, 12, None), (conj_rotation_z2, 6, 50)],
    ids=["free-closed-form", "z2-first-past-cap"],
)
def test_detect_refuses_a_word_list_past_the_cap_before_walking(
    monkeypatch, build, max_len, cap
):
    # the free pair has 1 062 880 words of length <= 12, refused from the
    # closed-form ball size; Z^2 has 85 of length <= 6, refused at the 51st
    act = build(64)
    if cap is not None:
        monkeypatch.setattr(periodic_mod, "DEFAULT_BALL_CAP", cap)
    steps = []
    real_step = WalkState.step
    monkeypatch.setattr(WalkState, "step", lambda s, plan: steps.append(plan) or real_step(s, plan))
    with pytest.raises(SizeOverflow):
        detect_resilient(act, max_len, 0.01)
    assert steps == []


def test_cli_detect_refuses_a_long_free_word_list(tmp_path):
    out = tmp_path / "out"
    spec = str(SPECS / "pingpong.spec")
    assert main(["detect", "--spec", spec, "--grid", "64", "-L", "12", "--out", str(out)]) == 1
    assert json.loads((out / "report.json").read_text())["failed_stage"] == "detect"
