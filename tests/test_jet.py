"""The jet evaluator x -> (lift value, log-derivative) of exact diffeos, the
orbit loops that use it, and Newton's non-convergence report."""

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import conjtamer.diffeo as diffeo_mod
from conjtamer import (
    Action,
    Diffeo,
    GridFunction,
    NonConvergence,
    Presentation,
    birkhoff_field,
    build_action,
    build_diffeo,
    compose,
    conjugate_action,
    conjugated_rotation,
    deroin_cdf,
    flatten_hyperbolic,
    invert,
    parse_action_spec,
    pwl_diffeo,
    rotation,
)
from conjtamer.cli import main
from conjtamer.diffeo import Primitive, iterate, iterates
from conjtamer.space import circle, interval

from helpers import (
    GOLDEN,
    PINGPONG_F,
    SILVER,
    assert_close,
    conj_rotation_z2,
    log_density_conjugacy,
    mobius_action,
    pingpong_action,
    wobble,
    word_from_exponents,
)

BRONZE = 0.302776


# ---------------------------------------------------------------------------
# Every exact construction, on a small grid.


@lru_cache(maxsize=None)
def constructions():
    sc, si = circle(256), interval(256)
    h = wobble(256)
    g = conjugated_rotation(sc, h, GOLDEN)
    mob = build_diffeo("mobius(1, 0, -1, 2)", si)
    ramp = pwl_diffeo(si, ((0.0, 0.0), (0.3, 0.5), (1.0, 1.0)))
    t = sc.track_nodes()
    phi = Diffeo.from_log_deriv(sc, 0.3 * np.sin(2 * np.pi * t))
    flat, _, _ = flatten_hyperbolic(mobius_action(256), delta=0.1)
    return {
        "expression-circle": h,
        "expression-interval": mob,
        "pwl-circle": pwl_diffeo(sc, PINGPONG_F),
        "pwl-interval": ramp,
        "rotation": rotation(sc, 0.3),
        "conjugated-rotation": g,
        "compose-circle": compose(g, h),
        "compose-interval": compose(mob, ramp),
        "invert-circle": invert(g),
        "invert-interval": invert(mob),
        "conjugate-action-circle": conjugate_action(g, phi),
        "conjugate-action-interval": conjugate_action(mob, ramp),
        "deroin-conjugator": deroin_cdf(mobius_action(256), 0.8, 4).conjugator,
        "flattened": flat.gens[0],
        "log-density-conjugacy": phi,
    }


lifts = st.lists(
    st.one_of(
        st.integers(-3, 3).map(float),
        st.just(1.0),
        st.floats(-3.0, 0.0, allow_nan=False),
        st.floats(1.0, 4.0, allow_nan=False),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=6,
).map(np.array)


@pytest.mark.parametrize("name", sorted(constructions()))
@settings(deadline=None, max_examples=30)
@given(x=lifts)
def test_jet_equals_value_and_log_derivative(name, x):
    f = constructions()[name]
    v, ld = f.jet(x)
    assert np.array_equal(v, f.eval_lift(x))
    assert np.array_equal(ld, f.log_derivative(x))


@lru_cache(maxsize=None)
def track_maps():
    si, sc = interval(256), circle(256)
    return {
        "track-interval": Diffeo.from_log_deriv(si, 0.4 * si.track_nodes() ** 2),
        "track-circle": Diffeo.from_log_deriv(
            sc, 0.2 * np.sin(2 * np.pi * sc.track_nodes()), offset=0.3
        ),
    }


tracks = st.builds(
    lambda kind, seed, scale: (kind, np.random.default_rng(seed), scale),
    st.sampled_from(["interval", "circle"]),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 3.0),
)


@settings(deadline=None, max_examples=40)
@given(track=tracks, x=lifts)
def test_track_map_equals_the_log_density_oracle(track, x):
    kind, rng, scale = track
    sp = interval(64) if kind == "interval" else circle(64)
    samples = scale * rng.standard_normal(sp.track_length)
    f, oracle = Diffeo.from_log_deriv(sp, samples), log_density_conjugacy(
        GridFunction(sp, samples)
    )
    assume(abs(oracle.log_deriv.samples[0] - samples[0]) > 1e-12)  # |log total|
    assert np.array_equal(f.values, oracle.values)
    assert np.array_equal(f.log_deriv.samples, oracle.log_deriv.samples)
    for sign in (1, -1):
        (v, ld), (ov, old) = f.apply(x, sign), oracle.apply(x, sign)
        assert np.array_equal(v, ov) and np.array_equal(ld, old)


@pytest.mark.parametrize("name", ["track-interval", "track-circle"])
def test_track_map_slope_is_exp_of_its_log_derivative(name):
    # centered differences inside the cells: the value jet is the integral
    # of exp of the interpolated log-derivative track, not its quadrature
    f = track_maps()[name]
    h, eta = f.space.h, 1e-6
    x = np.random.default_rng(5).uniform(0.0, 1.0, 400)
    x = np.floor(x / h) * h + np.clip(x % h, 0.01 * h, 0.99 * h)
    slope = (f.eval_lift(x + eta) - f.eval_lift(x - eta)) / (2 * eta)
    assert np.max(np.abs(slope / np.exp(f.log_derivative(x)) - 1.0)) <= 1e-6


@pytest.mark.parametrize("name", ["track-interval", "track-circle"])
@settings(deadline=None, max_examples=60)
@given(x=lifts)
# lifts on negative and past-one branches, where the circle map's inverse
# branches start at its offset 0.3
@example(x=np.array([-0.7, -2.7, 1.3]))
def test_track_map_inverse_jet_inverts_its_jet(name, x):
    f = track_maps()[name]
    v, ld = f.jet(x)
    back, inv_ld = f.inverse_jet(v)
    expected = x if f.space.is_circle else np.clip(x, 0.0, 1.0)
    np.testing.assert_allclose(back, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(inv_ld, -ld, rtol=0, atol=1e-12)


def test_every_plan_entry_is_a_primitive(tmp_path):
    (tmp_path / "g.json").write_text(json.dumps(wobble(256).to_payload()))
    text = "[space]\nkind = circle\ngrid_size = 256\n\n[group]\ntype = abelian\n" \
        "generators = g\n\n[generators]\ng = @g.json\n"
    action = build_action(parse_action_spec(text), base_dir=str(tmp_path))
    for f in [*constructions().values(), *track_maps().values(), *action.gens]:
        assert f.plan and all(isinstance(p, Primitive) for p, _ in f.plan)


# Evaluators without a Newton loop act point by point, and Newton stops point
# by point: every jet is independent of the batch it is given, bit for bit.
# NEWTON lists the constructions whose jet or inverse jet runs Newton, and
# invert-interval, a Möbius inverse that runs none.
NEWTON = (
    "conjugated-rotation", "compose-circle", "invert-circle", "invert-interval",
    "conjugate-action-circle", "deroin-conjugator", "flattened",
)


@pytest.mark.parametrize(
    "name", sorted(set(constructions()) - set(NEWTON))
)
@settings(deadline=None, max_examples=30)
@given(a=lifts, b=lifts)
def test_jet_of_concatenation_is_the_concatenated_jets(name, a, b):
    f = constructions()[name]
    v, ld = f.jet(np.concatenate([a, b]))
    (va, lda), (vb, ldb) = f.jet(a), f.jet(b)
    assert np.array_equal(v, np.concatenate([va, vb]))
    assert np.array_equal(ld, np.concatenate([lda, ldb]))


@pytest.mark.parametrize("name", NEWTON)
@settings(deadline=None, max_examples=30)
@given(a=lifts, b=lifts)
def test_newton_jet_of_concatenation_agrees_to_rounding(name, a, b):
    # the rounding agrees too: each point's Newton is its own
    f = constructions()[name]
    v, ld = f.jet(np.concatenate([a, b]))
    (va, lda), (vb, ldb) = f.jet(a), f.jet(b)
    assert np.array_equal(v, np.concatenate([va, vb]))
    assert np.array_equal(ld, np.concatenate([lda, ldb]))
    vi, ldi = f.inverse_jet(np.concatenate([a, b]))
    (via, ldia), (vib, ldib) = f.inverse_jet(a), f.inverse_jet(b)
    assert np.array_equal(vi, np.concatenate([via, vib]))
    assert np.array_equal(ldi, np.concatenate([ldia, ldib]))


# ---------------------------------------------------------------------------
# Orbit walks against the letter-by-letter two-call loops they replaced: the
# walks stay in plan coordinates and round differently.


ITERATED = sorted(constructions()) + sorted(track_maps())


@pytest.mark.parametrize("name", ITERATED)
@settings(deadline=None, max_examples=20)
@given(x=lifts)
def test_iterates_equal_iterated_jets(name, x):
    # one walk of f's plan against n calls of f.jet: bit for bit for one
    # primitive that is no rotation, to rounding for a walk that stays in a
    # conjugator's coordinates
    f = {**constructions(), **track_maps()}[name]
    exact = len(f.plan) == 1 and f.plan[0][0].angle is None
    y, acc = x, np.zeros_like(x)
    for v, ld in iterates(f, x, 5):
        y, d = f.jet(y)
        acc = acc + d
        if exact:
            assert np.array_equal(v, y) and np.array_equal(ld, acc)
        else:
            assert_close(v, y, 1e-12)
            assert_close(ld, acc, 1e-12)
    assert np.array_equal(iterate(f, x, 5)[0], v)


def two_call_word_cocycle(action, letters, x):
    y = np.asarray(x, dtype=float)
    acc = np.zeros_like(y)
    for g, s in reversed(tuple(letters)):
        f = action.gens[g] if s > 0 else invert(action.gens[g])
        acc = acc + f.log_derivative(y)
        y = f.eval_lift(y)
    return acc, y


def two_call_birkhoff_field(action, n_max, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d, m = action.rank, x.size
    out = np.zeros((n_max + 1, m))
    if d == 1:
        g = action.gens[0]
        c_cum, p, acc = np.zeros(m), x, np.zeros(m)
        for n in range(1, n_max + 1):
            acc = acc + c_cum
            out[n] = acc
            if n < n_max:
                c_cum = c_cum + g.log_derivative(p)
                p = g.eval_lift(p)
        return out
    if d == 2:
        g1, g2 = action.gens
        q, c2_cum = x, np.zeros(m)
        rows = np.empty((n_max, n_max, m))
        for k2 in range(n_max):
            c1_cum, p = np.zeros(m), q
            for k1 in range(n_max):
                rows[k1, k2] = c2_cum + c1_cum
                if k1 < n_max - 1:
                    c1_cum = c1_cum + g1.log_derivative(p)
                    p = g1.eval_lift(p)
            if k2 < n_max - 1:
                c2_cum = c2_cum + g2.log_derivative(q)
                q = g2.eval_lift(q)
        pref = rows.cumsum(axis=0).cumsum(axis=1)
        for n in range(1, n_max + 1):
            out[n] = pref[n - 1, n - 1]
        return out
    buckets = np.zeros((n_max, m))
    for row in itertools.product(range(n_max), repeat=d):
        c, _ = two_call_word_cocycle(action, word_from_exponents(row).letters, x)
        buckets[max(row)] += c
    np.cumsum(buckets, axis=0, out=buckets)
    out[1:] = buckets
    return out


@lru_cache(maxsize=None)
def rotations_z(d: int) -> Action:
    sp = circle(256)
    h = wobble(256)
    names = ("g1", "g2", "g3")[:d]
    gens = [conjugated_rotation(sp, h, a) for a in (GOLDEN, SILVER, BRONZE)[:d]]
    return Action(sp, Presentation.zd(d, names), gens)


@pytest.mark.parametrize("d, n", [(1, 9), (2, 6), (3, 3)])
def test_birkhoff_field_matches_two_call_loop(d, n):
    action = rotations_z(d)
    x = np.concatenate([action.space.track_nodes()[::7], [-0.25, 1.0, 2.5]])
    assert_close(birkhoff_field(action, n, x), two_call_birkhoff_field(action, n, x))


@pytest.mark.parametrize("make", [pingpong_action, conj_rotation_z2])
def test_word_cocycle_matches_two_call_loop(make):
    action = make(256)
    x = np.linspace(-0.5, 1.5, 41)
    words = [(), ((0, 1),), ((1, -1), (0, 1)), ((0, -1), (1, 1), (0, -1), (1, -1))]
    for letters in words:
        c, y = action.word_cocycle(letters, x)
        c_old, y_old = two_call_word_cocycle(action, letters, x)
        assert_close(c, c_old)
        # a letter's reversed plan inverts g's lift, invert(g) lifts g^-1
        # with its value at 0 in [0, 1): the words' lifts are an integer apart
        shift = np.round(y - y_old)
        assert np.all(shift == shift[0])
        assert_close(y - shift, y_old)


def test_birkhoff_field_inverts_once_per_point_set(monkeypatch):
    # g_i = h R_i h^-1 share h: the walk inverts h at the points, then adds
    # angles and takes one jet of h per ball element
    action = conj_rotation_z2(256)
    calls = []
    inner = Diffeo._invert01

    def counted(self, y):
        calls.append(y.size)
        return inner(self, y)

    monkeypatch.setattr(Diffeo, "_invert01", counted)
    n = 5
    birkhoff_field(action, n, action.space.track_nodes())
    assert calls == [action.space.grid_size]


# ---------------------------------------------------------------------------
# Newton non-convergence.


def test_newton_raises_when_log_derivative_disagrees_with_value():
    # log D = 10 against the value x^2: every Newton step is e^-10 too short,
    # stays inside the bracket and crawls, so 60 steps cannot converge
    f = Diffeo.from_callables(
        interval(64),
        lambda x: (
            np.asarray(x, dtype=float) ** 2,
            np.full_like(np.asarray(x, dtype=float), 10.0),
        ),
    )
    with pytest.raises(NonConvergence) as info:
        f.invert_lift(np.array([0.3, 0.7]))
    assert info.value.residual > 1e-8


def test_newton_on_a_steep_jet_returns_the_nearest_float():
    # slope 1e10, overstated by e^0.3 in the log-derivative: Newton creeps
    # down on the root, and its steps fall below their stop size some 60
    # floats above it, with residuals near 1e-5.  One float near 0.3 moves
    # v by 5.6e-7, so no float meets the tolerance: each point must settle
    # on the float of least residual
    slope = 1e10

    def v(x):
        return slope * (x - 0.3)

    y = np.linspace(1e-7, 5e-7, 9)
    ld = math.log(slope) + 0.3
    x, _ = diffeo_mod._newton(
        lambda x: (v(x), np.full_like(x, ld)), y, 0.0, 1.0, 0.31
    )
    for xi, yi in zip(x, y):
        for nb in (np.nextafter(xi, 0.0), np.nextafter(xi, 1.0)):
            assert abs(v(xi) - yi) <= abs(v(nb) - yi)


def test_deroin_inverse_takes_power_law_seeds(monkeypatch):
    # the Deroin CDF of x/(2-x) behaves like x^0.15 in its first and last
    # cells (log DF(0) = 21.6), where a linear seed leaves Newton bisecting
    # for 30 jets; power-law seeds need at most 12.  Each root meets the
    # tolerance, or is the float of least residual where one float moves F
    # by more than the tolerance
    F = deroin_cdf(mobius_action(1024), math.exp(-0.1), 40).conjugator
    nodes = F.space.nodes
    calls = []
    jet = Diffeo.jet

    def counted(self, x):
        if self is F:
            calls.append(np.size(x))
        return jet(self, x)

    monkeypatch.setattr(Diffeo, "jet", counted)
    x = F.invert_lift(nodes)
    assert len(calls) <= 12
    monkeypatch.undo()
    res = np.abs(F.eval_lift(x) - nodes)
    far = res > 1e-12
    for nb in (np.nextafter(x[far], 0.0), np.nextafter(x[far], 1.0)):
        assert np.all(res[far] <= np.abs(F.eval_lift(nb) - nodes[far]))


def test_newton_raises_on_a_nan_residual():
    # beyond 0.5 the jet is NaN: bisection pins x at 0.75, and the NaN
    # residual must not pass for a small one
    def jet(x):
        return np.where(x > 0.5, np.nan, x), np.zeros_like(x)

    with pytest.raises(NonConvergence):
        diffeo_mod._newton(jet, np.array([0.75]), 0.0, 1.0, np.array([0.75]))


def test_cli_non_convergence_exits_one_with_failed_stage(tmp_path, monkeypatch):
    spec = tmp_path / "m.spec"
    spec.write_text(
        textwrap.dedent(
            """\
            [space]
            kind = interval
            grid_size = 256

            [group]
            type = abelian
            generators = f

            [generators]
            f = mobius(1, 0, -1, 2)

            [pipeline]
            lambda = 0.9
            radius = 4
            """
        )
    )
    monkeypatch.setattr(diffeo_mod, "_NEWTON_STEPS", 1)
    out = tmp_path / "out"
    assert main(["tame-lipschitz", "--spec", str(spec), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["failed_stage"] == "tame"


def test_cli_a4_with_small_delta_exits_zero(tmp_path, pytestconfig):
    # at delta 0.05 the flattening bridges end in slopes near 0.07, where a
    # one-ulp residual moves x by more than Newton's stopping step; their
    # direct inverse (table seed, fixed Newton steps on the cubic) must
    # still meet the residual tolerance at every point it inverts
    spec = pytestconfig.rootpath / "specs" / "a4.spec"
    argv = ["tame-c1", "--spec", str(spec), "--delta", "0.05", "--nmax", "192"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


def test_tame_c1_never_imports_numpy_ma(tmp_path, pytestconfig):
    # numpy.unique imports numpy.ma (some 14 ms); no stage of a flattened
    # C¹ taming may call it
    spec = pytestconfig.rootpath / "specs" / "a4.spec"
    code = (
        "import sys\n"
        "from conjtamer.cli import main\n"
        "main(['tame-c1', '--spec', sys.argv[1], '--out', sys.argv[2]])\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pytestconfig.rootpath / "src"))
    argv = [sys.executable, "-c", code, str(spec), str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
