"""Acceptance suite: one test per release criterion, each printing a summary.

Every test emits a single `[criterion N] PASS/FAIL — detail` line (bypassing
capture) before asserting, so a red run still produces the full scoreboard.
Tolerances and runtime budgets are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from conjtamer import (
    GridFunction,
    Presentation,
    birkhoff_solution,
    c1_refinement_ratio,
    cocycle_defect,
    compose,
    deroin_cdf,
    detect_resilient,
    empirical_measure_integral,
    enumerate_ball,
    flatten_hyperbolic,
    invert,
    load_action_spec,
    path_of_conjugates,
    pushforward_check,
    rotation_number,
    run_pipeline,
    tame_lipschitz,
    word_realize,
)

from helpers import (
    GOLDEN,
    SILVER,
    conj_rotation_action,
    conj_rotation_z2,
    mobius_action,
    mobius_gen,
    pingpong_action,
    rigid_rotations,
    wobble,
)

LAM = float(np.exp(-0.1))


def _emit(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_lipschitz_taming(capsys):
    t0 = time.monotonic()
    act = mobius_action(4096)
    f = act.gens[0]
    untamed = float(np.max(np.diff(f.values) / act.space.h))
    _, report, _ = tame_lipschitz(act, LAM, 40)
    g = report.per_generator["f"]
    bound = float(np.exp(0.1)) * (1.0 + report.slack)
    dt = time.monotonic() - t0
    ok = (
        report.slack < 0.02
        and g.lip <= bound
        and g.lip_inv <= bound
        and untamed >= 1.99
        and report.certified
        and dt < 10.0
    )
    _emit(
        capsys,
        1,
        ok,
        f"lip {g.lip:.4f}/{g.lip_inv:.4f} <= {bound:.4f}, slack {report.slack:.4f}, "
        f"untamed {untamed:.4f}, {dt:.1f}s",
    )
    assert untamed >= 1.99
    assert report.slack < 0.02
    assert g.lip <= bound and g.lip_inv <= bound
    assert report.certified
    assert dt < 10.0


def test_criterion_2_pushforward_inequality(capsys):
    t0 = time.monotonic()
    checks = {}
    for tag, act in (("mobius", mobius_action(4096)), ("circle", conj_rotation_action(4096))):
        measure = deroin_cdf(act, LAM, 40)
        for name, res in pushforward_check(act, measure).items():
            checks[f"{tag}.{name}"] = res
    dt = time.monotonic() - t0
    total = sum(res["violations"] for res in checks.values())
    ok = total == 0 and dt < 10.0
    worst = max(res["max_violation"] for res in checks.values())
    _emit(capsys, 2, ok, f"0 violations across {len(checks)} generators "
          f"(worst signed excess {worst:.2e}), {dt:.1f}s")
    for key, res in checks.items():
        assert res["violations"] == 0, key
    assert dt < 10.0


def test_criterion_3_telescoping_identity(capsys):
    t0 = time.monotonic()
    act = conj_rotation_z2(4096)
    sol = birkhoff_solution(act, 8)
    worst = 0.0
    for i, name in enumerate(act.names):
        defect = sol.defect_per_generator[name]
        loc = sol.defect_locations[name]
        emp = float(empirical_measure_integral(act, i, 8, loc))
        worst = max(worst, abs(defect - abs(emp)))
    dt = time.monotonic() - t0
    ok = worst <= 1e-8 and dt < 30.0
    _emit(capsys, 3, ok, f"defect vs empirical integral gap {worst:.2e} <= 1e-8, {dt:.1f}s")
    assert worst <= 1e-8
    assert dt < 30.0


def test_criterion_4_defect_decay(capsys):
    t0 = time.monotonic()
    act = conj_rotation_action(4096)
    defects = [birkhoff_solution(act, n).defect for n in (2, 4, 8, 16, 32)]
    h = wobble(4096)
    tn = act.space.track_nodes()
    u_exact = GridFunction(
        act.space,
        -h.log_deriv(h.invert_lift(tn)),
        lambda y: -h.log_deriv(h.invert_lift(y)),
    )
    exact_defects, _ = cocycle_defect(u_exact, act)
    exact = max(exact_defects.values())
    dt = time.monotonic() - t0
    decreasing = all(a > b for a, b in zip(defects, defects[1:]))
    ok = decreasing and defects[-1] < 0.05 and exact < 5.0 / 4096 and dt < 60.0
    _emit(capsys, 4, ok, "defects " + " > ".join(f"{d:.4f}" for d in defects)
          + f", exact-solution defect {exact:.1e} < {5.0 / 4096:.1e}, {dt:.1f}s")
    assert decreasing
    assert defects[-1] < 0.05
    assert exact < 5.0 / 4096
    assert dt < 60.0


def test_criterion_5_flattening_limit_law(capsys):
    act = mobius_action(4096)
    t = 1e-4
    rows = []
    ok = True
    for alpha in (2.0, 4.0, 8.0):
        flat, _, _ = flatten_hyperbolic(act, alpha=alpha)
        g = flat.gens[0]
        measured = float(g.eval_lift(np.array([t]))[0]) / t
        target = 2.0 ** (-1.0 / alpha)
        ratio = c1_refinement_ratio(g)
        finite = bool(np.all(np.isfinite(g.log_deriv.samples)))
        rows.append((alpha, measured, target, ratio, finite))
        ok = ok and abs(measured - target) <= 1e-4 and 1.7 <= ratio <= 2.3 and finite
    _emit(capsys, 5, ok, "; ".join(
        f"alpha={a:g}: Dg(0)~{m:.6f} vs {tg:.6f}, refinement ratio {r:.2f}"
        for a, m, tg, r, _ in rows))
    for alpha, measured, target, ratio, finite in rows:
        assert measured == pytest.approx(target, abs=1e-4), alpha
        assert finite, alpha
        assert 1.7 <= ratio <= 2.3, alpha


TAMEABLE_SPECS = ("trivial", "a4", "a3", "a3_z2", "rotations", "heisenberg_proj")


def test_criterion_6_certified_defect_bounds_multipliers(capsys, tmp_path, pytestconfig):
    specs_dir = pytestconfig.rootpath / "specs"
    certified = []
    margins = []
    for name in TAMEABLE_SPECS:
        spec = load_action_spec(specs_dir / f"{name}.spec")
        report = run_pipeline("tame-c1", spec, tmp_path / name, base_dir=specs_dir)
        if not report["certified"]:
            continue
        certified.append(name)
        eps = report["certify"]["epsilon"]
        for orbits in report["certify"]["final_periodic"].values():
            for orbit in orbits:
                margins.append(
                    orbit["period"] * eps * (1.0 + 1e-6)
                    - abs(orbit["log_multiplier"])
                )
    ok = len(certified) >= 2 and len(margins) >= 2 and all(m > 0 for m in margins)
    _emit(capsys, 6, ok, f"certified: {', '.join(certified)}; "
          f"{len(margins)} periodic multipliers all under N*eps "
          f"(min margin {min(margins):.2e})")
    # the two hyperbolic endpoints of the flattened interval generator must be
    # present, otherwise the bound below would hold vacuously
    assert len(margins) >= 2
    assert len(certified) >= 2
    assert all(m > 0 for m in margins)


def test_criterion_7_conjugacy_path(capsys):
    t0 = time.monotonic()
    act = conj_rotation_z2(4096)
    path8 = list(path_of_conjugates(act, 24, 8))
    path16 = list(path_of_conjugates(act, 24, 16))

    def max_step(samples):
        return max(max(d) for s in samples[1:] for d in s.c1_step.values())

    step8, step16 = max_step(path8), max_step(path16)
    gap = path8[-1].c1_gap
    rhos = [rotation_number(g, iters=20000)[0] for g in path8[-1].conjugated.gens]
    dt = time.monotonic() - t0
    rho_err = max(abs(rhos[0] - GOLDEN), abs(rhos[1] - SILVER))
    ok = step8 <= 3.0 * step16 and gap < 0.05 and rho_err <= 1e-4 and dt < 300.0
    _emit(capsys, 7, ok, f"step ratio {step8 / step16:.2f} <= 3, final gap {gap:.2e}, "
          f"rotation numbers off by {rho_err:.1e}, {dt:.0f}s")
    assert step8 <= 3.0 * step16
    assert gap < 0.05
    assert rho_err <= 1e-4
    assert dt < 300.0


def test_criterion_8_resilient_detection(capsys):
    act = pingpong_action(4096)
    witness = detect_resilient(act, 4, 0.01)
    assert witness is not None
    gaps = np.diff(np.asarray(witness.chain))
    none_rot = detect_resilient(rigid_rotations(4096), 4, 0.01)
    none_circle = detect_resilient(conj_rotation_action(4096), 4, 0.01)

    # the crossed pattern must survive the measure conjugacy: push the pair
    # (x, y) through the conjugator and re-evaluate the chain on the tamed maps
    tamed, _, measure = tame_lipschitz(act, 0.25, 6)
    F = measure.conjugator
    f_t = word_realize(tamed, witness.word_f)
    g_t = word_realize(tamed, witness.word_g)
    pair = F.eval_lift(np.array([witness.x, witness.y])) % 1.0
    fx, fy = f_t.eval_lift(pair) % 1.0
    gx, gy = g_t.eval_lift(pair) % 1.0
    chain2 = np.array([pair[0], fx, fy, gx, gy, pair[1]])
    gaps2 = np.diff(chain2)

    ok = (
        bool(np.all(gaps > 0.01))
        and none_rot is None
        and none_circle is None
        and bool(np.all(gaps2 > 1e-6))
    )
    _emit(capsys, 8, ok, f"witness ({witness.display_f}, {witness.display_g}) "
          f"min margin {gaps.min():.4f} > 0.01; rotations and the conjugated "
          f"rotation give none; tamed chain min gap {gaps2.min():.4f}")
    assert np.all(gaps > 0.01)
    assert none_rot is None
    assert none_circle is None
    assert np.all(gaps2 > 1e-6)


def _heis_mul(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])


def test_criterion_9_oracle_equivalences(capsys):
    # (a) weighted-orbit CDF against a closed-form series for x/(2-x)
    act = mobius_action(4096)
    measure = deroin_cdf(act, 0.5, 12)
    pts = np.linspace(0.05, 0.95, 10)

    def power(x, k):  # k-th iterate of x/(2-x) in closed form
        return x / ((1.0 - 2.0**k) * x + 2.0**k)

    direct = np.zeros_like(pts)
    total = 0.0
    for k in range(-12, 13):
        w = 0.5 ** abs(k)
        total += w
        direct += w * (power(pts, -k) - power(0.0, -k))
    raw_err = float(np.max(np.abs(np.asarray(measure.cdf_raw(pts)) - direct)))
    cdf_err = float(np.max(np.abs(measure.conjugator(pts) - direct / total)))

    # (b) Heisenberg balls against a breadth-first search on integer matrices,
    # stepping only by the two metric generators
    steps = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    letter_mat = {
        (0, 1): (1, 0, 0), (0, -1): (-1, 0, 0),
        (1, 1): (0, 1, 0), (1, -1): (0, -1, 0),
        (2, 1): (0, 0, 1), (2, -1): (0, 0, -1),
    }
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    levels = [set(seen)]
    for _ in range(8):
        nxt = []
        for p in frontier:
            for s in steps:
                q = _heis_mul(p, s)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
        levels.append(set(seen))
    heis = Presentation.heisenberg()
    balls_ok = True
    for k in range(9):
        ball = enumerate_ball(heis, k)
        mats = set()
        for word in ball.elements:
            m = (0, 0, 0)
            for ltr in word.letters:
                m = _heis_mul(m, letter_mat[ltr])
            mats.add(m)
        balls_ok = balls_ok and len(mats) == len(ball.elements) and mats == levels[k]

    # (c) compose/invert round trips on exact-callable generators
    x = np.linspace(0.0, 1.0, 2049)
    round_trip = 0.0
    for f in (mobius_gen(4096), wobble(4096)):
        for c in (compose(f, invert(f)), compose(invert(f), f)):
            round_trip = max(round_trip, float(np.max(np.abs(c.eval_lift(x) - x))))

    ok = (
        raw_err <= 1e-9
        and cdf_err <= 1e-9
        and abs(measure.mass - total) <= 1e-12
        and balls_ok
        and round_trip <= 1e-8
    )
    _emit(capsys, 9, ok, f"series gap {max(raw_err, cdf_err):.1e} <= 1e-9; "
          f"Heisenberg balls match BFS through radius 8; "
          f"round trips {round_trip:.1e} <= 1e-8")
    assert raw_err <= 1e-9 and cdf_err <= 1e-9
    assert abs(measure.mass - total) <= 1e-12
    assert balls_ok
    assert round_trip <= 1e-8
