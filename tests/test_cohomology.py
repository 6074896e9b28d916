import numpy as np
import pytest

from conjtamer import (
    ConjTamerError,
    Diffeo,
    GridFunction,
    NotPeriodic,
    SizeOverflow,
    birkhoff_field,
    birkhoff_solution,
    cocycle_defect,
    empirical_measure_integral,
    invariant_mean_log_derivative,
    log_density_normalizer,
    nilpotent_average_solution,
    path_of_conjugates,
)
from conjtamer import Action, Presentation, build_diffeo
from conjtamer.space import circle, interval

from helpers import (
    conj_rotation_action,
    conj_rotation_z2,
    mobius_action,
    pingpong_action,
    rigid_rotations,
    trivial_action,
    wobble,
)

LOG2 = float(np.log(2.0))


# ---------------------------------------------------------------------------
# Birkhoff fields


def test_field_matches_orbit_sums_z1():
    act = conj_rotation_action(512)
    g = act.gens[0]
    x = np.array([0.0, 0.3, 0.71])
    field = birkhoff_field(act, 6, x)
    assert field.shape == (7, 3)
    # row n = sum of cocycles c(g^k)(x) over 0 <= k < n, with
    # c(g^k)(x) = sum_{j<k} log Dg(g^j x); row 1 is c(id) = 0
    cocycle = np.zeros_like(x)
    total = np.zeros_like(x)
    y = x.copy()
    for n in range(1, 7):
        total = total + cocycle
        np.testing.assert_allclose(field[n], total, atol=1e-12)
        cocycle = cocycle + g.log_derivative(y)
        y = g.eval_lift(y)


def test_field_matches_double_loop_z2():
    act = conj_rotation_z2(256)
    x = np.array([0.2])
    field = birkhoff_field(act, 3, x)
    for n in range(1, 4):
        total = 0.0
        for k1 in range(n):
            for k2 in range(n):
                letters = [(0, 1)] * k1 + [(1, 1)] * k2
                c, _ = act.word_cocycle(letters, x)
                total += float(c[0])
        assert field[n, 0] == pytest.approx(total, abs=1e-10)


def test_field_requires_abelian_presentation():
    with pytest.raises(ConjTamerError):
        birkhoff_field(pingpong_action(512), 4, np.array([0.5]))


def test_field_size_cap():
    with pytest.raises(SizeOverflow):
        birkhoff_field(rigid_rotations(256), 7000, np.array([0.1]))


# ---------------------------------------------------------------------------
# solutions and defects


def test_zero_candidate_on_trivial_action_has_zero_defect():
    act = trivial_action(256)
    u = GridFunction(act.space, np.zeros(act.space.track_length))
    defects, _ = cocycle_defect(u, act)
    assert defects["f"] == 0.0


def test_zero_candidate_on_mobius_measures_log2():
    act = mobius_action(512)
    u = GridFunction(act.space, np.zeros(act.space.track_length))
    defects, locations = cocycle_defect(u, act)
    assert defects["f"] == pytest.approx(LOG2, abs=1e-12)
    assert locations["f"] in (0.0, 1.0)


def test_defect_decreases_along_ball_sizes():
    act = conj_rotation_action(1024)
    d = [birkhoff_solution(act, n).defect for n in (2, 4, 8)]
    assert d[0] > d[1] > d[2]
    assert d[2] < 0.05


def test_exact_solution_has_grid_level_defect():
    # g = h R h^{-1} is solved exactly by u = -log Dh o h^{-1}
    act = conj_rotation_action(1024)
    h = wobble(1024)
    tn = act.space.track_nodes()
    u = GridFunction(act.space, -h.log_derivative(h.invert_lift(tn)))
    defects, _ = cocycle_defect(u, act)
    g = act.gens[0]
    lip_logdg = float(
        np.max(np.abs(np.diff(g.log_deriv.samples))) / act.space.h
    )
    assert defects["g"] <= 5.0 * lip_logdg / act.space.grid_size


def test_telescoping_defect_equals_empirical_integral():
    act = conj_rotation_z2(512)
    n = 8
    sol = birkhoff_solution(act, n)
    defects, locations = cocycle_defect(sol.u, act)
    for i, name in enumerate(act.names):
        emp = empirical_measure_integral(act, i, n, np.array([locations[name]]))
        assert abs(defects[name] - abs(float(emp[0]))) <= 1e-10


def test_empirical_integral_vanishes_for_rotations():
    act = rigid_rotations(512)
    for i in range(2):
        v = empirical_measure_integral(act, i, 5, np.array([0.123]))
        assert float(np.abs(v[0])) == 0.0


def test_empirical_integral_at_fixed_point():
    # the orbit of 0 is {0}, so the integral is log Df(0) = -log 2 for all n
    act = mobius_action(512)
    for n in (1, 2, 5):
        v = empirical_measure_integral(act, 0, n, np.array([0.0]))
        assert float(v[0]) == pytest.approx(-LOG2, abs=1e-12)


def test_defect_refined_close_to_defect():
    sol = birkhoff_solution(conj_rotation_action(512), 8)
    for name, d in sol.defect_per_generator.items():
        assert sol.defect_refined[name] == pytest.approx(d, rel=0.2, abs=1e-3)


def test_birkhoff_rejects_free_presentation():
    with pytest.raises(ConjTamerError):
        birkhoff_solution(pingpong_action(512), 4)


def test_nilpotent_solution_on_commuting_rotations():
    # Heisenberg presentation realized through rotations (c = identity):
    # a valid nilpotent action whose shell averages behave like the abelian one
    sp = circle(512)
    p = Presentation.heisenberg()
    act = Action(
        sp,
        p,
        {
            "a": build_diffeo("x + 0.25", sp),
            "b": build_diffeo("x + 0.125", sp),
            "c": build_diffeo("x", sp),
        },
    )
    sol = nilpotent_average_solution(act, p, shell_index=0, k_max=4)
    assert sol.construction.startswith("nilpotent-shell")
    assert sol.defect <= 1e-12
    assert "shell_radius" in sol.extras


# ---------------------------------------------------------------------------
# conjugacies from log-densities


def test_constant_density_gives_identity():
    sp = interval(512)
    x = np.linspace(0, 1, 600)
    for c in (0.0, 5.0, -2.5):
        phi = Diffeo.from_log_deriv(sp, np.full(sp.track_length, c))
        assert float(np.max(np.abs(phi(x) - x))) <= 1e-12


def test_density_of_known_map_recovers_it():
    sp = circle(4096)
    h = wobble(4096)
    phi = Diffeo.from_log_deriv(sp, h.log_deriv.samples)
    x = np.linspace(0, 1, 1500)
    assert float(np.max(np.abs(phi.eval_lift(x) - h.eval_lift(x)))) <= 1e-6


def test_blended_solutions_stay_subprobability():
    act = conj_rotation_action(512)
    u8 = birkhoff_solution(act, 8).u.samples
    u9 = birkhoff_solution(act, 9).u.samples
    for s in (0.25, 0.5, 0.75):
        c = log_density_normalizer(act.space, (1 - s) * u8 + s * u9)
        assert c >= -1e-12  # integral of the blended density is <= 1


# ---------------------------------------------------------------------------
# invariant means


def test_invariant_mean_zero_for_rotation():
    act = rigid_rotations(512)
    m = invariant_mean_log_derivative(act.gens[0], x=0.3, n=500)
    assert m == 0.0


def test_invariant_mean_on_fixed_orbit():
    f = mobius_action(512).gens[0]
    assert invariant_mean_log_derivative(f, orbit=[0.0]) == pytest.approx(
        -LOG2, abs=1e-12
    )
    assert invariant_mean_log_derivative(f, orbit=[1.0]) == pytest.approx(
        LOG2, abs=1e-12
    )


def test_invariant_mean_along_long_orbit():
    f = mobius_action(512).gens[0]
    m = invariant_mean_log_derivative(f, x=0.5, n=10_000)
    assert m == pytest.approx(-LOG2, abs=1e-3)


def test_invariant_mean_rejects_non_orbit():
    f = mobius_action(512).gens[0]
    with pytest.raises(NotPeriodic):
        invariant_mean_log_derivative(f, orbit=[0.3])


# ---------------------------------------------------------------------------
# paths


def test_path_constant_for_rotations():
    act = rigid_rotations(256)
    samples = list(path_of_conjugates(act, 3, 2))
    assert len(samples) == 5
    assert [s.t for s in samples] == [1.0, 1.5, 2.0, 2.5, 3.0]
    for s in samples:
        assert s.c1_gap <= 1e-12
    x = np.linspace(0, 1, 100)
    assert float(np.max(np.abs(samples[-1].phi.eval_lift(x) - x))) <= 1e-9


def test_path_gap_matches_integer_defects():
    act = conj_rotation_action(512)
    samples = list(path_of_conjugates(act, 4, 2))
    by_t = {s.t: s for s in samples}
    for n in (1, 2, 3, 4):
        want = birkhoff_solution(act, n).defect
        assert by_t[float(n)].c1_gap == pytest.approx(want, abs=1e-9)
    assert by_t[4.0].c1_gap < by_t[1.0].c1_gap


def test_path_records_steps():
    act = conj_rotation_action(512)
    samples = list(path_of_conjugates(act, 2, 3))
    assert samples[0].c1_step is None
    for s in samples[1:]:
        assert set(s.c1_step) == {"g"}
        for pair in s.c1_step.values():
            assert pair[0] >= 0.0 and pair[1] >= 0.0
