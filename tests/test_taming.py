import numpy as np
import pytest

from conjtamer import (
    LambdaOutOfRange,
    deroin_cdf,
    pushforward_check,
    tame_lipschitz,
)

from conjtamer.diffeo import WalkState

from helpers import mobius_action, rigid_rotations, trivial_action

LAM = float(np.exp(-0.1))


def mobius_iterate(x, k):
    """Closed form for the k-th iterate of x/(2-x): eigenvalues 1 and 2."""
    return x / ((1 - 2.0**k) * x + 2.0**k)


# ---------------------------------------------------------------------------
# measure construction


def test_lambda_out_of_range():
    act = trivial_action(256)
    for lam in (0.0, 1.0, 1.3, -0.2):
        with pytest.raises(LambdaOutOfRange):
            deroin_cdf(act, lam, 4)


def test_trivial_action_gives_identity_cdf():
    m = deroin_cdf(trivial_action(256), 0.5, 6)
    x = np.linspace(0, 1, 257)
    assert float(np.max(np.abs(m.conjugator(x) - x))) <= 1e-12
    assert m.tail_bound > 0.0


def test_rotations_preserve_lebesgue():
    # every word pushforward of Leb is Leb, so the CDF is the identity
    m = deroin_cdf(rigid_rotations(512), 0.6, 4)
    x = np.linspace(0, 1, 400)
    assert float(np.max(np.abs(m.conjugator.eval_lift(x) - x))) <= 1e-9


def test_cdf_matches_direct_series():
    # raw CDF(x) = sum_k lam^|k| f^{-k}(x) for the Z-action, |k| <= radius
    act = mobius_action(1024)
    lam, radius = 0.5, 12
    m = deroin_cdf(act, lam, radius)
    x = np.linspace(0.05, 0.95, 10)
    direct = sum(
        lam ** abs(k) * mobius_iterate(x, -k) for k in range(-radius, radius + 1)
    )
    np.testing.assert_allclose(m.cdf_raw(x), direct, rtol=0, atol=1e-9)
    assert m.mass == pytest.approx(float(sum(lam ** abs(k) for k in range(-radius, radius + 1))), abs=1e-9)


def test_one_walk_at_the_nodes_feeds_tracks_and_raw_sums(monkeypatch):
    sizes = []
    start = WalkState.start.__func__

    def counted(cls, x, plans=()):
        sizes.append(np.size(x))
        return start(cls, x, plans)

    monkeypatch.setattr(WalkState, "start", classmethod(counted))
    for act in (mobius_action(256), rigid_rotations(256)):
        nodes = act.space.nodes
        sizes.clear()
        m = deroin_cdf(act, 0.8, 4)
        raw = m.raw_sums()
        assert sizes.count(nodes.size + 1) == 1  # the series walks x and 0
        assert np.array_equal(m.conjugator.values[:-1], raw[:-1] / m.mass)
        assert np.array_equal(raw, m.cdf_raw(nodes))


def test_mass_bound_certificate():
    m = deroin_cdf(mobius_action(512), LAM, 20)
    mass, bound, c = m.mass_bound_certificate()
    assert mass <= bound
    assert c >= 1.0


# ---------------------------------------------------------------------------
# taming


def test_trivial_action_tames_to_constants_one():
    # radius 40 puts the tail slack under the 2% refusal threshold
    tamed, report, _ = tame_lipschitz(trivial_action(256), LAM, 40)
    gt = report.per_generator["f"]
    assert gt.lip == pytest.approx(1.0, abs=1e-12)
    assert gt.lip_inv == pytest.approx(1.0, abs=1e-12)
    assert report.slack < 0.02
    assert report.certified


def test_rotations_tame_to_constants_one():
    # Z^2 growth makes the radius-4 tail slack large, so no certification
    # claim here; the conjugator is still the identity and the constants 1
    tamed, report, _ = tame_lipschitz(rigid_rotations(512), 0.6, 4)
    for gt in report.per_generator.values():
        assert gt.lip == pytest.approx(1.0, abs=1e-9)
        assert gt.lip_inv == pytest.approx(1.0, abs=1e-9)


def test_taming_shrinks_untamed_quotient():
    act = mobius_action(1024)
    f = act.gens[0]
    untamed = float(np.max(np.diff(f.values)) / f.space.h)
    assert untamed >= 1.99  # sup Df = 2 at the right endpoint
    tamed, report, _ = tame_lipschitz(act, LAM, 40)
    gt = report.per_generator["f"]
    bound = (1.0 / LAM) * (1.0 + report.slack)
    assert gt.lip <= bound and gt.lip_inv <= bound
    assert gt.lip < untamed / 1.5
    assert report.slack < 0.02
    assert report.certified


def test_taming_converges_monotonically_in_radius():
    act = mobius_action(1024)
    lips = []
    for radius in (10, 20, 40):
        _, report, _ = tame_lipschitz(act, LAM, radius)
        gt = report.per_generator["f"]
        lips.append(max(gt.lip, gt.lip_inv))
    assert lips[0] >= lips[1] >= lips[2] - 1e-12
    assert lips[-1] <= 1.0 / LAM * (1.0 + report.slack)


def test_refusal_when_slack_exceeds_threshold():
    _, report, _ = tame_lipschitz(mobius_action(512), LAM, 10, refuse_threshold=1e-12)
    assert not report.certified
    assert report.slack > 1e-12


def test_two_scale_agreement_reported():
    _, report, _ = tame_lipschitz(mobius_action(1024), LAM, 24)
    gt = report.per_generator["f"]
    assert gt.two_scale_ok
    assert gt.lip_coarse == pytest.approx(gt.lip, rel=0.05)


# ---------------------------------------------------------------------------
# pushforward inequality


def test_pushforward_no_violations_on_mobius():
    act = mobius_action(1024)
    _, _, measure = tame_lipschitz(act, LAM, 24)  # slack irrelevant here
    results = pushforward_check(act, measure)
    for name, res in results.items():
        assert res["violations"] == 0
        assert res["max_violation"] <= 0.0


def test_pushforward_no_violations_on_rotations():
    act = rigid_rotations(512)
    measure = deroin_cdf(act, 0.6, 4)
    for res in pushforward_check(act, measure).values():
        assert res["violations"] == 0


def test_report_to_dict_round_trips_keys():
    _, report, _ = tame_lipschitz(trivial_action(256), LAM, 40)
    d = report.to_dict()
    assert d["certified"] is True
    assert set(d["per_generator"]) == {"f"}
    assert {"lip", "lip_inv", "two_scale_ok"} <= set(d["per_generator"]["f"])
