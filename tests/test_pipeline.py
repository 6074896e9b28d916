import gc
import json
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conjtamer import (
    CertificationFailure,
    Diffeo,
    GridFunction,
    SpecError,
    birkhoff_field,
    birkhoff_solution,
    build_action,
    cocycle_defect,
    flatten_hyperbolic,
    load_action_spec,
    parse_action_spec,
    path_of_conjugates,
    path_phi,
    run_pipeline,
)
from conjtamer.cli import main
from conjtamer.specfile import _PIPELINE_KEYS, PipelineParams
import conjtamer.cohomology as cohomology
import conjtamer.periodic as periodic_mod
import conjtamer.pipeline as pipeline_mod

from helpers import log_deriv_sup

ROOT = Path(__file__).resolve().parents[1]

TRIVIAL = textwrap.dedent(
    """\
    [space]
    kind = interval
    grid_size = 256

    [group]
    type = abelian
    generators = f

    [generators]
    f = x

    [pipeline]
    epsilon = 0.01
    """
)

# 1024 is the coarsest grid where the u-interpolation near the flattened
# germ keeps final sup|log D| under the measured defect
A4_SMALL = textwrap.dedent(
    """\
    [space]
    kind = interval
    grid_size = 1024

    [group]
    type = abelian
    generators = f

    [generators]
    f = mobius(1, 0, -1, 2)

    [pipeline]
    lambda = 0.9048374180359595
    radius = 24
    epsilon = 0.1
    delta = 0.1
    nmax = 48
    """
)

# epsilon 0.25, the bench's interval-hyperbolic setting: A4_SMALL's final
# sup|log D| of 0.1725 certifies there, for tests of what a run exports
A4_SMALL_EPS = A4_SMALL.replace("epsilon = 0.1\n", "epsilon = 0.25\n")

A3_SMALL = textwrap.dedent(
    """\
    [space]
    kind = circle
    grid_size = 512

    [group]
    type = abelian
    generators = g1 g2

    [generators]
    g1 = conj(x + 0.1*sin(2*pi*x), 0.618034)
    g2 = conj(x + 0.1*sin(2*pi*x), 0.414214)

    [pipeline]
    epsilon = 0.05
    nmax = 4
    steps = 2
    """
)

PINGPONG_SMALL = textwrap.dedent(
    """\
    [space]
    kind = circle
    grid_size = 512

    [group]
    type = free
    generators = f g

    [generators]
    f = pwl(0:0, 0.05:0.12, 0.95:0.28, 1:1)
    g = pwl(0:0, 0.05:0.52, 0.95:0.68, 1:1)

    [pipeline]
    max_word_len = 2
    resolution = 0.01
    """
)


HEISENBERG_SMALL = textwrap.dedent(
    """\
    [space]
    kind = circle
    grid_size = 128

    [group]
    type = nilpotent
    generators = a b c
    rules = "b a -> a b c^-1", "b a^-1 -> a^-1 b c"
    rules = "b^-1 a -> a b^-1 c", "b^-1 a^-1 -> a^-1 b^-1 c^-1"
    rules = "c a -> a c", "c a^-1 -> a^-1 c", "c b -> b c", "c b^-1 -> b^-1 c"
    rules = "c^-1 a -> a c^-1", "c^-1 a^-1 -> a^-1 c^-1"
    rules = "c^-1 b -> b c^-1", "c^-1 b^-1 -> b^-1 c^-1"
    bounded_generation = 7
    metric_generators = a b

    [generators]
    a = conj(x + 0.1*sin(2*pi*x), 0.618034)
    b = conj(x + 0.1*sin(2*pi*x), 0.414214)
    c = x

    [pipeline]
    epsilon = 0.75
    delta = 0.1
    k_max = 3
    shell_index = 0
    """
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# run_pipeline


def test_report_command_trivial(tmp_path):
    spec = parse_action_spec(TRIVIAL)
    report = run_pipeline("report", spec, str(tmp_path / "out"))
    assert report["schema_version"] == 2
    assert report["command"] == "report"
    assert report["sup_log_deriv"]["f"] == 0.0
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk == json.loads(json.dumps(report))


def test_tame_c1_trivial_is_flat_everywhere(tmp_path):
    spec = parse_action_spec(TRIVIAL)
    report = run_pipeline("tame-c1", spec, str(tmp_path / "out"))
    cert = report["certify"]
    assert cert["certified"] is True
    assert cert["final_sup_log_deriv"] == 0.0
    assert cert["defect"] == 0.0
    assert report["flatten"]["skipped"] is True


def test_tame_c1_requires_epsilon(tmp_path):
    spec = parse_action_spec(TRIVIAL.replace("epsilon = 0.01\n", "nmax = 4\n"))
    with pytest.raises(SpecError):
        run_pipeline("tame-c1", spec, str(tmp_path / "out"))


def test_tame_c1_certification_failure_still_writes_report(tmp_path):
    spec = parse_action_spec(A3_SMALL)
    out = tmp_path / "out"
    with pytest.raises(CertificationFailure):
        run_pipeline(
            "tame-c1", spec, str(out), overrides={"epsilon": 1e-4, "nmax": 8}
        )
    report = json.loads((out / "report.json").read_text())
    assert report["certify"]["certified"] is False


def test_tame_c1_rejects_free_groups(tmp_path):
    spec = parse_action_spec(PINGPONG_SMALL)
    with pytest.raises(SpecError):
        run_pipeline("tame-c1", spec, str(tmp_path / "out"), overrides={"epsilon": 0.1})


def test_tame_c1_output_reingests_no_worse(tmp_path):
    spec = parse_action_spec(A4_SMALL_EPS)
    out = tmp_path / "out"
    report = run_pipeline("tame-c1", spec, str(out))
    assert report["certify"]["certified"] is True
    final_sup = report["certify"]["final_sup_log_deriv"]

    re_spec = load_action_spec(str(out / "tamed.spec"))
    act = build_action(re_spec, base_dir=str(out))
    rebuilt_sup = max(log_deriv_sup(g) for g in act.gens)
    assert rebuilt_sup <= final_sup + 2 * 4.0 / re_spec.grid_size


def test_solve_on_a_reingested_z2_export_measures_u_at_the_images(tmp_path):
    # the exported generators commute within the relation tolerance, not
    # exactly, so the faces of the ball are not u's defect: the solve and
    # the path measure u at the generator images, and tame-c1 reports the
    # cocycle_defect of its own u (the faces gave 8.46e-5 for g1's 1.15e-4)
    spec = str(Path(__file__).resolve().parents[1] / "specs" / "a3_z2.spec")
    first = tmp_path / "first"
    args = ["--grid", "512", "--nmax", "8"]
    assert main(["tame-c1", "--spec", spec, "--out", str(first)] + args) == 0
    tamed = str(first / "tamed.spec")
    assert main(["tame-c1", "--spec", tamed, "--nmax", "8", "--out", str(tmp_path / "c1")]) == 0
    assert main(["path", "--spec", tamed, "--nmax", "8", "--steps", "1", "--out", str(tmp_path / "p")]) == 0
    solve = json.loads((tmp_path / "c1" / "report.json").read_text())["solve"]
    action = build_action(load_action_spec(tamed), base_dir=str(first))
    assert not cohomology._faces_are_defects(action)
    u = birkhoff_solution(action, 8).u
    assert (solve["defect_per_generator"], solve["defect_locations"]) == cocycle_defect(u, action)
    assert solve["defect_per_generator"]["g1"] > 1e-4
    gap = json.loads((tmp_path / "p" / "report.json").read_text())["path"]["final_c1_gap"]
    assert gap == pytest.approx(solve["defect"], rel=1e-12, abs=0)


def test_detect_finds_pingpong_witness(tmp_path):
    spec = parse_action_spec(PINGPONG_SMALL)
    out = tmp_path / "out"
    report = run_pipeline("detect", spec, str(out))
    assert report["detect"]["found"] is True
    w = json.loads((out / "detect.json").read_text())
    assert w["margin"] > 0.01
    assert w["word_f"] == "f"


def test_detect_finds_interval_witness(tmp_path):
    spec = parse_action_spec(PINGPONG_SMALL.replace("kind = circle", "kind = interval"))
    out = tmp_path / "out"
    report = run_pipeline("detect", spec, str(out))
    assert report["detect"]["found"] is True
    w = json.loads((out / "detect.json").read_text())
    assert (w["word_f"], w["word_g"]) == ("f", "g")
    # the interval scans every node of the 512 grid
    assert (w["x"], w["y"]) == (12 / 512, 325 / 512)
    assert w["chain"] == sorted(w["chain"]) and w["margin"] > 0.01


def test_detect_null_on_commuting_rotations(tmp_path):
    text = A3_SMALL.replace("conj(x + 0.1*sin(2*pi*x), ", "x + ").replace(")\n", "\n")
    spec = parse_action_spec(
        textwrap.dedent(
            """\
            [space]
            kind = circle
            grid_size = 512

            [group]
            type = abelian
            generators = r1 r2

            [generators]
            r1 = x + 0.618034
            r2 = x + 0.414214

            [pipeline]
            max_word_len = 3
            resolution = 0.01
            """
        )
    )
    out = tmp_path / "out"
    report = run_pipeline("detect", spec, str(out))
    assert report["detect"]["found"] is False
    assert json.loads((out / "detect.json").read_text()) is None


def test_flatten_then_reingest(tmp_path):
    spec = parse_action_spec(A4_SMALL)
    out = tmp_path / "out"
    report = run_pipeline("flatten", spec, str(out))
    assert report["flatten"]["alpha"] == pytest.approx(np.log(2) / 0.1, abs=1e-9)
    re_spec = load_action_spec(str(out / "flat.spec"))
    act = build_action(re_spec, base_dir=str(out))
    # flattened multipliers sit at exp(+-delta)
    g = act.gens[0]
    d0 = float(g.derivative(np.array([0.0]))[0])
    assert d0 == pytest.approx(np.exp(-0.1), abs=1e-3)


# f commutes with R_1/4 and moves x = k/8 by exactly 1/4: hyperbolic orbits
# of least period 4, none of period 3 or less
PERIOD_FOUR = textwrap.dedent(
    """\
    [space]
    kind = circle
    grid_size = 512

    [group]
    type = abelian
    generators = f

    [generators]
    f = x + 0.25 + 0.005*sin(8*pi*x)

    [pipeline]
    epsilon = 0.1
    nmax = 48
    """
)


def test_cli_tame_c1_does_not_certify_past_its_epsilon_on_period_four(tmp_path):
    # hyperbolic period-4 orbits go unflattened (the inventory stops at
    # period 3); the final sup|log D| of 0.134 exceeds epsilon = 0.1, and the
    # certificate compares it with epsilon alone
    spec = write(tmp_path, "p4.spec", PERIOD_FOUR)
    out = tmp_path / "out"
    main(["tame-c1", "--spec", spec, "--out", str(out)])
    assert json.loads((out / "report.json").read_text()).get("certified") is not True


@pytest.mark.parametrize("text", [A4_SMALL, PERIOD_FOUR], ids=["a4", "period-four"])
def test_cli_flatten_stages_equal_the_tame_c1_stages(tmp_path, text):
    # nmax = 48 is tame-c1's ball radius, not a period bound: the three
    # commands inventory the periods up to 3 and flatten what they find there
    spec = write(tmp_path, "p.spec", text)
    reports = {}
    for command, *flags in (["flatten"], ["tame-c1"], ["path", "--nmax", "4", "--steps", "1"]):
        out = tmp_path / command
        assert main([command, "--spec", spec, "--out", str(out)] + flags) in (0, 3)
        reports[command] = json.loads((out / "report.json").read_text())
    for section in ("periodic", "flatten"):
        assert reports["flatten"][section] == reports["tame-c1"][section]
        assert reports["path"][section] == reports["tame-c1"][section]


# x + 0.05 sin(2 pi x) has hyperbolic fixed points at 0 and 1/2
CIRCLE_HYPERBOLIC = textwrap.dedent(
    """\
    [space]
    kind = circle
    grid_size = 512

    [group]
    type = abelian
    generators = f

    [generators]
    f = x + 0.05*sin(2*pi*x)

    [pipeline]
    epsilon = 0.1
    delta = 0.1
    nmax = 8
    """
)


@pytest.mark.parametrize(
    "text", [A4_SMALL, A3_SMALL, CIRCLE_HYPERBOLIC], ids=["a4", "z2", "circle-flattening"]
)
def test_path_ends_where_the_tame_c1_solve_ends(tmp_path, text):
    # one prefix: the path's last sample conjugates the action that tame-c1
    # solves on by tame-c1's solution u_nmax, up to the ball's summation order
    # and its gap track is |log D| of that sample's conjugates at phi(nodes)
    spec = write(tmp_path, "p.spec", text)
    assert main(["tame-c1", "--spec", spec, "--out", str(tmp_path / "c1")]) in (0, 3)
    assert main(["path", "--spec", spec, "--out", str(tmp_path / "path"), "--steps", "1"]) == 0
    c1 = json.loads((tmp_path / "c1" / "report.json").read_text())
    path = json.loads((tmp_path / "path" / "report.json").read_text())["path"]
    assert path["final_c1_gap"] == pytest.approx(c1["solve"]["defect"], rel=0, abs=1e-12)
    loaded = load_action_spec(spec)
    action = pipeline_mod._periodic_flatten(build_action(loaded), {"stage_order": []}, loaded.params)
    last = list(path_of_conjugates(action, loaded.params.nmax, 1))[-1]
    m = action.space.track_length
    track = max(
        float(np.max(np.abs(g.jet(last.phi.values[:m])[1]))) for g in last.conjugated.gens
    )
    assert path["final_c1_gap_track"] == pytest.approx(track, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "text", [A3_SMALL, A4_SMALL, CIRCLE_HYPERBOLIC], ids=["z2", "a4", "circle-flattening"]
)
def test_path_gap_track_differs_from_the_gap_by_the_interpolation_of_u(text):
    # log D(phi_t g phi_t⁻¹)(phi_t y) reads u_t piecewise linearly at g(y),
    # where the defect field reads the ball average exactly: the two sups
    # differ by at most the blended max |u_PL - u| at the images g(nodes)
    spec = parse_action_spec(text)
    action = pipeline_mod._periodic_flatten(build_action(spec), {"stage_order": []}, spec.params)
    nmax, tn = spec.params.nmax, action.space.track_nodes()
    images = np.concatenate([g.eval_lift(tn) for g in action.gens])
    rows = birkhoff_field(action, nmax, np.concatenate([tn, images]))
    err = [None]
    for n in range(1, nmax + 1):
        u = rows[n] / float(n**action.rank)
        u_pl = GridFunction(action.space, u[: tn.size]).interp(images)
        err.append(float(np.max(np.abs(u_pl - u[tn.size :]))))
    assert max(err[1:]) > 0.0
    for s in path_of_conjugates(action, nmax, spec.params.steps):
        bound = (1.0 - s.s) * err[s.n] + s.s * err[min(s.n + 1, nmax)]
        assert abs(s.c1_gap_track - s.c1_gap) <= bound + 1e-12


def test_flattening_tame_c1_inventories_each_action_once(tmp_path, monkeypatch):
    # the periodic stage hands its orbits to the flatten stage; certify
    # inventories the final action: 2 inventories per generator, not 3
    calls = []
    real = periodic_mod.find_periodic_points

    def counting(f, *args, **kwargs):
        calls.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(periodic_mod, "find_periodic_points", counting)
    monkeypatch.setattr(pipeline_mod, "find_periodic_points", counting)
    text = A4_SMALL.replace("generators = f", "generators = f g").replace(
        "f = mobius(1, 0, -1, 2)", "f = mobius(1, 0, -1, 2)\ng = mobius(1, 0, -3, 4)"
    )
    spec = write(tmp_path, "z2.spec", text)
    out = tmp_path / "out"
    assert main(["tame-c1", "--spec", spec, "--out", str(out), "--grid", "256", "--nmax", "4"]) in (0, 3)
    assert json.loads((out / "report.json").read_text())["flatten"]["skipped"] is False
    assert len(calls) == 2 * 2


@pytest.mark.parametrize(
    "command, exported",
    [("tame-lipschitz", "tamed.spec"), ("tame-c1", "tamed.spec"), ("flatten", "flat.spec")],
)
def test_exported_spec_carries_the_run_parameters(tmp_path, command, exported):
    # radius 40 overrides the spec's 24 with the default, so it is left out
    spec = parse_action_spec(A4_SMALL_EPS)
    for i, overrides in enumerate([{"radius": 40, "max_word_len": 3}, {"radius": 40}]):
        out = tmp_path / f"out{i}"
        run_pipeline(command, spec, str(out), overrides=overrides)
        re_spec = load_action_spec(str(out / exported))
        assert re_spec.params == spec.params.merged(**overrides)
        text = (out / exported).read_text()
        assert "k_max" not in text and "radius" not in text  # defaults stay out


def test_cli_tame_c1_runs_on_an_exported_flat_spec(tmp_path):
    spec = write(tmp_path, "a4.spec", A4_SMALL)
    flat = tmp_path / "flat"
    assert main(["flatten", "--spec", spec, "--out", str(flat)]) == 0
    out = tmp_path / "out"
    assert main(["tame-c1", "--spec", str(flat / "flat.spec"), "--out", str(out)]) != 2
    assert json.loads((out / "report.json").read_text())["certify"]["epsilon"] == 0.1


@pytest.mark.parametrize("alpha", [[], ["--alpha", "1.5"]])
def test_cli_flatten_refuses_a_flagged_point_mapped_off_the_flagged_set(
    tmp_path, capsys, alpha
):
    # f's fixed points are not g's, so a flattening conjugacy would give the
    # conjugate of g derivative 0 at f's flagged points
    spec = write(tmp_path, "pp.spec", PINGPONG_SMALL)
    out = tmp_path / "out"
    assert main(["flatten", "--spec", spec, "--out", str(out)] + alpha) == 1
    assert "which is not flagged" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["failed_stage"] == "flatten"


def test_path_outputs(tmp_path):
    spec = parse_action_spec(A3_SMALL)
    out = tmp_path / "out"
    report = run_pipeline("path", spec, str(out))
    lines = (out / "path.jsonl").read_text().splitlines()
    assert len(lines) == (4 - 1) * 2 + 1
    first = json.loads(lines[0])
    assert first["t"] == 1.0
    assert set(first) >= {"t", "n", "s", "u", "space", "c1_gap", "gap_per_generator"}
    csv_lines = (out / "plot.csv").read_text().splitlines()
    assert csv_lines[0] == "t,c1_gap,defect_g1,defect_g2"
    assert len(csv_lines) == len(lines) + 1
    assert report["path"]["samples"] == len(lines)


@pytest.mark.parametrize("text", [PINGPONG_SMALL, HEISENBERG_SMALL], ids=["free", "nilpotent"])
def test_cli_path_refuses_non_abelian_groups_before_the_prefix(tmp_path, capsys, text):
    spec = write(tmp_path, "p.spec", text)
    out = tmp_path / "out"
    assert main(["path", "--spec", spec, "--out", str(out)]) == 2
    assert "path needs an abelian group" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    # path certifies nothing, so its refusal writes no certified key
    assert report["stage_order"] == ["build"] and "certified" not in report


@pytest.mark.parametrize("text", [A3_SMALL, A4_SMALL], ids=["z2", "a4-flattened"])
def test_path_phi_rebuilds_every_sample_bit_for_bit(tmp_path, text):
    spec = parse_action_spec(text)
    out = tmp_path / "out"
    run_pipeline("path", spec, str(out), overrides={"nmax": 4, "steps": 2})
    # the path conjugates the flattened action (a4; z2 has nothing to flatten)
    action = flatten_hyperbolic(build_action(spec), delta=0.1)[0]
    samples = list(path_of_conjugates(action, 4, 2))
    lines = [json.loads(line) for line in (out / "path.jsonl").read_text().splitlines()]
    assert [line["t"] for line in lines] == [s.t for s in samples]
    assert (lines[-1]["t"], lines[-1]["n"], lines[-1]["s"]) == (4.0, 3, 1.0)
    u = {s.t: s.u for s in samples if s.u is not None}
    assert sorted(u) == [1.0, 2.0, 3.0, 4.0]
    for s in samples:
        want = (1.0 - s.s) * u[s.n] + s.s * u[s.n + 1]
        phi = Diffeo.from_log_deriv(action.space, want)
        assert s.phi.to_payload() == phi.to_payload()
        assert path_phi(str(out / "path.jsonl"), s.t).to_payload() == phi.to_payload()
    with pytest.raises(ValueError, match="not a sample"):
        path_phi(str(out / "path.jsonl"), 1.25)


def test_reports_are_byte_deterministic(tmp_path):
    spec1 = parse_action_spec(A3_SMALL)
    spec2 = parse_action_spec(A3_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_pipeline("path", spec1, str(out1))
    run_pipeline("path", spec2, str(out2))
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "path.jsonl").read_bytes() == (out2 / "path.jsonl").read_bytes()
    assert (out1 / "plot.csv").read_bytes() == (out2 / "plot.csv").read_bytes()


def test_tame_lipschitz_report_fields(tmp_path):
    spec = parse_action_spec(A4_SMALL)
    report = run_pipeline(
        "tame-lipschitz", spec, str(tmp_path / "out"), overrides={"radius": 40}
    )
    t = report["taming"]
    assert t["certified"] is True
    assert t["slack"] < 0.02
    m = report["measure"]
    assert m["mass"] <= m["mass_bound"]
    assert report["pushforward"]["f"]["violations"] == 0


# ---------------------------------------------------------------------------
# CLI


def test_cli_report_exit_zero(tmp_path, capsys):
    spec = write(tmp_path, "t.spec", TRIVIAL)
    assert main(["report", "--spec", spec, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.json").exists()
    assert "report" in capsys.readouterr().out


def test_cli_missing_spec_exit_two(tmp_path):
    assert main(["report", "--spec", str(tmp_path / "nope.spec"), "--out", str(tmp_path / "o")]) == 2


def test_cli_malformed_spec_exit_two(tmp_path):
    spec = write(tmp_path, "bad.spec", "[space]\nkind = dodecahedron\n")
    assert main(["report", "--spec", spec, "--out", str(tmp_path / "o")]) == 2


def test_cli_certification_failure_exit_three(tmp_path):
    spec = write(tmp_path, "a3.spec", A3_SMALL)
    out = tmp_path / "out"
    code = main(
        ["tame-c1", "--spec", spec, "--out", str(out), "--epsilon", "0.0001", "--nmax", "8"]
    )
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["certify"]["certified"] is False


def run_python(*args):
    """A fresh interpreter on this checkout's sources, run with args."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_main_leaves_the_collector_alone_and_the_entry_freezes(tmp_path):
    # main runs in-process (tests, perfbench/traced.py): it must neither
    # disable nor freeze the collector; entry, which `python -m conjtamer`
    # and the console script run, freezes the imported heap before main and
    # what outlives main (here a list main makes) after it
    spec = write(tmp_path, "t.spec", TRIVIAL)
    frozen = gc.get_freeze_count()
    assert main(["report", "--spec", spec, "--out", str(tmp_path / "in")]) == 0
    assert gc.isenabled() and gc.get_freeze_count() == frozen
    code = (
        "import gc, sys\n"
        "import conjtamer.cli as cli\n"
        "run, seen = cli.main, []\n"
        "def main():\n"
        "    seen.append([gc.get_freeze_count()])\n"
        "    return run(['report', '--spec', sys.argv[1], '--out', sys.argv[2]])\n"
        "cli.main = main\n"
        "rc = cli.entry()\n"
        "sys.exit(rc or not (gc.isenabled() and 0 < seen[0][0] < gc.get_freeze_count()))\n"
    )
    done = run_python("-c", code, spec, str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr


def test_module_entry_matches_the_in_process_run(tmp_path, capsys):
    spec = str(ROOT / "specs" / "a3.spec")
    assert main(["report", "--spec", spec, "--out", str(tmp_path / "in")]) == 0
    done = run_python("-m", "conjtamer", "report", "--spec", spec, "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == capsys.readouterr().out == "report: wrote report.json\n"
    report = (tmp_path / "out" / "report.json").read_bytes()
    assert report == (tmp_path / "in" / "report.json").read_bytes()


def test_module_entry_keeps_the_certification_exit_code(tmp_path):
    spec = write(tmp_path, "a3.spec", A3_SMALL)
    out = tmp_path / "out"
    done = run_python("-m", "conjtamer", "tame-c1", "--spec", spec, "--out", str(out),
                      "--epsilon", "0.0001", "--nmax", "8")
    assert done.returncode == 3, done.stderr
    assert "certification failure" in done.stderr
    assert json.loads((out / "report.json").read_text())["certified"] is False


def test_importing_the_cli_builds_no_generated_code():
    # a @dataclass is compiled from generated source at import (some 0.5 ms
    # a class); the records are NamedTuples and slotted classes instead, so
    # nothing past numpy imports dataclasses
    code = (
        "import sys\n"
        "import numpy\n"
        "before = 'dataclasses' in sys.modules\n"
        "import conjtamer.cli\n"
        "sys.exit(not before and 'dataclasses' in sys.modules)\n"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr or "import conjtamer.cli imported dataclasses"


def test_cli_tame_c1_refuses_multipliers_beyond_epsilon(tmp_path):
    # flattening a4 with delta 0.15 leaves log multipliers of ±0.15 against
    # epsilon 0.1; a multiplier is a conjugacy invariant, so no conjugate
    # meets epsilon and the run must not certify, whatever its final sup
    spec = Path(__file__).resolve().parent.parent / "specs" / "a4.spec"
    out = tmp_path / "out"
    argv = ["tame-c1", "--spec", str(spec), "--grid", "512", "--delta", "0.15", "--nmax", "48"]
    assert main(argv + ["--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["certify"]["multipliers_within_epsilon"] is False
    assert report["certify"]["certified"] is False
    assert report["certified"] is False


@pytest.mark.parametrize("lam, code", [(0.9, 2), (0.25, 1)])
def test_cli_tame_lipschitz_refuses_a_free_ball_before_building_it(tmp_path, lam, code):
    # the free pair's spheres grow by 3: lambda 0.9 makes the series diverge
    # (an out-of-range parameter), and at lambda 0.25 the radius-40 ball has
    # about 2.4e19 words, far past the cap; both refuse before any walk
    spec = Path(__file__).resolve().parent.parent / "specs" / "pingpong.spec"
    out = tmp_path / "out"
    t0 = time.monotonic()
    argv = ["tame-lipschitz", "--spec", str(spec), "--lambda", str(lam)]
    assert main(argv + ["--out", str(out)]) == code
    assert time.monotonic() - t0 < 2.0
    report = json.loads((out / "report.json").read_text())
    assert report["certified"] is False


def test_cli_overrides_apply(tmp_path):
    spec = write(tmp_path, "a3.spec", A3_SMALL)
    out = tmp_path / "out"
    assert main(["path", "--spec", spec, "--out", str(out), "--nmax", "3", "--steps", "2"]) == 0
    assert len((out / "path.jsonl").read_text().splitlines()) == 5


def test_cli_path_with_nmax_one_is_the_sample_at_one(tmp_path):
    spec = write(tmp_path, "a3.spec", A3_SMALL)
    out = tmp_path / "out"
    assert main(["path", "--spec", spec, "--out", str(out), "--nmax", "1"]) == 0
    lines = (out / "path.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert len((out / "plot.csv").read_text().splitlines()) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["path"]["samples"] == 1 and report["path"]["max_c1_step"] == 0.0
    line = json.loads(lines[0])
    assert (line["t"], line["n"], line["s"], line["c1_step"]) == (1.0, 1, 0.0, None)
    u1 = birkhoff_solution(build_action(parse_action_spec(A3_SMALL)), 1).u
    phi = path_phi(str(out / "path.jsonl"), 1.0)
    want = Diffeo.from_log_deriv(u1.space, u1.samples)
    np.testing.assert_allclose(phi.values, want.values, atol=1e-12)


def test_cli_grid_override(tmp_path):
    spec = write(tmp_path, "t.spec", TRIVIAL)
    out = tmp_path / "out"
    assert main(["report", "--spec", spec, "--grid", "64", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["space"]["grid_size"] == 64


def test_cli_bad_grid_flag_exit_two_with_report(tmp_path):
    spec = write(tmp_path, "t.spec", TRIVIAL)
    out = tmp_path / "out"
    assert main(["report", "--spec", spec, "--grid", "100", "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["failed_stage"] == "build"


def test_cli_bad_grid_spec_key_exit_two_with_report(tmp_path):
    spec = write(tmp_path, "t.spec", TRIVIAL.replace("grid_size = 256", "grid_size = 100"))
    out = tmp_path / "out"
    assert main(["report", "--spec", spec, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["failed_stage"] == "build"


@pytest.mark.parametrize("command, points", [("tame-c1", 2**27 + 1), ("path", 2**26 + 1)])
def test_cli_oversized_abelian_ball_is_refused_before_the_build(
    command, points, tmp_path, monkeypatch, capsys
):
    # grid 2^26 at nmax 16: the ball sum over the nodes (and midpoints) is
    # past the cap, which the grid, the rank and nmax give before the build
    def never(*args, **kwargs):
        raise AssertionError("the action was built")

    monkeypatch.setattr(pipeline_mod, "build_action", never)
    spec = write(tmp_path, "big.spec", TRIVIAL.replace("grid_size = 256", "grid_size = 67108864"))
    out = tmp_path / "out"
    assert main([command, "--spec", spec, "--nmax", "16", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"ball sum of size 16^1 x {points} exceeds cap" in err
    report = json.loads((out / "report.json").read_text())
    assert report["failed_stage"] == "build"
    assert report.get("certified", False) is False


def test_cli_detect_summary(tmp_path, capsys):
    spec = write(tmp_path, "pp.spec", PINGPONG_SMALL)
    assert main(["detect", "--spec", spec, "--resilient", "-L", "2", "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "witness" in out.lower()


@pytest.mark.parametrize(
    "definition",
    ["pwl(0:0, 0.5:0.5, 0.5:0.7, 1:1)", "1 - x", "0.5*x", "x + 0.3*sin(2*pi*x)",
     "mobius(1, 0, 1, 0)"],
    ids=["pwl-jump", "reversing", "contracting", "folding", "mobius-pole"],
)
def test_cli_pwl_with_a_jump_is_rejected(tmp_path, definition):
    # no homeomorphism of [0, 1]: a build failure with the report written,
    # and no numpy warning from the jet whose finiteness the build checks
    spec = write(tmp_path, "j.spec", TRIVIAL.replace("f = x", f"f = {definition}"))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["report", "--spec", spec, "--out", str(out)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert json.loads((out / "report.json").read_text())["failed_stage"] == "build"


PAYLOAD_SPEC = textwrap.dedent(
    """\
    [space]
    kind = circle
    grid_size = 64

    [group]
    type = abelian
    generators = g

    [generators]
    g = @g.json
    """
)
GOOD_PAYLOAD = {"space": {"kind": "circle", "grid_size": 64}, "grid_size": 64,
                "log_deriv": [0.0] * 64, "offset": 0.25}


def _payload(drop=None, **edits):
    payload = dict(GOOD_PAYLOAD, **edits)
    payload.pop(drop, None)
    return json.dumps(payload)


@pytest.mark.parametrize(
    "text, code",
    [
        pytest.param("{not json", 2, id="invalid-json"),
        pytest.param(_payload(drop="log_deriv"), 2, id="no-log_deriv"),
        pytest.param(_payload(drop="space"), 2, id="no-space"),
        pytest.param("[1, 2, 3]", 2, id="top-level-list"),
        pytest.param(_payload(log_deriv=[0.0, 0.0]), 2, id="two-samples"),
        pytest.param(_payload(space={"kind": "circle", "grid_size": 63}), 2, id="grid-63"),
        pytest.param(_payload(log_deriv=[float("nan")] * 64), 1, id="non-finite"),
    ],
)
def test_cli_malformed_payload_exits_with_report(tmp_path, capsys, text, code):
    (tmp_path / "g.json").write_text(text)
    spec = write(tmp_path, "g.spec", PAYLOAD_SPEC)
    out = tmp_path / "out"
    assert main(["report", "--spec", spec, "--out", str(out)]) == code
    if code == 2:  # a spec error names the generator's line
        assert "(line 10)" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["failed_stage"] == "build"


SPECS = {"A3": A3_SMALL, "A4": A4_SMALL, "PINGPONG": PINGPONG_SMALL}


@pytest.mark.parametrize(
    "command, spec_name, edit, args",
    [
        pytest.param("path", "A3", None, ["--nmax", "0"], id="path-nmax-0"),
        pytest.param("path", "A3", None, ["--steps", "0"], id="path-steps-0"),
        pytest.param("path", "A3", ("steps = 2", "steps = -1"), [], id="path-spec-steps--1"),
        pytest.param("tame-c1", "A3", None, ["--nmax", "0"], id="tame-c1-nmax-0"),
        pytest.param("tame-c1", "A4", None, ["--alpha", "0.5"], id="tame-c1-alpha-0.5"),
        pytest.param("tame-c1", "A4", None, ["--alpha", "inf"], id="tame-c1-alpha-inf"),
        pytest.param("tame-c1", "A4", ("delta = 0.1", "delta = 0"), [], id="tame-c1-spec-delta-0"),
        pytest.param("tame-c1", "A4", None, ["--delta", "-1"], id="tame-c1-delta--1"),
        pytest.param("tame-c1", "A4", None, ["--epsilon", "-1"], id="tame-c1-epsilon--1"),
        pytest.param("tame-c1", "A4", None, ["--epsilon", "nan"], id="tame-c1-epsilon-nan"),
        pytest.param("tame-lipschitz", "A4", None, ["--lambda", "1.5"], id="lipschitz-lambda-1.5"),
        pytest.param("tame-lipschitz", "A4", None, ["--radius", "-1"], id="lipschitz-radius--1"),
        pytest.param("detect", "PINGPONG", None, ["--resolution", "-1"], id="detect-resolution--1"),
        pytest.param("detect", "PINGPONG", None, ["--resolution", "nan"], id="detect-resolution-nan"),
        pytest.param("detect", "PINGPONG", None, ["-L", "0"], id="detect-L-0"),
        pytest.param(
            "detect", "PINGPONG", ("max_word_len = 2", "max_word_len = 0"), [],
            id="detect-spec-max_word_len-0",
        ),
    ],
)
def test_cli_out_of_range_parameter_exit_two_with_report(
    tmp_path, command, spec_name, edit, args
):
    text = SPECS[spec_name]
    spec = write(tmp_path, "p.spec", text.replace(*edit) if edit else text)
    out = tmp_path / "out"
    assert main([command, "--spec", spec, "--out", str(out)] + args) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["failed_stage"] == "build"


def group_edit(key, value):
    """A (old, new) replacement in HEISENBERG_SMALL that sets one [group]
    key: bounded_generation in place, the others before metric_generators."""
    if key == "bounded_generation":
        return ("bounded_generation = 7", f"bounded_generation = {value}")
    return ("metric_generators", f"{key} = {value}\nmetric_generators")


NON_TERMINATING = (
    'rules = "b a -> a b c^-1", "b a^-1 -> a^-1 b c"',
    'rules = "b a -> a b", "a b -> b a"',
)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(group_edit("bounded_generation", -3), "bounded_generation",
                     id="bounded-generation--3"),
        pytest.param(group_edit("bounded_generation", 0), "bounded_generation",
                     id="bounded-generation-0"),
        pytest.param(group_edit("relation_tolerance", "nan"), "relation_tolerance",
                     id="relation-tolerance-nan"),
        pytest.param(group_edit("relation_tolerance", "inf"), "relation_tolerance",
                     id="relation-tolerance-inf"),
        pytest.param(group_edit("relation_tolerance", -1), "relation_tolerance",
                     id="relation-tolerance--1"),
        pytest.param(NON_TERMINATING, "rewriting did not terminate",
                     id="rules-do-not-terminate"),
    ],
)
def test_cli_bad_group_exit_two_with_report(tmp_path, capsys, edit, message):
    spec = write(tmp_path, "h.spec", HEISENBERG_SMALL.replace(*edit))
    out = tmp_path / "out"
    assert main(["tame-c1", "--spec", spec, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["failed_stage"] == "build"


def test_cli_heisenberg_group_at_range_edges_certifies(tmp_path):
    text = HEISENBERG_SMALL.replace(*group_edit("bounded_generation", 1))
    text = text.replace(*group_edit("relation_tolerance", "1e-12"))
    spec = write(tmp_path, "h.spec", text)
    out = tmp_path / "out"
    assert main(["tame-c1", "--spec", spec, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["certified"] is True


def test_cli_delta_is_the_flattening_budget_alone(tmp_path):
    # the nilpotent solve's exactness-onset threshold is a constant 0.1
    spec = write(tmp_path, "h.spec", HEISENBERG_SMALL)
    out = tmp_path / "out"
    assert main(["tame-c1", "--spec", spec, "--out", str(out), "--delta", "0.05"]) == 0
    assert json.loads((out / "report.json").read_text())["solve"]["extras"]["delta"] == 0.1


HELP_KEYS = {
    "tame-lipschitz": {"lambda", "radius"},
    "tame-c1": {"epsilon", "delta", "alpha", "nmax", "k_max", "shell_index", "growth_constant"},
    "path": {"nmax", "steps"},
    "detect": {"max_word_len", "resolution"},
    "flatten": {"delta", "alpha"},
    "report": set(),
}


@pytest.mark.parametrize("command", sorted(HELP_KEYS))
def test_cli_help_lists_the_command_keys_with_their_defaults(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    tokens = set(text.replace("[", " ").replace("]", " ").replace(",", " ").split())
    defaults = PipelineParams()
    for key, (attr, _, _, _, _, flags, _) in _PIPELINE_KEYS.items():
        assert all(flag in tokens for flag in flags) == (key in HELP_KEYS[command]), key
        if key in HELP_KEYS[command] and getattr(defaults, attr) is not None:
            assert f"(default {getattr(defaults, attr)})" in text, key


def test_cli_flag_overrides_an_out_of_range_spec_value(tmp_path):
    # the range check runs once on the merged parameters
    spec = write(tmp_path, "p.spec", A3_SMALL.replace("steps = 2", "steps = 0"))
    out = tmp_path / "out"
    assert main(["path", "--spec", spec, "--out", str(out), "--nmax", "2", "--steps", "1"]) == 0
