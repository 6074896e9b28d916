import json
import textwrap

import numpy as np
import pytest

from conjtamer import (
    CertificationFailure,
    Diffeo,
    SpecError,
    birkhoff_solution,
    build_action,
    load_action_spec,
    parse_action_spec,
    path_of_conjugates,
    path_phi,
    run_pipeline,
)
from conjtamer.cli import main
from conjtamer.diffeo import log_deriv_sup

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
    spec = parse_action_spec(A4_SMALL)
    out = tmp_path / "out"
    report = run_pipeline("tame-c1", spec, str(out))
    assert report["certify"]["certified"] is True
    final_sup = report["certify"]["final_sup_log_deriv"]

    re_spec = load_action_spec(str(out / "tamed.spec"))
    act = build_action(re_spec, base_dir=str(out))
    rebuilt_sup = max(log_deriv_sup(g) for g in act.gens)
    assert rebuilt_sup <= final_sup + 2 * 4.0 / re_spec.grid_size


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


@pytest.mark.parametrize("text", [A4_SMALL, PERIOD_FOUR], ids=["a4", "period-four"])
def test_cli_flatten_stages_equal_the_tame_c1_stages(tmp_path, text):
    # nmax = 48 is tame-c1's ball radius, not a period bound: both commands
    # inventory the periods up to 3 and flatten what they find there
    spec = write(tmp_path, "p.spec", text)
    reports = {}
    for command in ("flatten", "tame-c1"):
        out = tmp_path / command
        assert main([command, "--spec", spec, "--out", str(out)]) in (0, 3)
        reports[command] = json.loads((out / "report.json").read_text())
    for section in ("periodic", "flatten"):
        assert reports["flatten"][section] == reports["tame-c1"][section]


@pytest.mark.parametrize(
    "command, exported",
    [("tame-lipschitz", "tamed.spec"), ("tame-c1", "tamed.spec"), ("flatten", "flat.spec")],
)
def test_exported_spec_carries_the_run_parameters(tmp_path, command, exported):
    spec = parse_action_spec(A4_SMALL)
    out = tmp_path / "out"
    overrides = {"radius": 40, "max_word_len": 3}  # a spec value, a default
    run_pipeline(command, spec, str(out), overrides=overrides)
    re_spec = load_action_spec(str(out / exported))
    assert re_spec.params == spec.params.merged(**overrides)
    assert "k_max" not in (out / exported).read_text()  # defaults stay out


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


def test_path_phi_rebuilds_every_sample_bit_for_bit(tmp_path):
    spec = parse_action_spec(A3_SMALL)
    out = tmp_path / "out"
    run_pipeline("path", spec, str(out))
    action = build_action(spec)
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


def test_cli_detect_summary(tmp_path, capsys):
    spec = write(tmp_path, "pp.spec", PINGPONG_SMALL)
    assert main(["detect", "--spec", spec, "--resilient", "-L", "2", "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "witness" in out.lower()


def test_cli_pwl_with_a_jump_is_rejected(tmp_path):
    jump = "f = pwl(0:0, 0.5:0.5, 0.5:0.7, 1:1)"
    spec = write(tmp_path, "j.spec", TRIVIAL.replace("f = x", jump))
    out = tmp_path / "out"
    assert main(["report", "--spec", spec, "--out", str(out)]) == 1
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


def test_cli_flag_overrides_an_out_of_range_spec_value(tmp_path):
    # the range check runs once on the merged parameters
    spec = write(tmp_path, "p.spec", A3_SMALL.replace("steps = 2", "steps = 0"))
    out = tmp_path / "out"
    assert main(["path", "--spec", spec, "--out", str(out), "--nmax", "2", "--steps", "1"]) == 0
