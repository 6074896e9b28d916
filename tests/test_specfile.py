import dataclasses
import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conjtamer import (
    RelationViolation,
    SpecError,
    build_action,
    format_action_spec,
    load_action_spec,
    parse_action_spec,
    validate_relations,
)
from conjtamer.cli import main
from conjtamer.space import circle

from helpers import wobble

MINIMAL = textwrap.dedent(
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

Z2_CIRCLE = textwrap.dedent(
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
    lambda = 0.9048374180359595
    epsilon = 0.05
    nmax = 8
    """
)


def test_minimal_spec_parses_with_defaults():
    spec = parse_action_spec(MINIMAL)
    assert spec.space_kind == "interval"
    assert spec.grid_size == 256
    assert spec.group_type == "abelian"
    assert spec.generator_names == ("f",)
    assert spec.params.epsilon == 0.01
    assert spec.params.lam is None
    assert spec.params.k_max == 8
    assert spec.relation_tolerance == 1e-6
    act = build_action(spec)
    x = np.linspace(0, 1, 100)
    assert float(np.max(np.abs(act.gens[0](x) - x))) == 0.0


def test_comments_and_blank_lines_ignored():
    spec = parse_action_spec("# leading comment\n\n" + MINIMAL)
    assert spec.generator_names == ("f",)


def test_z2_spec_builds_and_commutes():
    spec = parse_action_spec(Z2_CIRCLE)
    act = build_action(spec)
    dev = validate_relations(act, tol=1e-6, raise_on_fail=False)
    assert dev and all(v < 1e-6 for v in dev.values())


def test_abelian_commutator_rules_are_implicit():
    spec = parse_action_spec(Z2_CIRCLE)
    assert spec.rules  # z^d commutation rules were synthesized
    lhs, rhs = spec.rules[0]
    assert sorted(lhs) == sorted(rhs)


def test_grid_override_resamples():
    spec = parse_action_spec(Z2_CIRCLE)
    act = build_action(dataclasses.replace(spec, grid_size=256))
    assert act.space.grid_size == 256


def test_syntax_error_location_is_remapped():
    bad = MINIMAL.replace("f = x", "f = x +")
    with pytest.raises(SpecError) as exc:
        build_action(parse_action_spec(bad))
    # "f = x +": the expression starts at column 5, the parser fails at
    # expression column 4, so the reported file column is 8
    assert exc.value.col == 8
    assert exc.value.line == 10


def test_unknown_section_rejected():
    with pytest.raises(SpecError):
        parse_action_spec(MINIMAL + "\n[plotting]\nstyle = fancy\n")


def test_missing_generator_definition():
    bad = MINIMAL.replace("generators = f", "generators = f g")
    with pytest.raises(SpecError, match="generator 'g' declared but not defined") as exc:
        parse_action_spec(bad)
    assert exc.value.line == 7  # the generators line


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("generators = f", 'generators = f\nrules = "f f -> f"', 8),
        ("type = abelian\n", 'rules = "f f -> f"\n', 6),
    ],
    ids=["typed", "default-type"],
)
def test_abelian_rules_refused_at_their_line(old, new, line):
    # an abelian group's rules are its synthesized commutations alone
    with pytest.raises(SpecError, match="rules: an abelian group takes none") as exc:
        parse_action_spec(MINIMAL.replace(old, new))
    assert exc.value.line == line


def test_cli_abelian_rules_exit_two_naming_the_key(tmp_path, capsys):
    spec = tmp_path / "t.spec"
    spec.write_text(Z2_CIRCLE.replace("generators = g1 g2", 'generators = g1 g2\nrules = "g2 g1 -> g1 g2"'))
    assert main(["report", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "rules: an abelian group takes none, its commutations are synthesized (line 8)" in capsys.readouterr().err


def test_undeclared_generator_definition():
    bad = MINIMAL.replace("f = x", "f = x\nextra = x")
    with pytest.raises(SpecError, match="generator 'extra' defined but not declared") as exc:
        parse_action_spec(bad)
    assert exc.value.line == 11  # its definition


def test_duplicate_definition_rejected():
    bad = MINIMAL.replace("f = x", "f = x\nf = x")
    with pytest.raises(SpecError):
        parse_action_spec(bad)


def test_bad_number_rejected():
    bad = MINIMAL.replace("grid_size = 256", "grid_size = huge")
    with pytest.raises(SpecError):
        parse_action_spec(bad)


def test_rule_parsing_heisenberg():
    text = MINIMAL.replace(
        "type = abelian\ngenerators = f",
        'type = nilpotent\ngenerators = a b c\nrules = "b a -> a b c^-1"',
    ).replace("f = x", "a = x\nb = x\nc = x")
    spec = parse_action_spec(text)
    (rule,) = spec.rules
    assert rule == (((1, 1), (0, 1)), ((0, 1), (1, 1), (2, -1)))


def test_rule_with_empty_left_side_rejected():
    text = MINIMAL.replace(
        "generators = f", 'generators = f\nrules = "f^0 -> f"'
    )
    with pytest.raises(SpecError, match="left-hand side") as exc:
        parse_action_spec(text)
    assert exc.value.line == 8


def test_relation_violation_measured():
    # declaring the ping-pong pair abelian must fail with the deviation
    text = textwrap.dedent(
        """\
        [space]
        kind = circle
        grid_size = 256

        [group]
        type = abelian
        generators = f g

        [generators]
        f = pwl(0:0, 0.05:0.12, 0.95:0.28, 1:1)
        g = pwl(0:0, 0.05:0.52, 0.95:0.68, 1:1)

        [pipeline]
        epsilon = 0.1
        """
    )
    with pytest.raises(RelationViolation):
        build_action(parse_action_spec(text))


def test_pwl_generator_form():
    text = MINIMAL.replace("kind = interval", "kind = circle").replace(
        "f = x", "f = pwl(0:0, 0.5:0.6, 1:1)"
    )
    act = build_action(parse_action_spec(text))
    assert float(act.gens[0](np.array([0.5]))[0]) == pytest.approx(0.6, abs=1e-12)


def test_file_generator_round_trip(tmp_path):
    h = wobble(512)
    payload_path = tmp_path / "h.json"
    payload_path.write_text(json.dumps(h.to_payload()))
    text = textwrap.dedent(
        """\
        [space]
        kind = circle
        grid_size = 512

        [group]
        type = abelian
        generators = f

        [generators]
        f = @h.json

        [pipeline]
        epsilon = 0.1
        """
    )
    act = build_action(parse_action_spec(text), base_dir=str(tmp_path))
    x = np.linspace(0, 1, 300)
    # grid-only reconstruction of an exact map: quadrature-level agreement
    assert float(np.max(np.abs(act.gens[0].eval_lift(x) - h.eval_lift(x)))) <= 1e-5


def test_file_generator_grid_mismatch_resamples(tmp_path):
    h = wobble(1024)
    (tmp_path / "h.json").write_text(json.dumps(h.to_payload()))
    text = textwrap.dedent(
        """\
        [space]
        kind = circle
        grid_size = 256

        [group]
        type = abelian
        generators = f

        [generators]
        f = @h.json

        [pipeline]
        epsilon = 0.1
        """
    )
    act = build_action(parse_action_spec(text), base_dir=str(tmp_path))
    assert act.space.grid_size == 256
    x = np.linspace(0, 1, 300)
    assert float(np.max(np.abs(act.gens[0].eval_lift(x) - h.eval_lift(x)))) <= 1e-4


def test_file_generator_space_kind_mismatch(tmp_path):
    h = wobble(256)
    (tmp_path / "h.json").write_text(json.dumps(h.to_payload()))
    text = MINIMAL.replace("f = x", "f = @h.json")
    with pytest.raises(SpecError):
        build_action(parse_action_spec(text), base_dir=str(tmp_path))


def test_load_bundled_specs_parse(pytestconfig):
    root = pytestconfig.rootpath
    for name in (
        "trivial",
        "a4",
        "a3",
        "a3_z2",
        "rotations",
        "pingpong",
        "heisenberg_proj",
    ):
        spec = load_action_spec(str(root / "specs" / f"{name}.spec"))
        assert spec.grid_size >= 16


SPECS = Path(__file__).resolve().parent.parent / "specs"


@pytest.mark.parametrize(
    "old, new, key, line",
    [
        ("grid_size = 256", "grid = 64", "grid", 3),
        ("generators = f", "generators = f\nmetric_generator = a b", "metric_generator", 8),
        ("epsilon = 0.01", "epsilon = 0.01\nepsilon_ = 0.1", "epsilon_", 14),
    ],
    ids=["space", "group", "pipeline"],
)
def test_unknown_key_refused_at_its_line(old, new, key, line):
    with pytest.raises(SpecError, match=f"unknown .* key '{key}'") as exc:
        parse_action_spec(MINIMAL.replace(old, new))
    assert exc.value.line == line


def test_cli_unknown_space_key_exits_two_naming_it(tmp_path, capsys):
    spec = tmp_path / "t.spec"
    spec.write_text(MINIMAL.replace("grid_size = 256", "grid = 64"))
    assert main(["report", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "'grid' (line 3)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("generators = f", "generators = f f", 7),
        ("generators = f", "generators = f\nmetric_generators = f f", 8),
    ],
    ids=["generators", "metric_generators"],
)
def test_repeated_generator_name_refused_at_its_line(old, new, line):
    with pytest.raises(SpecError, match="repeated name f") as exc:
        parse_action_spec(MINIMAL.replace(old, new))
    assert exc.value.line == line


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("kind = interval", "kind = square", 2),
        ("grid_size = 256", "grid_size = huge", 3),
        ("type = abelian", "type = solvable", 6),
        ("generators = f", "generators = f\nbounded_generation = seven", 8),
        ("generators = f", "generators = f\nmetric_generators = g", 8),
        ("generators = f", "generators = f\nrelation_tolerance = tiny", 8),
        ("epsilon = 0.01", "epsilon = small", 13),
    ],
    ids=["kind", "grid_size", "type", "bounded_generation", "metric_generators",
         "relation_tolerance", "epsilon"],
)
def test_bad_value_refused_at_its_line(old, new, line):
    key = new.splitlines()[-1].split()[0]
    with pytest.raises(SpecError, match=f"^{key}: ") as exc:
        parse_action_spec(MINIMAL.replace(old, new))
    assert exc.value.line == line


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.spec")), ids=lambda p: p.stem)
def test_format_action_spec_round_trips_every_bundled_spec(path):
    spec = load_action_spec(str(path))
    text = format_action_spec(spec, {n: d.text for n, d in spec.generator_defs.items()})
    back = parse_action_spec(text)
    assert dataclasses.replace(back, generator_defs=spec.generator_defs) == spec
    assert [d.text for d in back.generator_defs.values()] == [
        d.text for d in spec.generator_defs.values()
    ]


def test_format_action_spec_writes_an_empty_right_side_that_parses():
    text = MINIMAL.replace(
        "type = abelian\ngenerators = f", 'type = nilpotent\ngenerators = f\nrules = "f f^-1 ->"'
    )
    spec = parse_action_spec(text)
    back = parse_action_spec(format_action_spec(spec, {"f": "x"}))
    assert back.rules == spec.rules == [(((0, 1), (0, -1)), ())]
