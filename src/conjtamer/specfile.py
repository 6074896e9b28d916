"""Parsing of action spec files.

A spec is UTF-8 text with sections [space], [group], [generators] and
[pipeline].  Example::

    [space]
    kind = circle
    grid_size = 4096

    [group]
    type = abelian
    generators = g1 g2

    [generators]
    g1 = conj(x + 0.1*sin(2*pi*x), 0.618034)
    g2 = conj(x + 0.1*sin(2*pi*x), 0.414214)

    [pipeline]
    nmax = 24
    steps = 8

Generator definitions are expressions in x, conj(h, angle) for h∘R_angle∘h⁻¹,
pwl(x0:y0, x1:y1, ...) for piecewise-linear interpolation, or @file.json for
a serialized diffeomorphism.  Nilpotent groups list rewriting rules like
"b a -> a b c^-1" plus a bounded_generation constant; build_action checks
the rules for confluence by critical pairs, which covers words of every
length.  An abelian group takes no rules: parsing synthesizes the Z^d
commutations.  _ACTION_KEYS declares each [space] and [group] key once, with
its cast and export text, and ActionSpec holds their defaults; _PIPELINE_KEYS
declares each [pipeline] key once, with its default and CLI flags, and
PipelineParams takes its fields from it; exported specs leave the defaults
out.  parse_action_spec reads and format_action_spec writes every section
through these tables; a key outside them or a value that does not cast is a
SpecError at its line.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from typing import Dict, List, Optional, Sequence, Tuple

from .action import Action, validate_relations
from .diffeo import Diffeo, build_diffeo, conjugated_rotation, pwl_diffeo
from .errors import ConjTamerError, SpecError
from .expressions import compile_expression
from .space import CIRCLE, INTERVAL, Space
from .words import ABELIAN, FREE, NILPOTENT, Presentation, Word


class GeneratorDef(namedtuple("GeneratorDef", "form text line col", defaults=(1,))):
    """A [generators] definition: form is expression, conj, pwl or file, and
    col the 1-based column of text within its spec line."""

    __slots__ = ()


def _positive(v) -> bool:
    return 0.0 < v < math.inf


# key -> (PipelineParams attribute and default, cast, range check, range text,
# CLI flags, help; a help with a None default says what unset means)
_PIPELINE_KEYS = {
    "lambda": ("lam", None, float, lambda v: 0.0 < v < 1.0, "in (0, 1)", ("--lambda",),
               "series weight in (0, 1/growth) (required here or in the spec)"),
    "radius": ("radius", 40, int, lambda v: v >= 0, ">= 0", ("--radius", "--ball-radius"),
               "word-length truncation radius"),
    "epsilon": ("epsilon", None, float, _positive, "finite and > 0", ("--epsilon",),
                "certification target (required here or in the spec)"),
    "delta": ("delta", None, float, _positive, "finite and > 0", ("--delta",), "per-period "
              "flattening budget (default: epsilon, else 0.1; unused once alpha is set)"),
    "alpha": ("alpha", None, float, lambda v: 1.0 <= v < math.inf, "finite and >= 1",
              ("--alpha",), "flattening exponent (default: derived from delta)"),
    "nmax": ("nmax", 16, int, lambda v: v >= 1, ">= 1", ("--nmax",),
             "ball radius of the abelian solve and endpoint of path"),
    "steps": ("steps", 8, int, lambda v: v >= 1, ">= 1", ("--steps", "--path-steps"),
              "path samples per unit of t"),
    "max_word_len": ("max_word_len", 4, int, lambda v: v >= 1, ">= 1", ("-L",),
                     "maximum word length"),
    "resolution": ("resolution", 0.01, float, _positive, "finite and > 0",
                   ("--resolution",), "minimum chain margin"),
    "growth_constant": ("growth_constant", None, float, _positive, "finite and > 0",
                        ("--growth-constant",), "ball growth constant of the "
                        "nilpotent solve (default: the least measured constant)"),
    "k_max": ("k_max", 8, int, lambda v: v >= 1, ">= 1", ("--k-max",),
              "shell search cap of the nilpotent solve"),
    "shell_index": ("shell_index", 0, int, lambda v: v >= 0, ">= 0", ("--shell-index",),
                    "which admissible shell the nilpotent solve averages over"),
}


class PipelineParams(namedtuple("PipelineParams", [r[0] for r in _PIPELINE_KEYS.values()],
                                defaults=[r[1] for r in _PIPELINE_KEYS.values()])):
    """The [pipeline] values, a field and its default per _PIPELINE_KEYS row."""

    __slots__ = ()

    def merged(self, **overrides) -> "PipelineParams":
        return self._replace(**{k: v for k, v in overrides.items() if v is not None})

    def spec_lines(self) -> List[str]:
        """[pipeline] lines `key = repr(value)` of the non-default values."""
        return [f"{key} = {v!r}" for (key, row), v in zip(_PIPELINE_KEYS.items(), self)
                if v != row[1]]

    def check(self) -> None:
        """Raises SpecError for a set value outside its range; spec values
        and CLI overrides both pass through here once merged."""
        for key, (attr, _, _, ok, text, *_) in _PIPELINE_KEYS.items():
            v = getattr(self, attr)
            if v is not None and not ok(v):
                raise SpecError(f"{key} must be {text}, got {v!r}")


class ActionSpec(namedtuple(
    "ActionSpec", "generator_names generator_defs space_kind grid_size group_type rules "
    "bounded_generation metric_generators relation_tolerance params",
    defaults=(INTERVAL, 4096, ABELIAN, (), None, None, 1e-6, PipelineParams()),
)):
    """A parsed spec: the [space] and [group] values, each generator's
    definition, and the [pipeline] values as params."""

    __slots__ = ()


def _split_top_level(text: str, sep: str = ",") -> List[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_rule(rule: str, names: Sequence[str]):
    """'b a -> a b c^-1' as a pair of letter tuples."""
    if "->" not in rule:
        raise ValueError(f"rule needs '->': {rule!r}")
    lhs_text, rhs_text = rule.split("->", 1)

    def side(txt: str):
        letters = []
        for tok in txt.split():
            name, _, exp = tok.partition("^")
            if name not in names:
                raise ValueError(f"unknown generator {name!r} in rule")
            try:
                e = int(exp) if exp else 1
            except ValueError:
                raise ValueError(f"bad exponent in rule token {tok!r}")
            if e == 0:
                continue
            sign = 1 if e > 0 else -1
            letters.extend([(names.index(name), sign)] * abs(e))
        return tuple(letters)

    lhs = side(lhs_text)
    if not lhs:
        raise ValueError(f"rule needs a non-empty left-hand side: {rule!r}")
    return lhs, side(rhs_text)


def _parse_rules(text: str, names: Sequence[str]) -> list:
    chunks = (chunk.strip() for chunk in text.split('"'))
    return [_parse_rule(chunk, names) for chunk in chunks if chunk not in ("", ",")]


def _rules_text(rules, spec: ActionSpec) -> Optional[str]:
    if spec.group_type == ABELIAN or not rules:
        return None  # an abelian spec takes none: parsing synthesizes them

    def side(letters) -> str:  # the empty word as nothing, which parses back
        return Word(letters).display(spec.generator_names) if letters else ""

    return ", ".join(f'"{side(lhs)} -> {side(rhs)}"' for lhs, rhs in rules)


def _distinct(text: str) -> List[str]:
    tokens = text.split()
    repeated = sorted({t for t in tokens if tokens.count(t) > 1})
    if repeated:
        raise ValueError(f"repeated name {' '.join(repeated)}")
    return tokens


def _metric_generators(text: str, names: Sequence[str]) -> Tuple[int, ...]:
    tokens = _distinct(text)
    for tok in tokens:
        if tok not in names:
            raise ValueError(f"unknown generator {tok!r}")
    return tuple(names.index(tok) for tok in tokens)


def _one_of(*options: str):
    def cast(text: str, names) -> str:
        if text.lower() not in options:
            raise ValueError(f"must be one of {', '.join(options)}, got {text!r}")
        return text.lower()
    return cast


def _text(value, spec: ActionSpec) -> str:
    return str(value)


# [space] and [group] key -> (ActionSpec field, cast from the text and the
# generator names, export text from the value and the spec, None to leave the
# key out).  Keys are cast in this order, generators before the keys that name
# generators; a key given twice keeps its last value, but every rules line
# adds its rules.  ActionSpec holds the defaults.
_ACTION_KEYS = {
    "space": {
        "kind": ("space_kind", _one_of(INTERVAL, CIRCLE), _text),
        "grid_size": ("grid_size", lambda text, names: int(text), _text),
    },
    "group": {
        "type": ("group_type", _one_of(ABELIAN, NILPOTENT, FREE), _text),
        "generators": ("generator_names", lambda text, names: tuple(_distinct(text)),
                       lambda names, spec: " ".join(names)),
        "rules": ("rules", _parse_rules, _rules_text),
        "bounded_generation": ("bounded_generation", lambda text, names: int(text), _text),
        "metric_generators": ("metric_generators", _metric_generators,
                              lambda idx, spec: " ".join(spec.generator_names[i] for i in idx)),
        "relation_tolerance": ("relation_tolerance", lambda text, names: float(text), _text),
    },
}
_SECTION_KEYS = dict(_ACTION_KEYS, pipeline=_PIPELINE_KEYS)


def _cast(cast, key: str, value: str, line: int, *names):
    try:
        return cast(value, *names)
    except ValueError as exc:
        raise SpecError(f"{key}: {exc}", line=line)


def parse_action_spec(text: str) -> ActionSpec:
    """Parses spec text; a key outside its section's table and a value that
    does not cast are refused at their line (expression syntax errors carry
    the column too)."""
    section = None
    given: Dict[str, Dict[str, List[Tuple[str, int]]]] = {s: {} for s in _SECTION_KEYS}
    gen_defs: Dict[str, GeneratorDef] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip().lower()
            if name not in _SECTION_KEYS and name != "generators":
                raise SpecError(f"unknown section [{name}]", line=lineno)
            section = name
            continue
        if section is None:
            raise SpecError("content before any [section]", line=lineno)
        if "=" not in stripped:
            raise SpecError(f"expected key = value, got {stripped!r}", line=lineno)
        key, value = (s.strip() for s in stripped.split("=", 1))
        if not key:
            raise SpecError("empty key", line=lineno)
        if section != "generators":
            key = key.lower()
            if key not in _SECTION_KEYS[section]:
                raise SpecError(f"unknown [{section}] key {key!r}", line=lineno)
            given[section].setdefault(key, []).append((value, lineno))
            continue
        if key in gen_defs:
            raise SpecError(f"duplicate generator {key!r}", line=lineno)
        if value.startswith("@"):
            form = "file"
        elif value.startswith("conj(") and value.endswith(")"):
            form = "conj"
        elif value.startswith("pwl(") and value.endswith(")"):
            form = "pwl"
        else:
            form = "expression"
        col = raw.index(value, raw.index("=") + 1) + 1
        gen_defs[key] = GeneratorDef(form, value, lineno, col)

    # generators defaults to the order of the definitions
    fields: Dict[str, object] = {"generator_names": tuple(gen_defs)}
    for section, keys in _ACTION_KEYS.items():
        for key, (attr, cast, _) in keys.items():
            occurrences = given[section].get(key, [])
            for value, ln in occurrences if key == "rules" else occurrences[-1:]:
                v = _cast(cast, key, value, ln, fields["generator_names"])
                fields[attr] = fields.get(attr, []) + v if key == "rules" else v
    params = {}
    for key, occurrences in given["pipeline"].items():
        attr, _, cast, *_ = _PIPELINE_KEYS[key]
        params[attr] = _cast(cast, key, *occurrences[-1])
    spec = ActionSpec(generator_defs=gen_defs, params=PipelineParams(**params), **fields)

    names = spec.generator_names
    if not names:
        raise SpecError("no generators declared")
    for n in names:
        if n not in gen_defs:  # so names came from the generators key
            raise SpecError(f"generator {n!r} declared but not defined",
                            line=given["group"]["generators"][-1][1])
    for n in gen_defs:
        if n not in names:
            raise SpecError(f"generator {n!r} defined but not declared",
                            line=gen_defs[n].line)
    if not spec.rules and spec.group_type == NILPOTENT:
        raise SpecError("nilpotent groups need rules")
    if spec.group_type == ABELIAN:
        if "rules" in given["group"]:
            raise SpecError("rules: an abelian group takes none, its commutations "
                            "are synthesized", line=given["group"]["rules"][0][1])
        return spec._replace(rules=list(Presentation.zd(len(names), names).rules))
    return spec


def format_action_spec(spec: ActionSpec, definitions: Dict[str, str]) -> str:
    """Spec text that parse_action_spec reads back to spec: the [space] and
    [group] keys through _ACTION_KEYS, definitions[name] for each generator,
    and the [pipeline] values that differ from the defaults."""
    sections: Dict[str, List[str]] = {}
    for section, keys in _ACTION_KEYS.items():
        sections[section] = []
        for key, (attr, _, export) in keys.items():
            value = getattr(spec, attr)
            text = None if value is None else export(value, spec)
            if text is not None:
                sections[section].append(f"{key} = {text}")
    sections["generators"] = [f"{n} = {definitions[n]}" for n in spec.generator_names]
    sections["pipeline"] = spec.params.spec_lines()
    return "\n\n".join("\n".join([f"[{s}]", *lines])
                       for s, lines in sections.items() if lines) + "\n"


def _const_value(text: str, line: int) -> float:
    expr = compile_expression(text)
    if expr.has_x:
        raise SpecError(f"expected a constant, got {text!r}", line=line)
    return float(expr.value(0.0))


def _build_generator(d: GeneratorDef, space: Space, base_dir: str, conj_h) -> Diffeo:
    # conj_h: each conj h text built once, so its generators share h's primitive
    if d.form == "file":
        path = d.text[1:].strip()
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            with open(path) as fh:
                payload = json.load(fh)
            g = Diffeo.from_payload(payload)
        except OSError as exc:
            raise SpecError(f"cannot read {path}: {exc}", line=d.line)
        except (ValueError, KeyError, TypeError) as exc:  # JSON, shape, grid
            raise SpecError(f"malformed map payload {path}: {exc!r}", line=d.line)
        if g.space == space:
            return g
        if g.space.kind != space.kind:
            raise SpecError(
                f"{path} is a {g.space.kind} map, spec space is {space.kind}",
                line=d.line,
            )
        # Grid mismatch (e.g. --grid override): resample the stored
        # log-derivative track onto the requested grid.
        return Diffeo.from_log_deriv(
            space, g.log_deriv.interp(space.track_nodes()), g.offset
        )
    if d.form == "conj":
        inner = d.text[len("conj(") : -1]
        parts = _split_top_level(inner)
        if len(parts) != 2:
            raise SpecError(
                f"conj needs (h, angle), got {len(parts)} arguments", line=d.line
            )
        h = parts[0].strip()
        try:
            conj_h[h] = conj_h.get(h) or build_diffeo(h, space)
        except SpecError as exc:
            raise SpecError(f"in conj h: {exc.message}", line=d.line, col=exc.col)
        return conjugated_rotation(space, conj_h[h], _const_value(parts[1], d.line))
    if d.form == "pwl":
        inner = d.text[len("pwl(") : -1]
        pts = []
        for chunk in _split_top_level(inner):
            x_txt, sep, y_txt = chunk.partition(":")
            if not sep:
                raise SpecError(f"pwl point needs x:y, got {chunk!r}", line=d.line)
            try:
                pts.append((float(x_txt), float(y_txt)))
            except ValueError:
                raise SpecError(f"bad pwl point {chunk!r}", line=d.line)
        return pwl_diffeo(space, pts)
    try:
        return build_diffeo(d.text, space)
    except SpecError as exc:
        col = d.col + exc.col - 1 if exc.col is not None else None
        raise SpecError(exc.message, line=d.line, col=col)


def build_action(spec: ActionSpec, *, base_dir: str = ".") -> Action:
    """Builds and validates the action: the grid size is a valid one,
    bounded_generation is >= 1 and relation_tolerance finite and >= 0, every
    generator passes diffeo validation, nilpotent rewriting rules pass the
    critical-pair confluence check, and every relation holds within
    relation_tolerance."""
    try:
        space = Space(spec.space_kind, spec.grid_size)
    except ValueError as exc:
        raise SpecError(str(exc))
    bounded, rel_tol = spec.bounded_generation, spec.relation_tolerance
    if bounded is not None and bounded < 1:
        raise SpecError(f"bounded_generation must be >= 1, got {bounded}")
    if not 0.0 <= rel_tol < math.inf:
        raise SpecError(f"relation_tolerance must be finite and >= 0, got {rel_tol!r}")
    presentation = Presentation(
        spec.generator_names,
        spec.rules,
        kind=spec.group_type,
        bounded_generation=spec.bounded_generation,
        metric_generators=spec.metric_generators,
    )
    if spec.group_type == NILPOTENT:
        try:
            presentation.check_confluence()
        except ConjTamerError as exc:
            raise SpecError(f"group rules: {exc}")
    conj_h: Dict[str, Diffeo] = {}
    gens = {
        name: _build_generator(spec.generator_defs[name], space, base_dir, conj_h)
        for name in spec.generator_names
    }
    action = Action(space, presentation, gens)
    validate_relations(action, tol=spec.relation_tolerance, raise_on_fail=True)
    return action


def load_action_spec(path: str) -> ActionSpec:
    with open(path) as fh:
        return parse_action_spec(fh.read())
