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
length.  _PIPELINE_KEYS declares each [pipeline] key and its CLI flags once;
PipelineParams holds the defaults, which exported specs leave out.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .action import Action, validate_relations
from .diffeo import Diffeo, build_diffeo, conjugated_rotation, pwl_diffeo
from .errors import ConjTamerError, SpecError
from .expressions import compile_expression
from .space import Space
from .words import ABELIAN, FREE, NILPOTENT, Presentation

_SECTIONS = ("space", "group", "generators", "pipeline")


@dataclass
class GeneratorDef:
    form: str  # expression | conj | pwl | file
    text: str
    line: int
    col: int = 1  # 1-based column of the definition text within its spec line


def _positive(v) -> bool:
    return 0.0 < v < math.inf


# key -> (PipelineParams attribute, cast, range check, range text, CLI flags,
# help; a help without a PipelineParams default says what unset means)
_PIPELINE_KEYS = {
    "lambda": ("lam", float, lambda v: 0.0 < v < 1.0, "in (0, 1)", ("--lambda",),
               "series weight in (0, 1/growth) (required here or in the spec)"),
    "radius": ("radius", int, lambda v: v >= 0, ">= 0", ("--radius", "--ball-radius"),
               "word-length truncation radius"),
    "epsilon": ("epsilon", float, _positive, "finite and > 0", ("--epsilon",),
                "certification target (required here or in the spec)"),
    "delta": ("delta", float, _positive, "finite and > 0", ("--delta",), "per-period "
              "flattening budget (default: epsilon, else 0.1; unused once alpha is set)"),
    "alpha": ("alpha", float, lambda v: 1.0 <= v < math.inf, "finite and >= 1",
              ("--alpha",), "flattening exponent (default: derived from delta)"),
    "nmax": ("nmax", int, lambda v: v >= 1, ">= 1", ("--nmax",),
             "ball radius of the abelian solve and endpoint of path"),
    "steps": ("steps", int, lambda v: v >= 1, ">= 1", ("--steps", "--path-steps"),
              "path samples per unit of t"),
    "max_word_len": ("max_word_len", int, lambda v: v >= 1, ">= 1", ("-L",),
                     "maximum word length"),
    "resolution": ("resolution", float, _positive, "finite and > 0", ("--resolution",),
                   "minimum chain margin"),
    "growth_constant": ("growth_constant", float, _positive, "finite and > 0",
                        ("--growth-constant",), "ball growth constant of the "
                        "nilpotent solve (default: the least measured constant)"),
    "k_max": ("k_max", int, lambda v: v >= 1, ">= 1", ("--k-max",),
              "shell search cap of the nilpotent solve"),
    "shell_index": ("shell_index", int, lambda v: v >= 0, ">= 0", ("--shell-index",),
                    "which admissible shell the nilpotent solve averages over"),
}


@dataclass
class PipelineParams:
    lam: Optional[float] = None
    radius: int = 40
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    alpha: Optional[float] = None
    nmax: int = 16
    steps: int = 8
    max_word_len: int = 4
    resolution: float = 0.01
    growth_constant: Optional[float] = None
    k_max: int = 8
    shell_index: int = 0

    def merged(self, **overrides) -> "PipelineParams":
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})

    def spec_lines(self) -> List[str]:
        """[pipeline] lines `key = repr(value)` of the non-default values."""
        default = PipelineParams()
        return [f"{key} = {getattr(self, a)!r}" for key, (a, *_) in _PIPELINE_KEYS.items()
                if getattr(self, a) != getattr(default, a)]

    def check(self) -> None:
        """Raises SpecError for a set value outside its range; spec values
        and CLI overrides both pass through here once merged."""
        for key, (attr, _, ok, text, *_) in _PIPELINE_KEYS.items():
            v = getattr(self, attr)
            if v is not None and not ok(v):
                raise SpecError(f"{key} must be {text}, got {v!r}")


@dataclass
class ActionSpec:
    space_kind: str
    grid_size: int
    group_type: str
    generator_names: Tuple[str, ...]
    generator_defs: Dict[str, GeneratorDef]
    rules: List[Tuple[Tuple, Tuple]] = field(default_factory=list)
    bounded_generation: Optional[int] = None
    metric_generators: Optional[Tuple[int, ...]] = None
    relation_tolerance: float = 1e-6
    params: PipelineParams = field(default_factory=PipelineParams)


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


def _parse_rule(rule: str, names: Sequence[str], line: int):
    """'b a -> a b c^-1' as a pair of letter tuples."""
    if "->" not in rule:
        raise SpecError(f"rule needs '->': {rule!r}", line=line)
    lhs_text, rhs_text = rule.split("->", 1)

    def side(txt: str):
        letters = []
        for tok in txt.split():
            name, _, exp = tok.partition("^")
            if name not in names:
                raise SpecError(f"unknown generator {name!r} in rule", line=line)
            try:
                e = int(exp) if exp else 1
            except ValueError:
                raise SpecError(f"bad exponent in rule token {tok!r}", line=line)
            if e == 0:
                continue
            sign = 1 if e > 0 else -1
            letters.extend([(names.index(name), sign)] * abs(e))
        return tuple(letters)

    lhs = side(lhs_text)
    if not lhs:
        raise SpecError(f"rule needs a non-empty left-hand side: {rule!r}", line=line)
    return lhs, side(rhs_text)


def parse_action_spec(text: str) -> ActionSpec:
    """Parses spec text; errors carry the offending line (and column for
    expression syntax errors)."""
    section = None
    space_kv: Dict[str, str] = {}
    group_kv: Dict[str, Tuple[str, int]] = {}
    gen_defs: Dict[str, GeneratorDef] = {}
    gen_order: List[str] = []
    pipe_kv: Dict[str, Tuple[str, int]] = {}
    rule_lines: List[Tuple[str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip().lower()
            if name not in _SECTIONS:
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
        if section == "space":
            space_kv[key.lower()] = value
        elif section == "group":
            if key.lower() == "rules":
                for chunk in value.split('"'):
                    chunk = chunk.strip()
                    if chunk and chunk != ",":
                        rule_lines.append((chunk, lineno))
            else:
                group_kv[key.lower()] = (value, lineno)
        elif section == "generators":
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
            gen_order.append(key)
        else:
            pipe_kv[key.lower()] = (value, lineno)

    kind = space_kv.get("kind", "interval").lower()
    if kind not in ("interval", "circle"):
        raise SpecError(f"space kind must be interval or circle, got {kind!r}")
    try:
        grid_size = int(space_kv.get("grid_size", "4096"))
    except ValueError:
        raise SpecError(f"bad grid_size {space_kv['grid_size']!r}")

    gtype = group_kv.get("type", ("abelian", 0))[0].lower()
    if gtype not in (ABELIAN, NILPOTENT, FREE):
        raise SpecError(f"group type must be abelian, nilpotent or free: {gtype!r}")
    if "generators" in group_kv:
        names = tuple(group_kv["generators"][0].split())
    else:
        names = tuple(gen_order)
    if not names:
        raise SpecError("no generators declared")
    for n in names:
        if n not in gen_defs:
            raise SpecError(f"generator {n!r} declared but not defined")
    for n in gen_defs:
        if n not in names:
            raise SpecError(f"generator {n!r} defined but not declared")

    rules = [_parse_rule(r, names, ln) for r, ln in rule_lines]
    if gtype == NILPOTENT and not rules:
        raise SpecError("nilpotent groups need rules")
    if gtype == ABELIAN and not rules:
        rules = list(Presentation.zd(len(names), names).rules)

    bounded = None
    if "bounded_generation" in group_kv:
        v, ln = group_kv["bounded_generation"]
        try:
            bounded = int(v)
        except ValueError:
            raise SpecError(f"bad bounded_generation {v!r}", line=ln)
    metric: Optional[Tuple[int, ...]] = None
    if "metric_generators" in group_kv:
        v, ln = group_kv["metric_generators"]
        idxs = []
        for tok in v.split():
            if tok not in names:
                raise SpecError(f"unknown metric generator {tok!r}", line=ln)
            idxs.append(names.index(tok))
        metric = tuple(idxs)
    rel_tol = 1e-6
    if "relation_tolerance" in group_kv:
        v, ln = group_kv["relation_tolerance"]
        try:
            rel_tol = float(v)
        except ValueError:
            raise SpecError(f"bad relation_tolerance {v!r}", line=ln)

    params = PipelineParams()
    for key, (value, ln) in pipe_kv.items():
        if key not in _PIPELINE_KEYS:
            raise SpecError(f"unknown pipeline parameter {key!r}", line=ln)
        attr, cast, *_ = _PIPELINE_KEYS[key]
        try:
            setattr(params, attr, cast(value))
        except ValueError:
            raise SpecError(f"bad value for {key}: {value!r}", line=ln)

    return ActionSpec(
        space_kind=kind,
        grid_size=grid_size,
        group_type=gtype,
        generator_names=names,
        generator_defs=gen_defs,
        rules=rules,
        bounded_generation=bounded,
        metric_generators=metric,
        relation_tolerance=rel_tol,
        params=params,
    )


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


def build_action(
    spec: ActionSpec,
    grid_override: Optional[int] = None,
    base_dir: str = ".",
) -> Action:
    """Builds and validates the action: the grid size is a valid one,
    bounded_generation is >= 1 and relation_tolerance finite and >= 0, every
    generator passes diffeo validation, nilpotent rewriting rules pass the
    critical-pair confluence check, and every relation holds within
    relation_tolerance."""
    try:
        space = Space(spec.space_kind, grid_override or spec.grid_size)
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
