"""Pipeline commands behind the conjtamer CLI.

Every command parses a spec, builds the action and writes deterministic
artifacts into an output directory.  tame-c1, flatten and path then run one
prefix, the periodic and flatten stages (_periodic_flatten), and solve on,
export or sample the ball averages of the action it returns.  Artifacts:

  report.json     always: schema_version 2, stage-by-stage record
  <prefix>_*.json serialized generators, re-ingestable via @name.json
  *.spec          a spec file reproducing the transformed action
  path.jsonl      (path) one conjugacy-path sample per line, written as it
                  is built: t, n, s and the defect gaps; integer t adds the
                  flattened action's ball average u_t, from which path_phi
                  rebuilds any phi_t
  plot.csv        (path) t, c1_gap and per-generator defect columns
  detect.json     (detect) the resilience witness, or null

Output bytes are reproducible: JSON is dumped with sorted keys and fixed
separators, floats go through Python's repr.  Errors raised inside a stage
carry the stage name in their message; certification failures still write
report.json before raising so the partial run can be inspected.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from .action import Action, validate_relations
from .cohomology import (
    CohomSolution,
    birkhoff_solution,
    check_ball_sums,
    conjugacy_from_log_density,
    nilpotent_average_solution,
    path_conjugacy,
    path_of_conjugates,
)
from .diffeo import Diffeo
from .errors import CertificationFailure, ConjTamerError, SpecError
from .periodic import (
    PERIOD_CAP,
    PeriodicOrbit,
    detect_resilient,
    find_periodic_points,
    flatten_hyperbolic,
    rotation_number,
)
from .space import Space
from .specfile import ActionSpec, PipelineParams, build_action, format_action_spec
from .taming import pushforward_check, tame_lipschitz
from .words import ABELIAN, FREE, NILPOTENT

SCHEMA_VERSION = 2
COMMANDS = ("tame-lipschitz", "tame-c1", "path", "detect", "flatten", "report")
CERTIFYING = ("tame-lipschitz", "tame-c1")  # the commands that write certified


# ---------------------------------------------------------------------------
# Deterministic serialization.


def _numpy_default(obj):
    """numpy arrays and scalars as their Python counterparts (float64 is a
    float subclass and never reaches this hook)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_canonical(obj) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_numpy_default
    )


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


# ---------------------------------------------------------------------------
# Stage bookkeeping.


@contextmanager
def _stage(report: dict, name: str):
    report["stage_order"].append(name)
    try:
        yield
    except ConjTamerError as exc:
        report["failed_stage"] = name
        exc.args = (f"[stage {name}] {exc.args[0]}",) + exc.args[1:]
        raise


def _periodic_inventory(action: Action) -> Dict[str, List[PeriodicOrbit]]:
    return {name: find_periodic_points(g, PERIOD_CAP)
            for name, g in zip(action.names, action.gens)}


def _orbit_records(inventory: Dict[str, List[PeriodicOrbit]]) -> Dict[str, list]:
    return {
        name: [dict(dataclasses.asdict(o), log_multiplier=o.log_multiplier,
                    parabolic=o.parabolic) for o in orbits]
        for name, orbits in inventory.items()
    }


def _sup_log_deriv(action: Action) -> Dict[str, float]:
    return {
        name: float(g.log_deriv.sup_abs())
        for name, g in zip(action.names, action.gens)
    }


# ---------------------------------------------------------------------------
# Re-ingestable spec output.


def _export_action(
    out_dir: str, prefix: str, spec: ActionSpec, action: Action
) -> Dict[str, str]:
    """Writes one payload per generator plus a spec that re-ingests them
    with the run's parameters, widening relation_tolerance to what the
    grid-only rebuilds achieve."""
    gen_files = {}
    for name, g in zip(action.names, action.gens):
        fname = f"{prefix}_{name}.json"
        _write_json(os.path.join(out_dir, fname), g.to_payload())
        gen_files[name] = fname
    rebuilt = Action(
        action.space,
        action.presentation,
        [Diffeo.from_log_deriv(g.space, g.log_deriv.samples, g.offset)
         for g in action.gens],
    )
    deviations = validate_relations(rebuilt, raise_on_fail=False)
    measured = max(deviations.values()) if deviations else 0.0
    tol = max(spec.relation_tolerance, 4.0 * measured)
    with open(os.path.join(out_dir, f"{prefix}.spec"), "w") as fh:
        fh.write(format_action_spec(dataclasses.replace(spec, relation_tolerance=tol),
                                    {name: "@" + f for name, f in gen_files.items()}))
    return gen_files


# ---------------------------------------------------------------------------
# Commands.


def _need(value, name: str, command: str):
    if value is None:
        raise SpecError(f"{command} needs a value for {name} "
                        f"(spec [pipeline] or CLI flag)")
    return value


def _cmd_tame_lipschitz(
    spec: ActionSpec, action: Action, params: PipelineParams,
    out_dir: str, report: dict,
) -> None:
    lam = _need(params.lam, "lambda", "tame-lipschitz")

    with _stage(report, "tame"):
        tamed, taming, measure = tame_lipschitz(action, lam, params.radius)
        mass, mass_bound, growth_c = measure.mass_bound_certificate()
        report["taming"] = taming.to_dict()
        report["measure"] = {
            "mass": float(mass),
            "mass_bound": float(mass_bound),
            "growth_log_constant": float(growth_c),
            "tail_bound": float(measure.tail_bound),
            "sphere_sizes": [int(s) for s in measure.sphere_sizes],
        }

    with _stage(report, "pushforward"):
        push = pushforward_check(action, measure)
        report["pushforward"] = push

    with _stage(report, "export"):
        gen_files = _export_action(out_dir, "tamed", spec, tamed)
        _write_json(
            os.path.join(out_dir, "conjugator.json"),
            measure.conjugator.to_payload(),
        )
        report["outputs"] = {
            "generators": gen_files,
            "conjugator": "conjugator.json",
            "spec": "tamed.spec",
        }

    push_bad = sum(p["violations"] for p in push.values())
    report["certified"] = bool(taming.certified and push_bad == 0)
    if not report["certified"]:
        raise CertificationFailure(
            f"taming not certified: slack={taming.slack:.6g} "
            f"(threshold {taming.refuse_threshold}), "
            f"pushforward violations={push_bad}",
            report,
        )


def _periodic_flatten(action: Action, report: dict, params: PipelineParams) -> Action:
    """The C¹ prefix of tame-c1, flatten and path: the periodic stage
    inventories the orbits up to PERIOD_CAP, and the flatten stage flattens
    them with those orbits when one is hyperbolic, to the per-period budget
    delta (else epsilon, else 0.1) unless alpha is given."""
    with _stage(report, "periodic"):
        inventory = _periodic_inventory(action)
        report["periodic"] = _orbit_records(inventory)

    with _stage(report, "flatten"):
        if all(o.parabolic for orbits in inventory.values() for o in orbits):
            report["flatten"] = {"skipped": True, "alpha": 1.0, "flagged": []}
            return action
        delta = next(v for v in (params.delta, params.epsilon, 0.1) if v is not None)
        flattened, _, flat_report = flatten_hyperbolic(
            action, delta, params.alpha, orbits=list(inventory.values())
        )
        report["flatten"] = dict(flat_report.to_dict(), skipped=False)
    return flattened


def _check_ball_before_build(command: str, spec: ActionSpec, params: PipelineParams) -> None:
    """tame-c1 and path on a Z^d spec refuse a ball sum above the size cap
    before the build, from the grid, the rank and nmax."""
    if spec.group_type != ABELIAN or command not in ("tame-c1", "path"):
        return
    try:
        space = Space(spec.space_kind, spec.grid_size)
    except ValueError:
        return  # build_action refuses it
    check_ball_sums(space, len(spec.generator_names), params.nmax, solve=command == "tame-c1")


def _solve(action: Action, spec: ActionSpec, params: PipelineParams) -> CohomSolution:
    if spec.group_type == NILPOTENT:
        return nilpotent_average_solution(
            action,
            params.shell_index,
            growth_constant=params.growth_constant,
            k_max=params.k_max,
        )
    return birkhoff_solution(action, params.nmax)


def _solution_dict(sol: CohomSolution) -> dict:
    return {
        "construction": sol.construction,
        "defect": float(sol.defect),
        "defect_per_generator": {
            k: float(v) for k, v in sol.defect_per_generator.items()
        },
        "defect_locations": {
            k: float(v) for k, v in sol.defect_locations.items()
        },
        "defect_refined": {
            k: float(v) for k, v in sol.defect_refined.items()
        },
        "extras": dict(sol.extras),
    }


def _cmd_tame_c1(
    spec: ActionSpec, action: Action, params: PipelineParams,
    out_dir: str, report: dict,
) -> None:
    if spec.group_type == FREE:
        raise SpecError("tame-c1 needs an abelian or nilpotent group; "
                        "use detect for free actions")
    eps = _need(params.epsilon, "epsilon", "tame-c1")
    flattened = _periodic_flatten(action, report, params)

    with _stage(report, "solve"):
        sol = _solve(flattened, spec, params)
        report["solve"] = _solution_dict(sol)

    with _stage(report, "conjugate"):
        phi_w = conjugacy_from_log_density(sol.u)
        final = flattened.conjugated(phi_w)
        report["conjugate"] = {
            "sup_log_deriv": _sup_log_deriv(final),
            "conjugacy": "phi_w.json"
            + ("" if flattened is action else " composed with the flattening map"),
        }

    with _stage(report, "certify"):
        defect = float(sol.defect)
        slack = max(0.0, defect - eps)
        final_sup = max(report["conjugate"]["sup_log_deriv"].values())
        final_orbits = _periodic_inventory(final)
        multiplier_ok = all(
            abs(o.log_multiplier) < o.period * eps * (1.0 + 1e-6)
            for orbits in final_orbits.values()
            for o in orbits
        )
        report["certify"] = {
            "epsilon": eps,
            "defect": defect,
            "slack": slack,
            "final_sup_log_deriv": final_sup,
            "final_periodic": _orbit_records(final_orbits),
            "multipliers_within_epsilon": multiplier_ok,
            # against epsilon alone (defect and slack are diagnostics), with
            # the multiplier check's headroom: exact <= is ulp-fragile
            "certified": bool(multiplier_ok and final_sup <= eps * (1.0 + 1e-6)),
        }
        report["certified"] = report["certify"]["certified"]

    with _stage(report, "export"):
        gen_files = _export_action(out_dir, "tamed", spec, final)
        _write_json(os.path.join(out_dir, "phi_w.json"), phi_w.to_payload())
        report["outputs"] = {
            "generators": gen_files,
            "solution_conjugacy": "phi_w.json",
            "spec": "tamed.spec",
        }

    if not report["certified"]:
        raise CertificationFailure(
            f"final sup|log D| = {final_sup:.6g} against epsilon = "
            f"{eps:.6g}, multipliers within epsilon: {multiplier_ok}",
            report,
        )


def _cmd_path(
    spec: ActionSpec, action: Action, params: PipelineParams,
    out_dir: str, report: dict,
) -> None:
    if spec.group_type != ABELIAN:
        raise SpecError("path needs an abelian group")
    flattened = _periodic_flatten(action, report, params)
    names = action.names
    space = {"kind": action.space.kind, "grid_size": action.space.grid_size}
    step_sups: List[float] = []

    # the checks and the ball pass run first; then each sample is written as
    # soon as it is built, so a sample that fails leaves the ones before it
    with _stage(report, "path"):
        samples = path_of_conjugates(flattened, params.nmax, params.steps)
        with open(os.path.join(out_dir, "path.jsonl"), "w") as fh, \
                open(os.path.join(out_dir, "plot.csv"), "w") as csv:
            csv.write("t,c1_gap" + "".join(f",defect_{n}" for n in names) + "\n")
            for count, s in enumerate(samples, 1):
                line = dict(t=s.t, n=s.n, s=s.s, c1_gap=s.c1_gap,
                            c1_gap_track=s.c1_gap_track, c1_step=s.c1_step,
                            gap_per_generator=s.gap_per_generator)
                if s.u is not None:
                    line.update(u=s.u, space=space)
                fh.write(dumps_canonical(line) + "\n")
                row = [s.t, s.c1_gap] + [s.gap_per_generator[n] for n in names]
                csv.write(",".join(f"{v:.17g}" for v in row) + "\n")
                step_sups += [max(v) for v in (s.c1_step or {}).values()]

    with _stage(report, "export"):
        report["path"] = {
            "n_max": params.nmax,
            "steps_per_unit": params.steps,
            "samples": count,
            "final_c1_gap": s.c1_gap,
            "final_c1_gap_track": s.c1_gap_track,
            "max_c1_step": float(max(step_sups, default=0.0)),
        }
        report["outputs"] = {"path": "path.jsonl", "plot": "plot.csv"}


def path_phi(path_jsonl: str, t: float) -> Diffeo:
    """The conjugacy phi_t of a path.jsonl sample, rebuilt bit for bit from
    the u tracks of the integer samples (path_conjugacy); t must be one of
    the file's sample times."""
    with open(path_jsonl) as fh:
        lines = [json.loads(line) for line in fh]
    hit = next((line for line in lines if line["t"] == t), None)
    if hit is None:
        raise ValueError(f"t = {t!r} is not a sample of {path_jsonl}")
    u = [None] + [np.asarray(line["u"]) for line in lines if "u" in line]
    sp = lines[0]["space"]
    return path_conjugacy(Space(sp["kind"], sp["grid_size"]), u, hit["n"], hit["s"])


def _cmd_detect(
    spec: ActionSpec, action: Action, params: PipelineParams,
    out_dir: str, report: dict,
) -> None:
    with _stage(report, "detect"):
        witness = detect_resilient(action, params.max_word_len, params.resolution)
        payload = witness.to_dict() if witness is not None else None
        _write_json(os.path.join(out_dir, "detect.json"), payload)
        report["detect"] = {
            "max_word_len": params.max_word_len,
            "resolution": params.resolution,
            "found": witness is not None,
            "witness": payload,
        }
        report["outputs"] = {"witness": "detect.json"}


def _cmd_flatten(
    spec: ActionSpec, action: Action, params: PipelineParams,
    out_dir: str, report: dict,
) -> None:
    flattened = _periodic_flatten(action, report, params)

    with _stage(report, "export"):
        gen_files = _export_action(out_dir, "flat", spec, flattened)
        report["outputs"] = {"generators": gen_files, "spec": "flat.spec"}
        report["sup_log_deriv"] = _sup_log_deriv(flattened)


def _cmd_report(
    spec: ActionSpec, action: Action, params: PipelineParams,
    out_dir: str, report: dict,
) -> None:
    with _stage(report, "diagnose"):
        report["sup_log_deriv"] = _sup_log_deriv(action)
        report["relations"] = validate_relations(action, raise_on_fail=False)
        report["periodic"] = _orbit_records(_periodic_inventory(action))
        if action.space.is_circle:
            rot = {}
            for name, g in zip(action.names, action.gens):
                rho, err = rotation_number(g)
                rot[name] = {"rotation_number": rho, "error_bound": err}
            report["rotation_numbers"] = rot


_DISPATCH = {
    "tame-lipschitz": _cmd_tame_lipschitz,
    "tame-c1": _cmd_tame_c1,
    "path": _cmd_path,
    "detect": _cmd_detect,
    "flatten": _cmd_flatten,
    "report": _cmd_report,
}


def run_pipeline(
    command: str,
    spec: ActionSpec,
    out_dir: str,
    base_dir: str = ".",
    overrides: Optional[dict] = None,
) -> dict:
    """Runs one pipeline command and returns the report dict (also written
    to out_dir/report.json).  Raises SpecError for bad input and
    CertificationFailure — after writing the report — for failed bounds."""
    if command not in _DISPATCH:
        raise SpecError(f"unknown command {command!r}; expected one of "
                        + ", ".join(COMMANDS))
    params = spec.params.merged(**(overrides or {}))
    spec = dataclasses.replace(spec, params=params)  # what the exported specs carry
    os.makedirs(out_dir, exist_ok=True)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "space": {"kind": spec.space_kind, "grid_size": spec.grid_size},
        "group": {
            "type": spec.group_type,
            "generators": list(spec.generator_names),
        },
        "stage_order": [],
    }

    def finish():
        _write_json(os.path.join(out_dir, "report.json"), report)

    try:
        with _stage(report, "build"):
            params.check()
            _check_ball_before_build(command, spec, params)
            action = build_action(spec, base_dir=base_dir)
        _DISPATCH[command](spec, action, params, out_dir, report)
    except CertificationFailure:
        finish()
        raise
    except ConjTamerError:
        if command in CERTIFYING:
            report["certified"] = False
        finish()
        raise
    finish()
    return report
