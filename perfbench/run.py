"""The conjtamer benchmark: seeded workloads run through the real CLI.

    python3 perfbench/run.py --workload torus-c1 --seed 0 --seconds 15 --trace 0

Each operation is one fresh `python -m conjtamer ...` child, run one at a
time by this single process (a closed loop with one client).  A pass runs
the workload's commands once on the spec generated from --seed.  With
--trace 0 the run measures set-up SETUP_REPS times, then repeats passes
for --seconds (at least MIN_PASSES) and reports the end-to-end metrics.
With --trace 1 it alternates an untraced pass with a traced pass, in which
each command runs under perfbench/traced.py, and reports the per-layer
metrics and the tracing overhead.  Every operation's outputs are checked;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Metric names and units come from
BENCHMARK.json at the root of the checkout.

--workload all runs the four workloads in turn, each ending with its own
JSON line.  --size full runs the bundled problem sizes the ROADMAP baseline
used (minutes per pass); the default is the shrunken "bench" size.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
sys.path.insert(0, HERE)

import specgen  # noqa: E402

# Commands of one pass; every command also gets --spec and --out.
WORKLOADS: Dict[str, List[List[str]]] = {
    "torus-c1": [["tame-c1"]],
    "torus-path": [["path"]],
    "interval-hyperbolic": [["tame-lipschitz"], ["tame-c1"]],
    "heisenberg": [["tame-c1"], ["detect", "--resilient", "-L", "4"]],
}
STAGES = (
    "build", "tame", "pushforward", "periodic", "flatten", "solve",
    "conjugate", "certify", "path", "detect", "export",
)
SETUP_REPS = 3
MIN_PASSES = 2  # the second pass checks that report.json repeats byte for byte
TIMEOUT_S = {"tiny": 60, "bench": 60, "full": 900}
REL_TOL = 1e-9

CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": SRC,
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LC_ALL": "C",
}

SETUP_PROBE = (
    "import sys, os\n"
    "import conjtamer\n"
    "spec = conjtamer.load_action_spec(sys.argv[1])\n"
    "conjtamer.build_action(spec, base_dir=os.path.dirname(sys.argv[1]))\n"
)


# ---------------------------------------------------------------------------
# Children.


@dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    rss_mb: float


def run_child(argv: List[str], log_path: str, timeout: float) -> Child:
    """Runs argv to completion; resource use comes from os.wait4."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# Correctness of one operation.


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _tamed_sup(out_dir: str) -> float:
    """sup |log D| over the generator files that tamed.spec re-ingests."""
    sup = 0.0
    in_gens = False
    with open(os.path.join(out_dir, "tamed.spec")) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                in_gens = line == "[generators]"
            elif in_gens and "=" in line:
                ref = line.split("=", 1)[1].strip()
                if not ref.startswith("@"):
                    raise ValueError(f"tamed.spec generator {line!r} is not a file")
                with open(os.path.join(out_dir, ref[1:])) as g:
                    payload = json.load(g)
                sup = max(sup, max(abs(v) for v in payload["log_deriv"]))
    return sup


def _check_lipschitz(report: dict, out_dir: str, params: dict) -> Optional[str]:
    t = report["taming"]
    for name, g in t["per_generator"].items():
        if max(g["lip"], g["lip_inv"]) > t["lip_bound"]:
            return f"generator {name}: lip {g['lip']}, lip_inv {g['lip_inv']} " \
                   f"above lip_bound {t['lip_bound']}"
    bad = sum(p["violations"] for p in report["pushforward"].values())
    if bad:
        return f"{bad} pushforward violations"
    return None


def _check_c1(report: dict, out_dir: str, params: dict) -> Optional[str]:
    final = report["certify"]["final_sup_log_deriv"]
    reingested = _tamed_sup(out_dir)
    if not _close(final, reingested):
        return f"re-ingested tamed.spec sup {reingested!r} != reported {final!r}"
    return None


def _check_path(report: dict, out_dir: str, params: dict) -> Optional[str]:
    p = report["path"]
    n_max, steps = params["nmax"], params["steps"]
    want = (n_max - 1) * steps + 1
    if (p["n_max"], p["steps_per_unit"], p["samples"]) != (n_max, steps, want):
        return f"path header {p['n_max']}/{p['steps_per_unit']}/{p['samples']}" \
               f" != {n_max}/{steps}/{want}"
    with open(os.path.join(out_dir, "plot.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    if len(rows) != want:
        return f"plot.csv has {len(rows)} rows, want {want}"
    for j, row in enumerate(rows):
        t = float(row.split(",", 1)[0])
        if abs(t - (1.0 + j / steps)) > 1e-12:
            return f"plot.csv row {j}: t = {t!r}, want {1.0 + j / steps!r}"
    with open(os.path.join(out_dir, "path.jsonl"), "rb") as fh:
        lines = sum(1 for _ in fh)
    if lines != want:
        return f"path.jsonl has {lines} lines, want {want}"
    return None


def _check_detect(report: dict, out_dir: str, params: dict) -> Optional[str]:
    d = report["detect"]
    with open(os.path.join(out_dir, "detect.json")) as fh:
        if json.load(fh) != d["witness"]:
            return "detect.json differs from the report's witness"
    if d["found"]:
        chain = d["witness"]["chain"]
        steps = [b - a for a, b in zip(chain, chain[1:])]
        if min(steps) < d["resolution"]:
            return f"witness chain {chain} steps below resolution {d['resolution']}"
    return None


CHECKS = {
    "tame-lipschitz": _check_lipschitz,
    "tame-c1": _check_c1,
    "path": _check_path,
    "detect": _check_detect,
}


def check_op(command: str, rc: int, out_dir: str, params: dict,
             reference: Optional[bytes]) -> tuple:
    """(error or None, report dict or None, report bytes or None)."""
    if rc < 0:
        return f"killed by signal {-rc}", None, None
    if rc not in (0, 3):
        return f"exit code {rc}", None, None
    try:
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        return f"report.json: {exc}", None, None
    if not isinstance(report, dict):
        return "report.json is not an object", None, None
    if "failed_stage" in report:
        return f"failed stage {report['failed_stage']}", None, raw
    if reference is not None and raw != reference:
        return "report.json differs from the first pass", None, raw
    try:
        err = CHECKS[command](report, out_dir, params)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{command} outputs: {exc!r}", None, raw
    return err, (report if err is None else None), raw


# ---------------------------------------------------------------------------
# Operations and passes.


@dataclass
class Op:
    command: str
    child: Child
    error: Optional[str]
    report: Optional[dict]
    out_bytes: int
    spans: Optional[str] = None


@dataclass
class Workload:
    name: str
    size: str
    spec: str
    params: dict
    dir: str
    references: Dict[int, bytes] = field(default_factory=dict)
    ops: List[Op] = field(default_factory=list)
    setups: List[Child] = field(default_factory=list)
    op_count: int = 0

    @property
    def timeout(self) -> float:
        return TIMEOUT_S[self.size]


def prepare(name: str, seed: int, size: str) -> Workload:
    d = os.path.join(WORK, name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    spec = os.path.join(d, f"seed{seed}.spec")
    with open(spec, "w") as fh:
        fh.write(specgen.spec_text(name, seed, size))
    return Workload(name, size, spec, specgen.SIZES[size][name], d)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run_op(w: Workload, index: int, traced: bool,
           argv: Optional[List[str]] = None) -> Op:
    """Runs command `index` of the workload once, checks it, records it."""
    w.op_count += 1
    tag = f"op{w.op_count}"
    out_dir = os.path.join(w.dir, tag)
    cli = WORKLOADS[w.name][index] + ["--spec", w.spec, "--out", out_dir]
    spans = os.path.join(w.dir, f"{tag}.spans.npz") if traced else None
    if argv is None:
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), spans,
                    str(w.op_count), "--"] + cli
        else:
            argv = [sys.executable, "-m", "conjtamer"] + cli
    child = run_child(argv, os.path.join(w.dir, f"{tag}.log"), w.timeout)
    command = cli[0]
    err, report, raw = check_op(command, child.rc, out_dir, w.params,
                                w.references.get(index))
    if raw is not None and index not in w.references:
        w.references[index] = raw
    out_bytes = _dir_bytes(out_dir) if os.path.isdir(out_dir) else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    op = Op(command, child, err, report, out_bytes, spans)
    w.ops.append(op)
    return op


def run_pass(w: Workload, traced: bool) -> List[Op]:
    return [run_op(w, i, traced) for i in range(len(WORKLOADS[w.name]))]


def measure_setup(w: Workload) -> Child:
    w.op_count += 1
    child = run_child([sys.executable, "-c", SETUP_PROBE, w.spec],
                      os.path.join(w.dir, f"setup{w.op_count}.log"), w.timeout)
    w.setups.append(child)
    return child


def warm_up(w: Workload) -> None:
    """Compiles the package's bytecode so no timed child pays for it."""
    run_child([sys.executable, "-c", "import conjtamer.cli"],
              os.path.join(w.dir, "warmup.log"), w.timeout)


# ---------------------------------------------------------------------------
# Metrics.


def _quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def accuracy(ops: List[Op]) -> Dict[str, float]:
    """The accuracy figures of the first completed pass.

    c1_sup_final: sup |log D| of the final conjugated generators;
    c1_gap_final: cocycle defect of the averaged solution at the largest ball;
    lip_max: largest Lipschitz constant of the tamed generators (and their
    inverses): the tame-lipschitz figure where that command runs, otherwise
    exp(c1_sup_final)."""
    out: Dict[str, float] = {}
    for op in ops:
        r = op.report
        if r is None:
            continue
        if op.command == "tame-c1":
            out.setdefault("c1_sup_final", r["certify"]["final_sup_log_deriv"])
            out.setdefault("c1_gap_final", r["solve"]["defect"])
        elif op.command == "path":
            out.setdefault("c1_sup_final", r["path"]["final_c1_gap_track"])
            out.setdefault("c1_gap_final", r["path"]["final_c1_gap"])
        elif op.command == "tame-lipschitz":
            out.setdefault("lip_max", max(
                max(g["lip"], g["lip_inv"])
                for g in r["taming"]["per_generator"].values()))
    if "c1_sup_final" in out:
        out.setdefault("lip_max", math.exp(out["c1_sup_final"]))
    return out


def end_to_end(w: Workload, passes: List[List[Op]]) -> Dict[str, float]:
    walls = [sum(op.child.wall for op in p) for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(op.child.cpu for op in p) for p in passes),
        "setup_s": statistics.median(c.wall for c in w.setups),
        "peak_rss_mb": max(op.child.rss_mb for p in passes for op in p),
        "output_bytes": statistics.median(
            sum(op.out_bytes for op in p) for p in passes),
    }
    metrics.update(accuracy(w.ops))
    attempted, failed = counts(w)
    metrics["ok_rate"] = (attempted - failed) / attempted
    q1, q2, q3 = _quartiles(walls)
    print(f"wall_s per pass: median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} "
          f"n {len(walls)}: " + " ".join(f"{x:.4f}" for x in walls))
    return metrics


def counts(w: Workload) -> tuple:
    attempted = len(w.ops) + len(w.setups)
    failed = sum(op.error is not None for op in w.ops)
    failed += sum(c.rc != 0 for c in w.setups)
    return attempted, failed


def layer_table(ops: List[Op]) -> Dict[str, float]:
    """Per-layer statistics of one traced pass, summed over its commands."""
    import numpy as np

    table: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        table[key] = table.get(key, 0.0) + value

    built = used = 0
    roots = 0.0
    for op in ops:
        with np.load(op.spans) as z:
            names = [str(s) for s in z["names"]]
            nid, parent, size = z["name"], z["parent"], z["size"]
            dur = z["end"] - z["start"]
            outer = z["outer"].astype(bool)
            built += int(z["inverses_built"])
            used += int(z["inverses_used"])
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        k = len(names)
        calls = np.bincount(nid, minlength=k)
        points = np.bincount(nid, weights=size, minlength=k)
        total = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        selfs = np.bincount(nid, weights=self_time, minlength=k)
        roots += float(dur[~has_parent].sum())
        for i, name in enumerate(names):
            if name.startswith("pipeline.stage."):
                add(f"{name}.total_s", total[i])
                continue
            add(f"{name}.calls", calls[i])
            add(f"{name}.total_s", total[i])
            add(f"{name}.self_s", selfs[i])
            add(f"{name}.bytes" if name == "pipeline.dumps_canonical"
                else f"{name}.points", points[i])
    table["action.inverses_built"] = built
    table["action.inverses_used"] = used
    table["action.inverse_use_ratio"] = used / built if built else 0.0
    table["trace.root_s"] = roots
    table["trace.coverage"] = roots / sum(op.child.wall for op in ops)
    return table


def all_layer_names() -> List[str]:
    """Every per-layer statistic, including those a workload never reaches."""
    import traced

    names = []
    for short, quals in traced.TARGETS.items():
        for qual in quals:
            base = f"{short}.{qual}"
            names += [f"{base}.calls", f"{base}.total_s", f"{base}.self_s",
                      f"{base}.bytes" if qual == "dumps_canonical"
                      else f"{base}.points"]
    names += [f"pipeline.stage.{s}.total_s" for s in STAGES]
    return names


def per_layer(w: Workload, untraced: List[List[Op]],
              traced_passes: List[List[Op]]) -> Dict[str, float]:
    tables = [layer_table(p) for p in traced_passes
              if all(op.error is None for op in p)]
    if not tables:
        return {}
    keys = set(all_layer_names()).union(*tables)
    metrics = {k: float(statistics.median(t.get(k, 0.0) for t in tables))
               for k in sorted(keys)}
    traced_wall = statistics.median(sum(op.child.wall for op in p)
                                    for p in traced_passes)
    untraced_wall = statistics.median(sum(op.child.wall for op in p)
                                      for p in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    with open(os.path.join(WORK, f"{w.name}.layers.json"), "w") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
    return metrics


# ---------------------------------------------------------------------------
# Driver.


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "child_env": {k: v for k, v in CHILD_ENV.items() if k != "PATH"},
    }


def load_metric_units(trace: bool) -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    group = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def execute(w: Workload, seconds: float, trace: bool) -> Dict[str, float]:
    warm_up(w)
    if not trace:
        for _ in range(SETUP_REPS):
            measure_setup(w)
        passes: List[List[Op]] = []
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(run_pass(w, traced=False))
        return end_to_end(w, passes)
    untraced: List[List[Op]] = []
    traced_passes: List[List[Op]] = []
    deadline = time.perf_counter() + seconds
    while not traced_passes or time.perf_counter() < deadline:
        untraced.append(run_pass(w, traced=False))
        traced_passes.append(run_pass(w, traced=True))
    return per_layer(w, untraced, traced_passes)


def result_line(w: Workload, values: Dict[str, float],
                units: Dict[str, str]) -> dict:
    attempted, failed = counts(w)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def run_workload(name: str, args, units: Dict[str, str]) -> bool:
    """Runs one workload and prints its metrics; False if some are missing."""
    w = prepare(name, args.seed, args.size)
    values = execute(w, args.seconds, bool(args.trace))
    for op in w.ops:
        if op.error:
            print(f"FAILED {name} {op.command}: {op.error}")
    for c in w.setups:
        if c.rc:
            print(f"FAILED {name} set-up probe: exit code {c.rc}")
    for metric in sorted(values):
        unit = units.get(metric, "")
        print(f"{name} {metric} = {values[metric]!r} {unit}".rstrip())
    attempted, failed = counts(w)
    print(f"{name} fail_rate = {failed / attempted!r} ({failed} of {attempted})")
    missing = [metric for metric in units if metric not in values]
    if missing:
        print(f"perfbench: no completed operation gave {missing}", file=sys.stderr)
        return False
    print(json.dumps(result_line(w, values, units)))
    return True


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(specgen.SIZES), default="bench")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conjtamer", "__init__.py")):
        print(f"perfbench: no conjtamer sources under {SRC}", file=sys.stderr)
        return 2
    units = load_metric_units(bool(args.trace))
    print("environment: " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [run_workload(name, args, units) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
