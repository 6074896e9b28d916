"""Fast self-test of the benchmark at the tiny problem size.

    python3 perfbench/selftest.py

Checks that a traced and an untraced run print every metric BENCHMARK.json
names, with its unit, and that a corrupted report.json and a killed child
each count as a failed operation.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run


def bench_run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, trace: bool) -> None:
    units = run.load_metric_units(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"metrics differ from BENCHMARK.json: {got} != {units}"
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result


def check_faults() -> None:
    w = run.prepare("torus-c1", 3, "tiny")
    good = run.run_op(w, 0, traced=False)
    assert good.error is None, good.error
    corrupt = (
        "import sys, os\n"
        "from conjtamer.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "open(os.path.join(sys.argv[-1], 'report.json'), 'w').write('{oops')\n"
        "sys.exit(rc)\n"
    )
    spec_out = ["--spec", w.spec, "--out", os.path.join(w.dir, f"op{w.op_count + 1}")]
    bad = run.run_op(w, 0, traced=False,
                     argv=[sys.executable, "-c", corrupt, "tame-c1"] + spec_out)
    assert bad.error and bad.error.startswith("report.json"), bad.error
    kill = "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"
    killed = run.run_op(w, 0, traced=False, argv=[sys.executable, "-c", kill])
    assert killed.error == "killed by signal 9", killed.error
    attempted, failed = run.counts(w)
    assert (attempted, failed) == (3, 2), (attempted, failed)
    line = run.result_line(w, {"ok_rate": (attempted - failed) / attempted},
                           {"ok_rate": "ratio"})
    assert line["failed"] == 2 and not line["correct"], line
    assert abs(line["metrics"]["ok_rate"]["value"] - 1 / 3) < 1e-12, line


def main() -> int:
    check_faults()
    print("faults: a corrupted report and a killed child each count as failed")
    check_metrics(bench_run("torus-path", 0), trace=False)
    print("end-to-end metrics: all present with their units")
    check_metrics(bench_run("interval-hyperbolic", 1), trace=True)
    print("per-layer metrics: all present with their units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
