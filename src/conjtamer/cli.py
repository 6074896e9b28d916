"""Command-line interface.

    conjtamer tame-lipschitz --spec a4.spec --lambda 0.9048 --radius 40 --out out/
    conjtamer tame-c1        --spec a4.spec --epsilon 0.1
    conjtamer path           --spec a4.spec --nmax 16 --steps 8
    conjtamer detect         --spec pingpong.spec --resilient -L 4 --resolution 0.01
    conjtamer flatten        --spec a4.spec --delta 0.1
    conjtamer report         --spec a3.spec

Parameter flags come from specfile._PIPELINE_KEYS, show its defaults and
override the spec's [pipeline] values.

Exit codes: 0 success (detect returns 0 whether or not a witness exists),
2 spec/usage error or out-of-range parameter (report.json still written once
the spec parses; a key outside specfile's tables, a value that does not cast
or a repeated name is refused at its line, before any report), 3 certification
failure (report.json still written), 1 any other pipeline error (e.g. a Newton
inversion that does not converge).

`python -m conjtamer` and the `conjtamer` script run entry(), which freezes
the heap around main(); main() itself has no process-wide side effect.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import List, Optional

from .errors import CertificationFailure, ConjTamerError, SpecError
from .pipeline import CERTIFYING, run_pipeline
from .specfile import _PIPELINE_KEYS, load_action_spec

# command -> (help, the [pipeline] keys it takes as flags)
_COMMANDS = {
    "tame-lipschitz": ("conjugate to uniformly small Lipschitz constants via a "
                       "word-averaged measure", ("lambda", "radius")),
    "tame-c1": ("flatten hyperbolic periodic points, solve the additive cocycle "
                "equation and certify sup|log D|",
                ("epsilon", "delta", "alpha", "nmax", "k_max", "shell_index",
                 "growth_constant")),
    "path": ("flatten as tame-c1 does, then sample the conjugacy path of "
             "averaging solutions (abelian)", ("nmax", "steps")),
    "detect": ("search short words for a resilient crossed-interval pattern",
               ("max_word_len", "resolution")),
    "flatten": ("conjugate hyperbolic periodic multipliers down to a "
                "per-period budget", ("delta", "alpha")),
    "report": ("diagnostics only: norms, relations, periodic inventory, "
               "rotation numbers", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjtamer",
        description="Conjugate interval/circle group actions toward "
        "Lipschitz or C1-small generators, follow conjugacy paths, and "
        "probe obstructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--spec", required=True, metavar="FILE",
                        help="action spec file")
        sp.add_argument("--grid", type=int, metavar="N",
                        help="override [space] grid_size")
        sp.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default: out)")
        if command == "detect":
            sp.add_argument("--resilient", action="store_true",
                            help="look for a resilient pair (the default and "
                            "only detector)")
        for key in keys:
            attr, default, cast, _, _, flags, help_key = _PIPELINE_KEYS[key]
            if default is not None:
                help_key += f" (default {default})"
            sp.add_argument(*flags, dest=attr, type=cast, metavar=key.upper(),
                            help=help_key)
    return parser


def _summary_lines(report: dict) -> List[str]:
    command = report["command"]
    status = ""
    if command in CERTIFYING:
        status = " (certified)" if report.get("certified") else " (NOT certified)"
    lines = [f"{command}: wrote report.json{status}"]
    if command == "tame-lipschitz" and "taming" in report:
        t = report["taming"]
        worst = max(max(g["lip"], g["lip_inv"]) for g in t["per_generator"].values())
        lines.append(f"  lip bound {t['lip_bound']:.6g}, worst generator "
                     f"{worst:.6g}, slack {t['slack']:.4g}")
    elif command == "tame-c1" and "certify" in report:
        c = report["certify"]
        lines.append(f"  final sup|log D| {c['final_sup_log_deriv']:.6g} vs "
                     f"epsilon {c['epsilon']:.6g}")
    elif command == "path" and "path" in report:
        p = report["path"]
        lines.append(f"  {p['samples']} samples, final c1 gap "
                     f"{p['final_c1_gap']:.6g}")
    elif command == "detect" and "detect" in report:
        d = report["detect"]
        if d["found"]:
            w = d["witness"]
            lines.append(f"  witness: f={w['word_f']} g={w['word_g']} "
                         f"x={w['x']:.6g} y={w['y']:.6g} "
                         f"margin {w['margin']:.4g}")
        else:
            lines.append(f"  no witness up to length {d['max_word_len']}")
    elif command == "flatten" and "flatten" in report:
        f = report["flatten"]
        if f.get("skipped"):
            lines.append("  skipped: no hyperbolic periodic points")
        else:
            lines.append(f"  alpha {float(f['alpha']):.6g}, "
                         f"{len(f['flagged'])} flagged point(s)")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {a: getattr(args, a) for a, *_ in _PIPELINE_KEYS.values()
                 if getattr(args, a, None) is not None}
    try:
        spec = load_action_spec(args.spec)
        if args.grid is not None:
            spec = spec._replace(grid_size=args.grid)
        report = run_pipeline(
            args.command,
            spec,
            args.out,
            base_dir=os.path.dirname(os.path.abspath(args.spec)),
            overrides=overrides,
        )
    except OSError as exc:
        print(f"conjtamer: {exc}", file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"conjtamer: spec error: {exc}", file=sys.stderr)
        return 2
    except CertificationFailure as exc:
        print(f"conjtamer: certification failure: {exc}", file=sys.stderr)
        return 3
    except ConjTamerError as exc:
        print(f"conjtamer: {exc}", file=sys.stderr)
        return 1
    for line in _summary_lines(report):
        print(line)
    return 0


def entry() -> int:
    """main() as a one-shot process: the start-up heap (the imported modules,
    which live as long as the process) and then main()'s survivors are moved
    out of the garbage collector's reach, so that neither the collections
    during the stages nor the ones at exit walk them again."""
    gc.freeze()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
