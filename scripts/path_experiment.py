"""Trace the continuous path of conjugated actions for a rank-2 rotation pair.

Every unit of path time t corresponds to one more term in the averaging
window; between integers the log-densities are linearly interpolated, so the
resulting family of conjugacies moves continuously in the C1 topology while
the generators' derivative defects shrink.
"""

import argparse
import contextlib
import csv

from conjtamer import load_action_spec, build_action, path_of_conjugates


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default="specs/a3_z2.spec")
    ap.add_argument("--nmax", type=int, default=12)
    ap.add_argument("--steps", type=int, default=4)
    ap.add_argument("--csv", default=None, help="optional output table")
    args = ap.parse_args()

    action = build_action(load_action_spec(args.spec))
    names = action.names
    # path_of_conjugates streams its samples: each row is written as it is
    # printed, since the iterator runs once
    with open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext() as fh:
        rows = csv.writer(fh) if fh else None
        if rows:
            rows.writerow(["t", "c1_gap"] + [f"defect_{n}" for n in names])
        print(f"{'t':>7}  {'c1_gap':>12}  {'max gen step':>12}")
        for s in path_of_conjugates(action, args.nmax, args.steps):
            step = max(max(v) for v in s.c1_step.values()) if s.c1_step else 0.0
            marker = "  *" if abs(s.t - round(s.t)) < 1e-12 else ""
            print(f"{s.t:7.3f}  {s.c1_gap:12.6f}  {step:12.6f}{marker}")
            if rows:
                rows.writerow([s.t, s.c1_gap] + [s.gap_per_generator[n] for n in names])
    if args.csv:
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
