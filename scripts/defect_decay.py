"""Defect decay of averaged solutions to u - u∘g = log Dg.

For a circle map with irrational rotation number the empirical measures
along orbits equidistribute, so the positive-ball averages u_n solve the
equation with defects shrinking as n grows.  The third column confirms the
telescoping identity: the defect at its argmax equals the empirical-measure
integral of log Dg at the matched point, (1/n) sum_{k<n} log Dg(g^k x) =
(1/n) log D(g^n)(x), the difference of rows n + 1 and n of birkhoff_field.
"""

import argparse

from conjtamer import (
    birkhoff_field,
    birkhoff_solution,
    build_action,
    load_action_spec,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default="specs/a3.spec")
    ap.add_argument("--nmax", type=int, default=32)
    args = ap.parse_args()

    action = build_action(load_action_spec(args.spec))
    if action.rank != 1:
        ap.error("the telescoping column reads the ball rows of a Z action")
    name = action.names[0]

    print(f"{'n':>4}  {'defect':>12}  {'|emp integral|':>14}")
    n = 2
    while n <= args.nmax:
        sol = birkhoff_solution(action, n)
        x_star = sol.defect_locations[name]
        rows = birkhoff_field(action, n + 1, x_star)
        emp = float(rows[n + 1, 0] - rows[n, 0]) / n
        print(f"{n:4d}  {sol.defect_per_generator[name]:12.8f}  {abs(emp):14.8f}")
        n *= 2


if __name__ == "__main__":
    main()
