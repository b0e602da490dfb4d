#!/usr/bin/env python3
"""Error-vs-N decay of the contour quadrature on the scalar benchmark.

Writes one CSV row per (beta, Lambda, N) with the absolute error against
the closed-form solution at t = 0.6 * Lambda * t0, showing the expected
spectral decay down to the round-off plateau.
"""

import argparse
import csv
import sys

from cimfem.bench import ContourDefaults, build_problem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--betas", default="0.25,0.5,0.75")
    ap.add_argument("--lambdas", default="5,10,20")
    ap.add_argument("--n-max", type=int, default=120)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["beta", "lambda", "N", "t", "abs_error"])
    for beta in (float(b) for b in args.betas.split(",")):
        for lam in (float(x) for x in args.lambdas.split(",")):
            cd = ContourDefaults(lambda_ratio=lam)
            bp = build_problem("ex1_scalar", beta, 4, cd)
            t = 0.6 * lam * cd.t0
            for n in range(10, args.n_max + 1, 10):
                val = bp.run(n).solve(t)
                writer.writerow([beta, lam, n, t, f"{abs(val - bp.exact(t)):.4E}"])
    if out is not sys.stdout:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
