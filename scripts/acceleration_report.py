#!/usr/bin/env python3
"""Barycentric-acceleration report: deviation, IAR, and wall-time speedup.

For each requested interpolation order n, prints the relative deviation
of the accelerated solution from the plain one, the interpolation
approximation rate against the exact solution where available, and the
median wall-time speedup of the accelerated node solve.
"""

import argparse
import sys

from cimfem.bench import accel_compare, build_problem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--example", default="ex3_1d_case1")
    ap.add_argument("--beta", type=float, default=0.5)
    ap.add_argument("--m", type=int, default=2 ** 10)
    ap.add_argument("--n", type=int, default=100, help="contour nodes")
    ap.add_argument("--n-interp", default="4,6,8,10,12,14,16,18,20")
    ap.add_argument("--t", type=float, default=0.6)
    args = ap.parse_args()

    bp = build_problem(args.example, args.beta, args.m)
    print("n_interp,deviation,iar,speedup")
    for n in (int(x) for x in args.n_interp.split(",")):
        dev, rate, t_plain, t_accel = accel_compare(bp, args.n, n, args.t)
        print(f"{n},{dev:.4E},{rate:.4E},{t_plain / t_accel:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
