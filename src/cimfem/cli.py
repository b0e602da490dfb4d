"""Command-line front end of the benchmark harness.

Subcommands: solve, sweep-time, sweep-space, accel-compare, ml-eval.
Every flag can also be given in a flat key=value config file passed with
--config; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    EXAMPLE_IDS,
    BenchError,
    ContourDefaults,
    ExperimentSpec,
    run,
)
from .mlf import MLQuery, ml_biv, ml_biv_series


def _parse_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise BenchError(f"config line without '=': {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.split(",") if x.strip())


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--example", choices=EXAMPLE_IDS)
    p.add_argument("--beta", help="comma-separated fractional orders")
    p.add_argument("--K", type=float, help="normal-diffusion coefficient")
    p.add_argument("--Lambda", type=float, dest="lambda_ratio", help="time-window ratio")
    p.add_argument("--t0", type=float, help="left end of the time window")
    p.add_argument("--alpha", type=float, help="contour asymptote angle")
    p.add_argument("--delta-prime", type=float, help="sector safety margin")
    p.add_argument("--N", help="comma-separated contour node counts")
    p.add_argument("--M", help="comma-separated mesh interval counts")
    p.add_argument("--n-interp", type=int, help="interpolation order for acceleration")
    p.add_argument("--times", help="comma-separated evaluation times")
    p.add_argument("--reference", choices=("exact", "numeric"))
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--threads", type=int, help="concurrent sweep rows")


_DEFAULTS = {
    "example": "ex1_scalar",
    "beta": "0.5",
    "K": ContourDefaults.K,
    "lambda_ratio": ContourDefaults.lambda_ratio,
    "t0": ContourDefaults.t0,
    "alpha": ContourDefaults.alpha,
    "delta_prime": ContourDefaults.delta_prime,
    "N": "100",
    "M": "32",
    "n_interp": 10,
    "times": "0.6",
    "reference": "numeric",
    "out": None,
    "threads": 1,
}

# config-file key -> argparse dest, with type conversion at spec build time
_CONFIG_KEYS = {
    "example": "example",
    "beta": "beta",
    "K": "K",
    "Lambda": "lambda_ratio",
    "t0": "t0",
    "alpha": "alpha",
    "delta-prime": "delta_prime",
    "N": "N",
    "M": "M",
    "n-interp": "n_interp",
    "times": "times",
    "reference": "reference",
    "out": "out",
    "threads": "threads",
}

_FLOAT_KEYS = {"K", "lambda_ratio", "t0", "alpha", "delta_prime"}
_INT_KEYS = {"n_interp", "threads"}


def _resolve(args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS)
    if args.config:
        cfg = _parse_config(args.config)
        for key, value in cfg.items():
            if key not in _CONFIG_KEYS:
                raise BenchError(f"unknown config key {key!r}")
            dest = _CONFIG_KEYS[key]
            if dest in _FLOAT_KEYS:
                merged[dest] = float(value)
            elif dest in _INT_KEYS:
                merged[dest] = int(value)
            else:
                merged[dest] = value
    for dest in _DEFAULTS:
        value = getattr(args, dest, None)
        if value is not None:
            merged[dest] = value
    return merged


def _build_spec(mode: str, merged: dict) -> ExperimentSpec:
    contour = ContourDefaults(
        alpha=merged["alpha"],
        delta_prime=merged["delta_prime"],
        t0=merged["t0"],
        lambda_ratio=merged["lambda_ratio"],
        K=merged["K"],
    )
    return ExperimentSpec(
        mode=mode,
        example_id=merged["example"],
        betas=_floats(merged["beta"]),
        n_list=_ints(merged["N"]),
        m_list=_ints(merged["M"]),
        n_interp=merged["n_interp"],
        eval_times=_floats(merged["times"]),
        reference=merged["reference"],
        output_path=merged["out"],
        threads=merged["threads"],
        contour=contour,
    )


def _cmd_sweep(mode: str, args: argparse.Namespace) -> int:
    spec = _build_spec(mode, _resolve(args))
    report = run(spec)
    sys.stdout.write(report.to_csv())
    for failure in report.failures:
        print(f"row failed: {failure}", file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_ml_eval(args: argparse.Namespace) -> int:
    lines: list[str]
    if args.query:
        lines = [" ".join(args.query)]
    else:
        lines = [ln for ln in sys.stdin.read().splitlines() if ln.strip()]
    for line in lines:
        parts = line.replace(",", " ").split()
        if len(parts) not in (5, 6):
            print(f"expected 'alpha beta gamma z1 z2 [t]', got: {line}", file=sys.stderr)
            return 2
        a, b, g, z1, z2 = (float(x) for x in parts[:5])
        q = MLQuery(a, b, g, z1, z2)
        if len(parts) == 6:
            value = ml_biv(q, float(parts[5]))
        else:
            value = ml_biv_series(q)
        print(f"{value:.15e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cimfem",
        description="Contour-integral FEM solver benchmarks for normal subdiffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in ("solve", "sweep-time", "sweep-space", "accel-compare"):
        p = sub.add_parser(mode)
        _add_common(p)
    p_ml = sub.add_parser("ml-eval", help="evaluate the bivariate relaxation function")
    p_ml.add_argument(
        "query", nargs="*", help="alpha beta gamma z1 z2 [t]; reads stdin lines if omitted"
    )
    args = parser.parse_args(argv)
    if args.command == "ml-eval":
        return _cmd_ml_eval(args)
    return _cmd_sweep(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
