"""Command-line front end of the benchmark harness.

Subcommands: solve, sweep-time, sweep-space, accel-compare, ml-eval.
Every flag can also be given in a flat key=value config file passed with
--config: a key is the flag's name without "--", spelled in full, and its
value goes through the flag's type and choices.  Command-line flags
override file values.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import re
import sys
from math import inf

from .bench import EXAMPLE_IDS, MODES, BenchError, ExperimentSpec, run
from .contour import ContourConfig, ContourError
from .mlf import MLError, MLQuery, ml_biv


def _config_args(path: str) -> list[str]:
    """Each ``key = value`` line of a config file as the flag ``--key=value``."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise BenchError(f"cannot read config file {path!r}: {exc}") from exc
    out: list[str] = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BenchError(f"config line without '=': {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":
            raise BenchError("unknown config key 'config'")
        out.append(f"--{key}={value}")
    return out


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.split(",") if x.strip())


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip())


def _add_common(p: argparse.ArgumentParser) -> None:
    cd, spec = ContourConfig, ExperimentSpec
    p.add_argument("--config", help="flat key=value config file of these flags; flags override")
    p.add_argument("--example", choices=EXAMPLE_IDS, default="ex1_scalar")
    p.add_argument("--beta", type=_floats, default=spec.betas, help="comma-separated fractional orders")
    p.add_argument("--K", type=float, default=spec.K, help="normal-diffusion coefficient")
    p.add_argument("--Lambda", type=float, dest="lambda_ratio", default=cd.lambda_ratio,
                   help="time-window ratio")
    p.add_argument("--t0", type=float, default=cd.t0, help="left end of the time window")
    p.add_argument("--alpha", type=float, default=cd.alpha, help="contour asymptote angle")
    p.add_argument("--delta-prime", type=float, default=cd.delta_prime, help="sector safety margin")
    p.add_argument("--N", type=_ints, default=spec.n_list, help="comma-separated contour node counts")
    p.add_argument("--M", type=_ints, default=spec.m_list, help="comma-separated mesh interval counts")
    p.add_argument("--n-interp", type=_ints, default=spec.n_interp,
                   help="comma-separated interpolation orders for acceleration")
    p.add_argument("--times", type=_floats, default=spec.eval_times, help="comma-separated evaluation times")
    p.add_argument("--reference", choices=("exact", "numeric"), default=spec.reference,
                   help="exact: the example's exact solution; numeric: in sweep-time the exact "
                   "semi-discrete solution by modes for a source-free 1-D problem, else the "
                   "N_REF-node contour solve; in sweep-space the solution on mesh 2M")
    p.add_argument("--out", help="also write the CSV to this path")


def _with_config(p: argparse.ArgumentParser, path: str, flags: list[str]) -> argparse.Namespace:
    """Parse the config file's flags, then the command-line ``flags``, which override them."""
    args, unknown = p.parse_known_args(_config_args(path) + flags)
    if unknown:
        raise BenchError(f"unknown config key {unknown[0].lstrip('-').split('=', 1)[0]!r}")
    return args


def _build_spec(mode: str, args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec(
        mode=mode,
        example_id=args.example,
        betas=args.beta,
        n_list=args.N,
        m_list=args.M,
        n_interp=args.n_interp,
        eval_times=args.times,
        reference=args.reference,
        contour=ContourConfig(
            alpha=args.alpha, delta_prime=args.delta_prime, t0=args.t0, lambda_ratio=args.lambda_ratio
        ),
        K=args.K,
    )


def _error(message: str) -> int:
    """Report a bad request like an argparse error, without a traceback, and return exit status 2."""
    print(f"cimfem: error: {message}", file=sys.stderr)
    return 2


def _cmd_sweep(spec: ExperimentSpec, out_path: str | None) -> int:
    """Run ``spec`` and write its CSV to stdout and, if given, to ``out_path``.

    ``out_path`` is opened before the first job, so a bad path costs no work.
    """
    with contextlib.ExitStack() as stack:
        try:
            out = stack.enter_context(open(out_path, "w", newline="")) if out_path else None
        except OSError as exc:
            return _error(f"cannot write {out_path!r}: {exc.strerror}")
        report = run(spec)
        text = report.to_csv()
        sys.stdout.write(text)
        if out is not None:
            out.write(text)
    for failure in report.failures:
        print(f"row failed: {failure}", file=sys.stderr)
    return 1 if report.failures else 0


def _ml_value(line: str) -> float:
    """The relaxation function at one ``alpha beta gamma z1 z2 [t]`` query.

    A given ``t`` must be finite and positive; the value does not depend on it.
    """
    parts = line.replace(",", " ").split()
    if len(parts) not in (5, 6):
        raise ValueError(f"expected 'alpha beta gamma z1 z2 [t]', got: {line}")
    q = MLQuery(*(float(x) for x in parts[:5]))
    t = float(parts[5]) if len(parts) == 6 else 1.0
    if not 0.0 < t < inf:  # a NaN time fails too
        raise ValueError(f"need finite t > 0, got {t}")
    return ml_biv(q)


def _cmd_ml_eval(args: argparse.Namespace) -> int:
    lines: list[str]
    if args.query:
        lines = [" ".join(args.query)]
    else:
        lines = [ln for ln in sys.stdin.read().splitlines() if ln.strip()]
    for line in lines:
        try:
            value = _ml_value(line)
        except (ValueError, MLError) as exc:
            return _error(str(exc))
        print(f"{value:.15e}")
    return 0


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``cimfem`` parser and its sweep subparsers by mode, built on first use.

    Parsing leaves no state in a parser, so one pair serves every call of
    ``main`` in a process.
    """
    parser = argparse.ArgumentParser(
        prog="cimfem",
        description="Contour-integral FEM solver benchmarks for normal subdiffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    modes = {}
    for mode in MODES:
        modes[mode] = sub.add_parser(mode, allow_abbrev=False)
        _add_common(modes[mode])
    p_ml = sub.add_parser("ml-eval", help="evaluate the bivariate relaxation function")
    p_ml.add_argument(
        "query", nargs="*", help="alpha beta gamma z1 z2 [t]; reads stdin lines if omitted"
    )
    # argparse takes an argument for an option unless it looks like a negative
    # number, and its own pattern has no exponent and no inf or nan: -1e5 and
    # -inf would be options.  This one takes every negative float() spelling.
    p_ml._negative_number_matcher = re.compile(
        r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
    )
    return parser, modes


def main(argv: list[str] | None = None) -> int:
    parser, modes = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.command == "ml-eval":
        return _cmd_ml_eval(args)
    mode = args.command
    try:
        if args.config:
            # argv[0] is the command: the top-level parser has no flag of its own
            args = _with_config(modes[mode], args.config, argv[1:])
        spec = _build_spec(mode, args)
    except (BenchError, ContourError) as exc:
        return _error(str(exc))
    return _cmd_sweep(spec, args.out)


if __name__ == "__main__":
    sys.exit(main())
