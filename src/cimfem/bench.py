"""Benchmark harness: error metrics, convergence sweeps, CSV reports.

The example catalog covers the standard battery: a scalar problem with a
linear-in-time exact solution, a 1-D problem with vanishing initial data
and known exact solution, three 1-D and three 2-D initial/source
configurations of varying smoothness, and the acceleration comparison.
Temporal errors are measured against either the exact solution or a
reference contour solution with N_ref nodes on the same mesh; spatial
errors against the exact solution or the halved-mesh solution via P1
prolongation.  Every solve but the acceleration comparison's goes through
``solve``: one quadrature per (problem, N), its node values and their sum
at the requested times.
"""

from __future__ import annotations

import csv
import io
import itertools
import time
from dataclasses import dataclass, field
from math import gamma, inf, pi, sqrt
from typing import Callable

import numpy as np

from .cim import (
    CIMError,
    Problem,
    ScalarDomain,
    discretize,
    evaluate,
    problem_parameters,
    solve_nodes,
    solve_nodes_accelerated,
)
from .contour import ContourConfig, ContourError, quadrature_nodes

# ``assemble`` is not called in this module.  It stays one of its names
# because perfbench/tracing.py wraps cross-layer calls by module attribute
# name and expects ``cimfem.bench.assemble``.
from .fem import (
    FEMError,
    InitialData1D,
    InitialData2D,
    Mesh1D,
    Mesh2D,
    assemble,
    l2_error,
    mass_norm,
    prolong_1d,
    prolong_2d,
)
from .linalg import LinAlgError
from .mlf import MLError
from .symbols import FractionalSymbol, SourceTransform, SymbolError, pole_term, power_term


class BenchError(ValueError):
    """Raised for invalid experiment specifications."""


EXAMPLE_IDS = (
    "ex1_scalar",
    "ex2_vanishing",
    "ex3_1d_case1",
    "ex3_1d_case2",
    "ex3_1d_case3",
    "ex4_2d_case1",
    "ex4_2d_case2",
    "ex4_2d_case3",
)

N_REF = 200  # contour nodes of the numeric temporal reference

CSV_HEADER = ["example", "beta", "N", "M", "n", "t", "error", "order", "iar", "wall_ms"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: which example, which parameter lists, which reference."""

    mode: str  # a key of MODES
    example_id: str
    betas: tuple[float, ...] = (0.5,)
    n_list: tuple[int, ...] = (100,)
    m_list: tuple[int, ...] = (32,)
    n_interp: tuple[int, ...] = (10,)
    eval_times: tuple[float, ...] = (0.6,)
    reference: str = "numeric"  # "exact" | "numeric"
    contour: ContourConfig = ContourConfig()
    K: float = 1.0  # normal-diffusion coefficient

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise BenchError(f"unknown mode {self.mode!r}")
        if self.example_id not in EXAMPLE_IDS:
            raise BenchError(f"unknown example {self.example_id!r}")
        for name in ("betas", "n_list", "m_list", "n_interp", "eval_times"):
            if not getattr(self, name):
                raise BenchError(f"{name} must not be empty")
        for t in self.eval_times:
            if not 0.0 < t < inf:  # a NaN time fails too
                raise BenchError(f"evaluation times must be finite and > 0, got {t}")
        for name in ("n_list", "n_interp"):
            if min(getattr(self, name)) < 1:
                raise BenchError(f"{name} must hold counts >= 1, got {getattr(self, name)}")
        # the symbol and the mesh check their own parameters; whether a problem
        # is scalar and has an exact solution is its example's, so any one serves
        try:
            for beta, M in itertools.product(self.betas, self.m_list):
                bp = build_problem(self.example_id, beta, M, self.contour, self.K)
        except (SymbolError, FEMError) as exc:
            raise BenchError(str(exc)) from exc
        # only sweep-time solves the N_REF reference
        time_ref = self.mode == "sweep-time" and self.reference == "numeric"
        if time_ref and N_REF <= max(self.n_list):
            raise BenchError(f"numeric reference needs N_REF = {N_REF} > every N in the sweep")
        if self.mode == "sweep-space" and bp.problem.scalar:
            raise BenchError(f"sweep-space needs a mesh example; {self.example_id} has no mesh")
        if bp.problem.scalar:  # M does not enter a scalar problem: one value serves for all
            object.__setattr__(self, "m_list", self.m_list[:1])
        # the interpolation points span the nodes' angles, an empty interval for N = 1
        if self.mode == "accel-compare" and min(self.n_list) < 2:
            raise BenchError(
                f"accel-compare interpolates between contour nodes; need N >= 2, got {self.n_list}"
            )
        if self.reference == "exact" and bp.exact is None:
            exact = [e for e in EXAMPLE_IDS if build_problem(e, 0.5, 2).exact is not None]
            raise BenchError(f"exact reference only available for {'/'.join(exact)}")
        if self.reference not in ("exact", "numeric"):
            raise BenchError(f"unknown reference {self.reference!r}")


def solve(p: Problem, N: int, times):
    """The solution of ``p`` at ``times``, one time or a sequence, from one solve of its N contour nodes."""
    quad = quadrature_nodes(problem_parameters(p, N))
    return evaluate(quad, solve_nodes(p, quad), times)


@dataclass(frozen=True)
class BuiltProblem:
    problem: Problem
    exact: Callable | None  # exact(t) scalar / exact(x, t) 1-D / exact(x, y, t) 2-D


def _ex4_case3_fxy(x, y):
    """Spatial datum of the ex4_2d_case3 source; one function, so one load-vector cache key."""
    return np.sin(x) * (1.0 - x) ** 2 * y * (y - 1.0)


def build_problem(
    example_id: str, beta: float, M: int, contour: ContourConfig = ContourConfig(), K: float = 1.0
) -> BuiltProblem:
    """Instantiate one catalog problem on an M-interval mesh (M ignored for scalar)."""
    sym = FractionalSymbol(K, beta)
    if example_id == "ex1_scalar":
        c = 1.5 * sqrt(pi)
        src = SourceTransform(
            (
                power_term(1.0, 1.0 + c * K, 0.0),
                power_term(1.0, c / gamma(2.0 - beta), 1.0 - beta),
                power_term(1.0, c, 1.0),
            )
        )
        p = Problem(sym=sym, domain=ScalarDomain(1.0), u0=1.0, source=src, contour=contour)
        return BuiltProblem(p, lambda t: 1.0 + c * t)
    if example_id == "ex2_vanishing":
        c_frac = gamma(2.5) / gamma(2.5 - beta)
        xx, one = InitialData1D.polynomial((0.0, 1.0, -1.0)), InitialData1D.polynomial((1.0,))
        src = SourceTransform(
            (
                power_term(xx, 1.5 * K, 0.5),
                power_term(xx, c_frac, 1.5 - beta),
                power_term(one, 2.0, 1.5),
            )
        )
        p = Problem(sym=sym, domain=Mesh1D(M), u0=InitialData1D.zero(), source=src, contour=contour)
        return BuiltProblem(p, lambda x, t: t**1.5 * x * (1.0 - x))
    if example_id == "ex3_1d_case1":
        u0 = InitialData1D.indicator(0.0, 0.75, pi**3)
    elif example_id == "ex3_1d_case2":
        from .fem import Piece1D

        u0 = InitialData1D((Piece1D(0.0, 0.75, (0.0, 1.0)), Piece1D(0.75, 1.0, (0.0, -1.0))))
    elif example_id == "ex3_1d_case3":
        u0 = InitialData1D.polynomial((0.0, pi**3, -(pi**3)))
    elif example_id == "ex4_2d_case1":
        u0 = InitialData2D(
            fx=InitialData1D.indicator(0.0, 0.75), fy=InitialData1D.indicator(0.0, 1.0), scale=pi
        )
    elif example_id == "ex4_2d_case2":
        u0 = InitialData2D(
            fx=InitialData1D.polynomial((0.0, 1.0, -1.0)),
            fy=InitialData1D.polynomial((0.0, 1.0, -1.0)),
            scale=4.0 * pi**2,
        )
    elif example_id == "ex4_2d_case3":
        src = SourceTransform((pole_term(_ex4_case3_fxy, 3.0 * pi**5, 1.5),))
        p = Problem(
            sym=sym,
            domain=Mesh2D(M),
            u0=InitialData2D(fx=InitialData1D.zero(), fy=InitialData1D.zero()),
            source=src,
            contour=contour,
        )
        return BuiltProblem(p, None)
    else:
        raise BenchError(f"unknown example {example_id!r}")
    domain = Mesh2D(M) if example_id.startswith("ex4") else Mesh1D(M)
    return BuiltProblem(Problem(sym=sym, domain=domain, u0=u0, contour=contour), None)


def _ref_distance(p: Problem, u, ref):
    """Distance from ``u`` to ``ref``: mass norm on the mesh, absolute value for a scalar.

    ``u`` and ``ref`` may be ``(k, ndof)`` blocks (length-k arrays for a
    scalar problem); the result then holds one distance per row.
    """
    return np.abs(u - ref) if p.scalar else mass_norm(p.domain, u - ref)


def _distance(bp: BuiltProblem, u, t: float, ref=None) -> float:
    """Distance from the solution ``u`` at time ``t`` to ``ref``, or to the exact solution.

    With ``ref`` it is the mass-norm distance on the problem's mesh;
    without it, the L2 quadrature error against the exact solution at
    ``t``.  Scalar problems use the absolute difference.
    """
    p = bp.problem
    if ref is not None:
        return _ref_distance(p, u, ref)
    if bp.exact is None:
        raise BenchError("no exact solution for this example")
    if p.scalar:
        return abs(u - bp.exact(t))
    return l2_error(p.domain, u, lambda *x: bp.exact(*x, t))


def error_tau(bp: BuiltProblem, times, sols, ref=None) -> float:
    """Max over ``times`` of the distance from ``sols`` to the reference.

    ``ref`` holds the reference solutions at ``times``, the N_ref-node
    contour solution on the same mesh (mass-norm distance, one
    ``mass_norm`` call for all times).  Without it the exact solution is
    the reference (L2 quadrature error).
    """
    if ref is None:
        return max(_distance(bp, s, t) for s, t in zip(sols, times))
    return float(np.max(_ref_distance(bp.problem, np.asarray(sols), np.asarray(ref))))


def spatial_sweep(
    example_id: str,
    beta: float,
    N: int,
    m_list,
    t: float,
    reference: str = "numeric",
    contour: ContourConfig = ContourConfig(),
    K: float = 1.0,
) -> list[tuple[int, float, float | None, float]]:
    """(M, error, order, wall_ms) rows over a mesh sweep.

    Every mesh is discretized and solved once; ``wall_ms`` is that work
    for the row's own mesh.  Exact reference: L2 quadrature error
    against the exact solution.  Numeric reference: mass-norm distance,
    on mesh 2M, between the prolonged mesh-M solution and
    the mesh-2M solution.
    """
    m_list = sorted(m_list)
    needed = set(m_list) | ({2 * m for m in m_list} if reference == "numeric" else set())
    solved = {}
    for m in sorted(needed):
        bp = build_problem(example_id, beta, m, contour, K)
        start = time.perf_counter()
        u = solve(bp.problem, N, t)
        solved[m] = (bp, u, (time.perf_counter() - start) * 1e3)
    rows = []
    prev = None
    for m in m_list:
        bp, u, wall = solved[m]
        if reference == "exact":
            err = _distance(bp, u, t)
        else:
            fine_bp, fine_u, _ = solved[2 * m]
            prolong = prolong_2d if isinstance(bp.problem.domain, Mesh2D) else prolong_1d
            err = _distance(fine_bp, prolong(u, m), t, fine_u)
        order = None if prev is None else float(np.log2(prev / err)) if err > 0 else None
        rows.append((m, err, order, wall))
        prev = err
    return rows


def _relative(bp: BuiltProblem, u, t: float, ref=None) -> float:
    """``_distance`` of ``u`` divided by that of zero: the relative distance."""
    denom = _distance(bp, np.zeros_like(u), t, ref)
    if denom < 1e-14:
        raise BenchError("reference solution vanishes; relative distance undefined")
    return _distance(bp, u, t, ref) / denom


def _median_time(fn):
    """Median wall time of 3 calls after one warm-up, and the warm-up's result."""
    result = fn()
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)), result


def accel_compare(
    bp: BuiltProblem, N: int, ns, t: float
) -> tuple[float, list[tuple[int, float, float, float]]]:
    """(plain seconds, [(n, deviation, IAR, accelerated seconds) for each n in ns]) at time t.

    Wall times are medians of 3 solve-and-evaluate calls after one
    warm-up; deviation and IAR come from the warm-up solutions, so the
    comparison solves 4 (N + sum(n + 1)) node systems: the plain
    solution is solved and timed once for all ``ns``.  The deviation is
    the relative L2 distance of the accelerated from the plain solution.
    The IAR is the relative L2 error of the accelerated solution against
    the exact solution where one exists on a mesh; otherwise the plain
    solution serves as the high-accuracy surrogate and IAR equals the
    deviation.
    """
    p = bp.problem
    quad = quadrature_nodes(problem_parameters(p, N))  # shared, and outside the timed calls
    t_plain, u_plain = _median_time(lambda: evaluate(quad, solve_nodes(p, quad), t))
    out = []
    for n in ns:
        t_accel, u_acc = _median_time(lambda: evaluate(quad, solve_nodes_accelerated(p, quad, n), t))
        dev = _relative(bp, u_acc, t, u_plain)
        iar = dev if bp.exact is None or bp.problem.scalar else _relative(bp, u_acc, t)
        out.append((n, dev, iar, t_accel))
    return t_plain, out


# ---------------------------------------------------------------------------
# sweep driver and CSV emission


def _fmt(value, kind: str) -> str:
    if value is None:
        return ""
    if kind == "sci":
        return f"{value:.4E}"
    if kind == "fix":
        return f"{value:.4f}"
    return str(value)


def _row(example, beta, N=None, M=None, n=None, t=None, error=None, order=None, iar_val=None, wall_ms=None):
    return {
        "example": example,
        "beta": _fmt(beta, "raw"),
        "N": _fmt(N, "raw"),
        "M": _fmt(M, "raw"),
        "n": _fmt(n, "raw"),
        "t": _fmt(t, "raw"),
        "error": _fmt(error, "sci"),
        "order": _fmt(order, "fix"),
        "iar": _fmt(iar_val, "sci"),
        "wall_ms": _fmt(wall_ms, "fix"),
    }


@dataclass
class ErrorReport:
    rows: list[dict]
    failures: list[str] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()


def window_times(contour: ContourConfig, quoted=()) -> tuple[float, ...]:
    """16 equispaced samples of the contour's window plus any quoted times, deduplicated."""
    grid = np.linspace(*contour.window, 16)
    return tuple(sorted(set(np.round(grid, 12)) | set(quoted)))


def _time_rows(spec: ExperimentSpec, beta: float, M: int) -> list[dict]:
    """Sweep-time rows of one (beta, M); the N_ref reference is solved once for all of them."""
    bp = build_problem(spec.example_id, beta, M, spec.contour, spec.K)
    discretize(bp.problem)  # the shared load vectors are integrated outside every row's wall_ms
    times = window_times(spec.contour, spec.eval_times)
    ref = None if spec.reference == "exact" else solve(bp.problem, N_REF, times)
    rows = []
    for N in spec.n_list:
        start = time.perf_counter()
        sols = solve(bp.problem, N, times)
        wall = (time.perf_counter() - start) * 1e3
        # the error spans the window and every quoted time; the row shows the latest
        rows.append(_row(spec.example_id, beta, N=N, M=None if bp.problem.scalar else M,
                         t=max(spec.eval_times), error=error_tau(bp, times, sols, ref), wall_ms=wall))
    return rows


def _space_rows(spec: ExperimentSpec, beta: float, N: int, t: float) -> list[dict]:
    """Sweep-space rows of one (beta, N, t); each mesh is solved once."""
    return [
        _row(spec.example_id, beta, N=N, M=m, t=t, error=err, order=order, wall_ms=wall)
        for m, err, order, wall in spatial_sweep(
            spec.example_id, beta, N, spec.m_list, t, spec.reference, spec.contour, spec.K
        )
    ]


def _accel_rows(spec: ExperimentSpec, beta: float, M: int, N: int, t: float) -> list[dict]:
    """An accelerated and a plain row for each n of one (beta, M, N, t).

    The plain rows share one timing of the plain solve.
    """
    bp = build_problem(spec.example_id, beta, M, spec.contour, spec.K)
    t_plain, accel = accel_compare(bp, N, spec.n_interp, t)
    shown_M = None if bp.problem.scalar else M
    rows = []
    for n, dev, iar_val, t_accel in accel:
        rows += [
            _row(spec.example_id, beta, N=N, M=shown_M, n=n, t=t,
                 error=dev, iar_val=iar_val, wall_ms=t_accel * 1e3),
            _row(spec.example_id, beta, N=N, M=shown_M, n=None, t=t, wall_ms=t_plain * 1e3),
        ]
    return rows


def _solve_rows(spec: ExperimentSpec, beta: float, N: int, M: int) -> list[dict]:
    """One row per time: the error where an exact solution exists, else the solution's norm.

    The first row carries the wall time of the one solve behind all of them.
    """
    bp = build_problem(spec.example_id, beta, M, spec.contour, spec.K)
    start = time.perf_counter()
    sols = solve(bp.problem, N, spec.eval_times)
    wall = (time.perf_counter() - start) * 1e3
    rows = []
    for t, s in zip(spec.eval_times, sols):
        ref = None if bp.exact is not None else np.zeros_like(s)
        rows.append(_row(spec.example_id, beta, N=N, M=None if bp.problem.scalar else M,
                         t=t, error=_distance(bp, s, t, ref), wall_ms=wall))
        wall = None
    return rows


# Each mode's row builder and the spec fields whose product are its jobs, passed
# to the builder after the spec.  A list that is no axis is swept in the job: N
# of sweep-time (one reference), M of sweep-space (each error needs mesh 2M), n
# of accel-compare (one plain solve) and the times of solve (one solve).  A
# scalar example's spec holds one M, so M adds no job there.
MODES: dict[str, tuple[Callable[..., list[dict]], tuple[str, ...]]] = {
    "solve": (_solve_rows, ("betas", "n_list", "m_list")),
    "sweep-time": (_time_rows, ("betas", "m_list")),
    "sweep-space": (_space_rows, ("betas", "n_list", "eval_times")),
    "accel-compare": (_accel_rows, ("betas", "m_list", "n_list", "eval_times")),
}

# A job that raises one of the library's own errors failed; any other error is a fault.
JOB_ERRORS = (BenchError, CIMError, ContourError, FEMError, LinAlgError, MLError, SymbolError)


def run(spec: ExperimentSpec) -> ErrorReport:
    """Execute one sweep, job after job; a job that fails with a ``JOB_ERRORS`` error is recorded, not raised."""
    rows_of, axes = MODES[spec.mode]
    report = ErrorReport(rows=[])
    for job in itertools.product(*(getattr(spec, axis) for axis in axes)):
        try:
            report.rows.extend(rows_of(spec, *job))
        except JOB_ERRORS as exc:  # per-job failure: record and continue
            report.failures.append(f"{type(exc).__name__}: {exc}")
    return report
