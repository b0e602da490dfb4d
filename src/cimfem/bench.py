"""Benchmark harness: error metrics, convergence sweeps, CSV reports.

The example catalog covers the standard battery: a scalar problem with a
linear-in-time exact solution, a 1-D problem with vanishing initial data
and known exact solution, three 1-D and three 2-D initial/source
configurations of varying smoothness, and the acceleration comparison.
Every error is one distance, ``_distance``: on a mesh the mass norm of
the gap to a reference solution or the L2 quadrature error against the
exact solution, on a scalar domain the absolute value.  The numeric
temporal reference of a source-free 1-D problem is its exact
semi-discrete solution by modes, ``_modal_solution``, which shares
neither the node solves nor the quadrature with the code under test;
every other problem's is the N_ref-node contour solution on the same
mesh.  The spatial reference is the halved-mesh solution via P1
prolongation.  Every contour solve but the acceleration comparison's
goes through ``solve``: one quadrature per (problem, N), the node
values that the requested times need and their sum at those times.
"""

from __future__ import annotations

import csv
import io
import itertools
import time
from dataclasses import dataclass, field
from math import floor, gamma, inf, log10, pi, sqrt
from typing import Callable

import numpy as np

from .cim import (
    CIMError,
    Problem,
    ScalarDomain,
    discretize,
    evaluate,
    mesh_modes,
    modal_load,
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
    Piece1D,
    assemble,
    l2_error,
    mass_norm,
    prolong_1d,
    prolong_2d,
)
from .linalg import LinAlgError, dst1
from .mlf import MLError, mode_value
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

N_REF = 200  # contour nodes of the numeric temporal reference where it is not modal

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
        # only sweep-time solves the N_REF reference, and only where it has no modal one
        time_ref = self.mode == "sweep-time" and self.reference == "numeric"
        if time_ref and not _takes_modal_reference(bp.problem) and N_REF <= max(self.n_list):
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
    """The solution of ``p`` at ``times``, one time or a sequence, from one solve of its N-node contour.

    ``solve_nodes`` gets the times, so it solves only the nodes they need
    and certifies that the rest add less than a rounding unit.
    """
    quad = quadrature_nodes(problem_parameters(p, N))
    return evaluate(quad, solve_nodes(p, quad, times), times)


def _takes_modal_reference(p: Problem) -> bool:
    """Whether sweep-time's numeric reference for ``p`` is ``_modal_solution``, not the N_REF solve."""
    return isinstance(p.domain, Mesh1D) and not p.source.terms


def _modal_solution(p: Problem, times) -> np.ndarray:
    """Exact semi-discrete solution of a source-free 1-D problem at ``times``, one row per time.

    The DST-I diagonalizes the tridiagonal Toeplitz M and S (fast
    diagonalization): with their eigenvalues ``m_j`` and ``s_j`` of
    ``mesh_modes`` and the load ``b`` of the initial datum, mode j starts
    at ``dst1(b)_j / m_j`` and evolves by ``mode_value(K, beta, s_j / m_j,
    t)``.  No node system is solved.  One ``mode_value`` call takes every
    time, so each time window ``[T, 2 T]`` of the unit contour is one
    contour sum: 4 sums for the 17 window times of the default contour.
    """
    m, s, *_ = mesh_modes(p.domain)
    start = modal_load(p.domain, p.u0) / m
    return dst1(mode_value(p.sym.K, p.sym.beta, s / m, times) * start).real


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
    src, exact = SourceTransform(), None
    if example_id == "ex1_scalar":
        c = 1.5 * sqrt(pi)
        domain, u0 = ScalarDomain(1.0), 1.0
        src = SourceTransform(
            (
                power_term(1.0, 1.0 + c * K, 0.0),
                power_term(1.0, c / gamma(2.0 - beta), 1.0 - beta),
                power_term(1.0, c, 1.0),
            )
        )
        exact = lambda t: 1.0 + c * t
    elif example_id == "ex2_vanishing":
        c_frac = gamma(2.5) / gamma(2.5 - beta)
        xx, one = InitialData1D.polynomial((0.0, 1.0, -1.0)), InitialData1D.polynomial((1.0,))
        domain, u0 = Mesh1D(M), InitialData1D.zero()
        src = SourceTransform(
            (
                power_term(xx, 1.5 * K, 0.5),
                power_term(xx, c_frac, 1.5 - beta),
                power_term(one, 2.0, 1.5),
            )
        )
        exact = lambda x, t: t**1.5 * x * (1.0 - x)
    elif example_id == "ex3_1d_case1":
        domain, u0 = Mesh1D(M), InitialData1D.indicator(0.0, 0.75, pi**3)
    elif example_id == "ex3_1d_case2":
        domain = Mesh1D(M)
        u0 = InitialData1D((Piece1D(0.0, 0.75, (0.0, 1.0)), Piece1D(0.75, 1.0, (0.0, -1.0))))
    elif example_id == "ex3_1d_case3":
        domain, u0 = Mesh1D(M), InitialData1D.polynomial((0.0, pi**3, -(pi**3)))
    elif example_id == "ex4_2d_case1":
        domain = Mesh2D(M)
        u0 = InitialData2D(
            fx=InitialData1D.indicator(0.0, 0.75), fy=InitialData1D.indicator(0.0, 1.0), scale=pi
        )
    elif example_id == "ex4_2d_case2":
        domain = Mesh2D(M)
        u0 = InitialData2D(
            fx=InitialData1D.polynomial((0.0, 1.0, -1.0)),
            fy=InitialData1D.polynomial((0.0, 1.0, -1.0)),
            scale=4.0 * pi**2,
        )
    elif example_id == "ex4_2d_case3":
        domain, u0 = Mesh2D(M), InitialData2D(fx=InitialData1D.zero(), fy=InitialData1D.zero())
        src = SourceTransform((pole_term(_ex4_case3_fxy, 3.0 * pi**5, 1.5),))
    else:
        raise BenchError(f"unknown example {example_id!r}")
    return BuiltProblem(Problem(sym=sym, domain=domain, u0=u0, source=src, contour=contour), exact)


def _distance(bp: BuiltProblem, u, t: float, ref=None):
    """Distance from the solution ``u`` at time ``t`` to ``ref``, or to the exact solution.

    With ``ref``: the mass norm of ``u - ref`` on a mesh, the absolute value
    on a scalar domain; ``u`` and ``ref`` may be ``(k, ndof)`` blocks, one
    distance per row.  Without it: the L2 quadrature error against the exact
    solution at ``t`` on a mesh, the absolute value on a scalar domain.
    """
    p = bp.problem
    if ref is None:
        if bp.exact is None:
            raise BenchError("no exact solution for this example")
        if not p.scalar:
            return l2_error(p.domain, u, lambda *x: bp.exact(*x, t))
        ref = bp.exact(t)
    return np.abs(u - ref) if p.scalar else mass_norm(p.domain, u - ref)


def error_tau(bp: BuiltProblem, times, sols, ref=None) -> float:
    """Max over ``times`` of the distance from ``sols`` to the reference.

    ``ref`` holds the reference solutions at ``times`` on the same mesh,
    the modal or the N_ref-node solution of ``_time_rows`` (mass-norm
    distance, one ``mass_norm`` call for all times).  Without it the
    exact solution is the reference (L2 quadrature error).
    """
    if ref is None:
        return max(_distance(bp, s, t) for s, t in zip(sols, times))
    return float(np.max(_distance(bp, np.asarray(sols), None, np.asarray(ref))))


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
    comparison solves 4 (K + sum(n + 1)) node systems: the plain
    solution is solved and timed once for all ``ns``.  The plain solve
    passes ``t`` to ``solve_nodes``, so it solves the K <= N nodes that
    ``t`` needs; the accelerated one solves its n + 1 Chebyshev points as
    the paper does.  The deviation is
    the relative L2 distance of the accelerated from the plain solution.
    The IAR is the relative L2 error of the accelerated solution against
    the exact solution where one exists on a mesh; otherwise the plain
    solution serves as the high-accuracy surrogate and IAR equals the
    deviation.
    """
    p = bp.problem
    quad = quadrature_nodes(problem_parameters(p, N))  # shared, and outside the timed calls
    t_plain, u_plain = _median_time(lambda: evaluate(quad, solve_nodes(p, quad, t), t))
    out = []
    for n in ns:
        t_accel, u_acc = _median_time(lambda: evaluate(quad, solve_nodes_accelerated(p, quad, n), t))
        dev = _relative(bp, u_acc, t, u_plain)
        iar = dev if bp.exact is None or bp.problem.scalar else _relative(bp, u_acc, t)
        out.append((n, dev, iar, t_accel))
    return t_plain, out


# ---------------------------------------------------------------------------
# sweep driver and CSV emission


_FORMATS = {"error": "{:.4E}".format, "iar": "{:.4E}".format,
            "order": "{:.4f}".format, "wall_ms": "{:.4f}".format}


def _row(**columns) -> dict[str, str]:
    """One CSV row from values by column name, each printed by ``_FORMATS`` or ``str``, None as empty."""
    unknown = columns.keys() - set(CSV_HEADER)
    if unknown:
        raise TypeError(f"not a CSV column: {', '.join(sorted(unknown))}")
    return {k: "" if columns.get(k) is None else _FORMATS.get(k, str)(columns[k]) for k in CSV_HEADER}


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
    """16 equispaced samples of the contour's window, rounded to 12 digits of ``t0``, plus any quoted times, deduplicated."""
    grid = np.linspace(*contour.window, 16)
    return tuple(sorted(set(np.round(grid, 11 - floor(log10(contour.t0)))) | set(quoted)))


def _time_rows(spec: ExperimentSpec, beta: float, M: int) -> list[dict]:
    """Sweep-time rows of one (beta, M), all against one reference.

    The numeric reference is ``_modal_solution`` where
    ``_takes_modal_reference`` holds, else the N_ref-node solution.
    """
    bp = build_problem(spec.example_id, beta, M, spec.contour, spec.K)
    p = bp.problem
    discretize(p)  # the shared load vectors are integrated outside every row's wall_ms
    times = window_times(spec.contour, spec.eval_times)
    if spec.reference == "exact":
        ref = None
    elif _takes_modal_reference(p):
        ref = _modal_solution(p, times)
    else:
        ref = solve(p, N_REF, times)
    rows = []
    for N in spec.n_list:
        start = time.perf_counter()
        sols = solve(p, N, times)
        wall = (time.perf_counter() - start) * 1e3
        # the error spans the window and every quoted time; the row shows the latest
        rows.append(_row(example=spec.example_id, beta=beta, N=N, M=None if p.scalar else M,
                         t=max(spec.eval_times), error=error_tau(bp, times, sols, ref), wall_ms=wall))
    return rows


def _space_rows(spec: ExperimentSpec, beta: float, N: int, t: float) -> list[dict]:
    """Sweep-space rows of one (beta, N, t); each mesh is solved once."""
    return [
        _row(example=spec.example_id, beta=beta, N=N, M=m, t=t, error=err, order=order, wall_ms=wall)
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
    for n, dev, iar, t_accel in accel:
        rows += [
            _row(example=spec.example_id, beta=beta, N=N, M=shown_M, n=n, t=t,
                 error=dev, iar=iar, wall_ms=t_accel * 1e3),
            _row(example=spec.example_id, beta=beta, N=N, M=shown_M, t=t, wall_ms=t_plain * 1e3),
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
        rows.append(_row(example=spec.example_id, beta=beta, N=N, M=None if bp.problem.scalar else M,
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
