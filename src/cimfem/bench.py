"""Benchmark harness: error metrics, convergence sweeps, CSV reports.

The example catalog covers the standard battery: a scalar problem with a
linear-in-time exact solution, a 1-D problem with vanishing initial data
and known exact solution, three 1-D and three 2-D initial/source
configurations of varying smoothness, and the acceleration comparison.
Temporal errors are measured against either the exact solution or a
reference contour solution with N_ref nodes on the same mesh; spatial
errors against the exact solution or the halved-mesh solution via P1
prolongation.  Every solve goes through one ``ContourRun`` per
(problem, N).
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import gamma, pi, sqrt
from typing import Callable

import numpy as np

from .cim import (
    Discretization,
    Problem,
    ScalarDomain,
    discretize,
    evaluate,
    problem_parameters,
    solve_nodes,
    solve_nodes_accelerated,
)
from .contour import ContourConfig, quadrature_nodes

# ``assemble`` is not called in this module.  It stays one of its names
# because perfbench/tracing.py wraps cross-layer calls by module attribute
# name and expects ``cimfem.bench.assemble``.
from .fem import (
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
from .symbols import FractionalSymbol, SourceTransform, pole_term, power_term


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

CSV_HEADER = ["example", "beta", "N", "M", "n", "t", "error", "order", "iar", "wall_ms"]


@dataclass(frozen=True)
class ContourDefaults:
    """Contour shape, time window and normal-diffusion coefficient of every benchmark run."""

    alpha: float = ContourConfig.alpha
    delta_prime: float = ContourConfig.delta_prime
    t0: float = ContourConfig.t0
    lambda_ratio: float = ContourConfig.lambda_ratio
    K: float = 1.0


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: which example, which parameter lists, which reference."""

    mode: str  # "solve" | "sweep-time" | "sweep-space" | "accel-compare"
    example_id: str
    betas: tuple[float, ...] = (0.5,)
    n_list: tuple[int, ...] = (100,)
    m_list: tuple[int, ...] = (32,)
    n_interp: int = 10
    eval_times: tuple[float, ...] = (0.6,)
    reference: str = "numeric"  # "exact" | "numeric"
    n_ref: int = 200
    output_path: str | None = None
    threads: int = 1
    contour: ContourDefaults = field(default_factory=ContourDefaults)

    def __post_init__(self) -> None:
        if self.example_id not in EXAMPLE_IDS:
            raise BenchError(f"unknown example {self.example_id!r}")
        if self.reference == "numeric" and self.n_list and self.n_ref <= max(self.n_list):
            raise BenchError("numeric reference needs n_ref > every N in the sweep")
        if self.reference == "exact" and self.example_id not in ("ex1_scalar", "ex2_vanishing"):
            raise BenchError("exact reference only available for ex1_scalar/ex2_vanishing")
        if self.reference not in ("exact", "numeric"):
            raise BenchError(f"unknown reference {self.reference!r}")


class ContourRun:
    """The contour pipeline for one problem at one node count N.

    The discretization (built unless given), the optimized contour
    parameters and the quadrature are made once.  ``solve`` serves the
    plain solution (N node systems) and the accelerated one (n + 1
    systems), each evaluated at every requested time from one set of node
    values.  Keyword arguments set the contour shape (``alpha``,
    ``delta_prime``) as in ``standard_parameters``.
    """

    def __init__(self, p: Problem, N: int, disc: Discretization | None = None, **contour_kw) -> None:
        self.problem = p
        self.disc = discretize(p) if disc is None else disc
        self.params = problem_parameters(p, N, **contour_kw)
        self.quad = quadrature_nodes(self.params, N)
        self.window = (p.t0, p.lambda_ratio * p.t0)

    def solve(self, times, n: int | None = None):
        """Solution at ``times``: plain, or from ``n + 1`` Chebyshev solves when ``n`` is given."""
        if n is None:
            ns = solve_nodes(self.problem, self.quad, self.disc)
        else:
            ns = solve_nodes_accelerated(self.problem, self.params, self.quad, n, self.disc)
        return evaluate(ns, times, self.window)


@dataclass(frozen=True)
class BuiltProblem:
    problem: Problem
    exact: Callable | None  # exact(t) scalar / exact(x, t) 1-D / exact(x, y, t) 2-D
    contour: ContourDefaults

    def run(self, N: int, disc: Discretization | None = None) -> ContourRun:
        """The contour run at N nodes with this problem's contour shape."""
        return ContourRun(
            self.problem, N, disc, alpha=self.contour.alpha, delta_prime=self.contour.delta_prime
        )


def build_problem(example_id: str, beta: float, M: int, cd: ContourDefaults = ContourDefaults()) -> BuiltProblem:
    """Instantiate one catalog problem on an M-interval mesh (M ignored for scalar)."""
    sym = FractionalSymbol(cd.K, beta)
    common = dict(t0=cd.t0, lambda_ratio=cd.lambda_ratio)
    if example_id == "ex1_scalar":
        c = 1.5 * sqrt(pi)
        src = SourceTransform(
            (
                power_term("one", 1.0 + c * cd.K, 0.0),
                power_term("one", c / gamma(2.0 - beta), 1.0 - beta),
                power_term("one", c, 1.0),
            )
        )
        p = Problem(sym=sym, domain=ScalarDomain(1.0), u0=1.0, source=src, **common)
        return BuiltProblem(p, lambda t: 1.0 + c * t, cd)
    if example_id == "ex2_vanishing":
        c_frac = gamma(2.5) / gamma(2.5 - beta)
        src = SourceTransform(
            (
                power_term("xx", 1.5 * cd.K, 0.5),
                power_term("xx", c_frac, 1.5 - beta),
                power_term("one", 2.0, 1.5),
            )
        )
        factors = {
            "xx": InitialData1D.polynomial((0.0, 1.0, -1.0)),
            "one": InitialData1D.polynomial((1.0,)),
        }
        p = Problem(
            sym=sym, domain=Mesh1D(M), u0=InitialData1D.zero(), source=src,
            spatial_factors=factors, **common,
        )
        return BuiltProblem(p, lambda x, t: t**1.5 * x * (1.0 - x), cd)
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
        src = SourceTransform((pole_term("fxy", 3.0 * pi**5, 1.5),))

        def fxy(x, y):
            return np.sin(x) * (1.0 - x) ** 2 * y * (y - 1.0)

        p = Problem(
            sym=sym,
            domain=Mesh2D(M),
            u0=InitialData2D(fx=InitialData1D.zero(), fy=InitialData1D.zero()),
            source=src,
            spatial_factors={"fxy": fxy},
            **common,
        )
        return BuiltProblem(p, None, cd)
    else:
        raise BenchError(f"unknown example {example_id!r}")
    domain = Mesh2D(M) if example_id.startswith("ex4") else Mesh1D(M)
    return BuiltProblem(Problem(sym=sym, domain=domain, u0=u0, **common), None, cd)


def error_tau(bp: BuiltProblem, disc: Discretization | None, times, sols, ref=None) -> float:
    """Max over ``times`` of the L2 distance from ``sols`` to the reference.

    ``ref`` holds the reference solutions at ``times``, the N_ref-node
    contour solution on the same mesh (mass-norm distance).  Without it
    the exact solution is the reference (L2 quadrature error).
    """
    p = bp.problem
    if ref is None:
        if bp.exact is None:
            raise BenchError("no exact solution for this example")
        if p.scalar:
            return max(abs(s - bp.exact(t)) for s, t in zip(sols, times))
        return max(
            l2_error(p.domain, s, lambda x, t=t: bp.exact(x, t)) for s, t in zip(sols, times)
        )
    if p.scalar:
        return max(abs(s - r) for s, r in zip(sols, ref))
    return max(mass_norm(disc.ops, s - r) for s, r in zip(sols, ref))


def spatial_sweep(
    example_id: str,
    beta: float,
    N: int,
    m_list,
    t: float,
    reference: str = "numeric",
    cd: ContourDefaults = ContourDefaults(),
) -> list[tuple[int, float, float | None, float]]:
    """(M, error, order, wall_ms) rows over a mesh sweep.

    Every mesh is discretized and solved once; ``wall_ms`` is that work
    for the row's own mesh.  Exact reference: L2 quadrature error
    against the exact solution.  Numeric reference: mass-norm distance,
    on the mesh-2M operators, between the prolonged mesh-M solution and
    the mesh-2M solution.
    """
    m_list = sorted(m_list)
    needed = set(m_list) | ({2 * m for m in m_list} if reference == "numeric" else set())
    solved = {}
    for m in sorted(needed):
        bp = build_problem(example_id, beta, m, cd)
        start = time.perf_counter()
        disc = discretize(bp.problem)
        u = bp.run(N, disc).solve(t)
        solved[m] = (bp, disc, u, (time.perf_counter() - start) * 1e3)
    rows = []
    prev = None
    for m in m_list:
        bp, _, u, wall = solved[m]
        if reference == "exact":
            if bp.exact is None:
                raise BenchError("no exact solution for this example")
            err = l2_error(bp.problem.domain, u, lambda x: bp.exact(x, t))
        else:
            _, fine_disc, fine_u, _ = solved[2 * m]
            prolong = prolong_2d if isinstance(bp.problem.domain, Mesh2D) else prolong_1d
            err = mass_norm(fine_disc.ops, prolong(u, m) - fine_u)
        order = None if prev is None else float(np.log2(prev / err)) if err > 0 else None
        rows.append((m, err, order, wall))
        prev = err
    return rows


def _relative_distance(disc: Discretization | None, u, ref) -> float:
    if disc is None:
        num, denom = abs(u - ref), abs(ref)
    else:
        num, denom = mass_norm(disc.ops, u - ref), mass_norm(disc.ops, ref)
    if denom < 1e-14:
        raise BenchError("reference solution vanishes; relative distance undefined")
    return num / denom


def _median_time(fn):
    """Median wall time of 3 calls after one warm-up, and the warm-up's result."""
    result = fn()
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)), result


def accel_compare(bp: BuiltProblem, N: int, n: int, t: float) -> tuple[float, float, float, float]:
    """(deviation, IAR, plain seconds, accelerated seconds) at time t.

    Wall times are medians of 3 solve-and-evaluate calls after one
    warm-up; deviation and IAR come from the warm-up solutions, so the
    comparison solves 4 (N + n + 1) node systems.  The deviation is the
    relative L2 distance of the accelerated from the plain solution.
    The IAR is the relative L2 error of the accelerated solution against
    the exact solution where one exists on a mesh; otherwise the plain
    solution serves as the high-accuracy surrogate and IAR equals the
    deviation.
    """
    p = bp.problem
    disc = discretize(p)
    run = bp.run(N, disc)
    t_plain, u_plain = _median_time(lambda: run.solve(t))
    t_accel, u_acc = _median_time(lambda: run.solve(t, n))
    dev = _relative_distance(disc, u_acc, u_plain)
    if bp.exact is None or p.scalar:
        return dev, dev, t_plain, t_accel
    exact = lambda *x: bp.exact(*x, t)
    denom = l2_error(p.domain, np.zeros_like(u_acc), exact)
    if denom < 1e-14:
        raise BenchError("reference solution vanishes; IAR undefined")
    return dev, l2_error(p.domain, u_acc, exact) / denom, t_plain, t_accel


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

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def window_times(cd: ContourDefaults, quoted=()) -> tuple[float, ...]:
    """16 equispaced window samples plus any quoted times, deduplicated."""
    grid = np.linspace(cd.t0, cd.lambda_ratio * cd.t0, 16)
    return tuple(sorted(set(np.round(grid, 12)) | set(quoted)))


def _time_rows(spec: ExperimentSpec, beta: float) -> list[dict]:
    """Sweep-time rows of one beta; the N_ref reference is solved once for all of them."""
    M = max(spec.m_list)
    bp = build_problem(spec.example_id, beta, M, spec.contour)
    disc = discretize(bp.problem)
    times = window_times(spec.contour, spec.eval_times)
    ref = None if spec.reference == "exact" else bp.run(spec.n_ref, disc).solve(times)
    rows = []
    for N in spec.n_list:
        start = time.perf_counter()
        sols = bp.run(N, disc).solve(times)
        wall = (time.perf_counter() - start) * 1e3
        rows.append(_row(spec.example_id, beta, N=N, M=None if bp.problem.scalar else M,
                         t=max(spec.eval_times), error=error_tau(bp, disc, times, sols, ref), wall_ms=wall))
    return rows


def run(spec: ExperimentSpec) -> ErrorReport:
    """Execute one sweep; a failing job is recorded, not raised.

    A job is one beta of sweep-time and sweep-space (its rows share the
    reference), one (beta, M) of accel-compare and one (beta, N, M) of
    solve.
    """
    report = ErrorReport(rows=[])
    jobs: list[Callable[[], list[dict]]] = []

    if spec.mode == "sweep-time":
        if spec.n_list:
            for beta in spec.betas:
                jobs.append(lambda beta=beta: _time_rows(spec, beta))
    elif spec.mode == "sweep-space":
        t = max(spec.eval_times)
        N = max(spec.n_list)

        def space_job(beta):
            return [
                _row(spec.example_id, beta, N=N, M=m, t=t, error=err, order=order, wall_ms=wall)
                for m, err, order, wall in spatial_sweep(
                    spec.example_id, beta, N, spec.m_list, t, spec.reference, spec.contour
                )
            ]

        for beta in spec.betas:
            jobs.append(lambda beta=beta: space_job(beta))
    elif spec.mode == "accel-compare":
        t = max(spec.eval_times)
        N = max(spec.n_list)

        def accel_job(beta, M):
            bp = build_problem(spec.example_id, beta, M, spec.contour)
            dev, iar_val, t_plain, t_accel = accel_compare(bp, N, spec.n_interp, t)
            return [
                _row(spec.example_id, beta, N=N, M=M, n=spec.n_interp, t=t,
                     error=dev, iar_val=iar_val, wall_ms=t_accel * 1e3),
                _row(spec.example_id, beta, N=N, M=M, n=None, t=t, wall_ms=t_plain * 1e3),
            ]

        for beta in spec.betas:
            for M in spec.m_list:
                jobs.append(lambda beta=beta, M=M: accel_job(beta, M))
    elif spec.mode == "solve":
        t_list = spec.eval_times

        def solve_job(beta, N, M):
            bp = build_problem(spec.example_id, beta, M, spec.contour)
            start = time.perf_counter()
            disc = discretize(bp.problem)
            sols = bp.run(N, disc).solve(t_list)
            wall = (time.perf_counter() - start) * 1e3
            rows = []
            for t, s in zip(t_list, sols):
                if bp.problem.scalar:
                    val = abs(s - bp.exact(t)) if bp.exact else abs(s)
                elif bp.exact is not None:
                    val = l2_error(bp.problem.domain, s, lambda x, t=t: bp.exact(x, t))
                else:
                    val = mass_norm(disc.ops, np.asarray(s))
                rows.append(_row(spec.example_id, beta, N=N, M=None if bp.problem.scalar else M,
                                 t=t, error=val, wall_ms=wall))
                wall = None
            return rows

        for beta in spec.betas:
            for N in spec.n_list:
                for M in spec.m_list:
                    jobs.append(lambda beta=beta, N=N, M=M: solve_job(beta, N, M))
    else:
        raise BenchError(f"unknown mode {spec.mode!r}")

    def safe(job):
        try:
            return job(), None
        except Exception as exc:  # per-job failure: record and continue
            return [], f"{type(exc).__name__}: {exc}"

    if spec.threads > 1:
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            results = list(pool.map(safe, jobs))
    else:
        results = [safe(j) for j in jobs]
    for rows, failure in results:
        report.rows.extend(rows)
        if failure:
            report.failures.append(failure)
    if spec.output_path:
        report.write(spec.output_path)
    return report
