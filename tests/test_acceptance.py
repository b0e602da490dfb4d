"""Acceptance gate: end-to-end checks at published-benchmark tolerances.

Each test reproduces one headline result of the solver at desk scale and
asserts the stated tolerance.  Reference error magnitudes for the
benchmark families are published table values; comparisons against them
are one-sided (measured <= factor * published), since a smaller error
than the published run cannot be a defect.

Two checks measure the part of the error the method controls:

* ``test_manufactured_solution_nodal_error`` applies the 1e-5 bound to the
  distance between the contour solution and the exact semi-discrete
  consistent-mass P1 solution, built in this module from closed-form
  matrices and loads with ``mpmath`` Talbot inversion and no solver code.
  The nodal error against ``t^{3/2} x (1 - x)`` itself is the P1 floor:
  1.6816e-4, 4.2019e-5 and 1.0503e-5 at M = 16, 32 and 64 (order 2.000),
  reached by the contour solution to within 5.1e-14.  The test asserts
  that order, so a wrong load or assembly cannot hide behind the floor.
* ``test_acceleration_deviation`` asserts the 1e-6 relative deviation
  between accelerated and plain solves at the interpolation order the
  method certifies for itself.  The barycentric Chebyshev interpolant
  converges geometrically: measured deviations are 1.04e-2 / 8.39e-3 at
  n = 10, 5.8e-5 / 2.9e-5 at n = 20 and 1.9e-9 / 2.4e-9 at n = 40
  (``ex3_1d_case1`` M = 128 / ``ex4_2d_case2`` M = 32), about 1.65-1.72
  per node, so 1e-6 is first met at n = 27 and n = 30.  The doubling
  estimate ``||u_n - u_2n|| / ||u_plain||`` matches those deviations to
  three digits.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sps

import cimfem.contour
from cimfem.bench import (
    accel_compare,
    build_problem,
    error_tau,
    solve,
    spatial_sweep,
    window_times,
)
from cimfem.cim import Problem, evaluate, problem_parameters, solve_nodes, solve_nodes_accelerated
from cimfem.contour import ContourConfig, optimize_rho, quadrature_nodes
from cimfem.fem import Mesh1D, mass_norm
from cimfem.linalg import thomas_solve
from cimfem.mlf import MLError, MLQuery, SpectralProblem, ml_biv, ml_biv_contour, ml_biv_series, spectral_reference
from cimfem.symbols import FractionalSymbol

EPS = 2.22e-16


def test_scalar_spectral_decay():
    start = time.perf_counter()
    bp = build_problem("ex1_scalar", 0.5, 4)
    t = 0.6
    errs = {}
    for N in (20, 80, 90, 100, 110, 120):
        val = solve(bp.problem, N, t)
        errs[N] = abs(val - bp.exact(t))
    assert errs[20] <= 1e-4
    assert errs[80] <= 1e-10
    plateau = [errs[N] for N in (80, 90, 100, 110, 120)]
    assert max(plateau) <= 1e-12
    # no growth beyond 10x the plateau floor (floored at machine epsilon,
    # since exact zeros occur and 10 * 0 would be degenerate)
    assert max(plateau) <= 10.0 * max(min(plateau), EPS)
    assert time.perf_counter() - start < 1.0


def test_1d_temporal_table():
    start = time.perf_counter()
    published = {0.25: 9.85e-5, 0.5: 9.0973e-5, 0.75: 9.0822e-5}
    cd = ContourConfig()
    times = window_times(cd, (0.8,))
    for beta, target in published.items():
        bp = build_problem("ex3_1d_case1", beta, 128, cd)
        ref = solve(bp.problem, 200, times)
        e40 = error_tau(bp, times, solve(bp.problem, 40, times), ref)
        e80 = error_tau(bp, times, solve(bp.problem, 80, times), ref)
        assert e40 <= 3.0 * target, f"beta={beta}: {e40:.3e} > 3 x {target:.3e}"
        assert e80 <= 1e-10, f"beta={beta}: Error_tau(80) = {e80:.3e}"
    assert time.perf_counter() - start < 10.0


def test_1d_spatial_orders():
    start = time.perf_counter()
    for example in ("ex3_1d_case1", "ex3_1d_case2", "ex3_1d_case3"):
        for beta in (0.25, 0.5, 0.75):
            rows = spatial_sweep(example, beta, 60, (32, 64, 128, 256), 0.6, "numeric")
            for _, _, order, _ in rows[1:]:
                assert 1.9 <= order <= 2.1, f"{example} beta={beta}: order {order:.4f}"
    assert time.perf_counter() - start < 30.0


def test_manufactured_solution_spatial_order():
    start = time.perf_counter()
    rows = spatial_sweep("ex2_vanishing", 0.5, 60, (2, 4, 8, 16, 32), 0.86, "exact")
    for _, _, order, _ in rows[1:]:
        assert 1.9 <= order <= 2.1, f"order {order:.4f}"
    assert time.perf_counter() - start < 5.0


def _ex2_semidiscrete_reference(M, beta, t, K=1.0):
    """Exact consistent-mass P1 solution of ``ex2_vanishing`` at the nodes.

    Independent of the solver: the mass matrix h/6 tridiag(1, 4, 1) and
    the stiffness matrix 1/h tridiag(-1, 2, -1) are written out, the loads of
    f = K (3/2) t^{1/2} x(1-x) + Gamma(5/2)/Gamma(5/2-beta) t^{3/2-beta} x(1-x)
    + 2 t^{3/2} are integrated in closed form (the hat function against
    a quadratic g gives h g(x_i) + h^3 g''/12), the pencil is diagonalised
    with ``eigh(S, M)`` and each mode's Laplace transform
    ``F_j(z) / (K z + z^beta + lambda_j)`` is inverted by ``mpmath``.
    """
    mpmath = pytest.importorskip("mpmath")
    from scipy.linalg import eigh

    h = 1.0 / M
    x = np.arange(1, M) * h
    ones = np.ones(M - 2)
    mass = h / 6.0 * (np.diag(np.full(M - 1, 4.0)) + np.diag(ones, 1) + np.diag(ones, -1))
    stiff = (np.diag(np.full(M - 1, 2.0)) - np.diag(ones, 1) - np.diag(ones, -1)) / h
    lam, vecs = eigh(stiff, mass)
    a = vecs.T @ (h * x * (1.0 - x) - h**3 / 6.0)  # loads of x(1-x)
    b = vecs.T @ np.full(M - 1, h)  # loads of 1
    g15, g25 = math.gamma(1.5), math.gamma(2.5)
    coeffs = np.empty(M - 1)
    for j in range(M - 1):
        def transform(z, j=j):
            load = a[j] * (1.5 * K * g15 * z**-1.5 + g25 * z ** (beta - 2.5)) + b[j] * 2.0 * g25 * z**-2.5
            return load / (K * z + z**beta + lam[j])

        coeffs[j] = float(mpmath.invertlaplace(transform, t, method="talbot"))
    return vecs @ coeffs


def test_manufactured_solution_nodal_error():
    # The nodal error against t^{3/2} x(1-x) at h = 2^-5 is the consistent-
    # mass P1 floor (4.2019e-5); the contour controls only the distance to
    # the semi-discrete solution, which is what the 1e-5 bound applies to.
    beta, N, t = 0.5, 60, 0.86
    ref = _ex2_semidiscrete_reference(32, beta, t)
    nodal_err = {}
    for M in (32, 64):
        bp = build_problem("ex2_vanishing", beta, M)
        uh = solve(bp.problem, N, t)
        if M == 32:
            cim_err = float(np.max(np.abs(uh - ref)))
            assert cim_err <= 1e-5, (
                f"max nodal distance {cim_err:.3e} > 1e-5 between the contour "
                "solution and the exact semi-discrete P1 solution at M = 32"
            )
        nodal_err[M] = float(np.max(np.abs(uh - bp.exact(bp.problem.domain.nodes, t))))
    order = math.log2(nodal_err[32] / nodal_err[64])
    assert 1.9 <= order <= 2.1, (
        f"nodal max-norm order {order:.4f} between M = 32 and 64 "
        f"(errors {nodal_err[32]:.4e}, {nodal_err[64]:.4e}); expected the O(h^2) P1 floor"
    )


def test_2d_spatial_orders():
    start = time.perf_counter()
    for example in ("ex4_2d_case1", "ex4_2d_case2", "ex4_2d_case3"):
        rows = spatial_sweep(example, 0.5, 60, (8, 16, 32, 64), 0.6, "numeric")
        for _, _, order, _ in rows[1:]:
            assert 1.85 <= order <= 2.15, f"{example}: order {order:.4f}"
    assert time.perf_counter() - start < 240.0


def test_2d_temporal_errors():
    start = time.perf_counter()
    published = {
        "ex4_2d_case1": {0.25: 8.1762e-6, 0.5: 7.8812e-6, 0.75: 6.5707e-6},
        "ex4_2d_case2": {0.25: 3.4184e-6, 0.5: 3.2967e-6, 0.75: 2.7505e-6},
        "ex4_2d_case3": {0.25: 3.2602e-3, 0.5: 3.2009e-3, 0.75: 2.9225e-3},
    }
    cd = ContourConfig()
    times = window_times(cd, (0.6,))
    for example, per_beta in published.items():
        for beta, target in per_beta.items():
            bp = build_problem(example, beta, 32, cd)
            ref = solve(bp.problem, 200, times)
            err = error_tau(bp, times, solve(bp.problem, 100, times), ref)
            assert err <= 5.0 * target, f"{example} beta={beta}: {err:.3e} > 5 x {target:.3e}"
    assert time.perf_counter() - start < 120.0


def test_acceleration_deviation():
    # The interpolation order is the one the method certifies for itself:
    # n doubles from 10 while n + 1 < N/2 (n = 10, 20, 40), so every
    # accelerated solution under test solves fewer than half the node
    # systems.  Each u_n is checked by the doubling estimate
    # ||u_n - u_2n|| / ||u_plain|| (the u_80 solve serves only the last
    # estimate), and the first n whose estimate is <= 1e-6 must deviate by
    # <= 1e-6 from the plain solve.  The geometric rate is ~1.65-1.72 per
    # node, so n = 10 alone gives ~1e-2 and 1e-6 needs n >= 27 (1-D) / 30 (2-D).
    N, t, tol = 100, 0.6, 1e-6
    ns = []
    n = 10
    while n + 1 < N / 2:
        ns.append(n)
        n *= 2
    for example, M in (("ex3_1d_case1", 128), ("ex4_2d_case2", 32)):
        p = build_problem(example, 0.5, M).problem
        quad = quadrature_nodes(problem_parameters(p, N))
        domain = p.domain
        u_plain = evaluate(quad, solve_nodes(p, quad), t)
        scale = mass_norm(domain, u_plain)
        u_acc = {m: evaluate(quad, solve_nodes_accelerated(p, quad, m), t) for m in ns + [2 * ns[-1]]}
        certified = None
        for n in ns:
            dev = mass_norm(domain, u_acc[n] - u_plain) / scale
            est = mass_norm(domain, u_acc[n] - u_acc[2 * n]) / scale
            assert 0.5 * dev <= est <= 2.0 * dev, (
                f"{example} n = {n}: doubling estimate {est:.3e} is not within a "
                f"factor 2 of the deviation {dev:.3e}"
            )
            if certified is None and est <= tol:
                certified = (n, dev)
        assert certified is not None, (
            f"{example}: no n in {ns} has a doubling estimate <= {tol:g}"
        )
        n, dev = certified
        assert dev <= tol, (
            f"{example}: relative deviation {dev:.3e} > {tol:g} at the certified n = {n}"
        )


def test_acceleration_geometric_decay():
    start = time.perf_counter()
    bp = build_problem("ex1_scalar", 0.5, 4)
    ns = list(range(4, 21, 2))
    devs = [dev for _, dev, _, _ in accel_compare(bp, 100, ns, 0.6)[1]]
    ratios = [devs[i + 1] / devs[i] for i in range(len(devs) - 1) if devs[i] > 0]
    geo_mean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    assert geo_mean <= 0.5, f"geometric mean decay ratio per +2 nodes: {geo_mean:.3f}"
    assert time.perf_counter() - start < 30.0


def test_acceleration_speedup():
    start = time.perf_counter()
    t_plain, [(_, _, _, t_accel)] = accel_compare(build_problem("ex3_1d_case1", 0.5, 2 ** 13), 100, (10,), 0.4)
    s1 = t_plain / t_accel
    assert s1 >= 2.0, f"1-D speedup {s1:.2f} < 2"
    t_plain, [(_, _, _, t_accel)] = accel_compare(build_problem("ex4_2d_case2", 0.5, 64), 100, (10,), 0.4)
    s2 = t_plain / t_accel
    assert s2 >= 2.0, f"2-D speedup {s2:.2f} < 2"
    assert time.perf_counter() - start < 120.0


def test_mittag_leffler_properties():
    start = time.perf_counter()
    # series/contour agreement in the overlap regime
    overlap_dev = 0.0
    checked = 0
    for ap in (0.25, 0.5, 0.75):
        for g in (1.0, 1.5):
            for t in (0.5, 1.0, 2.0):
                q = MLQuery(ap, 1.0, g, -(t ** ap), -1.2 * t)
                try:
                    s = ml_biv_series(q)
                except MLError:
                    continue
                c = ml_biv_contour(q)
                overlap_dev = max(overlap_dev, abs(s - c) / abs(s))
                checked += 1
    assert checked >= 10
    assert overlap_dev <= 1e-8, f"series/contour relative gap {overlap_dev:.3e}"

    # decay bound |E| * (1 + |w2 t^b|) <= 10 over the sweep
    worst = 0.0
    for beta in (0.25, 0.5, 0.75):
        ap = 1.0 - beta
        for g in (1.0, 2.0 - beta):
            for w1 in (-0.5, -2.0):
                for w2 in (-1.0, -5.0):
                    for t in np.geomspace(0.01, 100.0, 8):
                        q = MLQuery(ap, 1.0, g, w1 * t ** ap, w2 * t)
                        val = ml_biv(q)
                        worst = max(worst, abs(val) * (1.0 + abs(w2) * t))
    assert worst <= 10.0, f"decay bound constant {worst:.3f}"

    # t -> 0 limit: E -> 1/Gamma(gamma)
    t = 1e-44
    for ap, g in ((0.25, 1.0), (0.5, 1.5), (0.75, 2.0)):
        val = ml_biv(MLQuery(ap, 1.0, g, -(t ** ap), -t))
        assert abs(val - 1.0 / math.gamma(g)) <= 1e-10

    # integrated fractional-shift identity
    from scipy.integrate import quad

    ap, w1, w2, tt = 0.5, -1.0, -2.0, 1.3
    lhs, _ = quad(
        lambda s: ml_biv(MLQuery(ap, 1.0, 1.0, w1 * s ** ap, w2 * s)), 0.0, tt, limit=200
    )
    rhs = tt * ml_biv(MLQuery(ap, 1.0, 2.0, w1 * tt ** ap, w2 * tt))
    assert abs(lhs - rhs) <= 1e-6
    assert time.perf_counter() - start < 30.0


def test_solver_oracle_equivalences():
    start = time.perf_counter()
    # tridiagonal solver vs dense LAPACK
    rng = np.random.default_rng(2024)
    for n in (5, 50, 200):
        lower = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        upper = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        diag += 4.0 * (np.abs(np.concatenate(([0], lower))) + np.abs(np.concatenate((upper, [0]))))
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        x = thomas_solve(lower, diag, upper, rhs)
        x_ref = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * (1.0 + np.max(np.abs(x_ref)))

    # sparse solver backward error
    # the 1-D P1 matrices in closed form, h/6 (1, 4, 1) and (-1, 2, -1)/h
    mesh = Mesh1D(64)
    h, n = mesh.h, mesh.ndof
    ones = np.ones(n - 1)
    mass = sps.diags([ones, np.full(n, 4.0), ones], [-1, 0, 1]) * (h / 6.0)
    stiff = sps.diags([-ones, np.full(n, 2.0), -ones], [-1, 0, 1]) / h
    a = ((1.0 + 2.0j) * mass + stiff).tocsc()
    rhs = rng.standard_normal(mesh.ndof) + 1j * rng.standard_normal(mesh.ndof)
    from cimfem.linalg import sparse_solve

    x = sparse_solve(a, rhs)
    res = np.max(np.abs(a @ x - rhs))
    scale = np.max(np.abs(rhs)) + np.max(np.abs(a.toarray())) * np.max(np.abs(x))
    assert res <= 1e-13 * scale

    # homogeneous 1-D solution vs eigen-expansion reference, single mode
    M = 1024
    mesh = Mesh1D(M)
    u0 = lambda x: math.sqrt(2.0) * np.sin(np.pi * x)
    p = Problem(sym=FractionalSymbol(1.0, 0.5), domain=mesh, u0=u0)
    sols = solve(p, 100, (0.2, 0.8))
    sp = SpectralProblem(K=1.0, beta=0.5, mode_coefficients=lambda j: 1.0 if j == 1 else 0.0)
    for t_eval, uh in zip((0.2, 0.8), sols):
        ue = spectral_reference(sp, mesh.nodes, t_eval)
        rel = mass_norm(mesh, np.asarray(uh) - ue) / mass_norm(mesh, ue)
        assert rel <= 1e-6, f"t={t_eval}: relative gap {rel:.3e}"
    assert time.perf_counter() - start < 30.0


def test_optimizer_grid_oracle(monkeypatch):
    start = time.perf_counter()
    N = 100
    coarse = optimize_rho(ContourConfig(), N)
    monkeypatch.setattr(cimfem.contour, "GRID_SIZE", 10 ** 6)
    fine = optimize_rho(ContourConfig(), N)
    assert abs(coarse.rho_star - fine.rho_star) <= 2e-3
    assert coarse.predicted_error <= 1.01 * fine.predicted_error
    assert time.perf_counter() - start < 5.0
