"""Contour-solver tests: scalar, 1-D, and 2-D problems with exact or
independently computed references, plus the barycentric acceleration.
"""

import math
import warnings

import numpy as np
import pytest

from cimfem.cim import (
    CIMError,
    Problem,
    ScalarDomain,
    barycentric_interpolate,
    barycentric_weights,
    chebyshev_points,
    evaluate,
    predicted_interp_decay,
    problem_parameters,
    solve_nodes,
    solve_nodes_accelerated,
)
from cimfem.bench import ContourRun, accel_compare, build_problem
from cimfem.contour import quadrature_nodes, standard_parameters
from cimfem.fem import InitialData1D, Mesh1D, Mesh2D, l2_error, mass_norm
from cimfem.mlf import mode_value
from cimfem.symbols import FractionalSymbol, SourceTransform, pole_term, power_term

SQRT_PI_32 = 3.0 * math.sqrt(math.pi) / 2.0


def scalar_benchmark(beta):
    """u' + d_t^beta u + u = f with exact solution u = 1 + c t."""
    source = SourceTransform(
        terms=(
            power_term("one", 1.0 + SQRT_PI_32, 0.0),
            power_term("one", SQRT_PI_32 / math.gamma(2.0 - beta), 1.0 - beta),
            power_term("one", SQRT_PI_32, 1.0),
        )
    )
    p = Problem(
        sym=FractionalSymbol(1.0, beta),
        domain=ScalarDomain(1.0),
        u0=1.0,
        source=source,
    )
    exact = lambda t: 1.0 + SQRT_PI_32 * t
    return p, exact


class TestScalarSolve:
    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_exact_solution(self, beta):
        p, exact = scalar_benchmark(beta)
        for t, val in zip((0.2, 0.6, 1.0), ContourRun(p, 80).solve((0.2, 0.6, 1.0))):
            assert val == pytest.approx(exact(t), abs=1e-10)

    def test_homogeneous_matches_relaxation_kernel(self):
        # K u' + d_t^beta u + a u = 0, u(0) = 1 has the closed-form kernel
        p = Problem(sym=FractionalSymbol(1.0, 0.5), domain=ScalarDomain(math.pi ** 2), u0=1.0)
        for t, val in zip((0.2, 0.8), ContourRun(p, 80).solve((0.2, 0.8))):
            assert val == pytest.approx(mode_value(1.0, 0.5, math.pi ** 2, t), abs=1e-9)

    def test_spectral_decay(self):
        p, exact = scalar_benchmark(0.5)
        errs = []
        for N in (10, 20, 40):
            val = ContourRun(p, N).solve(0.6)
            errs.append(abs(val - exact(0.6)))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-9


class TestEvaluateGuards:
    def test_negative_time_rejected(self):
        p, _ = scalar_benchmark(0.5)
        params = problem_parameters(p, 20)
        ns = solve_nodes(p, quadrature_nodes(params, 20))
        with pytest.raises(CIMError):
            evaluate(ns, 0.0)

    def test_overflow_guard(self):
        p, _ = scalar_benchmark(0.5)
        params = problem_parameters(p, 20)
        ns = solve_nodes(p, quadrature_nodes(params, 20))
        with pytest.raises(CIMError):
            evaluate(ns, 1e6)

    def test_window_warning(self):
        p, _ = scalar_benchmark(0.5)
        params = problem_parameters(p, 20)
        ns = solve_nodes(p, quadrature_nodes(params, 20))
        with pytest.warns(UserWarning):
            evaluate(ns, 5.0, window=(0.1, 1.0))

    def test_guards_check_every_time_of_a_list(self):
        p, _ = scalar_benchmark(0.5)
        params = problem_parameters(p, 20)
        ns = solve_nodes(p, quadrature_nodes(params, 20))
        with pytest.raises(CIMError):
            evaluate(ns, [0.5, 0.0])
        with pytest.raises(CIMError):
            evaluate(ns, [0.5, 1e6])
        with pytest.warns(UserWarning):
            evaluate(ns, [0.5, 5.0], window=(0.1, 1.0))

    @pytest.mark.parametrize("example", ["ex1_scalar", "ex3_1d_case1", "ex4_2d_case2"])
    def test_time_list_matches_single_times(self, example):
        p = build_problem(example, 0.5, 8).problem
        params = problem_parameters(p, 40)
        ns = solve_nodes(p, quadrature_nodes(params, 40))
        times = np.linspace(0.1, 1.0, 16)
        together = evaluate(ns, times)
        assert together.shape[0] == len(times)
        for t, row in zip(times, together):
            single = evaluate(ns, t)
            assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))


class TestPoleHandling:
    def pole_problem(self):
        source = SourceTransform(terms=(pole_term("g", 1.0, 1.5),))
        return Problem(
            sym=FractionalSymbol(1.0, 0.5),
            domain=ScalarDomain(1.0),
            u0=0.0,
            source=source,
        )

    def test_vertex_clears_pole_for_all_n(self):
        p = self.pole_problem()
        for N in (20, 40, 60, 100, 150, 200):
            params = problem_parameters(p, N)
            vertex = params.mu_star * (1.0 - math.sin(params.alpha))
            assert vertex > 1.5

    def test_unadjusted_contour_warns_when_pole_missed(self):
        p = self.pole_problem()
        params = standard_parameters(200, p.t0, p.lambda_ratio)
        quad = quadrature_nodes(params, 200)
        assert quad.mu * (1.0 - math.sin(quad.alpha)) <= 1.5
        with pytest.warns(UserWarning):
            solve_nodes(p, quad)

    def test_pole_solution_consistent_across_n(self):
        # growing-mode solutions at different N agree once the contour
        # always passes right of the pole
        p = self.pole_problem()
        vals = [ContourRun(p, N).solve(0.6) for N in (60, 100, 200, 400)]
        devs = [abs(v - vals[-1]) / abs(vals[-1]) for v in vals[:-1]]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-4


class TestSpatialSolve:
    def vanishing_problem(self, beta, M):
        # exact solution u = t^{3/2} x (1 - x) with K u' + d_t^beta u - u'' = f
        source = SourceTransform(
            terms=(
                power_term("xx", 1.5, 0.5),
                power_term("xx", math.gamma(2.5) / math.gamma(2.5 - beta), 1.5 - beta),
                power_term("one", 2.0, 1.5),
            )
        )
        factors = {
            "xx": InitialData1D.polynomial((0.0, 1.0, -1.0)),
            "one": InitialData1D.polynomial((1.0,)),
        }
        p = Problem(
            sym=FractionalSymbol(1.0, beta),
            domain=Mesh1D(M),
            u0=InitialData1D.zero(),
            source=source,
            spatial_factors=factors,
        )
        exact = lambda x, t: t ** 1.5 * x * (1.0 - x)
        return p, exact

    def test_manufactured_solution_l2(self):
        p, exact = self.vanishing_problem(0.5, 64)
        uh = ContourRun(p, 60).solve(0.86)
        err = l2_error(p.domain, uh, lambda x: exact(x, 0.86))
        assert err < 5e-5  # O(h^2) regime at M = 64

    def test_second_order_in_space(self):
        errs = []
        for M in (8, 16, 32):
            p, exact = self.vanishing_problem(0.5, M)
            uh = ContourRun(p, 60).solve(0.86)
            errs.append(l2_error(p.domain, uh, lambda x: exact(x, 0.86)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.85 < o < 2.15 for o in orders)

    def test_2d_homogeneous_decays(self):
        mesh = Mesh2D(8)
        from cimfem.fem import InitialData2D

        u0 = InitialData2D(InitialData1D.indicator(0.0, 1.0), InitialData1D.indicator(0.0, 1.0))
        p = Problem(sym=FractionalSymbol(1.0, 0.5), domain=mesh, u0=u0)
        run = ContourRun(p, 60)
        vals = run.solve((0.1, 0.5, 1.0))
        norms = [mass_norm(run.disc.ops, v) for v in vals]
        assert norms[0] > norms[1] > norms[2] > 0.0


class TestBarycentric:
    def test_weights_alternate_with_halved_ends(self):
        w = barycentric_weights(4)
        assert np.allclose(w, [0.5, -1.0, 1.0, -1.0, 0.5])

    def test_reproduces_polynomials(self):
        n = 8
        a, b = 0.3, 2.1
        pts = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * np.arange(n + 1) / n)
        w = barycentric_weights(n)
        poly = lambda x: 3.0 - x + 0.5 * x ** 3 + x ** 5
        xq = np.linspace(a, b, 37)
        out = barycentric_interpolate(pts, w, poly(pts), xq, b - a)
        assert np.allclose(out, poly(xq), atol=1e-12)

    def test_exact_at_nodes(self):
        # query points that coincide with interpolation points must not 0/0
        n = 6
        pts = np.cos(np.pi * np.arange(n + 1) / n)
        w = barycentric_weights(n)
        vals = np.sin(pts)
        out = barycentric_interpolate(pts, w, vals, pts.copy(), 2.0)
        assert np.allclose(out, vals, atol=1e-14)

    def test_chebyshev_points_span_quadrature_range(self):
        p, _ = scalar_benchmark(0.5)
        params = problem_parameters(p, 40)
        quad = quadrature_nodes(params, 40)
        pts = chebyshev_points(quad, 10)
        assert pts.min() == pytest.approx(quad.phis[0])
        assert pts.max() == pytest.approx(quad.phis[-1])


class TestAcceleration:
    def test_accelerated_close_to_plain(self):
        p, exact = scalar_benchmark(0.5)
        params = problem_parameters(p, 100)
        quad = quadrature_nodes(params, 100)
        ns_plain = solve_nodes(p, quad)
        ns_acc = solve_nodes_accelerated(p, params, quad, 30)
        t = 0.6
        assert evaluate(ns_acc, t) == pytest.approx(evaluate(ns_plain, t), rel=1e-5)

    def test_deviation_decreases_with_n(self):
        p, _ = scalar_benchmark(0.5)
        params = problem_parameters(p, 100)
        quad = quadrature_nodes(params, 100)
        u_plain = evaluate(solve_nodes(p, quad), 0.6)
        devs = []
        for n in (6, 12, 18):
            u_acc = evaluate(solve_nodes_accelerated(p, params, quad, n), 0.6)
            devs.append(abs(u_acc - u_plain) / abs(u_plain))
        assert devs[2] < devs[0]

    def test_predicted_decay_constant_exceeds_one(self):
        # interpolation error behaves like C * rate^-n, so rate > 1 means decay
        p, _ = scalar_benchmark(0.5)
        params = problem_parameters(p, 100)
        rate = predicted_interp_decay(100, params.tau_star, params.alpha)
        assert rate > 1.0

    @pytest.mark.parametrize("example, M", [("ex1_scalar", 4), ("ex3_1d_case1", 128)])
    def test_predicted_decay_bounds_measured_rate(self, example, M):
        # the Bernstein-ellipse rate is a lower bound on the per-node decay
        # of the deviation, measured here from n = 10 to n = 20
        bp = build_problem(example, 0.5, M)
        dev10, _, _, _ = accel_compare(bp, 100, 10, 0.6)
        dev20, _, _, _ = accel_compare(bp, 100, 20, 0.6)
        params = bp.run(100).params
        predicted = predicted_interp_decay(100, params.tau_star, params.alpha)
        assert (dev10 / dev20) ** (1.0 / 10.0) >= predicted
