"""Contour-solver tests: scalar, 1-D, and 2-D problems with exact or
independently computed references, plus the barycentric acceleration.
"""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import cimfem.cim
import cimfem.linalg
from cimfem.cim import (
    CIMError,
    Problem,
    ScalarDomain,
    _node_data,
    _node_solve,
    _solution_bounds,
    _solution_lower_bound,
    _solve_at,
    barycentric_interpolate,
    barycentric_weights,
    chebyshev_points,
    discretize,
    UNIT_ROUNDOFF,
    evaluate,
    mesh_modes,
    predicted_interp_decay,
    problem_parameters,
    solve_nodes,
    solve_nodes_accelerated,
)
from cimfem.bench import EXAMPLE_IDS, accel_compare, build_problem, solve, window_times
from cimfem.contour import ContourConfig, contour_point, quadrature_nodes, standard_parameters
from cimfem.fem import InitialData1D, Mesh1D, Mesh2D, assemble, l2_error, load_vector, mass_norm, stencil_1d
from cimfem.linalg import toeplitz_eigenvalues
from cimfem.mlf import mode_value
from cimfem.symbols import FractionalSymbol, SourceTransform, pole_term, power_term

SQRT_PI_32 = 3.0 * math.sqrt(math.pi) / 2.0


def node_quadrature(p, N):
    """The N-node quadrature that ``bench.solve`` builds for ``p``."""
    return quadrature_nodes(problem_parameters(p, N))


def relative_distance(p, u, ref):
    """Largest distance of ``u`` from ``ref`` over their rows (times), relative to ``ref``'s norm."""
    if p.scalar:
        return np.max(np.abs(u - ref) / np.abs(ref))
    return np.max(mass_norm(p.domain, u - ref) / mass_norm(p.domain, ref))


def scalar_benchmark(beta):
    """u' + d_t^beta u + u = f with exact solution u = 1 + c t."""
    source = SourceTransform(
        terms=(
            power_term(1.0, 1.0 + SQRT_PI_32, 0.0),
            power_term(1.0, SQRT_PI_32 / math.gamma(2.0 - beta), 1.0 - beta),
            power_term(1.0, SQRT_PI_32, 1.0),
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
        for t, val in zip((0.2, 0.6, 1.0), solve(p, 80, (0.2, 0.6, 1.0))):
            assert val == pytest.approx(exact(t), abs=1e-10)

    def test_homogeneous_matches_relaxation_kernel(self):
        # K u' + d_t^beta u + a u = 0, u(0) = 1 has the closed-form kernel
        p = Problem(sym=FractionalSymbol(1.0, 0.5), domain=ScalarDomain(math.pi ** 2), u0=1.0)
        for t, val in zip((0.2, 0.8), solve(p, 80, (0.2, 0.8))):
            assert val == pytest.approx(mode_value(1.0, 0.5, math.pi ** 2, t), abs=1e-9)

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_domain_needs_finite_positive_a(self, a):
        with pytest.raises(ValueError, match="need finite a > 0"):
            ScalarDomain(a)

    def test_spectral_decay(self):
        p, exact = scalar_benchmark(0.5)
        errs = []
        for N in (10, 20, 40):
            val = solve(p, N, 0.6)
            errs.append(abs(val - exact(0.6)))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-9


class TestEvaluateGuards:
    def test_negative_time_rejected(self):
        p, _ = scalar_benchmark(0.5)
        quad = node_quadrature(p, 20)
        u = solve_nodes(p, quad)
        with pytest.raises(CIMError):
            evaluate(quad, u, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, [0.5, math.nan]])
    def test_time_that_is_not_finite_rejected(self, t):
        p, _ = scalar_benchmark(0.5)
        quad = node_quadrature(p, 20)
        u = solve_nodes(p, quad)
        with pytest.raises(CIMError, match="needs finite t > 0"):
            evaluate(quad, u, t)

    def test_empty_times_rejected(self, monkeypatch):
        # every entry point that takes times raises the typed error, before any row is solved
        p, _ = scalar_benchmark(0.5)
        quad = node_quadrature(p, 20)
        u = solve_nodes(p, quad)
        rows = counted_solves(monkeypatch)
        for call in (lambda: solve_nodes(p, quad, []), lambda: evaluate(quad, u, []), lambda: solve(p, 20, [])):
            with pytest.raises(CIMError, match="needs at least one time"):
                call()
        assert rows == []

    def test_overflow_guard(self):
        p, _ = scalar_benchmark(0.5)
        quad = node_quadrature(p, 20)
        u = solve_nodes(p, quad)
        with pytest.raises(CIMError):
            evaluate(quad, u, 1e6)

    def test_window_warning(self):
        p, _ = scalar_benchmark(0.5)
        quad = node_quadrature(p, 20)
        u = solve_nodes(p, quad)
        with pytest.warns(UserWarning):
            evaluate(quad, u, 5.0)

    def test_guards_check_every_time_of_a_list(self):
        p, _ = scalar_benchmark(0.5)
        quad = node_quadrature(p, 20)
        u = solve_nodes(p, quad)
        with pytest.raises(CIMError):
            evaluate(quad, u, [0.5, 0.0])
        with pytest.raises(CIMError):
            evaluate(quad, u, [0.5, 1e6])
        with pytest.warns(UserWarning):
            evaluate(quad, u, [0.5, 5.0])

    def test_window_comes_from_the_quadrature(self):
        # the contour of t0 = 1 is optimized for [1, 10]: its ends pass, 0.5 warns
        p, _ = scalar_benchmark(0.5)
        p = replace(p, contour=ContourConfig(t0=1.0))
        quad = node_quadrature(p, 20)
        u = solve_nodes(p, quad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate(quad, u, [1.0, 5.0, 10.0])
        with pytest.warns(UserWarning, match=r"accuracy window \(1\.0, 10\.0\)"):
            evaluate(quad, u, 0.5)

    @pytest.mark.parametrize("example", ["ex1_scalar", "ex3_1d_case1", "ex4_2d_case2"])
    def test_time_list_matches_single_times(self, example):
        p = build_problem(example, 0.5, 8).problem
        quad = node_quadrature(p, 40)
        u = solve_nodes(p, quad)
        times = np.linspace(0.1, 1.0, 16)
        together = evaluate(quad, u, times)
        assert together.shape[0] == len(times)
        for t, row in zip(times, together):
            single = evaluate(quad, u, t)
            assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))


class TestPoleHandling:
    def pole_problem(self):
        source = SourceTransform(terms=(pole_term(1.0, 1.0, 1.5),))
        return Problem(
            sym=FractionalSymbol(1.0, 0.5),
            domain=ScalarDomain(1.0),
            u0=0.0,
            source=source,
        )

    def test_vertex_clears_pole_for_all_n(self):
        # the vertex of every contour z(phi + iy), |y| < d_tilde, lies right of the pole
        p = self.pole_problem()
        for N in range(20, 201):
            params = problem_parameters(p, N)
            assert params.shift + params.mu_star * (1.0 - math.sin(params.contour.alpha + params.d_tilde)) > 1.5

    def test_shifted_parameters_keep_their_contour(self):
        p = self.pole_problem()
        for N in (20, 60, 200):
            assert problem_parameters(p, N) == replace(standard_parameters(p.contour, N), shift=1.2 * 1.5)

    def test_unadjusted_contour_warns_when_pole_missed(self):
        p = self.pole_problem()
        params = standard_parameters(p.contour, 200)
        quad = quadrature_nodes(params)
        assert params.mu_star * (1.0 - math.sin(params.contour.alpha)) <= 1.5
        with pytest.warns(UserWarning):
            solve_nodes(p, quad)

    def test_accelerated_path_warns_when_pole_missed(self):
        # the unshifted N = 20 contour of ex4_2d_case3 has its vertex near 0.37,
        # left of the source pole at 1.5
        p = build_problem("ex4_2d_case3", 0.5, 8).problem
        params = standard_parameters(p.contour, 20)
        quad = quadrature_nodes(params)
        assert params.mu_star * (1.0 - math.sin(params.contour.alpha)) < 1.5
        with pytest.warns(UserWarning, match="source pole"):
            solve_nodes_accelerated(p, quad, 10)

    def test_raised_mu_contour_warns(self):
        # mu raised until the central vertex clears the pole by 1.2 sigma: the
        # strip member of angle alpha + d_tilde still passes left of the pole
        p = self.pole_problem()
        params = standard_parameters(p.contour, 100)
        params = replace(params, mu_star=1.2 * 1.5 / (1.0 - math.sin(params.contour.alpha)))
        assert params.mu_star * (1.0 - math.sin(params.contour.alpha)) > 1.5
        with pytest.warns(UserWarning, match="source pole"):
            solve_nodes(p, quadrature_nodes(params))

    def test_overflow_guard_counts_the_shift(self):
        p = self.pole_problem()
        quad = node_quadrature(p, 20)
        mu, shift = quad.params.mu_star, quad.params.shift
        assert mu * 400.0 < 700.0 < (shift + mu) * 400.0
        with pytest.raises(CIMError, match="overflow"):
            evaluate(quad, solve_nodes(p, quad), 400.0)

    def test_pole_solutions_are_spectrally_accurate(self):
        # over the 17 window times: within 1e-12 of the N = 200 solution by N = 60,
        # and at N = 400 the same for the shifts 1.2 sigma and 3 sigma
        times = window_times(ContourConfig(), (0.6,))
        scalar = self.pole_problem()
        problems = [scalar] + [build_problem("ex4_2d_case3", beta, 16).problem for beta in (0.25, 0.5, 0.75)]
        for p in problems:
            assert relative_distance(p, solve(p, 60, times), solve(p, 200, times)) < 1e-12
        for p in (scalar, problems[2]):
            quad = quadrature_nodes(replace(standard_parameters(p.contour, 400), shift=3.0 * 1.5))
            wide = evaluate(quad, solve_nodes(p, quad), times)
            assert relative_distance(p, solve(p, 400, times), wide) < 1e-13


class TestProcessCaches:
    """Contour parameters and load vectors are built once per process and shared safely."""

    def test_pole_shift_leaves_the_shared_parameters_alone(self):
        standard_parameters.cache_clear()
        shifted = problem_parameters(build_problem("ex4_2d_case3", 0.5, 4).problem, 40)
        plain = problem_parameters(build_problem("ex4_2d_case1", 0.5, 4).problem, 40)
        fresh = standard_parameters.__wrapped__(ContourConfig(), 40)
        assert plain == fresh
        assert standard_parameters(ContourConfig(), 40).shift == 0.0
        assert shifted == replace(plain, shift=1.2 * 1.5)

    @pytest.mark.parametrize("example", ["ex2_vanishing", "ex3_1d_case2", "ex4_2d_case1", "ex4_2d_case3"])
    def test_load_vectors_are_shared_read_only_and_exact(self, example):
        cimfem.cim._load.cache_clear()
        p = build_problem(example, 0.5, 8).problem
        loads = discretize(p)
        assert set(loads) == {p.u0, *(t.datum for t in p.source.terms)}
        for g, b in loads.items():
            assert not b.flags.writeable
            assert b.tobytes() == load_vector(p.domain, g).astype(complex).tobytes()
        again = discretize(build_problem(example, 0.25, 8).problem)
        assert all(again[g] is b for g, b in loads.items())
        with pytest.raises(ValueError, match="read-only"):
            loads[p.u0][0] = 1.0

    @pytest.mark.parametrize("example", ["ex2_vanishing", "ex3_1d_case2", "ex4_2d_case1"])
    def test_modal_data_are_shared_read_only_and_exact(self, example):
        # each load's DST-I coordinates once per (mesh, datum), each mesh's modal record once per process
        p = build_problem(example, 0.5, 8).problem
        for g, b in discretize(p).items():
            b_hat = cimfem.cim.modal_load(p.domain, g)
            grid = b if isinstance(p.domain, Mesh1D) else b.reshape(7, 7)
            transform = cimfem.linalg.dst1 if isinstance(p.domain, Mesh1D) else cimfem.linalg.dst2
            assert b_hat.tobytes() == transform(grid).tobytes() and not b_hat.flags.writeable
            assert cimfem.cim.modal_load(build_problem(example, 0.25, 8).problem.domain, g) is b_hat
        parts = mesh_modes(p.domain)
        assert mesh_modes(build_problem(example, 0.25, 8).problem.domain) is parts
        assert not (parts.m.flags.writeable or parts.s.flags.writeable)


@pytest.mark.parametrize(
    "u0, terms",
    [(0.0, ()), (InitialData1D.zero(), (power_term(InitialData1D.zero(), 1.0, 0.0), power_term(2.0, 1.0, 0.0)))],
    ids=["initial-datum", "source-datum"],
)
def test_numeric_datum_on_a_mesh_is_rejected(u0, terms):
    # the initial datum and every source datum pass the same check
    p = Problem(sym=FractionalSymbol(1.0, 0.5), domain=Mesh1D(8), u0=u0, source=SourceTransform(terms))
    with pytest.raises(ValueError, match="need data on the mesh, not a scalar"):
        discretize(p)


def test_scalar_loads_are_the_data_themselves():
    p = Problem(sym=FractionalSymbol(1.0, 0.5), domain=ScalarDomain(1.0), u0=2.0,
                source=SourceTransform((power_term(3.0, 1.0, 0.0),)))
    loads = discretize(p)
    assert loads == {2.0: 2.0, 3.0: 3.0}
    assert all(type(b) is complex for b in loads.values())


class TestSpatialSolve:
    def vanishing_problem(self, beta, M):
        # exact solution u = t^{3/2} x (1 - x) with K u' + d_t^beta u - u'' = f
        xx, one = InitialData1D.polynomial((0.0, 1.0, -1.0)), InitialData1D.polynomial((1.0,))
        source = SourceTransform(
            terms=(
                power_term(xx, 1.5, 0.5),
                power_term(xx, math.gamma(2.5) / math.gamma(2.5 - beta), 1.5 - beta),
                power_term(one, 2.0, 1.5),
            )
        )
        p = Problem(
            sym=FractionalSymbol(1.0, beta),
            domain=Mesh1D(M),
            u0=InitialData1D.zero(),
            source=source,
        )
        exact = lambda x, t: t ** 1.5 * x * (1.0 - x)
        return p, exact

    def test_manufactured_solution_l2(self):
        p, exact = self.vanishing_problem(0.5, 64)
        uh = solve(p, 60, 0.86)
        err = l2_error(p.domain, uh, lambda x: exact(x, 0.86))
        assert err < 5e-5  # O(h^2) regime at M = 64

    def test_second_order_in_space(self):
        errs = []
        for M in (8, 16, 32):
            p, exact = self.vanishing_problem(0.5, M)
            uh = solve(p, 60, 0.86)
            errs.append(l2_error(p.domain, uh, lambda x: exact(x, 0.86)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.85 < o < 2.15 for o in orders)

    def test_2d_homogeneous_decays(self):
        mesh = Mesh2D(8)
        from cimfem.fem import InitialData2D

        u0 = InitialData2D(InitialData1D.indicator(0.0, 1.0), InitialData1D.indicator(0.0, 1.0))
        p = Problem(sym=FractionalSymbol(1.0, 0.5), domain=mesh, u0=u0)
        vals = solve(p, 60, (0.1, 0.5, 1.0))
        norms = [mass_norm(mesh, v) for v in vals]
        assert norms[0] > norms[1] > norms[2] > 0.0

    def test_2d_node_solves_match_dense(self):
        # every node of the shifted contour of ex4_2d_case3 at M = 16, N = 60;
        # its source is 3 pi^5 exp(1.5 t) fxy(x, y) and its initial datum zero
        p = build_problem("ex4_2d_case3", 0.5, 16).problem
        z = node_quadrature(p, 60).nodes
        ops = assemble(p.domain)
        mass, stiff = ops.mass.toarray(), ops.stiffness.toarray()
        eta = z + z ** 0.5
        loads = discretize(p)
        rhs = np.outer(1.0 + z ** -0.5, loads[p.u0])
        [term] = p.source.terms
        rhs += np.outer(3.0 * math.pi ** 5 / (z - 1.5), loads[term.datum])
        together = _solve_at(p, *_node_data(p, z))
        for k in range(len(z)):
            ref = np.linalg.solve(eta[k] * mass + stiff, rhs[k])
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(_node_solve(ops, eta[k], rhs[k]) - ref)) <= 1e-12 * scale
            assert np.max(np.abs(together[k] - ref)) <= 1e-12 * scale


def dense_node_solutions(p, z):
    """Right-hand sides and dense LAPACK solutions of ``(eta M + S) u = rhs``, one row per point."""
    eta = p.sym.eta(z)
    loads = discretize(p)
    rhs = np.outer(p.sym.history_weight(z), loads[p.u0])
    for g, mult in p.source.evaluate(z).items():
        rhs += np.outer(mult, loads[g])
    if isinstance(p.domain, Mesh1D):
        # the P1 matrices in closed form, h/6 (1, 4, 1) and (-1, 2, -1)/h
        h, n = p.domain.h, p.domain.ndof
        t = np.eye(n, k=1) + np.eye(n, k=-1)
        mass, stiff = h / 6.0 * (4.0 * np.eye(n) + t), (2.0 * np.eye(n) - t) / h
    else:
        ops = assemble(p.domain)
        mass, stiff = ops.mass.toarray(), ops.stiffness.toarray()
    return rhs, np.array([np.linalg.solve(e * mass + stiff, r) for e, r in zip(eta, rhs)])


class TestModalNodeSolves:
    """1-D node solves: one DST-I modal division for all contour points."""

    # row blocks hold 4096 // (M - 1) points, so every N here spans several blocks
    @pytest.mark.parametrize("example, M, N", [("ex2_vanishing", 7, 1400), ("ex3_1d_case1", 64, 300), ("ex2_vanishing", 1000, 30)])
    def test_rows_match_dense(self, example, M, N):
        p = build_problem(example, 0.5, M).problem
        quad = node_quadrature(p, 80)
        z, _ = contour_point(quad.params, np.linspace(quad.phis[0], quad.phis[-1], N))
        _, ref = dense_node_solutions(p, z)
        u = _solve_at(p, *_node_data(p, z))
        # both solves are backward stable, so rows differ by a few eps times the
        # condition number max|eta m_j + s_j| / min|eta m_j + s_j| of the normal matrix
        (m_diag, m_off), (s_diag, s_off) = stencil_1d(p.domain)
        m, s = toeplitz_eigenvalues(m_diag, m_off, M - 1), toeplitz_eigenvalues(s_diag, s_off, M - 1)
        lam = np.abs(np.outer(p.sym.eta(z), m) + s)
        cond = lam.max(axis=1) / lam.min(axis=1)
        gap = np.max(np.abs(u - ref), axis=1) / np.max(np.abs(ref), axis=1)
        assert np.all(gap <= 1e-14 * cond)

    def test_failed_row_falls_back_to_thomas(self, monkeypatch):
        p = build_problem("ex2_vanishing", 0.5, 16).problem
        z = node_quadrature(p, 40).nodes
        rhs, ref = dense_node_solutions(p, z)
        dst1 = cimfem.linalg.dst1

        def corrupted(x):
            y = dst1(x)
            if y.ndim == 2:  # the transform back to nodal values of a block of rows
                y[5, 3] += 1e-6 * np.max(np.abs(y[5]))
            return y

        solved = []
        thomas_solve = cimfem.cim.thomas_solve

        def counted(lower, diag, upper, b):
            solved.append(b)
            return thomas_solve(lower, diag, upper, b)

        monkeypatch.setattr(cimfem.linalg, "dst1", corrupted)
        monkeypatch.setattr(cimfem.cim, "thomas_solve", counted)
        u = _solve_at(p, *_node_data(p, z))
        assert len(solved) == 1
        np.testing.assert_allclose(solved[0], rhs[5], rtol=1e-14)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestModal2DNodeSolves:
    """2-D node solves: COCG in DST-I coordinates for all contour points, splu for the rows it leaves."""

    # row blocks hold MODAL_BLOCK_2D // (M - 1)**2 points (8192 entries: 167 at M = 8, 15 at M = 24),
    # so every N here spans two blocks
    @pytest.mark.parametrize("example, M, N", [("ex4_2d_case1", 8, 200), ("ex4_2d_case3", 24, 30)])
    def test_rows_match_dense(self, example, M, N):
        p = build_problem(example, 0.5, M).problem
        quad = node_quadrature(p, 80)
        z, _ = contour_point(quad.params, np.linspace(quad.phis[0], quad.phis[-1], N))
        _, ref = dense_node_solutions(p, z)
        u = _solve_at(p, *_node_data(p, z))
        assert np.all(np.max(np.abs(u - ref), axis=1) <= 1e-12 * np.max(np.abs(ref), axis=1))

    def fallback_run(self, monkeypatch):
        """ex4_2d_case3 at M = 8 and its N = 40 contour points, with every ``_node_solve`` call recorded."""
        p = build_problem("ex4_2d_case3", 0.5, 8).problem
        solved = []
        node_solve = cimfem.cim._node_solve

        def counted(ops, eta, b):
            solved.append(b)
            return node_solve(ops, eta, b)

        monkeypatch.setattr(cimfem.cim, "_node_solve", counted)
        return p, node_quadrature(p, 40).nodes, solved

    def test_failed_row_falls_back_to_splu(self, monkeypatch):
        p, z, solved = self.fallback_run(monkeypatch)
        rhs, ref = dense_node_solutions(p, z)
        dst2 = cimfem.linalg.dst2

        def corrupted(x):
            y = dst2(x)
            if y.ndim == 3:  # the transform back to nodal values of a block of rows
                y[5, 3, 2] += 1e-6 * np.max(np.abs(y[5]))
            return y

        monkeypatch.setattr(cimfem.linalg, "dst2", corrupted)
        u = _solve_at(p, *_node_data(p, z))
        assert len(solved) == 1
        np.testing.assert_allclose(solved[0], rhs[5], rtol=1e-14)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_iteration_cap_falls_back_to_splu(self, monkeypatch):
        p, z, solved = self.fallback_run(monkeypatch)
        _, ref = dense_node_solutions(p, z)
        monkeypatch.setattr(cimfem.linalg, "COCG_MAX_ITER", 2)
        u = _solve_at(p, *_node_data(p, z))
        assert len(solved) == len(z)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


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
        out = barycentric_interpolate(pts, w, poly(pts), xq)
        assert np.allclose(out, poly(xq), atol=1e-12)

    def test_exact_at_nodes(self):
        # query points that coincide with interpolation points must not 0/0
        n = 6
        pts = np.cos(np.pi * np.arange(n + 1) / n)
        w = barycentric_weights(n)
        vals = np.sin(pts)
        out = barycentric_interpolate(pts, w, vals, pts.copy())
        assert np.allclose(out, vals, atol=1e-14)

    def test_matches_pointwise_formula_on_complex_rows(self):
        # (n + 1, ndof) complex values; some query points are interpolation points
        n, a, b = 7, 0.2, 1.9
        pts = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * np.arange(n + 1) / n)
        w = barycentric_weights(n)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((n + 1, 4)) + 1j * rng.standard_normal((n + 1, 4))
        xq = np.concatenate([np.linspace(a, b, 13), pts[[0, 3, n]]])
        ref = np.empty((len(xq), 4), dtype=complex)
        for i, xi in enumerate(xq):
            d = xi - pts
            if np.any(d == 0.0):
                ref[i] = vals[np.argmin(np.abs(d))]
            else:
                ref[i] = (w / d) @ vals / np.sum(w / d)
        out = barycentric_interpolate(pts, w, vals, xq)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_chebyshev_points_span_quadrature_range(self):
        p, _ = scalar_benchmark(0.5)
        params = problem_parameters(p, 40)
        quad = quadrature_nodes(params)
        pts = chebyshev_points(quad, 10)
        assert pts.min() == pytest.approx(quad.phis[0])
        assert pts.max() == pytest.approx(quad.phis[-1])


class TestAcceleration:
    def test_accelerated_close_to_plain(self):
        p, exact = scalar_benchmark(0.5)
        params = problem_parameters(p, 100)
        quad = quadrature_nodes(params)
        u_plain = solve_nodes(p, quad)
        u_acc = solve_nodes_accelerated(p, quad, 30)
        t = 0.6
        assert evaluate(quad, u_acc, t) == pytest.approx(evaluate(quad, u_plain, t), rel=1e-5)

    def test_deviation_decreases_with_n(self):
        # the scalar benchmark, and the 2-D pole problem on its shifted contour
        cases = [(scalar_benchmark(0.5)[0], 100, (6, 12, 18)),
                 (build_problem("ex4_2d_case3", 0.5, 8).problem, 60, (6, 10, 20))]
        for p, N, ns in cases:
            quad = node_quadrature(p, N)
            u_plain = evaluate(quad, solve_nodes(p, quad), 0.6)
            devs = [relative_distance(p, evaluate(quad, solve_nodes_accelerated(p, quad, n), 0.6), u_plain)
                    for n in ns]
            assert devs[2] < devs[0]

    def test_predicted_decay_constant_exceeds_one(self):
        # interpolation error behaves like C * rate^-n, so rate > 1 means decay
        p, _ = scalar_benchmark(0.5)
        params = problem_parameters(p, 100)
        rate = predicted_interp_decay(100, params.tau_star, params.contour.alpha)
        assert rate > 1.0

    @pytest.mark.parametrize("example, M", [("ex1_scalar", 4), ("ex3_1d_case1", 128)])
    def test_predicted_decay_bounds_measured_rate(self, example, M):
        # the Bernstein-ellipse rate is a lower bound on the per-node decay
        # of the deviation, measured here from n = 10 to n = 20
        bp = build_problem(example, 0.5, M)
        _, [(_, dev10, _, _), (_, dev20, _, _)] = accel_compare(bp, 100, (10, 20), 0.6)
        params = problem_parameters(bp.problem, 100)
        predicted = predicted_interp_decay(100, params.tau_star, params.contour.alpha)
        assert (dev10 / dev20) ** (1.0 / 10.0) >= predicted


def counted_solves(monkeypatch):
    """Points of each ``cim._solve_at`` call, one entry per call."""
    rows = []
    solve_at = cimfem.cim._solve_at
    monkeypatch.setattr(cimfem.cim, "_solve_at", lambda p, eta, terms: rows.append(len(eta)) or solve_at(p, eta, terms))
    return rows


def catalog_meshes(example):
    """The two meshes of the bound and selection tests: 2-D meshes are kept small."""
    return (4, 8) if example.startswith("ex4") else (8, 32)


class TestSolutionBounds:
    """``_solution_bounds`` and ``_solution_lower_bound`` bound every row without a solve, with the ``mesh_modes`` record."""

    @pytest.mark.parametrize("example", EXAMPLE_IDS)
    def test_every_row_is_bounded(self, example):
        # from above and below; the lower bound is exact on a scalar domain and in 1-D,
        # and in 2-D within the 1 + eps of the Kronecker term
        for beta, M, N in itertools.product((0.25, 0.5, 0.75), catalog_meshes(example), (20, 60, 100)):
            p = build_problem(example, beta, M).problem
            eta, terms = _node_data(p, node_quadrature(p, N).nodes)
            u = _solve_at(p, eta, terms)
            norms = np.abs(u) if p.scalar else np.linalg.norm(u, axis=1)
            bounds = _solution_bounds(p, eta, terms)
            assert np.all(norms <= bounds * (1.0 + 1e-12)), (beta, M, N)
            lower = [_solution_lower_bound(p, eta[k], [(c[k], g) for c, g in terms]) for k in range(N)]
            assert np.all(lower <= norms * (1.0 + 1e-12)), (beta, M, N)

    def test_scalar_bound_is_the_solution(self):
        p, _ = scalar_benchmark(0.5)
        eta, terms = _node_data(p, node_quadrature(p, 40).nodes)
        np.testing.assert_allclose(_solution_bounds(p, eta, terms), np.abs(_solve_at(p, eta, terms)), rtol=1e-14)

    @pytest.mark.parametrize("M", [4, 8, 16])
    def test_2d_constants_hold_for_the_assembled_matrices(self, M):
        mesh = Mesh2D(M)
        ops = assemble(mesh)
        mass, stiff = ops.mass.toarray(), ops.stiffness.toarray()
        a = mesh.h**2 / 12.0
        *_, m_min, lo, hi = mesh_modes(mesh)
        # the lemma's constants are at least as tight as the closed forms (2a, 0, 4/a)
        assert m_min >= 2.0 * a and lo >= 0.0 and hi <= 4.0 / a
        lam_m, lam_s = np.linalg.eigvalsh(mass), np.linalg.eigvalsh(stiff)
        assert m_min <= lam_m.min()
        assert 2.0 * a < lam_m.min() and lam_m.max() < 14.0 * a
        assert 0.0 < lam_s.min() and lam_s.max() < 8.0
        lam = scipy.linalg.eigh(stiff, mass, eigvals_only=True)
        assert lo < lam.min() and lam.max() < hi

    @pytest.mark.parametrize("M", [4, 16, 64])
    def test_1d_constants_are_the_pencil_extremes(self, M):
        mesh = Mesh1D(M)
        h, n = mesh.h, mesh.ndof
        t = np.eye(n, k=1) + np.eye(n, k=-1)
        mass, stiff = h / 6.0 * (4.0 * np.eye(n) + t), (2.0 * np.eye(n) - t) / h
        *_, m_min, lo, hi = mesh_modes(mesh)
        assert m_min == pytest.approx(np.linalg.eigvalsh(mass).min(), rel=1e-12)
        lam = scipy.linalg.eigh(stiff, mass, eigvals_only=True)
        assert (lo, hi) == pytest.approx((lam.min(), lam.max()), rel=1e-12)


SELECTION_TIMES = [(0.1,), (0.6,), (1.0,), window_times(ContourConfig())]


class TestNodeSelection:
    """``solve_nodes`` with times solves the rows the times need and certifies the rest."""

    @staticmethod
    def assert_matches_all_rows(p, quad, times, selected):
        """The sum of ``selected`` is the all-row sum within ``2^-52 (tau/pi) max_k |w_k| ||u_k||_inf`` at each time."""
        u = solve_nodes(p, quad)
        w = np.abs(np.exp(np.outer(times, quad.nodes)) * quad.derivs)
        size = np.abs(u) if p.scalar else np.max(np.abs(u), axis=1)
        scale = quad.params.tau_star / math.pi * np.max(w * size, axis=1)
        gap = np.abs(evaluate(quad, selected, times) - evaluate(quad, u, times))
        gap = gap if p.scalar else np.max(gap, axis=1)
        assert np.all(gap <= 2.0**-52 * scale)

    @pytest.mark.parametrize("example", EXAMPLE_IDS)
    def test_selected_rows_give_the_all_row_sum(self, example):
        skipped = 0
        for M, N, times in itertools.product(catalog_meshes(example), (60, 100), SELECTION_TIMES):
            p = build_problem(example, 0.5, M).problem
            quad = node_quadrature(p, N)
            selected = solve_nodes(p, quad, times)
            skipped += N - len(selected)
            self.assert_matches_all_rows(p, quad, times, selected)
        assert skipped > 0

    @pytest.mark.parametrize("domain, u0", [(ScalarDomain(1.0), 0.0), (Mesh1D(16), InitialData1D.zero())])
    def test_zero_data_solves_no_row(self, monkeypatch, domain, u0):
        p = Problem(sym=FractionalSymbol(1.0, 0.5), domain=domain, u0=u0)
        quad = node_quadrature(p, 20)
        rows = counted_solves(monkeypatch)
        selected = solve_nodes(p, quad, 0.6)
        assert sum(rows) == 0 and len(selected) == 0
        assert not np.any(evaluate(quad, selected, 0.6))

    @pytest.mark.parametrize("t", [math.nan, -1.0, 0.0, 1e6, [0.5, math.nan]])
    def test_bad_times_raise_before_any_row_is_solved(self, monkeypatch, t):
        p = build_problem("ex3_1d_case1", 0.5, 16).problem
        quad = node_quadrature(p, 60)
        rows = counted_solves(monkeypatch)
        with pytest.raises(CIMError):
            solve_nodes(p, quad, t)
        assert rows == []

    def test_skipped_rows_are_certified_at_every_time(self):
        # the certificate at the earliest time holds at every later time: each skipped
        # row's bound stays below the rounding unit of the solved row of largest weight
        p = build_problem("ex4_2d_case3", 0.5, 8).problem
        quad = node_quadrature(p, 60)
        times = window_times(ContourConfig())
        selected = solve_nodes(p, quad, times)
        K = len(selected)
        bounds = _solution_bounds(p, *_node_data(p, quad.nodes))
        j = int(np.argmax(np.abs(np.exp(quad.nodes * times[0]) * quad.derivs)))
        for t in times:
            w = np.abs(np.exp(quad.nodes * t) * quad.derivs)
            assert np.sum(w[K:] * bounds[K:]) <= UNIT_ROUNDOFF * w[j] * np.max(np.abs(selected[j]))
