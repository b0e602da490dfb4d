"""P1 finite element assembly, load, error, and prolongation tests.

1-D matrices are compared entry-by-entry with the classical closed
forms; 2-D assembly is cross-checked against an independent per-triangle
reassembly written directly in the test.  Load vectors with jump
discontinuities use values frozen from 30-digit adaptive quadrature.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from cimfem.fem import (
    FEMError,
    InitialData1D,
    InitialData2D,
    Mesh1D,
    Mesh2D,
    assemble,
    l2_error,
    load_vector,
    mass_norm,
    prolong_1d,
    prolong_2d,
)


class TestInitialData:
    def test_indicator_values(self):
        g = InitialData1D.indicator(0.0, 0.75, scale=2.0)
        x = np.array([0.1, 0.75, 0.76, 1.0])
        assert np.allclose(g(x), [2.0, 2.0, 0.0, 0.0])

    def test_polynomial_values_and_integral(self):
        g = InitialData1D.polynomial((0.0, 1.0, -1.0))  # x - x^2 = x(1-x)
        x = np.array([0.25, 0.5])
        assert np.allclose(g(x), x * (1 - x))
        assert g.integral() == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_breakpoints(self):
        g = InitialData1D.indicator(0.0, 0.75)
        assert g.breakpoints == (0.0, 0.75)

    def test_separable_2d(self):
        g = InitialData2D(
            InitialData1D.polynomial((0.0, 1.0)), InitialData1D.polynomial((0.0, 1.0)), scale=4.0
        )
        assert g(np.array([0.5]), np.array([0.25]))[0] == pytest.approx(0.5)

    def test_empty_piece_rejected(self):
        with pytest.raises(FEMError):
            InitialData1D.indicator(0.5, 0.5)


class TestMeshes:
    def test_mesh1d_basics(self):
        m = Mesh1D(8)
        assert m.h == pytest.approx(0.125)
        assert m.ndof == 7
        assert np.allclose(m.nodes, np.linspace(0.125, 0.875, 7))

    def test_mesh2d_basics(self):
        m = Mesh2D(4)
        assert m.h == pytest.approx(0.25)
        assert m.ndof == 9
        assert m.n_triangles == 32

    def test_mesh2d_triangle_geometry(self):
        m = Mesh2D(4)
        tris = m.triangles()
        # every triangle has area h^2/2 with positive orientation
        for t in range(m.n_triangles):
            v = tris[t]
            area2 = (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - (v[2, 0] - v[0, 0]) * (
                v[1, 1] - v[0, 1]
            )
            assert area2 == pytest.approx(m.h ** 2, rel=1e-12)

    def test_invalid_mesh_rejected(self):
        with pytest.raises(FEMError):
            Mesh1D(1)
        with pytest.raises(FEMError):
            Mesh2D(1)


class TestAssembly1D:
    def test_matrices_closed_form(self):
        M = 8
        ops = assemble(Mesh1D(M))
        h = 1.0 / M
        mass = ops.mass.toarray()
        stiff = ops.stiffness.toarray()
        n = M - 1
        assert np.allclose(np.diag(mass), 2.0 * h / 3.0)
        assert np.allclose(np.diag(mass, 1), h / 6.0)
        assert np.allclose(np.diag(stiff), 2.0 / h)
        assert np.allclose(np.diag(stiff, 1), -1.0 / h)
        assert np.count_nonzero(mass - np.tril(np.triu(mass, -1), 1)) == 0
        assert np.allclose(mass, mass.T) and np.allclose(stiff, stiff.T)
        assert mass.shape == (n, n)

    def test_stiffness_annihilates_linear_interior(self):
        # S acting on nodal values of x gives zero away from the boundary
        M = 16
        ops = assemble(Mesh1D(M))
        x = Mesh1D(M).nodes
        r = ops.stiffness @ x
        assert np.allclose(r[1:-1], 0.0, atol=1e-13)


class TestAssembly2D:
    def test_against_independent_reassembly(self):
        mesh = Mesh2D(4)
        ops = assemble(mesh)
        tris = mesh.triangles()
        dofs = mesh.triangle_dofs()
        n = mesh.ndof
        mass = np.zeros((n, n))
        stiff = np.zeros((n, n))
        for t in range(mesh.n_triangles):
            v = tris[t]
            # P1 element matrices from the gradient of barycentric coords
            e1, e2 = v[1] - v[0], v[2] - v[0]
            area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
            grads = np.zeros((3, 2))
            for i in range(3):
                a, b = v[(i + 1) % 3], v[(i + 2) % 3]
                edge = b - a
                normal = np.array([-edge[1], edge[0]])
                normal /= normal @ (v[i] - a)
                grads[i] = normal
            ke = area * grads @ grads.T
            me = area / 12.0 * (np.ones((3, 3)) + np.eye(3) * 1.0)
            for i in range(3):
                if dofs[t, i] < 0:
                    continue
                for j in range(3):
                    if dofs[t, j] < 0:
                        continue
                    mass[dofs[t, i], dofs[t, j]] += me[i, j]
                    stiff[dofs[t, i], dofs[t, j]] += ke[i, j]
        assert np.allclose(ops.mass.toarray(), mass, atol=1e-14)
        assert np.allclose(ops.stiffness.toarray(), stiff, atol=1e-12)

    def test_five_point_stencil(self):
        # this diagonal split reproduces the classical 5-point Laplacian
        mesh = Mesh2D(4)
        stiff = assemble(mesh).stiffness.toarray()
        c = mesh.node_index(1, 1)
        assert stiff[c, c] == pytest.approx(4.0)
        assert stiff[c, mesh.node_index(2, 1)] == pytest.approx(-1.0)
        assert stiff[c, mesh.node_index(1, 2)] == pytest.approx(-1.0)
        assert stiff[c, mesh.node_index(2, 2)] == pytest.approx(0.0)


class TestLoadVectors:
    def test_indicator_load_1d_frozen(self):
        # chi_(0, 3/4] on M = 8: exact hat integrals
        mesh = Mesh1D(8)
        b = load_vector(mesh, InitialData1D.indicator(0.0, 0.75))
        assert np.allclose(b, [0.125, 0.125, 0.125, 0.125, 0.125, 0.0625, 0.0], atol=1e-15)

    def test_polynomial_load_1d_against_quadrature(self):
        mesh = Mesh1D(8)
        g = InitialData1D.polynomial((0.0, 1.0, -1.0))  # x(1-x)
        b = load_vector(mesh, g)
        h = mesh.h
        for i, xi in enumerate(mesh.nodes):
            hat = lambda x: max(0.0, 1.0 - abs(x - xi) / h)
            ref, _ = quad(lambda x: x * (1 - x) * hat(x), xi - h, xi + h)
            assert b[i] == pytest.approx(ref, abs=1e-12)

    def test_callable_load_1d(self):
        mesh = Mesh1D(16)
        b = load_vector(mesh, lambda x: np.sin(np.pi * x))
        h = mesh.h
        ref, _ = quad(lambda x: math.sin(math.pi * x) * (1.0 - abs(x - 0.5) / h), 0.5 - h, 0.5 + h)
        assert b[7] == pytest.approx(ref, abs=1e-10)

    def test_load_total_mass_1d(self):
        # sum of all hat integrals (boundary included) equals the integral of g
        mesh = Mesh1D(8)
        g = InitialData1D.polynomial((1.0, 2.0))
        b = load_vector(mesh, g, include_boundary=True)
        assert np.sum(b) == pytest.approx(g.integral(), rel=1e-13)

    def test_smooth_load_2d_against_mass_action(self):
        # for a globally linear g the P1 interpolant is exact, so the load
        # equals M_full acting on nodal values; check on interior rows
        mesh = Mesh2D(4)
        g = InitialData2D(
            InitialData1D.polynomial((0.0, 1.0)), InitialData1D.polynomial((1.0,)), scale=1.0
        )  # g(x, y) = x
        b = load_vector(mesh, g)
        ref = np.zeros(mesh.ndof)
        tris = mesh.triangles()
        dofs = mesh.triangle_dofs()
        for t in range(mesh.n_triangles):
            v = tris[t]
            area = mesh.h ** 2 / 2.0
            gv = v[:, 0]  # nodal values of g = x on this triangle
            me = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
            local = me @ gv
            for i in range(3):
                if dofs[t, i] >= 0:
                    ref[dofs[t, i]] += local[i]
        assert np.allclose(b, ref, atol=1e-14)

    def test_indicator_load_2d_jump_alignment(self):
        # chi_{(0, 3/4] x (0, 1)}: for nodes away from the jump the load is
        # the full hat integral h^2; at the jump column it is reduced
        mesh = Mesh2D(8)
        g = InitialData2D(InitialData1D.indicator(0.0, 0.75), InitialData1D.indicator(0.0, 1.0))
        b = load_vector(mesh, g)
        h = mesh.h
        away = mesh.node_index(2, 4)
        assert b[away] == pytest.approx(h ** 2, rel=1e-12)
        past = mesh.node_index(7, 4)
        assert b[past] == pytest.approx(0.0, abs=1e-14)

    def test_indicator_load_2d_against_brute_force(self):
        # brute-force rectangle rule oracle at a node straddling the jump
        mesh = Mesh2D(4)
        g = InitialData2D(InitialData1D.indicator(0.0, 0.7), InitialData1D.indicator(0.0, 1.0))
        b = load_vector(mesh, g)
        h = mesh.h
        i, j = 3, 2
        xi, yj = i * h, j * h
        n = 600
        xs = (np.arange(n) + 0.5) * (2 * h) / n + (xi - h)
        ys = (np.arange(n) + 0.5) * (2 * h) / n + (yj - h)
        X, Y = np.meshgrid(xs, ys)
        # hat function of this triangulation: 1 - max over the three slopes
        hat = np.maximum(
            0.0,
            1.0
            - np.maximum(
                np.maximum(np.abs(X - xi), np.abs(Y - yj)) / h,
                np.abs((X - xi) - (Y - yj)) / h,
            ),
        )
        val = np.sum(hat * (X <= 0.7)) * (2 * h / n) ** 2
        assert b[mesh.node_index(i, j)] == pytest.approx(val, abs=5e-5)


class TestProjectionsAndErrors:
    def test_l2_error_of_zero_is_norm(self):
        mesh = Mesh1D(64)
        err = l2_error(mesh, np.zeros(mesh.ndof), lambda x: np.sin(np.pi * x))
        assert err == pytest.approx(math.sqrt(0.5), rel=1e-10)

    def test_l2_error_2d_of_zero_is_norm(self):
        mesh = Mesh2D(16)
        err = l2_error(
            mesh, np.zeros(mesh.ndof), lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        )
        assert err == pytest.approx(0.5, rel=1e-8)

    def test_interpolation_error_second_order(self):
        errs = []
        for M in (8, 16, 32):
            mesh = Mesh1D(M)
            c = np.sin(np.pi * mesh.nodes)
            errs.append(l2_error(mesh, c, lambda x: np.sin(np.pi * x)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.9 < o < 2.1 for o in orders)

    def test_mass_norm_matches_l2_error(self):
        mesh = Mesh1D(32)
        ops = assemble(mesh)
        c = np.cos(mesh.nodes)
        direct = l2_error(mesh, c, lambda x: np.zeros_like(x))
        assert mass_norm(ops, c) == pytest.approx(direct, rel=1e-12)


class TestProlongation:
    @given(st.integers(min_value=2, max_value=16))
    def test_prolong_1d_nodal_values(self, M):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(M - 1)
        fine = prolong_1d(vals, M)
        # coarse node i sits at fine interior index 2i - 1
        assert np.allclose(fine[1::2], vals, atol=1e-14)
        # midpoints average their neighbours (zero boundary padding)
        full = np.concatenate(([0.0], vals, [0.0]))
        assert np.allclose(fine[0::2], (full[:-1] + full[1:]) / 2.0, atol=1e-14)

    def test_prolong_1d_exact_in_mass_norm(self):
        # prolongation represents the same P1 function: same L2 norm
        M = 8
        rng = np.random.default_rng(7)
        c = rng.standard_normal(M - 1)
        coarse_ops = assemble(Mesh1D(M))
        fine_ops = assemble(Mesh1D(2 * M))
        assert mass_norm(fine_ops, prolong_1d(c, M)) == pytest.approx(
            mass_norm(coarse_ops, c), rel=1e-12
        )

    def test_prolong_2d_exact_in_mass_norm(self):
        M = 4
        rng = np.random.default_rng(11)
        c = rng.standard_normal((M - 1) ** 2)
        coarse_ops = assemble(Mesh2D(M))
        fine_ops = assemble(Mesh2D(2 * M))
        assert mass_norm(fine_ops, prolong_2d(c, M)) == pytest.approx(
            mass_norm(coarse_ops, c), rel=1e-12
        )

    def test_prolong_2d_nodal_values(self):
        M = 4
        mesh = Mesh2D(M)
        fine = Mesh2D(2 * M)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(mesh.ndof)
        out = prolong_2d(vals, M)
        for i in range(1, M):
            for j in range(1, M):
                assert out[fine.node_index(2 * i, 2 * j)] == pytest.approx(
                    vals[mesh.node_index(i, j)], abs=1e-14
                )

    def test_wrong_size_rejected(self):
        with pytest.raises(FEMError):
            prolong_1d(np.zeros(5), 8)
        with pytest.raises(FEMError):
            prolong_2d(np.zeros(5), 4)
