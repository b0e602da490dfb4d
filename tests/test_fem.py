"""P1 finite element assembly, load, error, and prolongation tests.

1-D stencils are compared with the classical closed forms and with an
element loop written in the test; 2-D assembly is cross-checked against
an independent per-triangle reassembly written directly in the test.  Load vectors with jump
discontinuities use values frozen from 30-digit adaptive quadrature.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from cimfem.bench import build_problem
from cimfem.fem import (
    FEMError,
    InitialData1D,
    InitialData2D,
    Mesh1D,
    Mesh2D,
    Piece1D,
    _clip_halfplane,
    _load_1d,
    _load_2d,
    _midedge_integrate,
    apply_stencil_1d,
    apply_stencil_2d,
    assemble,
    l2_error,
    load_vector,
    mass_norm,
    prolong_1d,
    prolong_2d,
    stencil_1d,
    stencil_2d,
)


def node_index(mesh, i, j):
    """Interior index of the 2-D grid node (i h, j h), -1 on the boundary; i, j may be arrays."""
    interior = (0 < i) & (i < mesh.M) & (0 < j) & (j < mesh.M)
    return np.where(interior, (j - 1) * (mesh.M - 1) + (i - 1), -1)


def p1_matrices_1d(M):
    """Dense P1 mass and stiffness on M intervals of (0, 1), summed element by element."""
    h, n = 1.0 / M, M - 1
    me = h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    ke = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    mass, stiff = np.zeros((M + 1, M + 1)), np.zeros((M + 1, M + 1))
    for e in range(M):
        mass[e : e + 2, e : e + 2] += me
        stiff[e : e + 2, e : e + 2] += ke
    return mass[1:M, 1:M], stiff[1:M, 1:M]


def triangle_dofs(mesh):
    """Interior index (or -1) of each vertex of ``mesh.triangles()``, shape (n_triangles, 3)."""
    i, j = np.moveaxis(np.rint(mesh.triangles() / mesh.h).astype(int), -1, 0)
    return node_index(mesh, i, j)


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

    def test_overlapping_pieces_rejected(self):
        # the 2-D load vector would sum them, every other reader take the later one
        with pytest.raises(FEMError, match=r"pieces \(0.0, 0.5\] and \(0.25, 0.75\] overlap"):
            InitialData1D((Piece1D(0.0, 0.5, (1.0,)), Piece1D(0.25, 0.75, (1.0,))))
        with pytest.raises(FEMError, match=r"pieces \(0.5, 0.6\] and \(0.0, 1.0\] overlap"):
            InitialData1D((Piece1D(0.5, 0.6, (1.0,)), Piece1D(0.0, 1.0, (1.0,))))

    def test_touching_pieces_accepted(self):
        g = InitialData1D((Piece1D(0.0, 0.75, (0.0, 1.0)), Piece1D(0.75, 1.0, (0.0, -1.0))))
        assert np.allclose(g(np.array([0.75, 0.76])), [0.75, -0.76])

    def test_sequences_become_tuples(self):
        # data key the load-vector cache, so a list must not leave them unhashable
        g = InitialData1D([Piece1D(0.0, 1.0, [0.0, 1.0])])
        assert g == InitialData1D.polynomial((0.0, 1.0))
        assert hash(g) == hash(InitialData1D.polynomial((0.0, 1.0)))


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
        h = 1.0 / M
        (m_diag, m_off), (s_diag, s_off) = stencil_1d(Mesh1D(M))
        assert (m_diag, m_off) == pytest.approx((2.0 * h / 3.0, h / 6.0), rel=1e-15)
        assert (s_diag, s_off) == pytest.approx((2.0 / h, -1.0 / h), rel=1e-15)
        mass, stiff = p1_matrices_1d(M)
        t = np.eye(M - 1, k=1) + np.eye(M - 1, k=-1)
        assert np.allclose(mass, m_diag * np.eye(M - 1) + m_off * t, rtol=0.0, atol=1e-15)
        assert np.allclose(stiff, s_diag * np.eye(M - 1) + s_off * t, rtol=1e-15, atol=0.0)

    def test_stiffness_annihilates_linear_interior(self):
        # S acting on nodal values of x gives zero away from the boundary
        M = 16
        x = Mesh1D(M).nodes
        r = apply_stencil_1d(x, *stencil_1d(Mesh1D(M))[1])
        assert np.allclose(r[1:-1], 0.0, atol=1e-13)


class TestAssembly2D:
    def test_against_independent_reassembly(self):
        mesh = Mesh2D(4)
        ops = assemble(mesh)
        tris = mesh.triangles()
        dofs = triangle_dofs(mesh)
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
        c = node_index(mesh, 1, 1)
        assert stiff[c, c] == pytest.approx(4.0)
        assert stiff[c, node_index(mesh, 2, 1)] == pytest.approx(-1.0)
        assert stiff[c, node_index(mesh, 1, 2)] == pytest.approx(-1.0)
        assert stiff[c, node_index(mesh, 2, 2)] == pytest.approx(0.0)


@pytest.mark.parametrize("M", [4, 7, 16])
def test_closed_form_assembly_matches_elementwise(M):
    # the test's own cell loop: grid corners, vertex order, element matrices
    mesh = Mesh2D(M)
    h, n = 1.0 / M, mesh.ndof

    def dof(i, j):
        return (j - 1) * (M - 1) + (i - 1) if 0 < i < M and 0 < j < M else -1

    tris, dofs = [], []
    for j in range(M):
        for i in range(M):
            for corners in (((i, j), (i + 1, j), (i + 1, j + 1)), ((i, j), (i + 1, j + 1), (i, j + 1))):
                tris.append([(a * h, b * h) for a, b in corners])
                dofs.append([dof(a, b) for a, b in corners])
    assert np.allclose(mesh.triangles(), tris, rtol=0.0, atol=1e-15)
    assert np.array_equal(triangle_dofs(mesh), dofs)
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    for v, d in zip(np.array(tris), dofs):
        # gradients of the barycentric coordinates: rows of inv([1 x y])^T
        coef = np.linalg.inv(np.column_stack([np.ones(3), v]))
        grads = coef[1:].T
        area = 0.5 * abs(np.linalg.det(np.column_stack([np.ones(3), v])))
        ke = area * grads @ grads.T
        me = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        for a in range(3):
            for b in range(3):
                if d[a] >= 0 and d[b] >= 0:
                    mass[d[a], d[b]] += me[a, b]
                    stiff[d[a], d[b]] += ke[a, b]
    ops = assemble(mesh)
    assert np.allclose(ops.mass.toarray(), mass, rtol=0.0, atol=1e-15)
    assert np.allclose(ops.stiffness.toarray(), stiff, rtol=0.0, atol=1e-12)
    # one shared pattern, so eta M + S is a sum of data arrays
    assert ops.mass.format == ops.stiffness.format == "csc"
    assert np.array_equal(ops.mass.indices, ops.stiffness.indices)
    assert np.array_equal(ops.mass.indptr, ops.stiffness.indptr)


class TestStencils:
    """Stencil products of M, S and eta M + S against the assembled matrices' matvecs."""

    @staticmethod
    def products(mesh, x, eta):
        """(stencil product, matvec, |A| |x|) of A = M, S and eta M + S with the rows of ``x``."""
        if isinstance(mesh, Mesh1D):
            stencil, apply, grid = stencil_1d(mesh), apply_stencil_1d, x
            mass_matrix, stiff_matrix = p1_matrices_1d(mesh.M)
        else:
            n = mesh.M - 1
            stencil, apply, grid = stencil_2d(mesh), apply_stencil_2d, x.reshape(len(x), n, n)
            ops = assemble(mesh)
            mass_matrix, stiff_matrix = ops.mass, ops.stiffness
        mass, stiff = stencil
        shifted = [eta * m + s for m, s in zip(mass, stiff)]
        pairs = ((mass, mass_matrix), (stiff, stiff_matrix), (shifted, eta * mass_matrix + stiff_matrix))
        for weights, matrix in pairs:
            yield apply(grid, *weights).reshape(x.shape), (matrix @ x.T).T, (abs(matrix) @ abs(x).T).T

    @pytest.mark.parametrize("M", [2, 3, 4, 9, 16])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_products_match_matvecs(self, M, dim):
        mesh = Mesh1D(M) if dim == 1 else Mesh2D(M)
        rng = np.random.default_rng(M)
        x = rng.standard_normal((3, mesh.ndof)) + 1j * rng.standard_normal((3, mesh.ndof))
        for by_stencil, by_matrix, size in self.products(mesh, x, 2.5 - 7.0j):
            # both sum at most 7 products per entry, in different orders
            assert np.all(np.abs(by_stencil - by_matrix) <= 16 * np.finfo(float).eps * size)


def midedge_reference(mesh, rectangles):
    """Load of ``sum over rectangles of f on it`` by clipping every triangle."""
    M = mesh.M
    b_full = np.zeros((M + 1) ** 2)
    for v in mesh.triangles():
        contrib = np.zeros(3)
        for x0, x1, y0, y1, f in rectangles:
            poly = [v[0], v[1], v[2]]
            for axis, level, below in ((0, x0, False), (0, x1, True), (1, y0, False), (1, y1, True)):
                poly = _clip_halfplane(poly, lambda p, axis=axis: p[axis], level, keep_below=below)
            if poly:
                contrib += _midedge_integrate(poly, v, f)
        for a in range(3):
            b_full[round(v[a, 1] * M) * (M + 1) + round(v[a, 0] * M)] += contrib[a]
    return b_full, b_full.reshape(M + 1, M + 1)[1:M, 1:M].ravel()


# breakpoints off the grid in x and in y for every M below, plus a piece
# that is linear in x
OFF_GRID = InitialData2D(
    fx=InitialData1D((Piece1D(0.3, 0.7, (1.0,)), Piece1D(0.7, 0.95, (2.0, -1.5)))),
    fy=InitialData1D.indicator(0.15, 0.55),
    scale=2.5,
)


@pytest.mark.parametrize("M", [5, 8, 13])
def test_off_grid_separable_load_matches_clipping(M):
    mesh = Mesh2D(M)
    rectangles = [
        (px.a, px.b, py.a, py.b,
         lambda x, y, cx=px.coeffs, cy=py.coeffs: OFF_GRID.scale
         * np.polynomial.polynomial.polyval(x, cx) * np.polynomial.polynomial.polyval(y, cy))
        for px in OFF_GRID.fx.pieces
        for py in OFF_GRID.fy.pieces
    ]
    ref_full, ref = midedge_reference(mesh, rectangles)
    assert np.allclose(load_vector(mesh, OFF_GRID), ref, rtol=0.0, atol=1e-15)
    b_full = _load_2d(mesh, OFF_GRID)
    assert np.allclose(b_full, ref_full, rtol=0.0, atol=1e-15)
    total = OFF_GRID.scale * OFF_GRID.fx.integral() * OFF_GRID.fy.integral()
    assert np.sum(b_full) == pytest.approx(total, rel=1e-13)


@pytest.mark.parametrize("M", [8, 13])
def test_callable_load_matches_midedge_rule(M):
    [term] = build_problem("ex4_2d_case3", 0.5, M).problem.source.terms
    fxy = term.datum
    mesh = Mesh2D(M)
    everywhere = [(-np.inf, np.inf, -np.inf, np.inf, fxy)]
    ref_full, ref = midedge_reference(mesh, everywhere)
    assert np.allclose(load_vector(mesh, fxy), ref, rtol=0.0, atol=1e-15)
    assert np.allclose(_load_2d(mesh, fxy), ref_full, rtol=0.0, atol=1e-15)


def test_constant_callable_load_2d():
    # a callable returning a scalar: each interior hat integrates to h^2
    mesh = Mesh2D(4)
    b = _load_2d(mesh, lambda x, y: 2.0)
    assert np.allclose(b.reshape(5, 5)[1:4, 1:4], 2.0 * mesh.h**2, rtol=1e-14)
    assert np.sum(b) == pytest.approx(2.0, rel=1e-14)


def load_1d_per_element(M, g, breaks):
    """Hat-function loads by the 3-point Gauss rule on each element piece between breakpoints."""
    h = 1.0 / M
    xg, wg = np.polynomial.legendre.leggauss(3)
    b = np.zeros(M + 1)
    for e in range(M):
        xl, xr = e * h, (e + 1) * h
        cuts = [xl] + [p for p in breaks if xl < p < xr] + [xr]
        for a, c in zip(cuts[:-1], cuts[1:]):
            xq = (a + c) / 2.0 + (c - a) / 2.0 * xg
            gw = (c - a) / 2.0 * wg * g(xq)
            b[e] += np.sum(gw * (xr - xq)) / h
            b[e + 1] += np.sum(gw * (xq - xl)) / h
    return b


@pytest.mark.parametrize("M", [7, 64, 1000])
def test_load_1d_matches_per_element_loop(M):
    # one piece with ends on grid nodes, one inside a single element, one off the grid
    h = 1.0 / M
    g = InitialData1D(
        (
            Piece1D(1 * h, 3 * h, (1.0, 2.0)),
            Piece1D((M // 2 + 0.25) * h, (M // 2 + 0.65) * h, (4.0,)),
            Piece1D(0.6 + h / 3.0, 0.9, (0.5, 0.0, -3.0)),
        )
    )
    smooth = lambda x: np.sin(3.0 * x) * np.exp(x)
    for data, breaks in ((g, g.breakpoints), (smooth, ())):
        ref = load_1d_per_element(M, data, breaks)
        b = _load_1d(Mesh1D(M), data)
        assert np.max(np.abs(b - ref)) <= 1e-14 * np.max(np.abs(ref))


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
        b = _load_1d(mesh, g)
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
        dofs = triangle_dofs(mesh)
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
        away = node_index(mesh, 2, 4)
        assert b[away] == pytest.approx(h ** 2, rel=1e-12)
        past = node_index(mesh, 7, 4)
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
        assert b[node_index(mesh, i, j)] == pytest.approx(val, abs=5e-5)


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
        c = np.cos(mesh.nodes)
        direct = l2_error(mesh, c, lambda x: np.zeros_like(x))
        assert mass_norm(mesh, c) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("mesh", [Mesh1D(2), Mesh1D(9), Mesh1D(64), Mesh2D(2), Mesh2D(3), Mesh2D(9), Mesh2D(16)])
    def test_mass_norm_matches_assembled_mass(self, mesh):
        rng = np.random.default_rng(mesh.M)
        c = rng.standard_normal(mesh.ndof) + 1j * rng.standard_normal(mesh.ndof)
        mass = p1_matrices_1d(mesh.M)[0] if isinstance(mesh, Mesh1D) else assemble(mesh).mass
        direct = math.sqrt(np.real(np.conj(c) @ (mass @ c)))
        assert mass_norm(mesh, c) == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("mesh", [Mesh1D(2), Mesh1D(9), Mesh2D(2), Mesh2D(9)])
    def test_mass_norm_of_a_block_is_per_row(self, mesh):
        rng = np.random.default_rng(mesh.M + 7)
        block = rng.standard_normal((4, mesh.ndof)) + 1j * rng.standard_normal((4, mesh.ndof))
        norms = mass_norm(mesh, block)
        assert norms.shape == (4,)
        assert list(norms) == [mass_norm(mesh, c) for c in block]


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
        assert mass_norm(Mesh1D(2 * M), prolong_1d(c, M)) == pytest.approx(
            mass_norm(Mesh1D(M), c), rel=1e-12
        )

    def test_prolong_2d_exact_in_mass_norm(self):
        M = 4
        rng = np.random.default_rng(11)
        c = rng.standard_normal((M - 1) ** 2)
        assert mass_norm(Mesh2D(2 * M), prolong_2d(c, M)) == pytest.approx(
            mass_norm(Mesh2D(M), c), rel=1e-12
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
                assert out[node_index(fine, 2 * i, 2 * j)] == pytest.approx(
                    vals[node_index(mesh, i, j)], abs=1e-14
                )

    def test_wrong_size_rejected(self):
        with pytest.raises(FEMError):
            prolong_1d(np.zeros(5), 8)
        with pytest.raises(FEMError):
            prolong_2d(np.zeros(5), 4)
