"""Complex linear solver tests against dense LAPACK oracles."""

from math import isqrt

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from cimfem import linalg
from cimfem.bench import build_problem
from cimfem.cim import _node_solve, discretize, modal_load, problem_parameters
from cimfem.contour import quadrature_nodes
from cimfem.fem import Mesh1D, Mesh2D, assemble, stencil_1d, stencil_2d
from cimfem.linalg import (
    LinAlgError,
    _d_hat,
    _kron_apply,
    _sine_matrix,
    _stencil_norm_2d,
    dst1,
    dst2,
    modal_parts,
    modal_solve,
    modal_solve_2d,
    sparse_solve,
    thomas_solve,
    toeplitz_eigenvalues,
)


def random_tridiag(n, rng, boost=4.0):
    """(lower, diag, upper) of a random diagonally dominant complex tridiagonal matrix."""
    lower = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    upper = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    diag += boost * (np.abs(np.concatenate(([0], lower))) + np.abs(np.concatenate((upper, [0]))))
    return lower, diag, upper


def dense(lower, diag, upper, n):
    """The n x n tridiagonal matrix; a scalar diagonal fills its whole diagonal."""
    return (
        np.diag(np.broadcast_to(diag, n).astype(complex))
        + np.diag(np.broadcast_to(lower, n - 1), -1)
        + np.diag(np.broadcast_to(upper, n - 1), 1)
    )


def p1_matrices_1d(M):
    """Dense P1 mass and stiffness on M intervals of (0, 1), from the closed-form element integrals."""
    h, n = 1.0 / M, M - 1
    t = np.eye(n, k=1) + np.eye(n, k=-1)
    return h / 6.0 * (4.0 * np.eye(n) + t), (2.0 * np.eye(n) - t) / h


class TestThomas:
    @given(n=st.integers(min_value=2, max_value=200), seed=st.integers(0, 1000))
    def test_matches_dense_solve(self, n, seed):
        rng = np.random.default_rng(seed)
        t = random_tridiag(n, rng)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = thomas_solve(*t, rhs)
        x_ref = np.linalg.solve(dense(*t, n), rhs)
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * (1.0 + np.max(np.abs(x_ref)))

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_toeplitz_scalars_match_dense_solve(self, n):
        # the 1-D fallback passes each row's shifted Toeplitz weights as scalars
        rng = np.random.default_rng(n)
        off, diag = -1.0 + 0.3j, 2.5 - 4.0j
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = thomas_solve(off, diag, off, rhs)
        x_ref = np.linalg.solve(dense(off, diag, off, n), rhs)
        assert np.max(np.abs(x - x_ref)) <= 1e-13 * np.max(np.abs(x_ref))

    def test_zero_pivot_falls_back(self):
        # leading zero diagonal defeats elimination without pivoting, but
        # the matrix is perfectly conditioned; the pivoted solve handles it
        t = np.array([1.0 + 0j, 1.0]), np.array([0.0 + 0j, 0.0, 1.0]), np.array([1.0 + 0j, 0.0])
        rhs = np.array([1.0, 2.0, 3.0], dtype=complex)
        x = thomas_solve(*t, rhs)
        assert np.allclose(dense(*t, 3) @ x, rhs, atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(LinAlgError):
            thomas_solve(np.zeros(2, dtype=complex), np.zeros(3, dtype=complex), np.zeros(2, dtype=complex), np.ones(3))
        with pytest.raises(LinAlgError):
            thomas_solve(0.0, 0.0, 0.0, np.ones(3))

    def test_shape_mismatch(self):
        with pytest.raises(LinAlgError):
            thomas_solve(np.zeros(3, dtype=complex), np.zeros(3, dtype=complex), np.zeros(2, dtype=complex), np.ones(3))
        with pytest.raises(LinAlgError):
            thomas_solve(1.0, np.ones(4), 1.0, np.ones(3))


def modal(loads):
    """The (coefficients, ``dst1`` of the vector) pairs of ``loads`` that ``modal_solve`` takes."""
    return [(c, dst1(b)) for c, b in loads]


def modal_2d(loads):
    """The (coefficients, (n, n) ``dst2`` of the vector) pairs of ``loads`` that ``modal_solve_2d`` takes."""
    return [(c, dst2(b.reshape(isqrt(len(b)), -1))) for c, b in loads]


class TestModal:
    @pytest.mark.parametrize("n", [1, 6, 63])
    def test_dst1_matches_sine_matrix(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        j = np.arange(1, n + 1)
        sines = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))
        assert np.max(np.abs(dst1(x) - x @ sines)) <= 1e-14 * np.max(np.abs(x)) * n
        assert np.max(np.abs(dst1(dst1(x)) - x)) <= 1e-14 * np.max(np.abs(x)) * n

    @pytest.mark.parametrize("M", [2, 7, 64])
    def test_eigenvalues_match_generalized_eigh(self, M):
        # eigh(S, M) returns M-orthonormal eigenvectors V_j = q_j / sqrt(m_j) for the
        # orthonormal DST-I vectors q_j, so m_j = 1 / |V_j|^2 and s_j = lambda_j m_j
        mass, stiff = p1_matrices_1d(M)
        lam, v = scipy.linalg.eigh(stiff, mass)
        m, s = (toeplitz_eigenvalues(diag, off, M - 1) for diag, off in stencil_1d(Mesh1D(M)))
        m_ref = 1.0 / np.sum(v**2, axis=0)
        np.testing.assert_allclose(m, m_ref, rtol=1e-12)
        np.testing.assert_allclose(s, lam * m_ref, rtol=1e-12)

    def test_rows_match_dense_and_pass_the_test(self):
        rng = np.random.default_rng(3)
        n, rows = 20, 9
        eta = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        loads = [(rng.standard_normal(rows) + 1j * rng.standard_normal(rows), rng.standard_normal(n)) for _ in range(2)]
        x, ok = modal_solve(eta, ((4.0, 1.0), (2.0, -1.0)), loads, modal(loads))
        assert ok.all()
        tri = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        for k in range(rows):
            a = eta[k] * (4.0 * np.eye(n) + tri) + 2.0 * np.eye(n) - tri
            rhs = sum(c[k] * b for c, b in loads)
            assert np.max(np.abs(x[k] - np.linalg.solve(a, rhs))) <= 1e-12 * np.max(np.abs(x[k]))

    def test_zero_rows_are_zero(self):
        loads = [(np.zeros(2), np.ones(5))]
        x, ok = modal_solve(np.array([1.0 + 1j, 2.0]), ((4.0, 1.0), (2.0, -1.0)), loads, modal(loads))
        assert ok.all() and not x.any()

    def test_singular_row_is_flagged(self):
        # eta = -s_1 / m_1 makes the first mode's divisor vanish
        m, s = toeplitz_eigenvalues(4.0, 1.0, 5), toeplitz_eigenvalues(2.0, -1.0, 5)
        eta = np.array([1.0, -s[0] / m[0], 2.0 + 0j])
        with np.errstate(divide="ignore", invalid="ignore"):
            loads = [(np.ones(3), np.ones(5))]
            _, ok = modal_solve(eta, ((4.0, 1.0), (2.0, -1.0)), loads, modal(loads))
        assert list(ok) == [True, False, True]


def sine_matrix(n):
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))


def slices(n, complex_, contiguous, rng):
    """Three random (n, n) slices, real or complex, C-contiguous or a strided view."""
    x = rng.standard_normal((3, 2 * n, 2 * n))
    if complex_:
        x = x + 1j * rng.standard_normal((3, 2 * n, 2 * n))
    x = x[:, ::2, 1::2]
    return np.ascontiguousarray(x) if contiguous else x


class TestKronKernel:
    """``dst2`` and the Kronecker term, both ``_kron_apply``, against dense products formed here."""

    @pytest.mark.parametrize("n", [1, 2, 7, 31])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("contiguous", [True, False])
    def test_dst2_matches_sine_matrix(self, n, complex_, contiguous):
        x = slices(n, complex_, contiguous, np.random.default_rng(n))
        before = x.copy()
        q = sine_matrix(n)
        y = dst2(x)
        tol = 1e-14 * n * np.max(np.abs(x))
        assert y.shape == x.shape and np.iscomplexobj(y) == complex_
        assert np.max(np.abs(y - q @ x @ q)) <= tol
        assert np.max(np.abs(dst2(y) - x)) <= tol
        assert np.array_equal(x, before)
        assert np.max(np.abs(dst2(x[1]) - y[1])) <= tol  # a single slice

    @pytest.mark.parametrize("n", [1, 2, 7, 31])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_general_matrix_and_input_unchanged(self, n, complex_):
        # the Kronecker terms take D_hat, which is not symmetric, and two different factors
        rng = np.random.default_rng(n + 100)
        a, b = rng.standard_normal((2, n, n))
        x = slices(n, complex_, False, rng)
        before = x.copy()
        y = _kron_apply(a, x, b)
        tol = 1e-14 * n * np.max(np.abs(a)) * np.max(np.abs(b)) * np.max(np.abs(x))
        assert np.max(np.abs(y - a @ x @ b.T)) <= tol
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 31])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_parity_half_factors(self, n, complex_):
        # L(X) = D_vo X D_hat^T and L^T(Y) = D_vo^T Y D_hat on half-size slices, with
        # transposed views as factors; at n = 1 the odd-index half is empty
        d_hat = _d_hat(n)
        d_vo = np.ascontiguousarray(d_hat[1::2, ::2])
        x = slices(n, complex_, True, np.random.default_rng(n + 200))
        x_o, y_v = x[:, ::2], x[:, 1::2]
        tol = 1e-14 * n * np.max(np.abs(x))
        lx = _kron_apply(d_vo, x_o, d_hat)
        assert lx.shape == y_v.shape and np.iscomplexobj(lx) == complex_
        assert np.max(np.abs(lx - d_vo @ x_o @ d_hat.T), initial=0.0) <= tol
        lty = _kron_apply(d_vo.T, y_v, d_hat.T)
        assert lty.shape == x_o.shape
        assert np.max(np.abs(lty - d_vo.T @ y_v @ d_hat)) <= tol

    def test_factors_are_read_only(self):
        for f in (_sine_matrix(7), _d_hat(7)):
            with pytest.raises(ValueError):
                f[0, 0] = 1.0

    def test_d_hat_premise_of_the_parity_elimination(self):
        # the cached D_hat is skew and its entries with i + l even are round-off (at
        # most 4.7e-16 for n <= 64), so the odd-index half can be eliminated exactly
        for n in range(1, 65):
            d_hat = _d_hat(n)
            j = np.arange(n)
            assert np.max(np.abs(d_hat + d_hat.T)) <= 1e-14 * n
            assert np.max(np.abs(d_hat[(j[:, None] + j) % 2 == 0]), initial=0.0) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 7, 31])
    def test_d_hat_is_skew_with_a_parity_pattern(self, n):
        # Q (E - E^T) Q couples only modes j, l of opposite parity
        d_hat = dst2(np.eye(n, k=1) - np.eye(n, k=-1))
        j = np.arange(n)
        assert np.max(np.abs(d_hat + d_hat.T)) <= 1e-14 * n
        assert np.max(np.abs(d_hat[(j[:, None] + j) % 2 == 0]), initial=0.0) <= 1e-14 * n
        q = sine_matrix(n)
        assert np.max(np.abs(d_hat - q @ (np.eye(n, k=1) - np.eye(n, k=-1)) @ q)) <= 1e-14 * n


class TestModal2D:
    @pytest.mark.parametrize("M", [4, 7, 16])
    def test_splitting_identity(self, M):
        # Q (eta M + S) u Q = (eta m + s) u_hat + (eta g_M + g_S) D_hat u_hat D_hat^T on the
        # assembled matrices, with the modal parts derived from the stencils, and the sine
        # matrix Q and D_hat = Q (E - E^T) Q formed densely here
        n = M - 1
        rng = np.random.default_rng(M)
        ops = assemble(Mesh2D(M))
        m, s, g_m, g_s, *_ = modal_parts(stencil_2d(Mesh2D(M)), n)
        q = sine_matrix(n)
        d_hat = q @ (np.eye(n, k=1) - np.eye(n, k=-1)) @ q
        eta = 3.0 - 40.0j
        u = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        u_hat = q @ u.reshape(n, n) @ q
        lhs = dst2(((eta * ops.mass + ops.stiffness) @ u).reshape(n, n))
        rhs = (eta * m + s) * u_hat + (eta * g_m + g_s) * d_hat @ u_hat @ d_hat.T
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))
        assert np.max(np.abs(dst2(u.reshape(n, n)) - u_hat)) <= 1e-14 * n * np.max(np.abs(u_hat))

    def test_rows_match_dense_across_blocks(self):
        # rows enough for two full blocks and a partial third of 15**2-entry rows
        M = 16
        per_block = linalg.MODAL_BLOCK_2D // 15**2
        rows = 2 * per_block + per_block // 3
        rng = np.random.default_rng(5)
        mesh = Mesh2D(M)
        ops = assemble(mesh)
        eta = np.abs(rng.standard_normal(rows)) * 1e3 * np.exp(1j * rng.uniform(-2.5, 2.5, rows))
        loads = [(rng.standard_normal(rows) + 1j * rng.standard_normal(rows), rng.standard_normal(mesh.ndof)) for _ in range(2)]
        x, ok = modal_solve_2d(eta, stencil_2d(mesh), loads, modal_2d(loads))
        assert ok.all()
        mass, stiff = ops.mass.toarray(), ops.stiffness.toarray()
        for k in range(rows):
            ref = np.linalg.solve(eta[k] * mass + stiff, sum(c[k] * b for c, b in loads))
            assert np.max(np.abs(x[k] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_real_coefficients(self):
        # real loads and coefficients give real modal right-hand sides; COCG still runs complex
        mesh = Mesh2D(6)
        eta = np.array([2.0 - 30.0j, 5.0 + 1.0j])
        b = np.random.default_rng(6).standard_normal(mesh.ndof)
        loads = [(np.array([1.0, -2.0]), b)]
        x, ok = modal_solve_2d(eta, stencil_2d(mesh), loads, modal_2d(loads))
        assert ok.all()
        ops = assemble(mesh)
        for k, c in enumerate((1.0, -2.0)):
            ref = np.linalg.solve((eta[k] * ops.mass + ops.stiffness).toarray(), c * b)
            assert np.max(np.abs(x[k] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_rows_are_zero(self):
        mesh = Mesh2D(5)
        loads = [(np.zeros(2), np.ones(16))]
        x, ok = modal_solve_2d(np.array([1.0 + 1j, 2.0]), stencil_2d(mesh), loads, modal_2d(loads))
        assert ok.all() and not x.any()

    @pytest.mark.parametrize("example", ["ex4_2d_case1", "ex4_2d_case3"])
    @pytest.mark.parametrize("M", [2, 3])
    def test_tiny_meshes_match_the_sparse_solve(self, example, M):
        # n = 1 leaves the eliminated half empty and n = 2 one row in each half;
        # every row of the N = 60 contour passes and matches _node_solve
        eta, stencil, loads, modal_loads = contour_systems(example, 0.5, M)
        x, ok = modal_solve_2d(eta, stencil, loads, modal_loads)
        assert ok.all()
        ops = assemble(Mesh2D(M))
        for k in range(len(eta)):
            ref = _node_solve(ops, eta[k], linalg.combine(loads, k))
            assert np.max(np.abs(x[k] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("example", ["ex4_2d_case1", "ex4_2d_case3"])
    @pytest.mark.parametrize("M", [8, 16, 32])
    def test_blocking_cannot_change_a_row(self, example, M, monkeypatch):
        # the N = 60 contour's rows in one block each and all in one block
        # against the default blocks: the same mask, rows within 1e-12
        args = contour_systems(example, 0.5, M)
        x, ok = modal_solve_2d(*args)
        n = M - 1
        for block in (n * n, len(x) * n * n):
            monkeypatch.setattr(linalg, "MODAL_BLOCK_2D", block)
            x_block, ok_block = modal_solve_2d(*args)
            assert np.array_equal(ok_block, ok)
            scale = np.max(np.abs(x), axis=1)
            assert np.all(np.max(np.abs(x_block - x), axis=1) <= 1e-12 * scale)

    @pytest.mark.parametrize("M", [2, 3, 4, 5, 9, 16])
    def test_closed_form_norm_matches_column_sums(self, M):
        # eta at every node of the N = 60 contour of ex4_2d_case3, against the
        # column sums that sparse_solve takes of the assembled eta M + S
        p = build_problem("ex4_2d_case3", 0.5, M).problem
        mesh, eta = p.domain, p.sym.eta(quadrature_nodes(problem_parameters(p, 60)).nodes)
        ops = assemble(mesh)
        mass, stiff = stencil_2d(mesh)
        norm = _stencil_norm_2d([eta * m + s for m, s in zip(mass, stiff)], M - 1)
        for e, got in zip(eta, norm):
            a = (e * ops.mass + ops.stiffness).tocsc()
            want = np.max(np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[0]))
            assert got == pytest.approx(want, rel=1e-14)


class TestModalParts:
    """The one modal record of a stencil pair, which the solves and the node-selection bounds read."""

    @pytest.mark.parametrize("M", [2, 7, 64])
    def test_1d_record_is_the_toeplitz_eigenvalues(self, M):
        stencil = stencil_1d(Mesh1D(M))
        parts = modal_parts(stencil, M - 1)
        for got, (diag, off) in zip((parts.m, parts.s), stencil):
            assert got.tobytes() == toeplitz_eigenvalues(diag, off, M - 1).tobytes()
        assert parts.g_m == parts.g_s == 0.0

    @pytest.mark.parametrize("M", [4, 8, 16])
    def test_2d_record_splits_the_assembled_matrices(self, M):
        # kron(Q, Q) A kron(Q, Q) - diag(part) has norm at most 4 |g| for the mass and the
        # stiffness matrix, with the sine matrix Q formed densely here; the stiffness g is 0
        n = M - 1
        ops = assemble(Mesh2D(M))
        parts = modal_parts(stencil_2d(Mesh2D(M)), n)
        q = np.kron(sine_matrix(n), sine_matrix(n))
        for a, part, g in ((ops.mass, parts.m, parts.g_m), (ops.stiffness, parts.s, parts.g_s)):
            rest = q @ a.toarray() @ q - np.diag(part.ravel())
            assert np.linalg.norm(rest, 2) <= 4.0 * abs(g) + 1e-13 * np.max(np.abs(part))

    @pytest.mark.parametrize("mesh, stencil", [(Mesh1D(8), stencil_1d), (Mesh2D(8), stencil_2d)])
    def test_record_is_cached_and_read_only(self, mesh, stencil):
        parts = modal_parts(stencil(mesh), 7)
        assert modal_parts(stencil(type(mesh)(8)), 7) is parts
        for part in (parts.m, parts.s):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 1.0
        with pytest.raises(AttributeError):
            parts.m_min = 0.0


def contour_systems(example, beta, M, N=60):
    """(eta, stencil, loads, modal_loads) of ``modal_solve_2d`` on the N-point contour of a 2-D example."""
    p = build_problem(example, beta, M).problem
    z = quadrature_nodes(problem_parameters(p, N)).nodes
    b = discretize(p)
    terms = [(p.sym.history_weight(z), p.u0), *((mult, g) for g, mult in p.source.evaluate(z).items())]
    loads = [(c, b[g]) for c, g in terms]
    return p.sym.eta(z), stencil_2d(p.domain), loads, [(c, modal_load(p.domain, g)) for c, g in terms]


def d_hat_dense(n):
    """``D_hat = Q (E - E^T) Q`` with the sine matrix ``Q``, formed densely here."""
    q = sine_matrix(n)
    return q @ (np.eye(n, k=1) - np.eye(n, k=-1)) @ q


def row_parts(eta, stencil, n):
    """``d``, ``c`` and ``norm_a`` of ``modal_solve_2d``'s rows ``eta`` on the n x n grid."""
    m, s, g_m, g_s, *_ = modal_parts(stencil, n)
    weights = [eta[:, None, None] * w_m + w_s for w_m, w_s in zip(*stencil)]
    return eta[:, None, None] * m + s, eta * g_m + g_s, _stencil_norm_2d(weights, n)[:, 0, 0]


class TestPreconditioner:
    """COCG on the Schur complement of one parity half, ``d_o X_o - c_k^2 L^T(L(X_o) / d_v)``, Jacobi-preconditioned by ``d_o``."""

    def test_is_complex_symmetric_and_matches_dense(self):
        # a mass-dominated row, and the contour row of least |eta|, nearest the vertex
        M = 12
        n = M - 1
        eta_near = contour_systems("ex4_2d_case1", 0.5, M)[0]
        eta = np.array([3e3 * np.exp(2.2j), eta_near[np.argmin(np.abs(eta_near))]])
        d, c, norm_a = row_parts(eta, stencil_2d(Mesh2D(M)), n)
        d_dense = d_hat_dense(n)
        d_o, d_v = d[:, ::2], d[:, 1::2]
        g = (c**2)[:, None, None] / d_v
        d_vo = np.ascontiguousarray(_d_hat(n)[1::2, ::2])
        rng = np.random.default_rng(12)
        x, y = (rng.standard_normal((2, n - n // 2, n)) + 1j * rng.standard_normal((2, n - n // 2, n)) for _ in range(2))
        sx, sy = (linalg._schur_apply(v, d_o, g, d_vo, _d_hat(n)) for v in (x, y))
        # L = kron(D_vo, D_hat) and L^T = kron(D_vo^T, D_hat^T) on row-major slices, formed densely here
        l_dense = np.kron(d_dense[1::2, ::2], d_dense)
        b = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        x_full, ok = linalg._cocg(d, c, _d_hat(n), b, norm_a)
        assert ok.all()
        for k in range(2):
            yx, xy = np.sum(y[k] * sx[k]), np.sum(x[k] * sy[k])
            assert abs(yx - xy) <= 1e-13 * abs(yx)
            schur = np.diag(d_o[k].ravel()) - l_dense.T @ np.diag(g[k].ravel()) @ l_dense
            want = schur @ x[k].ravel()
            assert np.max(np.abs(sx[k].ravel() - want)) <= 1e-13 * np.max(np.abs(want))
            # the row solved through the Schur system against a dense solve of the full modal row
            full = np.diag(d[k].ravel()) + c[k] * np.kron(d_dense, d_dense)
            want = np.linalg.solve(full, b[k].ravel())
            assert np.max(np.abs(x_full[k].ravel() - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("example", ["ex4_2d_case1", "ex4_2d_case2", "ex4_2d_case3"])
    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_neumann_series_converges(self, example, beta, M):
        # the Jacobi-preconditioned Schur operator is I - E_ov E_vo, and
        # ||E_ov E_vo|| <= ||E_ov|| ||E_vo|| <= |c_k|^2 ||D_vo|| ||D||^3 / (min |d_o| min |d_v|)
        # <= ||E_k||^2, with ||E_k|| <= |c_k| ||D||^2 / min |d_k| < 1 and ||D|| = 2 cos(pi / (n + 1))
        n = M - 1
        eta, stencil, *_ = contour_systems(example, beta, M)
        m, s, g_m, g_s, *_ = modal_parts(stencil, n)
        d, c = eta[:, None, None] * m + s, np.abs(eta * g_m + g_s)
        norm_d = 2.0 * np.cos(np.pi / (n + 1))
        min_o, min_v = (np.min(np.abs(h), axis=(1, 2)) for h in (d[:, ::2], d[:, 1::2]))
        bound = c * norm_d**2 / np.minimum(min_o, min_v)
        d_vo = _d_hat(n)[1::2, ::2]
        half = c**2 * np.linalg.norm(d_vo, 2) * norm_d**3 / (min_o * min_v)
        assert np.all(half <= bound**2 * (1.0 + 1e-12)) and np.max(bound) < 1.0
        if M <= 8:
            # the product's 2-norm itself, with E_vo = c_k kron(D_vo, D) / d_v and E_ov = c_k kron(D_vo^T, D^T) / d_o
            l_dense = np.kron(d_vo, _d_hat(n))
            for k in range(len(eta)):
                e_vo = (eta[k] * g_m + g_s) * l_dense / d[k, 1::2].ravel()[:, None]
                e_ov = (eta[k] * g_m + g_s) * l_dense.T / d[k, ::2].ravel()[:, None]
                assert np.linalg.norm(e_ov @ e_vo, 2) <= half[k] * (1.0 + 1e-12)

    @pytest.mark.parametrize("example", ["ex4_2d_case1", "ex4_2d_case3"])
    def test_iterations_per_block(self, example, monkeypatch):
        # one Schur-operator product per COCG iteration, none outside the loop
        runs = []
        cocg, schur_apply = linalg._cocg, linalg._schur_apply

        def counted_cocg(*args):
            runs.append(0)
            return cocg(*args)

        def counted_schur_apply(*args):
            runs[-1] += 1
            return schur_apply(*args)

        monkeypatch.setattr(linalg, "_cocg", counted_cocg)
        monkeypatch.setattr(linalg, "_schur_apply", counted_schur_apply)

        def iterations(M):
            runs.clear()
            _, ok = modal_solve_2d(*contour_systems(example, 0.5, M))
            assert ok.all()
            return list(runs)

        assert max(iterations(8)) <= 10
        assert sum(iterations(32)) <= 30

    @pytest.mark.parametrize("example", ["ex4_2d_case1", "ex4_2d_case3"])
    @pytest.mark.parametrize("M", [3, 8, 16])
    def test_both_halves_of_the_full_residual_meet_the_stop_bound(self, example, M):
        # with X_v back-substituted, the Schur residual is the full row's residual:
        # its X_o half is what COCG stopped on and its X_v half is round-off
        n = M - 1
        eta, stencil, _, modal_loads = contour_systems(example, 0.5, M)
        d, c, norm_a = row_parts(eta, stencil, n)
        b = linalg.combine(modal_loads)
        x, ok = linalg._cocg(d, c, _d_hat(n), b, norm_a)
        assert ok.all()
        d_dense = d_hat_dense(n)
        res = b - d * x - c[:, None, None] * (d_dense @ x @ d_dense.T)
        bound = linalg.SPARSE_RESIDUAL_TOL / n * (np.linalg.norm(b, axis=(1, 2)) + norm_a * np.linalg.norm(x[:, ::2], axis=(1, 2)))
        for half in (res[:, ::2], res[:, 1::2]):
            assert np.all(np.linalg.norm(half, axis=(1, 2)) <= bound)


class TestSparse:
    def test_matches_dense(self):
        rng = np.random.default_rng(42)
        n = 50
        a = sp.random(n, n, density=0.1, random_state=42, dtype=float).tocsr()
        a = a + a.T + sp.eye(n) * (5.0 + 2.0j)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = sparse_solve(a.tocsc(), rhs)
        x_ref = np.linalg.solve(a.toarray(), rhs)
        assert np.max(np.abs(x - x_ref)) <= 1e-10 * (1.0 + np.max(np.abs(x_ref)))

    def test_residual_bound(self):
        rng = np.random.default_rng(1)
        n = 80
        a = sp.diags(
            [np.full(n - 1, -1.0), np.full(n, 4.0 + 1.0j), np.full(n - 1, -1.0)], [-1, 0, 1]
        ).tocsc()
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = sparse_solve(a, rhs)
        res = np.max(np.abs(a @ x - rhs))
        assert res <= 1e-13 * (np.max(np.abs(rhs)) + np.max(np.abs(a.toarray())) * np.max(np.abs(x)) + 1.0)

    def test_singular_raises(self):
        a = sp.csc_matrix((3, 3), dtype=complex)
        with pytest.raises(LinAlgError, match="sparse LU failed: Factor is exactly singular"):
            sparse_solve(a, np.ones(3, dtype=complex))

    def test_singular_factor_is_a_linalg_error(self):
        # SuperLU reports an exactly singular factor as a RuntimeError of its own
        a = sp.diags([1.0, 0.0]).tocsc()
        with pytest.raises(LinAlgError, match="sparse LU failed: Factor is exactly singular"):
            sparse_solve(a, np.ones(2, dtype=complex))
