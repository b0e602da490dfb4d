"""Complex linear solver tests against dense LAPACK oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from cimfem.linalg import ComplexTridiag, LinAlgError, sparse_solve, thomas_solve


def random_tridiag(n, rng, boost=4.0):
    lower = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    upper = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    diag += boost * (np.abs(np.concatenate(([0], lower))) + np.abs(np.concatenate((upper, [0]))))
    return ComplexTridiag(lower=lower, diag=diag, upper=upper)


def dense(t):
    n = len(t.diag)
    a = np.diag(t.diag.astype(complex))
    a += np.diag(t.lower, -1) + np.diag(t.upper, 1)
    return a


class TestThomas:
    @given(n=st.integers(min_value=2, max_value=200), seed=st.integers(0, 1000))
    def test_matches_dense_solve(self, n, seed):
        rng = np.random.default_rng(seed)
        t = random_tridiag(n, rng)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = thomas_solve(t, rhs)
        x_ref = np.linalg.solve(dense(t), rhs)
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * (1.0 + np.max(np.abs(x_ref)))

    def test_matvec(self):
        rng = np.random.default_rng(0)
        t = random_tridiag(6, rng)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.allclose(t.matvec(x), dense(t) @ x)

    def test_zero_pivot_falls_back(self):
        # leading zero diagonal defeats elimination without pivoting, but
        # the matrix is perfectly conditioned; the pivoted solve handles it
        t = ComplexTridiag(
            lower=np.array([1.0 + 0j, 1.0]), diag=np.array([0.0 + 0j, 0.0, 1.0]), upper=np.array([1.0 + 0j, 0.0])
        )
        rhs = np.array([1.0, 2.0, 3.0], dtype=complex)
        x = thomas_solve(t, rhs)
        assert np.allclose(dense(t) @ x, rhs, atol=1e-12)

    def test_singular_raises(self):
        t = ComplexTridiag(
            lower=np.zeros(2, dtype=complex),
            diag=np.zeros(3, dtype=complex),
            upper=np.zeros(2, dtype=complex),
        )
        with pytest.raises(LinAlgError):
            thomas_solve(t, np.ones(3, dtype=complex))

    def test_shape_mismatch(self):
        with pytest.raises((LinAlgError, ValueError)):
            ComplexTridiag(
                lower=np.zeros(3, dtype=complex),
                diag=np.zeros(3, dtype=complex),
                upper=np.zeros(2, dtype=complex),
            )


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
        with pytest.raises((LinAlgError, RuntimeError)):
            sparse_solve(a, np.ones(3, dtype=complex))
