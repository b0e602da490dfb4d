"""Complex linear solvers for the per-node systems.

The contour method needs one solve of ``(eta(z_k) M + S) u = rhs`` per
quadrature node.  In 1-D, ``M`` and ``S`` are symmetric tridiagonal
Toeplitz matrices that the DST-I diagonalizes, so ``modal_solve`` treats
all nodes at once (fast diagonalization): a DST-I of each load vector
that the right-hand sides combine, one elementwise division by
``eta_k m_j + s_j`` and a DST-I back.  It checks the backward error of
every row and reports the rows that fail, for ``thomas_solve`` (pivoted
LAPACK banded LU) to solve again.  In 2-D the matrices are sparse with
5-point-style connectivity and each node is one SuperLU factorization
with pivoting.  Every solve verifies a residual bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu


class LinAlgError(ArithmeticError):
    """Raised when a solve fails or leaves a large residual."""


@dataclass(frozen=True)
class ComplexTridiag:
    """Tridiagonal matrix stored as its three diagonals."""

    lower: np.ndarray  # length n-1
    diag: np.ndarray  # length n
    upper: np.ndarray  # length n-1

    def __post_init__(self) -> None:
        n = len(self.diag)
        if len(self.lower) != n - 1 or len(self.upper) != n - 1:
            raise LinAlgError("inconsistent diagonal lengths")

    @property
    def n(self) -> int:
        return len(self.diag)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.upper * x[1:]
        y[1:] += self.lower * x[:-1]
        return y


# relative backward-error bounds of every tridiagonal solve (modal or
# banded) and of every sparse solve
TRIDIAG_RESIDUAL_TOL = 1e-12
SPARSE_RESIDUAL_TOL = 1e-13


def thomas_solve(t: ComplexTridiag, rhs: np.ndarray) -> np.ndarray:
    """Tridiagonal solve by pivoted LAPACK banded LU, with residual verification.

    Raises if the factorization fails or the relative residual in the
    infinity norm exceeds ``TRIDIAG_RESIDUAL_TOL``.
    """
    n = t.n
    rhs = np.asarray(rhs, dtype=complex)
    if len(rhs) != n:
        raise LinAlgError(f"rhs length {len(rhs)} != {n}")
    rhs_scale = np.max(np.abs(rhs))
    if rhs_scale == 0.0:
        return np.zeros(n, dtype=complex)

    norm_t = np.max(np.abs(t.diag))
    if n > 1:
        norm_t += np.max(np.abs(t.lower)) + np.max(np.abs(t.upper))

    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = t.upper
    ab[1, :] = t.diag
    ab[2, :-1] = t.lower
    try:
        x = solve_banded((1, 1), ab, rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise LinAlgError(f"banded solve failed: {exc}") from exc
    res = np.max(np.abs(t.matvec(x) - rhs))
    if not np.isfinite(res) or res > TRIDIAG_RESIDUAL_TOL * (rhs_scale + norm_t * np.max(np.abs(x))):
        raise LinAlgError(f"tridiagonal solve residual {res:.3e} exceeds tolerance")
    return x


def dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of each row of ``x``; the transform is its own inverse.

    Computed from one complex FFT of the odd extension ``[0, x, 0, -x[::-1]]``
    (``numpy.fft`` keeps ``scipy.fft`` out of the process).
    """
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * n + 2,), dtype=complex)
    ext[..., 1 : n + 1] = x
    ext[..., n + 2 :] = -x[..., ::-1]
    return np.fft.fft(ext, axis=-1)[..., 1 : n + 1] * (0.5j * sqrt(2.0 / (n + 1)))


def combine(loads: Sequence[tuple[np.ndarray, np.ndarray]], rows=slice(None)) -> np.ndarray:
    """Right-hand sides ``sum_m outer(c_m[rows], b_m)`` of (coefficients, vector) pairs."""
    (c, b), *rest = loads
    out = np.multiply.outer(c[rows], b)
    for c, b in rest:
        out += np.multiply.outer(c[rows], b)
    return out


def toeplitz_eigenvalues(diag: float, off: float, n: int) -> np.ndarray:
    """Eigenvalues ``diag + 2 off cos(j pi / (n + 1))``, j = 1..n, of ``tridiag(off, diag, off)``.

    The n x n matrix has the DST-I basis vectors as eigenvectors, in this order.
    """
    return diag + 2.0 * off * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))


# entries per block of rows: whole-array temporaries cost peak memory and,
# at large n, more time than the blocks' extra calls; at n = 255, blocks of
# 4096 entries measured faster than blocks of 2048 or 8192
MODAL_BLOCK = 4096


def modal_solve(
    eta: np.ndarray,
    mass: tuple[float, float],
    stiff: tuple[float, float],
    loads: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``u_k`` of ``(eta_k M + S) u_k = rhs_k`` by fast diagonalization.

    ``M`` and ``S`` are the symmetric tridiagonal Toeplitz matrices given
    by their (diagonal, off-diagonal) pairs, and the right-hand sides are
    ``rhs_k = sum_m c_m[k] b_m`` over the (coefficients ``c_m``, vector
    ``b_m``) pairs of ``loads``, so each ``b_m`` is transformed once.
    Returns the solutions and a mask of the rows that pass the
    backward-error test of ``thomas_solve``: the residual, in the
    infinity norm, at most ``TRIDIAG_RESIDUAL_TOL`` times
    ``|rhs_k| + ||A_k|| |u_k|``.  Rows outside the mask must be solved
    again.
    """
    n = len(loads[0][1])
    (m_diag, m_off), (s_diag, s_off) = mass, stiff
    m, s = toeplitz_eigenvalues(m_diag, m_off, n), toeplitz_eigenvalues(s_diag, s_off, n)
    modal_loads = [(c, dst1(b)) for c, b in loads]
    x = np.empty((len(eta), n), dtype=complex)
    ok = np.empty(len(eta), dtype=bool)
    rows = max(1, MODAL_BLOCK // n)
    for a in range(0, len(eta), rows):
        block = slice(a, a + rows)
        e = eta[block, None]
        r, r_hat = combine(loads, block), combine(modal_loads, block)
        r_hat /= e * m + s
        u = dst1(r_hat)
        diag, off = e * m_diag + s_diag, e * m_off + s_off
        res = diag * u
        res -= r
        res[:, 1:] += off * u[:, :-1]
        res[:, :-1] += off * u[:, 1:]
        norm_a = np.abs(diag[:, 0]) + (2.0 * np.abs(off[:, 0]) if n > 1 else 0.0)
        res_max = np.max(np.abs(res), axis=1)
        bound = TRIDIAG_RESIDUAL_TOL * (np.max(np.abs(r), axis=1) + norm_a * np.max(np.abs(u), axis=1))
        ok[block] = np.isfinite(res_max) & (res_max <= bound)
        x[block] = u
    return x, ok


def sparse_solve(a: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Sparse direct solve with residual verification.

    SuperLU orders the columns by minimum degree on ``A^T + A`` and runs
    in symmetric mode (diagonal pivots preferred, partial pivoting kept),
    which suits the symmetric pattern of the shifted FEM matrices.
    Raises if the relative residual in the infinity norm exceeds
    ``SPARSE_RESIDUAL_TOL``.
    """
    rhs = np.asarray(rhs, dtype=complex)
    rhs_scale = np.max(np.abs(rhs))
    if rhs_scale == 0.0:
        return np.zeros(len(rhs), dtype=complex)
    if not (a.format == "csc" and a.dtype == complex):
        a = a.tocsc().astype(complex)
    lu = splu(a, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
    x = lu.solve(rhs)
    res = np.max(np.abs(a @ x - rhs))
    norm_a = np.max(np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[0]))
    if not np.isfinite(res) or res > SPARSE_RESIDUAL_TOL * (rhs_scale + norm_a * np.max(np.abs(x))):
        raise LinAlgError(f"sparse solve residual {res:.3e} exceeds tolerance")
    return x
