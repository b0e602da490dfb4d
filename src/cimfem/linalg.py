"""Complex linear solvers for the per-node systems.

The contour method needs one solve of ``(eta(z_k) M + S) u = rhs`` per
quadrature node: tridiagonal in 1-D, sparse with 5-point-style
connectivity in 2-D.  Both are LAPACK/SuperLU factorizations with
pivoting, and both verify a residual bound after the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def thomas_solve(t: ComplexTridiag, rhs: np.ndarray, residual_tol: float = 1e-12) -> np.ndarray:
    """Tridiagonal solve by pivoted LAPACK banded LU, with residual verification.

    Raises if the factorization fails or the relative residual in the
    infinity norm exceeds ``residual_tol``.
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
    if not np.isfinite(res) or res > residual_tol * (rhs_scale + norm_t * np.max(np.abs(x))):
        raise LinAlgError(f"tridiagonal solve residual {res:.3e} exceeds tolerance")
    return x


def sparse_solve(a: sp.spmatrix, rhs: np.ndarray, residual_tol: float = 1e-13) -> np.ndarray:
    """Sparse direct solve with residual verification.

    Raises if the relative residual in the infinity norm exceeds
    ``residual_tol``.
    """
    rhs = np.asarray(rhs, dtype=complex)
    rhs_scale = np.max(np.abs(rhs))
    if rhs_scale == 0.0:
        return np.zeros(len(rhs), dtype=complex)
    a = a.tocsc().astype(complex)
    lu = splu(a)
    x = lu.solve(rhs)
    res = np.max(np.abs(a @ x - rhs))
    norm_a = np.max(np.abs(a).sum(axis=1))
    if not np.isfinite(res) or res > residual_tol * (rhs_scale + norm_a * np.max(np.abs(x))):
        raise LinAlgError(f"sparse solve residual {res:.3e} exceeds tolerance")
    return x

