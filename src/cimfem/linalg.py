"""Complex linear solvers for the per-node systems.

The contour method needs one solve of ``(eta(z_k) M + S) u = rhs`` per
quadrature node.  ``M`` and ``S`` reach the solvers only as the stencils
of ``fem.stencil_1d`` and ``fem.stencil_2d``; every modal quantity is
derived from the stencil weights (fast diagonalization, Lynch, Rice &
Thomas 1964).  In 1-D both operators are symmetric tridiagonal Toeplitz
matrices that the DST-I diagonalizes, so ``modal_solve`` treats all
nodes at once: from the DST-I of each load vector that the right-hand
sides combine (the caller keeps them), one elementwise division by
``eta_k m_j + s_j`` and a DST-I back, by FFT (``dst1``).  One cached
record per stencil, ``modal_parts``, states the modal splitting for the
solves and for ``cim``'s node-selection bounds.  In 2-D the two-dimensional DST-I diagonalizes
each operator but a small Kronecker term, which couples each y mode
only to modes of the other parity.  So ``modal_solve_2d`` eliminates one
parity half of every row exactly and runs COCG on the half-size Schur
complement, on all nodes at once, with its diagonal as preconditioner.
The 2-D transform and the Kronecker terms are one kernel,
``_kron_apply``: ``A P_k B^T`` for every slice, as two real GEMMs, with
``A`` and ``B`` the cached sine matrix ``Q``, or the cached ``Q D Q`` and
its block between the parity halves.
Rows that fail the backward-error test, or in 2-D do not converge within
``COCG_MAX_ITER`` iterations, are solved again by ``thomas_solve``
(pivoted LAPACK banded LU) or ``sparse_solve`` (SuperLU with pivoting).
Both modal solves run on blocks of rows, each dimension with its own
size: ``MODAL_BLOCK_1D`` (4096) entries in 1-D and ``MODAL_BLOCK_2D``
(8192) in 2-D, where each block is one COCG run.
Every solve verifies its residual by one predicate, ``_backward_ok``;
the modal solves take their residuals from the stencils, so only the
sparse fallback needs assembled matrices.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt, prod, sqrt
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu

from .fem import apply_stencil_1d, apply_stencil_2d


class LinAlgError(ArithmeticError):
    """Raised when a solve fails or leaves a large residual."""


# relative backward-error bounds of every tridiagonal solve (modal or
# banded) and of every sparse solve
TRIDIAG_RESIDUAL_TOL = 1e-12
SPARSE_RESIDUAL_TOL = 1e-13


def _backward_ok(res: np.ndarray, rhs: np.ndarray, norm_a, u: np.ndarray, tol: float) -> np.ndarray:
    """Whether each row passes ``|res| <= tol (|rhs| + ||A|| |u|)`` in the infinity norm.

    Norms run over the last axis of the residual ``res``, the right-hand
    side ``rhs`` and the solution ``u``; ``norm_a`` is ``||A||`` of each
    row's matrix.  A non-finite residual fails.
    """
    res_max = np.max(np.abs(res), axis=-1)
    bound = tol * (np.max(np.abs(rhs), axis=-1) + norm_a * np.max(np.abs(u), axis=-1))
    return np.isfinite(res_max) & (res_max <= bound)


def thomas_solve(lower, diag, upper, rhs: np.ndarray) -> np.ndarray:
    """Solve ``tridiag(lower, diag, upper) x = rhs`` by pivoted LAPACK banded LU, with residual verification.

    Each diagonal is an array of length n - 1, n and n - 1 for n =
    ``len(rhs)``, or a scalar that fills it (a Toeplitz diagonal).
    Raises if the lengths are inconsistent, the factorization fails or
    the solution fails ``_backward_ok`` with ``TRIDIAG_RESIDUAL_TOL``.
    """
    rhs = np.asarray(rhs, dtype=complex)
    n = len(rhs)
    for d, size in ((lower, n - 1), (diag, n), (upper, n - 1)):
        if np.ndim(d) and np.shape(d) != (size,):
            raise LinAlgError(f"diagonal of length {len(d)} != {size} for rhs length {n}")
    if not rhs.any():
        return np.zeros(n, dtype=complex)

    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    try:
        x = solve_banded((1, 1), ab, rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise LinAlgError(f"banded solve failed: {exc}") from exc
    res = diag * x
    res[:-1] += upper * x[1:]
    res[1:] += lower * x[:-1]
    res -= rhs
    norm_t = np.max(np.abs(diag)) + (np.max(np.abs(lower)) + np.max(np.abs(upper)) if n > 1 else 0.0)
    if not _backward_ok(res, rhs, norm_t, x, TRIDIAG_RESIDUAL_TOL):
        raise LinAlgError(f"tridiagonal solve residual {np.max(np.abs(res)):.3e} exceeds tolerance")
    return x


def dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis of ``x``; the transform is its own inverse.

    The 1-D modal solve's transform, computed from one complex FFT of the
    odd extension ``[0, x, 0, -x[::-1]]`` (``numpy.fft`` keeps
    ``scipy.fft`` out of the process).  At n = 255, 340 rows in blocks of
    ``MODAL_BLOCK_1D`` (4096) entries took 2.7 ms this way against 4.3 ms
    as GEMMs with the sine matrix; in 2-D, whose blocks hold
    ``MODAL_BLOCK_2D`` (8192) entries, ``dst2`` is a GEMM.
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


ModalParts = namedtuple("ModalParts", "m s g_m g_s m_min lam_lo lam_hi")


# once per (stencil, n) and process: the solves and the node-selection bounds share it
@lru_cache(maxsize=32)
def modal_parts(stencil: tuple[tuple[float, ...], tuple[float, ...]], n: int) -> ModalParts:
    """The DST-I splitting ``M = diag(m) + g_M K``, ``S = diag(s) + g_S K`` of a stencil pair, with bounds of its spectra; read-only.

    A 1-D (diagonal, off-diagonal) pair of ``fem.stencil_1d`` on n points
    has ``m`` and ``s`` from ``toeplitz_eigenvalues`` and ``g = 0``; a 2-D
    (c, a, d) triple of ``fem.stencil_2d`` has the (n, n) parts and ``g =
    d / 2`` derived in ``modal_solve_2d``, with ``K = kron(D_hat, D_hat)``.
    One lemma gives the constants: ``||K|| = ||D_hat||^2 < 4``, so with
    ``k = 4 |g|`` Rayleigh quotients give ``lambda_min(M) >= m_min =
    min(m - k_M)`` and, while ``m - k_M > 0``, put the pencil ``(S, M)``
    in ``[lam_lo, lam_hi]``, the hull of the ratios ``(s +- k_S) / (m +-
    k_M)``.  The stencils of ``fem`` keep ``m - k_M > 0``: in 1-D ``k_M =
    0`` and ``m > h / 3``; in 2-D, with the mass weights ``(6a, a, a)``,
    ``m = a (4 + (c_j + 2) (c_l + 2) / 2) > 4a`` and ``k_M = 2a``.  In
    1-D the constants are the exact extremes.
    """
    if len(stencil[0]) == 2:
        (m, g_m), (s, g_s) = ((toeplitz_eigenvalues(diag, off, n), 0.0) for diag, off in stencil)
    else:
        cy = toeplitz_eigenvalues(0.0, 1.0, n)[:, None]
        cx = cy.T
        (m, g_m), (s, g_s) = ((c + a * (cy + cx) + d * cy * cx / 2.0, d / 2.0) for c, a, d in stencil)
    m.flags.writeable = s.flags.writeable = False
    k_m, k_s = 4.0 * abs(g_m), 4.0 * abs(g_s)
    ratios = [(s + e) / (m + f) for e in (-k_s, k_s) for f in (-k_m, k_m)]
    return ModalParts(m, s, g_m, g_s, np.min(m - k_m), min(map(np.min, ratios)), max(map(np.max, ratios)))


# entries per block of rows of the 1-D modal solve: whole-array temporaries
# cost peak memory and, at large n, more time than the blocks' extra calls.
# End to end (paired 6 s perfbench/run.py runs, 2 vCPUs, one BLAS thread),
# 8192 entries took time-1d request_p50_s from 9.24 to 10.43 ms (+13%,
# 4 of 4 pairs worse)
MODAL_BLOCK_1D = 4096
# entries per block of rows of the 2-D modal solve, one COCG run each: at
# M = 32 (n = 31) 4096 entries hold 4 rows, so N = 60 nodes take 15 runs.
# End to end (as above), space-2d request_p50_s, medians of 4 pairs: 28.9
# ms at 4096 entries, 26.6 at 6144, 26.2 at 8192, 28.0 at 10240 and 29.4 at
# 12288; over 10 more pairs 8192 took it from 27.4 to 25.4 ms (-7.4%, every
# pair lower) for +1.4 MB peak_rss_mb.  With one parity half eliminated a
# run's vectors are half as long, but 16384 entries were no faster: 4 pairs
# read 16.97/17.81, 16.84/16.59, 16.60/18.51 and 16.95/17.86 ms (8192/16384)
# for +2.3 MB peak_rss_mb
MODAL_BLOCK_2D = 8192


def modal_solve(
    eta: np.ndarray,
    stencil: tuple[tuple[float, float], tuple[float, float]],
    loads: Sequence[tuple[np.ndarray, np.ndarray]],
    modal_loads: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``u_k`` of ``(eta_k M + S) u_k = rhs_k`` by fast diagonalization.

    ``stencil`` gives the (diagonal, off-diagonal) weights of ``M`` and
    of ``S`` (from ``fem.stencil_1d``), whose DST-I eigenvalues ``m_j``
    and ``s_j`` are those of the ``modal_parts`` record.  The right-hand
    sides are ``rhs_k = sum_m c_m[k] b_m`` over the (coefficients
    ``c_m``, vector ``b_m``) pairs of ``loads``; ``modal_loads`` holds
    the same pairs with ``dst1(b_m)`` in place of ``b_m``, so a caller
    that keeps the transforms passes them in.  Returns the solutions and
    a mask of the rows that pass ``_backward_ok`` with
    ``TRIDIAG_RESIDUAL_TOL``, as ``thomas_solve`` does; rows outside the
    mask must be solved again.
    """
    n = len(loads[0][1])
    m, s, *_ = modal_parts(stencil, n)
    x = np.empty((len(eta), n), dtype=complex)
    ok = np.empty(len(eta), dtype=bool)
    rows = max(1, MODAL_BLOCK_1D // n)
    for a in range(0, len(eta), rows):
        block = slice(a, a + rows)
        e = eta[block, None]
        r, r_hat = combine(loads, block), combine(modal_loads, block)
        r_hat /= e * m + s
        u = dst1(r_hat)
        diag, off = (e * w_m + w_s for w_m, w_s in zip(*stencil))
        res = apply_stencil_1d(u, diag, off)
        res -= r
        norm_a = np.abs(diag[:, 0]) + (2.0 * np.abs(off[:, 0]) if n > 1 else 0.0)
        ok[block] = _backward_ok(res, r, norm_a, u, TRIDIAG_RESIDUAL_TOL)
        x[block] = u
    return x, ok


# iterations after which a 2-D modal row stops and is solved again, counted
# on the Schur complement of one parity half; on the N = 60 contours of
# ex4_2d_case1/ex4_2d_case3 the worst row needs 9 at M = 8 and 3 at M = 128
COCG_MAX_ITER = 60


def _row_norms(x: np.ndarray) -> np.ndarray:
    """2-norm of each complex row ``x[k]``, from its real view."""
    v = x.reshape(len(x), -1).view(float)
    return np.sqrt(np.einsum("ki,ki->k", v, v))


@lru_cache(maxsize=16)
def _sine_matrix(n: int) -> np.ndarray:
    """The orthonormal DST-I matrix ``Q = Q^T = Q^-1`` of order n, read-only.

    ``Q[j, l] = sqrt(2 / (n + 1)) sin(j l pi / (n + 1))``, j, l = 1..n,
    with ``j l`` reduced modulo ``2 (n + 1)`` so that every sine's
    argument is below ``2 pi``.
    """
    j = np.arange(1, n + 1)
    q = sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) % (2 * n + 2) * (np.pi / (n + 1)))
    q.flags.writeable = False
    return q


@lru_cache(maxsize=16)
def _d_hat(n: int) -> np.ndarray:
    """``D_hat = Q D Q`` of order n, read-only: ``dst2`` of the skew ``D = E - E^T``, so skew too."""
    d_hat = dst2(np.eye(n, k=1) - np.eye(n, k=-1))
    d_hat.flags.writeable = False
    return d_hat


def _kron_apply(a: np.ndarray, p: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A P_k B^T`` for every trailing (q, r) slice ``P_k`` of ``p``, with the real matrices ``a`` (·, q) and ``b`` (·, r).

    A complex ``p`` takes two real GEMMs on float views, whose rows
    interleave real and imaginary parts: ``A`` times each slice, then,
    with the stack transposed so that the x index leads, ``B`` times the
    flat (r, slices * 2 rows(A)) matrix, and the result transposed back.
    That is ``4 (rows(A) q r + rows(B) r rows(A))`` flops per slice and
    two copies; a factor may be a transposed view of a contiguous
    matrix.  A real ``p`` takes ``A P_k`` and ``(A P_k) B^T``.  ``p`` is
    not modified.
    """
    if np.iscomplexobj(p):
        lead, (q, r), m, s = p.shape[:-2], p.shape[-2:], len(a), len(b)
        p = np.ascontiguousarray(p, dtype=complex).reshape(prod(lead), q, r)
        left = np.matmul(a, p.view(float)).view(complex)
        by_x = np.ascontiguousarray(left.transpose(2, 0, 1)).reshape(r, len(p) * m)
        right = (b @ by_x.view(float)).view(complex).reshape(s, len(p), m)
        return np.ascontiguousarray(right.transpose(1, 2, 0)).reshape(*lead, m, s)
    return np.matmul(np.matmul(a, p), b.T)


def dst2(x: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DST-I ``Q X Q`` of each trailing (n, n) slice ``X`` of ``x``; its own inverse.

    One ``_kron_apply`` with the cached sine matrix ``Q`` on both sides;
    a real ``x`` gives a real result.
    """
    q = _sine_matrix(x.shape[-1])
    return _kron_apply(q, x, q)


def _schur_apply(p: np.ndarray, d_o: np.ndarray, g: np.ndarray, d_vo: np.ndarray, d_hat: np.ndarray) -> np.ndarray:
    """``d_o * P_k - L^T(g_k * L(P_k))`` for every row ``k``, the Schur operator of ``_cocg``.

    ``L(P) = D_vo P D_hat^T`` and ``L^T(Y) = D_vo^T Y D_hat``, each one
    ``_kron_apply``; ``g_k`` is ``c_k^2 / d_v``.
    """
    q = d_o * p
    q -= _kron_apply(d_vo.T, g * _kron_apply(d_vo, p, d_hat), d_hat.T)
    return q


def _cocg(
    d: np.ndarray, c: np.ndarray, d_hat: np.ndarray, b: np.ndarray, norm_a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``d_k * X + c_k D X D^T = B_k`` by COCG on the Schur complement of one parity half.

    ``D`` (``d_hat``) is skew and couples each y index only to indices
    of the other parity: its entries with ``i + l`` even are round-off.
    So each row splits into ``X_o = X[0::2]`` (odd y modes j = 1, 3, ...)
    and ``X_v = X[1::2]`` (even modes), and ``d``, ``B`` alike, coupled only through
    ``L(X_o) = D_vo X_o D^T`` with ``D_vo = D[1::2, 0::2]`` and its
    transpose ``L^T(Y) = D_vo^T Y D`` (``D[0::2, 1::2] = -D_vo^T`` and
    ``D^T = -D``):

        d_o X_o + c_k L^T(X_v) = B_o,    d_v X_v + c_k L(X_o) = B_v.

    ``X_v = (B_v - c_k L(X_o)) / d_v`` is eliminated exactly (red-black
    reduction; Saad, *Iterative Methods for Sparse Linear Systems*, 2003),
    which leaves the half-size Schur system ``d_o X_o - c_k^2 L^T(L(X_o)
    / d_v) = B_o - c_k L^T(B_v / d_v)`` (``_schur_apply``).  Its operator
    is complex symmetric: ``d_o`` and ``1 / d_v`` are diagonal and
    ``L^T`` is the transpose of ``L`` (``kron(D_vo, D)^T = kron(D_vo^T,
    D^T)``), so ``L^T diag(1 / d_v) L`` is too.  Conjugate gradients
    therefore run with the unconjugated form ``x^T y`` (van der Vorst &
    Melissen 1990), on all rows at once, with the Jacobi preconditioner
    ``d_o``.  With ``E_k = c_k K / d_k`` the preconditioned operator is
    ``I - E_ov E_vo``, the restriction of ``I - E_k^2`` to one parity
    half: the error operator of the diagonal preconditioner on the full
    system, squared.  That helps while ``||E_k|| <= |c_k| ||D||^2 / min
    |d_k|`` is below 1; on the contours of the 2-D examples it is at most
    0.64.  Each iteration applies ``L`` and ``L^T`` once, on half-size
    rows.  With ``X_v`` back-substituted, the Schur residual is the
    residual of the full row, so a row stops when its 2-norm is at most
    ``SPARSE_RESIDUAL_TOL (|B_k| + norm_a_k |X_o|) / n``, where ``n^2``
    is the row length, so that the infinity-norm test of
    ``sparse_solve`` holds (``|X_o| <= |X_k|``, so this is not looser
    than the same rule on the full row).  Returns the full iterates and
    a mask of the rows that stopped so within ``COCG_MAX_ITER``
    iterations; rows that reach non-finite values stop unconverged.
    """
    rows, n, _ = b.shape
    d_vo = np.ascontiguousarray(d_hat[1::2, ::2])
    c = c[:, None, None]
    d_o, cd_v = np.ascontiguousarray(d[:, ::2]), c / d[:, 1::2]
    b_v = b[:, 1::2] / d[:, 1::2]
    r = b[:, ::2] - c * _kron_apply(d_vo.T, b_v, d_hat.T)
    x_o, ok = np.zeros(r.shape, dtype=complex), np.zeros(rows, dtype=bool)
    live = np.arange(rows)
    x, d_inv, g = np.zeros(r.shape, dtype=complex), 1.0 / d_o, c * cd_v
    p = r * d_inv
    rho = np.einsum("kij,kij->k", r, p)
    scale = SPARSE_RESIDUAL_TOL / n * _row_norms(b)
    slope = SPARSE_RESIDUAL_TOL / n * norm_a
    for it in range(COCG_MAX_ITER + 1):
        r_norm, x_norm = _row_norms(r), _row_norms(x)
        done = r_norm <= scale + slope * x_norm
        stop = done | ~np.isfinite(r_norm + x_norm) | (it == COCG_MAX_ITER)
        if stop.any():
            x_o[live[stop]], ok[live[stop]] = x[stop], done[stop]
            keep = ~stop
            live, x, r, p, rho, d_o, d_inv, g, scale, slope = (
                a[keep] for a in (live, x, r, p, rho, d_o, d_inv, g, scale, slope)
            )
            if not len(live):
                break
        q = _schur_apply(p, d_o, g, d_vo, d_hat)
        alpha = (rho / np.einsum("kij,kij->k", p, q))[:, None, None]
        x += alpha * p
        r -= alpha * q
        z = r * d_inv
        rho_new = np.einsum("kij,kij->k", r, z)
        p *= (rho_new / rho)[:, None, None]
        p += z
        rho = rho_new
    x_out = np.empty(b.shape, dtype=complex)
    x_out[:, ::2] = x_o
    x_out[:, 1::2] = b_v - cd_v * _kron_apply(d_vo, x_o, d_hat)
    return x_out, ok


def _stencil_norm_2d(weights: Sequence[np.ndarray], n: int) -> np.ndarray:
    """``||A||_inf`` of the stencil with (centre, E/W/N/S, NE/SW) ``weights`` on the n x n grid.

    The largest row sum is that of a node with the most neighbours: 4
    E/W/N/S and 2 NE/SW ones for n >= 3, 2 and 1 at a corner for n = 2,
    none for n = 1.
    """
    k = min(n - 1, 2)
    centre, axial, diagonal = (np.abs(w) for w in weights)
    return centre + 2 * k * axial + k * diagonal


def modal_solve_2d(
    eta: np.ndarray,
    stencil: tuple[tuple[float, float, float], tuple[float, float, float]],
    loads: Sequence[tuple[np.ndarray, np.ndarray]],
    modal_loads: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``u_k`` of ``(eta_k M + S) u_k = rhs_k`` on the 2-D grid, by COCG in DST-I coordinates.

    ``stencil`` gives the (centre ``c``, E/W/N/S ``a``, NE/SW ``d``)
    weights of ``M`` and of ``S`` (from ``fem.stencil_2d``) on the n x n
    grid.  With ``E`` the superdiagonal shift, ``C = E + E^T`` and ``D =
    E - E^T``, the NE/SW couplings are ``kron(E, E) + kron(E^T, E^T) =
    (kron(C, C) + kron(D, D)) / 2``, so such a stencil is
    ``c I + a (kron(I, C) + kron(C, I)) + d/2 kron(C, C) + d/2 kron(D, D)``.
    ``C`` has the DST-I eigenvalues ``c_j = 2 cos(j pi / (n + 1))``, so
    all but the last term is diagonal on the 2-D DST-I basis, with entry
    ``c + a (c_j + c_l) + d c_j c_l / 2`` at ``[j, l]`` (y mode j, x
    mode l), by ``modal_parts``: ``m`` for ``M`` and ``s`` for ``S``.  In modal coordinates
    row ``k`` is ``(eta_k m + s) X + g_k D_hat X D_hat^T = B_k`` with
    ``g_k = (eta_k d_M + d_S) / 2`` and the real ``D_hat = Q D Q``.
    ``D_hat`` is skew and its entries ``[i, l]`` with ``i + l`` even are
    round-off, so the Kronecker term maps the even-index y modes
    ``X[0::2]`` to the odd-index ones ``X[1::2]`` and back: ``_cocg``
    eliminates ``X[1::2]`` exactly and runs Jacobi-preconditioned COCG
    on the complex symmetric Schur complement in ``X[0::2]``.  ``Q`` is
    the sine matrix, so ``dst2`` and the Kronecker terms are the same
    kernel, ``_kron_apply``, and ``D_hat`` is ``dst2`` of ``D``, built
    once per n (``_d_hat``).  The right-hand sides are ``rhs_k = sum_m
    c_m[k] b_m`` over ``loads`` and the (n, n) ``dst2`` of each ``b_m``
    in ``modal_loads``, as in ``modal_solve``.  The rows run in blocks of
    ``MODAL_BLOCK_2D`` (8192) entries, twice the 1-D ``MODAL_BLOCK_1D``
    (4096): one ``_cocg`` run and one transform back per block.
    Returns the solutions and a mask of the rows that
    converged and pass ``_backward_ok`` with ``SPARSE_RESIDUAL_TOL``, as
    ``sparse_solve`` does, with the residual taken from the stencil; rows
    outside the mask must be solved again.
    """
    n = isqrt(len(loads[0][1]))
    m, s, g_m, g_s, *_ = modal_parts(stencil, n)
    d_hat = _d_hat(n)
    x = np.empty((len(eta), n * n), dtype=complex)
    ok = np.empty(len(eta), dtype=bool)
    rows = max(1, MODAL_BLOCK_2D // (n * n))
    for a in range(0, len(eta), rows):
        block = slice(a, a + rows)
        e = eta[block]
        weights = [e[:, None, None] * w_m + w_s for w_m, w_s in zip(*stencil)]
        norm_a = _stencil_norm_2d(weights, n)[:, 0, 0]
        u_hat, done = _cocg(e[:, None, None] * m + s, e * g_m + g_s, d_hat, combine(modal_loads, block), norm_a)
        u = dst2(u_hat)
        r = combine(loads, block)
        res = apply_stencil_2d(u, *weights).reshape(len(e), n * n)
        res -= r
        x[block] = u.reshape(len(e), n * n)
        ok[block] = done & _backward_ok(res, r, norm_a, x[block], SPARSE_RESIDUAL_TOL)
    return x, ok


def sparse_solve(a: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Sparse direct solve with residual verification: the fallback of ``modal_solve_2d``.

    SuperLU orders the columns by minimum degree on ``A^T + A`` and runs
    in symmetric mode (diagonal pivots preferred, partial pivoting kept),
    which suits the symmetric pattern of the shifted FEM matrices.
    Raises if the factorization fails or the solution fails ``_backward_ok``
    with ``SPARSE_RESIDUAL_TOL``, ``||A||`` being the largest column sum.
    """
    rhs = np.asarray(rhs, dtype=complex)
    if not rhs.any():
        return np.zeros(len(rhs), dtype=complex)
    if not (a.format == "csc" and a.dtype == complex):
        a = a.tocsc().astype(complex)
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU reports a singular factor this way
        raise LinAlgError(f"sparse LU failed: {exc}") from exc
    x = lu.solve(rhs)
    res = a @ x - rhs
    norm_a = np.max(np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[0]))
    if not _backward_ok(res, rhs, norm_a, x, SPARSE_RESIDUAL_TOL):
        raise LinAlgError(f"sparse solve residual {np.max(np.abs(res)):.3e} exceeds tolerance")
    return x
