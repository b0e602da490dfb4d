"""Contour-integral time discretization coupled with P1 finite elements.

For each quadrature node ``z_k`` on the optimized hyperbolic contour one
shifted elliptic problem

    (eta(z_k) M + S) u_hat_k = (K + z_k**(beta-1)) b_u0 + sum_m b_m T_m(z_k)

is solved (``M`` mass, ``S`` stiffness, ``b_*`` load vectors, ``T_m``
closed-form source transforms).  One modal solve serves all nodes: in
1-D a DST-I (by FFT) and one division, in 2-D COCG in DST-I
coordinates on the Schur complement of one mode-parity half, which the
Kronecker term couples only to the other half, so that half is
eliminated exactly; the transform and the Kronecker terms are each two
real GEMMs with small dense matrices.  It applies ``M`` and ``S`` from their
closed-form stencils, and only the rows it leaves take a banded or
sparse LU, for which the sparse matrices are assembled.  The solution
at time ``t`` is then the imaginary part of a trapezoid sum over the
nodes.  Given the times to be summed, ``solve_nodes`` solves only the
nodes nearest the real axis that those times need, chosen once before
the one solve: a closed-form bound on each node's solution
(``_solution_bounds``, a resolvent bound of Hesthaven, Rozza & Stamm
2016) keeps the skipped nodes below the rounding unit of a proven lower
bound of one solved term (``_solution_lower_bound``) at every requested
time.  Both bounds and the solves read one modal record per mesh,
``mesh_modes``.  The accelerated variant solves only ``n + 1`` systems at Chebyshev points in
the contour parameter and recovers all node values by barycentric
interpolation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import inf, pi, sin, sqrt

import numpy as np
import scipy.sparse as sp

# ``quadrature_nodes`` is not called in this module.  It stays one of its
# names because perfbench/tracing.py wraps cross-layer calls by module
# attribute name and expects ``cimfem.cim.quadrature_nodes``.
from .contour import (
    ContourConfig,
    ContourQuadrature,
    OptimalParameters,
    contour_point,
    quadrature_nodes,
    standard_parameters,
)
from .fem import (
    AssembledOperators,
    InitialData1D,
    InitialData2D,
    Mesh1D,
    Mesh2D,
    assemble,
    load_vector,
    stencil_1d,
    stencil_2d,
)
from .linalg import (
    ModalParts,
    combine,
    dst1,
    dst2,
    modal_parts,
    modal_solve,
    modal_solve_2d,
    sparse_solve,
    thomas_solve,
)
from .symbols import FractionalSymbol, SourceTransform


class CIMError(ArithmeticError):
    """Raised for evaluations outside the reliable range of the contour."""


@dataclass(frozen=True)
class ScalarDomain:
    """Zero-dimensional stand-in for the spatial operator: A = a > 0."""

    a: float

    def __post_init__(self) -> None:
        if not 0.0 < self.a < inf:  # a NaN fails too
            raise ValueError(f"need finite a > 0, got {self.a}")


@dataclass(frozen=True)
class Problem:
    """One transport problem; ``contour`` gives the contour shape and its time window.

    ``u0`` and each source term's datum are numbers for a scalar domain
    and data on the mesh otherwise.
    """

    sym: FractionalSymbol
    domain: ScalarDomain | Mesh1D | Mesh2D
    u0: float | InitialData1D | InitialData2D
    source: SourceTransform = field(default_factory=SourceTransform)
    contour: ContourConfig = ContourConfig()

    @property
    def scalar(self) -> bool:
        return isinstance(self.domain, ScalarDomain)


# A load vector depends only on the mesh and the datum, never on beta or N, so
# a process integrates each pair once.  Callers share the array, hence it is
# read-only; the bound keeps a long mesh sweep from holding every vector.
@lru_cache(maxsize=32)
def _load(mesh: Mesh1D | Mesh2D, g) -> np.ndarray:
    b = load_vector(mesh, g).astype(complex)
    b.flags.writeable = False
    return b


@lru_cache(maxsize=32)
def modal_load(mesh: Mesh1D | Mesh2D, g) -> np.ndarray:
    """The load of ``g`` in DST-I coordinates, read-only and once per (mesh, datum) pair.

    ``dst1`` of the vector on a 1-D mesh, ``dst2`` of its (n, n) grid on a 2-D one.
    """
    b = _load(mesh, g)
    b_hat = dst1(b) if isinstance(mesh, Mesh1D) else dst2(b.reshape(mesh.M - 1, mesh.M - 1))
    b_hat.flags.writeable = False
    return b_hat


def discretize(p: Problem) -> dict[object, np.ndarray | complex]:
    """The load of the initial datum and of every source datum, keyed by datum.

    On a mesh a load is the datum's load vector: each (mesh, datum) pair
    is integrated once per process and its read-only vector shared, so
    data must be hashable; a callable hashes by identity.  On a scalar
    domain a load is the number itself.
    """
    data = [p.u0] + [t.datum for t in p.source.terms]
    if p.scalar:
        return {g: complex(g) for g in data}
    if any(isinstance(g, (int, float)) for g in data):
        raise ValueError("PDE problems need data on the mesh, not a scalar")
    return {g: _load(p.domain, g) for g in data}


def _warn_pole_location(p: Problem, quad: ContourQuadrature) -> None:
    sigma = p.source.max_pole
    if sigma is None:
        return
    params = quad.params  # the pole must clear every contour z(phi + iy), |y| < d_tilde
    edge = params.shift + params.mu_star * (1.0 - sin(params.contour.alpha + params.d_tilde))
    if edge <= sigma:
        warnings.warn(
            f"the contour's analyticity strip reaches left to {edge:.4g}, not right of the "
            f"source pole {sigma:.4g}; the exponential mode is not captured at spectral accuracy",
            stacklevel=3,
        )


POLE_SHIFT_RATIO = 1.2  # the contour's shift sigma0 over the source pole sigma


def problem_parameters(p: Problem, N: int) -> OptimalParameters:
    """``standard_parameters(p.contour, N)``, shifted right of a source pole.

    A source factor ``exp(sigma t)`` with ``sigma > 0`` puts a pole of the
    transform at ``sigma``; the optimized contour then moves right by
    ``POLE_SHIFT_RATIO * sigma`` and keeps its shape (López-Fernández &
    Palencia 2004; Weideman & Trefethen 2007).
    """
    params = standard_parameters(p.contour, N)
    sigma = p.source.max_pole
    if sigma is not None and sigma > 0.0:
        return replace(params, shift=POLE_SHIFT_RATIO * sigma)
    return params


def _node_solve(ops: AssembledOperators, eta: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve the shifted 2-D system ``(eta M + S) u = rhs`` of one contour point."""
    # mass and stiffness share one CSC pattern, so eta M + S is a sum of data arrays
    mass, stiff = ops.mass, ops.stiffness
    a = sp.csc_matrix((eta * mass.data + stiff.data, mass.indices, mass.indptr), shape=mass.shape)
    return sparse_solve(a, rhs)


def _node_data(p: Problem, z: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, object]]]:
    """``eta`` at each point of ``z``, and the (coefficient at each point, datum) pair of every load."""
    return p.sym.eta(z), [(p.sym.history_weight(z), p.u0), *((c, g) for g, c in p.source.evaluate(z).items())]


def _solve_at(p: Problem, eta: np.ndarray, terms) -> np.ndarray:
    """Laplace-domain solutions of the rows that ``_node_data`` gives ``eta`` and ``terms``, one row per point.

    Each row's right-hand side combines the same few loads of
    ``discretize``.  1-D and 2-D problems take one modal solve over all
    rows, with the cached ``modal_load`` transforms, and only the rows
    that fail its backward-error test (or, in 2-D, its iteration cap)
    are solved again: in 1-D by ``thomas_solve`` on the row's Toeplitz
    weights, in 2-D by ``_node_solve``, for which the sparse matrices
    are assembled once per call.
    """
    b = discretize(p)
    loads = [(c, b[g]) for c, g in terms]
    if p.scalar:
        return combine(loads) / (eta + p.domain.a)
    modal_loads = [(c, modal_load(p.domain, g)) for c, g in terms]
    if isinstance(p.domain, Mesh1D):
        stencil = stencil_1d(p.domain)
        u, ok = modal_solve(eta, stencil, loads, modal_loads)
        for k in np.flatnonzero(~ok):
            diag, off = (eta[k] * w_m + w_s for w_m, w_s in zip(*stencil))
            u[k] = thomas_solve(off, diag, off, combine(loads, k))
        return u
    u, ok = modal_solve_2d(eta, stencil_2d(p.domain), loads, modal_loads)
    left = np.flatnonzero(~ok)
    if len(left):
        ops = assemble(p.domain)
        for k in left:
            u[k] = _node_solve(ops, eta[k], combine(loads, k))
    return u


def mesh_modes(mesh: Mesh1D | Mesh2D) -> ModalParts:
    """The shared, read-only ``modal_parts`` record of the mesh's mass and stiffness stencils."""
    return modal_parts(stencil_1d(mesh) if isinstance(mesh, Mesh1D) else stencil_2d(mesh), mesh.M - 1)


def _solution_bounds(p: Problem, eta: np.ndarray, terms) -> np.ndarray:
    """Upper bounds of ``||u_k||_2`` for the rows that ``_node_data`` gives ``eta`` and ``terms``, without a solve.

    With ``M`` and ``S`` symmetric and ``M`` positive definite,
    ``||(eta M + S)^-1||_2 <= 1 / (lambda_min(M) dist(-eta, [lam_lo,
    lam_hi]))`` when ``[lam_lo, lam_hi]`` holds the eigenvalues of the
    pencil ``(S, M)`` (the stability constant of Hesthaven, Rozza & Stamm
    2016), so ``||u_k||_2 <= sum_m |c_m(z_k)| ||b_m||_2 / (lambda_min(M)
    dist(-eta_k, [lam_lo, lam_hi]))`` over the loads, with the bound
    ``m_min`` of ``lambda_min(M)`` and the interval of the mesh's
    ``mesh_modes`` record.  On a scalar domain the bound is the exact
    ``|rhs_k| / |eta_k + a|``.
    """
    b = discretize(p)
    if p.scalar:
        return np.abs(combine([(c, b[g]) for c, g in terms]) / (eta + p.domain.a))
    *_, m_min, lo, hi = mesh_modes(p.domain)
    dist = np.abs(eta + np.clip(-eta.real, lo, hi))
    size = sum(np.abs(c) * np.linalg.norm(b[g]) for c, g in terms)
    return size / (m_min * dist)


def _solution_lower_bound(p: Problem, eta: complex, terms) -> float:
    """A lower bound of ``||u||_2`` for the row of ``_node_data`` that ``eta`` and the coefficients of ``terms`` give.

    In DST-I coordinates, which keep norms, the row is ``(D + g K) X =
    R`` with ``D = eta m + s``, ``g = eta g_M + g_S`` and ``||K|| < 4``,
    from the mesh's ``mesh_modes`` record, so ``||X|| >= ||R / D|| / (1 +
    4 |g| / min |D|)``; in 1-D ``g = 0`` and the bound is the exact
    ``||R / D||``.  On a scalar domain it is the exact ``|R| / |eta +
    a|``.
    """
    if p.scalar:
        b = discretize(p)
        return abs(sum(c * b[g] for c, g in terms) / (eta + p.domain.a))
    parts = mesh_modes(p.domain)
    d = eta * parts.m + parts.s
    size = float(np.linalg.norm(sum(c * modal_load(p.domain, g) for c, g in terms) / d))
    return size / (1.0 + 4.0 * abs(eta * parts.g_m + parts.g_s) / np.min(np.abs(d)))


UNIT_ROUNDOFF = 2.0**-53  # of IEEE double precision


def solve_nodes(p: Problem, quad: ContourQuadrature, times=None) -> np.ndarray:
    """Laplace-domain solutions at the quadrature nodes: shape (K,) for a scalar problem, else (K, ndof).

    Without ``times`` every node is solved, K = N.  Given ``times`` (one
    time or a sequence, checked as ``evaluate`` checks them, before any
    solve), only the first K nodes, those nearest the real axis, are
    solved, and the skipped ones are certified not to matter at those
    times.  Let ``t1`` be the earliest time, ``w_k = |exp(z_k t1) z'_k|``
    the node weights, ``j`` the node of largest weight and ``T_k = w_k
    bound_k`` with the ``_solution_bounds`` of every node.

    - K is the first row whose tail ``sum_{k >= K} T_k`` is at most
      ``UNIT_ROUNDOFF * w_j * lower_j / sqrt(ndof)``, with ``lower_j``
      the ``_solution_lower_bound`` of ``||u_j||_2``.  Since ``lower_j /
      sqrt(ndof) <= ||u_j||_2 / sqrt(ndof) <= ||u_j||_inf``, the tail is
      at most ``UNIT_ROUNDOFF * w_j ||u_j||_inf``, the rounding unit of
      one solved term.
    - ``Re z_k`` falls along the contour, so for ``k > j`` the ratio
      ``|exp(z_k t)| / |exp(z_j t)|`` falls as t grows, and the one check
      at ``t1`` covers every later time.

    The bounds are not computed, and every node is solved, when the last
    node's weight is not below ``UNIT_ROUNDOFF`` of the largest or a
    bound overflows.  Data that vanish give K = 0.
    """
    _warn_pole_location(p, quad)
    t1 = None if times is None else _checked_times(quad, times).min()
    eta, terms = _node_data(p, quad.nodes)
    K = len(eta) if t1 is None else _rows_needed(p, quad, t1, eta, terms)
    return _solve_at(p, eta[:K], [(c[:K], g) for c, g in terms])


def _rows_needed(p: Problem, quad: ContourQuadrature, t1: float, eta: np.ndarray, terms) -> int:
    """The K of ``solve_nodes`` at the earliest time ``t1``, from the node data ``eta`` and ``terms``."""
    weight = np.exp(quad.nodes.real * t1) * np.abs(quad.derivs)
    if weight[-1] > UNIT_ROUNDOFF * weight.max():
        return len(weight)
    term = weight * _solution_bounds(p, eta, terms)
    tail = np.append(np.cumsum(term[::-1])[::-1], 0.0)  # tail[k] = sum of term[k:]
    if not np.isfinite(tail[0]):  # a term overflowed: no level can be trusted
        return len(weight)
    j = int(np.argmax(weight))
    ndof = 1 if p.scalar else p.domain.ndof
    lower = _solution_lower_bound(p, eta[j], [(c[j], g) for c, g in terms])
    return int(np.argmax(tail <= UNIT_ROUNDOFF * weight[j] * lower / sqrt(ndof)))


def _checked_times(quad: ContourQuadrature, t) -> np.ndarray:
    """``t`` as an array of times; CIMError unless there is one, each is finite and positive and ``(shift + mu) t <= 700``."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not ts.size:
        raise CIMError("contour evaluation needs at least one time")
    bad = ~((0.0 < ts) & (ts < inf))  # a NaN time is bad too
    if np.any(bad):
        raise CIMError(f"contour evaluation needs finite t > 0, got {ts[bad][0]}")
    reach = (quad.params.shift + quad.params.mu_star) * ts.max()
    if reach > 700.0:
        raise CIMError(f"(shift + mu) * t = {reach:.3g} > 700 would overflow exp")
    return ts


def evaluate(quad: ContourQuadrature, values: np.ndarray, t):
    """Trapezoid sum ``(tau/pi) Im sum_k exp(z_k t) u_hat_k z'_k`` of the node ``values``.

    ``values`` holds the first K node rows, as ``solve_nodes`` returns
    them.  The sum runs over all N nodes with the missing rows zero, so
    it rounds as the sum of N given rows does.  ``t`` is one time or a
    sequence of times; all of them are summed in one product
    ``exp(outer(t, z)) z' @ u_hat``, which stacks one row per time (a
    single time gives its row alone).  Errors out when a time is not
    finite and positive or when ``(shift + mu) * t`` risks floating
    overflow of the node exponentials; warns for times outside the
    window ``quad.params.contour.window`` the contour was optimized for.
    """
    ts = _checked_times(quad, t)
    window = quad.params.contour.window
    inside = (window[0] * (1.0 - 1e-12) <= ts) & (ts <= window[1] * (1.0 + 1e-12))
    if not np.all(inside):
        warnings.warn(
            f"t = {ts[~inside].tolist()} lies outside the contour's accuracy window {window}",
            stacklevel=2,
        )
    if len(values) < len(quad.nodes):
        given, values = values, np.zeros((len(quad.nodes), *values.shape[1:]), dtype=complex)
        values[: len(given)] = given
    w = np.exp(np.outer(ts, quad.nodes)) * quad.derivs
    u = quad.params.tau_star / pi * np.imag(w @ values)
    return u if np.ndim(t) else u[0]


# ---------------------------------------------------------------------------
# barycentric Chebyshev acceleration


def chebyshev_points(quad: ContourQuadrature, n: int) -> np.ndarray:
    """Chebyshev-Lobatto points on the phi-interval covered by the nodes."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a, b = quad.phis[0], quad.phis[-1]
    j = np.arange(n + 1)
    return (a + b) / 2.0 + (b - a) / 2.0 * np.cos(j * pi / n)


def barycentric_weights(n: int) -> np.ndarray:
    """Weights for Chebyshev-Lobatto points: (-1)^j, halved at the ends."""
    w = (-1.0) ** np.arange(n + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def barycentric_interpolate(points: np.ndarray, weights: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric interpolation of ``values`` at ``x``.

    One row of normalized weights ``(w_j / (x_i - p_j)) / sum_j (...)``
    per query point multiplies ``values``.  Query points within ``1e-14``
    times the extent of ``points`` of an interpolation point take that
    point's value exactly (the 0/0 guard of the barycentric form).
    """
    d = np.subtract.outer(np.atleast_1d(np.asarray(x, dtype=float)), points)
    hit = np.abs(d) < 1e-14 * np.ptp(points)
    c = weights / np.where(hit, 1.0, d)
    c /= c.sum(axis=1, keepdims=True)
    on_point = hit.any(axis=1)
    c[on_point] = np.eye(len(points))[np.argmax(hit[on_point], axis=1)]
    return c @ values


def solve_nodes_accelerated(p: Problem, quad: ContourQuadrature, n: int) -> np.ndarray:
    """Node solutions, as from ``solve_nodes``, interpolated from solves at n + 1 Chebyshev points only."""
    _warn_pole_location(p, quad)
    pts = chebyshev_points(quad, n)
    z, _ = contour_point(quad.params, pts)
    return barycentric_interpolate(pts, barycentric_weights(n), _solve_at(p, *_node_data(p, z)), quad.phis)


INTERP_EPS_MARGIN = 1e-3  # gap between the analyticity strip and the contour angle


def predicted_interp_decay(N: int, tau: float, alpha: float) -> float:
    """Predicted geometric decay rate K of the interpolation error C K^-n.

    Derived from the largest Bernstein ellipse with foci at the ends of
    the phi-interval (half-length ``c = (N - 1) tau / 2``) inside the
    strip of analyticity of half-width ``p = pi/2 - alpha - INTERP_EPS_MARGIN``:
    its semi-minor axis is ``p``, so ``K = (p + sqrt(c^2 + p^2)) / c``.
    """
    if N < 2:
        raise ValueError("need N >= 2 for an interpolation interval")
    p_t = pi / 2.0 - alpha - INTERP_EPS_MARGIN
    if p_t <= 0.0:
        raise ValueError("no analyticity strip: alpha + INTERP_EPS_MARGIN >= pi/2")
    ratio = p_t / ((N - 1) * tau / 2.0)
    return ratio + sqrt(1.0 + ratio**2)
