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
nodes.  The accelerated variant solves only ``n + 1`` systems at
Chebyshev points in the contour parameter and recovers all node values
by barycentric interpolation.
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
from .linalg import combine, modal_solve, modal_solve_2d, sparse_solve, thomas_solve
from .symbols import FractionalSymbol, SourceTransform


class CIMError(ArithmeticError):
    """Raised for evaluations outside the reliable range of the contour."""


@dataclass(frozen=True)
class ScalarDomain:
    """Zero-dimensional stand-in for the spatial operator: A = a > 0."""

    a: float

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise ValueError(f"need a > 0, got {self.a}")


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


def _solve_at(p: Problem, z: np.ndarray) -> np.ndarray:
    """Laplace-domain solutions at the contour points ``z``, one row per point.

    The symbol and the source transforms are evaluated once on all of
    ``z``; each row's right-hand side combines the same few loads of
    ``discretize``.  1-D and 2-D problems take one modal solve over all
    points, and only the rows that fail its backward-error test (or, in
    2-D, its iteration cap) are solved again: in 1-D by ``thomas_solve``
    on the row's Toeplitz weights, in 2-D by ``_node_solve``, for which
    the sparse matrices are assembled once per call.
    """
    b = discretize(p)
    eta = p.sym.eta(z)
    loads = [(p.sym.history_weight(z), b[p.u0])]
    loads += [(mult, b[g]) for g, mult in p.source.evaluate(z).items()]
    if isinstance(p.domain, Mesh1D):
        stencil = stencil_1d(p.domain)
        u, ok = modal_solve(eta, stencil, loads)
        for k in np.flatnonzero(~ok):
            diag, off = (eta[k] * w_m + w_s for w_m, w_s in zip(*stencil))
            u[k] = thomas_solve(off, diag, off, combine(loads, k))
        return u
    if p.scalar:
        return combine(loads) / (eta + p.domain.a)
    u, ok = modal_solve_2d(eta, stencil_2d(p.domain), loads)
    left = np.flatnonzero(~ok)
    if len(left):
        ops = assemble(p.domain)
        for k in left:
            u[k] = _node_solve(ops, eta[k], combine(loads, k))
    return u


def solve_nodes(p: Problem, quad: ContourQuadrature) -> np.ndarray:
    """Laplace-domain solutions at the quadrature nodes: shape (N,) for a scalar problem, else (N, ndof)."""
    _warn_pole_location(p, quad)
    return _solve_at(p, quad.nodes)


def evaluate(quad: ContourQuadrature, values: np.ndarray, t):
    """Trapezoid sum ``(tau/pi) Im sum_k exp(z_k t) u_hat_k z'_k`` of the node ``values``.

    ``t`` is one time or a sequence of times; all of them are summed in
    one product ``exp(outer(t, z)) z' @ u_hat``, which stacks one row per
    time (a single time gives its row alone).  Errors out when a
    time is not finite and positive or when ``(shift + mu) * t`` risks
    floating overflow of the node exponentials; warns for times outside
    the window ``quad.params.contour.window`` the contour was optimized for.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    bad = ~((0.0 < ts) & (ts < inf))  # a NaN time is bad too
    if np.any(bad):
        raise CIMError(f"contour evaluation needs finite t > 0, got {ts[bad][0]}")
    reach = (quad.params.shift + quad.params.mu_star) * ts.max()
    if reach > 700.0:
        raise CIMError(f"(shift + mu) * t = {reach:.3g} > 700 would overflow exp")
    window = quad.params.contour.window
    inside = (window[0] * (1.0 - 1e-12) <= ts) & (ts <= window[1] * (1.0 + 1e-12))
    if not np.all(inside):
        warnings.warn(
            f"t = {ts[~inside].tolist()} lies outside the contour's accuracy window {window}",
            stacklevel=2,
        )
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
    return barycentric_interpolate(pts, barycentric_weights(n), _solve_at(p, z), quad.phis)


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
