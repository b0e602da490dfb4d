"""Contour-integral time discretization coupled with P1 finite elements.

For each quadrature node ``z_k`` on the optimized hyperbolic contour one
shifted elliptic problem

    (eta(z_k) M + S) u_hat_k = (K + z_k**(beta-1)) b_u0 + sum_m b_m T_m(z_k)

is solved (``M`` mass, ``S`` stiffness, ``b_*`` load vectors, ``T_m``
closed-form source transforms); the solution at time ``t`` is then the
imaginary part of a trapezoid sum over the nodes.  The accelerated
variant solves only ``n + 1`` systems at Chebyshev points in the contour
parameter and recovers all node values by barycentric interpolation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from math import pi, sin, sqrt
from typing import Mapping

import numpy as np

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
)
from .linalg import ComplexTridiag, sparse_solve, thomas_solve
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
    """One transport problem over a fixed time window [t0, lambda_ratio * t0]."""

    sym: FractionalSymbol
    domain: ScalarDomain | Mesh1D | Mesh2D
    u0: float | InitialData1D | InitialData2D
    source: SourceTransform = field(default_factory=SourceTransform)
    spatial_factors: Mapping[str, object] = field(default_factory=dict)
    t0: float = ContourConfig.t0
    lambda_ratio: float = ContourConfig.lambda_ratio

    @property
    def scalar(self) -> bool:
        return isinstance(self.domain, ScalarDomain)


@dataclass(frozen=True)
class Discretization:
    """Mesh-dependent data reused across contour nodes and sweeps."""

    ops: AssembledOperators
    b_u0: np.ndarray
    b_factors: dict[str, np.ndarray]


def discretize(p: Problem) -> Discretization | None:
    """Assemble operators and load vectors; None for scalar problems."""
    if p.scalar:
        return None
    ops = assemble(p.domain)
    if isinstance(p.u0, (int, float)):
        raise ValueError("PDE problems need initial data on the mesh, not a scalar")
    b_u0 = load_vector(p.domain, p.u0).astype(complex)
    b_factors = {
        name: load_vector(p.domain, g).astype(complex) for name, g in p.spatial_factors.items()
    }
    for name in {t.spatial_id for t in p.source.terms}:
        if name not in b_factors:
            raise ValueError(f"source references unknown spatial factor {name!r}")
    return Discretization(ops=ops, b_u0=b_u0, b_factors=b_factors)


@dataclass(frozen=True)
class NodeSolutionSet:
    """Laplace-domain solutions at the contour quadrature nodes.

    ``values`` has shape (N,) for scalar problems and (N, ndof)
    otherwise.
    """

    quad: ContourQuadrature
    values: np.ndarray
    scalar: bool


def _warn_pole_location(p: Problem, quad: ContourQuadrature) -> None:
    sigma = p.source.max_pole
    if sigma is None:
        return
    vertex = quad.mu * (1.0 - sin(quad.alpha))
    if vertex <= sigma:
        warnings.warn(
            f"contour vertex {vertex:.4g} does not pass right of the source pole "
            f"{sigma:.4g}; the exponential mode is not captured and results are "
            "consistent only across contours with the same pole side",
            stacklevel=3,
        )


POLE_VERTEX_MARGIN = 1.2


def problem_parameters(p: Problem, N: int, **contour_kw) -> OptimalParameters:
    """Optimized contour parameters, adjusted for exponential sources.

    When the source carries a factor ``exp(sigma t)`` with ``sigma > 0``
    the transform has a pole at ``sigma`` and the contour must pass to
    its right.  The unconstrained optimizer can place the hyperbola
    vertex ``mu (1 - sin alpha)`` on either side of ``sigma`` depending
    on ``N``, which makes solutions at different ``N`` converge to
    functions differing by the pole residue.  Here ``mu`` is floored so
    the vertex clears the pole by ``POLE_VERTEX_MARGIN`` at every ``N``;
    truncation of the node exponentials only improves with larger
    ``mu``, so spectral accuracy is kept.
    """
    params = standard_parameters(N, p.t0, p.lambda_ratio, **contour_kw)
    sigma = p.source.max_pole
    if sigma is not None and sigma > 0.0:
        mu_floor = POLE_VERTEX_MARGIN * sigma / (1.0 - sin(params.alpha))
        if params.mu_star < mu_floor:
            params = replace(params, mu_star=mu_floor)
    return params


def _node_rhs(p: Problem, disc: Discretization | None, z: complex) -> np.ndarray | complex:
    w = p.sym.history_weight(z)
    sources = p.source.evaluate(z) if p.source.terms else {}
    if p.scalar:
        rhs = w * p.u0
        for name, mult in sources.items():
            rhs += mult * complex(p.spatial_factors.get(name, 1.0))
        return rhs
    rhs = w * disc.b_u0
    for name, mult in sources.items():
        rhs = rhs + mult * disc.b_factors[name]
    return rhs


def _node_solve(p: Problem, disc: Discretization | None, z: complex, rhs) -> np.ndarray | complex:
    eta = p.sym.eta(z)
    if p.scalar:
        return rhs / (eta + p.domain.a)
    mass, stiff = disc.ops.mass, disc.ops.stiffness
    if disc.ops.dim == 1:
        t = ComplexTridiag(
            lower=eta * mass.diagonal(-1) + stiff.diagonal(-1),
            diag=eta * mass.diagonal(0) + stiff.diagonal(0),
            upper=eta * mass.diagonal(1) + stiff.diagonal(1),
        )
        return thomas_solve(t, rhs)
    return sparse_solve(eta * mass + stiff, rhs)


def solve_nodes(p: Problem, quad: ContourQuadrature, disc: Discretization | None = None) -> NodeSolutionSet:
    """Solve the shifted systems at every quadrature node."""
    if disc is None:
        disc = discretize(p)
    _warn_pole_location(p, quad)
    n_nodes = len(quad.nodes)
    if p.scalar:
        values = np.empty(n_nodes, dtype=complex)
    else:
        values = np.empty((n_nodes, disc.ops.ndof), dtype=complex)
    for k, z in enumerate(quad.nodes):
        values[k] = _node_solve(p, disc, z, _node_rhs(p, disc, z))
    return NodeSolutionSet(quad=quad, values=values, scalar=p.scalar)


def evaluate(ns: NodeSolutionSet, t, window: tuple[float, float] | None = None):
    """Trapezoid sum ``(tau/pi) Im sum_k exp(z_k t) u_hat_k z'_k``.

    ``t`` is one time or a sequence of times; all of them are summed in
    one product ``exp(outer(t, z)) z' @ u_hat``, which stacks one row per
    time (a single time gives its row alone).  Errors out when a
    time is not positive or when ``mu * t`` risks floating overflow of
    the node exponentials; warns for times outside the window the
    contour was optimized for.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0.0):
        raise CIMError(f"contour evaluation needs t > 0, got {ts[ts <= 0.0][0]}")
    if ns.quad.mu * ts.max() > 700.0:
        raise CIMError(f"mu * t = {ns.quad.mu * ts.max():.3g} > 700 would overflow exp")
    if window is not None:
        inside = (window[0] * (1.0 - 1e-12) <= ts) & (ts <= window[1] * (1.0 + 1e-12))
        if not np.all(inside):
            warnings.warn(
                f"t = {ts[~inside].tolist()} lies outside the contour's accuracy window {window}",
                stacklevel=2,
            )
    w = np.exp(np.outer(ts, ns.quad.nodes)) * ns.quad.derivs
    values = ns.quad.tau / pi * np.imag(w @ ns.values)
    return values if np.ndim(t) else values[0]


# ---------------------------------------------------------------------------
# barycentric Chebyshev acceleration


@dataclass(frozen=True)
class InterpolantSet:
    """Node solutions at Chebyshev points in the contour parameter phi."""

    points: np.ndarray  # phi-coordinates, length n + 1
    weights: np.ndarray  # barycentric weights
    values: np.ndarray  # shape (n + 1,) or (n + 1, ndof)
    interval: tuple[float, float]


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


def barycentric_interpolate(points: np.ndarray, weights: np.ndarray, values: np.ndarray, x: np.ndarray, span: float) -> np.ndarray:
    """Barycentric interpolation of ``values`` at ``x``.

    Query points within ``1e-14 * span`` of an interpolation point take
    that point's value exactly (the 0/0 guard of the barycentric form).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    flat_vals = values if values.ndim > 1 else values[:, None]
    out = np.empty((len(x), flat_vals.shape[1]), dtype=flat_vals.dtype)
    for i, xi in enumerate(x):
        d = xi - points
        hit = np.abs(d) < 1e-14 * span
        if np.any(hit):
            out[i] = flat_vals[np.argmax(hit)]
            continue
        c = weights / d
        out[i] = (c @ flat_vals) / np.sum(c)
    return out if values.ndim > 1 else out[:, 0]


def solve_chebyshev(p: Problem, params: OptimalParameters, quad: ContourQuadrature, n: int, disc: Discretization | None = None) -> InterpolantSet:
    """Solve the shifted systems only at n + 1 Chebyshev points."""
    if disc is None:
        disc = discretize(p)
    pts = chebyshev_points(quad, n)
    if p.scalar:
        values = np.empty(n + 1, dtype=complex)
    else:
        values = np.empty((n + 1, disc.ops.ndof), dtype=complex)
    for j, phi in enumerate(pts):
        z, _ = contour_point(params, phi)
        values[j] = _node_solve(p, disc, z, _node_rhs(p, disc, z))
    return InterpolantSet(
        points=pts,
        weights=barycentric_weights(n),
        values=values,
        interval=(float(quad.phis[0]), float(quad.phis[-1])),
    )


def solve_nodes_accelerated(p: Problem, params: OptimalParameters, quad: ContourQuadrature, n: int, disc: Discretization | None = None) -> NodeSolutionSet:
    """Node solutions recovered from the Chebyshev interpolant."""
    iset = solve_chebyshev(p, params, quad, n, disc)
    span = iset.interval[1] - iset.interval[0]
    vals = barycentric_interpolate(iset.points, iset.weights, iset.values, quad.phis, span)
    return NodeSolutionSet(quad=quad, values=vals, scalar=p.scalar)


def predicted_interp_decay(N: int, tau: float, alpha: float, eps_margin: float = 1e-3) -> float:
    """Predicted geometric decay rate K of the interpolation error C K^-n.

    Derived from the largest Bernstein ellipse with foci at the ends of
    the phi-interval (half-length ``c = (N - 1) tau / 2``) inside the
    strip of analyticity of half-width ``p = pi/2 - alpha - eps_margin``:
    its semi-minor axis is ``p``, so ``K = (p + sqrt(c^2 + p^2)) / c``.
    """
    if N < 2:
        raise ValueError("need N >= 2 for an interpolation interval")
    p_t = pi / 2.0 - alpha - eps_margin
    if p_t <= 0.0:
        raise ValueError("no analyticity strip: alpha + eps_margin >= pi/2")
    ratio = p_t / ((N - 1) * tau / 2.0)
    return ratio + sqrt(1.0 + ratio**2)
