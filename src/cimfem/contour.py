"""Optimized hyperbolic integration contours for inverse Laplace transforms.

The contour is the left branch of a hyperbola,

    z(phi) = mu * (1 + sin(i*phi - alpha)),   phi in R,

whose asymptotes make an angle ``pi/2 - alpha`` with the negative real
axis.  Truncating the trapezoid rule applied along the contour to ``N``
mid-point nodes gives spectral accuracy in ``N`` once the scaling ``mu``
and the step ``tau`` are balanced against the discretization and
truncation errors.  That balancing is done here on a finite grid of the
split parameter ``rho`` (the fraction of the error budget assigned to
truncation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, pi, sin

import numpy as np


class ContourError(ValueError):
    """Raised when contour parameters are infeasible."""


EPS_ROUND = 2.22e-16  # rounding level amplified by the quadrature sum


@dataclass(frozen=True)
class ContourConfig:
    """Inputs of the contour-parameter optimization.

    ``t0`` and ``lambda_ratio`` describe the time window
    ``[t0, lambda_ratio * t0]`` on which one fixed contour must stay
    accurate.  ``alpha`` is the asymptotic half-angle of the hyperbola,
    ``delta_prime`` the sector safety margin of the symbol, and
    ``d_margin`` shrinks the analyticity strip slightly whenever the
    strip is limited by ``alpha`` itself (the degenerate branch).  These
    class defaults are the package's single source for the default
    contour shape and time window.
    """

    alpha: float = 0.6767
    delta_prime: float = 0.1023
    t0: float = 0.1
    lambda_ratio: float = 10.0
    N: int = 100
    grid_size: int = 1000
    d_margin: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < pi / 2:
            raise ContourError(f"alpha must lie in (0, pi/2), got {self.alpha}")
        if self.delta_prime < 0.0:
            raise ContourError("delta_prime must be nonnegative")
        if self.t0 <= 0.0 or self.lambda_ratio < 1.0:
            raise ContourError("need t0 > 0 and lambda_ratio >= 1")
        if self.N < 1 or self.grid_size < 2:
            raise ContourError("need N >= 1 and grid_size >= 2")
        if not 0.0 < self.d_margin < 1.0:
            raise ContourError("d_margin must lie in (0, 1)")


@dataclass(frozen=True)
class OptimalParameters:
    """Result of the grid search over the error-split parameter."""

    rho_star: float
    a_rho: float
    tau_star: float
    mu_star: float
    d_tilde: float
    eps_n: float
    predicted_error: float
    alpha: float


@dataclass(frozen=True)
class ContourQuadrature:
    """Mid-point trapezoid nodes on the upper half of the contour.

    ``nodes[k] = z(phi_k)`` and ``derivs[k] = z'(phi_k)`` with
    ``phi_k = (k + 1/2) * tau``.  Only the upper half is stored; the
    lower half is recovered by conjugate symmetry when summing.
    """

    nodes: np.ndarray
    derivs: np.ndarray
    phis: np.ndarray
    tau: float
    mu: float
    alpha: float


def strip_half_width(cfg: ContourConfig) -> float:
    """Half-width of the strip of analyticity in the phi-plane.

    The width is limited either by the contour angle ``alpha`` itself or
    by the distance ``pi/2 - alpha - delta_prime`` to the boundary of the
    sector where the resolvent is analytic.  In the degenerate case the
    width is shrunk by ``d_margin`` so the strip stays open.
    """
    other = pi / 2 - cfg.alpha - cfg.delta_prime
    if other <= 0.0:
        raise ContourError(
            f"alpha + delta_prime = {cfg.alpha + cfg.delta_prime} leaves no "
            "analyticity sector; need alpha + delta_prime < pi/2"
        )
    if cfg.alpha <= other:
        return cfg.alpha * (1.0 - cfg.d_margin)
    return other


def optimize_rho(cfg: ContourConfig) -> OptimalParameters:
    """Grid search for the error-split parameter ``rho``.

    Evaluates the predicted total error on the grid ``rho_j = j / D``,
    ``j = 0 .. D-1``, skipping infeasible points, and keeps the smallest
    feasible minimizer.  From the winner the step ``tau`` and the scale
    ``mu`` of the contour follow in closed form.
    """
    d_tilde = strip_half_width(cfg)
    sin_gap = sin(cfg.alpha - d_tilde)
    if sin_gap <= 0.0:
        raise ContourError("strip half-width leaves no room below alpha")

    j = np.arange(cfg.grid_size)
    rho = j / cfg.grid_size
    arg = cfg.lambda_ratio / ((1.0 - rho) * sin_gap)
    feasible = arg > 1.0
    if not np.any(feasible):
        raise ContourError("no feasible rho on the grid")

    a_rho = np.full_like(rho, np.nan)
    a_rho[feasible] = np.arccosh(arg[feasible])
    eps = np.exp(-2.0 * pi * d_tilde * cfg.N / a_rho)
    feasible &= (eps > 0.0) & (eps < 1.0)
    total = np.full_like(rho, np.inf)
    e, r = eps[feasible], rho[feasible]
    # For large N a tiny eps to a negative power overflows to inf; such a
    # split has an infinite predicted error and can never win the argmin.
    with np.errstate(over="ignore"):
        total[feasible] = EPS_ROUND * e ** (r - 1.0) + e**r / (1.0 - e)
    k = int(np.argmin(total))  # argmin takes the first minimizer: smallest rho
    if not np.isfinite(total[k]):
        raise ContourError("no feasible rho on the grid")

    rho_star = float(rho[k])
    a_star = float(a_rho[k])
    tau_star = a_star / cfg.N
    mu_star = 2.0 * pi * d_tilde * cfg.N * (1.0 - rho_star) / (cfg.t0 * cfg.lambda_ratio * a_star)
    return OptimalParameters(
        rho_star=rho_star,
        a_rho=a_star,
        tau_star=tau_star,
        mu_star=mu_star,
        d_tilde=d_tilde,
        eps_n=float(eps[k]),
        predicted_error=float(total[k]),
        alpha=cfg.alpha,
    )


def contour_point(params: OptimalParameters, phi):
    """Return ``(z(phi), z'(phi))`` on the hyperbola, for a scalar or an array ``phi``."""
    mu, alpha = params.mu_star, params.alpha
    z = mu * (1.0 - sin(alpha) * np.cosh(phi)) + 1j * mu * cos(alpha) * np.sinh(phi)
    dz = -mu * sin(alpha) * np.sinh(phi) + 1j * mu * cos(alpha) * np.cosh(phi)
    return z, dz


def quadrature_nodes(params: OptimalParameters, N: int) -> ContourQuadrature:
    """Mid-point nodes ``phi_k = (k + 1/2) tau`` on the upper half-contour."""
    if N < 1:
        raise ContourError(f"need N >= 1, got {N}")
    tau = params.tau_star
    phis = (np.arange(N) + 0.5) * tau
    nodes, derivs = contour_point(params, phis)
    return ContourQuadrature(
        nodes=nodes, derivs=derivs, phis=phis, tau=tau, mu=params.mu_star, alpha=params.alpha
    )


# The optimizer's default strip margin (ContourConfig.d_margin = 1e-3) takes
# the strip nearly up to alpha, which is optimal only asymptotically.  The
# solver keeps the working strip at roughly half of alpha: at moderate N the
# wider strip evaluates the integrand too close to the strip boundary and
# loses several digits.
SOLVER_D_MARGIN = 0.5


# A pure function of floats with a frozen result, so one optimization serves
# every beta, mesh and request of a process that asks for the same N and
# window; the bound keeps long parameter sweeps from growing it.
@lru_cache(maxsize=256)
def standard_parameters(
    N: int,
    t0: float,
    lambda_ratio: float,
    *,
    alpha: float = ContourConfig.alpha,
    delta_prime: float = ContourConfig.delta_prime,
) -> OptimalParameters:
    """Optimized parameters with the solver's strip margin ``SOLVER_D_MARGIN``.

    Memoized for the life of the process (``standard_parameters.cache_clear()``
    empties the cache); callers share the returned frozen object.
    """
    cfg = ContourConfig(
        alpha=alpha,
        delta_prime=delta_prime,
        t0=t0,
        lambda_ratio=lambda_ratio,
        N=N,
        d_margin=SOLVER_D_MARGIN,
    )
    return optimize_rho(cfg)
