"""Optimized hyperbolic integration contours for inverse Laplace transforms.

The contour is the left branch of a hyperbola,

    z(phi) = sigma0 + mu * (1 + sin(i*phi - alpha)),   phi in R,

whose asymptotes make an angle ``pi/2 - alpha`` with the negative real
axis.  The shift ``sigma0`` is 0 unless a source pole on the positive
real axis must lie left of the contour; it moves the contour without
changing its shape.  Truncating the trapezoid rule applied along the
contour to ``N`` mid-point nodes gives spectral accuracy in ``N`` once
the scaling ``mu`` and the step ``tau`` are balanced against the
discretization and truncation errors.  That balancing is done here on
a finite grid of the split parameter ``rho`` (the fraction of the error
budget assigned to truncation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, inf, pi, sin

import numpy as np


class ContourError(ValueError):
    """Raised when contour parameters are infeasible."""


EPS_ROUND = 2.22e-16  # rounding level amplified by the quadrature sum
GRID_SIZE = 1000  # points of the rho grid that optimize_rho searches

# Fraction by which the analyticity strip is shrunk when ``alpha`` itself
# limits it (the degenerate branch).  0.5 keeps the working strip at half of
# ``alpha``: a margin near 0 takes the strip nearly up to ``alpha``, which is
# optimal only asymptotically, and at moderate N evaluates the integrand too
# close to the strip boundary and loses several digits.
D_MARGIN = 0.5


@dataclass(frozen=True)
class ContourConfig:
    """The requested contour: its shape and its time window.

    ``t0`` and ``lambda_ratio`` describe the time window
    ``[t0, lambda_ratio * t0]`` on which one fixed contour must stay
    accurate.  ``alpha`` is the asymptotic half-angle of the hyperbola
    and ``delta_prime`` the sector safety margin of the symbol.  These
    class defaults are the package's single source for the default
    contour.
    """

    alpha: float = 0.6767
    delta_prime: float = 0.1023
    t0: float = 0.1
    lambda_ratio: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < pi / 2:
            raise ContourError(f"alpha must lie in (0, pi/2), got {self.alpha}")
        if not 0.0 <= self.delta_prime < inf:
            raise ContourError(f"delta_prime must be finite and nonnegative, got {self.delta_prime}")
        if not self.alpha + self.delta_prime < pi / 2:
            raise ContourError(
                f"alpha + delta_prime = {self.alpha + self.delta_prime} leaves no "
                "analyticity sector; need alpha + delta_prime < pi/2"
            )
        if not (0.0 < self.t0 < inf and 1.0 <= self.lambda_ratio < inf):
            raise ContourError(
                f"need finite t0 > 0 and lambda_ratio >= 1, got t0 = {self.t0}, "
                f"lambda_ratio = {self.lambda_ratio}"
            )

    @property
    def window(self) -> tuple[float, float]:
        """The time window ``(t0, lambda_ratio * t0)`` the contour is optimized for."""
        return self.t0, self.lambda_ratio * self.t0


@dataclass(frozen=True)
class OptimalParameters:
    """Result of the grid search over the error-split parameter for the contour ``contour``."""

    rho_star: float
    a_rho: float
    tau_star: float
    mu_star: float
    d_tilde: float
    eps_n: float
    predicted_error: float
    contour: ContourConfig  # the requested shape and time window
    N: int  # quadrature nodes the step tau_star was optimized for
    shift: float = 0.0  # the translation sigma0 along the real axis; the search leaves it 0


@dataclass(frozen=True)
class ContourQuadrature:
    """Mid-point trapezoid nodes on the upper half of the contour of ``params``.

    ``nodes[k] = z(phi_k)`` and ``derivs[k] = z'(phi_k)`` with
    ``phi_k = (k + 1/2) * params.tau_star``, ``k < params.N``.  Only the
    upper half is stored; the lower half is recovered by conjugate
    symmetry when summing.
    """

    nodes: np.ndarray
    derivs: np.ndarray
    phis: np.ndarray
    params: OptimalParameters


def strip_half_width(cfg: ContourConfig) -> float:
    """Half-width of the strip of analyticity in the phi-plane.

    The width is limited either by the contour angle ``alpha`` itself or
    by the distance ``pi/2 - alpha - delta_prime`` to the boundary of the
    sector where the resolvent is analytic.  In the degenerate case the
    width is shrunk by ``D_MARGIN`` so the strip stays open.
    """
    other = pi / 2 - cfg.alpha - cfg.delta_prime
    if cfg.alpha <= other:
        return cfg.alpha * (1.0 - D_MARGIN)
    return other


def optimize_rho(cfg: ContourConfig, N: int) -> OptimalParameters:
    """Grid search for the error-split parameter ``rho`` of the contour ``cfg`` at N nodes.

    Evaluates the predicted total error on the grid ``rho_j = j / D``,
    ``j = 0 .. D-1`` with ``D = GRID_SIZE``, skipping infeasible points,
    and keeps the smallest feasible minimizer.  From the winner the step ``tau`` and the scale
    ``mu`` of the contour follow in closed form.
    """
    if N < 1:
        raise ContourError(f"need N >= 1, got {N}")
    d_tilde = strip_half_width(cfg)
    sin_gap = sin(cfg.alpha - d_tilde)
    if sin_gap <= 0.0:
        raise ContourError("strip half-width leaves no room below alpha")

    rho = np.arange(GRID_SIZE) / GRID_SIZE
    arg = cfg.lambda_ratio / ((1.0 - rho) * sin_gap)
    feasible = arg > 1.0
    if not np.any(feasible):
        raise ContourError("no feasible rho on the grid")

    a_rho = np.full_like(rho, np.nan)
    a_rho[feasible] = np.arccosh(arg[feasible])
    eps = np.exp(-2.0 * pi * d_tilde * N / a_rho)
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
    tau_star = a_star / N
    mu_star = 2.0 * pi * d_tilde * N * (1.0 - rho_star) / (cfg.t0 * cfg.lambda_ratio * a_star)
    return OptimalParameters(
        rho_star=rho_star,
        a_rho=a_star,
        tau_star=tau_star,
        mu_star=mu_star,
        d_tilde=d_tilde,
        eps_n=float(eps[k]),
        predicted_error=float(total[k]),
        contour=cfg,
        N=N,
    )


def contour_point(params: OptimalParameters, phi):
    """Return ``(z(phi), z'(phi))`` on the hyperbola, for a scalar or an array ``phi``."""
    mu, alpha = params.mu_star, params.contour.alpha
    z = params.shift + mu * (1.0 - sin(alpha) * np.cosh(phi)) + 1j * mu * cos(alpha) * np.sinh(phi)
    dz = -mu * sin(alpha) * np.sinh(phi) + 1j * mu * cos(alpha) * np.cosh(phi)
    return z, dz


def quadrature_nodes(params: OptimalParameters) -> ContourQuadrature:
    """Mid-point nodes ``phi_k = (k + 1/2) tau`` on the upper half-contour, one per optimized node."""
    phis = (np.arange(params.N) + 0.5) * params.tau_star
    nodes, derivs = contour_point(params, phis)
    return ContourQuadrature(nodes=nodes, derivs=derivs, phis=phis, params=params)


# A pure function of a frozen config and N with a frozen result, so one
# optimization serves every beta, mesh and request of a process that asks for
# the same contour; the bound keeps long parameter sweeps from growing it.
@lru_cache(maxsize=256)
def standard_parameters(cfg: ContourConfig, N: int) -> OptimalParameters:
    """``optimize_rho(cfg, N)``, memoized for the life of the process.

    ``standard_parameters.cache_clear()`` empties the cache; callers share
    the returned frozen object.
    """
    return optimize_rho(cfg, N)
