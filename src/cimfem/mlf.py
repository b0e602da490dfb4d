"""Bivariate Mittag-Leffler function and spectral reference solutions.

The solution operator of the scalar mode ODE

    K v' + d_t^beta v + lam v = 0,   v(0) = 1,

can be written through the bivariate Mittag-Leffler function

    E_{(a, b), g}(z1, z2) = sum_{k,l >= 0} C(k+l, k) z1^k z2^l / Gamma(a k + b l + g),

evaluated at ``z1 = -t**(1-beta)/K`` and ``z2 = -lam t / K``.  Two
evaluation routes are provided: the double series summed along
anti-diagonals (small arguments) and a contour-integral form of its
Laplace transform (large arguments).  ``spectral_reference`` combines
these with a sine eigenbasis into closed-form reference solutions on
the unit interval.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import exp, lgamma, log, pi
from typing import Callable

import numpy as np

from .contour import SOLVER_D_MARGIN, ContourConfig, optimize_rho, quadrature_nodes
from .symbols import complex_pow


class MLError(ArithmeticError):
    """Raised when a Mittag-Leffler evaluation fails to converge."""


SERIES_ARG_LIMIT = 20.0  # switch series -> contour at max(|z1|, |z2|) = 20


@dataclass(frozen=True)
class MLQuery:
    """Arguments of one bivariate Mittag-Leffler evaluation."""

    alpha_p: float
    beta_p: float
    gamma: float
    z1: float
    z2: float

    def __post_init__(self) -> None:
        if self.alpha_p <= 0.0 or self.beta_p <= 0.0 or self.gamma <= 0.0:
            raise ValueError("need alpha_p, beta_p, gamma > 0")


def ml_biv_series(q: MLQuery, tol: float = 1e-12, max_order: int = 400) -> float:
    """Double series summed along anti-diagonals m = k + l.

    Terms are accumulated in log-magnitude/sign form so large
    intermediate binomials and powers never overflow.  Summation stops
    after three consecutive anti-diagonal sums below ``tol`` relative to
    the running total.  Exhausting ``max_order`` without converging, or
    converging to a value dwarfed by the largest summed term, raises
    ``MLError`` so callers can switch to the contour form.
    """
    la1 = log(abs(q.z1)) if q.z1 != 0.0 else -np.inf
    la2 = log(abs(q.z2)) if q.z2 != 0.0 else -np.inf
    s1 = 1.0 if q.z1 >= 0.0 else -1.0
    s2 = 1.0 if q.z2 >= 0.0 else -1.0

    total = 0.0
    peak = 0.0
    small_streak = 0
    for m in range(max_order + 1):
        k = np.arange(m + 1)
        l = m - k
        logmag = np.full(m + 1, -np.inf)
        for i in range(m + 1):
            if (k[i] > 0 and la1 == -np.inf) or (l[i] > 0 and la2 == -np.inf):
                continue
            logmag[i] = (
                lgamma(m + 1)
                - lgamma(k[i] + 1)
                - lgamma(l[i] + 1)
                + k[i] * (la1 if k[i] else 0.0)
                + l[i] * (la2 if l[i] else 0.0)
                - lgamma(q.alpha_p * k[i] + q.beta_p * l[i] + q.gamma)
            )
        sign = s1 ** k * s2 ** l
        shift = np.max(logmag)
        if shift == -np.inf:
            s_m = 0.0
        elif shift > 700.0:
            raise MLError(
                f"bivariate series terms overflow double precision at order {m} "
                f"(|z1| = {abs(q.z1):.3g}, |z2| = {abs(q.z2):.3g})"
            )
        else:
            s_m = float(np.sum(sign * np.exp(logmag - shift))) * exp(shift)
            peak = max(peak, exp(shift))
        total += s_m
        abs_m = abs(s_m)
        if abs_m <= tol * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                _check_cancellation(peak, total)
                return total
        else:
            small_streak = 0
    raise MLError(
        f"bivariate series did not converge within {max_order} anti-diagonals "
        f"(|z1| = {abs(q.z1):.3g}, |z2| = {abs(q.z2):.3g})"
    )


def _check_cancellation(peak: float, total: float) -> None:
    """Reject sums whose largest term dwarfs the result.

    When the biggest individual term exceeds the final sum by more than
    a factor of 1e6, at least ten of the sixteen double-precision digits
    have cancelled and the result cannot be trusted.
    """
    if peak > 1e6 * max(abs(total), 1e-300):
        raise MLError(
            "bivariate series loses more than ten digits to cancellation "
            f"(largest term {peak:.3g}, sum {total:.3g})"
        )


def ml_biv_contour(q: MLQuery, t: float, N: int = 80) -> float:
    """Contour form, valid for ``z1 = -|w1| t**alpha_p`` and ``z2 = -|w2| t**beta_p``.

    Uses the Laplace transform ``z**-gamma / (1 + |w1| z**-alpha_p +
    |w2| z**-beta_p)`` inverted on a dedicated contour optimized for the
    single time ``t`` (window ratio 2).  Requires both arguments
    nonpositive, which is the only case arising from the mode ODE.
    """
    if t <= 0.0:
        raise ValueError(f"need t > 0, got {t}")
    if q.z1 > 0.0 or q.z2 > 0.0:
        raise MLError("contour route requires nonpositive arguments")
    w1 = abs(q.z1) / t**q.alpha_p
    w2 = abs(q.z2) / t**q.beta_p
    cfg = ContourConfig(t0=t, lambda_ratio=2.0, N=N, d_margin=SOLVER_D_MARGIN)
    quad = quadrature_nodes(optimize_rho(cfg), N)
    z, dz = quad.nodes, quad.derivs
    denom = 1.0 + w1 * complex_pow(z, -q.alpha_p) + w2 * complex_pow(z, -q.beta_p)
    vals = np.exp(z * t) * complex_pow(z, -q.gamma) / denom * dz
    return t ** (1.0 - q.gamma) * quad.tau / pi * float(np.imag(np.sum(vals)))


def ml_biv(q: MLQuery, t: float | None = None) -> float:
    """Series for small arguments, contour form otherwise.

    The series raises when cancellation eats its accuracy; with a time
    ``t`` available the contour form takes over in that case.
    """
    if max(abs(q.z1), abs(q.z2)) <= SERIES_ARG_LIMIT or t is None:
        try:
            return ml_biv_series(q)
        except MLError:
            if t is None:
                raise
    return ml_biv_contour(q, t)


@dataclass(frozen=True)
class SpectralProblem:
    """Homogeneous transport problem on (0, 1) in the sine eigenbasis.

    ``mode_coefficients(j)`` returns the coefficient of the initial
    datum against the orthonormal eigenfunction ``sqrt(2) sin(j pi x)``.
    """

    K: float
    beta: float
    mode_coefficients: Callable[[int], float]
    j_max: int = 2000
    tail_tol: float = 1e-10


def mode_value(K: float, beta: float, lam: float, t: float) -> float:
    """Solution of ``K v' + d_t^beta v + lam v = 0, v(0) = 1`` at time t."""
    if t == 0.0:
        return 1.0
    z1 = -t ** (1.0 - beta) / K
    z2 = -lam * t / K
    e1 = ml_biv(MLQuery(1.0 - beta, 1.0, 1.0, z1, z2), t)
    e2 = ml_biv(MLQuery(1.0 - beta, 1.0, 2.0 - beta, z1, z2), t)
    return e1 + t ** (1.0 - beta) / K * e2


def spectral_reference(sp: SpectralProblem, x: np.ndarray, t: float) -> np.ndarray:
    """Reference solution by eigenfunction expansion.

    Sums modes until the contribution estimate ``|c_j| * |v_j(t)|``
    drops below ``tail_tol`` for three consecutive modes (decay in j is
    not monotone through zero coefficients); warns if ``j_max`` is hit
    first.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    small_streak = 0
    for j in range(1, sp.j_max + 1):
        c = sp.mode_coefficients(j)
        lam = (j * pi) ** 2
        if c == 0.0:
            contrib = 0.0
        else:
            v = mode_value(sp.K, sp.beta, lam, t)
            contrib = c * v
            out += contrib * np.sqrt(2.0) * np.sin(j * pi * x)
        if abs(contrib) < sp.tail_tol:
            small_streak += 1
            if small_streak >= 3:
                return out
        else:
            small_streak = 0
    if small_streak == 0:
        warnings.warn(f"spectral reference truncated at j_max = {sp.j_max}", stacklevel=2)
    return out
