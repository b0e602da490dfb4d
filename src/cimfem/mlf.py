"""Bivariate Mittag-Leffler function and spectral reference solutions.

The solution operator of the scalar mode ODE

    K v' + d_t^beta v + lam v = 0,   v(0) = 1,

can be written through the bivariate Mittag-Leffler function

    E_{(a, b), g}(z1, z2) = sum_{k,l >= 0} C(k+l, k) z1^k z2^l / Gamma(a k + b l + g),

evaluated at ``z1 = -t**(1-beta)/K`` and ``z2 = -lam t / K``.  Two
evaluation routes are provided: the double series summed along
anti-diagonals (small arguments) and a contour-integral form of its
Laplace transform (large arguments), which takes an array of ``z2`` on
one contour and sums it for all of them in one matrix-vector product.
``spectral_reference`` evaluates every mode of a sine eigenbasis that
way, one contour per time, into closed-form reference solutions on the
unit interval; the datum's coefficients are computed once per process
and the sine series is summed blockwise by one matrix product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import exp, inf, log, pi
from typing import Callable

import numpy as np

from .contour import ContourConfig, optimize_rho, quadrature_nodes
from .symbols import complex_pow


class MLError(ArithmeticError):
    """Raised when a Mittag-Leffler evaluation fails to converge."""


SERIES_ARG_LIMIT = 20.0  # switch series -> contour at max(|z1|, |z2|) = 20
SERIES_TOL = 1e-12  # relative size of an anti-diagonal sum counted as small
SERIES_MAX_ORDER = 400  # anti-diagonals summed before the series gives up
CONTOUR_NODES = 80  # quadrature nodes of the contour route


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
        scalars = (self.alpha_p, self.beta_p, self.gamma, self.z1)
        if not (np.all(np.isfinite(scalars)) and np.all(np.isfinite(self.z2))):  # z2 may be an array
            raise ValueError("need finite alpha_p, beta_p, gamma, z1, z2")


def ml_biv_series(q: MLQuery) -> float:
    """Double series summed along anti-diagonals m = k + l.

    Terms are accumulated in log-magnitude/sign form so large
    intermediate binomials and powers never overflow; each anti-diagonal
    is one array expression over its ``m + 1`` terms.  Summation stops
    after three consecutive anti-diagonal sums below ``SERIES_TOL`` of
    the running total.  Exhausting ``SERIES_MAX_ORDER`` anti-diagonals, or
    converging to a value dwarfed by the largest summed term, raises
    ``MLError`` so callers can switch to the contour form.
    """
    from scipy.special import gammaln

    la1 = log(abs(q.z1)) if q.z1 != 0.0 else 0.0
    la2 = log(abs(q.z2)) if q.z2 != 0.0 else 0.0
    s1 = 1.0 if q.z1 >= 0.0 else -1.0
    s2 = 1.0 if q.z2 >= 0.0 else -1.0

    total = 0.0
    peak = 0.0
    small_streak = 0
    for m in range(SERIES_MAX_ORDER + 1):
        k = np.arange(m + 1)
        l = m - k
        logmag = (
            gammaln(m + 1)
            - gammaln(k + 1)
            - gammaln(l + 1)
            + k * la1
            + l * la2
            - gammaln(q.alpha_p * k + q.beta_p * l + q.gamma)
        )
        # a zero argument contributes only its zeroth power
        if q.z1 == 0.0:
            logmag[k > 0] = -np.inf
        if q.z2 == 0.0:
            logmag[l > 0] = -np.inf
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
        if abs_m <= SERIES_TOL * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                _check_cancellation(peak, total)
                return total
        else:
            small_streak = 0
    raise MLError(
        f"bivariate series did not converge within {SERIES_MAX_ORDER} anti-diagonals "
        f"(|z1| = {abs(q.z1):.3g}, |z2| = {abs(q.z2):.3g})"
    )


def _check_cancellation(peak: float, total: float) -> None:
    """Reject sums whose largest term exceeds the result by more than a factor of 1e6.

    Such a sum has lost ten or more of its sixteen digits.  A sum that
    passes is good to about 1.5e-8 relative, not 1e-10: its log-space
    terms carry the ``lgamma`` error (about 5e-13 absolute near 400)
    times up to 1e6.  That is the worst gap to 40-digit mpmath sums on a
    450-query grid, at ``cimfem ml-eval 0.75 0.5 2 -5 2``.
    """
    if peak > 1e6 * max(abs(total), 1e-300):
        raise MLError(
            "bivariate series loses more than ten digits to cancellation "
            f"(largest term {peak:.3g}, sum {total:.3g})"
        )


def _check_time(t: float) -> None:
    if not 0.0 < t < inf:  # a NaN time fails too
        raise ValueError(f"need finite t > 0, got {t}")


def ml_biv_contour(q: MLQuery, t: float, with_z1_term: bool = False) -> float | np.ndarray:
    """Contour form, valid for ``z1 = -|w1| t**alpha_p`` and ``z2 = -|w2| t**beta_p``.

    Uses the Laplace transform ``z**-gamma / (1 + |w1| z**-alpha_p +
    |w2| z**-beta_p)`` inverted on a dedicated contour optimized for the
    single time ``t`` (window ratio 2).  Requires both arguments
    nonpositive, which is the only case arising from the mode ODE.
    ``q.z2`` may be a 1-D array: every entry shares ``z1`` and ``t``, so
    one contour serves them all and an array of values is returned; a
    scalar ``z2`` gives a float.  With ``with_z1_term`` the value is
    ``E_gamma(z1, z2) - z1 E_{gamma + alpha_p}(z1, z2)``, whose transform
    has the numerator ``z**-gamma (1 + |w1| z**-alpha_p)`` over the same
    denominator.

    With ``a_k = 1 + |w1| z_k**-alpha_p``, ``b_k = z_k**-beta_p`` and the
    node weights ``g_k``, each value is ``sum_k (g_k / b_k) / (a_k / b_k
    + |w2|)``: one outer sum, one reciprocal and one matrix-vector
    product for the whole array of ``z2``.
    """
    _check_time(t)
    z2 = np.asarray(q.z2, dtype=float)
    if q.z1 > 0.0 or np.any(z2 > 0.0):
        raise MLError("contour route requires nonpositive arguments")
    w1 = abs(q.z1) / t**q.alpha_p
    w2 = np.abs(z2) / t**q.beta_p
    quad = quadrature_nodes(optimize_rho(ContourConfig(t0=t, lambda_ratio=2.0), CONTOUR_NODES))
    z, dz = quad.nodes, quad.derivs
    a = 1.0 + w1 * complex_pow(z, -q.alpha_p)
    b = complex_pow(z, -q.beta_p)
    numer = complex_pow(z, -q.gamma) * (a if with_z1_term else 1.0)
    g = np.exp(z * t) * numer * dz
    kernel = np.add.outer(w2, a / b)
    np.reciprocal(kernel, out=kernel)  # in place: a second (len(z2), nodes) array costs more
    sums = kernel @ (g / b)
    value = t ** (1.0 - q.gamma) * quad.params.tau_star / pi * np.imag(sums)
    return float(value) if z2.ndim == 0 else value


def ml_biv(q: MLQuery, t: float | None = None) -> float:
    """Series for small arguments, contour form otherwise.

    The series raises when cancellation eats its accuracy; with a time
    ``t`` available the contour form takes over in that case.  A given
    ``t`` must be finite and positive on either route.
    """
    if t is not None:
        _check_time(t)
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


def mode_value(K: float, beta: float, lam: float | np.ndarray, t: float) -> float | np.ndarray:
    """Solution of ``K v' + d_t^beta v + lam v = 0, v(0) = 1`` at time t.

    For K > 0 the solution is ``E_1 + t**(1-beta)/K E_{2-beta}`` at
    ``(z1, z2) = (-t**(1-beta)/K, -lam t/K)``, one contour sum with the
    numerator ``z**-1 + z**(beta-2)/K``.  At K = 0 the transform is
    ``z**-1 / (1 + lam z**-beta)``, the contour form with ``z1 = 0``,
    ``beta' = beta`` and ``z2 = -lam t**beta``.  ``lam`` may be a scalar
    or an array; all entries share the contour of time ``t``.
    """
    if t == 0.0:
        return np.ones(np.shape(lam))[()]
    lam = np.asarray(lam, dtype=float)
    if K == 0.0:
        return ml_biv_contour(MLQuery(1.0 - beta, beta, 1.0, 0.0, -lam * t**beta), t)
    z1 = -t ** (1.0 - beta) / K
    return ml_biv_contour(MLQuery(1.0 - beta, 1.0, 1.0, z1, -lam * t / K), t, with_z1_term=True)


# The coefficients of a datum never depend on beta, t or the points, so a
# process computes each (datum, j_max) pair once.  Callers share the array,
# hence it is read-only; the bound keeps a sweep over data from holding all.
@lru_cache(maxsize=32)
def _coefficients(mode_coefficients: Callable[[int], float], j_max: int) -> np.ndarray:
    c = np.array([mode_coefficients(j) for j in range(1, j_max + 1)], dtype=float)
    c.flags.writeable = False
    return c


SINE_BLOCK = 32  # modes per block of the sine sum


def _sine_sum(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_j a_j sin(j pi x)``, ``j = 1..len(a)``, blockwise in ``w = exp(i pi x)``.

    With blocks of B modes the sum is ``Im sum_m (w**B)**m S_m``, where
    ``S_m = sum_{b=1..B} a_{mB+b} w**b``.  The powers ``w**1..w**B`` come
    from log2(B) doublings ``w**(k+i) = w**i w**k`` (4x faster than
    ``np.cumprod`` along the block axis, with the same rounding), all
    ``S_m`` from one real GEMM on their float view, and Horner's rule in
    ``w**B`` runs over the blocks.
    """
    block = min(SINE_BLOCK, max(len(a), 1))
    n_blocks = max(-(-len(a) // block), 1)
    coeffs = np.zeros(n_blocks * block)
    coeffs[: len(a)] = a
    powers = np.empty((block, x.size), dtype=complex)  # row i is w**(i+1)
    powers[0] = np.exp(1j * pi * x.ravel())
    k = 1
    while k < block:
        step = min(k, block - k)
        np.multiply(powers[:step], powers[k - 1], out=powers[k : k + step])
        k += step
    sums = (coeffs.reshape(n_blocks, block) @ powers.view(float)).view(complex)
    acc = sums[-1]
    for s_m in sums[-2::-1]:
        acc = acc * powers[-1] + s_m
    return np.imag(acc).reshape(x.shape)


def spectral_reference(sp: SpectralProblem, x: np.ndarray, t: float) -> np.ndarray:
    """Reference solution by eigenfunction expansion.

    Sums modes up to the third consecutive one whose contribution
    ``|c_j| * |v_j(t)|`` is below ``tail_tol`` (decay in j is not
    monotone through zero coefficients); warns if ``j_max`` is reached
    with a contribution that is not small.  The coefficients ``c_j`` are
    computed once per ``(mode_coefficients, j_max)`` and shared, so the
    callable must be hashable and return the same values on every call.
    The mode values of all nonzero coefficients come from one call of
    ``mode_value``, and the sine series is summed by ``_sine_sum``.
    """
    x = np.asarray(x, dtype=float)
    j = np.arange(1, sp.j_max + 1)
    c = _coefficients(sp.mode_coefficients, sp.j_max)
    contrib = np.zeros(sp.j_max)
    nz = c != 0.0
    contrib[nz] = c[nz] * mode_value(sp.K, sp.beta, (j[nz] * pi) ** 2, t)
    small = np.abs(contrib) < sp.tail_tol
    streak = small[:-2] & small[1:-1] & small[2:]
    if np.any(streak):
        stop = int(np.argmax(streak)) + 3
    else:
        stop = sp.j_max
        if not np.any(small[-1:]):  # the last contribution is not small, or there is none
            warnings.warn(f"spectral reference truncated at j_max = {sp.j_max}", stacklevel=2)
    return np.sqrt(2.0) * _sine_sum(contrib[:stop], x)
