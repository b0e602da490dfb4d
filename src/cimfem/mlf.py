"""Bivariate Mittag-Leffler function and spectral reference solutions.

The solution operator of the scalar mode ODE

    K v' + d_t^beta v + lam v = 0,   v(0) = 1,

can be written through the bivariate Mittag-Leffler function

    E_{(a, b), g}(z1, z2) = sum_{k,l >= 0} C(k+l, k) z1^k z2^l / Gamma(a k + b l + g),

evaluated at ``z1 = -t**(1-beta)/K`` and ``z2 = -lam t / K``.  Two
evaluation routes are provided: the double series summed along
anti-diagonals (small arguments) and a contour-integral form of its
Laplace transform (large arguments).  The contour form is written in the
scaled variable ``s = z t``, where it does not depend on ``t``, so one
unit contour per process serves every query; it takes an array of
``z2`` and sums it for all of them in real arithmetic, by one product
of a (len(z2), nodes) matrix with two columns.  ``spectral_reference``
evaluates every mode of a sine eigenbasis that way into closed-form
reference solutions on the unit interval; the datum's coefficients are
computed once per process and the sine series is summed blockwise by
one matrix product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import exp, inf, log, pi
from typing import Callable

import numpy as np

# ``optimize_rho`` and ``quadrature_nodes`` run once per process, in
# ``_unit_contour``.  They are called through this module's names because
# perfbench/tracing.py wraps cross-layer calls by module attribute name and
# expects ``cimfem.mlf.optimize_rho`` and ``cimfem.mlf.quadrature_nodes``.
from .contour import ContourConfig, ContourQuadrature, optimize_rho, quadrature_nodes
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


# Of a window-ratio-2 contour optimized for t, only the scale ``mu ~ 1/t``
# depends on t, so in the variable ``s = z t`` one quadrature serves every
# query.  It is built on the first call, not at import, and its arrays are
# shared read-only.
@lru_cache(maxsize=None)
def _unit_contour() -> ContourQuadrature:
    """The contour route's quadrature for ``t = 1`` (window ratio 2), once per process."""
    quad = quadrature_nodes(optimize_rho(ContourConfig(t0=1.0, lambda_ratio=2.0), CONTOUR_NODES))
    for nodes in (quad.nodes, quad.derivs, quad.phis):
        nodes.flags.writeable = False
    return quad


def ml_biv_contour(q: MLQuery, t: float, with_z1_term: bool = False) -> float | np.ndarray:
    """Contour form of ``E(z1, z2)``, for nonpositive ``z1`` and ``z2``.

    ``E`` does not depend on ``t``: with ``s = z t`` its Laplace-inversion
    integrand is ``e**s s**-gamma / (1 + |z1| s**-alpha_p + |z2|
    s**-beta_p)``, summed on one unit contour per process (``t = 1``,
    window ratio 2).  ``t`` is checked like on the series route but
    changes no value.  Requires both arguments nonpositive, which is the
    only case arising from the mode ODE.  ``q.z2`` may be a 1-D array:
    every entry shares ``z1``, and an array of values is returned; a
    scalar ``z2`` gives a float.  With ``with_z1_term`` the value is
    ``E_gamma(z1, z2) - z1 E_{gamma + alpha_p}(z1, z2)``, whose integrand
    has the numerator ``s**-gamma (1 + |z1| s**-alpha_p)`` over the same
    denominator.

    With ``a_k = 1 + |z1| s_k**-alpha_p``, ``c_k = a_k s_k**beta_p`` and
    ``G_k = e**s_k s_k**(beta_p - gamma) (1 or a_k) s'_k`` at the nodes
    ``s_k``, each value is ``tau/pi Im sum_k G_k / (|z2| + c_k)``, summed
    in real arithmetic: with ``R = |z2| + Re c_k`` and ``D = 1 / (R**2 +
    (Im c_k)**2)`` it is ``|z2| sum_k D Im G_k + sum_k D Im(G_k
    conj(c_k))``, one product of the (len(z2), nodes) matrix D with two
    columns.  Each row of D is scaled by a power of two, so no square
    overflows for any finite ``z2``.
    """
    _check_time(t)
    z2 = np.asarray(q.z2, dtype=float)
    if q.z1 > 0.0 or np.any(z2 > 0.0):
        raise MLError("contour route requires nonpositive arguments")
    quad = _unit_contour()
    s, ds = quad.nodes, quad.derivs
    a = 1.0 + abs(q.z1) * complex_pow(s, -q.alpha_p)
    b = complex_pow(s, -q.beta_p)
    numer = complex_pow(s, -q.gamma) * (a if with_z1_term else 1.0)
    c = a / b
    g = np.exp(s) * numer * ds / b
    w2 = np.abs(z2).reshape(-1)
    # sigma_j, the power of two that brings |z2_j| + max_k |c_k| into [0.5, 1),
    # keeps every square below from overflowing and rounds nothing.  sigma_j R
    # and sigma_j Im c_k come from rank-2 products, which are several times
    # faster than np.add.outer and as exact: each entry is one rounded sum.
    sigma = np.ldexp(1.0, -np.frexp(w2 + np.max(np.abs(c)))[1])
    left = np.stack([sigma * w2, sigma], axis=1)
    d = left @ np.stack([np.ones_like(c.real), c.real])
    y = left @ np.stack([np.zeros_like(c.imag), c.imag])
    np.square(d, out=d)
    np.square(y, out=y)
    d += y
    np.reciprocal(d, out=d)  # sigma_j**2 d is D
    p, r = (d @ np.stack([g.imag, g.imag * c.real - g.real * c.imag], axis=1)).T
    value = (quad.params.tau_star / pi * sigma * (sigma * w2 * p + sigma * r)).reshape(z2.shape)
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
    or an array; all entries share one contour sum.
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
    ``mode_value`` on the one unit contour per process, and the sine
    series is summed by ``_sine_sum``.
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
