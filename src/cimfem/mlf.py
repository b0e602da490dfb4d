"""Bivariate Mittag-Leffler function and spectral reference solutions.

The solution operator of the scalar mode ODE

    K v' + d_t^beta v + lam v = 0,   v(0) = 1,

can be written through the bivariate Mittag-Leffler function

    E_{(a, b), g}(z1, z2) = sum_{k,l >= 0} C(k+l, k) z1^k z2^l / Gamma(a k + b l + g),

evaluated at ``z1 = -t**(1-beta)/K`` and ``z2 = -lam t / K``.  ``E``
itself takes no time.  Two evaluation routes are provided: the double
series summed along anti-diagonals (small arguments) and a
contour-integral form of its Laplace transform (large arguments, and
wherever the series fails), the latter only for ``z1, z2 <= 0`` and
orders at most 1.  The contour form is written in the scaled variable
``s = z t``, where no time is left, so one 48-node unit contour per
process serves every query, and the powers of its nodes are built once
per order triple; it takes an array of ``z2`` and sums it for all of
them in real arithmetic, by one product of a (len(z2), nodes) matrix
with two columns.  That contour is optimized for the s-time window
[1, 2], so one sum also serves every time of a window ``[T, 2 T]``,
with two columns per time: ``mode_value`` takes an array of times and
makes one sum per window.  ``spectral_reference`` evaluates every mode
of a sine eigenbasis that way into closed-form reference solutions on
the unit interval; the datum's coefficients are computed once per
process.  At the interior nodes ``i / M`` of a uniform mesh, where the
reference meets P1 solutions, the sine series folds onto modes 1..M-1
and is one DST-I (``linalg.dst1``); at other points it is one product
of the sine matrix with the coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import exp, inf, isfinite, log, pi, sqrt
from typing import Callable

import numpy as np

# ``optimize_rho`` and ``quadrature_nodes`` run once per process, in
# ``_unit_contour``, and ``complex_pow`` once per order triple, in
# ``_node_factors``.  They are called through this module's names because
# perfbench/tracing.py wraps cross-layer calls by module attribute name and
# expects ``cimfem.mlf.optimize_rho``, ``cimfem.mlf.quadrature_nodes`` and
# ``cimfem.mlf.complex_pow``.
from .contour import ContourConfig, ContourQuadrature, optimize_rho, quadrature_nodes
from .linalg import dst1
from .symbols import check_symbol, complex_pow


class MLError(ArithmeticError):
    """Raised when a Mittag-Leffler evaluation fails to converge."""


SERIES_ARG_LIMIT = 20.0  # switch series -> contour at max(|z1|, |z2|) = 20
SERIES_TOL = 1e-12  # relative size of an anti-diagonal sum counted as small
SERIES_MAX_ORDER = 400  # anti-diagonals summed before the series gives up
# Quadrature nodes of the contour route, a measured count.  At 666 mode values
# of Mesh1D(256) and Mesh1D(2048) (37 eigenvalues s/m up to the largest, K in
# {0, 1, 3}, beta in {0.25, 0.75}, t in {0.1, 0.55, 1}) 48 nodes meet 30-digit
# Talbot inversions to 1.1e-16 absolute and 3.1e-15 relative, as 80 nodes do
# (3.2e-15); 40 reach that floor, 36 give 3.8e-14 and 32 give 2.3e-12.  Over
# orders 0.05-1, gamma 0.1-3, z1 >= -1e4, z2 in [-1e12, -1e-3] and both
# numerators, 48 nodes differ from 80 by at most 5.6e-16 and 56-96 by 7.8e-16.
# ``optimize_rho``'s ``predicted_error``, about 2e-9 at 48 nodes, is an a priori
# estimate for the whole window [1, 2] and far above these errors.  Read at the
# s-times r in [1, 2] of that window (``mode_value`` at an array of times), the
# sum stays within 7.8e-16 absolute of the per-time sums at r = 1 over every
# mode of Mesh1D(256) and Mesh1D(2048), K in {0, 1, 3}, beta in {0.25, 0.5,
# 0.75}, T from 0.05 to 1 and 9 ratios.  Windows [T, 3 T] and [T, 4 T] give
# 7.8e-16 and 1.1e-15 there, but only the design window [1, 2] is covered by
# the optimizer's error analysis, so ``mode_value`` reads its window ratio from
# the contour's configuration and no second ratio exists.
CONTOUR_NODES = 48


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
        if not (all(map(isfinite, scalars)) and np.isfinite(self.z2).all()):  # z2 may be an array
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


# Of a window-ratio-2 contour optimized for t, only the scale ``mu ~ 1/t``
# depends on t, so in the variable ``s = z t`` one quadrature serves every
# query, at every s-time of its window [1, 2].  It is built on the first
# call, not at import, and its arrays are shared read-only.
@lru_cache(maxsize=None)
def _unit_contour() -> ContourQuadrature:
    """The contour route's quadrature for ``t = 1`` (window ratio 2), once per process."""
    quad = quadrature_nodes(optimize_rho(ContourConfig(t0=1.0, lambda_ratio=2.0), CONTOUR_NODES))
    for nodes in (quad.nodes, quad.derivs, quad.phis):
        nodes.flags.writeable = False
    return quad


# The powers of the nodes depend on the orders only, and a sweep asks for a
# few order triples many times; the bound keeps a sweep over orders from
# holding all.  Callers share the arrays, hence they are read-only.
@lru_cache(maxsize=32)
def _node_factors(alpha_p: float, beta_p: float, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``s**-alpha_p``, ``s**beta_p`` and ``tau/pi e**s s**(beta_p - gamma) s'`` at the unit contour's nodes ``s``."""
    quad = _unit_contour()
    s = quad.nodes
    s_beta = complex_pow(s, beta_p)
    weights = quad.params.tau_star / pi * np.exp(s) * quad.derivs
    factors = (complex_pow(s, -alpha_p), s_beta, weights * complex_pow(s, -gamma) * s_beta)
    for f in factors:
        f.flags.writeable = False
    return factors


def ml_biv_contour(
    q: MLQuery, with_z1_term: bool = False, ratios: np.ndarray | None = None
) -> float | np.ndarray:
    """Contour form of ``E(z1, z2)`` for ``z1, z2 <= 0`` and ``alpha_p, beta_p <= 1``.

    With ``s = z t`` the Laplace-inversion integrand of ``E`` is ``e**s
    s**-gamma / (1 + |z1| s**-alpha_p + |z2| s**-beta_p)``, in which no
    time is left; it is summed on one 48-node unit contour per process
    (``t = 1``, window ratio 2).  Requires both arguments nonpositive and both
    orders at most 1, the only case arising from the mode ODE: then the
    denominator has a negative imaginary part everywhere in the open upper
    half-plane, so the integrand has no pole off the negative real axis.
    Beyond order 1 poles can lie to the right of the contour, which the
    sum would miss.  ``q.z2`` may be a 1-D array:
    every entry shares ``z1``, and an array of values is returned; a
    scalar ``z2`` gives a float.  With ``with_z1_term`` the value is
    ``E_gamma(z1, z2) - z1 E_{gamma + alpha_p}(z1, z2)``, whose integrand
    has the numerator ``s**-gamma (1 + |z1| s**-alpha_p)`` over the same
    denominator.

    ``ratios``, an array of s-times r, inverts the same integrand at each
    r instead of at 1, with ``e**(s r)`` for ``e**s``: the values are
    ``r**(gamma - 1) E(r**alpha_p z1, r**beta_p z2)`` (with the z1 term if
    asked), one row of ``z2``'s shape per ratio, in ``ratios``' shape.  So
    with ``z1`` and ``z2`` taken at a time T and ``gamma = 1``, each row is
    the value at the time ``r T``.  The contour is optimized for r in
    [1, 2], its design window, where the error stays at the level of r = 1.

    With ``a_k = 1 + |z1| s_k**-alpha_p``, ``c_k = a_k s_k**beta_p`` and
    ``G_k = tau/pi e**s_k s_k**(beta_p - gamma) (1 or a_k) s'_k`` at the
    nodes ``s_k``, whose powers and weights ``_node_factors`` builds once
    per order triple, each value is ``Im sum_k G_k / (|z2| + c_k)``, summed
    in real arithmetic: with ``R = |z2| + Re c_k`` and ``D = 1 / (R**2 +
    (Im c_k)**2)`` it is ``|z2| sum_k D Im G_k + sum_k D Im(G_k
    conj(c_k))``, one product of the (len(z2), nodes) matrix D with two
    columns.  With ``ratios`` the column ``G_k`` becomes the (nodes,
    ratios) matrix ``G_k e**(s_k (r - 1))`` and the product has two
    columns per ratio; D, the costly part, is built once.  Each row of D
    is scaled by a power of two, so no square overflows for any finite
    ``z2``.

    The error is absolute, about ``1e-16 / |z2|``, not relative.  Where the
    leading term ``1 / (|z2| Gamma(gamma - beta_p))`` of ``E`` vanishes
    (``gamma = beta_p``) and ``|z2|`` is huge, ``E`` falls below that: at
    ``MLQuery(0.5, 1, 1, -30, z2)`` the value 8.463e-16 at ``z2 = -1e8``
    is ``|z1| / (2 sqrt(pi) z2**2)`` to 3e-8, but at ``z2 = -1e20`` it is
    -6.6e-37 where ``E`` is about 8.5e-40, rounding noise of either sign.
    """
    z2 = np.asarray(q.z2, dtype=float)
    if q.z1 > 0.0 or np.any(z2 > 0.0):
        raise MLError("contour route requires nonpositive arguments")
    if q.alpha_p > 1.0 or q.beta_p > 1.0:
        raise MLError(f"contour route requires alpha_p, beta_p <= 1, got {q.alpha_p}, {q.beta_p}")
    s_alpha, s_beta, h = _node_factors(q.alpha_p, q.beta_p, q.gamma)
    a = 1.0 + abs(q.z1) * s_alpha
    c = a * s_beta
    g = (h * a if with_z1_term else h)[:, None]  # one column per time
    if ratios is not None:
        ratios = np.asarray(ratios, dtype=float)
        g = g * np.exp(np.multiply.outer(_unit_contour().nodes, ratios.reshape(-1) - 1.0))
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
    pr = (d @ np.concatenate([g.imag, g.imag * c.real[:, None] - g.real * c.imag[:, None]], axis=1)).T
    p, r = pr[: g.shape[1]], pr[g.shape[1] :]  # one row per time
    value = sigma * (sigma * w2 * p + sigma * r)
    if ratios is not None:
        return value.reshape(ratios.shape + z2.shape)
    value = value.reshape(z2.shape)
    return float(value) if z2.ndim == 0 else value


def ml_biv(q: MLQuery) -> float:
    """Series for ``max(|z1|, |z2|) <= 20``, contour form otherwise where it holds.

    The contour form holds for nonpositive ``z1`` and ``z2`` and
    ``alpha_p, beta_p <= 1``; every other query is summed by the series,
    whose ``MLError`` then propagates.  Where it holds, it also takes over
    when the series fails, by cancellation, overflow or non-convergence.
    """
    contour = q.z1 <= 0.0 and q.z2 <= 0.0 and q.alpha_p <= 1.0 and q.beta_p <= 1.0
    if max(abs(q.z1), abs(q.z2)) <= SERIES_ARG_LIMIT or not contour:
        try:
            return ml_biv_series(q)
        except MLError:
            if not contour:
                raise
    return ml_biv_contour(q)


@dataclass(frozen=True)
class SpectralProblem:
    """Homogeneous transport problem on (0, 1) in the sine eigenbasis.

    ``mode_coefficients(j)`` returns the coefficient of the initial
    datum against the orthonormal eigenfunction ``sqrt(2) sin(j pi x)``.
    ``K`` and ``beta`` obey ``symbols.check_symbol``; ``j_max``
    is an integer >= 1 and ``tail_tol`` finite and nonnegative.
    """

    K: float
    beta: float
    mode_coefficients: Callable[[int], float]
    j_max: int = 2000
    tail_tol: float = 1e-10

    def __post_init__(self) -> None:
        check_symbol(self.K, self.beta)
        if not isinstance(self.j_max, (int, np.integer)) or self.j_max < 1:
            raise ValueError(f"j_max must be an integer >= 1, got {self.j_max!r}")
        if not 0.0 <= self.tail_tol < inf:
            raise ValueError(f"tail_tol must be finite and nonnegative, got {self.tail_tol}")


def mode_value(K: float, beta: float, lam: float | np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """Solution of ``K v' + d_t^beta v + lam v = 0, v(0) = 1`` at the time or times t.

    For K > 0 the solution is ``E_1 + t**(1-beta)/K E_{2-beta}`` at
    ``(z1, z2) = (-t**(1-beta)/K, -lam t/K)``, one contour sum with the
    numerator ``z**-1 + z**(beta-2)/K``.  At K = 0 the transform is
    ``z**-1 / (1 + lam z**-beta)``, the contour form with ``z1 = 0``,
    ``beta' = beta`` and ``z2 = -lam t**beta``.  ``lam`` may be a scalar
    or an array; all entries share one contour sum.

    ``t`` may be a scalar or an array of times; an array gives one row
    of ``lam``'s shape per time, in the input's order and shape.  The
    unit contour is optimized for the s-time window ``[1, lambda_ratio]``
    (ratio 2), so its node values serve every time in ``[T, 2 T]`` when
    ``z1`` and ``z2`` are taken at T: the distinct positive times, sorted,
    are grouped greedily into such windows, each anchored at its smallest
    time, and each window is one ``ml_biv_contour`` sum at the ratios
    ``t / T``.  A time 0 gives ones.  Every ``t`` must be finite and
    nonnegative; ``K`` and ``beta`` obey ``symbols.check_symbol``.
    """
    times = None if np.ndim(t) == 0 else np.asarray(t, dtype=float)
    # a NaN time fails too; a scalar skips the array arithmetic
    if not (0.0 <= t < inf if times is None else np.all((times >= 0.0) & (times < inf))):
        raise ValueError(f"need finite t >= 0, got {t}")
    check_symbol(K, beta)
    lam = np.asarray(lam, dtype=float)
    if times is None:
        return _window_sum(K, beta, lam, t) if t > 0.0 else np.ones(lam.shape)[()]
    ordered, where = np.unique(times.reshape(-1), return_inverse=True)
    values = np.ones(ordered.shape + lam.shape)
    ratio = _unit_contour().params.contour.lambda_ratio
    i = int(np.searchsorted(ordered, 0.0, side="right"))  # a time 0 keeps its ones
    while i < len(ordered):
        anchor = float(ordered[i])
        stop = int(np.searchsorted(ordered, ratio * anchor, side="right"))
        values[i:stop] = _window_sum(K, beta, lam, anchor, ordered[i:stop] / anchor)
        i = stop
    return values[where].reshape(times.shape + lam.shape)


def _window_sum(
    K: float, beta: float, lam: np.ndarray, t: float, ratios: np.ndarray | None = None
) -> float | np.ndarray:
    """``mode_value`` at the positive time t, or with ``ratios`` at the times ``ratios * t``: one contour sum."""
    if K == 0.0:
        return ml_biv_contour(MLQuery(1.0 - beta, beta, 1.0, 0.0, -lam * t**beta), ratios=ratios)
    z1 = -t ** (1.0 - beta) / K
    return ml_biv_contour(MLQuery(1.0 - beta, 1.0, 1.0, z1, -lam * t / K), with_z1_term=True, ratios=ratios)


# The coefficients of a datum never depend on beta, t or the points, so a
# process computes each (datum, j_max) pair once.  Callers share the array,
# hence it is read-only; the bound keeps a sweep over data from holding all.
@lru_cache(maxsize=32)
def _coefficients(mode_coefficients: Callable[[int], float], j_max: int) -> np.ndarray:
    c = np.array([mode_coefficients(j) for j in range(1, j_max + 1)], dtype=float)
    c.flags.writeable = False
    return c


# a point counts as the node i/M when |x_i M - i| <= NODE_TOL i: the nodes of
# Mesh1D(M), arange(1, M) / M and linspace(0, 1, M + 1)[1:-1] stay within
# 1.18 eps i for every M < 5000
NODE_TOL = 4.0 * np.finfo(float).eps


def _sine_sum(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_j a_j sin(j pi x)``, ``j = 1..len(a)``: one DST-I on mesh nodes, else one product.

    If the n flattened points are the interior nodes ``i / M`` of a
    uniform mesh (``M = n + 1``, within ``NODE_TOL``), mode j takes the
    value of mode ``r = j mod 2M`` at every node: it adds ``a_j`` to mode
    r when ``r < M`` and ``-a_j`` to mode ``2M - r`` when ``r > M``, and
    vanishes when r is 0 or M.  The folded coefficients ``b_1..b_n`` give
    the sum as ``sqrt(M / 2) dst1(b)``, one FFT, for any ``len(a)``.

    At any other points it is the (points, modes) sine matrix times ``a``.
    """
    m = x.size + 1
    i = np.arange(1, m)
    if np.all(np.abs(x.ravel() * m - i) <= NODE_TOL * i):
        # s[r] sums the a_j with j = r mod 2M, for r = 0..2M-1
        s = np.zeros((len(a) // (2 * m) + 1) * 2 * m)
        s[1 : len(a) + 1] = a
        s = s.reshape(-1, 2 * m).sum(axis=0)
        return (sqrt(m / 2.0) * dst1(s[1:m] - s[:m:-1]).real).reshape(x.shape)
    return (np.sin(np.outer(x, np.arange(1, len(a) + 1) * pi)) @ a).reshape(x.shape)


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
    series is summed by ``_sine_sum``: one DST-I if ``x`` holds the
    interior nodes ``i / M`` of a uniform mesh in order (any shape), one
    product of the sine matrix otherwise.  ``t`` must be finite and
    nonnegative, as ``mode_value`` checks; at ``t = 0`` the result is the
    partial sum of the datum.
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
