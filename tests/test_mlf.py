"""Bivariate Mittag-Leffler evaluator tests.

Frozen reference values come from a 40-digit arbitrary-precision double
sum computed independently; the contour route is cross-checked against
the series route in the region where both are reliable, and against the
single-mode relaxation ODE integrated with a graded history scheme.
Mode values are also checked against mpmath's Talbot inversion of the
mode's Laplace transform at 30 digits.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

import cimfem.cli
import cimfem.linalg
import cimfem.mlf
import cimfem.symbols
from cimfem.contour import ContourConfig, optimize_rho, quadrature_nodes
from cimfem.fem import Mesh1D, stencil_1d
from cimfem.linalg import toeplitz_eigenvalues
from cimfem.mlf import (
    MLError,
    MLQuery,
    SpectralProblem,
    ml_biv,
    ml_biv_contour,
    ml_biv_series,
    mode_value,
    spectral_reference,
)

# (alpha', beta', gamma, z1, z2) -> value, 40-digit double-sum oracle
FROZEN_SERIES = [
    ((0.5, 1.0, 1.0, -0.3, -0.7), 0.39472116036538535),
    ((0.25, 1.0, 1.75, -1.2, -2.0), 0.29399807248145853),
    ((0.75, 1.0, 2.0, 0.4, -1.5), 0.62301991023507253),
    ((0.5, 1.0, 1.5, -2.0, -3.0), 0.16417168319862503),
]


def series_loop(q):
    """The double series term by term with ``math.lgamma``: its sum and the sum of its terms' magnitudes.

    Anti-diagonals are added until three in a row add less than 1e-20 of
    the magnitudes.
    """
    total = magnitudes = 0.0
    small = 0
    for m in range(1000):
        diagonal = 0.0
        for k in range(m + 1):
            l = m - k
            if (k and q.z1 == 0.0) or (l and q.z2 == 0.0):
                continue
            logmag = math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(l + 1)
            logmag += (k * math.log(abs(q.z1)) if k else 0.0) + (l * math.log(abs(q.z2)) if l else 0.0)
            term = math.exp(logmag - math.lgamma(q.alpha_p * k + q.beta_p * l + q.gamma))
            total += -term if (q.z1 < 0.0 and k % 2) != (q.z2 < 0.0 and l % 2) else term
            diagonal += term
        magnitudes += diagonal
        small = small + 1 if diagonal < 1e-20 * magnitudes else 0
        if small == 3:
            return total, magnitudes
    raise AssertionError("the term-by-term series did not converge")


def per_time_contour(q, t, with_z1_term=False):
    """The contour form on a contour optimized for the time ``t``: its values and the sums of its terms' magnitudes.

    Inverts ``z**-gamma (1 or a) / (a + w2 z**-beta_p)``, ``a = 1 + w1
    z**-alpha_p``, with ``w1 = |z1| / t**alpha_p`` and ``w2 = |z2| /
    t**beta_p``, term by term at the 80 nodes of that contour.
    """
    quad = quadrature_nodes(optimize_rho(ContourConfig(t0=t, lambda_ratio=2.0), 80))
    z, dz = quad.nodes, quad.derivs
    w1 = abs(q.z1) / t**q.alpha_p
    w2 = np.abs(np.atleast_1d(q.z2)) / t**q.beta_p
    a = 1.0 + w1 * z**-q.alpha_p
    numer = z**-q.gamma * (a if with_z1_term else 1.0)
    scale = t ** (1.0 - q.gamma) * quad.params.tau_star / math.pi
    terms = scale * np.exp(z * t) * numer * dz / (a + np.multiply.outer(w2, z**-q.beta_p))
    return np.sum(terms.imag, axis=-1), np.sum(np.abs(terms), axis=-1)


class TestSeries:
    @pytest.mark.parametrize("args,expected", FROZEN_SERIES)
    def test_frozen_values(self, args, expected):
        assert ml_biv_series(MLQuery(*args)) == pytest.approx(expected, rel=1e-12)

    def test_origin_is_reciprocal_gamma(self):
        for g in (1.0, 1.5, 2.0):
            assert ml_biv_series(MLQuery(0.5, 1.0, g, 0.0, 0.0)) == pytest.approx(
                1.0 / math.gamma(g), rel=1e-15
            )

    def test_exponential_reduction(self):
        # z1 = 0, beta' = 1, gamma = 1 collapses to sum w^l / l! = e^w
        for w in (-2.5, -0.3, 1.7):
            assert ml_biv_series(MLQuery(0.5, 1.0, 1.0, 0.0, w)) == pytest.approx(
                math.exp(w), rel=1e-12
            )

    def test_univariate_reduction(self):
        # z2 = 0: one-parameter series, frozen from the same oracle
        assert ml_biv_series(MLQuery(0.5, 1.0, 1.0, -1.1, 0.0)) == pytest.approx(
            0.40173046063649507, rel=1e-12
        )

    def test_cancellation_guard_raises(self):
        # the alternating sum converges, but its largest term dwarfs it by 1e12
        with pytest.raises(MLError, match="cancellation"):
            ml_biv_series(MLQuery(0.5, 1.0, 1.0, -5.0, -10.0))

    def test_order_limit_raises(self):
        # a slowly growing gamma argument: the terms still matter after SERIES_MAX_ORDER anti-diagonals
        with pytest.raises(MLError, match="did not converge"):
            ml_biv_series(MLQuery(0.25, 1.0, 1.0, -3.0, -15.0))

    def test_overflow_guard_raises(self):
        with pytest.raises(MLError, match="overflow"):
            ml_biv_series(MLQuery(0.5, 1.0, 1.0, -400.0, -400.0))

    def test_invalid_query_rejected(self):
        with pytest.raises((MLError, ValueError)):
            MLQuery(-0.5, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises((MLError, ValueError)):
            MLQuery(0.5, 1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("orders", [(0.5, 1.0, 1.0), (0.25, 0.5, 0.5), (0.75, 0.5, 2.0)])
    @pytest.mark.parametrize("z1, z2", [(-1.1, -0.4), (-1.5, 0.0), (0.0, -2.5), (1.5, 2.0), (-1.0, 2.0)])
    def test_matches_the_term_by_term_loop(self, orders, z1, z2):
        # the series stops after anti-diagonals below SERIES_TOL = 1e-12 of its
        # sum, and lgamma carries an absolute error below 5e-13 up to 400
        # (scipy and math alike), four of which enter each term
        value = ml_biv_series(MLQuery(*orders, z1, z2))
        total, magnitudes = series_loop(MLQuery(*orders, z1, z2))
        assert abs(value - total) <= 1e-11 * magnitudes

    @given(
        z1=st.floats(min_value=-1.5, max_value=0.0),
        z2=st.floats(min_value=-1.5, max_value=0.0),
    )
    def test_positive_and_bounded_small_args(self, z1, z2):
        # relaxation kernel values stay in (0, 1] for nonpositive arguments
        val = ml_biv_series(MLQuery(0.5, 1.0, 1.0, z1, z2))
        assert 0.0 < val <= 1.0 + 1e-12


class TestContour:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_overlap_with_series(self, t):
        q = MLQuery(0.5, 1.0, 1.0, -(t ** 0.5), -t)
        s = ml_biv_series(q)
        c = ml_biv_contour(q)
        assert c == pytest.approx(s, rel=1e-8)

    def test_requires_nonpositive_arguments(self):
        with pytest.raises(MLError):
            ml_biv_contour(MLQuery(0.5, 1.0, 1.0, 1.0, -1.0))
        with pytest.raises(MLError):
            ml_biv_contour(MLQuery(0.5, 1.0, 1.0, -1.0, np.array([-1.0, 0.5])))

    def test_requires_orders_at_most_one(self):
        # beyond order 1 the integrand has poles right of the contour
        with pytest.raises(MLError, match="requires alpha_p, beta_p <= 1"):
            ml_biv_contour(MLQuery(2.0, 1.0, 1.0, -30.0, -1.0))

    @pytest.mark.parametrize("t", [0.1, 1.0, 7.0])
    def test_array_matches_scalar(self, t):
        # one contour for all z2 gives each entry's scalar value
        z2 = -np.geomspace(1e-3, 1e6, 40) * t
        q = MLQuery(0.5, 1.0, 1.5, -(t ** 0.5), z2)
        values = ml_biv_contour(q)
        assert values.shape == z2.shape
        scalar = [ml_biv_contour(MLQuery(0.5, 1.0, 1.5, -(t ** 0.5), float(w))) for w in z2]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_allclose(values, scalar, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("K", [0.0, 1.0])
    @pytest.mark.parametrize("beta,t", [(0.25, 0.1), (0.5, 1.0), (0.75, 5.0)])
    def test_array_matches_scalar_up_to_the_largest_modes(self, beta, t, K):
        # the queries of mode_value for lam = pi^2 .. (20000 pi)^2, where |w2| dwarfs a_k / b_k:
        # without the z1 term at K = 0, with it at K > 0.  (E_1 alone at K > 0 is a
        # 1/lam^2 remainder of terms of size 1/lam, so its last digits follow the summation order.)
        lam = np.geomspace(1.0, 20000.0, 60) ** 2 * math.pi**2
        if K == 0.0:
            query = lambda z2: MLQuery(1.0 - beta, beta, 1.0, 0.0, z2)
            z2 = -lam * t**beta
        else:
            query = lambda z2: MLQuery(1.0 - beta, 1.0, 1.0, -(t ** (1.0 - beta)) / K, z2)
            z2 = -lam * t / K
        with_z1_term = K > 0.0
        values = ml_biv_contour(query(z2), with_z1_term)
        scalar = [ml_biv_contour(query(float(w)), with_z1_term) for w in z2]
        np.testing.assert_allclose(values, scalar, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("t", [0.01, 0.3, 1.0, 7.0, 100.0])
    @pytest.mark.parametrize("with_z1_term", [False, True])
    @pytest.mark.parametrize(
        "orders, w1",
        [((0.5, 1.0, 1.0), 1.0), ((0.25, 1.0, 1.75), 20.0), ((0.75, 0.5, 2.0), 0.7), ((0.9, 0.3, 0.6), 3.0),
         ((0.5, 0.5, 1.0), 0.0), ((0.25, 0.75, 1.0), 0.0)],  # the last two as mode_value asks at K = 0
    )
    def test_matches_the_contour_of_each_time(self, orders, w1, with_z1_term, t):
        # both sums reach round-off, on the 48-node unit contour (|s| <= 70) and
        # on the 80-node contour of t (|z t| <= 103), where a node's e^(z t)
        # carries up to 103 eps = 2.3e-14 relative; the bound allows twice that
        # of the summed term magnitudes (the largest gap measured is 6.0e-16)
        ap, bp, _ = orders
        q = MLQuery(*orders, -w1 * t**ap, -np.geomspace(1e-3, 1e8, 30) * t**bp)
        expected, magnitudes = per_time_contour(q, t, with_z1_term)
        value = ml_biv_contour(q, with_z1_term)
        assert np.all(np.abs(value - expected) <= 5e-14 * magnitudes)

    @pytest.mark.parametrize("with_z1_term", [False, True])
    @pytest.mark.parametrize(
        "orders, w1", [((0.25, 1.0, 1.75), 1.2), ((0.75, 0.5, 2.0), 0.7), ((0.9, 0.3, 0.6), 3.0), ((0.5, 0.5, 1.0), 0.0)]
    )
    def test_ratios_invert_at_later_s_times(self, orders, w1, with_z1_term):
        # inverting at s-time r is r**(gamma - 1) times the value at (r**alpha' z1, r**beta' z2)
        # (measured gap 6.7e-16 over r in the design window [1, 2])
        ap, bp, g = orders
        z2, r = -np.geomspace(1e-3, 1e8, 30), np.array([1.0, 1.3, 1.7, 2.0])
        values = ml_biv_contour(MLQuery(*orders, -w1, z2), with_z1_term, ratios=r)
        assert values.shape == (4, 30)
        each = [x ** (g - 1.0) * ml_biv_contour(MLQuery(*orders, -w1 * x**ap, z2 * x**bp), with_z1_term) for x in r]
        np.testing.assert_allclose(values, each, rtol=0.0, atol=2e-15)

    def test_searches_the_contour_once_per_process(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return optimize_rho(*args)

        monkeypatch.setattr(cimfem.mlf, "optimize_rho", counted)
        cimfem.mlf._unit_contour.cache_clear()
        cimfem.mlf._node_factors.cache_clear()  # built from the contour
        sp = SpectralProblem(K=1.0, beta=0.5, mode_coefficients=lambda j: 1.0 if j <= 3 else 0.0, j_max=10)
        x = np.linspace(0.0, 1.0, 5)
        spectral_reference(sp, x, 0.1)
        spectral_reference(sp, x, 3.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("z2", [-1e160, -1e300])
    @pytest.mark.parametrize("gamma", [1.5, 2.0])
    def test_huge_z2_is_finite_and_asymptotic(self, z2, gamma):
        # E ~ 1 / (|z2| Gamma(gamma - beta')) as z2 -> -inf; the square of
        # |z2| + Re c_k would overflow unless its row is scaled
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ml_biv_contour(MLQuery(0.5, 1.0, gamma, -3.0, z2))
        assert math.isfinite(value)
        assert value * abs(z2) * math.gamma(gamma - 1.0) == pytest.approx(1.0, rel=1e-12)


    @pytest.mark.parametrize("z2", [-1e20, -1e80, -1e160, -1e300])
    def test_error_is_absolute_where_the_leading_term_vanishes(self, z2):
        # gamma = beta' drops the 1/|z2| term; E ~ |z1| / (2 sqrt(pi) z2^2) is
        # below the route's absolute error of about 1e-16 / |z2|
        value = ml_biv_contour(MLQuery(0.5, 1.0, 1.0, -30.0, z2))
        assert abs(value) <= 1e-15 / abs(z2)

    def test_second_asymptotic_term_where_it_is_resolved(self):
        z1, z2 = -30.0, -1e8
        value = ml_biv_contour(MLQuery(0.5, 1.0, 1.0, z1, z2))
        assert value == pytest.approx(abs(z1) / (2.0 * math.sqrt(math.pi) * z2**2), rel=1e-3)


class TestDispatch:
    def test_falls_back_to_contour_on_cancellation(self):
        # same query the series rejects; the contour route gives a value
        t = 15.0
        q = MLQuery(0.25, 1.0, 1.0, -(t ** 0.25), -t)
        val = ml_biv(q)
        assert 0.0 < val < 1.0

    # 80-digit mpmath sums of the double series; the contour route once
    # returned 1.35e-14, -1.2079e-2 and -6.955e-2 here
    @pytest.mark.parametrize(
        "args, value",
        [
            ((2.0, 1.0, 1.0, -30.0, -1.0), 0.4508420107255857031),
            ((1.5, 1.0, 1.0, -30.0, -1.0), -0.012123462363649397876),
            ((0.5, 1.9, 1.0, -3.0, -30.0), -0.066999633378885392746),
        ],
    )
    def test_orders_above_one_take_the_series(self, args, value):
        assert ml_biv(MLQuery(*args)) == pytest.approx(value, rel=1.5e-8)

    @pytest.mark.parametrize(
        "args", [(0.25, 1.0, 1.0, 3.0, -15.0), (2.0, 1.0, 1.0, -400.0, -400.0)], ids=["positive-z1", "order-above-one"]
    )
    def test_series_failure_outside_the_contour_region_propagates(self, args):
        with pytest.raises(MLError, match="did not converge"):
            ml_biv(MLQuery(*args))

    @pytest.mark.parametrize(
        "args, reason",
        [((0.5, 1.0, 1.0, -30.0, -60.0), "did not converge"), ((0.9, 0.5, 1.0, -2.0, -400.0), "overflow")],
    )
    def test_contour_takes_over_where_the_series_fails(self, args, reason):
        # both queries lie in the contour route's region, so a value comes back
        q = MLQuery(*args)
        with pytest.raises(MLError, match=reason):
            ml_biv_series(q)
        value = ml_biv(q)
        assert value == ml_biv_contour(q)
        assert math.isfinite(value)

    @pytest.mark.parametrize("t", [0.0, -2.0, math.nan, math.inf])
    @pytest.mark.parametrize("z", [-1.0, -30.0], ids=["series", "contour"])
    def test_time_must_be_positive_on_both_routes(self, z, t):
        # E takes no time; ml-eval checks an optional t as outside input, on either route
        with pytest.raises(ValueError, match="need finite t > 0"):
            cimfem.cli._ml_value(f"0.5 1 1 {z} {2.0 * z} {t}")

    def test_decay_bound_sweep(self):
        # |E(w1 t^a, w2 t^b)| * (1 + |w2 t^b|) stays O(1) for all t
        worst = 0.0
        for beta in (0.25, 0.5, 0.75):
            ap = 1.0 - beta
            for w1, w2 in ((-1.0, -1.0), (-2.0, -5.0)):
                for t in np.geomspace(0.01, 100.0, 10):
                    q = MLQuery(ap, 1.0, 1.0, w1 * t ** ap, w2 * t)
                    val = ml_biv(q)
                    worst = max(worst, abs(val) * (1.0 + abs(w2) * t))
        assert worst <= 10.0

    def test_integrated_shift_identity(self):
        # int_0^t E_gamma(w1 s^a, w2 s^b) s^(gamma-1) ds
        #     = t^gamma E_{gamma+1}(w1 t^a, w2 t^b)
        ap, bp, g = 0.5, 1.0, 1.0
        w1, w2 = -1.0, -2.0
        t = 1.3

        def integrand(s):
            return ml_biv(MLQuery(ap, bp, g, w1 * s ** ap, w2 * s ** bp)) * s ** (g - 1.0)

        lhs, _ = quad(integrand, 0.0, t, limit=200)
        rhs = t ** g * ml_biv(MLQuery(ap, bp, g + 1.0, w1 * t ** ap, w2 * t ** bp))
        assert lhs == pytest.approx(rhs, abs=1e-6)


def _talbot_mode_value(mpmath, K, beta, lam, t):
    """v(t) from the mode's transform (K + z^(beta-1)) / (K z + z^beta + lam)."""
    K, beta, lam = mpmath.mpf(K), mpmath.mpf(beta), mpmath.mpf(lam)
    transform = lambda z: (K + z ** (beta - 1)) / (K * z + z**beta + lam)
    return float(mpmath.invertlaplace(transform, t, method="talbot"))


def mesh_modes(m):
    """The eigenvalues ``s_j / m_j`` of the P1 pencil of ``Mesh1D(m)``, the modes of the 1-D temporal reference."""
    mesh = Mesh1D(m)
    (m_diag, m_off), (s_diag, s_off) = stencil_1d(mesh)
    s, mass = (toeplitz_eigenvalues(d, o, mesh.ndof) for d, o in ((s_diag, s_off), (m_diag, m_off)))
    return s / mass


class TestModeAndSpectral:
    def test_mode_value_initial_condition(self):
        assert mode_value(1.0, 0.5, math.pi ** 2, 0.0) == 1.0
        np.testing.assert_array_equal(mode_value(1.0, 0.5, np.array([1.0, 4.0]), 0.0), [1.0, 1.0])

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_mode_value_against_talbot(self, beta, t):
        mpmath = pytest.importorskip("mpmath")
        lam = (np.arange(1, 11) * math.pi) ** 2
        with mpmath.workdps(30):
            expected = [_talbot_mode_value(mpmath, 1.0, beta, float(x), t) for x in lam]
        values = mode_value(1.0, beta, lam, t)
        assert np.max(np.abs(values - expected)) <= 1e-15
        assert mode_value(1.0, beta, float(lam[0]), t) == pytest.approx(values[0], rel=1e-14)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_mode_value_without_first_order_term_against_talbot(self, beta, t):
        # K = 0: the transform is z^(beta-1) / (z^beta + lam)
        mpmath = pytest.importorskip("mpmath")
        lam = (np.arange(1, 11) * math.pi) ** 2
        with mpmath.workdps(30):
            expected = [_talbot_mode_value(mpmath, 0.0, beta, float(x), t) for x in lam]
        values = mode_value(0.0, beta, lam, t)
        assert np.max(np.abs(values - expected)) <= 1e-15
        assert type(mode_value(0.0, beta, float(lam[0]), t)) is float

    def test_mode_value_against_talbot_at_the_modes_of_the_meshes(self):
        # the node count against an independent inversion, at the modes the 1-D
        # temporal reference asks for: s/m of Mesh1D(256) and Mesh1D(2048) up to
        # the largest.  At 20 digits Talbot gives the same doubles as at 30 here.
        # 1e-14 relative is the modal reference's bound, 3x the 3.1e-15 measured.
        mpmath = pytest.importorskip("mpmath")
        lam = np.concatenate([mesh_modes(256)[[0, -1]], mesh_modes(2048)[[255, -1]]])
        for K, beta, t in itertools.product([0.0, 1.0, 3.0], [0.25, 0.75], [0.1, 0.55, 1.0]):
            with mpmath.workdps(20):
                expected = np.array([_talbot_mode_value(mpmath, K, beta, float(x), t) for x in lam])
            gap = np.abs(mode_value(K, beta, lam, t) - expected)
            assert np.max(gap) <= 1e-15
            assert np.max(gap / np.abs(expected)) <= 1e-14

    @pytest.mark.parametrize(
        "K, beta, t, message",
        [
            (1.0, 0.5, math.nan, "need finite t"),
            (-1.0, 0.5, math.nan, "need finite t"),  # t is checked first
            (1.0, 0.5, math.inf, "need finite t"),
            (1.0, 0.5, -0.1, "need finite t"),
            (-1.0, 0.5, 0.5, "K must be finite and nonnegative"),
            (math.nan, 0.5, 0.5, "K must be finite and nonnegative"),
            (-1.0, 0.5, 0.0, "K must be finite and nonnegative"),
            (1.0, 1.5, 0.5, r"beta must lie in \(0, 1\)"),
            (0.0, 1.0, 0.5, r"beta must lie in \(0, 1\)"),
            (1.0, 0.0, 0.5, r"beta must lie in \(0, 1\)"),
        ],
    )
    def test_mode_value_names_its_bad_input(self, K, beta, t, message):
        with pytest.raises(ValueError, match=message):
            mode_value(K, beta, [1.0, 4.0], t)

    @pytest.mark.parametrize("beta", [0.25, 0.75])
    def test_z1_term_is_the_two_gamma_combination(self, beta):
        # E_g - z1 E_{g + alpha'} from one numerator equals the two separate contour sums
        t, z1, z2 = 0.4, -(0.4 ** (1.0 - beta)) / 2.0, -np.array([1.0, 30.0, 900.0]) * 0.4 / 2.0
        q = MLQuery(1.0 - beta, 1.0, 1.0, z1, z2)
        shifted = MLQuery(1.0 - beta, 1.0, 2.0 - beta, z1, z2)
        expected = ml_biv_contour(q) - z1 * ml_biv_contour(shifted)
        np.testing.assert_allclose(ml_biv_contour(q, with_z1_term=True), expected, rtol=1e-13, atol=1e-16)

    def test_mode_value_against_history_stepping(self):
        # independent oracle: backward-Euler step of K v' + d_t^beta v + lam v = 0
        # with an L1 discretization of the fractional history term
        K, beta, lam, t_end = 1.0, 0.5, math.pi ** 2, 0.5
        n = 4000
        dt = t_end / n
        c = dt ** (-beta) / math.gamma(2.0 - beta)
        w = (np.arange(1, n + 1) ** (1.0 - beta)) - (np.arange(n) ** (1.0 - beta))
        v = np.empty(n + 1)
        v[0] = 1.0
        for m in range(1, n + 1):
            hist = 0.0
            if m > 1:
                dw = w[1:m] - w[: m - 1]
                hist = float(np.dot(dw, v[m - 1 : 0 : -1]))
            rhs = K / dt * v[m - 1] - c * hist + c * w[m - 1] * v[0]
            v[m] = rhs / (K / dt + c * w[0] + lam)
        assert mode_value(K, beta, lam, t_end) == pytest.approx(v[-1], abs=2e-3)

    def test_mode_value_decays(self):
        vals = [mode_value(1.0, 0.5, math.pi ** 2, t) for t in (0.1, 0.5, 2.0, 10.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_spectral_reference_at_zero_is_partial_sum(self):
        coeffs = lambda j: 1.0 / j ** 2 if j <= 5 else 0.0
        sp = SpectralProblem(K=1.0, beta=0.5, mode_coefficients=coeffs, j_max=50)
        x = np.linspace(0.0, 1.0, 11)
        expected = sum(
            coeffs(j) * math.sqrt(2.0) * np.sin(j * math.pi * x) for j in range(1, 6)
        )
        assert np.allclose(spectral_reference(sp, x, 0.0), expected, atol=1e-14)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("j_max", -3, "j_max must be an integer >= 1"),
            ("j_max", 0, "j_max must be an integer >= 1"),
            ("j_max", 2.5, "j_max must be an integer >= 1"),
            ("beta", 1.5, r"beta must lie in \(0, 1\)"),
            ("beta", 0.0, r"beta must lie in \(0, 1\)"),
            ("K", -1.0, "K must be finite and nonnegative"),
            ("K", math.nan, "K must be finite and nonnegative"),
            ("tail_tol", -1e-10, "tail_tol must be finite and nonnegative"),
            ("tail_tol", math.inf, "tail_tol must be finite and nonnegative"),
        ],
    )
    def test_problem_checks_its_fields(self, field, value, message):
        fields = dict(K=1.0, beta=0.5, mode_coefficients=lambda j: 1.0, j_max=10, tail_tol=1e-10)
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            SpectralProblem(**fields)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.1])
    def test_spectral_reference_rejects_a_bad_time(self, t):
        sp = SpectralProblem(K=1.0, beta=0.5, mode_coefficients=lambda j: 1.0, j_max=10)
        with pytest.raises(ValueError, match="need finite t >= 0"):
            spectral_reference(sp, np.linspace(0.0, 1.0, 5), t)

    def test_single_mode_monotone_decay(self):
        sp = SpectralProblem(
            K=1.0, beta=0.5, mode_coefficients=lambda j: 1.0 if j == 1 else 0.0, j_max=10
        )
        x = np.array([0.5])
        vals = [float(spectral_reference(sp, x, t)[0]) for t in np.linspace(0.1, 10.0, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @staticmethod
    def _reference(coeffs, j_max, t, x):
        sp = SpectralProblem(K=1.0, beta=0.5, mode_coefficients=coeffs, j_max=j_max)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            u = spectral_reference(sp, x, t)
        return u, [str(w.message) for w in caught]

    def test_stops_after_three_small_contributions(self):
        # modes 7.. come after a streak of three zero coefficients: not summed, no warning
        coeffs = lambda j: 1.0 if j <= 3 or j >= 7 else 0.0
        x = np.linspace(0.0, 1.0, 9)
        u, caught = self._reference(coeffs, 20, 0.0, x)
        expected = sum(math.sqrt(2.0) * np.sin(j * math.pi * x) for j in range(1, 4))
        assert caught == []
        assert np.allclose(u, expected, atol=1e-14)

    def test_warns_when_truncated_at_j_max(self):
        x = np.linspace(0.0, 1.0, 9)
        u, caught = self._reference(lambda j: 1.0 / j, 6, 0.1, x)
        assert caught == ["spectral reference truncated at j_max = 6"]
        v = [mode_value(1.0, 0.5, (j * math.pi) ** 2, 0.1) for j in range(1, 7)]
        expected = sum(v[j - 1] / j * math.sqrt(2.0) * np.sin(j * math.pi * x) for j in range(1, 7))
        assert np.allclose(u, expected, rtol=1e-13, atol=1e-14)

    def test_no_warning_when_last_contribution_is_small(self):
        # no streak of three before j_max, but the last mode is negligible
        coeffs = lambda j: 1.0 if j <= 8 else 0.0
        x = np.linspace(0.0, 1.0, 9)
        u, caught = self._reference(coeffs, 10, 0.0, x)
        assert caught == []
        expected = sum(math.sqrt(2.0) * np.sin(j * math.pi * x) for j in range(1, 9))
        assert np.allclose(u, expected, atol=1e-14)


def _rgamma(x):
    """1 / Gamma(x), which is 0 at the poles x = 0, -1, -2, ..."""
    return 0.0 if x <= 0.0 and x == int(x) else 1.0 / math.gamma(x)


class TestCrossover:
    """The paper's crossover on one mode, ``K v' + d_t^beta v + lam v = 0``, ``v(0) = 1``, ``lam = pi^2``.

    From ``V(z) = 1/z - lam / (z (K z + z^beta + lam))``: expanded for large
    z, ``V`` gives normal diffusion as t -> 0 (K > 0); expanded for small z,
    it gives the subdiffusive tail ``t^-beta / (lam Gamma(1 - beta))``; at
    K = 0 it is ``E_beta(-lam t^beta)`` and there is no normal regime.  Each
    tolerance is twice the magnitude of the written-out correction terms, so
    the terms left out get as much room again, plus ``ROUND / t^p`` for the
    rounding of ``v`` (its distance to Talbot is below ``ROUND`` above).
    """

    LAM = math.pi**2
    ROUND = 1e-15

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("t", [1e-8, 1e-6])
    def test_normal_diffusion_as_t_goes_to_zero(self, beta, t):
        # (1 - v)/t = lam/K - lam t^(1-beta) / (K^2 Gamma(3-beta)) - lam^2 t / (2 K^2)
        #             + lam t^(2-2 beta) / (K^3 Gamma(4-2 beta)) + ...
        K, lam = 1.0, self.LAM
        gap = (1.0 - mode_value(K, beta, lam, t)) / t - lam / K
        terms = (
            lam * t ** (1.0 - beta) / (K**2 * math.gamma(3.0 - beta))
            + lam**2 * t / (2.0 * K**2)
            + lam * t ** (2.0 - 2.0 * beta) / (K**3 * math.gamma(4.0 - 2.0 * beta))
        )
        assert abs(gap) <= 2.0 * terms + self.ROUND / t

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("t", [1e3, 1e5])
    def test_subdiffusive_tail_as_t_goes_to_infinity(self, beta, t):
        # v t^beta lam Gamma(1-beta) = 1 - Gamma(1-beta) / (lam Gamma(1-2 beta)) t^-beta
        #     - 2 K Gamma(1-beta) / (lam Gamma(-beta)) t^-1 + Gamma(1-beta) / (lam^2 Gamma(1-3 beta)) t^-2beta + ...
        # (the t^-beta term vanishes at beta = 1/2, where 1 - 2 beta is a pole of Gamma)
        K, lam = 1.0, self.LAM
        scale = t**beta * lam * math.gamma(1.0 - beta)
        gap = mode_value(K, beta, lam, t) * scale - 1.0
        g = math.gamma(1.0 - beta)
        terms = (
            abs(g * _rgamma(1.0 - 2.0 * beta) / lam) * t**-beta
            + abs(2.0 * K * g * _rgamma(-beta) / lam) / t
            + abs(g * _rgamma(1.0 - 3.0 * beta) / lam**2) * t ** (-2.0 * beta)
        )
        assert abs(gap) <= 2.0 * terms + self.ROUND * scale

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("t_beta", [1e-2, 1e-3])
    def test_no_normal_regime_without_the_first_order_term(self, beta, t_beta):
        # K = 0: v = E_beta(-lam t^beta), so (1 - v)/t^beta = lam/Gamma(1+beta) - lam^2 t^beta/Gamma(1+2 beta) + ...
        lam = self.LAM
        t = t_beta ** (1.0 / beta)
        gap = (1.0 - mode_value(0.0, beta, lam, t)) / t_beta - lam / math.gamma(1.0 + beta)
        terms = lam**2 * t_beta / math.gamma(1.0 + 2.0 * beta) + lam**3 * t_beta**2 / math.gamma(1.0 + 3.0 * beta)
        assert abs(gap) <= 2.0 * terms + self.ROUND / t_beta

    @pytest.mark.parametrize(
        "K, beta, t", [(1.0, 0.5, 1e-6), (1.0, 0.25, 1e5), (1.0, 0.75, 1e3), (0.0, 0.25, 1e-12)]
    )
    def test_mode_values_of_the_regimes_against_talbot(self, K, beta, t):
        # mode_value and the solver share optimize_rho; Talbot shares nothing.
        # The bounds are those of the mesh-mode check above.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            expected = _talbot_mode_value(mpmath, K, beta, self.LAM, t)
        gap = abs(mode_value(K, beta, self.LAM, t) - expected)
        assert gap <= 1e-15
        assert gap <= 1e-14 * abs(expected)


def counted_contour_sums(monkeypatch):
    """Patch ``cimfem.mlf.ml_biv_contour`` to record each call; returns the list of calls."""
    calls = []
    contour = cimfem.mlf.ml_biv_contour

    def counted(*args, **kwargs):
        calls.append(args)
        return contour(*args, **kwargs)

    monkeypatch.setattr(cimfem.mlf, "ml_biv_contour", counted)
    return calls


class TestTimeWindows:
    """``mode_value`` at an array of times: one unit-contour sum per window [T, 2T]."""

    @pytest.mark.parametrize("K", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("beta", [0.25, 0.75])
    @pytest.mark.parametrize("T", [0.05, 0.3, 1.0])
    def test_matches_the_call_of_each_time(self, monkeypatch, K, beta, T):
        # every mode of Mesh1D(256) and the top of Mesh1D(2048), at 5 times of one
        # window; both numerators (K = 0 and K > 0).  Measured up to 7.8e-16.
        lam = np.concatenate([mesh_modes(256), mesh_modes(2048)[-3:]])
        times = T * np.linspace(1.0, 2.0, 5)
        each = np.array([mode_value(K, beta, lam, float(t)) for t in times])
        calls = counted_contour_sums(monkeypatch)
        values = mode_value(K, beta, lam, times)
        assert len(calls) == 1
        assert values.shape == each.shape
        assert np.max(np.abs(values - each)) <= 1e-15

    @pytest.mark.parametrize("K", [0.0, 1.0])
    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_far_end_of_a_window_against_talbot(self, monkeypatch, K, beta):
        # t = 0.2 is read off the sum anchored at T = 0.1, at the end of the design window
        mpmath = pytest.importorskip("mpmath")
        lam = (np.arange(1, 11) * math.pi) ** 2
        with mpmath.workdps(30):
            expected = [_talbot_mode_value(mpmath, K, beta, float(x), 0.2) for x in lam]
        calls = counted_contour_sums(monkeypatch)
        values = mode_value(K, beta, lam, [0.1, 0.2])[1]
        assert len(calls) == 1
        assert np.max(np.abs(values - expected)) <= 1e-15

    @pytest.mark.parametrize("K", [0.0, 1.0])
    @pytest.mark.parametrize("t", [0.1, 0.55, 1.0])
    def test_one_time_is_the_scalar_call_bit_for_bit(self, K, t):
        lam = mesh_modes(64)
        np.testing.assert_array_equal(mode_value(K, 0.5, lam, [t])[0], mode_value(K, 0.5, lam, t))
        assert mode_value(K, 0.5, 9.87, np.array([t])).shape == (1,)
        assert mode_value(K, 0.5, 9.87, [t])[0] == mode_value(K, 0.5, 9.87, t)

    def test_windows_are_anchored_greedily(self, monkeypatch):
        # [0.1, 0.2], [0.21, 0.4], [0.5, 1]: ratios read from the unit contour's window
        calls = counted_contour_sums(monkeypatch)
        mode_value(1.0, 0.5, [10.0, 40.0], [0.1, 0.15, 0.2, 0.21, 0.4, 0.5, 1.0])
        assert len(calls) == 3

    @pytest.mark.parametrize("t", [[0.5, math.nan], [math.inf, 0.5], [0.5, -0.1], [[0.2], [-math.inf]]])
    def test_any_bad_time_is_named(self, t):
        with pytest.raises(ValueError, match="need finite t"):
            mode_value(1.0, 0.5, [1.0, 4.0], t)

    def test_zero_times_give_rows_of_ones(self, monkeypatch):
        lam = np.array([1.0, 4.0, 9.0])
        values = mode_value(1.0, 0.5, lam, [0.0, 0.3, 0.0])
        np.testing.assert_array_equal(values[[0, 2]], np.ones((2, 3)))
        np.testing.assert_array_equal(values[1], mode_value(1.0, 0.5, lam, 0.3))
        calls = counted_contour_sums(monkeypatch)
        np.testing.assert_array_equal(mode_value(0.0, 0.5, lam, [0.0, 0.0]), np.ones((2, 3)))
        assert calls == []

    def test_input_order_and_shape(self):
        # the windows depend only on the distinct times, so order and repetition change no bit
        lam = mesh_modes(32)
        times = np.array([0.7, 0.1, 0.7, 0.25, 0.1, 0.0])
        values = mode_value(1.0, 0.5, lam, times)
        assert values.shape == (6, 31)
        order = np.argsort(times)
        np.testing.assert_array_equal(values[order], mode_value(1.0, 0.5, lam, times[order]))
        np.testing.assert_array_equal(values[0], values[2])
        each = np.array([mode_value(1.0, 0.5, lam, t) for t in times])
        assert np.max(np.abs(values - each)) <= 1e-15
        grid = mode_value(1.0, 0.5, lam, times.reshape(2, 3))
        assert grid.shape == (2, 3, 31)
        np.testing.assert_array_equal(grid.reshape(6, 31), values)


class TestSineSum:
    """The sine sum, off and on nodal grids, against the sine matrix built from ``np.sin``.

    Off the grids the sum is that product itself; on them it is a folded DST-I.
    """

    @pytest.mark.parametrize("J", [1, 2, 31, 32, 33, 500, 20000])
    def test_matches_direct_sine_product(self, J):
        rng = np.random.default_rng(J)
        a = rng.standard_normal(J)
        x = np.concatenate([[0.0, 1.0], rng.random(127)])
        direct = np.sin(np.outer(x, np.arange(1, J + 1) * math.pi)) @ a
        summed = cimfem.mlf._sine_sum(a, x)
        assert summed.shape == x.shape
        assert np.max(np.abs(summed - direct)) <= 1e-13 * np.sum(np.abs(a))

    def test_keeps_the_shape_of_the_points(self):
        a = np.array([1.0, -0.5, 0.25])
        x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        direct = sum(c * np.sin((j + 1) * math.pi * x) for j, c in enumerate(a))
        np.testing.assert_allclose(cimfem.mlf._sine_sum(a, x), direct, rtol=0.0, atol=1e-15)

    @staticmethod
    def _at_exact_nodes(a, m):
        # sin(j pi i / M) at the exact nodes: the argument reduced mod 2M in integers
        i, j = np.arange(1, m), np.arange(1, len(a) + 1)
        return np.sin(np.pi * (np.outer(i, j) % (2 * m)) / m) @ a

    @pytest.mark.parametrize("m", [2, 3, 1000, 1024])
    @pytest.mark.parametrize("grid", ["mesh", "arange"])
    def test_nodal_grid_matches_the_exact_nodes(self, m, grid):
        x = Mesh1D(m).nodes if grid == "mesh" else np.arange(1, m) / m
        for J in sorted({1, m - 2, m - 1, m, m + 1, 2 * m, 5 * m // 2}):
            a = np.random.default_rng(J).standard_normal(J)
            summed = cimfem.mlf._sine_sum(a, x)
            assert summed.shape == x.shape
            assert np.max(np.abs(summed - self._at_exact_nodes(a, m))) <= 1e-13 * np.sum(np.abs(a))

    @pytest.mark.parametrize("shape", [(1,), (3, 5), (5, 3, 1)])
    def test_nodal_grid_keeps_its_shape(self, shape):
        # x = [0.5] is the one interior node of M = 2
        m = math.prod(shape) + 1
        x = (np.arange(1, m) / m).reshape(shape)
        a = np.random.default_rng(m).standard_normal(3 * m)
        summed = cimfem.mlf._sine_sum(a, x)
        assert summed.shape == shape
        assert np.max(np.abs(summed.ravel() - self._at_exact_nodes(a, m))) <= 1e-13 * np.sum(np.abs(a))

    def test_dst_only_on_a_nodal_grid(self, monkeypatch):
        calls = []

        def counted(b):
            calls.append(b.shape)
            return cimfem.linalg.dst1(b)

        monkeypatch.setattr(cimfem.mlf, "dst1", counted)
        a = np.random.default_rng(1).standard_normal(300)
        x = Mesh1D(256).nodes
        on_grid = cimfem.mlf._sine_sum(a, x)
        assert calls == [(255,)]
        off_grid = cimfem.mlf._sine_sum(a, x + 1e-9)
        assert calls == [(255,)]
        # the sine product, taken off the grid, moves by about 1e-9 sum_j j pi |a_j|
        assert np.max(np.abs(off_grid - on_grid)) <= 1e-9 * np.pi * np.sum(np.arange(1, 301) * np.abs(a))


class TestNodeFactorCache:
    def test_built_once_per_order_triple(self, monkeypatch):
        calls = []

        def counted(z, a):
            calls.append(a)
            return cimfem.symbols.complex_pow(z, a)

        monkeypatch.setattr(cimfem.mlf, "complex_pow", counted)
        cimfem.mlf._node_factors.cache_clear()
        lam = np.array([1.0, 30.0, 900.0])
        for t in (0.1, 0.5, 1.0):
            mode_value(1.0, 0.5, lam, t)
            mode_value(2.0, 0.5, lam, t)  # another K, the same orders
        assert len(calls) == 3
        mode_value(0.0, 0.5, lam, 0.5)  # K = 0 asks for other orders
        assert len(calls) == 6

    def test_cached_arrays_are_read_only(self):
        factors = cimfem.mlf._node_factors(0.5, 1.0, 1.0)
        assert cimfem.mlf._node_factors(0.5, 1.0, 1.0) is factors
        for f in factors:
            assert f.shape == (cimfem.mlf.CONTOUR_NODES,)
            with pytest.raises(ValueError, match="read-only"):
                f[0] = 0.0


class CountingCoefficients:
    """A datum's sine coefficients that count how often they are asked for."""

    def __init__(self):
        self.calls = 0

    def __call__(self, j: int) -> float:
        self.calls += 1
        return 1.0 / j**2 if j <= 5 else 0.0


class TestCoefficientCache:
    def test_computed_once_per_datum_and_j_max(self):
        coeffs = CountingCoefficients()
        x = np.linspace(0.0, 1.0, 5)
        spectral_reference(SpectralProblem(1.0, 0.5, coeffs, j_max=40), x, 0.3)
        assert coeffs.calls == 40
        for beta, t in ((0.25, 0.1), (0.75, 2.0)):
            spectral_reference(SpectralProblem(1.0, beta, coeffs, j_max=40), x, t)
        assert coeffs.calls == 40
        spectral_reference(SpectralProblem(1.0, 0.5, coeffs, j_max=30), x, 0.3)
        assert coeffs.calls == 70
        other = CountingCoefficients()
        spectral_reference(SpectralProblem(1.0, 0.5, other, j_max=40), x, 0.3)
        assert other.calls == 40 and coeffs.calls == 70

    def test_cached_array_is_read_only(self):
        coeffs = CountingCoefficients()
        c = cimfem.mlf._coefficients(coeffs, 8)
        assert cimfem.mlf._coefficients(coeffs, 8) is c
        assert coeffs.calls == 8
        np.testing.assert_array_equal(c, [1.0, 1 / 4, 1 / 9, 1 / 16, 1 / 25, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="read-only"):
            c[0] = 0.0
