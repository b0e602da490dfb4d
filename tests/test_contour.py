"""Contour-parameter optimization and quadrature-node tests.

The quadrature itself is validated against closed-form inverse Laplace
transforms: F(z) = 1/z inverts to 1, 1/z**2 to t, 1/(z - sigma) to
exp(sigma*t).  These are independent oracles for the whole node/weight
pipeline.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cimfem.contour
from cimfem.contour import (
    EPS_ROUND,
    GRID_SIZE,
    ContourConfig,
    ContourError,
    optimize_rho,
    contour_point,
    quadrature_nodes,
    standard_parameters,
    strip_half_width,
)


def epsilon_n(rho: float, cfg: ContourConfig, N: int) -> tuple[float, float]:
    """Scalar ``(a(rho), eps_N(rho))`` for one split parameter: the oracle of ``optimize_rho``.

    ``a(rho)`` is the truncation half-length of the phi-interval and
    ``eps_N`` the resulting discretization-error factor
    ``exp(-2*pi*d_tilde*N / a(rho))``.
    """
    d_tilde = strip_half_width(cfg)
    if not 0.0 <= rho < 1.0:
        raise ContourError(f"rho must lie in [0, 1), got {rho}")
    arg = cfg.lambda_ratio / ((1.0 - rho) * math.sin(cfg.alpha - d_tilde))
    if arg <= 1.0:
        raise ContourError(f"acosh argument {arg} <= 1: rho = {rho} infeasible")
    a_rho = math.acosh(arg)
    return a_rho, math.exp(-2.0 * math.pi * d_tilde * N / a_rho)


def objective(rho: float, eps_n_val: float, eps_round: float) -> float:
    """Total predicted error: rounding amplified by 1/eps_N**(1-rho) plus truncation."""
    if not 0.0 < eps_n_val < 1.0:
        raise ContourError(f"eps_N must lie in (0, 1), got {eps_n_val}")
    return eps_round * eps_n_val ** (rho - 1.0) + eps_n_val**rho / (1.0 - eps_n_val)


def trapezoid_invert(quad, fhat, t):
    """(tau/pi) Im sum exp(z t) fhat(z) z' for a scalar transform."""
    vals = np.exp(quad.nodes * t) * fhat(quad.nodes) * quad.derivs
    return quad.params.tau_star / math.pi * float(np.imag(np.sum(vals)))


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = ContourConfig()
        assert 0.0 < cfg.alpha < math.pi / 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": math.pi / 2},
            {"delta_prime": -0.1},
            {"t0": 0.0},
            {"lambda_ratio": 0.5},
            {"alpha": -0.1},
            {"t0": -1.0},
            {"delta_prime": -math.inf},
            {"alpha": math.nan},
            {"delta_prime": math.nan},
            {"t0": math.nan},
            {"lambda_ratio": math.nan},
            {"alpha": math.inf},
            {"t0": math.inf},
            {"lambda_ratio": math.inf},
            {"delta_prime": math.inf},
            {"t0": -math.inf},
            {"alpha": 1.5, "delta_prime": 0.1},
            {"alpha": 1.0, "delta_prime": math.pi / 2 - 1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises((ContourError, ValueError)):
            ContourConfig(**kwargs)


class TestStripAndEpsilon:
    def test_strip_half_width_small_alpha(self, monkeypatch):
        # alpha below pi/2 - alpha - delta': strip limited by alpha itself
        monkeypatch.setattr(cimfem.contour, "D_MARGIN", 1e-3)
        cfg = ContourConfig(alpha=0.6767, delta_prime=0.1023)
        assert strip_half_width(cfg) == pytest.approx(0.6767 * (1 - 1e-3))

    def test_strip_half_width_large_alpha(self, monkeypatch):
        # alpha above pi/2 - alpha - delta': strip limited by sector opening
        monkeypatch.setattr(cimfem.contour, "D_MARGIN", 1e-3)
        cfg = ContourConfig(alpha=1.0, delta_prime=0.1023)
        assert strip_half_width(cfg) == pytest.approx(math.pi / 2 - 1.0 - 0.1023)

    def test_epsilon_n_closed_form(self):
        cfg, N = ContourConfig(), 100
        d = strip_half_width(cfg)
        rho = 0.4
        a = math.acosh(
            cfg.lambda_ratio / ((1 - rho) * math.sin(cfg.alpha - d))
        )
        a_out, eps = epsilon_n(rho, cfg, N)
        assert a_out == pytest.approx(a, rel=1e-14)
        assert eps == pytest.approx(math.exp(-2 * math.pi * d * N / a), rel=1e-14)

    def test_epsilon_n_in_unit_interval(self):
        for rho in (0.01, 0.5, 0.99):
            _, eps = epsilon_n(rho, ContourConfig(), 40)
            assert 0.0 < eps < 1.0


class TestOptimizeRho:
    def test_matches_direct_grid_argmin(self):
        cfg, N = ContourConfig(), 100
        params = optimize_rho(cfg, N)
        # independent re-evaluation of the objective on the same grid
        best = (np.inf, None)
        for j in range(GRID_SIZE):
            rho = j / GRID_SIZE
            try:
                _, eps = epsilon_n(rho, cfg, N)
                val = objective(rho, eps, EPS_ROUND)
            except ContourError:
                continue
            if val < best[0]:
                best = (val, rho)
        assert params.rho_star == pytest.approx(best[1], abs=1e-12)
        assert params.predicted_error == pytest.approx(best[0], rel=1e-12)

    def test_derived_quantities_consistent(self):
        cfg, N = ContourConfig(), 60
        p = optimize_rho(cfg, N)
        assert p.tau_star == pytest.approx(p.a_rho / N, rel=1e-14)
        d = strip_half_width(cfg)
        mu = (
            2 * math.pi * d * N * (1 - p.rho_star)
            / (cfg.t0 * cfg.lambda_ratio * p.a_rho)
        )
        assert p.mu_star == pytest.approx(mu, rel=1e-14)

    @given(
        n=st.integers(min_value=10, max_value=200),
        t0=st.floats(min_value=0.01, max_value=1.0),
        lam=st.floats(min_value=2.0, max_value=50.0),
    )
    def test_parameters_positive(self, n, t0, lam):
        p = optimize_rho(ContourConfig(t0=t0, lambda_ratio=lam), n)
        assert 0.0 < p.rho_star < 1.0
        assert p.tau_star > 0.0
        assert p.mu_star > 0.0
        assert 0.0 < p.eps_n < 1.0


class TestQuadratureNodes:
    def test_nodes_on_hyperbola(self):
        p = standard_parameters(ContourConfig(), 40)
        quad = quadrature_nodes(p)
        x, y = quad.nodes.real, quad.nodes.imag
        lhs = ((p.mu_star - x) / (p.mu_star * math.sin(p.contour.alpha))) ** 2 - (
            y / (p.mu_star * math.cos(p.contour.alpha))
        ) ** 2
        assert np.allclose(lhs, 1.0, rtol=1e-12)

    def test_midpoint_phis(self):
        p = standard_parameters(ContourConfig(), 10)
        quad = quadrature_nodes(p)
        assert np.allclose(quad.phis, (np.arange(10) + 0.5) * p.tau_star)

    @pytest.mark.parametrize("N", [1, 10, 57])
    def test_one_node_per_optimized_n(self, N):
        params = standard_parameters(ContourConfig(), N)
        quad = quadrature_nodes(params)
        assert params.N == N
        assert len(quad.nodes) == len(quad.derivs) == len(quad.phis) == params.N
        assert quad.params is params

    def test_derivs_match_finite_differences(self):
        p = standard_parameters(ContourConfig(), 20)
        quad = quadrature_nodes(p)
        h = 1e-7
        for k in (0, 7, 19):
            phi = quad.phis[k]
            zp, _ = contour_point(p, phi + h)
            zm, _ = contour_point(p, phi - h)
            fd = (zp - zm) / (2 * h)
            assert abs(fd - quad.derivs[k]) < 1e-5 * (1 + abs(quad.derivs[k]))

    def test_vectorized_contour_point_matches_scalar_calls_and_nodes(self):
        p = standard_parameters(ContourConfig(), 30)
        quad = quadrature_nodes(p)
        z, dz = contour_point(p, quad.phis)
        for k, phi in enumerate(quad.phis):
            zs, dzs = contour_point(p, float(phi))
            assert abs(z[k] - zs) <= 1e-15 * abs(zs)
            assert abs(dz[k] - dzs) <= 1e-15 * abs(dzs)
        assert np.max(np.abs(z - quad.nodes)) <= 1e-15 * np.max(np.abs(quad.nodes))
        assert np.max(np.abs(dz - quad.derivs)) <= 1e-15 * np.max(np.abs(quad.derivs))

    def test_invalid_n_rejected(self):
        with pytest.raises(ContourError, match="need N >= 1"):
            optimize_rho(ContourConfig(), 0)
        with pytest.raises(ContourError, match="need N >= 1"):
            standard_parameters(ContourConfig(), 0)


class TestInverseLaplaceOracles:
    """End-to-end check of the node/weight pipeline on known transforms."""

    @pytest.mark.parametrize("t", [0.1, 0.4, 1.0])
    def test_constant(self, t):
        p = standard_parameters(ContourConfig(), 60)
        quad = quadrature_nodes(p)
        val = trapezoid_invert(quad, lambda z: 1.0 / z, t)
        assert abs(val - 1.0) < 1e-10

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_linear_growth(self, t):
        p = standard_parameters(ContourConfig(), 60)
        quad = quadrature_nodes(p)
        val = trapezoid_invert(quad, lambda z: z ** -2.0, t)
        assert abs(val - t) < 1e-10

    def test_decaying_exponential(self):
        p = standard_parameters(ContourConfig(), 80)
        quad = quadrature_nodes(p)
        for t in (0.2, 0.9):
            val = trapezoid_invert(quad, lambda z: 1.0 / (z + 1.0), t)
            assert abs(val - math.exp(-t)) < 1e-10

    def test_spectral_decay_in_n(self):
        errs = []
        for n in (10, 20, 40):
            p = standard_parameters(ContourConfig(), n)
            quad = quadrature_nodes(p)
            errs.append(abs(trapezoid_invert(quad, lambda z: 1.0 / z, 0.5) - 1.0))
        assert errs[1] < 0.2 * errs[0] or errs[1] < 1e-12
        assert errs[2] < 0.2 * errs[1] or errs[2] < 1e-12


def test_standard_parameters_widened_strip_margin(monkeypatch):
    # the default strip margin keeps a wider safety gap to alpha than a
    # near-zero margin, which is optimal only asymptotically
    wide = standard_parameters(ContourConfig(), 40)
    monkeypatch.setattr(cimfem.contour, "D_MARGIN", 1e-3)
    tight = optimize_rho(ContourConfig(), 40)
    assert wide.d_tilde < tight.d_tilde


@pytest.mark.parametrize("N", [1400, 2000])
def test_optimize_rho_large_n_is_free_of_float_warnings(N):
    # the rounding term eps ** (rho - 1) overflows at N = 1400, and eps
    # underflows to 0 at N = 2000; neither may reach the caller
    standard_parameters.cache_clear()  # optimize here, under the filter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = standard_parameters(ContourConfig(), N)
    assert 0.0 < p.eps_n < 1.0
    assert math.isfinite(p.predicted_error)


def test_optimize_rho_without_finite_split_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContourError, match="no feasible rho"):
            standard_parameters(ContourConfig(), 5000)
