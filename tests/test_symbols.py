"""Symbol and Laplace-transform tests.

Closed-form transform values are frozen from an independent
arbitrary-precision numerical integration of int_0^inf f(t) e^{-z t} dt.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cimfem.fem import InitialData1D
from cimfem.symbols import (
    FractionalSymbol,
    SourceTransform,
    SymbolError,
    complex_pow,
    pole_term,
    power_term,
)

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestComplexPow:
    def test_principal_branch_near_negative_axis(self):
        # frozen oracle: (-1 + 1e-12 i)**0.5 = 5e-13 + i to machine precision
        val = complex_pow(complex(-1.0, 1e-12), 0.5)
        assert val == pytest.approx(complex(5e-13, 1.0), abs=1e-14)

    def test_lower_half_plane_conjugate(self):
        z = complex(-2.0, -3.0)
        assert complex_pow(z, 0.7) == pytest.approx(
            complex_pow(z.conjugate(), 0.7).conjugate()
        )

    @given(
        re=st.floats(min_value=0.05, max_value=20.0),
        im=st.floats(min_value=-20.0, max_value=20.0),
        a=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_matches_cmath_right_half_plane(self, re, im, a):
        z = complex(re, im)
        expected = cmath.exp(a * cmath.log(z))
        assert complex_pow(z, a) == pytest.approx(expected, rel=1e-12)

    def test_array_input(self):
        zs = np.array([1.0 + 1.0j, -1.0 + 0.5j, 2.0 - 0.25j])
        vals = complex_pow(zs, 0.3)
        for z, v in zip(zs, vals):
            assert v == pytest.approx(complex_pow(complex(z), 0.3))

    def test_zero_base_nonpositive_exponent(self):
        with pytest.raises((SymbolError, ZeroDivisionError, ValueError)):
            complex_pow(0.0 + 0.0j, -0.5)

    @pytest.mark.parametrize("a", [0.3, -0.7, -1.5, 0.0])
    def test_nonzero_array_bit_identical_to_masked_power(self, a):
        # the power taken only on the nonzero entries (gathered, then
        # scattered back) gives the same bits as on the whole array
        rng = np.random.default_rng(7)
        z = rng.normal(size=80) + 1j * rng.normal(size=80)
        z[:3] = [-2.0, -1e-30 + 0j, 1j]
        unit = np.exp(1j * np.linspace(-np.pi, np.pi, 80))
        for zs in (z, z[::3], unit, z.reshape(8, 10)):
            masked = np.zeros_like(zs)
            nz = zs != 0.0
            masked[nz] = np.exp(a * np.log(zs[nz]))
            assert np.array_equal(complex_pow(zs, a), masked)
        assert complex_pow(complex(z[5]), a) == complex_pow(z, a)[5]

    def test_zero_entries_positive_exponent(self):
        z = np.array([0.0, -4.0, 0.0j, 2.0 + 2.0j])
        vals = complex_pow(z, 0.5)
        assert vals[0] == 0.0 and vals[2] == 0.0
        assert vals[1] == complex_pow(-4.0, 0.5) == pytest.approx(2.0j)
        assert vals[3] == complex_pow(2.0 + 2.0j, 0.5)
        assert complex_pow(0.0, 0.25) == 0.0
        assert isinstance(complex_pow(0.0, 0.25), complex)

    @pytest.mark.parametrize("a", [0.0, -0.5])
    def test_zero_entry_nonpositive_exponent_raises(self, a):
        with pytest.raises(SymbolError, match="undefined"):
            complex_pow(np.array([1.0 + 1.0j, 0.0]), a)


class TestFractionalSymbol:
    def test_eta_value(self):
        sym = FractionalSymbol(K=2.0, beta=0.5)
        z = complex(1.0, 1.0)
        assert sym.eta(z) == pytest.approx(2.0 * z + complex_pow(z, 0.5), rel=1e-14)

    def test_history_weight(self):
        sym = FractionalSymbol(K=1.5, beta=0.25)
        z = complex(0.5, -2.0)
        assert sym.history_weight(z) == pytest.approx(
            1.5 + complex_pow(z, -0.75), rel=1e-14
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"K": -1.0, "beta": 0.5},
            {"K": 1.0, "beta": 0.0},
            {"K": 1.0, "beta": 1.0},
            {"K": float("nan"), "beta": 0.5},
            {"K": float("inf"), "beta": 0.5},
            {"K": float("-inf"), "beta": 0.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises((SymbolError, ValueError)):
            FractionalSymbol(**kwargs)

    @given(
        beta=st.floats(min_value=0.05, max_value=0.95),
        im=st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_eta_sectorial_on_right_half_plane(self, beta, im):
        # Re eta(z) > 0 whenever Re z > 0: the node systems stay invertible
        sym = FractionalSymbol(K=1.0, beta=beta)
        z = complex(0.3, im)
        assert sym.eta(z).real > 0.0


class TestSourceTransforms:
    def test_power_transform_frozen_oracle(self):
        # 2 t^{3/2} at z = 1 + 2i; value frozen from 30-digit quadrature
        term = power_term(1.0, 2.0, 1.5)
        val = term.transform(complex(1.0, 2.0))
        assert val == pytest.approx(
            complex(-0.33104869754516764, -0.12982074184189978), rel=1e-14
        )

    def test_constant_transform_frozen_oracle(self):
        # 1 at z = 0.5 - i -> 1/z = 0.4 + 0.8i
        term = power_term(1.0, 1.0, 0.0)
        assert term.transform(complex(0.5, -1.0)) == pytest.approx(
            complex(0.4, 0.8), rel=1e-14
        )

    def test_pole_transform_frozen_oracle(self):
        # 3 e^{1.5 t} at z = 3 + i -> 3/(z - 1.5)
        term = pole_term(1.0, 3.0, 1.5)
        assert term.transform(complex(3.0, 1.0)) == pytest.approx(
            complex(1.3846153846153846, -0.9230769230769231), rel=1e-14
        )

    def test_pole_collision_raises(self):
        term = pole_term(1.0, 1.0, 2.0)
        with pytest.raises(SymbolError):
            term.transform(complex(2.0, 0.0))

    @given(c=finite_floats, s=st.floats(min_value=0.0, max_value=4.0))
    def test_transform_linear_in_coefficient(self, c, s):
        z = complex(1.0, 0.7)
        base = power_term(1.0, 1.0, s).transform(z)
        scaled = power_term(1.0, c, s).transform(z)
        assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-12)

    def test_evaluate_groups_by_spatial_id(self):
        # terms group by their spatial datum, equal data together, in first-seen order
        xx, one = InitialData1D.polynomial((0.0, 1.0, -1.0)), InitialData1D.polynomial((1.0,))
        tr = SourceTransform(
            terms=(
                power_term(xx, 1.0, 0.5),
                power_term(one, 1.0, 0.0),
                power_term(InitialData1D.polynomial((0.0, 1.0, -1.0)), 2.0, 1.5),
            )
        )
        z = complex(2.0, 1.0)
        out = tr.evaluate(z)
        assert list(out) == [xx, one]
        expected = power_term(xx, 1.0, 0.5).transform(z) + power_term(xx, 2.0, 1.5).transform(z)
        assert out[xx] == pytest.approx(expected, rel=1e-14)

    def test_max_pole(self):
        tr = SourceTransform(terms=(power_term(1.0, 1.0, 1.0), pole_term(1.0, 1.0, 1.5)))
        assert tr.max_pole == pytest.approx(1.5)
        assert SourceTransform().max_pole is None
