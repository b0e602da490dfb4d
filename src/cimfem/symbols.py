"""Laplace-domain symbol of the transport operator and source transforms.

The time-fractional transport equation

    K * du/dt + d_t^beta u + A u = f,   0 < beta < 1,  K >= 0,

turns under the Laplace transform into ``(eta(z) I + A) u_hat = rhs``
with the scalar symbol ``eta(z) = K z + z^beta``.  All fractional powers
use the principal branch with ``Arg z in (-pi, pi]``.

Sources are restricted to finite sums of terms whose transforms are
known in closed form: powers ``c * t**s`` and exponentials
``c * exp(sigma t)``, each multiplying a fixed spatial datum that the
spatial discretization turns into a load vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gamma, inf

import numpy as np


class SymbolError(ValueError):
    """Raised for invalid symbol parameters or transform evaluations."""


def complex_pow(z: complex | np.ndarray, a: float) -> complex | np.ndarray:
    """Principal-branch power ``z**a`` with ``Arg z in (-pi, pi]``.

    ``0**a`` is 0 for a > 0 and an error otherwise; the zero rules cost a
    pass only when ``z`` holds a zero, which contour nodes never do.
    """
    z = np.asarray(z, dtype=complex)
    if z.all():
        # np.log uses Arg in (-pi, pi]; negative reals map to +i*pi as required.
        out = np.exp(a * np.log(z))
    elif a <= 0.0:
        raise SymbolError(f"0**{a} is undefined for a <= 0")
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(z == 0.0, 0.0, np.exp(a * np.log(z)))
    return complex(out) if out.ndim == 0 else out


def check_symbol(K: float, beta: float) -> None:
    """Reject a ``K`` that is not finite and nonnegative or a ``beta`` outside (0, 1)."""
    if not 0.0 <= K < inf:  # a NaN K fails too
        raise SymbolError(f"K must be finite and nonnegative, got {K}")
    if not 0.0 < beta < 1.0:
        raise SymbolError(f"beta must lie in (0, 1), got {beta}")


@dataclass(frozen=True)
class FractionalSymbol:
    """Scalar symbol ``eta(z) = K z + z**beta``."""

    K: float
    beta: float

    def __post_init__(self) -> None:
        check_symbol(self.K, self.beta)

    def eta(self, z: complex | np.ndarray) -> complex | np.ndarray:
        return self.K * np.asarray(z, dtype=complex) + complex_pow(z, self.beta)

    def history_weight(self, z: complex | np.ndarray) -> complex | np.ndarray:
        """Weight ``K + z**(beta-1)`` multiplying the initial datum."""
        return self.K + complex_pow(z, self.beta - 1.0)


@dataclass(frozen=True)
class SourceTerm:
    """One separable source term ``coeff * time_part(t) * datum``.

    ``kind`` is ``"power"`` (time part ``t**exponent``) or ``"pole"``
    (time part ``exp(exponent * t)``).  ``datum`` is the spatial factor,
    the same kind of object as a problem's initial datum: a number for a
    scalar problem, or a description or callable on the mesh.
    """

    datum: object
    kind: str
    coeff: float
    exponent: float

    def __post_init__(self) -> None:
        if self.kind not in ("power", "pole"):
            raise SymbolError(f"unknown source term kind {self.kind!r}")
        if self.kind == "power" and self.exponent <= -1.0:
            raise SymbolError("power terms need exponent > -1 for a transform")

    def transform(self, z: complex | np.ndarray) -> complex | np.ndarray:
        z = np.asarray(z, dtype=complex)
        if self.kind == "power":
            # L{t**s} = Gamma(s+1) z**-(s+1)
            return self.coeff * gamma(self.exponent + 1.0) * complex_pow(z, -(self.exponent + 1.0))
        bad = np.abs(z - self.exponent) < 1e-12 * (1.0 + np.abs(z))
        if np.any(bad):
            raise SymbolError(
                f"transform evaluated at (or too close to) the pole sigma = {self.exponent}"
            )
        return self.coeff / (z - self.exponent)


@dataclass(frozen=True)
class SourceTransform:
    """Closed-form Laplace transform of a finite sum of separable terms."""

    terms: tuple[SourceTerm, ...] = field(default=())

    @property
    def max_pole(self) -> float | None:
        """Largest real pole among exponential terms, if any."""
        poles = [t.exponent for t in self.terms if t.kind == "pole"]
        return max(poles) if poles else None

    def evaluate(self, z: complex) -> dict[object, complex]:
        """Multiplier of each distinct spatial datum at ``z``, in first-seen order."""
        out: dict[object, complex] = {}
        for term in self.terms:
            out[term.datum] = out.get(term.datum, 0.0) + term.transform(z)
        return out


def power_term(datum, coeff: float, exponent: float) -> SourceTerm:
    return SourceTerm(datum=datum, kind="power", coeff=coeff, exponent=exponent)


def pole_term(datum, coeff: float, sigma: float) -> SourceTerm:
    return SourceTerm(datum=datum, kind="pole", coeff=coeff, exponent=sigma)
