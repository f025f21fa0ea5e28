"""Explicit scattering data for the three solvable initial profiles:

* rapidly decreasing bright soliton  q = A e^{i(Vx+phi0)} / cosh(A(x-x0)),
* finite-density dark soliton        q = rho (1 + e^{i theta} e^{nu x}) / (1 + e^{nu x}),
* finite-density bright-on-pedestal  q = 1 - iA / cosh(Ax).

The coupling argument of the (a, b) evaluators is deliberately a bare
complex number, not a validated Coupling: these formulas continue
analytically off the physical rays.

Caveat on normalisation: the b formulas below reproduce the numerical
S-matrix entry only at the pinned points (reflectionless couplings and the
c -> 0 limit).  At generic coupling they differ from the unit-determinant
convention by a measured factor ~ 1/|c|; regression tests therefore compare
b only where the convention is unambiguous.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import (
    DiscreteEigenvalue,
    FieldProfile,
    FiniteDensity,
    NlsQuenchError,
    Schwartz,
    make_profile,
)
from .specfun import PoleAtNonPositiveInteger, gamma_complex


class GammaPole(NlsQuenchError):
    pass


class DegeneratePhase(NlsQuenchError):
    pass


class BranchPointValue(NlsQuenchError):
    pass


def _gamma(z):
    try:
        return gamma_complex(z)
    except PoleAtNonPositiveInteger as exc:
        raise GammaPole(str(exc)) from exc


def _sech(z: complex) -> complex:
    # exponential form with a guard against overflow far from the strip
    z = complex(z)
    if abs(z.real) > 700.0:
        return 2.0 * np.exp(-abs(z.real)) * np.exp(-1j * z.imag * np.sign(z.real))
    return 1.0 / np.cosh(z)


def _sinc_sinh(c: complex) -> complex:
    """sinh(pi c)/c with the limit pi at c = 0."""
    if abs(c) < 1e-8:
        return np.pi * (1.0 + (np.pi * c) ** 2 / 6.0)
    return np.sinh(np.pi * c) / c


@dataclass(frozen=True)
class SolitonParamsRD:
    """Bright-soliton parameters (amplitude, velocity, phase, centre)."""

    A: float
    V: float = 0.0
    phi0: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        if not self.A > 0:
            raise NlsQuenchError("soliton amplitude must be positive")

    @property
    def eigenvalue(self) -> complex:
        return complex(-self.V / 2.0, self.A / 2.0)


@dataclass(frozen=True)
class SolitonParamsFD:
    """Dark-soliton parameters on a finite-density background."""

    rho: float
    theta: float

    def __post_init__(self):
        if not self.rho > 0:
            raise NlsQuenchError("background density must be positive")
        if not (0.0 < self.theta < 2.0 * np.pi):
            raise DegeneratePhase("theta = 0 gives a constant background")

    @property
    def nu(self) -> float:
        # width parameter of the c = 1 seed soliton
        return 2.0 * self.rho * np.sin(self.theta / 2.0)

    @property
    def v(self) -> float:
        return -2.0 * self.rho * np.cos(self.theta / 2.0)


def soliton_profile_rd(params: SolitonParamsRD, xgrid: np.ndarray,
                       boundary_tol: float = 1e-8) -> FieldProfile:
    x = np.asarray(xgrid, dtype=float)
    A, V = params.A, params.V
    vals = A * np.exp(1j * (V * x + params.phi0)) / np.cosh(A * (x - params.x0))
    return make_profile(vals, L=float(x[-1]), asymptotics=Schwartz(),
                        boundary_tol=boundary_tol, x=x)


def ab_rapid(k, c: complex, A: float, V: float = 0.0) -> Tuple[complex, complex]:
    """Closed-form (a, b) of the bright soliton at coupling c (analytic in c).

    a = Gamma(g)^2 / (Gamma(g - ic) Gamma(g + ic)),  g = 1/2 - (i/A)(k + V/2)
    b = -(sinh(pi c)/c) sech((pi/A)(k + V/2))
    """
    k = complex(k)
    c = complex(c)
    g = 0.5 - 1j * (k + V / 2.0) / A
    a = _gamma(g) ** 2 / (_gamma(g - 1j * c) * _gamma(g + 1j * c))
    b = -_sinc_sinh(c) * _sech(np.pi * (k + V / 2.0) / A)
    return a, b


def zeros_rapid(nu: float, A: float, V: float = 0.0) -> List[DiscreteEigenvalue]:
    """Upper-half-plane zeros of a(k, i nu): k = -V/2 + iA(nu - n - 1/2) for
    n >= 0 while nu - n - 1/2 > 1e-12.  A zero landing on the real axis
    (|nu - n - 1/2| <= 1e-12) is marginal, excluded and warned about."""
    if not nu > 0:
        raise NlsQuenchError("nu must be positive")
    out = []
    n = 0
    while True:
        height = nu - n - 0.5
        if height <= 1e-12:
            if abs(height) <= 1e-12:
                warnings.warn(f"marginal zero on the real axis at nu = {nu}")
            break
        out.append(DiscreteEigenvalue(position=complex(-V / 2.0, A * height), order=1))
        n += 1
    return out


def predicted_zero_count(nu: float) -> int:
    """Number of bound states of the quenched bright soliton at c = i nu."""
    count = 0
    while nu - count - 0.5 > 1e-12:
        count += 1
    return count


def soliton_profile_fd_defocusing(params: SolitonParamsFD, xgrid: np.ndarray,
                                  boundary_tol: float = 1e-8) -> FieldProfile:
    """Dark soliton q = rho (1 + e^{i theta} e^{nu x}) / (1 + e^{nu x})."""
    x = np.asarray(xgrid, dtype=float)
    nu = params.nu
    # split by sign to avoid exp overflow on wide grids
    vals = np.empty(len(x), dtype=np.complex128)
    pos = x >= 0
    ep = np.exp(-nu * x[pos])
    vals[pos] = params.rho * (ep + np.exp(1j * params.theta)) / (ep + 1.0)
    en = np.exp(nu * x[~pos])
    vals[~pos] = params.rho * (1.0 + np.exp(1j * params.theta) * en) / (1.0 + en)
    return make_profile(vals, L=float(x[-1]),
                        asymptotics=FiniteDensity(rho=params.rho, theta=params.theta),
                        boundary_tol=boundary_tol, x=x)


def _mu_of_k(k: complex, c: complex, rho: float) -> complex:
    """Branch with cut along the segment joining +-c rho (matches zsdirect)."""
    s = c * rho
    mu = np.sqrt(complex(k) - s) * np.sqrt(complex(k) + s)
    if abs(mu) < 1e-12 * (1.0 + abs(k)):
        raise BranchPointValue(f"k = {k} is a branch point")
    return mu


def ab_finite_defocusing(k, c: complex, params: SolitonParamsFD) -> Tuple[complex, complex]:
    """Closed-form (a, b) of the dark soliton scattered at coupling c.

    With z = 2 i mu / nu, the branch mu ~ k on the allowed rays, and the
    pedestal factor beta = cos(theta/2) + i (k/mu) sin(theta/2):

      a = (z - c)(z + c) / (beta z^2) * Gamma(1-z)^2 / (Gamma(1-z-c) Gamma(1-z+c))
      b = (sin(pi c)/(pi c)) * (2 pi mu / nu) / sinh(2 pi mu / nu)

    The sign of a and the choice beta (rather than its conjugate) are tied
    to the mu ~ k branch and were fixed against the direct solver; flipping
    the branch conjugates a and swaps the two conventions.
    """
    k = complex(k)
    c = complex(c)
    nu = params.nu
    mu = _mu_of_k(k, c, params.rho)
    z = 2j * mu / nu
    beta = np.cos(params.theta / 2.0) + 1j * (k / mu) * np.sin(params.theta / 2.0)
    a = ((z - c) * (z + c) / (beta * z ** 2)
         * _gamma(1.0 - z) ** 2 / (_gamma(1.0 - z - c) * _gamma(1.0 - z + c)))
    w = 2.0 * np.pi * mu / nu
    if abs(c) < 1e-8:
        sinc = 1.0 - (np.pi * c) ** 2 / 6.0
    else:
        sinc = np.sin(np.pi * c) / (np.pi * c)
    b = sinc * (w / np.sinh(w))
    return a, b


def a_finite_defocusing_product(k, n: int, params: SolitonParamsFD) -> complex:
    """Reflectionless a at integer coupling n:
    a = (1/beta) prod_{m=1..n} (2 mu - i m nu) / (2 mu + i (m-1) nu),
    in the same mu ~ k / beta convention as ab_finite_defocusing."""
    k = complex(k)
    nu = params.nu
    mu = _mu_of_k(k, float(n), params.rho)
    beta = np.cos(params.theta / 2.0) + 1j * (k / mu) * np.sin(params.theta / 2.0)
    prod = 1.0 + 0.0j
    for m in range(1, n + 1):
        prod *= (2.0 * mu - 1j * m * nu) / (2.0 * mu + 1j * (m - 1) * nu)
    return prod / beta


def profile_fd_focusing(Z: float, xgrid: np.ndarray,
                        boundary_tol: float = 1e-8) -> FieldProfile:
    """Stationary bright soliton on a unit pedestal, q = 1 - iA sech(Ax)
    with A = Z - 1/Z (Z > 1)."""
    if not Z > 1:
        raise NlsQuenchError("Z must exceed 1")
    x = np.asarray(xgrid, dtype=float)
    A = Z - 1.0 / Z
    vals = 1.0 - 1j * A / np.cosh(A * x)
    return make_profile(vals, L=float(x[-1]),
                        asymptotics=FiniteDensity(rho=1.0, theta=0.0),
                        boundary_tol=boundary_tol, x=x)


def ab_finite_focusing(k, g: float, A: float) -> Tuple[complex, complex]:
    """Closed-form (a, b) of the pedestal soliton at coupling c = i g,
    expressed through mu(k) = sqrt(k^2 + g^2) (unit background density):

      a = Gamma(h)^2 / (Gamma(h - g) Gamma(h + g)),  h = 1/2 - i mu / A
      b = -(sin(pi g)/g) sech(pi mu / A)
    """
    k = complex(k)
    mu = np.sqrt(k * k + g * g)
    if abs(mu) < 1e-12 * (1.0 + abs(k)):
        raise BranchPointValue(f"k = {k} is a branch point")
    h = 0.5 - 1j * mu / A
    a = _gamma(h) ** 2 / (_gamma(h - g) * _gamma(h + g))
    if abs(g) < 1e-8:
        s = np.pi * (1.0 - (np.pi * g) ** 2 / 6.0)
    else:
        s = np.sin(np.pi * g) / g
    b = -s * _sech(np.pi * mu / A)
    return a, b
