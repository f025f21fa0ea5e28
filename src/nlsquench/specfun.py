"""Complex Gamma, self-contained: the Lanczos rational approximation
(g = 7, 9 terms) with the reflection formula for Re z < 1/2, which is all
the closed-form scattering data needs.
"""

from __future__ import annotations

import numpy as np

from .core import NlsQuenchError


class PoleAtNonPositiveInteger(NlsQuenchError):
    pass


# Lanczos g = 7 coefficients (Godfrey's table), double precision grade.
_LANCZOS_G = 7.0
_LANCZOS_P = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_2PI = 2.5066282746310002


def _is_nonpositive_integer(z: complex, tol: float = 1e-13) -> bool:
    return z.real <= 0.5 and abs(z.imag) < tol and abs(z.real - round(z.real)) < tol \
        and round(z.real) <= 0


def gamma_complex(z: complex) -> complex:
    """Gamma(z) for complex z off the poles at 0, -1, -2, ..."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleAtNonPositiveInteger(f"Gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return np.pi / (np.sin(np.pi * z) * gamma_complex(1.0 - z))
    z = z - 1.0
    acc = _LANCZOS_P[0]
    for i, p in enumerate(_LANCZOS_P[1:], start=1):
        acc = acc + p / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * np.exp(-t) * acc
