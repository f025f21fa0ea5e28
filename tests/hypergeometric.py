"""Gauss hypergeometric 2F1 on |z| <= 1, the reference for the Jost
solution of the bright soliton: a power series for small |z|, moved to the
1-z side by the standard connection formula otherwise."""

from __future__ import annotations

from dataclasses import dataclass

from nlsquench.core import NlsQuenchError
from nlsquench.specfun import _is_nonpositive_integer, gamma_complex


class ParameterPole(NlsQuenchError):
    pass


class NonConvergent(NlsQuenchError):
    pass


@dataclass(frozen=True)
class SpecFunConfig:
    series_tol: float = 1e-16
    max_terms: int = 4000

    def __post_init__(self):
        if not self.series_tol > 0:
            raise NlsQuenchError("series_tol must be positive")
        if self.max_terms < 1:
            raise NlsQuenchError("max_terms must be >= 1")


DEFAULT_CONFIG = SpecFunConfig()


def _series_2f1(a, b, c, z, cfg: SpecFunConfig):
    """Plain power series; valid for |z| < 1 (terminating cases anywhere)."""
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for n in range(cfg.max_terms):
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= cfg.series_tol * max(1.0, abs(total)):
            return total
        if abs(term) > 1e100:
            raise NonConvergent(f"2F1 series diverges at z = {z}")
    if abs(term) > 1e-8 * max(1.0, abs(total)):
        raise NonConvergent(
            f"2F1 series did not converge in {cfg.max_terms} terms at z = {z}"
        )
    return total


def _terminates(a, tol=1e-13) -> bool:
    return abs(a.imag) < tol and a.real <= tol and abs(a.real - round(a.real)) < tol


def hyp2f1(a: complex, b: complex, c: complex, z: complex,
           cfg: SpecFunConfig = DEFAULT_CONFIG) -> complex:
    """Gauss 2F1(a, b; c; z) on |z| <= 1.

    z = 1 requires Re(c - a - b) > 0; the z -> 1 - z connection handles the
    |z| > 1/2 region (and degenerates for integer c - a - b, in which case
    the raw series is used as a fallback for |z| < 1).
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _is_nonpositive_integer(c):
        raise ParameterPole(f"2F1 parameter c = {c} is a non-positive integer")
    if z == 0:
        return 1.0 + 0.0j
    if _terminates(a) or _terminates(b):
        return _series_2f1(a, b, c, z, cfg)
    if abs(z) > 1.0 + 1e-14:
        raise NonConvergent(f"|z| = {abs(z):.6f} > 1 is outside the supported domain")
    if abs(z) <= 0.5:
        return _series_2f1(a, b, c, z, cfg)

    s = c - a - b
    if z == 1.0:
        if s.real <= 0:
            raise NonConvergent("2F1 at z = 1 needs Re(c - a - b) > 0")
        return (gamma_complex(c) * gamma_complex(s)
                / (gamma_complex(c - a) * gamma_complex(c - b)))
    w = 1.0 - z
    degenerate = abs(s - round(s.real)) < 1e-8 and abs(s.imag) < 1e-8
    if abs(w) > 0.75 or degenerate:
        # the 1-z connection is useless far from z = 1 (its series would
        # diverge) and its coefficients blow up for integer c - a - b; the
        # raw series still converges, if slowly, anywhere inside the disc
        return _series_2f1(a, b, c, z, cfg)
    t1 = (gamma_complex(c) * gamma_complex(s)
          / (gamma_complex(c - a) * gamma_complex(c - b))
          * _series_2f1(a, b, 1.0 - s, w, cfg))
    t2 = (gamma_complex(c) * gamma_complex(-s)
          / (gamma_complex(a) * gamma_complex(b))
          * w ** s * _series_2f1(c - a, c - b, 1.0 + s, w, cfg))
    return t1 + t2
