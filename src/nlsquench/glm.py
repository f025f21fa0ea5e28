"""Field reconstruction from radiative (zero-free) scattering data.

Two routes through the same discretised kernel: an iterated Neumann sum and
a dense resolvent solve.  Both produce q(x, t) from the reflection
coefficient alone, so they apply only after any bound states have been
stripped.

Conventions (fixed once, validated against the direct solver and the PDE
stepper; see the regression tests):

* rho(k) = b(k)/a(k) with b the (1,2) entry of the numerical S-matrix;
* the Born term is  q(x) = -(2/c) * integral dk/(2 pi) rho(k) e^{-2ikx},
  and every higher term carries the same overall factor;
* time enters only through the data phase rho(k, t) = e^{-4ik^2 t} rho(k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Coupling,
    FieldProfile,
    KGrid,
    NlsQuenchError,
    ScatteringData,
    Schwartz,
    trapezoid_weights,
)


class SeriesDiverging(NlsQuenchError):
    pass


class SingularResolvent(NlsQuenchError):
    pass


@dataclass(frozen=True)
class RadiativeData:
    """Reflection coefficient samples with no discrete spectrum attached.

    The caller certifies that the underlying a(k) is zero-free in the upper
    half-plane (e.g. via the zero search or after stripping solitons)."""

    kgrid: KGrid
    rho: np.ndarray
    coupling: Coupling

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=np.complex128).copy()
        if len(r) != self.kgrid.n:
            raise NlsQuenchError("rho must be sampled on the spectral grid")
        r.setflags(write=False)
        object.__setattr__(self, "rho", r)


def radiative_part(sd: ScatteringData) -> RadiativeData:
    """Reflection data of a zero-free ScatteringData."""
    if sd.discrete:
        raise NlsQuenchError(
            "scattering data carries bound states; strip them before "
            "reconstructing from the radiative part"
        )
    return RadiativeData(kgrid=sd.kgrid, rho=sd.reflection_samples(),
                         coupling=sd.coupling)


@dataclass(frozen=True)
class ResolventConfig:
    """Limits of the two routes: the Neumann sum stops after neumann_terms
    iterated terms, and rosales_resummed rejects a resolvent whose condition
    number exceeds cond_limit."""

    neumann_terms: int = 12
    cond_limit: float = 1e12

    def __post_init__(self):
        if self.neumann_terms < 0:
            raise NlsQuenchError("neumann_terms must be >= 0")


DEFAULT_RESOLVENT = ResolventConfig()

# the Neumann sum stops once a term falls below this fraction of the largest
_TERM_STOP = 1e-12


def f_kernel(rd: RadiativeData, x: float, t: float = 0.0) -> complex:
    """F(x) = integral dk/(2 pi) rho(k) e^{-ikx} by trapezoid quadrature
    (per segment on gapped grids)."""
    k = rd.kgrid.samples
    w = trapezoid_weights(k)
    rho = rd.rho * np.exp(-4j * k ** 2 * t) if t else rd.rho
    return complex(np.sum(w * rho * np.exp(-1j * k * x)) / (2.0 * np.pi))


def _kernel_matrices(rd: RadiativeData):
    """x-independent pieces of the discretised operators:

    O      = diag(f*) M1 diag(f),   M1[i,j] =  rho_j w_j / (2 pi i (k_j - k_i + i eps))
    O-star = diag(f)  M2 diag(f*),  M2[i,j] = -rho_j* w_j / (2 pi i (k_j - k_i - i eps))

    with eps the median k spacing and trapezoid weights w.
    """
    k = rd.kgrid.samples
    w = trapezoid_weights(k)
    eps = float(np.median(np.diff(k)))
    diff = k[None, :] - k[:, None]
    m1 = (rd.rho * w)[None, :] / (2j * np.pi * (diff + 1j * eps))
    m2 = -(np.conj(rd.rho) * w)[None, :] / (2j * np.pi * (diff - 1j * eps))
    return k, w, m1, m2


class _DiscretizedKernel:
    """Gauge-reduced (c/c*) O-star O at fixed (x, t): solving (1 - C) h = 1
    and contracting with quad * f^2 * h gives the field.  Time is carried
    entirely by the data phase e^{-4ik^2 t} on rho."""

    def __init__(self, rd: RadiativeData, t: float):
        k, w, m1, m2 = _kernel_matrices(rd)
        phase_t = np.exp(-4j * k ** 2 * t) if t else np.ones_like(k)
        self.k = k
        self.m1t = m1 * phase_t[None, :]
        self.m2t = m2 * np.conj(phase_t)[None, :]
        self.sign = 1.0 if rd.coupling.regime != "focusing" else -1.0  # c/c*
        self.quad = w * rd.rho * phase_t / (2.0 * np.pi)
        self.f2 = None

    def at_x(self, x: float):
        self.f2 = np.exp(-2j * self.k * x)
        return self

    def apply(self, h: np.ndarray) -> np.ndarray:
        """C h by two mat-vec products (no dense C needed)."""
        inner = self.m1t @ (self.f2 * h)
        return self.sign * (self.m2t @ (np.conj(self.f2) * inner))

    def dense(self) -> np.ndarray:
        return self.sign * ((self.m2t * np.conj(self.f2)[None, :])
                            @ (self.m1t * self.f2[None, :]))

    def close(self, h: np.ndarray) -> complex:
        return complex(np.sum(self.quad * self.f2 * h))


def _born_scale(rd: RadiativeData) -> complex:
    return -2.0 / rd.coupling.value


def _neumann_sum(op: _DiscretizedKernel, scale: complex, cfg: ResolventConfig) -> complex:
    """Iterated-kernel sum at the kernel's current x, term by term.

    Raises SeriesDiverging as soon as the terms keep growing; stops early
    once a term falls below 1e-12 of the largest one.
    """
    h = np.ones(len(op.k), dtype=np.complex128)
    # absolute round-off floor of one closing quadrature; terms at or below
    # it carry no information and must not trip the divergence detector
    noise = 1e-14 * abs(scale) * float(np.sum(np.abs(op.quad)))
    total = 0.0 + 0.0j
    lead = None
    prev = None
    growth = 0
    for n in range(cfg.neumann_terms + 1):
        term = scale * op.close(h)
        total += term
        mag = abs(term)
        if lead is None:
            lead = max(mag, 1e-300)
        lead = max(lead, mag)
        if mag <= max(_TERM_STOP * lead, noise):
            break
        if prev is not None and mag >= prev:
            # a non-decreasing step can follow an oscillation null of the
            # previous term, and where the field is small the first iterates
            # can rise for two orders before they decay; growth sustained
            # over three orders is the divergence signal
            growth += 1
            if growth >= 3:
                raise SeriesDiverging(
                    f"iterated-kernel terms grow (ratio {mag / prev:.3f} at order {n})"
                )
        else:
            growth = 0
        prev = mag
        h = op.apply(h)
    return complex(total)


def glm_neumann(rd: RadiativeData, c0: Coupling, x: float,
                cfg: ResolventConfig = DEFAULT_RESOLVENT, t: float = 0.0) -> complex:
    """q(x, t) by the iterated-kernel sum (see _neumann_sum for its
    stopping and divergence rules)."""
    rd = RadiativeData(kgrid=rd.kgrid, rho=rd.rho, coupling=c0)
    op = _DiscretizedKernel(rd, t).at_x(x)
    return _neumann_sum(op, _born_scale(rd), cfg)


def rosales_resummed(rd: RadiativeData, c0: Coupling, x: float, t: float = 0.0,
                     cfg: ResolventConfig = DEFAULT_RESOLVENT) -> complex:
    """q(x, t) by a dense solve of (1 - (c/c*) O-star O) h = f."""
    rd = RadiativeData(kgrid=rd.kgrid, rho=rd.rho, coupling=c0)
    op = _DiscretizedKernel(rd, t).at_x(x)
    mat = np.eye(rd.kgrid.n, dtype=np.complex128) - op.dense()
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > cfg.cond_limit:
        raise SingularResolvent(f"resolvent condition number {cond:.3e}")
    h = np.linalg.solve(mat, np.ones(rd.kgrid.n, dtype=np.complex128))
    return complex(_born_scale(rd) * op.close(h))


def reconstruct_field(rd: RadiativeData, c0: Coupling, xgrid: np.ndarray,
                      t: float = 0.0, cfg: ResolventConfig = DEFAULT_RESOLVENT,
                      boundary_tol: float = 1e-2, method: str = "resolvent") -> FieldProfile:
    """Radiative field on a symmetric grid, solving the dressed kernel at
    every sample point (the kernel matrices are x-independent and reused).
    method="neumann" sums the iterated kernel instead of solving densely,
    under the stopping and divergence rules of glm_neumann.  xgrid needs at
    least 16 points, as every FieldProfile does."""
    if method not in ("resolvent", "neumann"):
        raise NlsQuenchError("method must be 'resolvent' or 'neumann'")
    xgrid = np.asarray(xgrid, dtype=float)
    if len(xgrid) < 16:
        raise NlsQuenchError("reconstruction grid needs at least 16 points")
    rd = RadiativeData(kgrid=rd.kgrid, rho=rd.rho, coupling=c0)
    op = _DiscretizedKernel(rd, t)
    eye = np.eye(rd.kgrid.n, dtype=np.complex128)
    scale = _born_scale(rd)
    ones = np.ones(rd.kgrid.n, dtype=np.complex128)

    vals = np.empty(len(xgrid), dtype=np.complex128)
    for i, xv in enumerate(xgrid):
        op.at_x(xv)
        if method == "resolvent":
            try:
                h = np.linalg.solve(eye - op.dense(), ones)
            except np.linalg.LinAlgError as exc:
                raise SingularResolvent(str(exc)) from exc
            vals[i] = scale * op.close(h)
        else:
            vals[i] = _neumann_sum(op, scale, cfg)
    return FieldProfile(L=-float(xgrid[0]), h=float(xgrid[1] - xgrid[0]),
                        values=vals, asymptotics=Schwartz(),
                        boundary_tol=boundary_tol).validate()
