"""Field reconstruction from radiative (zero-free) scattering data.

Two routes through the same discretised kernel: an iterated Neumann sum and
a Krylov (GMRES) solve of the resolvent equation.  Both produce q(x, t) from
the reflection coefficient alone, so they apply only after any bound states
have been stripped.  On the uniform k-grid the kernel is a product of two
Toeplitz matrices, applied by FFT to a whole block of x points at once.

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

from . import zsdirect
from .core import (
    Coupling,
    FieldProfile,
    KGrid,
    NlsQuenchError,
    NonUniformGrid,
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
    """Reflection data of a zero-free ScatteringData; DivisionByZeroA where
    |a| < 1e-13, as in zsdirect.reflection."""
    if sd.discrete:
        raise NlsQuenchError(
            "scattering data carries bound states; strip them before "
            "reconstructing from the radiative part"
        )
    small = np.abs(sd.a) < 1e-13
    if small.any():
        raise zsdirect.DivisionByZeroA(
            f"a vanishes at grid node k = {sd.kgrid.samples[np.argmax(small)]}")
    return RadiativeData(kgrid=sd.kgrid, rho=sd.reflection_samples(),
                         coupling=sd.coupling)


# the Neumann sum stops after this many iterated terms, or once a term
# falls below _TERM_STOP of the largest
_NEUMANN_TERMS = 12
_TERM_STOP = 1e-12
# the resolvent route raises SingularResolvent when the condition number of
# its GMRES Hessenberg matrix (a lower estimate of the resolvent's) exceeds
# this
_COND_LIMIT = 1e12
# GMRES stops at this relative residual; not reaching it within the
# iteration cap counts as a singular resolvent
_GMRES_TOL = 1e-14
_GMRES_MAX_ITER = 100
# largest deviation of a k spacing from the median, relative, for the
# grid to count as uniform
_UNIFORM_TOL = 1e-9


class _ToeplitzKernel:
    """Gauge-reduced (c/c*) O-star O of the data rd at coupling c and time
    t, applied to a block of x points at once.  With eps the k spacing dk, the discretised operators are

    O      = diag(f*) T+ diag(rho w)   diag(f),  T+[i,j] = 1 / (2 pi i dk (j - i + i))
    O-star = diag(f)  T- diag(-rho* w) diag(f*), T-[i,j] = 1 / (2 pi i dk (j - i - i))

    with f = e^{-ikx} and trapezoid weights w.  T+ and T- are Toeplitz, so
    each is applied as a circulant product (FFT length the power of two
    >= 2 N_k - 1) and no N_k x N_k matrix is formed.  Solving (1 - C) h = 1
    and contracting with quad * f^2 * h gives the field; time is carried
    entirely by the data phase e^{-4ik^2 t} on rho.
    """

    def __init__(self, rd: RadiativeData, c: Coupling, t: float):
        k = rd.kgrid.samples
        steps = np.diff(k)
        dk = float(np.median(steps))
        if np.max(np.abs(steps - dk)) > _UNIFORM_TOL * dk:
            raise NonUniformGrid(
                "the reconstruction needs a uniform k-grid; this one is "
                "gapped or unevenly spaced"
            )
        n = len(k)
        self.k = k
        self.length = 1 << (2 * n - 2).bit_length()    # power of two >= 2 N_k - 1
        # circulant first column: entry p holds T[i, j] at j - i = -p for
        # p < N_k and at j - i = length - p above; the entries in between
        # meet only the zero padding
        p = np.arange(self.length)
        lag = np.where(p < n, -p, self.length - p)
        self.sym_plus = np.fft.fft(1.0 / (2j * np.pi * dk * (lag + 1j)))
        self.sym_minus = np.fft.fft(1.0 / (2j * np.pi * dk * (lag - 1j)))
        w = trapezoid_weights(k)
        phase_t = np.exp(-4j * k ** 2 * t) if t else np.ones_like(k)
        self.d_plus = rd.rho * w * phase_t
        self.d_minus = -np.conj(rd.rho) * w * np.conj(phase_t)
        self.sign = 1.0 if c.regime != "focusing" else -1.0  # c/c*
        self.quad = w * rd.rho * phase_t / (2.0 * np.pi)
        self.scale = -2.0 / c.value    # Born factor of every term

    def phases(self, xs: np.ndarray) -> np.ndarray:
        """f^2 = e^{-2ikx} for every x of xs, one row per x."""
        return np.exp(-2j * self.k[None, :] * xs[:, None])

    def _toeplitz(self, symbol: np.ndarray, v: np.ndarray) -> np.ndarray:
        n = v.shape[1]
        return np.fft.ifft(symbol * np.fft.fft(v, self.length, axis=1), axis=1)[:, :n]

    def apply(self, h: np.ndarray, f2: np.ndarray) -> np.ndarray:
        """C h for every row of h, row i taken at the phases f2[i]."""
        inner = self._toeplitz(self.sym_plus, self.d_plus * f2 * h)
        return self.sign * self._toeplitz(self.sym_minus, self.d_minus * np.conj(f2) * inner)

    def close(self, h: np.ndarray, f2: np.ndarray) -> np.ndarray:
        return np.sum(self.quad * f2 * h, axis=1)


def _neumann_block(op: _ToeplitzKernel, f2: np.ndarray) -> np.ndarray:
    """Iterated-kernel sum at every x of the block, term by term.

    Each x stops on its own once a term falls below 1e-12 of its largest
    one, and every x after _NEUMANN_TERMS terms past the first;
    SeriesDiverging is raised as soon as the terms at any x keep growing.
    """
    rows = f2.shape[0]
    h = np.ones(f2.shape, dtype=np.complex128)
    # absolute round-off floor of one closing quadrature; terms at or below
    # it carry no information and must not trip the divergence detector
    noise = 1e-14 * abs(op.scale) * float(np.sum(np.abs(op.quad)))
    total = np.zeros(rows, dtype=np.complex128)
    lead = np.full(rows, 1e-300)
    prev = np.full(rows, np.inf)
    growth = np.zeros(rows, dtype=int)
    live = np.arange(rows)
    for n in range(_NEUMANN_TERMS + 1):
        term = op.scale * op.close(h, f2[live])
        mag = np.abs(term)
        total[live] += term
        lead[live] = np.maximum(lead[live], mag)
        going = mag > np.maximum(_TERM_STOP * lead[live], noise)
        # a non-decreasing step can follow an oscillation null of the
        # previous term, and where the field is small the first iterates
        # can rise for two orders before they decay; growth sustained
        # over three orders is the divergence signal
        growth[live] = np.where(going & (mag >= prev[live]), growth[live] + 1, 0)
        if (growth[live] >= 3).any():
            i = int(np.argmax(growth[live]))
            raise SeriesDiverging(
                f"iterated-kernel terms grow (ratio {mag[i] / prev[live][i]:.3f} "
                f"at order {n})"
            )
        prev[live] = mag
        live, h = live[going], h[going]
        if not live.size or n == _NEUMANN_TERMS:
            break
        h = op.apply(h, f2[live])
    return total


def _gmres_block(op: _ToeplitzKernel, f2: np.ndarray) -> np.ndarray:
    """Solve (1 - C) h = 1 at every x of the block by unrestarted GMRES
    (Arnoldi with modified Gram-Schmidt, Givens rotations), all x together.

    Each x keeps the Krylov dimension at which its relative residual first
    reached _GMRES_TOL; the iterations after it do not touch its rotated
    Hessenberg block.  Raises SingularResolvent when an x has not converged
    within the iteration cap or its Hessenberg condition number exceeds
    _COND_LIMIT.
    """
    rows, n = f2.shape
    beta = np.sqrt(n)
    basis = [np.full((rows, n), 1.0 / beta, dtype=np.complex128)]
    cols = []      # rotated Hessenberg column j, shape (rows, j + 1)
    rotations = []
    g = [np.full(rows, beta, dtype=np.complex128)]
    dim = np.zeros(rows, dtype=int)    # 0 while an x has not converged
    for j in range(min(_GMRES_MAX_ITER, n)):
        w = basis[j] - op.apply(basis[j], f2)
        col = np.empty((rows, j + 2), dtype=np.complex128)
        for i, v in enumerate(basis):
            col[:, i] = np.einsum("rk,rk->r", v.conj(), w)
            w -= col[:, i, None] * v
        norm = np.linalg.norm(w, axis=1)
        # an exact breakdown (converged x, or zero data) leaves a zero vector
        basis.append(w / np.where(norm > 0, norm, 1.0)[:, None])
        col[:, j + 1] = norm
        for i, (cs, sn) in enumerate(rotations):
            a = col[:, i].copy()
            col[:, i] = cs * a + sn * col[:, i + 1]
            col[:, i + 1] = cs * col[:, i + 1] - np.conj(sn) * a
        a, size_a = col[:, j], np.abs(col[:, j])
        r = np.hypot(size_a, norm)
        unit = np.divide(a, size_a, out=np.ones_like(a), where=size_a > 0)
        safe = np.where(r > 0, r, 1.0)
        cs = np.where(r > 0, size_a / safe, 1.0)
        sn = unit * norm / safe
        rotations.append((cs, sn))
        col[:, j] = unit * r
        cols.append(col[:, :j + 1])
        g.append(-np.conj(sn) * g[j])
        g[j] = cs * g[j]
        res = np.abs(g[j + 1]) / beta
        dim[(dim == 0) & (res <= _GMRES_TOL)] = j + 1
        if dim.all():
            break
    else:
        raise SingularResolvent(
            f"GMRES residual stalled at {float(np.max(res[dim == 0])):.3e} "
            f"after {len(cols)} iterations"
        )
    size = len(cols)
    hess = np.zeros((rows, size, size), dtype=np.complex128)
    for j, c in enumerate(cols):
        hess[:, :j + 1, j] = c
    rhs = np.stack(g[:size], axis=1)
    y = np.zeros((rows, size), dtype=np.complex128)
    for m in np.unique(dim):
        sel = dim == m
        block = hess[sel, :m, :m]
        cond = np.linalg.cond(block) if np.isfinite(block).all() else np.inf
        worst = float(np.max(np.nan_to_num(cond, nan=np.inf)))
        if worst > _COND_LIMIT:
            raise SingularResolvent(f"resolvent condition number {worst:.3e}")
        y[sel, :m] = np.linalg.solve(block, rhs[sel, :m, None])[:, :, 0]
    return sum(y[:, i, None] * basis[i] for i in range(size))


def _field_values(rd: RadiativeData, c0: Coupling, xs, t: float,
                  method: str) -> np.ndarray:
    """q(x, t) at every x of xs by the chosen route, in blocks of
    max(1, zsdirect._CHUNK // N_k) x points; the split depends only on the
    two sizes, so results are reproducible."""
    if method not in ("resolvent", "neumann"):
        raise NlsQuenchError("method must be 'resolvent' or 'neumann'")
    if c0.value == 0:
        raise NlsQuenchError("the reconstruction needs a nonzero coupling (Born factor -2/c)")
    op = _ToeplitzKernel(rd, c0, t)
    xs = np.asarray(xs, dtype=float)
    per = max(1, zsdirect._CHUNK // rd.kgrid.n)
    vals = np.empty(len(xs), dtype=np.complex128)
    for s in range(0, len(xs), per):
        f2 = op.phases(xs[s:s + per])
        if method == "resolvent":
            vals[s:s + per] = op.scale * op.close(_gmres_block(op, f2), f2)
        else:
            vals[s:s + per] = _neumann_block(op, f2)
    return vals


def glm_neumann(rd: RadiativeData, c0: Coupling, x: float, t: float = 0.0) -> complex:
    """q(x, t) by the iterated-kernel sum at one point: the batched Neumann
    route of reconstruct_field on a one-point x array (see _neumann_block
    for its stopping and divergence rules)."""
    return complex(_field_values(rd, c0, [x], t, "neumann")[0])


def rosales_resummed(rd: RadiativeData, c0: Coupling, x: float, t: float = 0.0) -> complex:
    """q(x, t) by solving (1 - (c/c*) O-star O) h = f at one point: the
    batched GMRES route of reconstruct_field on a one-point x array, under
    the same convergence and conditioning guard."""
    return complex(_field_values(rd, c0, [x], t, "resolvent")[0])


def reconstruct_field(rd: RadiativeData, c0: Coupling, xgrid: np.ndarray,
                      t: float = 0.0, boundary_tol: float = 1e-2, method: str = "resolvent") -> FieldProfile:
    """Radiative field on a symmetric grid.  method="resolvent" solves the
    resolvent equation for every x at once by batched GMRES on the
    FFT-applied Toeplitz kernel and raises SingularResolvent under the
    guard described at _gmres_block; method="neumann" sums the iterated
    kernel under the stopping and divergence rules of glm_neumann.  The
    k-grid must be uniform (NonUniformGrid otherwise), c0 nonzero, and
    xgrid needs at least 16 points, as every FieldProfile does."""
    xgrid = np.asarray(xgrid, dtype=float)
    if len(xgrid) < 16:
        raise NlsQuenchError("reconstruction grid needs at least 16 points")
    vals = _field_values(rd, c0, xgrid, t, method)
    return FieldProfile(L=-float(xgrid[0]), h=float(xgrid[1] - xgrid[0]),
                        values=vals, asymptotics=Schwartz(),
                        boundary_tol=boundary_tol).validate()
