"""Independent split-step Fourier integrator for

    i q_t + q_xx - 2 c^2 (|q|^2 - rho^2) q = 0

(rho = 0 in the rapidly decreasing case; the rho^2 offset is the gauge that
keeps finite-density boundaries fixed).  Used to cross-check that the
scattering data of an evolved field moves only by the known phase law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .core import (
    Coupling,
    FieldProfile,
    FiniteDensity,
    KGrid,
    NlsQuenchError,
)
from .zsdirect import (DEFAULT_INTEGRATOR, IntegratorConfig, _lagrange4, _require_schwartz,
                       scattering_batch)


class BlowUp(NlsQuenchError):
    pass


@dataclass(frozen=True)
class StepperConfig:
    dt: float = 1e-4
    n_modes: int = 2048

    def __post_init__(self):
        if not self.dt > 0:
            raise NlsQuenchError("dt must be positive")
        n = self.n_modes
        if n < 256 or (n & (n - 1)) != 0:
            raise NlsQuenchError("n_modes must be a power of two, >= 256")


DEFAULT_STEPPER = StepperConfig()

# evolve raises BlowUp once max |q| exceeds this
_MAX_AMP = 1e6


def _stepper_grid(p: FieldProfile, cfg: StepperConfig):
    """Periodic grid on [-L, L) with n_modes points, plus the profile
    resampled onto it (cubic interpolation)."""
    n = cfg.n_modes
    L = p.L
    xs = -L + (2.0 * L / n) * np.arange(n)
    pos = (xs - p.x[0]) / (p.x[1] - p.x[0])
    i = np.clip(np.floor(pos).astype(int), 0, p.n - 2)
    return xs, _lagrange4(p.values, *p.edge_values(), i, pos - i)


def _resampled_profile(p: FieldProfile, cfg: StepperConfig) -> FieldProfile:
    xs, vals = _stepper_grid(p, cfg)
    return FieldProfile(L=p.L, h=xs[1] - xs[0], values=vals,
                        asymptotics=p.asymptotics,
                        boundary_tol=max(p.boundary_tol, 1e-7))


def _rho_sq(p: FieldProfile) -> float:
    return p.asymptotics.rho ** 2 if isinstance(p.asymptotics, FiniteDensity) else 0.0


def _split_steps(values: np.ndarray, box: float, c2: float, rho2: float,
                 dt: float, n_steps: int, max_amp: float) -> np.ndarray:
    """n_steps Strang steps (half linear, full nonlinear phase, half
    linear), with the two linear half-steps between consecutive nonlinear
    phases merged into one full linear step: two FFTs per step.  The
    blow-up check reads max |q| at each nonlinear phase, which leaves |q|
    unchanged."""
    q = values.astype(np.complex128, copy=True)
    if n_steps == 0:
        return q
    n = len(values)
    khat = 2.0 * np.pi * np.fft.fftfreq(n, d=box / n)
    half = np.exp(-1j * khat ** 2 * dt / 2.0)
    full = half * half
    dens = np.empty(n)
    rot = np.empty(n, dtype=np.complex128)
    spec = half * np.fft.fft(q)
    for j in range(n_steps):
        q = np.fft.ifft(spec)
        np.multiply(q.real, q.real, out=dens)
        dens += q.imag ** 2
        peak = float(np.sqrt(np.max(dens)))
        if not np.isfinite(peak) or peak > max_amp:
            raise BlowUp(f"field amplitude reached {peak:.3e}")
        dens -= rho2
        dens *= -2.0 * c2 * dt
        np.cos(dens, out=rot.real)
        np.sin(dens, out=rot.imag)
        q *= rot
        spec = np.fft.fft(q)
        spec *= full if j < n_steps - 1 else half
    return np.fft.ifft(spec)


def evolve(p: FieldProfile, c: Coupling, t: float,
           cfg: StepperConfig = DEFAULT_STEPPER) -> FieldProfile:
    """Evolve to time t: full steps of dt plus one final fractional step."""
    return evolve_snapshots(p, c, [t], cfg)[0]


def evolve_snapshots(p: FieldProfile, c: Coupling, times: Sequence[float],
                     cfg: StepperConfig = DEFAULT_STEPPER) -> List[FieldProfile]:
    """evolve(p, c, t) at every t of the ascending times, from one
    trajectory on the dt grid: each snapshot branches off it after its
    int(t/dt) full steps with its own fractional step, so the cost is that
    of the last time alone."""
    if any(t < 0 for t in times):
        raise NlsQuenchError("negative evolution times are not supported")
    if any(b < a for a, b in zip(times, times[1:])):
        raise NlsQuenchError("snapshot times must be ascending")
    rp = _resampled_profile(p, cfg)
    c2 = (c.value ** 2).real  # c^2 is real on both admissible rays
    rho2 = _rho_sq(p)
    box = 2.0 * p.L
    vals, done = rp.values, 0
    out = []
    for t in times:
        if t == 0:
            out.append(rp)
            continue
        n_full = int(t / cfg.dt)
        rem = t - n_full * cfg.dt
        vals = _split_steps(vals, box, c2, rho2, cfg.dt, n_full - done, _MAX_AMP)
        done = n_full
        snap = vals
        if rem > 1e-15 * max(t, 1.0):
            snap = _split_steps(vals, box, c2, rho2, rem, 1, _MAX_AMP)
        out.append(FieldProfile(L=rp.L, h=rp.h, values=snap, asymptotics=rp.asymptotics,
                                boundary_tol=rp.boundary_tol))
    return out


def mass(p: FieldProfile) -> float:
    """integral (|q|^2 - rho^2) dx on the grid (background subtracted)."""
    return float(np.sum(np.abs(p.values) ** 2 - _rho_sq(p)) * p.h)


def hamiltonian(p: FieldProfile, c: Coupling) -> float:
    """integral |q_x|^2 + c^2 (|q|^2 - rho^2)^2 dx, spectral derivative."""
    n = len(p.values)
    khat = 2.0 * np.pi * np.fft.fftfreq(n, d=p.h)
    qx = np.fft.ifft(1j * khat * np.fft.fft(p.values))
    c2 = (c.value ** 2).real
    dens = np.abs(qx) ** 2 + c2 * (np.abs(p.values) ** 2 - _rho_sq(p)) ** 2
    return float(np.sum(dens.real) * p.h)


def boundary_energy(p: FieldProfile) -> float:
    """max |q - asymptote| over the outer 5% of the grid at each end; a wrap
    monitor for radiation reaching the periodic boundary."""
    n = max(2, int(0.05 * len(p.values)))
    left, right = p.edge_values()
    return float(max(np.max(np.abs(p.values[:n] - left)),
                     np.max(np.abs(p.values[-n:] - right))))


def fft_upsample(p: FieldProfile, factor: int) -> FieldProfile:
    """Spectral upsampling of a periodic-grid snapshot (zero-padded FFT).
    Exact for band-limited fields, so scattering the upsampled snapshot is
    not limited by the stepper resolution."""
    if factor < 1:
        raise NlsQuenchError("upsampling factor must be >= 1")
    if factor == 1:
        return p
    q = p.values
    n = len(q)
    m = n * factor
    spec = np.fft.fft(q)
    out = np.zeros(m, dtype=np.complex128)
    half = n // 2
    out[:half] = spec[:half]
    out[m - (n - half):] = spec[half:]
    # split the Nyquist bin symmetrically to keep the signal unchanged
    if n % 2 == 0:
        out[half] = 0.5 * spec[half]
        out[m - half] = 0.5 * spec[half]
    vals = np.fft.ifft(out) * factor
    return FieldProfile(L=p.L, h=p.h / factor, values=vals,
                        asymptotics=p.asymptotics, boundary_tol=p.boundary_tol)


@dataclass(frozen=True)
class DriftReport:
    """Deviation of evolved scattering data from the isospectral phase law:
    |a| should be frozen and arg b should advance by exactly -4 k^2 t."""

    amp_drift: float
    phase_drift: float
    n_phase_points: int
    boundary_leak: float

    def to_json_dict(self):
        return {
            "amp_drift": self.amp_drift,
            "phase_drift": self.phase_drift,
            "n_phase_points": self.n_phase_points,
            "boundary_leak": self.boundary_leak,
        }


def isospectral_check(p: FieldProfile, c: Coupling, t: float, kgrid: KGrid,
                      scfg: StepperConfig = DEFAULT_STEPPER,
                      icfg: IntegratorConfig = DEFAULT_INTEGRATOR) -> DriftReport:
    """Evolve to t, scatter both snapshots at the same coupling, and report
    max | |a(k;t)| - |a(k;0)| |  and  max |arg(b(k;t)/b(k;0)) + 4 k^2 t|
    (mod 2 pi), the latter restricted to samples with |b(k;0)| > 1e-3.

    Snapshots are spectrally upsampled 4-fold before scattering so the
    comparison is not limited by the stepper grid."""
    _require_schwartz(p, "the drift check")
    p0 = fft_upsample(_resampled_profile(p, scfg), 4)
    pt = fft_upsample(evolve(p, c, t, scfg), 4)
    k = kgrid.samples
    s0 = scattering_batch(p0, c, k, icfg)
    st = scattering_batch(pt, c, k, icfg)
    a0, at = s0[:, 1, 1], st[:, 1, 1]
    b0, bt = s0[:, 0, 1], st[:, 0, 1]
    amp = float(np.max(np.abs(np.abs(at) - np.abs(a0))))
    mask = (np.abs(b0) > 1e-3) & (np.abs(bt) > 0)
    if mask.any():
        raw = np.angle(bt[mask] / b0[mask]) + 4.0 * k[mask] ** 2 * t
        resid = np.abs((raw + np.pi) % (2.0 * np.pi) - np.pi)
        phase = float(np.max(resid))
        npts = int(np.count_nonzero(mask))
    else:
        phase = 0.0
        npts = 0
    return DriftReport(amp_drift=amp, phase_drift=phase, n_phase_points=npts,
                       boundary_leak=boundary_energy(pt))
