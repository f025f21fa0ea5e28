"""The plain Strang loop the split-step oracle is tested against: every
step runs half linear, full nonlinear phase, half linear, four FFTs, with
the blow-up check on max |q| after the step."""

import numpy as np

from nlsquench import oracle
from nlsquench.oracle import BlowUp, _resampled_profile, _rho_sq


def split_steps(values, box, c2, rho2, dt, n_steps, max_amp=np.inf):
    n = len(values)
    khat = 2.0 * np.pi * np.fft.fftfreq(n, d=box / n)
    half = np.exp(-1j * khat ** 2 * dt / 2.0)
    q = values.astype(np.complex128, copy=True)
    for _ in range(n_steps):
        q = np.fft.ifft(half * np.fft.fft(q))
        q = q * np.exp(-2j * c2 * (np.abs(q) ** 2 - rho2) * dt)
        q = np.fft.ifft(half * np.fft.fft(q))
        peak = float(np.max(np.abs(q)))
        if not np.isfinite(peak) or peak > max_amp:
            raise BlowUp(f"field amplitude reached {peak:.3e}")
    return q


def evolve(p, c, t, cfg):
    """Values of oracle.evolve(p, c, t, cfg).values from the loop above:
    full steps of dt, then one fractional step, under the same blow-up
    bound oracle._MAX_AMP."""
    rp = _resampled_profile(p, cfg)
    c2 = (c.value ** 2).real
    n_full = int(t / cfg.dt)
    rem = t - n_full * cfg.dt
    vals = split_steps(rp.values, 2.0 * p.L, c2, _rho_sq(p), cfg.dt, n_full, oracle._MAX_AMP)
    if rem > 1e-15 * max(t, 1.0):
        vals = split_steps(vals, 2.0 * p.L, c2, _rho_sq(p), rem, 1, oracle._MAX_AMP)
    return vals
