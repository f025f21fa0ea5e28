"""Sigma(x) = H Lambda H^{-1} of a dressing step at one grid point, which
only tests read: the field update uses the dressing weight alone."""

import numpy as np

from nlsquench.darboux import _mixed_column
from nlsquench.zsdirect import DEFAULT_INTEGRATOR


def sigma_matrix(p, c, step, x, cfg=DEFAULT_INTEGRATOR):
    """Sigma at the grid node nearest x, at a focusing coupling: with
    sigma = t/b and n = |t|^2 + |b|^2, its diagonal is (k0 |b|^2 + k0* |t|^2)/n
    and (k0* |b|^2 + k0 |t|^2)/n, its off-diagonal -(k0 - k0*) w and
    -(k0 - k0*) w* with the dressing weight w = t* b / n."""
    xs, k0, t, b = _mixed_column(p, c, step, cfg)
    j = int(np.argmin(np.abs(xs - x)))
    t2, b2 = abs(t[j]) ** 2, abs(b[j]) ** 2
    n = t2 + b2
    w = np.conj(t[j]) * b[j] / n
    dk = k0 - np.conj(k0)
    return np.array([[(k0 * b2 + np.conj(k0) * t2) / n, -dk * w],
                     [-dk * np.conj(w), (np.conj(k0) * b2 + k0 * t2) / n]],
                    dtype=np.complex128)
