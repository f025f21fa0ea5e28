"""Sigma(x) = H Lambda H^{-1} of a dressing step at one grid point, which
only tests read: the field update uses the dressing weight alone."""

import numpy as np

from nlsquench.darboux import _dressing_weight, _sigma_on_grid
from nlsquench.zsdirect import DEFAULT_INTEGRATOR


def sigma_matrix(p, c, step, x, cfg=DEFAULT_INTEGRATOR):
    """Sigma at the grid node nearest x."""
    xs, k0, sig, inv, use_inv, eps_c = _sigma_on_grid(p, c, step, cfg)
    j = int(np.argmin(np.abs(xs - x)))
    w = complex(_dressing_weight(sig[j:j + 1], inv[j:j + 1],
                                 use_inv[j:j + 1], eps_c)[0])
    dk = k0 - np.conj(k0)
    if use_inv[j]:
        u2 = abs(inv[j]) ** 2
        d1 = (k0 * u2 - np.conj(k0) * eps_c) / (u2 - eps_c)
        d2 = (np.conj(k0) * u2 - k0 * eps_c) / (u2 - eps_c)
    else:
        s2 = abs(sig[j]) ** 2
        d1 = (k0 - np.conj(k0) * eps_c * s2) / (1.0 - eps_c * s2)
        d2 = (np.conj(k0) - k0 * eps_c * s2) / (1.0 - eps_c * s2)
    return np.array([[d1, -dk * w], [eps_c * dk * np.conj(w), d2]],
                    dtype=np.complex128)
