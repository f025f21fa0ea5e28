"""One-point views of the direct solver that only tests use: the frame
matrices at one spectral point, with an exact-derivative check of the
frame ODE, and S at one real k."""

from dataclasses import dataclass

import numpy as np

from nlsquench.core import Coupling, Schwartz
from nlsquench.zsdirect import DEFAULT_INTEGRATOR, _frame_arrays, scattering_batch


@dataclass(frozen=True)
class AsymptoticFrame:
    """Diagonalisation of the constant-background problem at one k:
    E_pm(x) = P_pm exp(-i mu x sigma3) solves E_x + (i k sigma3 - W_pm) E = 0."""

    k: complex
    mu: complex
    p_plus: np.ndarray
    p_minus: np.ndarray

    def ode_residual(self, x: float, side: str, c: Coupling, asym) -> float:
        """max |E_x + (ik sigma3 - W_pm) E| via an exact derivative."""
        p = self.p_plus if side == "+" else self.p_minus
        d = np.diag([np.exp(-1j * self.mu * x), np.exp(1j * self.mu * x)])
        e = p @ d
        ex = p @ (np.diag([-1j * self.mu, 1j * self.mu]) @ d)
        w = _background_w(c, asym, side)
        res = ex + (1j * self.k * np.diag([1.0, -1.0]) - w) @ e
        return float(np.max(np.abs(res)))


def _background_w(c: Coupling, asym, side: str) -> np.ndarray:
    if isinstance(asym, Schwartz):
        return np.zeros((2, 2), dtype=np.complex128)
    rho, theta = asym.rho, asym.theta
    edge = rho * np.exp(1j * theta) if side == "+" else rho
    return c.value * np.array([[0.0, edge], [np.conj(edge), 0.0]])


def asymptotic_frame(c: Coupling, asymptotics, k: complex) -> AsymptoticFrame:
    """Frame matrices at one spectral point (complex k allowed): the
    one-point view of zsdirect._frame_arrays, with P+ = P- (P-^{-1} P+)
    rebuilt from the product the transfer pass starts from.  BranchPoint is
    raised where |mu| < 1e-9 (1 + |k|)."""
    k = complex(k)
    mu, pm, _, core = _frame_arrays(c, asymptotics, np.array([k]))
    return AsymptoticFrame(k=k, mu=complex(mu[0]), p_plus=pm[0] @ core[0], p_minus=pm[0])


def scattering_matrix(p, c, k, cfg=DEFAULT_INTEGRATOR):
    """S(k) at one real k; see zsdirect.scattering_batch."""
    return scattering_batch(p, c, [k], cfg)[0]
