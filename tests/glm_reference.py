"""Per-x dense GLM solves: the reference the batched Toeplitz/GMRES routes
of nlsquench.glm are tested against.  The kernel is built as two dense
N_k x N_k matrices from the k samples themselves, and every x is solved on
its own, by a dense linear solve or by the plain term-by-term Neumann loop."""

import numpy as np

from nlsquench.core import trapezoid_weights
from nlsquench.glm import _TERM_STOP, SeriesDiverging


def f_kernel(rd, x, t=0.0):
    """F(x) = integral dk/(2 pi) rho(k, t) e^{-ikx} of RadiativeData rd, by
    trapezoid quadrature over its k samples, with rho(k, t) = e^{-4ik^2 t}
    rho(k)."""
    k = rd.kgrid.samples
    rho = rd.rho * np.exp(-4j * k ** 2 * t)
    return complex(np.sum(trapezoid_weights(k) * rho * np.exp(-1j * k * x)) / (2.0 * np.pi))


def kernel_matrices(rho, k):
    """x-independent pieces of the discretised operators:

    O      = diag(f*) M1 diag(f),   M1[i,j] =  rho_j w_j / (2 pi i (k_j - k_i + i eps))
    O-star = diag(f)  M2 diag(f*),  M2[i,j] = -rho_j* w_j / (2 pi i (k_j - k_i - i eps))

    with eps the median k spacing and trapezoid weights w.
    """
    w = trapezoid_weights(k)
    eps = float(np.median(np.diff(k)))
    diff = k[None, :] - k[:, None]
    m1 = (rho * w)[None, :] / (2j * np.pi * (diff + 1j * eps))
    m2 = -(np.conj(rho) * w)[None, :] / (2j * np.pi * (diff - 1j * eps))
    return w, m1, m2


class DenseKernel:
    """Gauge-reduced (c/c*) O-star O at fixed (x, t) as a dense matrix."""

    def __init__(self, rd, c0, t):
        k = rd.kgrid.samples
        w, m1, m2 = kernel_matrices(rd.rho, k)
        phase_t = np.exp(-4j * k ** 2 * t) if t else np.ones_like(k)
        self.k = k
        self.m1t = m1 * phase_t[None, :]
        self.m2t = m2 * np.conj(phase_t)[None, :]
        self.sign = 1.0 if c0.regime != "focusing" else -1.0
        self.quad = w * rd.rho * phase_t / (2.0 * np.pi)
        self.scale = -2.0 / c0.value
        self.f2 = None

    def at_x(self, x):
        self.f2 = np.exp(-2j * self.k * x)
        return self

    def apply(self, h):
        inner = self.m1t @ (self.f2 * h)
        return self.sign * (self.m2t @ (np.conj(self.f2) * inner))

    def dense(self):
        return self.sign * ((self.m2t * np.conj(self.f2)[None, :])
                            @ (self.m1t * self.f2[None, :]))

    def close(self, h):
        return complex(np.sum(self.quad * self.f2 * h))


def resolvent(rd, c0, xs, t=0.0):
    """q(x, t) at every x by a dense solve of (1 - C) h = 1."""
    op = DenseKernel(rd, c0, t)
    eye = np.eye(len(op.k), dtype=np.complex128)
    ones = np.ones(len(op.k), dtype=np.complex128)
    out = []
    for x in xs:
        op.at_x(x)
        out.append(op.scale * op.close(np.linalg.solve(eye - op.dense(), ones)))
    return np.array(out)


def neumann(rd, c0, xs, terms, t=0.0):
    """q(x, t) at every x by the iterated-kernel sum, term by term, with the
    package's stop rule and three-order growth detector."""
    op = DenseKernel(rd, c0, t)
    noise = 1e-14 * abs(op.scale) * float(np.sum(np.abs(op.quad)))
    out = []
    for x in xs:
        op.at_x(x)
        h = np.ones(len(op.k), dtype=np.complex128)
        total, lead, prev, growth = 0.0 + 0.0j, 1e-300, None, 0
        for _ in range(terms + 1):
            term = op.scale * op.close(h)
            total += term
            mag = abs(term)
            lead = max(lead, mag)
            if mag <= max(_TERM_STOP * lead, noise):
                break
            if prev is not None and mag >= prev:
                growth += 1
                if growth >= 3:
                    raise SeriesDiverging("iterated-kernel terms grow")
            else:
                growth = 0
            prev = mag
            h = op.apply(h)
        out.append(total)
    return np.array(out)
