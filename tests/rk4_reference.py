"""Plain per-step RK4 loops: the reference the vectorised propagator is
tested against.  Each integration is written out step by step, with the
generators sampled exactly where the package samples them."""

import numpy as np

from nlsquench.core import Schwartz
from nlsquench.zsdirect import _frame_arrays, _support_bounds, _working_samples


def rk4(gen, y, steps, s):
    """States of Y' = G Y after 0..steps fixed RK4 steps of size s, with
    gen(i) = (G at the start, middle and end of step i), each (nk, 2, 2)."""
    out = [y]
    for i in range(steps):
        g0, gm, g1 = gen(i)
        k1 = g0 @ y
        k2 = gm @ (y + 0.5 * s * k1)
        k3 = gm @ (y + 0.5 * s * k2)
        k4 = g1 @ (y + s * k3)
        y = y + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def transfer(p, c, k, cfg, collect=False):
    """Y = E_-^{-1} Psi+ from the right end down; the end value, or with
    collect=True the states at every working node (left to right)."""
    k = np.atleast_1d(np.asarray(k, dtype=np.complex128))
    xs, qn, qm, h = _working_samples(p, cfg)
    mu, pm, pmi, seed = _frame_arrays(c, p.asymptotics, k)
    ql = p.edge_values()[0]
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    a_mat, b_mat = pmi @ e12 @ pm, pmi @ e12.T @ pm

    def g(x, q):
        d1 = c.value * (q - ql)
        d2 = c.value * (np.conj(q) - np.conj(ql))
        out = d1 * a_mat + d2 * b_mat
        out[:, 0, 1] *= np.exp(2j * mu * x)
        out[:, 1, 0] *= np.exp(-2j * mu * x)
        return out

    if collect:
        j_lo, j_hi = 0, len(xs) - 1
    else:
        m = cfg.substeps(p.h)
        lo, hi = _support_bounds(p)
        j_lo, j_hi = lo * m, hi * m
    y0 = seed.copy()
    y0[:, 0, 1] *= np.exp(2j * mu * xs[j_hi])
    y0[:, 1, 0] *= np.exp(-2j * mu * xs[j_hi])

    def gen(i):
        j = j_hi - i
        return (g(xs[j], qn[j]), g(xs[j] - h / 2, qm[j - 1]), g(xs[j - 1], qn[j - 1]))

    states = rk4(gen, y0, j_hi - j_lo, -h)
    return states[::-1] if collect else states[-1]


def _columns(p, c, k, cfg, j_lo, j_hi, j_stop_r, j_stop_l):
    """R up from node j_lo to j_stop_r and L down from j_hi to j_stop_l,
    as state arrays (steps + 1, nk, 2) in integration order."""
    k = np.atleast_1d(np.asarray(k, dtype=np.complex128))
    nk = len(k)
    xs, qn, qm, h = _working_samples(p, cfg)
    tik = 2j * k

    def g(q, sign):
        out = np.zeros((nk, 2, 2), dtype=np.complex128)
        out[:, 0, 1] = c.value * q
        out[:, 1, 0] = c.value * np.conj(q)
        if sign > 0:
            out[:, 1, 1] = tik
        else:
            out[:, 0, 0] = -tik
        return out

    r0 = np.zeros((nk, 2, 1), dtype=np.complex128)
    r0[:, 0] = 1.0
    r = rk4(lambda i: (g(qn[j_lo + i], 1), g(qm[j_lo + i], 1), g(qn[j_lo + i + 1], 1)),
            r0, j_stop_r - j_lo, h)
    l0 = np.zeros((nk, 2, 1), dtype=np.complex128)
    l0[:, 1] = 1.0
    lc = rk4(lambda i: (g(qn[j_hi - i], -1), g(qm[j_hi - i - 1], -1), g(qn[j_hi - i - 1], -1)),
             l0, j_hi - j_stop_l, -h)
    return r[..., 0], lc[..., 0]


def _meet(p, c, k, cfg):
    """R and L at the central node, each (nk, 2)."""
    n = len(_working_samples(p, cfg)[0])
    imeet = n // 2
    m = cfg.substeps(p.h)
    lo, hi = _support_bounds(p)
    r, lc = _columns(p, c, k, cfg, min(lo * m, imeet), max(hi * m, imeet), imeet, imeet)
    return r[-1], lc[-1]


def a_of_k(p, c, k, cfg):
    """a(k) = det(R, L) with both columns met at the central node."""
    r, lc = _meet(p, c, k, cfg)
    return r[:, 0] * lc[:, 1] - r[:, 1] * lc[:, 0]


def norming(p, c, k, cfg):
    """b0 with L = b0 R at the central node, from the larger entry of R."""
    r, lc = _meet(p, c, k, cfg)
    i = (np.abs(r[:, 1]) > np.abs(r[:, 0])).astype(int)
    rows = np.arange(len(r))
    return lc[rows, i] / r[rows, i]


def columns_full(p, c, k0, cfg):
    """R and L at one k0 on every working node, shaped (n, 2)."""
    n = len(_working_samples(p, cfg)[0])
    m = cfg.substeps(p.h)
    lo, hi = _support_bounds(p)
    j_lo, j_hi = lo * m, hi * m
    r, lc = _columns(p, c, [k0], cfg, j_lo, j_hi, n - 1, 0)
    big_r = np.empty((n, 2), dtype=np.complex128)
    big_r[:j_lo] = (1.0, 0.0)
    big_r[j_lo:] = r[:, 0]
    big_l = np.empty((n, 2), dtype=np.complex128)
    big_l[j_hi:] = (0.0, 1.0)
    big_l[:j_hi + 1] = lc[::-1, 0]
    return big_r, big_l


def theta(p, c, c_new, k, cfg, direction):
    """Joint RK4 of Phi' = c Uhat Phi and Theta' = (c'-c) Phi^dag Uhat Phi
    Theta across the grid; (Phi, Theta) at every node, left to right."""
    assert isinstance(p.asymptotics, Schwartz)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    nk = len(k)
    xs, qn, qm, h = _working_samples(p, cfg)
    n = len(xs)
    dc = c_new.value - c.value

    def u_hat(x, q):
        out = np.zeros((nk, 2, 2), dtype=np.complex128)
        out[:, 0, 1] = q * np.exp(2j * k * x)
        out[:, 1, 0] = np.conj(q) * np.exp(-2j * k * x)
        return out

    def rhs(uh, phi, th):
        gen = dc * (np.conj(np.transpose(phi, (0, 2, 1))) @ uh @ phi)
        return (c.value * uh) @ phi, gen @ th

    phi = np.broadcast_to(np.eye(2, dtype=np.complex128), (nk, 2, 2)).copy()
    th = phi.copy()
    s = direction * h
    j = 0 if direction > 0 else n - 1
    phis, ths = [phi], [th]
    for _ in range(n - 1):
        jm = j if direction > 0 else j - 1
        u0 = u_hat(xs[j], qn[j])
        um = u_hat(xs[j] + s / 2, qm[jm])
        u1 = u_hat(xs[j] + s, qn[j + direction])
        p1, t1 = rhs(u0, phi, th)
        p2, t2 = rhs(um, phi + 0.5 * s * p1, th + 0.5 * s * t1)
        p3, t3 = rhs(um, phi + 0.5 * s * p2, th + 0.5 * s * t2)
        p4, t4 = rhs(u1, phi + s * p3, th + s * t3)
        phi = phi + (s / 6.0) * (p1 + 2 * p2 + 2 * p3 + p4)
        th = th + (s / 6.0) * (t1 + 2 * t2 + 2 * t3 + t4)
        phis.append(phi)
        ths.append(th)
        j += direction
    if direction < 0:
        phis, ths = phis[::-1], ths[::-1]
    return np.array(phis), np.array(ths)
