"""Numerical direct scattering for the 2x2 auxiliary problem

    Psi_x = (-i k sigma3 + W(x)) Psi,   W = c [[0, q], [q*, 0]].

The transfer matrix is integrated in the frame of the left asymptotic
solution, so the oscillating factors e^{+-2i mu x} sit inside the coupling
terms and fixed-step RK4 stays accurate.  All RK4 integrations of the
package run through one linear propagator (step matrices chained by tree
products and prefix scans), defined here.  At every admissible real k the
frames, the step matrices, their products and S obey the reality
involution [[alpha, beta], [sigma beta*, alpha*]], sigma = c*/c, so the
transfer pass carries only (alpha, beta), whatever the asymptotics.  On a
rapidly decreasing profile the real-axis steps are polynomials in u =
e^{iks}; a finite-density background keeps a per-k basis.  Only the Jost
columns at complex k keep all four entries, as polynomials in z = +-2ik.
Every polynomial step table comes from one RK4 expansion, tabulated once
per profile.  The column tables give the analytic continuation of a(k)
into the upper half-plane (as a determinant of the two decaying Jost
columns) and a search for its zeros by the moments of one contour.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Real
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    Coupling,
    DiscreteEigenvalue,
    FieldProfile,
    KGrid,
    NlsQuenchError,
    ScatteringData,
    Schwartz,
    gap_edge,
)


class BranchPoint(NlsQuenchError):
    pass


class IntegratorDiverged(NlsQuenchError):
    pass


class DeterminantDrift(NlsQuenchError):
    pass


class ContourThroughZero(NlsQuenchError):
    pass


class NewtonStalled(NlsQuenchError):
    pass


class DivisionByZeroA(NlsQuenchError):
    pass


class UnsupportedAsymptotics(NlsQuenchError):
    pass


class ComplexSpectralSample(NlsQuenchError):
    """A real-axis pass was given k off the real axis."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    step=None integrates on the profile grid itself; otherwise step must
    divide the profile spacing evenly and the samples are refined by cubic
    interpolation.
    """

    step: Optional[float] = None

    def __post_init__(self):
        if self.step is not None and not (isinstance(self.step, Real) and 0 < self.step < np.inf):
            raise NlsQuenchError(f"integrator step must be a finite positive number, "
                                 f"not {self.step!r}")

    def substeps(self, h: float) -> int:
        if self.step is None:
            return 1
        m = h / self.step
        mi = int(round(m))
        if mi < 1 or abs(m - mi) > 1e-9:
            raise NlsQuenchError(
                f"integrator step {self.step} must divide the grid spacing {h}"
            )
        return mi


DEFAULT_INTEGRATOR = IntegratorConfig()

# largest |det S - 1| a scattering matrix may show before DeterminantDrift
_DET_GUARD = 1e-4


# ---------------------------------------------------------------------------
# cubic resampling (4-point Lagrange, ends padded with the asymptotic value)

def _lagrange4(values: np.ndarray, left_pad: complex, right_pad: complex, i, t):
    """Cubic through nodes i-1..i+2 of uniformly spaced values, at the
    fraction t of the way from node i to node i+1 (i and t broadcast); the
    values are padded by one node at each end."""
    v = np.empty(len(values) + 2, dtype=np.complex128)
    v[1:-1] = values
    v[0] = left_pad
    v[-1] = right_pad
    w0 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w1 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
    w2 = -(t + 1.0) * t * (t - 2.0) / 2.0
    w3 = (t + 1.0) * t * (t - 1.0) / 6.0
    return w0 * v[i] + w1 * v[i + 1] + w2 * v[i + 2] + w3 * v[i + 3]


def _cubic_refine(values: np.ndarray, m: int, left_pad: complex, right_pad: complex) -> np.ndarray:
    """Values on the m-fold refined grid, (n-1)*m + 1 points (m >= 2)."""
    n = len(values)
    out = np.empty((n - 1) * m + 1, dtype=np.complex128)
    out[::m] = values
    out[:-1].reshape(n - 1, m)[:, 1:] = _lagrange4(
        values, left_pad, right_pad, np.arange(n - 1)[:, None], np.arange(1, m) / m)
    return out


def _working_samples(p: FieldProfile, cfg: IntegratorConfig):
    """(x nodes, node values, midpoint values, spacing) for the integrator."""
    m = cfg.substeps(p.h)
    left, right = p.edge_values()
    fine = _cubic_refine(p.values, 2 * m, left, right)
    nodes = fine[::2]
    mids = fine[1::2]
    h = p.h / m
    xs = p.x[0] + h * np.arange(len(nodes))
    return xs, nodes, mids, h


# relative deviation from the background below which the tails are skipped
_SUPPORT_TOL = 1e-14


def _support_bounds(p: FieldProfile):
    """Node indices (lo, hi) outside of which the field sits on its
    asymptotic background to within _SUPPORT_TOL of the overall deviation;
    the transfer matrix is constant there, so integration may skip the
    tails."""
    left, right = p.edge_values()
    dev_l = np.abs(p.values - left)
    dev_r = np.abs(p.values - right)
    scale = max(float(dev_l.max()), float(dev_r.max()), 1e-300)
    inside_l = np.nonzero(dev_l > _SUPPORT_TOL * scale)[0]
    inside_r = np.nonzero(dev_r > _SUPPORT_TOL * scale)[0]
    if len(inside_l) == 0 and len(inside_r) == 0:
        mid = len(p.values) // 2
        return mid, mid
    lo = int(inside_l[0]) if len(inside_l) else int(inside_r[0])
    hi = int(inside_r[-1]) if len(inside_r) else int(inside_l[-1])
    lo = max(0, min(lo, hi) - 2)
    hi = min(len(p.values) - 1, max(lo, hi) + 2)
    return lo, hi


# ---------------------------------------------------------------------------
# asymptotic frames

def _mu_branch(c: Coupling, asym, k):
    """mu with mu^2 = k^2 - c^2 rho^2, cut along the segment joining the
    branch points +-c rho; on the allowed real rays mu ~ k at +-infinity in
    the gapped case and mu = +sqrt(k^2 + |c|^2 rho^2) in the focusing one."""
    k = np.asarray(k, dtype=np.complex128)
    if isinstance(asym, Schwartz):
        return k.copy()
    s = c.value * asym.rho
    return np.sqrt(k - s) * np.sqrt(k + s)


def _frame_arrays(c: Coupling, asym, k: np.ndarray):
    """Vectorised frame pieces: mu (nk,), P-, P-^{-1}, P-^{-1} P+ (nk,2,2);
    BranchPoint where |mu| < 1e-9 (1 + |k|)."""
    nk = len(k)
    mu = _mu_branch(c, asym, k)
    if isinstance(asym, Schwartz):
        eye = np.broadcast_to(np.eye(2, dtype=np.complex128), (nk, 2, 2))
        return mu, eye, eye, eye
    if np.any(np.abs(mu) < 1e-9 * (1.0 + np.abs(k))):
        raise BranchPoint("spectral sample at a branch point of mu")
    rho, theta = asym.rho, asym.theta
    beta = 1j * (mu - k) / (c.value * rho)
    det = 1.0 + beta ** 2
    pm = np.zeros((nk, 2, 2), dtype=np.complex128)
    pm[:, 0, 0] = 1.0
    pm[:, 0, 1] = beta
    pm[:, 1, 0] = -beta
    pm[:, 1, 1] = 1.0
    pmi = np.zeros_like(pm)
    pmi[:, 0, 0] = 1.0 / det
    pmi[:, 0, 1] = -beta / det
    pmi[:, 1, 0] = beta / det
    pmi[:, 1, 1] = 1.0 / det
    phase = np.exp(1j * theta / 2)
    pp = pm.copy()
    pp[:, 0, :] *= phase
    pp[:, 1, :] *= np.conj(phase)
    return mu, pm, pmi, pmi @ pp


# ---------------------------------------------------------------------------
# linear RK4 propagator: every integration is fixed-step RK4 on a linear 2x2
# system Y' = G(x) Y, so each step is a matrix, Y <- M_j Y.  Step matrices
# are built vectorised over (steps, k), each 2x2 entry its own array, and
# combined by an ordered tree product (end values) or a prefix scan
# (trajectories): the scheme of the step-by-step loop, rounded differently.
#
# Where G lies in the real algebra {[[alpha, beta], [sigma beta*, alpha*]]}
# (sigma = +-1) at every x, and RK4 combines stages with real weights, so
# does every step matrix and every product of them.  Such a matrix is kept
# as its first row (alpha, beta): the kernels below take sigma explicitly,
# and sigma=None means the four entries (m00, m01, m10, m11).

_CHUNK = 1 << 15  # elements per (steps x k) working array; steps go in chunks

_EYE = (1.0, 0.0, 0.0, 1.0)


def _chunk_steps(nk: int) -> int:
    """Steps per chunk for nk spectral points."""
    return max(1, _CHUNK // nk)


def _unchecked():
    """Overflow is diagnosed by _propagate's isfinite check, not by numpy
    noise."""
    return np.errstate(over="ignore", invalid="ignore")


def _mul(a, b, sigma=None):
    """2x2 product a @ b of entry tuples."""
    if sigma is None:
        a00, a01, a10, a11 = a
        b00, b01, b10, b11 = b
        return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
                a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
    a0, a1 = a
    b0, b1 = b
    t = a1 * np.conj(b1)
    return (a0 * b0 + t if sigma > 0 else a0 * b0 - t, a0 * b1 + a1 * np.conj(b0))


def _rows(m, idx):
    return tuple(e[idx] for e in m)


def _as_array(m, sigma=None):
    """Entry tuple -> array of shape (..., 2, 2)."""
    if sigma is not None:
        m = (m[0], m[1], sigma * np.conj(m[1]), np.conj(m[0]))
    return np.stack([np.stack(m[:2], -1), np.stack(m[2:], -1)], -2)


def _entries(a):
    """Array of shape (..., 2, 2) -> entry tuple."""
    return a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]


def _tree(m, sigma=None):
    """Ordered product m[n-1] @ ... @ m[0] over the leading axis."""
    while len(m[0]) > 1:
        n = len(m[0]) // 2 * 2
        prod = _mul(_rows(m, slice(1, n, 2)), _rows(m, slice(0, n, 2)), sigma)
        m = prod if n == len(m[0]) else tuple(
            np.concatenate([a, b[n:]]) for a, b in zip(prod, m))
    return _rows(m, 0)


def _scan(m, sigma=None):
    """Prefix products p[j] = m[j] @ ... @ m[0] over the leading axis."""
    n = len(m[0])
    if n == 1:
        return m
    odd = _scan(_mul(_rows(m, slice(1, n // 2 * 2, 2)), _rows(m, slice(0, n // 2 * 2, 2)),
                     sigma), sigma)
    rest = _mul(_rows(m, slice(2, None, 2)), _rows(odd, slice(0, (n - 1) // 2)), sigma)
    out = tuple(np.empty_like(e) for e in m)
    for o, e, a, b in zip(out, m, odd, rest):
        o[0], o[1::2], o[2::2] = e[0], a, b
    return out


def _propagate(build, nsteps: int, nk, y=None, record=None, per=None, sigma=None):
    """Chain nsteps steps chunk by chunk from the state y (entries of shape
    nk, an int or a tuple; default the identity); build(i0, i1) gives the
    step matrices of steps i0..i1-1, entries (i1 - i0, *nk), for chunks of
    per steps (default _chunk_steps(nk)).  Returns the final state and the
    states after the step counts in record, as (len(record), *nk, 2, 2)
    (None without record); IntegratorDiverged if any of them is not
    finite."""
    if y is None:
        y = _EYE if sigma is None else _EYE[:2]
    y = tuple(np.broadcast_to(np.asarray(e, dtype=np.complex128), nk) for e in y)
    out = None
    if record is not None:
        record = np.asarray(record, dtype=int)
        out = np.empty((len(record),) + y[0].shape + (2, 2), dtype=np.complex128)
        out[record == 0] = _as_array(y, sigma)
    per = per or _chunk_steps(nk)
    with _unchecked():
        for i0 in range(0, nsteps, per):
            i1 = min(i0 + per, nsteps)
            m = np.broadcast_arrays(*build(i0, i1))
            hit = None if record is None else (record > i0) & (record <= i1)
            if hit is not None and hit.any():
                states = _mul(_scan(m, sigma), y, sigma)
                out[hit] = _as_array(_rows(states, record[hit] - i0 - 1), sigma)
                y = _rows(states, -1)
            else:
                y = _mul(_tree(m, sigma), y, sigma)
    if not (all(np.isfinite(e).all() for e in y) and (out is None or np.isfinite(out).all())):
        raise IntegratorDiverged("RK4 integration produced non-finite values")
    return y, out


def _frame_steps(d1, d2, a, b, mu, x, s: float):
    """RK4 steps of size s of Y' = D(x) (d1(x) A + d2(x) B) D(x)^{-1} Y, with
    D(x) = diag(e^{i mu x}, e^{-i mu x}), from the nodes x (one per step),
    on a finite-density background.  d1, d2 hold the (start, middle, end)
    stage values of every step; A, B are per-k entry tuples with A^2 = B^2
    = 0 and AB + BA = I, so a stage generator G_i squares to d1_i d2_i I.
    By Cayley-Hamilton, with delta = d1 d2 at the middle, the step is
    exactly I + s^2 delta/6 I + (s/6)(1 + s^2 delta/2)(G_1 + G_3) + (2s/3)
    G_2 + (s^2/6)(G_2 G_1 + G_3 G_2) + (s^4 delta/24) G_3 G_1: 19 per-step
    scalars, tabulated once, times per-k matrices.  A chunk is one BLAS
    product, with I added after it so that the product sums only the O(s)
    terms.  The phases e^{2i mu x_j} are one exact exp per chunk times a
    ramp table e^{2i mu s m}; a rotation folded from step to step would
    accumulate rounding with the step count.

    Every caller has real mu and s, d2 = sigma d1* at every stage, and A, B
    with d1 A + d2 B in the algebra of _mul's sigma form (A = P^{-1} e12 P,
    B = P^{-1} e21 P with P in the algebra), so the steps lie in it too and
    only their first rows are tabulated.

    Returns steps(i0, i1), the first-row step-matrix entries of steps
    i0..i1-1, each (i1 - i0, nk), for chunks of _chunk_steps(nk) steps."""
    nk = len(mu)
    u = np.exp(1j * mu * s)
    with _unchecked():
        delta = d1[1] * d2[1]
        ends = (s / 6.0) * (1.0 + (s * s / 2.0) * delta)
        # stage i: ((d1_i, d2_i), (A_i, B_i)); relative to the step start
        # the stage phases are 1, u, u^2
        gens = [((d1[i], d2[i]), tuple(_phased(m, ph) for m in (a, b)))
                for i, ph in enumerate((1.0, u, u * u))]
        coef, basis = [(s * s / 6.0) * delta], [_EYE]
        for ((da, db), mats), w in zip(gens, (ends, 2.0 * s / 3.0, ends)):
            coef += [w * da, w * db]
            basis += mats
        for left, right, w in ((1, 0, s * s / 6.0), (2, 1, s * s / 6.0),
                               (2, 0, s ** 4 * delta / 24.0)):
            for dl, ml in zip(*gens[left]):
                for dr, mr in zip(*gens[right]):
                    coef.append(w * dl * dr)
                    basis.append(_mul(ml, mr))
        coef = np.stack(coef, axis=1)  # (steps, 19)
        basis = np.array([[np.broadcast_to(e, (nk,)) for e in m[:2]] for m in basis],
                         dtype=np.complex128).reshape(len(basis), 2 * nk)
        span = np.arange(min(_chunk_steps(nk), len(x)))
        ramp = np.exp(2j * np.multiply.outer(s * span, mu))

    def steps(i0, i1):
        n = i1 - i0
        m = (coef[i0:i1] @ basis).reshape(n, 2, nk)
        m[:, 0] += 1.0
        m[:, 1] *= ramp[:n]
        m[:, 1] *= np.exp(2j * mu * x[i0])
        return m[:, 0], m[:, 1]

    return steps


def _phased(m, e):
    """D m D^{-1} with D = diag(e^{1/2}, e^{-1/2})."""
    return (m[0], e * m[1], m[2] / e, m[3])


def _stages(nodes, mids, start: int, direction: int, i0: int, i1: int):
    """Values at the start, middle and end of steps i0..i1-1 taken from
    node start in the given direction."""
    j = start + direction * np.arange(i0, i1)
    return nodes[j], mids[j if direction > 0 else j - 1], nodes[j + direction]


# ---------------------------------------------------------------------------
# k-independent step tables: one Laurent-entry algebra, one RK4 expansion
#
# A step table holds a pass's RK4 steps with profile-only coefficients,
# built once and evaluated at every later k by one (rows x coefficients) @
# (coefficients x nk) product.  Entries are Laurent polynomials, row-wise:
# (lo, coef) stands for sum_i coef[i] v^(lo + i), coef (n, rows); None is
# zero.  Real-axis tables carry first rows in sigma form in v = u = e^{iks}
# (|u| = 1 at real k, so conj(p(u)) has p's coefficients reversed and
# conjugated); Jost-column tables carry four entries in v = z = +-2ik.
# Tables hold M - I, so products and evaluation sum only the small terms.

# steps per row of a fused step table (real axis and Jost columns), and
# steps per block of a table's build, a whole number of fused rows
_FUSED_LEVELS = 2
_TABLE_BLOCK = 2048


def _lconj(p):
    if p is None:
        return None
    lo, coef = p
    return -(lo + len(coef) - 1), np.conj(coef[::-1])


def _ladd(*terms):
    """sum of the terms of Laurent entries, (w, p) for w p and (w, p, q) for
    the row-wise product w p q, into one output; None is zero."""
    terms = [t for t in terms if None not in t[1:]]
    if len(terms) < 2 and all(len(t) == 2 and t[0] == 1.0 for t in terms):
        return terms[0][1] if terms else None
    spans = [(sum(e[0] for e in t[1:]), sum(len(e[1]) - 1 for e in t[1:]) + 1) for t in terms]
    lo = min(i for i, _ in spans)
    out = np.zeros((max(i + n for i, n in spans) - lo, terms[0][1][1].shape[1]),
                   dtype=np.complex128)
    for (i, _), (w, (_, a), *q) in zip(spans, terms):
        a = a if w == 1.0 else w * a
        if q:
            for j in range(len(a)):
                out[i - lo + j:i - lo + j + len(q[0][1])] += a[j] * q[0][1]
        else:
            out[i - lo:i - lo + len(a)] += a
    return lo, out


def _lmul(a, b, sigma=None):
    """2x2 product a @ b of entry tuples whose entries are Laurent
    polynomials, in _mul's convention (sigma=None: four entries)."""
    if sigma is None:  # entry (r, c) = a[2r] b[c] + a[2r + 1] b[c + 2]
        return tuple(_ladd((1.0, a[i], b[j]), (1.0, a[i + 1], b[j + 2]))
                     for i in (0, 2) for j in (0, 1))
    (a0, a1), (b0, b1) = a, b
    return (_ladd((1.0, a0, b0), (sigma, a1, _lconj(b1))),
            _ladd((1.0, a0, b1), (1.0, a1, _lconj(b0))))


def _lsum(*terms):
    """sum of w m over the (w, m) pairs, entry tuples with Laurent entries."""
    return tuple(_ladd(*((w, e) for (w, _), e in zip(terms, entries)))
                 for entries in zip(*(m for _, m in terms)))


def _lwindow(p, lo: int, n: int, rows: int) -> np.ndarray:
    """Coefficients of v^lo .. v^(lo + n - 1) of a Laurent entry, (n, rows)."""
    out = np.zeros((n, rows), dtype=np.complex128)
    if p is not None:
        out[p[0] - lo:p[0] - lo + len(p[1])] = p[1]
    return out


def _rk4_terms(h, s: float, sigma=None):
    """Graded terms of one RK4 step of size s of Y' = G Y from its four
    stage generators h = (G_1, G_2, G_3, G_4) (entry tuples with Laurent
    entries, in _mul's convention): the step is I + C_1 + C_2 + C_3 + C_4,
    where C_m sums the products of m generators,
        C_1 = (s/6)(G_1 + 2 G_2 + 2 G_3 + G_4),
        C_2 = (s^2/6)(G_2 G_1 + G_3 G_2 + G_4 G_3),
        C_3 = (s^3/12)(G_3 G_2 G_1 + G_4 G_3 G_2),  C_4 = (s^4/24) G_4 G_3 G_2 G_1.
    Returns the (weight, product) pairs of C_1..C_4, for _lsum.  A linear
    step passes (G_start, G_mid, G_mid, G_end)."""
    g1, g2, g3, g4 = h
    g21, g32, g43 = (_lmul(a, b, sigma) for a, b in ((g2, g1), (g3, g2), (g4, g3)))
    g321 = _lmul(g3, g21, sigma)
    return [[(s / 6, g1), (s / 3, g2), (s / 3, g3), (s / 6, g4)],
            [(s * s / 6, m) for m in (g21, g32, g43)],
            [(s ** 3 / 12, m) for m in (g321, _lmul(g4, g32, sigma))],
            [(s ** 4 / 24, _lmul(g4, g321, sigma))]]


def _step_table(h, s: float, degree: int, sigma=None, levels: int = 0):
    """M - I of the RK4 steps of the stage generators h (see _rk4_terms),
    whose entries are polynomials of degree <= degree, in rows of 2^levels
    consecutive steps multiplied out in order (_fuse), as one coefficient
    array (rows, entries, degree 2^levels + 1).  Steps go in blocks of
    _TABLE_BLOCK, so that the build's temporaries stay small."""
    steps, per = h[0][1][1].shape[1], 1 << levels
    out = np.empty((-(-steps // per), len(h[0]), (degree << levels) + 1), dtype=np.complex128)
    for i0 in range(0, steps, _TABLE_BLOCK):
        hb = [[None if e is None else (e[0], e[1][:, i0:i0 + _TABLE_BLOCK]) for e in g] for g in h]
        with _unchecked():
            m = _fuse(_lsum(*(t for c in _rk4_terms(hb, s, sigma) for t in c)), levels, sigma)
        r0, rows = i0 // per, m[1][1].shape[1]
        out[r0:r0 + rows] = np.stack([_lwindow(e, 0, out.shape[2], rows).T for e in m], 1)
    return out


def _fuse(m, levels: int, sigma=None):
    """Rows of 2^levels consecutive steps of a table of M - I (Laurent
    entries, coefficients (n, steps)), multiplied out level by level as
    (I + L)(I + R) - I = L + R + L R, L the later row; the step count is
    padded with identities (M - I = 0).  In sigma form (u-tables) every row
    is in the gauge of its first node, so L's beta first takes the gauge
    shift u^{2n} to R's first node, n steps per row; z-tables need none.
    This is the fast nonlinear Fourier transform idea (Wahls & Poor, IEEE
    Trans. Inf. Theory 61, 2015) applied to the RK4 steps."""
    pad = -m[1][1].shape[1] % (1 << levels)
    if pad:
        m = tuple(None if e is None else (e[0], np.pad(e[1], ((0, 0), (0, pad)))) for e in m)
    for level in range(levels):
        left, right = (tuple(None if e is None else (e[0], np.ascontiguousarray(e[1][:, i::2]))
                             for e in m) for i in (1, 0))
        if sigma is not None:
            left = (left[0], (left[1][0] + (2 << level), left[1][1]))
        m = _lsum((1.0, left), (1.0, right), (1.0, _lmul(left, right, sigma)))
    return m


def _table_rows(coef: np.ndarray, powers: np.ndarray):
    """rows(i0, i1) for _propagate: the entries of rows i0..i1-1 of a step
    table of M - I, coef (rows, entries, ncoef), at the points whose powers
    of the table variable are powers (ncoef, nk), each (i1 - i0, nk), from
    one (entries rows x coefficients) @ (coefficients x nk) product.  I is
    added after it: entries 0 and 3 of four, entry 0 of a first row."""
    def rows(i0, i1):
        m = (coef[i0:i1].reshape(-1, coef.shape[2]) @ powers).reshape(i1 - i0, -1, len(powers[0]))
        m[:, ::3] += 1.0
        return tuple(m.transpose(1, 0, 2))

    return rows


# ---------------------------------------------------------------------------
# rapidly decreasing real-axis passes: one k-independent table in u = e^{iks}
#
# For P = I the frame generator is [[0, d1 e^{2ikx}], [d2 e^{-2ikx}, 0]].
# Relative to its first node (D_j^{-1} M_j D_j) an RK4 step sees stage
# generators with first rows (0, d1 u^e), e = 0, 1, 2, so its first row is
# a polynomial of degree <= 2 in u; the actual step has beta times the row
# phase e^{2ikx_j}.  End-value passes fuse 4 steps to a row; jost_plus and
# the Theta pass (quench._theta_table) take the table one step per row.


@dataclass(frozen=True)
class _DecayTable:
    """k-independent first rows of the RK4 steps of a rapidly decreasing
    real-axis pass, each in the gauge of its row's first node: coef (rows,
    2, degree + 1) holds the coefficients of alpha - 1 and beta in u =
    e^{iks}, x the first node of every row; rows start stride apart."""

    coef: np.ndarray
    x: np.ndarray
    s: float
    stride: float


def _decay_table(c: Coupling, q, x: np.ndarray, s: float, levels: int = 0) -> _DecayTable:
    """Step table of Y' = [[0, d1 e^{2ikx}], [d2 e^{-2ikx}, 0]] Y with d1 =
    c q and d2 = c q* = sigma d1*, for steps of size s from the nodes x (one
    per step); q holds the field's (start, middle, end) stage values of
    every step.  Each row multiplies out 2^levels steps, in order; the step
    count is padded with identities."""
    g = [(None, (e, (c.value * v)[None])) for e, v in enumerate(q)]
    coef = _step_table((g[0], g[1], g[1], g[2]), s, 2, c.involution_sign, levels)
    return _DecayTable(coef, x[::1 << levels], s, s * (1 << levels))


# rows per block of row phases: one exact exp at each block's first node
_PHASE_ROWS = 16


def _decay_steps(table: _DecayTable, k: np.ndarray):
    """(steps, phases) of a table at real k (nk,).  steps(i0, i1) gives the
    first-row entries of rows i0..i1-1, each (i1 - i0, nk), from one (2 rows
    x coefficients) @ (coefficients x nk) product; phases(i0, i1) gives
    e^{2ikx} at their first nodes: one exp at the first node of every block
    of _PHASE_ROWS rows times a ramp table.  A ramp across a whole chunk
    would carry the rounding of its argument, ~ |k| times the chunk's length
    in x, into every phase of the chunk."""
    nk = len(k)
    powers = np.exp(1j * table.s * np.multiply.outer(np.arange(table.coef.shape[2]), k))
    ramp = np.exp(2j * np.multiply.outer(table.stride * np.arange(_PHASE_ROWS), k))

    def turn(m, i0):
        """m (rows i0.., nk) times the row phases, in place."""
        n = len(m)
        starts = np.exp(2j * np.multiply.outer(table.x[i0:i0 + n:_PHASE_ROWS], k))
        full = n - n % _PHASE_ROWS
        blocks = m[:full].reshape(-1, _PHASE_ROWS, nk)
        blocks *= ramp
        blocks *= starts[:full // _PHASE_ROWS, None]
        m[full:] *= ramp[:n - full]
        m[full:] *= starts[full // _PHASE_ROWS:]
        return m

    rows = _table_rows(table.coef, powers)

    def steps(i0, i1):
        alpha, beta = rows(i0, i1)
        return alpha, turn(beta, i0)

    def phases(i0, i1):
        return turn(np.ones((i1 - i0, nk), dtype=np.complex128), i0)

    return steps, phases


# ---------------------------------------------------------------------------
# transfer-matrix pass

def _real_samples(k) -> np.ndarray:
    """k as a 1-d float array; ComplexSpectralSample for any k off the real
    axis (a complex array whose imaginary parts all vanish is accepted)."""
    k = np.atleast_1d(np.asarray(k))
    if np.iscomplexobj(k):
        if np.any(k.imag != 0):
            raise ComplexSpectralSample(
                "the real-axis pass takes real k; off the axis use analytic_continue_a")
        k = k.real
    return k.astype(float)


def _transfer_pass(p: FieldProfile, c: Coupling, k: np.ndarray,
                   cfg: IntegratorConfig = DEFAULT_INTEGRATOR,
                   collect: bool = False):
    """Integrate Y' = G(x) Y from the right end down to the left end, where
    Y = E_-^{-1} Psi+ and G = E_-^{-1} (W - W_-) E_-.

    Returns (S, trajectory) with S = Y(left end) of shape (nk, 2, 2);
    trajectory is Psi+ on the working grid when collect=True.  k is real.
    There mu is real and the frames P_pm = [[1, beta], [-beta, 1]] phase
    (beta real when focusing, imaginary when defocusing) lie in the algebra
    with sigma = c*/c, as does G, so only the first rows are integrated and
    S = [[alpha, beta], [sigma beta*, alpha*]] exactly.  Samples inside the
    forbidden gap, where mu is imaginary and the frames grow like
    e^{+-nu x}, carry no scattering data: BranchPoint is raised there.
    A k with a nonzero imaginary part raises ComplexSpectralSample.
    """
    k = _real_samples(k)
    g = gap_edge(c, p.asymptotics)
    if g is not None and np.any(np.abs(k) < g):
        raise BranchPoint(f"spectral sample inside the forbidden gap (-{g}, {g})")
    xs, q_nodes, q_mids, h = _working_samples(p, cfg)
    mu, pm, pmi, seed_core = _frame_arrays(c, p.asymptotics, k)
    sigma = c.involution_sign

    n = len(xs)
    if collect:
        j_lo, j_hi = 0, n - 1
    else:
        m = cfg.substeps(p.h)
        lo, hi = _support_bounds(p)
        j_lo, j_hi = lo * m, hi * m
    # G = D(x) (d1 A + d2 B) D(x)^{-1} with D = diag(e^{i mu x}, e^{-i mu x}),
    # A = P^{-1} e12 P and B = P^{-1} e21 P (A = e12, B = e21 for rapid decay,
    # whose steps come from one table in u = e^{iks})
    nsteps = j_hi - j_lo
    x_steps = xs[j_hi - np.arange(nsteps)]
    if isinstance(p.asymptotics, Schwartz):
        # end values from rows of fused steps; a trajectory records every step
        table = _decay_table(c, _stages(q_nodes, q_mids, j_hi, -1, 0, nsteps), x_steps, -h,
                             0 if collect else _FUSED_LEVELS)
        build, _ = _decay_steps(table, k)
        nrows = len(table.coef)
    else:
        q_left = p.edge_values()[0]
        d1 = (c.value * (q_nodes - q_left), c.value * (q_mids - q_left))
        d2 = (c.value * np.conj(q_nodes - q_left), c.value * np.conj(q_mids - q_left))
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
        build = _frame_steps(_stages(*d1, j_hi, -1, 0, nsteps), _stages(*d2, j_hi, -1, 0, nsteps),
                             _entries(pmi @ e12 @ pm), _entries(pmi @ e12.T @ pm), mu,
                             x_steps, -h)
        nrows = nsteps

    # on the right tail Psi+ equals its frame, so Y = E_-^{-1} E_+ there
    y0 = _phased(_entries(seed_core), np.exp(2j * mu * xs[j_hi]))
    y, traj = _propagate(build, nrows, len(k), y0[:2],
                         record=np.arange(n) if collect else None, sigma=sigma)
    y = _as_array(y, sigma)

    if collect:
        traj = traj[::-1]  # recorded from the right end down
        # Psi+ = E_-(x) Y(x) = P_- diag(e^{-i mu x}, e^{i mu x}) Y(x)
        em = np.exp(-1j * np.outer(xs, mu))[:, :, None]  # (n, nk, 1)
        psi = pm[None] @ np.stack([em * traj[:, :, 0], traj[:, :, 1] / em], axis=2)
        return y, (xs, psi)
    return y, None


@dataclass(frozen=True)
class JostSolution:
    """Psi+(x, k) sampled on the integrator grid."""

    x: np.ndarray
    samples: np.ndarray  # (n, 2, 2)
    k: complex
    side: str = "+"

    def det_drift(self) -> float:
        det = (self.samples[:, 0, 0] * self.samples[:, 1, 1]
               - self.samples[:, 0, 1] * self.samples[:, 1, 0])
        return float(np.max(np.abs(det - det[0])))


def jost_plus(p: FieldProfile, c: Coupling, k: float,
              cfg: IntegratorConfig = DEFAULT_INTEGRATOR) -> JostSolution:
    """Jost solution normalised to the right asymptotic frame, integrated
    down to the left end of the grid."""
    _, out = _transfer_pass(p, c, k, cfg, collect=True)
    xs, psi = out
    return JostSolution(x=xs, samples=psi[:, 0], k=complex(k))


def scattering_batch(p: FieldProfile, c: Coupling, k: Sequence[float],
                     cfg: IntegratorConfig = DEFAULT_INTEGRATOR) -> np.ndarray:
    """S(k) = lim_{x -> left end} E_-^{-1}(x) Psi+(x) at every k, shape
    (nk, 2, 2).  det S = 1 up to integrator drift (trace-free generator);
    DeterminantDrift is raised when max |det S - 1| exceeds 1e-4."""
    s, _ = _transfer_pass(p, c, k, cfg)
    det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    drift = float(np.max(np.abs(det - 1.0)))
    if drift > _DET_GUARD:
        raise DeterminantDrift(f"det S drifted by {drift:.3e}")
    return s


# ---------------------------------------------------------------------------
# analytic continuation and the discrete spectrum (rapidly decreasing case)
#
# a(k) = det(R, L) comes from the two Jost columns that decay in the upper
# half-plane: R' = [[0, d1], [d2, 2ik]] R upward from the left end and, as
# (L2, L1), L the same way with (d1, d2, 2ik) -> (d2, d1, -2ik) downward
# from the right end (d1 = c q, d2 = c q*).  In z = +-2ik every RK4 step
# matrix of either column is a polynomial of degree <= 4 whose coefficients
# depend on the profile only (_step_table in four entries), so they are
# tabulated once per (profile, coupling, integrator).  For the passes that
# stop at the central node, adjacent steps are fused twice (each row then
# covers 4 steps, degree <= 16), which removes the two widest levels of
# the tree product.  A zero search builds one table for its
# contour (decimated profile) and one for Newton and the norming constants
# (full profile); the public entry points build one per call.

def _require_schwartz(p: FieldProfile, what: str):
    if not isinstance(p.asymptotics, Schwartz):
        raise UnsupportedAsymptotics(
            f"{what} is implemented for rapidly decreasing profiles only"
        )


@dataclass(frozen=True)
class _ColumnTable:
    """k-independent RK4 steps of the Jost columns on one (profile,
    coupling, integrator): rise takes R up from node j_lo, fall takes
    (L2, L1) down from node j_hi.  Each holds M - I of its rows as a
    coefficient array (rows, 4, degree + 1) of polynomials in z = 2ik
    (rise) or z = -2ik (fall), and each column is the first column of its
    ordered row product."""

    xs: np.ndarray
    j_lo: int
    j_hi: int
    rise: np.ndarray
    fall: np.ndarray

    def steps(self, k: np.ndarray):
        """(rise, fall) build functions for _propagate at k (nk,)."""
        return tuple(_table_rows(t, z ** np.arange(t.shape[2])[:, None])
                     for t, z in ((self.rise, 2j * k), (self.fall, -2j * k)))


def _column_table(p: FieldProfile, c: Coupling, cfg: IntegratorConfig,
                  meet: bool = True) -> _ColumnTable:
    """Step table of the Jost columns, each integrated in its decaying
    direction from the field's support.  With meet, both passes are
    stretched to and stopped at the central node, and fused
    (_FUSED_LEVELS); otherwise R runs to the right end and L to the left
    end one step per row, so that every node can be recorded."""
    xs, qn, qm, h = _working_samples(p, cfg)
    m = cfg.substeps(p.h)
    lo, hi = _support_bounds(p)
    j_lo, j_hi = lo * m, hi * m
    if meet:
        imeet = len(xs) // 2
        j_lo, j_hi = min(j_lo, imeet), max(j_hi, imeet)
        r_stop = l_stop = imeet
    else:
        r_stop, l_stop = len(xs) - 1, 0
    d1 = (c.value * qn, c.value * qm)
    d2 = (c.value * np.conj(qn), c.value * np.conj(qm))
    nr, nl, levels = r_stop - j_lo, j_hi - l_stop, _FUSED_LEVELS if meet else 0
    # one build for both: the steps of [[0, a], [b, z]], R's from node j_lo
    # (step h), then (L2, L1)'s from node j_hi as the same steps of minus
    # the generator (step -h); zero generators (identity steps) pad R's rows
    pad = np.zeros(-nr % (1 << levels))
    a, b = ([np.concatenate([r, pad, -f]) for r, f in zip(_stages(*rd, j_lo, 1, 0, nr),
                                                         _stages(*fd, j_hi, -1, 0, nl))]
            for rd, fd in ((d1, d2), (d2, d1)))
    z = (1, np.concatenate([np.ones(nr), pad, -np.ones(nl)])[None])
    g = [(None, (0, ai[None]), (0, bi[None]), z) for ai, bi in zip(a, b)]
    table = _step_table((g[0], g[1], g[1], g[2]), h, 4, levels=levels)
    return _ColumnTable(xs, j_lo, j_hi, *np.split(table, [(nr + len(pad)) >> levels]))


def _meet_columns(table: _ColumnTable, k):
    """Gauge-removed Jost columns R (from the left, R(-L) = (1, 0)) and L
    (from the right, L(+L) = (0, 1)) at the central node, at every k, from
    a meet table."""
    k = np.atleast_1d(np.asarray(k, dtype=np.complex128))
    rise, fall = table.steps(k)
    (r1, _, r2, _), _ = _propagate(rise, len(table.rise), len(k))
    (l2, _, l1, _), _ = _propagate(fall, len(table.fall), len(k))
    return (r1, r2), (l1, l2)


def _a_values(table: _ColumnTable, k) -> np.ndarray:
    """a(k) = det(R, L) at every k (nk,)."""
    (r1, r2), (l1, l2) = _meet_columns(table, k)
    return r1 * l2 - r2 * l1


def _norming_values(table: _ColumnTable, k) -> np.ndarray:
    """b0 with L = b0 R at the central node, from the larger entry of R,
    at every k (zeros of a)."""
    (r1, r2), (l1, l2) = _meet_columns(table, k)
    first = np.abs(r1) >= np.abs(r2)
    return np.where(first, l1, l2) / np.where(first, r1, r2)


def analytic_continue_a(p: FieldProfile, c: Coupling, k,
                        cfg: IntegratorConfig = DEFAULT_INTEGRATOR):
    """a(k) = det(R, L) for Im k >= 0, from the two Jost columns that stay
    bounded in the upper half-plane (scalar in, scalar out; arrays pass
    through vectorised)."""
    _require_schwartz(p, "analytic continuation of a")
    scalar = np.isscalar(k) or np.ndim(k) == 0
    a = _a_values(_column_table(p, c, cfg), k)
    return complex(a[0]) if scalar else a


def norming_constant(p: FieldProfile, c: Coupling, k0: complex,
                     cfg: IntegratorConfig = DEFAULT_INTEGRATOR) -> complex:
    """Proportionality b0 between the two bounded columns at a zero of a,
    evaluated at the central node (L = b0 R there)."""
    _require_schwartz(p, "norming constant extraction")
    return complex(_norming_values(_column_table(p, c, cfg), [k0])[0])


# Zero search: a(k) is sampled around the search rectangle from _EDGE_POINTS
# per edge.  Intervals whose phase step exceeds _MAX_PHASE_STEP are bisected,
# then every interval is split once more: a whole turn inside one interval
# aliases to a small step.  The default bottom edge runs _AXIS_GAP above the
# axis, clear of the real zero of a(k) at a threshold coupling (a spectral
# singularity), which the decimated profile displaces by ~1e-7.  The contour
# pass runs on the profile decimated to a spacing of at most _COARSE_H;
# Newton stops once a step falls below _NEWTON_TOL (1 + |k|).
_EDGE_POINTS = 24
_MAX_PHASE_STEP = np.pi / 4
_MAX_BISECTIONS = 40
_AXIS_GAP = 1e-6
_COARSE_H = 0.045
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 60


def _decimated(p: FieldProfile) -> FieldProfile:
    """Coarsened copy for the contour pass (the moments only need a few
    digits of a(k); Newton polishing runs on the full profile)."""
    best = 1
    for m in (6, 5, 4, 3, 2):
        if (p.n - 1) % m == 0 and p.h * m <= _COARSE_H:
            best = m
            break
    if best == 1:
        return p
    return FieldProfile(L=p.L, h=p.h * best, values=p.values[::best],
                        asymptotics=p.asymptotics, boundary_tol=p.boundary_tol)


def _contour(p: FieldProfile, c: Coupling, region):
    """(N, nodes, increments of log a(k) between the nodes) around the
    rectangle, counter-clockwise from x0 + i y0 and closed; the winding
    number N of a counts the zeros inside, with multiplicity.  Every
    sample, refinements included, comes from one column table of the
    decimated profile."""
    x0, x1, y0, y1 = region
    corners = np.array([x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1, x0 + 1j * y0])
    t = np.arange(_EDGE_POINTS) / _EDGE_POINTS
    pts = np.append((corners[:-1, None] + np.diff(corners)[:, None] * t).ravel(), corners[0])
    table = _column_table(_decimated(p), c, DEFAULT_INTEGRATOR)
    vals = _a_values(table, pts)
    doubled = False
    for _ in range(_MAX_BISECTIONS):
        mag = np.abs(vals)
        if mag.min() < max(1e-13, 1e-6 * float(np.median(mag))):
            raise ContourThroughZero("a(k) vanishes on the contour")
        dlog = np.log(vals[1:] / vals[:-1])  # phase steps wrapped to (-pi, pi]
        bad = np.abs(dlog.imag) > _MAX_PHASE_STEP
        if not bad.any():
            if doubled:
                break
            bad[:] = True
        doubled = bool(bad.all())
        idx = np.nonzero(bad)[0]
        mids = 0.5 * (pts[idx] + pts[idx + 1])
        pts = np.insert(pts, idx + 1, mids)
        vals = np.insert(vals, idx + 1, _a_values(table, mids))
    else:
        raise ContourThroughZero("contour refinement limit reached")
    turns = float(np.sum(dlog.imag)) / (2.0 * np.pi)
    n = int(round(turns))
    if abs(turns - n) > 0.2:
        raise ContourThroughZero("winding number did not settle")
    return n, pts, dlog


def _moment_roots(pts: np.ndarray, dlog: np.ndarray, n: int, region) -> np.ndarray:
    """The n zeros inside the rectangle as the roots of prod_j (k - k_j),
    from the power sums s_p = (1/2 pi i) sum k_mid^p (increment of log a),
    p <= n, in a variable centred and scaled to the rectangle."""
    x0, x1, y0, y1 = region
    centre, scale = complex(x0 + x1, y0 + y1) / 2, abs(complex(x1 - x0, y1 - y0)) / 2
    w = (0.5 * (pts[1:] + pts[:-1]) - centre) / scale
    s = [complex(np.sum(w ** j * dlog)) / (2j * np.pi) for j in range(n + 1)]
    e = [1.0 + 0.0j]
    for m in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[m - i] * s[i] for i in range(1, m + 1)) / m)
    return centre + scale * np.roots([(-1) ** m * e[m] for m in range(n + 1)])


def _newton_zeros(table: _ColumnTable, starts) -> np.ndarray:
    """Newton iteration on a(k) from every start at once, with a central
    finite-difference derivative; each iteration is one batched evaluation
    of a (from the meet table) at the starts not yet converged."""
    k = np.array(starts, dtype=np.complex128)
    live = np.arange(len(k))
    for _ in range(_NEWTON_MAX_ITER):
        kl = k[live]
        d = 1e-5 * (1.0 + np.abs(kl))
        a0, ap, am = _a_values(table, np.concatenate([kl, kl + d, kl - d])).reshape(3, -1)
        da = (ap - am) / (2.0 * d)
        flat = np.abs(da) < 1e-14
        if flat.any():
            raise NewtonStalled(f"flat derivative of a near k = {kl[flat][0]}")
        step = a0 / da
        kl = kl - step
        below = kl.imag <= 0
        kl[below] = kl[below].real + 1j * np.maximum(1e-8, -0.1 * kl[below].imag)
        k[live] = kl
        live = live[np.abs(step) >= _NEWTON_TOL * (1.0 + np.abs(kl))]
        if len(live) == 0:
            return k
    raise NewtonStalled(f"Newton did not converge near {k[live[0]]}")


def find_zeros(p: FieldProfile, c: Coupling,
               region: Tuple[float, float, float, float],
               cfg: IntegratorConfig = DEFAULT_INTEGRATOR) -> List[DiscreteEigenvalue]:
    """Zeros of a(k) inside the rectangle (re_min, re_max, im_min, im_max),
    im_min >= 0, with their orders and norming constants.

    a(k) is sampled once around the boundary, whose bottom edge may lie on
    the real axis.  The winding number s0 of a gives the count N, and the
    contour moments s_p = (1/2 pi i) oint k^p d log a, p <= N, give the
    zeros as the roots of a polynomial (Newton's identities).  One batched
    Newton run on the full profile polishes every root; a zero's order is
    the number of roots that land on it.  The contour samples one column
    table of the decimated profile, Newton and the norming constants one of
    the full profile, each built once.  ContourThroughZero is raised
    when a(k) vanishes on the boundary (on the real axis: a spectral
    singularity) or s0 is not close to an integer.
    """
    _require_schwartz(p, "zero search")
    x0, x1, y0, y1 = region
    if not (y0 >= 0 and y1 > y0 and x1 > x0):
        raise NlsQuenchError("region must be a rectangle in Im k >= 0")
    n, pts, dlog = _contour(p, c, region)
    if n == 0:
        return []
    table = _column_table(p, c, cfg)
    roots = _newton_zeros(table, _moment_roots(pts, dlog, n, region))
    same = np.abs(roots[:, None] - roots) < 1e-7 * (1.0 + np.abs(roots[:, None]))
    # each zero once, counted in the order of its first copy
    first = [i for i in sorted(range(n), key=lambda i: (roots[i].real, roots[i].imag))
             if not same[i, :i].any()]
    norming = _norming_values(table, roots[first])
    out = []
    for i, b0 in zip(first, norming):
        k_star = complex(roots[i])
        if k_star.imag < 1e-4:
            warnings.warn(f"zero at {k_star} lies within 1e-4 of the real axis")
        out.append(DiscreteEigenvalue(position=k_star, order=int(same[i].sum()),
                                      norming=complex(b0)))
    return out


# ---------------------------------------------------------------------------
# batch driver

def default_zero_region(p: FieldProfile, c: Coupling,
                        kgrid: KGrid) -> Tuple[float, float, float, float]:
    """Search box covering every possible bound state: the bottom edge runs
    _AXIS_GAP above the real axis, and eigenvalue heights are bounded by the
    sup of the potential, Im k0 <= |c| max|q|."""
    kmax = float(np.max(np.abs(kgrid.samples)))
    bound = abs(c.value) * float(np.max(np.abs(p.values)))
    return (-kmax, kmax, _AXIS_GAP, 1.05 * bound + 0.1)


def scatter_grid(p: FieldProfile, c: Coupling, kgrid: KGrid,
                 cfg: IntegratorConfig = DEFAULT_INTEGRATOR,
                 find_discrete: Optional[bool] = None) -> ScatteringData:
    """a(k), b(k) on the grid plus the discrete spectrum.

    The zero search runs by default only where bound states can exist
    (focusing coupling, rapidly decreasing profile); pass find_discrete to
    override.  The search covers default_zero_region(p, c, kgrid).
    """
    p.validate()
    s = scattering_batch(p, c, kgrid.samples, cfg)
    a = s[:, 1, 1]
    b = s[:, 0, 1]
    if find_discrete is None:
        find_discrete = (c.regime == "focusing") and isinstance(p.asymptotics, Schwartz)
    zeros: List[DiscreteEigenvalue] = []
    if find_discrete:
        zeros = find_zeros(p, c, default_zero_region(p, c, kgrid), cfg)
    return ScatteringData(kgrid=kgrid, a=a, b=b, discrete=tuple(zeros), coupling=c)


def reflection(sd: ScatteringData, k: float) -> complex:
    """rho(k) = b(k)/a(k), linear interpolation between grid nodes.  On a
    gapped grid a k whose nodes straddle the forbidden gap (every k inside
    it, too) raises BranchPoint: no data lives between the segments."""
    ks = sd.kgrid.samples
    if k < ks[0] or k > ks[-1]:
        raise NlsQuenchError(f"k = {k} is outside the sampled spectral window")
    i = int(np.searchsorted(ks, k))
    if i < len(ks) and ks[i] == k:
        lo = hi = i
        t = 0.0
    else:
        hi = i
        lo = i - 1
        t = (k - ks[lo]) / (ks[hi] - ks[lo])
        if sd.kgrid.gap is not None and ks[lo] < sd.kgrid.gap[0] and ks[hi] > sd.kgrid.gap[1]:
            raise BranchPoint(f"k = {k} lies across the forbidden gap {sd.kgrid.gap}")
    for j in (lo, hi):
        if abs(sd.a[j]) < 1e-13:
            raise DivisionByZeroA(f"a vanishes at grid node k = {ks[j]}")
    rho = sd.b / sd.a
    return complex((1.0 - t) * rho[lo] + t * rho[hi])

