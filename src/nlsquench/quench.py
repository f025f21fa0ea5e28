"""Quench map on scattering data, time evolution of the data, post-quench
classification, and the higher-level factorisation check.

The quench map is evaluated extensionally: scatter the same field at both
couplings.  The factorisation Theta_-^dag(x) S Theta_+(x) = S' is verified
against an independently computed S', never used to construct it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Coupling,
    FieldProfile,
    KGrid,
    NlsQuenchError,
    QuenchReport,
    ScatteringData,
    Schwartz,
)
from .closedforms import predicted_zero_count
from .zsdirect import (
    DEFAULT_INTEGRATOR,
    IntegratorConfig,
    UnsupportedAsymptotics,
    _as_array,
    _chunk_steps,
    _decay_steps,
    _decay_table,
    _ladd,
    _lconj,
    _lmul,
    _lsum,
    _lwindow,
    _mul,
    _propagate,
    _real_samples,
    _rk4_terms,
    _stages,
    _working_samples,
    scatter_grid,
    scattering_batch,
)

PURE_MULTISOLITON = "pure-multisoliton"
SOLITON_RADIATION = "soliton+radiation"
PURE_RADIATION = "pure-radiation"

_SU2 = -1.0  # the involution sign of focusing (and zero) couplings


def quench_map(p: FieldProfile, c: Coupling, c_new: Coupling, kgrid: KGrid,
               cfg: IntegratorConfig = DEFAULT_INTEGRATOR,
               find_discrete: Optional[bool] = None) -> QuenchReport:
    """Scattering data of one field at the old and new coupling
    (find_discrete as in scatter_grid)."""
    pre = scatter_grid(p, c, kgrid, cfg, find_discrete)
    post = scatter_grid(p, c_new, kgrid, cfg, find_discrete)
    return QuenchReport(pre=pre, post=post)


def evolve_data(sd: ScatteringData, t: float) -> ScatteringData:
    """Push scattering data forward in time: a is frozen and b picks up the
    phase e^{-4ik^2 t} (the phase measured when the evolved field is
    re-scattered; norming constants follow the same rule continued to the
    zero).  Discrete positions do not move."""
    k = sd.kgrid.samples
    b_new = sd.b * np.exp(-4j * k ** 2 * t)
    discrete = tuple(
        type(z)(position=z.position, order=z.order,
                norming=None if z.norming is None
                else z.norming * np.exp(-4j * z.position ** 2 * t))
        for z in sd.discrete
    )
    return ScatteringData(kgrid=sd.kgrid, a=sd.a, b=b_new,
                          discrete=discrete, coupling=sd.coupling)


@dataclass(frozen=True)
class PostQuenchClassification:
    label: str
    predicted_count: int
    found_count: int
    max_abs_b: float

    def to_json_dict(self):
        return {
            "label": self.label,
            "predicted_N": self.predicted_count,
            "found_N": self.found_count,
            "max_abs_b": self.max_abs_b,
        }


def classify_post_quench(report: QuenchReport) -> PostQuenchClassification:
    """Sort the post-quench data into pure-multisoliton (max |b| < 1e-5) /
    soliton+radiation / pure-radiation, and compare the found zero count
    with the one predicted for a normalised single-soliton quench of
    strength nu = |c'|."""
    post = report.post
    found = sum(z.order for z in post.discrete)
    predicted = (predicted_zero_count(abs(post.coupling.value))
                 if post.coupling.regime == "focusing" else 0)
    max_b = float(np.max(np.abs(post.b)))
    if found == 0:
        label = PURE_RADIATION
    elif max_b < 1e-5:
        label = PURE_MULTISOLITON
    else:
        label = SOLITON_RADIATION
    return PostQuenchClassification(label=label, predicted_count=predicted,
                                    found_count=found, max_abs_b=max_b)


# ---------------------------------------------------------------------------
# higher-level scattering problem

@dataclass(frozen=True)
class ThetaSolution:
    """Theta_eps(x, k) for eps = +, -, on the integrator grid, normalised to
    the identity at x = eps * end."""

    x: np.ndarray
    theta_plus: np.ndarray   # (n, 2, 2)
    theta_minus: np.ndarray  # (n, 2, 2)
    k: float
    c_old: complex
    c_new: complex

    def unitarity_defect(self) -> float:
        """max over x of |Theta^dag Theta - 1| and |det Theta - 1|; only a
        meaningful invariant when (c' - c)/c is real."""
        worst = 0.0
        for th in (self.theta_plus, self.theta_minus):
            herm = np.conj(np.transpose(th, (0, 2, 1))) @ th
            worst = max(worst, float(np.max(np.abs(herm - np.eye(2)))))
            det = th[:, 0, 0] * th[:, 1, 1] - th[:, 0, 1] * th[:, 1, 0]
            worst = max(worst, float(np.max(np.abs(det - 1.0))))
        return worst

    def boundary_defect(self) -> float:
        eye = np.eye(2)
        return float(max(np.max(np.abs(self.theta_plus[-1] - eye)),
                         np.max(np.abs(self.theta_minus[0] - eye))))


class DefocusingDressing(NlsQuenchError):
    """The higher-level dressing was asked for a defocusing coupling."""


def _require_theta_scope(p: FieldProfile, c: Coupling, c_new: Coupling):
    if not isinstance(p.asymptotics, Schwartz):
        raise UnsupportedAsymptotics("the factorisation machinery needs rapid decay")
    for cc in (c, c_new):
        if cc.regime == "defocusing":
            raise DefocusingDressing(
                "higher-level dressing uses unitary Jost matrices; couplings "
                "must be focusing or zero"
            )


# steps per block of Theta's step table, a whole number of its chunks
_THETA_BLOCK = 384


def _theta_steps(c: Coupling, dc: complex, q, s: float):
    """C_m, m = 1..4, of Theta's telescoped RK4 steps (see _theta_pass) as
    first rows of Laurent polynomials in u, each step in the gauge of its
    first node; q holds the field's (start, middle, end) stage values of
    every step."""
    eye = ((0, np.ones((1, len(q[0])), dtype=np.complex128)), None)
    # stage generators c Uhat (Phi) and (c' - c) Uhat (Theta), whose phase
    # relative to the step start is u^e at the start, middle and end, e = 0, 1, 2
    a = [(None, (e, (c.value * v)[None])) for e, v in enumerate(q)]
    b = [(None, (e, (dc * v)[None])) for e, v in enumerate(q)]
    # Phi's RK4 stage maps X_2..X_4 (X_1 = I) and Theta's generators
    # g_i = X_i^dag B_i X_i; X^dag has the first row (alpha*, -beta)
    x2 = _lsum((1.0, eye), (s / 2, a[0]))
    x3 = _lsum((1.0, eye), (s / 2, _lmul(a[1], x2, _SU2)))
    x4 = _lsum((1.0, eye), (s, _lmul(a[1], x3, _SU2)))
    g = [b[0]] + [_lmul((_lconj(x[0]), _ladd((-1.0, x[1]))), _lmul(bi, x, _SU2), _SU2)
                  for x, bi in ((x2, b[1]), (x3, b[1]), (x4, b[2]))]
    return [_lsum(*c) for c in _rk4_terms(g, s, _SU2)]


# windows of _theta_table: P and det P in u^-2 .. u^2, P C_m in u^-4 .. u^6
_THETA_P, _THETA_LO, _THETA_WIDTH = 2, -4, 11


def _theta_table(c: Coupling, dc: complex, q, p_rows: np.ndarray, s: float):
    """k-independent first rows of the factors of Theta's telescoped steps
    (see _theta_pass) for the steps whose (start, middle, end) field values
    are q and whose Phi steps P_j have the _decay_table rows p_rows, each in
    the gauge of its step's first node.  Returns (p, coef): p (3, steps,
    2 _THETA_P + 1) holds alpha - 1, beta and det P - 1 = |alpha|^2 +
    |beta|^2 - 1 in u^-_THETA_P .. u^_THETA_P, coef (4, 2, steps,
    _THETA_WIDTH) alpha and beta of P C_m, m = 1..4, from u^_THETA_LO."""
    a, b = (0, p_rows[:, 0].T), (0, p_rows[:, 1].T)
    # det P - 1 = a + a* + a a* + b b* with alpha = 1 + a
    det = _ladd((1.0, a), (1.0, _lconj(a)), (1.0, a, _lconj(a)), (1.0, b, _lconj(b)))
    p = np.array([_lwindow(e, -_THETA_P, 2 * _THETA_P + 1, len(p_rows)).T for e in (a, b, det)])
    a = _ladd((1.0, a), (1.0, (0, np.ones((1, len(p_rows))))))  # alpha = 1 + a
    coef = np.zeros((4, 2, len(p_rows), _THETA_WIDTH), dtype=np.complex128)
    cs = _theta_steps(c, dc, q, s)
    for i in range(4):
        for r, e in enumerate(_lmul((a, b), cs[i], _SU2)):
            coef[i, r] = _lwindow(e, _THETA_LO, _THETA_WIDTH, len(p_rows)).T
        cs[i] = None  # freed once multiplied, to bound the block's memory
    return p, coef


def _theta_pass(p: FieldProfile, c: Coupling, c_new: Coupling, k: np.ndarray,
                cfg: IntegratorConfig, direction: int,
                keep: Optional[np.ndarray] = None):
    """RK4 integration of Phi (auxiliary problem at coupling c, in the
    e^{ik sigma3 x} gauge) and Theta with generator (c'-c) Phi^dag Uhat Phi,
    stepped jointly from one end of the grid to the other, at real k.

    Both couplings are focusing or zero, so Phi and Theta have the SU(2)
    form [[alpha, beta], [-beta*, alpha*]] and are carried as first rows
    (zsdirect._mul with sigma = -1), and Phi Phi^dag = delta I with delta =
    det Phi.  With X_i Phi's RK4 stage maps, P_j its step and g_i = (c' -
    c) X_i^dag Uhat_i X_i, Theta's stage generators are Phi_j^dag g_i Phi_j
    = delta_j Phi_j^-1 g_i Phi_j.  Theta's step is thus exactly Phi_j^-1
    N_j Phi_j, N_j = I + sum_m delta_j^m C_{j,m} the RK4 step of the
    generators delta_j g_i (C_m sums products of m of them), and the Phi
    factors telescope:
        Theta_n = Phi_n^-1 R_{n-1} ... R_0,  R_j = P_j + sum_m delta_j^m P_j C_{j,m}.
    Relative to its first node every factor is a Laurent polynomial in u =
    e^{iks} with profile-only coefficients (_theta_table, built in blocks
    of _THETA_BLOCK steps); the C_m are the graded terms of
    zsdirect._rk4_terms, the expansion behind every step table.  A chunk
    evaluates them with one product per factor, takes delta_j as the
    running product of det P_j, sums R_j by Horner in delta_j and turns
    beta by the row phase e^{2ikx_j}.  The steps of Phi and of the
    R-product are carried side by side, entries (steps, 2, nk), so both
    products take the same tree/scan order: at c' = c, R = P bit for bit
    and Theta = I to the ulp.  Phi_n^-1 = Phi_n^dag / (|alpha_n|^2 +
    |beta_n|^2).  Theta keeps its own generator; only the rounding order
    differs from the step-by-step loop.

    direction=+1 integrates upward from the left end (Theta_-);
    direction=-1 integrates downward from the right end (Theta_+).
    Returns (x nodes, Phi at kept nodes, Theta at kept nodes), the latter
    two shaped (len(keep), nk, 2, 2); keep=None records every node.  A k
    off the real axis raises ComplexSpectralSample.
    """
    k = _real_samples(k)
    nk = len(k)
    xs, q_nodes, q_mids, h = _working_samples(p, cfg)
    n = len(xs)
    dc = c_new.value - c.value
    if keep is None:
        keep = np.arange(n)
    start = 0 if direction > 0 else n - 1
    record = np.abs(np.asarray(keep, dtype=int) - start)  # steps to each kept node
    s = direction * h
    q = _stages(q_nodes, q_mids, start, direction, 0, n - 1)
    phi_table = _decay_table(c, q, xs[start + direction * np.arange(n - 1)], s)
    _, phases = _decay_steps(phi_table, k)
    # a chunk holds about four times the arrays of a transfer step, so its
    # chunks are a quarter as long; blocks are whole chunks.  nk alone
    # fixes both sizes, which keeps runs bit-identical
    per = min(_chunk_steps(4 * nk), _THETA_BLOCK)
    block = per * (_THETA_BLOCK // per)
    powers = np.exp(1j * s * np.multiply.outer(np.arange(_THETA_WIDTH) + _THETA_LO, k))
    powers_p = powers[-_THETA_P - _THETA_LO:_THETA_P + 1 - _THETA_LO]
    table, delta = None, np.ones(nk)

    def build(i0, i1):
        nonlocal table, delta
        if i0 % block == 0:
            b1 = min(i0 + block, n - 1)
            table = _theta_table(c, dc, tuple(v[i0:b1] for v in q), phi_table.coef[i0:b1], s)
        m, j = i1 - i0, i0 % block
        # P_j, and delta_j = det Phi_j as the running product of det P_j
        p = np.matmul(table[0][:, j:j + m], powers_p)
        p[0] += 1.0
        det = p[2].real + 1.0
        d = np.empty((m, nk))
        d[0] = delta
        np.cumprod(det[:-1], axis=0, out=d[1:])
        d[1:] *= delta
        delta = d[-1] * det[-1]
        # R_j = P_j + sum_m delta_j^m P_j C_{j,m}, by Horner in delta_j
        acc = np.matmul(table[1][3, :, j:j + m], powers)
        acc *= d
        for i in (2, 1, 0):
            acc += np.matmul(table[1][i, :, j:j + m], powers)
            acc *= d
        out = np.empty((2, m, 2, nk), dtype=np.complex128)  # (entry, step, Phi | R, k)
        out[:, :, 0] = p[:2]
        np.add(p[:2], acc, out=out[:, :, 1])
        out[1] *= phases(i0, i1)[:, None]
        return out[0], out[1]

    _, out = _propagate(build, n - 1, (2, nk), record=record, per=per, sigma=_SU2)
    phi_out = out[:, 0]
    alpha, beta = phi_out[..., 0, 0], phi_out[..., 0, 1]
    det = alpha.real ** 2 + alpha.imag ** 2 + beta.real ** 2 + beta.imag ** 2
    theta = _mul((np.conj(alpha), -beta), (out[:, 1, :, 0, 0], out[:, 1, :, 0, 1]), _SU2)
    return xs, phi_out, _as_array(tuple(e / det for e in theta), _SU2)


def higher_level_theta(p: FieldProfile, c: Coupling, c_new: Coupling, k: float,
                       cfg: IntegratorConfig = DEFAULT_INTEGRATOR) -> ThetaSolution:
    """Dressing matrices Theta_+- at one real spectral point (a k off the
    real axis raises ComplexSpectralSample)."""
    _require_theta_scope(p, c, c_new)
    karr = _real_samples(k)
    if karr.shape != (1,):
        raise NlsQuenchError("higher_level_theta takes one spectral point")
    xs, _, th_minus = _theta_pass(p, c, c_new, karr, cfg, direction=+1)
    _, _, th_plus = _theta_pass(p, c, c_new, karr, cfg, direction=-1)
    return ThetaSolution(x=xs, theta_plus=th_plus[:, 0], theta_minus=th_minus[:, 0],
                         k=float(karr[0]), c_old=c.value, c_new=c_new.value)


@dataclass(frozen=True)
class FactorizationReport:
    """Residuals of the dressing identity against an independent scatter."""

    max_residual: float
    x_spread: float            # std over x of the per-x max residual
    boundary_defect: float     # asymptotic consistency at the two grid ends
    x_samples: np.ndarray
    per_x_residual: np.ndarray

    def to_json_dict(self):
        return {
            "max_residual": self.max_residual,
            "x_spread": self.x_spread,
            "boundary_defect": self.boundary_defect,
            "x_samples": self.x_samples.tolist(),
            "per_x_residual": self.per_x_residual.tolist(),
        }


def verify_factorization(p: FieldProfile, c: Coupling, c_new: Coupling,
                         kgrid: KGrid,
                         cfg: IntegratorConfig = DEFAULT_INTEGRATOR) -> FactorizationReport:
    """max over the spectral grid and 9 x samples evenly spaced on
    [-L/2, L/2] (each moved to its nearest integrator node) of
    |Theta_-^dag(x) S(k) Theta_+(x) - S'(k)|, with S' scattered at the new
    coupling; also checks the boundary identities S Theta_+(left) = S' and
    Theta_-^dag(right) S = S'."""
    _require_theta_scope(p, c, c_new)
    data = []
    for cc in (c, c_new):
        s = scattering_batch(p, cc, kgrid.samples, cfg)
        data.append(ScatteringData(kgrid=kgrid, a=s[:, 1, 1], b=s[:, 0, 1], coupling=cc))
    return _factorization(p, QuenchReport(*data), cfg)


def _factorization(p: FieldProfile, report: QuenchReport,
                   cfg: IntegratorConfig) -> FactorizationReport:
    """verify_factorization on data already scattered (quench_map's): on a
    rapidly decreasing profile scattering_batch's S is [[a*, b], [sigma b*,
    a]] bit for bit, so a and b rebuild it exactly."""
    c, c_new = report.pre.coupling, report.post.coupling
    _require_theta_scope(p, c, c_new)
    x_samples = np.linspace(-p.L / 2.0, p.L / 2.0, 9)
    k = report.pre.kgrid.samples
    s_old = report.pre.assembled_matrices()
    s_new = report.post.assembled_matrices()

    # record Theta only at the sample nodes and the two grid ends
    xs_probe, _, _, _ = _working_samples(p, cfg)
    idx = np.array([int(np.argmin(np.abs(xs_probe - xv))) for xv in x_samples])
    keep = np.concatenate([idx, [0, len(xs_probe) - 1]])
    _, _, th_minus = _theta_pass(p, c, c_new, k, cfg, direction=+1, keep=keep)
    _, _, th_plus = _theta_pass(p, c, c_new, k, cfg, direction=-1, keep=keep)

    lhs = np.conj(np.swapaxes(th_minus[:-2], -1, -2)) @ s_old @ th_plus[:-2]
    per_x = np.max(np.abs(lhs - s_new), axis=(1, 2, 3))
    # ends: Theta_-(left) = Theta_+(right) = 1 by construction, so the
    # asymptotic identities reduce to these two
    lhs_left = s_old @ th_plus[-2]
    lhs_right = np.conj(np.swapaxes(th_minus[-1], -1, -2)) @ s_old
    bdry = max(float(np.max(np.abs(lhs_left - s_new))),
               float(np.max(np.abs(lhs_right - s_new))))
    return FactorizationReport(
        max_residual=float(np.max(per_x)),
        x_spread=float(np.std(per_x)),
        boundary_defect=bdry,
        x_samples=np.asarray(xs_probe[idx]),
        per_x_residual=per_x,
    )
