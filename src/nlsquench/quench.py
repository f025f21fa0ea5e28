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
    _EYE,
    DEFAULT_INTEGRATOR,
    IntegratorConfig,
    IntegratorDiverged,
    _as_array,
    _chunk_steps,
    _mul,
    _frame_steps,
    _propagate,
    _rk4_matrix,
    _rows,
    _scan,
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


def _require_theta_scope(p: FieldProfile, c: Coupling, c_new: Coupling):
    if not isinstance(p.asymptotics, Schwartz):
        raise NlsQuenchError("the factorisation machinery needs rapid decay")
    for cc in (c, c_new):
        if cc.regime == "defocusing":
            raise NlsQuenchError(
                "higher-level dressing uses unitary Jost matrices; couplings "
                "must be focusing or zero"
            )


def _theta_pass(p: FieldProfile, c: Coupling, c_new: Coupling, k: np.ndarray,
                cfg: IntegratorConfig, direction: int,
                keep: Optional[np.ndarray] = None):
    """Joint RK4 integration of Phi (auxiliary problem at coupling c, in the
    e^{ik sigma3 x} gauge) and Theta with generator (c'-c) Phi^dag What Phi,
    from one end of the grid to the other.  Both couplings are focusing or
    zero, so Phi and Theta lie in SU(2) and are carried as their first rows
    (zsdirect._mul with sigma = -1).

    direction=+1 integrates upward from the left end (Theta_-);
    direction=-1 integrates downward from the right end (Theta_+).
    Returns (x nodes, Phi at kept nodes, Theta at kept nodes), the latter
    two shaped (len(keep), nk, 2, 2); keep=None records every node.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    nk = len(k)
    xs, q_nodes, q_mids, h = _working_samples(p, cfg)
    n = len(xs)
    cv = c.value
    dc = c_new.value - cv
    if keep is None:
        keep = np.arange(n)
    start = 0 if direction > 0 else n - 1
    record = np.abs(np.asarray(keep, dtype=int) - start)  # steps to each kept node
    s = direction * h
    u = np.exp(1j * k * s)  # stage phases are 1, u, u^2 relative to the step start
    q = _stages(q_nodes, q_mids, start, direction, 0, n - 1)
    # build holds about four times the chunk-sized arrays of a transfer
    # step, so its chunks are a quarter as long; nk alone fixes their size,
    # which keeps runs bit-identical
    per = _chunk_steps(4 * nk)
    phi_steps, phases = _frame_steps(tuple(cv * v for v in q), tuple(cv * np.conj(v) for v in q),
                                     (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), k,
                                     xs[start + direction * np.arange(n - 1)], s, per)

    phi = tuple(np.full(nk, v, dtype=np.complex128) for v in _EYE[:2])
    phi_out = np.empty((len(record), nk, 2, 2), dtype=np.complex128)
    phi_out[record == 0] = np.eye(2)

    def generators(phi_j, i0, i1):
        """Theta's stage generators for steps i0..i1-1, from Phi at the step
        starts.  The RK4 stage values of Phi are X_i Phi_j = [[al, be],
        [-be*, al*]], and the generators are (c' - c) H_i with H_i = (X_i
        Phi_j)^dag Uhat_i (X_i Phi_j), Uhat = [[0, a], [a*, 0]] at the four
        stage points: H_i = [[-h, off], [off*, h]] with t = a al*, v = a be*,
        h = 2 Re(v al*) and off = t al* - v* be.  Uhat X_i Phi_j has the
        first row (-v, t)."""
        e = phases(i0, i1)
        alphas = (q[0][i0:i1, None] * e, q[1][i0:i1, None] * e * u,
                  q[2][i0:i1, None] * e * (u * u))
        (al, be), gens = phi_j, []
        for a, frac in zip((alphas[0], alphas[1], alphas[1], alphas[2]), (0.5, 0.5, 1.0, None)):
            alc = np.conj(al)
            t, v = a * alc, a * np.conj(be)
            gens.append((-2.0 * dc * (v * alc).real, dc * (t * alc - np.conj(v) * be)))
            if frac is not None:
                al, be = phi_j[0] - (frac * s * cv) * v, phi_j[1] + (frac * s * cv) * t
        return gens

    def build(i0, i1):
        """Theta's step matrices; Phi is carried along chunk by chunk.
        generators runs in its own frame so that its temporaries are freed
        before the combine."""
        nonlocal phi
        states = _mul(_scan(phi_steps(i0, i1), _SU2), phi, _SU2)
        hit = (record > i0) & (record <= i1)
        phi_out[hit] = _as_array(_rows(states, record[hit] - i0 - 1), _SU2)
        phi_j = tuple(np.concatenate([y[None], v[:-1]]) for y, v in zip(phi, states))
        phi = tuple(v[-1].copy() for v in states)  # copies: states is freed here
        del states
        return _rk4_matrix(generators(phi_j, i0, i1), s, _SU2)

    theta, theta_out = _propagate(build, n - 1, nk, record=record, per=per, sigma=_SU2)
    if not all(np.isfinite(e).all() for e in phi + theta):
        raise IntegratorDiverged("dressing integration produced non-finite values")
    return xs, phi_out, theta_out


def higher_level_theta(p: FieldProfile, c: Coupling, c_new: Coupling, k: float,
                       cfg: IntegratorConfig = DEFAULT_INTEGRATOR) -> ThetaSolution:
    """Dressing matrices Theta_+- at one real spectral point."""
    _require_theta_scope(p, c, c_new)
    karr = np.array([float(k)])
    xs, _, th_minus = _theta_pass(p, c, c_new, karr, cfg, direction=+1)
    _, _, th_plus = _theta_pass(p, c, c_new, karr, cfg, direction=-1)
    return ThetaSolution(x=xs, theta_plus=th_plus[:, 0], theta_minus=th_minus[:, 0],
                         k=float(k), c_old=c.value, c_new=c_new.value)


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
