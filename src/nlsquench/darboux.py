"""Dressing transformations that add or remove one simple zero of a(k)
while leaving b(k) untouched, and the composite field-side quench built
from them plus the radiative reconstruction.

Only a rapidly decreasing field at a focusing coupling has zeros of a(k)
to add or remove, so the dressings are defined there alone (c/c* = -1).
The dressing matrix is D = k 1 - Sigma with Sigma = H Lambda H^{-1} built
from the two Jost columns at the target eigenvalue; the field update is

    q~ = q - 2i (k0* - k0) sigma* / (c (1 + |sigma|^2)),

with sigma the component ratio of the mixed column.  The sign convention
was fixed against the direct solver: adding a zero multiplies a(k) by
(k - k0)/(k - k0*) and leaves b(k) unchanged to integrator accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import (
    Coupling,
    DiscreteEigenvalue,
    FieldProfile,
    JsonReader,
    KGrid,
    NlsQuenchError,
    ScatteringData,
    Schwartz,
    complex_json,
)
from .glm import radiative_part, reconstruct_field
from .zsdirect import (
    DEFAULT_INTEGRATOR,
    IntegratorConfig,
    IntegratorDiverged,
    NewtonStalled,
    _column_table,
    _contour,
    _newton_zeros,
    _propagate,
    _require_schwartz,
    find_zeros,
    default_zero_region,
    scatter_grid,
)


class RemoveNonexistentZero(NlsQuenchError):
    pass


class HigherOrderZero(NlsQuenchError):
    pass


class BoundStatesLost(NlsQuenchError):
    """The data carry zeros of a(k), but the target coupling is not
    focusing, so no field there has bound states to carry them."""


MODE_ADD = "add"
MODE_REMOVE = "remove"


@dataclass(frozen=True)
class DarbouxStep:
    """One add/remove-zero transformation record."""

    k0: complex
    mu_param: complex = 1.0
    mode: str = MODE_ADD

    def __post_init__(self):
        if not self.k0.imag > 0:
            raise NlsQuenchError("dressing point must satisfy Im k0 > 0")
        if self.mu_param == 0:
            raise NlsQuenchError("mixing coefficient mu must be nonzero")
        if self.mode not in (MODE_ADD, MODE_REMOVE):
            raise NlsQuenchError(f"unknown mode {self.mode!r}")

    def to_json_dict(self):
        return {"k0": complex_json(self.k0), "mu": complex_json(self.mu_param),
                "mode": self.mode}

    @staticmethod
    def from_json_dict(d, name="", doc="step") -> "DarbouxStep":
        r = JsonReader(d, name, doc)
        mode = r("mode", cast=str)
        if mode not in (MODE_ADD, MODE_REMOVE):
            raise r.error("mode", f" {mode!r} is not '{MODE_ADD}' or '{MODE_REMOVE}'")
        return DarbouxStep(k0=r.complex("k0"), mu_param=r.complex("mu"), mode=mode)


def _columns_full(p: FieldProfile, c: Coupling, k0: complex, cfg: IntegratorConfig):
    """Gauge-removed Jost columns R (grown from the left) and L (from the
    right) on the whole working grid, each integrated in its decaying
    direction, from the unfused column table (see zsdirect._column_table)."""
    table = _column_table(p, c, cfg, meet=False)
    xs, j_lo, j_hi = table.xs, table.j_lo, table.j_hi
    rise, fall = table.steps(np.array([k0], dtype=np.complex128))
    n = len(xs)
    R = np.empty((n, 2), dtype=np.complex128)
    Lc = np.empty((n, 2), dtype=np.complex128)
    R[:j_lo] = (1.0, 0.0)
    Lc[j_hi:] = (0.0, 1.0)
    _, traj = _propagate(rise, n - 1 - j_lo, 1, record=np.arange(n - j_lo))
    R[j_lo:] = traj[:, 0, :, 0]
    _, traj = _propagate(fall, j_hi, 1, record=np.arange(j_hi + 1))
    Lc[j_hi::-1] = traj[:, 0, ::-1, 0]  # (L2, L1) from node j_hi down
    return xs, R, Lc


def _refined_zero(p: FieldProfile, c: Coupling, k0: complex,
                  cfg: IntegratorConfig) -> complex:
    """Newton-polish k0 against the profile's own a(k).  Removals are
    exponentially sensitive to the distance from the true zero (the growing
    Jost direction leaks in like e^{2 Im k0 x}), so the recorded position is
    never trusted as-is."""
    try:
        k_ref = complex(_newton_zeros(_column_table(p, c, cfg), [k0])[0])
    except (NewtonStalled, IntegratorDiverged) as exc:
        raise RemoveNonexistentZero(
            f"no zero of a(k) could be located near {k0}: {exc}") from exc
    if abs(k_ref - k0) > 0.1 * (1.0 + abs(k0)):
        raise RemoveNonexistentZero(
            f"nearest zero {k_ref} is too far from the requested {k0}")
    return k_ref


def _mixed_column(p: FieldProfile, c: Coupling, step: DarbouxStep,
                  cfg: IntegratorConfig):
    """(xs, k0, beta, alpha): the mixed column (alpha, beta) of a dressing
    at a focusing coupling, scaled node by node to max(|alpha|, |beta|) =
    1, so that sigma = beta/alpha is never formed and nothing overflows.

    Add mode mixes the two columns, (alpha, -beta) =
    R e^{-i k0 x} - mu L e^{i k0 x}.  Remove mode evaluates at the zero of
    a(k), where L is proportional to R and the mixing coefficient drops
    out; the pure-R ratio is the numerically stable form.
    """
    if step.mode == MODE_REMOVE:
        # At a zero of a(k) the two decaying Jost solutions coincide, so
        # sigma has two representations of the same ratio: -R2/R1 from the
        # left-grown column, -L2/L1 from the right-grown one.  Each is only
        # trustworthy on its own side (the other side runs past the
        # precision horizon e^{-2 Im k0 |x|}), so they are stitched at the
        # grid centre, where both are healthy.
        k0 = _refined_zero(p, c, step.k0, cfg)
        xs, R, Lc = _columns_full(p, c, k0, cfg)
        mid = len(xs) // 2
        # seam consistency: both forms describe one projective direction
        num = R[mid, 1] * Lc[mid, 0] - R[mid, 0] * Lc[mid, 1]
        den = max(np.abs(R[mid]).max() * np.abs(Lc[mid]).max(), 1e-300)
        if abs(num) / den > 1e-5:
            raise RemoveNonexistentZero(
                f"columns do not align at the zero {k0} "
                f"(seam mismatch {abs(num) / den:.2e})"
            )
        vec = np.concatenate([R[:mid], Lc[mid:]])
    else:
        k0, mu = step.k0, step.mu_param
        xs, R, Lc = _columns_full(p, c, k0, cfg)
        vec = np.empty_like(R)
        pos = xs >= 0
        u = np.exp(2j * k0 * xs[pos])        # |u| <= 1 on x >= 0
        vec[pos] = R[pos] - mu * u[:, None] * Lc[pos]
        v = np.exp(-2j * k0 * xs[~pos])      # |v| <= 1 on x < 0
        vec[~pos] = v[:, None] * R[~pos] - mu * Lc[~pos]
    vec /= np.abs(vec).max(axis=1, keepdims=True)
    return xs, k0, -vec[:, 1], vec[:, 0]


def apply_bt(p: FieldProfile, c: Coupling, step: DarbouxStep,
             cfg: IntegratorConfig = DEFAULT_INTEGRATOR,
             boundary_tol: Optional[float] = None) -> FieldProfile:
    """Dressed field on the profile grid; rapid decay is revalidated.

    Scope is checked before any column table is built: a profile that is
    not rapidly decreasing raises UnsupportedAsymptotics, and at a
    non-focusing coupling, where such a field has no bound states, an add
    raises BoundStatesLost and a removal RemoveNonexistentZero."""
    _require_schwartz(p, "dressing")
    if c.regime != "focusing":
        lost = BoundStatesLost if step.mode == MODE_ADD else RemoveNonexistentZero
        raise lost(f"a rapidly decreasing field has no zeros of a(k) at the "
                   f"{c.regime} coupling {c.value}")
    # with (t, b) = (beta, alpha), sigma = t/b and sigma* / (1 + |sigma|^2)
    # = t* b / (|t|^2 + |b|^2), whose denominator is >= 1 at max(|t|, |b|) = 1
    xs, k0, t, b = _mixed_column(p, c, step, cfg)
    w = np.conj(t) * b / (np.abs(t) ** 2 + np.abs(b) ** 2)
    upd = -2j * (np.conj(k0) - k0) * w / c.value
    vals = p.values + upd[:: cfg.substeps(p.h)]
    tol = boundary_tol if boundary_tol is not None else max(p.boundary_tol, 1e-7)
    return FieldProfile(L=p.L, h=p.h, values=vals, asymptotics=p.asymptotics,
                        boundary_tol=tol).validate()


def bt_data_effect(sd: ScatteringData, step: DarbouxStep) -> ScatteringData:
    """Predicted data after one dressing step: a gains or loses the
    Blaschke factor (k - k0)/(k - k0*), b is untouched.  A removal needs a
    recorded zero within 1e-6 (1 + |k0|) of k0."""
    k = sd.kgrid.samples
    k0 = step.k0
    blaschke = (k - k0) / (k - np.conj(k0))
    if step.mode == MODE_ADD:
        a_new = blaschke * sd.a
        discrete = sd.discrete + (DiscreteEigenvalue(position=k0, order=1),)
    else:
        hit = [z for z in sd.discrete
               if abs(z.position - k0) < 1e-6 * (1.0 + abs(k0))]
        if not hit:
            raise RemoveNonexistentZero(f"no recorded zero near {k0}")
        if hit[0].order > 1:
            raise HigherOrderZero("only simple zeros can be removed")
        a_new = sd.a / blaschke
        discrete = tuple(z for z in sd.discrete if z is not hit[0])
    return ScatteringData(kgrid=sd.kgrid, a=a_new, b=sd.b,
                          discrete=discrete, coupling=sd.coupling)


def strip_solitons(p: FieldProfile, c: Coupling,
                   cfg: IntegratorConfig = DEFAULT_INTEGRATOR,
                   ) -> Tuple[FieldProfile, List[DarbouxStep]]:
    """Remove every simple zero of a(k), largest Im k0 first, returning the
    purely radiative field and the steps taken (in order of application).
    The zeros are searched in default_zero_region for the window [-5, 5],
    and only at a focusing coupling: a rapidly decreasing field has none
    elsewhere.  A remove step needs no mixing coefficient, so each keeps
    the default."""
    _require_schwartz(p, "zero search")
    if c.regime != "focusing":
        return p, []
    region = default_zero_region(p, c, KGrid(np.array([-5.0, 5.0])))
    zeros = find_zeros(p, c, region, cfg)
    for z in zeros:
        if z.order > 1:
            raise HigherOrderZero(f"zero at {z.position} has order {z.order}")
    zeros.sort(key=lambda z: -z.position.imag)
    steps: List[DarbouxStep] = []
    current = p
    for z in zeros:
        step = DarbouxStep(k0=z.position, mode=MODE_REMOVE)
        current = apply_bt(current, c, step, cfg)
        steps.append(step)
    leftover = _contour(current, c, region)[0] if steps else 0
    if leftover:
        raise NlsQuenchError(f"{leftover} zero(s) survived the stripping pass")
    return current, steps


def _coarse_stride(p: FieldProfile, k_max: float) -> int:
    """Largest stride through the profile grid that still oversamples the
    reconstruction band |omega| <= 2 k_max (the rebuilt field is exactly
    band-limited by the data window, so spectral upsampling recovers the
    fine grid losslessly)."""
    target = 0.8 * np.pi / (2.0 * k_max)
    n1 = p.n - 1
    best = 1
    for m in range(1, n1 + 1):
        if n1 % m == 0 and m * p.h <= target:
            best = m
    return best


def _upsample_to_grid(vals_coarse: np.ndarray, p: FieldProfile, m: int) -> np.ndarray:
    """Zero-padded FFT upsampling from the inclusive coarse grid p.x[::m]
    back onto p.x (the dropped right endpoint is restored periodically,
    which is exact at the decay level of the field)."""
    if m == 1:
        return vals_coarse
    from .oracle import fft_upsample

    coarse = FieldProfile(L=p.L, h=p.h * m, values=vals_coarse[:-1],
                          asymptotics=Schwartz(), boundary_tol=np.inf)
    fine = fft_upsample(coarse, m)
    return np.concatenate([fine.values, vals_coarse[-1:]])


def dual_quench(p: FieldProfile, c: Coupling, c0: Coupling, kgrid: KGrid,
                cfg: IntegratorConfig = DEFAULT_INTEGRATOR,
                exact_rescale: Optional[bool] = None) -> FieldProfile:
    """Field with the same scattering data under coupling c0 that p has
    under coupling c.

    When c/c0 is real and the regime is unchanged the map is exactly the
    rescaling q -> (c/c0) q, which is returned directly unless
    exact_rescale=False forces the generic pipeline, on the data side:
    scatter p once at c, divide each zero's Blaschke factor out of a(k)
    (tallest first; a removal leaves b unchanged), rebuild that radiative
    part at c0 (resolvent route, on a Nyquist-safe subgrid of p's grid,
    spectrally upsampled), then dress it with each zero at c0 in reverse
    order, with mixing coefficient 1/b0, so each keeps its norming constant
    b0.  Zeros with a non-focusing c0 raise BoundStatesLost, and a zero of
    order > 1 raises HigherOrderZero.
    """
    if c.value == 0 or c0.value == 0:
        raise NlsQuenchError("the field-side quench needs nonzero couplings")
    ratio = c.value / c0.value
    same_kind = abs(ratio.imag) < 1e-14 * abs(ratio)
    if exact_rescale is None:
        exact_rescale = same_kind
    if exact_rescale:
        if not same_kind:
            raise NlsQuenchError("rescaling shortcut needs c/c0 real")
        return FieldProfile(L=p.L, h=p.h, values=ratio.real * p.values,
                            asymptotics=p.asymptotics,
                            boundary_tol=max(p.boundary_tol * abs(ratio), 1e-12))

    _require_schwartz(p, "the generic dual quench")
    sd = scatter_grid(p, c, kgrid, cfg)
    zeros = sorted(sd.discrete, key=lambda z: -z.position.imag)
    if zeros and c0.regime != "focusing":
        raise BoundStatesLost(
            f"{len(zeros)} zero(s) of a(k) cannot be carried to the "
            f"{c0.regime} coupling {c0.value}")
    for z in zeros:
        sd = bt_data_effect(sd, DarbouxStep(k0=z.position, mode=MODE_REMOVE))
    rd = radiative_part(sd)
    k_max = float(np.max(np.abs(kgrid.samples)))
    m = _coarse_stride(p, k_max)
    coarse = reconstruct_field(rd, c0, p.x[::m], boundary_tol=0.05)
    vals = _upsample_to_grid(coarse.values, p, m)
    rebuilt = FieldProfile(L=p.L, h=p.h, values=vals,
                           asymptotics=Schwartz(), boundary_tol=0.05)
    for z in reversed(zeros):
        add = DarbouxStep(k0=z.position, mu_param=1.0 / z.norming, mode=MODE_ADD)
        rebuilt = apply_bt(rebuilt, c0, add, cfg=IntegratorConfig(),
                           boundary_tol=0.05)
    return rebuilt
