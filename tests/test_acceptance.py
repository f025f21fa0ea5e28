"""Acceptance gate: one test per release criterion, each printing a
PASS line with the measured figures (run with -s to see them inline).

Profile grids are pinned where the criterion pins them; integrator steps
are implementation choices recorded here.
"""

import warnings

import numpy as np
import pytest

from nlsquench.core import (
    Coupling,
    FiniteDensity,
    Schwartz,
    make_kgrid,
    make_profile,
)
from nlsquench.closedforms import (
    SolitonParamsFD,
    SolitonParamsRD,
    a_finite_defocusing_product,
    ab_rapid,
    profile_fd_focusing,
    soliton_profile_fd_defocusing,
    soliton_profile_rd,
    zeros_rapid,
)
from nlsquench.darboux import DarbouxStep, apply_bt, dual_quench
from nlsquench.glm import (
    glm_neumann,
    radiative_part,
    reconstruct_field,
    rosales_resummed,
)
from nlsquench.oracle import StepperConfig, isospectral_check
from nlsquench.quench import verify_factorization
from nlsquench.zsdirect import (
    IntegratorConfig,
    find_zeros,
    norming_constant,
    scatter_grid,
    scattering_batch,
)
from conftest import trapezoid


def _report(num, name, **vals):
    parts = " ".join(f"{k}={v:.3e}" for k, v in vals.items())
    print(f"\nACCEPTANCE {num:02d} [{name}] PASS  {parts}")


def _grid(L, h):
    return np.linspace(-L, L, int(round(2 * L / h)) + 1)


K201 = np.linspace(-5.0, 5.0, 201)
STEP = IntegratorConfig(step=0.01)
STEP_FINE = IntegratorConfig(step=0.005)


@pytest.fixture(scope="module")
def sech():
    return soliton_profile_rd(SolitonParamsRD(A=1.0), _grid(40.0, 0.02),
                              boundary_tol=1e-10)


@pytest.fixture(scope="module")
def gauss():
    x = _grid(40.0, 0.02)
    return make_profile(0.2 * np.exp(-x ** 2), 40.0, Schwartz(), boundary_tol=1e-10)


@pytest.fixture(scope="module")
def pedestal():
    return profile_fd_focusing(2.0, _grid(20.0, 0.005), boundary_tol=1e-8)


@pytest.fixture(scope="module")
def dark():
    par = SolitonParamsFD(rho=1.0, theta=np.pi / 2)
    return par, soliton_profile_fd_defocusing(par, _grid(20.0, 0.005),
                                              boundary_tol=1e-8)


@pytest.fixture(scope="module")
def sech_soliton_scatter(sech):
    return scattering_batch(sech, Coupling(1j), K201, STEP)


def test_criterion_01_soliton_regression(sech_soliton_scatter):
    s = sech_soliton_scatter
    blaschke = (K201 - 0.5j) / (K201 + 0.5j)
    a_err = float(np.max(np.abs(s[:, 1, 1] - blaschke)))
    b_max = float(np.max(np.abs(s[:, 0, 1])))
    assert a_err < 1e-6
    assert b_max < 1e-6
    _report(1, "soliton regression", a_err=a_err, b_max=b_max)


def test_criterion_02_determinant_unitarity(sech, gauss, pedestal, dark):
    suite = [
        (sech, Coupling(1j), STEP_FINE, True),
        (sech, Coupling(2j), STEP_FINE, True),
        (sech, Coupling(1.5j), STEP_FINE, True),
        (sech, Coupling(0.5j), STEP_FINE, True),
        (sech, Coupling(0.5), STEP_FINE, False),
        (gauss, Coupling(0.5), STEP_FINE, False),
        (gauss, Coupling(1j), STEP_FINE, True),
        (pedestal, Coupling(1j), IntegratorConfig(), False),
        (dark[1], Coupling(1.0), IntegratorConfig(), False),
    ]
    worst_det = 0.0
    worst_uni = 0.0
    for prof, c, cfg, unitary in suite:
        if isinstance(prof.asymptotics, FiniteDensity):
            kg = make_kgrid(c, prof.asymptotics, 5.0, 201)
            ks = kg.samples
        else:
            ks = K201
        s = scattering_batch(prof, c, ks, cfg)
        a, b = s[:, 1, 1], s[:, 0, 1]
        sign = c.involution_sign
        det = np.abs(a) ** 2 - sign * np.abs(b) ** 2
        worst_det = max(worst_det, float(np.max(np.abs(det - 1.0))))
        if unitary:
            sh = np.conj(np.transpose(s, (0, 2, 1)))
            worst_uni = max(worst_uni, float(np.max(np.abs(sh @ s - np.eye(2)))))
    assert worst_det < 1e-8
    assert worst_uni < 2e-6
    _report(2, "determinant/unitarity", det_defect=worst_det, unitarity=worst_uni)


def test_criterion_03_free_limit(sech):
    x, q, h = sech.x, sech.values, sech.h
    # closed form against direct quadrature of the field transform
    form = np.array([ab_rapid(k, 0.0, 1.0)[1] for k in K201])
    quad = np.array([-trapezoid(np.exp(2j * k * x) * q, dx=h) for k in K201])
    form_err = float(np.max(np.abs(form - quad)))
    assert form_err < 1e-10
    # small-coupling scattering approaches the same limit at least linearly
    errs = {}
    for eps in (0.02, 0.01):
        s = scattering_batch(sech, Coupling(1j * eps), K201, STEP)
        errs[eps] = float(np.max(np.abs(s[:, 0, 1] / (1j * eps) - form)))
    assert errs[0.02] < 5e-3
    assert errs[0.01] <= 0.55 * errs[0.02]
    _report(3, "free limit", formula_vs_quadrature=form_err,
            slope_err_02=errs[0.02], slope_err_01=errs[0.01])


def test_criterion_04_zero_census(sech):
    region = (-2.0, 2.0, 0.02, 3.0)
    cases = {2.0: [0.5j, 1.5j], 1.5: [1.0j], 0.5: []}
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for nu, expect in cases.items():
            found = find_zeros(sech, Coupling(1j * nu), region, STEP)
            found = sorted(found, key=lambda z: z.position.imag)
            predicted = zeros_rapid(nu, 1.0)
            assert len(found) == len(predicted) == len(expect)
            for z, e in zip(found, sorted(expect, key=lambda v: v.imag)):
                worst = max(worst, abs(z.position - e))
        assert worst < 1e-6
        # defocusing coupling supports no bound states
        assert find_zeros(sech, Coupling(0.5), region, STEP) == []
    _report(4, "zero census", position_err=worst)


def test_criterion_05_pedestal_regression(pedestal):
    s = scattering_batch(pedestal, Coupling(1j), K201, IntegratorConfig())
    A = 1.5
    mu = np.sqrt(K201 ** 2 + 1.0)
    blaschke = (mu - 0.5j * A) / (mu + 0.5j * A)
    a_err = float(np.max(np.abs(s[:, 1, 1] - blaschke)))
    b_max = float(np.max(np.abs(s[:, 0, 1])))
    assert a_err < 1e-5
    assert b_max < 1e-5
    _report(5, "pedestal-soliton regression", a_err=a_err, b_max=b_max)


def test_criterion_06_dark_soliton_regression(dark):
    par, prof = dark
    c = Coupling(1.0)
    kg = make_kgrid(c, prof.asymptotics, 5.0, 200)
    s = scattering_batch(prof, c, kg.samples, IntegratorConfig())
    b_max = float(np.max(np.abs(s[:, 0, 1])))
    prod = np.array([a_finite_defocusing_product(k, 1, par) for k in kg.samples])
    a_err = float(np.max(np.abs(s[:, 1, 1] - prod)))
    assert b_max < 1e-5
    assert a_err < 1e-5
    _report(6, "dark-soliton regression", a_err=a_err, b_max=b_max)


def test_criterion_07_factorization(sech):
    kg = make_kgrid(Coupling(1j), Schwartz(), 5.0, 201)
    rep = verify_factorization(sech, Coupling(1j), Coupling(2j), kg, cfg=STEP)
    th = None  # boundary normalisations are seeds; their defect is exact
    from nlsquench.quench import higher_level_theta

    th = higher_level_theta(sech, Coupling(1j), Coupling(2j), 0.7, STEP)
    assert rep.max_residual < 1e-5
    assert rep.x_spread < 1e-6
    assert th.boundary_defect() <= 1e-7
    assert rep.boundary_defect < 1e-7
    _report(7, "factorization", residual=rep.max_residual, x_spread=rep.x_spread,
            boundary=rep.boundary_defect)


def test_criterion_08_dressing_involution():
    x = _grid(40.0, 0.01)
    p = make_profile(0.8 * np.exp(-x ** 2 / 2), 40.0, Schwartz(), boundary_tol=1e-10)
    c = Coupling(1j)
    k0 = 0.3 + 0.7j
    cfg = IntegratorConfig()
    k = K201
    s0 = scattering_batch(p, c, k, cfg)
    q1 = apply_bt(p, c, DarbouxStep(k0=k0, mu_param=1.0, mode="add"), cfg)
    s1 = scattering_batch(q1, c, k, cfg)
    blaschke = (k - k0) / (k - np.conj(k0))
    data_err = float(np.max(np.abs(s1[:, 1, 1] - blaschke * s0[:, 1, 1])))
    b_invar = float(np.max(np.abs(s1[:, 0, 1] - s0[:, 0, 1])))
    b0 = norming_constant(q1, c, k0, cfg)
    q2 = apply_bt(q1, c, DarbouxStep(k0=k0, mu_param=b0 + 1.0, mode="remove"), cfg)
    restore = float(np.max(np.abs(q2.values - p.values)))
    assert restore < 1e-8
    assert data_err < 1e-6
    assert b_invar < 1e-6
    _report(8, "dressing involution", field_restore=restore,
            data_effect=data_err, b_invariance=b_invar)


def test_criterion_09_radiative_round_trip(gauss):
    c = Coupling(0.5)
    xs = np.linspace(-6.0, 6.0, 121)
    truth = 0.2 * np.exp(-xs ** 2)

    def run(nk, method):
        kg = make_kgrid(c, Schwartz(), 6.0, nk)
        rd = radiative_part(scatter_grid(gauss, c, kg, STEP, find_discrete=False))
        rec = reconstruct_field(rd, c, xs, method=method)
        return rd, float(np.linalg.norm(rec.values - truth) / np.linalg.norm(truth))

    rd_base, err_base = run(481, "resolvent")
    agree = max(abs(glm_neumann(rd_base, c, xv) - rosales_resummed(rd_base, c, xv))
                for xv in (0.0, 0.9, -2.3))
    # refinement leg via the iterated sum, which this test just showed
    # agrees with the dense solve far below the effect being measured
    _, err_fine = run(961, "neumann")
    assert err_base < 1e-2
    assert agree < 1e-6
    assert err_base / err_fine >= 2.0
    _report(9, "radiative round trip", rel_l2=err_base, route_agreement=agree,
            refinement_gain=err_base / err_fine)


def test_criterion_10_isospectrality_oracle(sech):
    c = Coupling(1.5j)
    kg = make_kgrid(c, Schwartz(), 5.0, 201)
    rep = isospectral_check(sech, c, 0.5, kg,
                            StepperConfig(dt=1e-4, n_modes=2048),
                            IntegratorConfig())
    assert rep.n_phase_points > 0
    assert rep.amp_drift < 1e-4
    # phase law with the empirically pinned sign: arg b advances by -4k^2 t
    assert rep.phase_drift < 1e-3
    _report(10, "isospectrality oracle", amp_drift=rep.amp_drift,
            phase_drift=rep.phase_drift, boundary_leak=rep.boundary_leak)


def test_criterion_11_dual_quench(gauss):
    c, c0 = Coupling(0.5), Coupling(0.25)
    kg = make_kgrid(c, Schwartz(), 6.0, 241)
    # generic pipeline: strip (no zeros here), rebuild at the new coupling,
    # compare the data of the result against the original
    rebuilt = dual_quench(gauss, c, c0, kg, cfg=STEP, exact_rescale=False)
    sd0 = scatter_grid(gauss, c, kg, STEP, find_discrete=False)
    sd1 = scatter_grid(rebuilt, c0, kg, STEP, find_discrete=False)
    data_err = float(max(np.max(np.abs(sd1.a - sd0.a)),
                         np.max(np.abs(sd1.b - sd0.b))))
    assert data_err < 5e-2
    # same-regime map is exactly a rescaling
    scaled = dual_quench(gauss, c, c0, kg, cfg=STEP)
    rescale_err = float(np.max(np.abs(scaled.values - 2.0 * gauss.values)))
    assert rescale_err <= 1e-8
    _report(11, "dual quench", data_err=data_err, rescale_err=rescale_err)
