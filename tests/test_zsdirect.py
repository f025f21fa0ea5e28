import warnings

import numpy as np
import pytest

from nlsquench.core import (
    Coupling,
    FiniteDensity,
    KGrid,
    NlsQuenchError,
    ScatteringData,
    Schwartz,
    make_kgrid,
    make_profile,
)
from nlsquench.closedforms import SolitonParamsRD, soliton_profile_rd, zeros_rapid
from nlsquench.zsdirect import (
    BranchPoint,
    ComplexSpectralSample,
    ContourThroughZero,
    DivisionByZeroA,
    IntegratorConfig,
    UnsupportedAsymptotics,
    analytic_continue_a,
    find_zeros,
    jost_plus,
    norming_constant,
    reflection,
    scatter_grid,
    scattering_batch,
)
from conftest import grid
from hypergeometric import hyp2f1
from zsdirect_reference import asymptotic_frame, scattering_matrix


# --- asymptotic frames ------------------------------------------------------

def test_frame_schwartz_trivial():
    fr = asymptotic_frame(Coupling(1j), Schwartz(), 0.7 + 0.2j)
    assert fr.mu == 0.7 + 0.2j
    assert np.array_equal(fr.p_plus, np.eye(2))


def test_frame_fd_focusing_mu_positive():
    c = Coupling(0.8j)
    fr = asymptotic_frame(c, FiniteDensity(rho=1.0, theta=0.0), -2.0)
    assert abs(fr.mu - np.sqrt(4.0 + 0.64)) < 1e-14
    fr2 = asymptotic_frame(c, FiniteDensity(rho=1.0, theta=0.0), 2.0)
    assert abs(fr2.mu - fr.mu) < 1e-14  # even, positive root


def test_frame_fd_defocusing_branch_sign():
    c = Coupling(1.0)
    asym = FiniteDensity(rho=1.0, theta=1.0)
    mup = asymptotic_frame(c, asym, 3.0).mu
    mum = asymptotic_frame(c, asym, -3.0).mu
    assert abs(mup - np.sqrt(8.0)) < 1e-14
    assert abs(mum + np.sqrt(8.0)) < 1e-14


def test_frame_branch_point_rejected():
    c = Coupling(1.0)
    with pytest.raises(BranchPoint):
        asymptotic_frame(c, FiniteDensity(rho=1.0, theta=1.0), 1.0)


def test_frame_ode_residual():
    c = Coupling(1.0)
    asym = FiniteDensity(rho=1.2, theta=0.9)
    fr = asymptotic_frame(c, asym, 2.5)
    for side in "+-":
        assert fr.ode_residual(1.3, side, c, asym) < 1e-12


# --- scattering matrices ----------------------------------------------------

def test_zero_potential_identity():
    p = make_profile(np.zeros(64, complex), 10.0, Schwartz())
    for k in (0.0, 0.8, -2.3):
        s = scattering_matrix(p, Coupling(1j), k)
        assert np.max(np.abs(s - np.eye(2))) < 1e-14


def test_zero_potential_jost_plane_wave():
    p = make_profile(np.zeros(64, complex), 10.0, Schwartz())
    j = jost_plus(p, Coupling(1j), 1.1)
    expect = np.exp(-1j * 1.1 * j.x)
    assert np.max(np.abs(j.samples[:, 0, 0] - expect)) < 1e-13
    assert np.max(np.abs(j.samples[:, 1, 1] - 1 / expect)) < 1e-13
    assert np.max(np.abs(j.samples[:, 0, 1])) < 1e-14


def test_sech_blaschke(sech25, fine_cfg):
    k = np.linspace(-4, 4, 81)
    s = scattering_batch(sech25, Coupling(1j), k, fine_cfg)
    bl = (k - 0.5j) / (k + 0.5j)
    assert np.max(np.abs(s[:, 1, 1] - bl)) < 5e-7
    assert np.max(np.abs(s[:, 0, 1])) < 5e-7
    # a(0) is the Blaschke factor at the origin
    s0 = scattering_matrix(sech25, Coupling(1j), 0.0, fine_cfg)
    assert abs(s0[1, 1] - (-1.0)) < 1e-7


def test_sech_unitarity(sech25, fine_cfg):
    k = np.linspace(-4, 4, 41)
    s = scattering_batch(sech25, Coupling(2j), k, fine_cfg)
    sh = np.conj(np.transpose(s, (0, 2, 1)))
    assert np.max(np.abs(sh @ s - np.eye(2))) < 2e-6


def test_jost_matches_hypergeometric_wavefunction(sech40):
    # the central column of the dressed solution solves a hypergeometric
    # equation; evaluate that solution at the grid centre independently
    for cv in (1j, 0.5j):
        kv = 0.4
        j = jost_plus(sech40, Coupling(cv), kv, IntegratorConfig(step=0.01))
        i0 = len(j.x) // 2
        g = 0.5 - 1j * kv  # A = 1, V = 0
        f_half = hyp2f1(1j * cv, -1j * cv, g, 0.5)
        fp_half = (cv ** 2 / g) * hyp2f1(1 + 1j * cv, 1 - 1j * cv, 1 + g, 0.5)
        expect_22 = f_half
        expect_12 = -fp_half / (2 * cv)
        assert abs(j.samples[i0, 1, 1] - expect_22) < 1e-6
        assert abs(j.samples[i0, 0, 1] - expect_12) < 1e-6


def test_jost_det_constant(sech25):
    j = jost_plus(sech25, Coupling(1j), 0.9)
    assert j.det_drift() < 1e-7


def test_jost_ode_residual(sech25):
    # spot-check dPsi/dx = (-ik sigma3 + W) Psi at interior nodes, with a
    # five-point derivative of the stored samples
    kv = 0.9
    c = Coupling(1j)
    j = jost_plus(sech25, c, kv)
    h = j.x[1] - j.x[0]
    for i0 in (len(j.x) // 2, len(j.x) // 3, 2 * len(j.x) // 3):
        d = (-j.samples[i0 + 2] + 8 * j.samples[i0 + 1]
             - 8 * j.samples[i0 - 1] + j.samples[i0 - 2]) / (12 * h)
        q = sech25.values[i0]
        gen = np.array([[-1j * kv, 1j * q], [1j * np.conj(q), 1j * kv]])
        resid = d - gen @ j.samples[i0]
        assert np.max(np.abs(resid)) < 1e-5


def test_self_convergence_fourth_order():
    # profiles generated analytically at h and h/2; reference at h/4
    k = np.linspace(-3, 3, 31)
    c = Coupling(1j)
    errs = []
    for h in (0.08, 0.04):
        x = grid(25.0, h)
        p = soliton_profile_rd(SolitonParamsRD(A=1.0), x, boundary_tol=1e-9)
        s = scattering_batch(p, c, k)
        bl = (k - 0.5j) / (k + 0.5j)
        errs.append(np.max(np.abs(s[:, 1, 1] - bl)))
    assert errs[0] / errs[1] > 8.0


def test_gaussian_fine_grid_reference():
    k = np.linspace(-3, 3, 31)
    c = Coupling(0.5)
    x1 = grid(30.0, 0.02)
    p1 = make_profile(0.2 * np.exp(-x1 ** 2), 30.0, Schwartz(), boundary_tol=1e-9)
    s1 = scattering_batch(p1, c, k, IntegratorConfig(step=0.005))
    x2 = grid(30.0, 0.005)
    p2 = make_profile(0.2 * np.exp(-x2 ** 2), 30.0, Schwartz(), boundary_tol=1e-9)
    s2 = scattering_batch(p2, c, k, IntegratorConfig(step=0.0025))
    assert np.max(np.abs(s1 - s2)) < 1e-8


def test_scatter_grid_zero_field():
    p = make_profile(np.zeros(64, complex), 10.0, Schwartz())
    kg = make_kgrid(Coupling(1j), Schwartz(), 3.0, 21)
    sd = scatter_grid(p, Coupling(1j), kg)
    assert np.max(np.abs(sd.a - 1.0)) < 1e-14
    assert np.max(np.abs(sd.b)) < 1e-14
    assert sd.discrete == ()
    sd.validate(det_tol=1e-12, edge_tol=1e-6)


@pytest.mark.parametrize("step", [0, 0.0, -0.01, np.inf, np.nan, "0.01", [0.01]],
                         ids=["int-zero", "zero", "negative", "inf", "nan", "string", "list"])
def test_integrator_step_validated(step):
    # a zero step used to end in an OverflowError in substeps and a string
    # step in a numpy TypeError, both only once a pass ran
    with pytest.raises(NlsQuenchError, match="finite positive"):
        IntegratorConfig(step=step)


def test_integrator_step_accepted():
    assert IntegratorConfig().substeps(0.02) == 1
    assert IntegratorConfig(step=0.01).substeps(0.02) == 2
    assert IntegratorConfig(step=np.float64(0.005)).substeps(0.02) == 4


def test_scatter_grid_sech_eigenvalue(sech25, fine_cfg):
    kg = make_kgrid(Coupling(1j), Schwartz(), 4.0, 41)
    sd = scatter_grid(sech25, Coupling(1j), kg, fine_cfg)
    assert len(sd.discrete) == 1
    z = sd.discrete[0]
    assert abs(z.position - 0.5j) < 1e-6
    assert z.order == 1
    assert sd.det_defect() < 1e-8


@pytest.mark.parametrize("k", [np.array([0.4, 0.5 + 0.3j]), [0.4 + 0j, 0.5 + 0.3j]],
                         ids=["numpy", "python-complex"])
def test_real_axis_pass_refuses_complex_k(sech25, k):
    # a complex k used to be cut to its real part (numpy) or raise TypeError
    # (a list of Python complex); a numerical failure exits the CLI with 2
    assert issubclass(ComplexSpectralSample, NlsQuenchError)
    with pytest.raises(ComplexSpectralSample):
        scattering_batch(sech25, Coupling(1j), k)
    with pytest.raises(ComplexSpectralSample):
        jost_plus(sech25, Coupling(1j), k[1])
    # a complex dtype on the real axis is accepted
    real = scattering_batch(sech25, Coupling(1j), [0.4, 0.5])
    assert np.array_equal(scattering_batch(sech25, Coupling(1j), [0.4 + 0j, 0.5 + 0j]), real)


# --- analytic continuation and zeros ---------------------------------------

def test_continue_zero_field():
    p = make_profile(np.zeros(64, complex), 10.0, Schwartz())
    for k in (1j, 0.5 + 2j, 3j):
        assert abs(analytic_continue_a(p, Coupling(1j), k) - 1.0) < 1e-13


def test_continue_sech_blaschke_upper_plane(sech25, fine_cfg):
    c = Coupling(1j)
    for k in (1j, 0.3 + 0.8j, 2j, 4j, 8j, 16j):
        a = analytic_continue_a(sech25, c, k, fine_cfg)
        bl = (k - 0.5j) / (k + 0.5j)
        assert abs(a - bl) < 1e-6
    # the value drifts to 1 like 1/|k| along the imaginary axis
    for y in (4.0, 8.0, 16.0):
        a = analytic_continue_a(sech25, c, 1j * y, fine_cfg)
        assert abs(a - 1.0) <= 1.1 / y


def test_continue_consistent_with_real_axis(sech25, fine_cfg):
    c = Coupling(1j)
    for kv in (0.6, -1.7):
        a_col = analytic_continue_a(sech25, c, kv + 0j, fine_cfg)
        s = scattering_matrix(sech25, c, kv, fine_cfg)
        assert abs(a_col - s[1, 1]) < 1e-7


def test_continue_rejects_finite_density():
    x = grid(15.0, 0.01)
    p = make_profile(np.ones(len(x), complex), 15.0,
                     FiniteDensity(rho=1.0, theta=0.0))
    with pytest.raises(UnsupportedAsymptotics):
        analytic_continue_a(p, Coupling(1j), 1j)


def test_find_zeros_census(sech25, fine_cfg):
    region = (-2.0, 2.0, 0.02, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zs = find_zeros(sech25, Coupling(1j), region, fine_cfg)
    assert len(zs) == 1
    assert abs(zs[0].position - 0.5j) < 1e-6
    assert zs[0].order == 1
    # count equals the winding of the whole region
    from nlsquench.zsdirect import _contour

    w = _contour(sech25, Coupling(1j), region)[0]
    assert w == sum(z.order for z in zs)


# (A, V, nu) of sech draws whose zeros sit 0.0011-0.019 above the real axis,
# on the census grid; a search box floored above the axis missed them
CENSUS_NEAR_AXIS = [
    (1.055393, 0.131208, 2.506927),
    (0.919341, -0.444934, 0.520731),
    (0.850813, -0.188654, 0.515436),
    (1.226072, -0.483858, 0.500892),
    (1.240542, -0.170508, 0.501026),
    (0.925385, -0.265759, 1.504078),
]


@pytest.mark.parametrize("A, V, nu", CENSUS_NEAR_AXIS)
def test_scatter_grid_census_near_axis(A, V, nu):
    p = soliton_profile_rd(SolitonParamsRD(A=A, V=V), grid(25.0, 0.02), boundary_tol=1e-8)
    c = Coupling(1j * nu)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sd = scatter_grid(p, c, make_kgrid(c, Schwartz(), 4.0, 161), IntegratorConfig(step=0.01))
        expect = sorted((z.position for z in zeros_rapid(nu, A, V)), key=lambda k: k.imag)
    found = sorted(sd.discrete, key=lambda z: z.position.imag)
    assert len(found) == len(expect)
    for z, e in zip(found, expect):
        assert abs(z.position - e) <= 1e-6
        assert z.order == 1


# --- known answers beyond the sech ------------------------------------------

CENSUS_X = grid(25.0, 0.02)


def _boosted(r, V):
    """q = r e^{iVx} for a real envelope r on the census grid."""
    return make_profile(r * np.exp(1j * V * CENSUS_X), 25.0, Schwartz(), boundary_tol=1e-10)


@pytest.mark.parametrize("c", [0.7j, 2.3j, 0.6, 1.4])
def test_area_theorem(c):
    # at k = -V/2 the Zakharov-Shabat system of q = r e^{iVx} is a rotation
    # by |c| times the area of r (hyperbolic when defocusing), for any real
    # r, here two-signed and multi-lobe; measured |a - ref| <= 1.5e-7
    V = 0.37
    r = np.exp(-CENSUS_X ** 2 / 2) * (1.0 + 0.8 * np.sin(3.0 * CENSUS_X))
    area = 0.02 * np.sum(r)
    s = scattering_batch(_boosted(r, V), Coupling(c), [-V / 2], IntegratorConfig(step=0.01))
    a = s[0, 0, 0]
    ref = np.cos(abs(c) * area) if c.imag else np.cosh(abs(c) * area)
    assert abs(a - ref) < 1e-6


KLAUS_SHAW_SHAPES = {
    "gaussian": np.exp(-CENSUS_X ** 2 / 2),
    "sech2": 1.0 / np.cosh(CENSUS_X) ** 2,
    "stretched": np.exp(-np.abs(CENSUS_X) ** 1.5),
    "asymmetric": np.where(CENSUS_X < 0, np.exp(-CENSUS_X ** 2 / 2), np.exp(-CENSUS_X ** 2 / 8)),
}


@pytest.mark.parametrize("shape", sorted(KLAUS_SHAW_SHAPES))
@pytest.mark.parametrize("s, V", [(0.3, 0.2), (0.55, -0.4), (1.45, 0.45), (1.6, -0.1),
                                  (2.55, -0.3), (3.7, 0.3)])
def test_klaus_shaw_census(shape, s, V):
    # a single-lobe r >= 0 at c = i nu has N = floor(s + 1/2) zeros, s =
    # nu * area / pi, all on Re k = -V/2 (Klaus & Shaw 2002); each s is at
    # least 0.05 from a threshold s = m + 1/2; measured off the line by
    # <= 1.1e-7
    r = KLAUS_SHAW_SHAPES[shape]
    nu = np.pi * s / (0.02 * np.sum(r))
    c = Coupling(1j * nu)
    sd = scatter_grid(_boosted(r, V), c, make_kgrid(c, Schwartz(), 4.0, 161),
                      IntegratorConfig(step=0.01))
    assert len(sd.discrete) == int(np.floor(s + 0.5))
    for z in sd.discrete:
        assert abs(z.position.real + V / 2) < 1e-6
        assert z.order == 1


def test_spectral_singularity_on_contour(sech25):
    # at the threshold coupling nu = 3/2 a(k) vanishes at k = 0 on the axis
    with pytest.raises(ContourThroughZero):
        find_zeros(sech25, Coupling(1.5j), (-2.0, 2.0, 0.0, 3.0))


def test_find_zeros_none_defocusing(sech25, fine_cfg):
    zs = find_zeros(sech25, Coupling(0.5), (-2, 2, 0.02, 3.0), fine_cfg)
    assert zs == []


def test_norming_constant_of_sech(sech40):
    # L and R columns are proportional at the bound state; for the even
    # unit soliton the proportionality at x = 0 has unit modulus
    b0 = norming_constant(sech40, Coupling(1j), 0.5j, IntegratorConfig(step=0.01))
    assert abs(abs(b0) - 1.0) < 1e-6


def test_near_axis_zero_warns(sech25):
    # at this coupling the bound state sits 5e-5 above the axis, inside the
    # near-axis warning band
    nu = 0.5 + 5e-5
    with pytest.warns(UserWarning):
        zs = find_zeros(sech25, Coupling(1j * nu), (-1, 1, 1e-5, 0.5))
    assert len(zs) == 1
    assert abs(zs[0].position - 5e-5 * 1j) < 2e-5


# --- reflection -------------------------------------------------------------

def _linear_data():
    k = np.linspace(-2, 2, 5)
    a = np.ones(5, complex)
    b = k.astype(complex) * 0.1
    return ScatteringData(kgrid=KGrid(k), a=a, b=b, coupling=Coupling(0.5))


def test_reflection_on_and_between_nodes():
    sd = _linear_data()
    assert abs(reflection(sd, 1.0) - 0.1) < 1e-15
    assert abs(reflection(sd, 0.5) - 0.05) < 1e-15  # linear interpolation


def test_reflection_zero_for_soliton(sech25, fine_cfg):
    kg = make_kgrid(Coupling(1j), Schwartz(), 3.0, 31)
    sd = scatter_grid(sech25, Coupling(1j), kg, fine_cfg, find_discrete=False)
    assert abs(reflection(sd, 0.35)) < 1e-6


def test_reflection_division_by_zero():
    k = np.linspace(-2, 2, 5)
    a = np.ones(5, complex)
    a[2] = 0.0
    sd = ScatteringData(kgrid=KGrid(k), a=a, b=np.ones(5, complex),
                        coupling=Coupling(0.5))
    with pytest.raises(DivisionByZeroA):
        reflection(sd, 0.0)


def test_reflection_refuses_the_forbidden_gap():
    # defocusing finite density: no data lives in the gap (-1, 1), nor
    # between a gap edge and the nearest sample of its segment
    kg = make_kgrid(Coupling(1.0), FiniteDensity(rho=1.0, theta=0.0), 5.0, 10)
    k = kg.samples
    sd = ScatteringData(kgrid=kg, a=np.ones(len(k), complex), b=0.1 * k.astype(complex),
                        coupling=Coupling(1.0))
    for kq in (0.0, 0.5, -0.999, 1.0, -1.1):
        with pytest.raises(BranchPoint):
            reflection(sd, kq)
    assert abs(reflection(sd, 3.0) - 0.3) < 1e-15
