import numpy as np
import pytest

from nlsquench.core import Coupling, FiniteDensity, NlsQuenchError, Schwartz
from nlsquench.closedforms import (
    DegeneratePhase,
    GammaPole,
    SolitonParamsFD,
    SolitonParamsRD,
    a_finite_defocusing_product,
    ab_finite_defocusing,
    ab_finite_focusing,
    ab_rapid,
    predicted_zero_count,
    profile_fd_focusing,
    soliton_profile_fd_defocusing,
    soliton_profile_rd,
    zeros_rapid,
)
from nlsquench.zsdirect import IntegratorConfig, scattering_batch
from conftest import grid, trapezoid


# --- bright-soliton profile ---------------------------------------------

def test_soliton_profile_center_value():
    x = grid(20.0, 0.02)
    p = soliton_profile_rd(SolitonParamsRD(A=1.0), x, boundary_tol=1e-8)
    i0 = len(x) // 2
    assert abs(p.values[i0] - 1.0) < 1e-14


def test_soliton_profile_envelope_symmetry():
    x = grid(20.0, 0.01)
    p = soliton_profile_rd(SolitonParamsRD(A=1.3, V=0.7, x0=0.7), x,
                           boundary_tol=1e-6)
    env = np.abs(p.values)
    # |q| is even about x0 = 0.7; mirror indices around that node
    i0 = int(round((0.7 + 20.0) / 0.01))
    m = 800
    assert np.max(np.abs(env[i0 - m:i0] - env[i0 + m:i0:-1])) < 1e-12


def test_soliton_profile_mass():
    # integral |q|^2 dx = 2A, by direct quadrature of the samples
    x = grid(30.0, 0.01)
    for A in (0.7, 1.0, 2.2):
        p = soliton_profile_rd(SolitonParamsRD(A=A), x, boundary_tol=1e-6)
        mass = trapezoid(np.abs(p.values) ** 2, dx=p.h)
        assert abs(mass - 2 * A) < 1e-10


# --- bright-soliton scattering data ----------------------------------------

def test_ab_rapid_original_coupling_is_blaschke():
    for k in (0.0, 0.7, -2.2, 3.9):
        a, b = ab_rapid(k, 1j, A=1.0, V=0.0)
        k1 = 0.5j
        assert abs(a - (k - k1) / (k - np.conj(k1))) < 1e-12
        assert abs(b) < 1e-12


def test_ab_rapid_velocity_shift():
    # velocity enters only through k + V/2
    a1, b1 = ab_rapid(1.3, 0.7j, A=1.1, V=0.0)
    a2, b2 = ab_rapid(1.3 - 0.4, 0.7j, A=1.1, V=0.8)
    assert abs(a1 - a2) < 1e-13 and abs(b1 - b2) < 1e-13


def test_ab_rapid_free_limit_matches_transform(sech40):
    # c -> 0: b/c equals the quadrature of -int e^{2ik xi} q(xi) d xi
    x = sech40.x
    q = sech40.values
    for k in (-2.0, -0.3, 0.9, 3.5):
        quad = -trapezoid(np.exp(2j * k * x) * q, dx=sech40.h)
        _, b = ab_rapid(k, 1e-8, A=1.0)
        assert abs(b / 1e-8 - quad) < 1e-10
        a, _ = ab_rapid(k, 0.0, A=1.0)
        assert abs(a - 1.0) < 1e-12


@pytest.mark.parametrize("c", [0.7j, 1.3j, 0.6, 1.4])
def test_ab_rapid_b_matches_solver(c):
    # b at generic couplings, focusing and defocusing (measured 6e-9 to 2.5e-8)
    x = grid(25.0, 0.02)
    p = soliton_profile_rd(SolitonParamsRD(A=1.0), x, boundary_tol=1e-8)
    ks = np.array([-2.1, -0.6, 0.0, 0.8, 1.7])
    s = scattering_batch(p, Coupling(c), ks, IntegratorConfig(step=0.01))
    b = np.array([ab_rapid(k, c, A=1.0)[1] for k in ks])
    assert np.max(np.abs(s[:, 0, 1] - b)) < 1e-7


def test_ab_rapid_two_soliton_zeros():
    # at c = 2i the zeros sit at iA/2 and 3iA/2: a vanishes linearly there
    for z0 in (0.5j, 1.5j):
        d = 1e-7
        a, _ = ab_rapid(z0 + d, 2j, A=1.0)
        assert abs(a) < 1e-5
    a_mid, _ = ab_rapid(1j, 2j, A=1.0)
    assert abs(a_mid) > 1e-3


def test_zeros_rapid_counts():
    with pytest.warns(UserWarning):  # the would-be zero sits exactly at 0
        assert zeros_rapid(0.5, 1.0) == []
    z2 = zeros_rapid(2.0, 1.0)
    assert [z.position for z in z2] == [1.5j, 0.5j]
    with pytest.warns(UserWarning):  # half-integer height lands on the axis
        z15 = zeros_rapid(1.5, 1.0)
    assert [z.position for z in z15] == [1j]
    z1 = zeros_rapid(1.0, 1.0)
    assert [z.position for z in z1] == [0.5j]


def test_zeros_rapid_velocity_offset():
    z = zeros_rapid(1.2, 2.0, V=3.0)
    assert len(z) == 1
    assert abs(z[0].position - (-1.5 + 2.0 * 0.7j)) < 1e-12


def test_zeros_rapid_marginal_warns():
    with pytest.warns(UserWarning):
        z = zeros_rapid(2.5, 1.0)
    assert len(z) == 2  # the third lands exactly on the axis and is dropped


def test_predicted_zero_count():
    assert predicted_zero_count(0.5) == 0
    assert predicted_zero_count(0.9) == 1
    assert predicted_zero_count(1.5) == 1
    assert predicted_zero_count(2.0) == 2
    assert predicted_zero_count(3.7) == 4


def test_gamma_pole_surfaced():
    # gamma argument hits a pole when 1/2 - ic - ik/A is a non-positive
    # integer; c = i/2 and k = 0 gives exactly 0
    with pytest.raises(GammaPole):
        ab_rapid(0.0, 0.5j, A=1.0)


# --- dark soliton -----------------------------------------------------------

def test_fd_profile_limits():
    par = SolitonParamsFD(rho=1.3, theta=2.0)
    x = grid(25.0, 0.01)
    p = soliton_profile_fd_defocusing(par, x, boundary_tol=1e-7)
    assert abs(p.values[0] - 1.3) < 1e-7
    assert abs(p.values[-1] - 1.3 * np.exp(2j)) < 1e-7
    i0 = len(x) // 2
    assert abs(p.values[i0] - 1.3 * (1 + np.exp(2j)) / 2) < 1e-12


def test_fd_profile_degenerate_phase():
    with pytest.raises(DegeneratePhase):
        SolitonParamsFD(rho=1.0, theta=0.0)


def test_fd_defocusing_integer_coupling_reflectionless():
    par = SolitonParamsFD(rho=1.0, theta=np.pi / 2)
    for n in (1, 2, 3):
        for k in (1.2 + 0.0j, -2.7, 4.1):
            if abs(k) <= n:
                continue
            _, b = ab_finite_defocusing(k, float(n), par)
            assert abs(b) < 1e-12


def test_fd_defocusing_gamma_form_equals_product():
    par = SolitonParamsFD(rho=1.0, theta=np.pi / 2)
    for n in (1, 2):
        for k in (2.8, -3.3, 4.6):
            a_gen, _ = ab_finite_defocusing(k, float(n), par)
            a_prod = a_finite_defocusing_product(k, n, par)
            assert abs(a_gen - a_prod) < 1e-11


def test_fd_defocusing_focusing_continuation_never_reflectionless():
    # |b| is >= 1.8e-7 here (at k = 3.8, g = 0.5), and < 1e-12 at the
    # reflectionless integer couplings above
    par = SolitonParamsFD(rho=1.0, theta=np.pi / 2)
    for g in (0.5, 1.0, 2.0):
        for k in (1.4, -2.2, 3.8):
            _, b = ab_finite_defocusing(k, 1j * g, par)
            assert abs(b) > 1e-7


@pytest.mark.parametrize("c", [0.6, 1.4, 2.3])
def test_fd_defocusing_b_matches_solver(c):
    # b at generic couplings on the mu ~ k branch (measured 6e-11 to 2.4e-9)
    par = SolitonParamsFD(rho=1.0, theta=1.94)
    p = soliton_profile_fd_defocusing(par, grid(20.0, 0.005), boundary_tol=1e-7)
    ks = np.array([-c - 0.3, -c - 1.1, c + 0.2, c + 0.9, 4.0])
    s = scattering_batch(p, Coupling(c), ks, IntegratorConfig())
    b = np.array([ab_finite_defocusing(k, c, par)[1] for k in ks])
    assert np.max(np.abs(s[:, 0, 1] - b)) < 1e-8


def test_fd_defocusing_matches_solver():
    par = SolitonParamsFD(rho=1.0, theta=np.pi / 2)
    x = grid(20.0, 0.005)
    p = soliton_profile_fd_defocusing(par, x, boundary_tol=1e-7)
    ks = np.array([1.4, 2.6, -3.1])
    for cval in (0.5, 1.3):
        s = scattering_batch(p, Coupling(cval), ks, IntegratorConfig())
        for i, k in enumerate(ks):
            a_cf, _ = ab_finite_defocusing(k, cval, par)
            assert abs(s[i, 1, 1] - a_cf) < 1e-6


# --- pedestal soliton -------------------------------------------------------

def test_pedestal_profile_values():
    x = grid(20.0, 0.01)
    p = profile_fd_focusing(2.0, x, boundary_tol=1e-8)
    A = 1.5
    i0 = len(x) // 2
    assert abs(p.values[i0] - (1.0 - 1j * A)) < 1e-14
    assert abs(p.values[0] - 1.0) < 1e-8
    assert isinstance(p.asymptotics, FiniteDensity)


def test_pedestal_original_coupling_is_mu_blaschke():
    A = 1.5
    for k in (0.0, 1.2, -3.3):
        a, b = ab_finite_focusing(k, 1.0, A)
        mu = np.sqrt(k ** 2 + 1.0)
        assert abs(a - (mu - 0.5j * A) / (mu + 0.5j * A)) < 1e-12
        assert abs(b) < 1e-12
        assert abs(abs(a) - 1.0) < 1e-12


def test_pedestal_integer_coupling_reflectionless():
    _, b = ab_finite_focusing(0.9, 2.0, 1.5)
    assert abs(b) < 1e-12


def test_pedestal_origin_value():
    a, _ = ab_finite_focusing(0.0, 1.0, 1.5)
    # mu(0) = 1 for unit background
    assert abs(a - (1 - 0.75j) / (1 + 0.75j)) < 1e-12


def test_pedestal_matches_solver():
    x = grid(20.0, 0.005)
    p = profile_fd_focusing(2.0, x, boundary_tol=1e-8)
    ks = np.array([0.0, 1.1, -2.7])
    s = scattering_batch(p, Coupling(1j), ks, IntegratorConfig())
    for i, k in enumerate(ks):
        a_cf, _ = ab_finite_focusing(k, 1.0, 1.5)
        assert abs(s[i, 1, 1] - a_cf) < 1e-6
        assert abs(s[i, 0, 1]) < 1e-6


@pytest.mark.parametrize("g", [0.6, 1.3, 2.4])
def test_pedestal_b_matches_solver(g):
    # b at non-integer couplings (measured 5e-12 to 2e-10)
    p = profile_fd_focusing(2.0, grid(20.0, 0.005), boundary_tol=1e-8)
    ks = np.array([-2.1, -0.6, 0.0, 0.8, 1.7])
    s = scattering_batch(p, Coupling(1j * g), ks, IntegratorConfig())
    b = np.array([ab_finite_focusing(k, g, 1.5)[1] for k in ks])
    assert np.max(np.abs(s[:, 0, 1] - b)) < 1e-9


def test_params_validation():
    with pytest.raises(NlsQuenchError):
        SolitonParamsRD(A=-1.0)
    with pytest.raises(NlsQuenchError):
        SolitonParamsFD(rho=0.0, theta=1.0)
    with pytest.raises(NlsQuenchError):
        profile_fd_focusing(0.9, grid(10.0, 0.05))
