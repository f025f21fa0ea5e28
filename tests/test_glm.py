import numpy as np
import pytest

import glm_reference as ref
from nlsquench import core, glm, zsdirect
from nlsquench.closedforms import SolitonParamsFD, soliton_profile_fd_defocusing
from nlsquench.core import Coupling, KGrid, NlsQuenchError, Schwartz, make_kgrid, make_profile
from nlsquench.glm import (
    NonUniformGrid,
    RadiativeData,
    SeriesDiverging,
    SingularResolvent,
    glm_neumann,
    radiative_part,
    reconstruct_field,
    rosales_resummed,
)
from nlsquench.zsdirect import IntegratorConfig, scatter_grid
from conftest import grid


@pytest.fixture(scope="module")
def gauss_data():
    """Scattering data of the weak Gaussian 0.05 exp(-x^2) at c = 0.5."""
    x = grid(30.0, 0.02)
    p = make_profile(0.05 * np.exp(-x ** 2), 30.0, Schwartz(), boundary_tol=1e-9)
    c = Coupling(0.5)
    kg = make_kgrid(c, Schwartz(), 5.0, 201)
    sd = scatter_grid(p, c, kg, IntegratorConfig(step=0.01))
    return p, c, radiative_part(sd)


def _flat_rho(val, n=81, kmax=4.0):
    k = np.linspace(-kmax, kmax, n)
    return RadiativeData(kgrid=KGrid(k), rho=np.full(n, val, dtype=complex),
                         coupling=Coupling(0.5))


def test_f_kernel_zero_data():
    rd = _flat_rho(0.0)
    assert ref.f_kernel(rd, 0.7) == 0.0


def test_f_kernel_sech_pair():
    # rho(k) = -pi sech(pi k) transforms to -sech(x/2)/2
    k = np.linspace(-8, 8, 801)
    rd = RadiativeData(kgrid=KGrid(k), rho=-np.pi / np.cosh(np.pi * k),
                       coupling=Coupling(0.5))
    for x in (0.0, 1.1, -2.7):
        expect = -0.5 / np.cosh(x / 2.0)
        assert abs(ref.f_kernel(rd, x) - expect) < 1e-10


def test_f_kernel_grid_doubling():
    k1 = np.linspace(-6, 6, 301)
    k2 = np.linspace(-6, 6, 601)
    rho = lambda k: 0.3 * np.exp(-k ** 2) * np.exp(0.4j * k)
    r1 = RadiativeData(kgrid=KGrid(k1), rho=rho(k1), coupling=Coupling(0.5))
    r2 = RadiativeData(kgrid=KGrid(k2), rho=rho(k2), coupling=Coupling(0.5))
    assert abs(ref.f_kernel(r1, 0.9) - ref.f_kernel(r2, 0.9)) < 1e-10


def test_zero_data_reconstructs_zero():
    rd = _flat_rho(0.0)
    assert glm_neumann(rd, Coupling(0.5), 0.3) == 0.0
    assert rosales_resummed(rd, Coupling(0.5), 0.3) == 0.0


def test_born_term_is_plain_transform(gauss_data, monkeypatch):
    _, c, rd = gauss_data
    monkeypatch.setattr(glm, "_NEUMANN_TERMS", 0)
    k = rd.kgrid.samples
    dk = k[1] - k[0]
    w = np.full_like(k, dk)
    w[0] = w[-1] = dk / 2
    for x in (0.0, 0.8):
        born = glm_neumann(rd, c, x)
        quad = -2.0 / c.value * np.sum(w / (2 * np.pi) * rd.rho * np.exp(-2j * k * x))
        assert abs(born - quad) < 1e-14


def test_free_sech_data_reconstructs_sech():
    # data of the weak-coupling limit: a = 1, b = c * (-pi sech(pi k));
    # the reconstruction must return the unit-sech field independently of c
    k = np.linspace(-8, 8, 801)
    cv = 0.01
    rd = RadiativeData(kgrid=KGrid(k), rho=-cv * np.pi / np.cosh(np.pi * k),
                       coupling=Coupling(cv))
    for x in (0.0, 0.9, -2.2):
        got = glm_neumann(rd, Coupling(cv), x)
        assert abs(got - 1.0 / np.cosh(x)) < 5e-4  # higher orders are O(c^2)


def test_weak_gaussian_round_trip(gauss_data):
    p, c, rd = gauss_data
    xs = np.linspace(-5, 5, 51)
    truth = 0.05 * np.exp(-xs ** 2)
    rec = np.array([glm_neumann(rd, c, xv) for xv in xs])
    assert np.max(np.abs(rec - truth)) < 1e-3


def test_neumann_equals_resolvent(gauss_data):
    _, c, rd = gauss_data
    for x in (0.0, 1.3, -0.6):
        qn = glm_neumann(rd, c, x)
        qr = rosales_resummed(rd, c, x)
        assert abs(qn - qr) < 1e-6


def test_evolved_data_same_formula_path(gauss_data):
    from nlsquench.quench import evolve_data
    from nlsquench.core import ScatteringData

    p, c, rd = gauss_data
    t = 0.4
    # route 1: rotate the data, reconstruct at time zero
    sd = ScatteringData(kgrid=rd.kgrid, a=np.ones(rd.kgrid.n, complex),
                        b=rd.rho, coupling=c)
    rho_t = evolve_data(sd, t).b
    rd_t = RadiativeData(kgrid=rd.kgrid, rho=rho_t, coupling=c)
    # route 2: pass t explicitly
    for x in (0.0, 0.7):
        q1 = rosales_resummed(rd_t, c, x, t=0.0)
        q2 = rosales_resummed(rd, c, x, t=t)
        assert abs(q1 - q2) < 1e-12


def test_regime_flip_changes_result_beyond_rescaling(gauss_data):
    _, c, rd = gauss_data
    x = 0.6
    q_def = rosales_resummed(rd, Coupling(0.5), x)
    q_foc = rosales_resummed(rd, Coupling(0.5j), x)
    # same |coupling|: a pure rescaling would give q_foc = (0.5/0.5j) q_def
    scaled = (0.5 / 0.5j) * q_def
    assert abs(q_foc - scaled) > 1e-7
    # the change is confined to the higher-order terms
    assert abs(q_foc - scaled) < 1e-2


def test_even_profile_reconstructs_even(gauss_data):
    _, c, rd = gauss_data
    xs = np.linspace(-3, 3, 25)
    rec = reconstruct_field(rd, c, xs, boundary_tol=1.0)
    # the +i eps kernel breaks the reflection symmetry only at the
    # discretisation level
    assert np.max(np.abs(rec.values - rec.values[::-1])) < 1e-5
    assert np.max(np.abs(rec.values.imag)) < 1e-12


def test_series_divergence_detected():
    rd = _flat_rho(3.0)
    with pytest.raises(SeriesDiverging):
        glm_neumann(rd, Coupling(0.5), 0.0)


def test_series_divergence_detected_on_grid():
    # the grid reconstruction runs the same term loop as glm_neumann, so a
    # diverging series raises instead of returning a partial sum
    with pytest.raises(SeriesDiverging):
        reconstruct_field(_flat_rho(3.0), Coupling(0.5), np.linspace(-2.0, 2.0, 21),
                          boundary_tol=np.inf, method="neumann")


def test_singular_resolvent_guard(gauss_data, monkeypatch):
    _, c, rd = gauss_data
    monkeypatch.setattr(glm, "_COND_LIMIT", 1.0)
    with pytest.raises(SingularResolvent):
        rosales_resummed(rd, c, 0.0)


def test_radiative_part_refuses_bound_states(sech25, focusing, fine_cfg):
    kg = make_kgrid(focusing, Schwartz(), 3.0, 21)
    sd = scatter_grid(sech25, focusing, kg, fine_cfg)
    assert sd.discrete
    with pytest.raises(NlsQuenchError):
        radiative_part(sd)


def test_radiative_part_refuses_vanishing_a():
    # rho = b/a used to divide by the zero; reflection has the same guard
    k = np.linspace(-2, 2, 11)
    a = np.ones(11, complex)
    a[3] = 1e-14
    sd = core.ScatteringData(kgrid=KGrid(k), a=a, b=np.zeros(11, complex),
                             coupling=Coupling(0.5))
    with pytest.raises(zsdirect.DivisionByZeroA, match="a vanishes"):
        radiative_part(sd)


def test_singular_resolvent_guard_on_grid(gauss_data, monkeypatch):
    # the grid reconstruction runs the same conditioning guard as
    # rosales_resummed
    _, c, rd = gauss_data
    monkeypatch.setattr(glm, "_COND_LIMIT", 1.0)
    with pytest.raises(SingularResolvent):
        reconstruct_field(rd, c, np.linspace(-3.0, 3.0, 25), boundary_tol=1.0)


def test_gmres_stall_raises(gauss_data, monkeypatch):
    _, c, rd = gauss_data
    monkeypatch.setattr(glm, "_GMRES_MAX_ITER", 2)
    with pytest.raises(SingularResolvent):
        rosales_resummed(rd, c, 0.0)


@pytest.mark.parametrize("cv", [0.5, 0.5j])
@pytest.mark.parametrize("t", [0.0, 0.4])
def test_batched_routes_match_dense_reference(gauss_data, cv, t):
    _, _, rd = gauss_data
    c = Coupling(cv)
    xs = np.linspace(-4.0, 4.0, 33)
    for method, want in (("resolvent", ref.resolvent(rd, c, xs, t)),
                         ("neumann", ref.neumann(rd, c, xs, 12, t))):
        got = reconstruct_field(rd, c, xs, t=t, boundary_tol=1.0, method=method).values
        assert np.max(np.abs(got - want)) <= 1e-12


def test_strong_data_matches_dense_reference():
    # |rho| up to 0.8 at c = 1: GMRES needs more iterations, same answer
    k = np.linspace(-6.0, 6.0, 241)
    c = Coupling(1.0)
    rd = RadiativeData(kgrid=KGrid(k), rho=0.8 * np.exp(-k ** 2 + 0.5j * k), coupling=c)
    xs = np.linspace(-5.0, 5.0, 21)
    got = reconstruct_field(rd, c, xs, boundary_tol=np.inf).values
    assert np.max(np.abs(got - ref.resolvent(rd, c, xs))) <= 1e-12


@pytest.mark.parametrize("budget, sizes", [(8 * 201, (1, 7, 9)), (200, (1, 3))])
def test_chunk_edges_match_dense_reference(gauss_data, monkeypatch, budget, sizes):
    # blocks of 8 x points, and one x per block with the budget below N_k
    _, c, rd = gauss_data
    monkeypatch.setattr(zsdirect, "_CHUNK", budget)
    for nx in sizes:
        xs = np.linspace(-2.5, 3.0, nx)
        for method, want in (("resolvent", ref.resolvent(rd, c, xs)),
                             ("neumann", ref.neumann(rd, c, xs, 12))):
            got = glm._field_values(rd, c, xs, 0.0, method)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_gapped_grid_raises_typed_error():
    # fd_dark data at c = 1 sit on a grid with the forbidden gap cut out
    par = SolitonParamsFD(rho=1.0, theta=np.pi / 2)
    p = soliton_profile_fd_defocusing(par, np.linspace(-15.0, 15.0, 1501),
                                      boundary_tol=1e-6)
    c = Coupling(1.0)
    kg = make_kgrid(c, p.asymptotics, 4.0, 40)
    assert kg.gap is not None
    rd = radiative_part(scatter_grid(p, c, kg, find_discrete=False))
    for call in (lambda: reconstruct_field(rd, c, np.linspace(-3.0, 3.0, 25)),
                 lambda: reconstruct_field(rd, c, np.linspace(-3.0, 3.0, 25),
                                           method="neumann"),
                 lambda: glm_neumann(rd, c, 0.0),
                 lambda: rosales_resummed(rd, c, 0.0)):
        with pytest.raises(NonUniformGrid):
            call()
    # one exception class for every non-uniform grid: the profile-grid
    # handler catches the k-grid failure too
    with pytest.raises(core.NonUniformGrid):
        reconstruct_field(rd, c, np.linspace(-3.0, 3.0, 25))


def test_zero_coupling_refused_before_the_kernel(monkeypatch):
    # the Born factor is -2/c: a zero coupling used to die on a
    # ZeroDivisionError in the kernel's constructor
    def no_kernel(*args):
        raise AssertionError("kernel built at a zero coupling")

    monkeypatch.setattr(glm, "_ToeplitzKernel", no_kernel)
    rd = _flat_rho(0.1)
    xs = np.linspace(-3.0, 3.0, 25)
    for call in (lambda: reconstruct_field(rd, Coupling(0), xs),
                 lambda: reconstruct_field(rd, Coupling(0), xs, method="neumann"),
                 lambda: glm_neumann(rd, Coupling(0), 0.0),
                 lambda: rosales_resummed(rd, Coupling(0), 0.0)):
        with pytest.raises(NlsQuenchError, match="nonzero coupling"):
            call()
