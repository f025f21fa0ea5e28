import numpy as np
import pytest

from nlsquench.core import (
    Coupling,
    FiniteDensity,
    NlsQuenchError,
    Schwartz,
    make_kgrid,
    make_profile,
)
from nlsquench.quench import (
    PURE_MULTISOLITON,
    PURE_RADIATION,
    SOLITON_RADIATION,
    DefocusingDressing,
    _theta_pass,
    classify_post_quench,
    evolve_data,
    higher_level_theta,
    quench_map,
    verify_factorization,
)
from nlsquench.zsdirect import (
    DEFAULT_INTEGRATOR,
    ComplexSpectralSample,
    UnsupportedAsymptotics,
    scatter_grid,
)


@pytest.fixture(scope="module")
def kg_small(focusing):
    return make_kgrid(focusing, Schwartz(), 4.0, 41)


def test_quench_identity(sech25, focusing, kg_small, fine_cfg):
    rep = quench_map(sech25, focusing, Coupling(1j), kg_small, fine_cfg)
    assert np.array_equal(rep.pre.a, rep.post.a)
    assert np.array_equal(rep.pre.b, rep.post.b)


def test_quench_to_double_coupling(sech25, focusing, kg_small, fine_cfg):
    rep = quench_map(sech25, focusing, Coupling(2j), kg_small, fine_cfg)
    assert np.max(np.abs(rep.post.b)) < 1e-5
    pos = sorted(z.position.imag for z in rep.post.discrete)
    assert len(pos) == 2
    assert abs(pos[0] - 0.5) < 1e-6 and abs(pos[1] - 1.5) < 1e-6
    cls = classify_post_quench(rep)
    assert cls.label == PURE_MULTISOLITON
    assert cls.predicted_count == cls.found_count == 2


def test_quench_to_defocusing(sech25, focusing, kg_small, fine_cfg):
    rep = quench_map(sech25, focusing, Coupling(0.5), kg_small, fine_cfg)
    assert rep.post.discrete == ()
    assert np.max(np.abs(rep.post.b)) > 1e-2
    cls = classify_post_quench(rep)
    assert cls.label == PURE_RADIATION
    assert cls.predicted_count == 0


def test_quench_partial_radiation(sech25, focusing, kg_small, fine_cfg):
    rep = quench_map(sech25, focusing, Coupling(1.5j), kg_small, fine_cfg)
    cls = classify_post_quench(rep)
    assert cls.label == SOLITON_RADIATION
    assert cls.found_count == 1 and cls.predicted_count == 1


def test_evolve_data_identity_and_soliton(sech25, focusing, kg_small, fine_cfg):
    sd = scatter_grid(sech25, focusing, kg_small, fine_cfg, find_discrete=False)
    same = evolve_data(sd, 0.0)
    assert np.array_equal(same.b, sd.b)
    # reflectionless data keep b = 0 for all times
    later = evolve_data(sd, 3.7)
    assert np.isclose(np.max(np.abs(later.b)), np.max(np.abs(sd.b)), rtol=1e-12)
    assert np.array_equal(later.a, sd.a)


def test_evolve_data_phase():
    # one grid point at k = 1, pushed for t = 0.25: the measured phase of b
    # advances by exactly -4 k^2 t = -1 (sign pinned against the stepper)
    from nlsquench.core import KGrid, ScatteringData

    k = np.array([-1.0, 1.0])
    sd = ScatteringData(kgrid=KGrid(k), a=np.ones(2, complex),
                        b=np.array([0.3 + 0j, 0.3 + 0j]), coupling=Coupling(0.5))
    out = evolve_data(sd, 0.25)
    assert abs(out.b[1] - 0.3 * np.exp(-1j)) < 1e-15
    assert abs(out.b[0] - 0.3 * np.exp(-1j)) < 1e-15


def test_evolve_data_preserves_moduli():
    from nlsquench.core import KGrid, ScatteringData

    rng = np.random.default_rng(5)
    k = np.sort(rng.uniform(-3, 3, 17))
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, 17))
    b = rng.normal(size=17) + 1j * rng.normal(size=17)
    sd = ScatteringData(kgrid=KGrid(k), a=a, b=b, coupling=Coupling(1j))
    for t in rng.uniform(0, 5, 5):
        out = evolve_data(sd, float(t))
        assert np.allclose(np.abs(out.b), np.abs(b), atol=1e-14)
        assert np.array_equal(out.a, a)


def test_theta_trivial_when_coupling_unchanged(sech25, focusing):
    th = higher_level_theta(sech25, focusing, Coupling(1j), 0.8)
    assert np.max(np.abs(th.theta_plus - np.eye(2))) < 1e-14
    assert np.max(np.abs(th.theta_minus - np.eye(2))) < 1e-14


def test_theta_zero_field():
    p = make_profile(np.zeros(64, complex), 10.0, Schwartz())
    th = higher_level_theta(p, Coupling(1j), Coupling(2j), 1.1)
    assert np.max(np.abs(th.theta_plus - np.eye(2))) < 1e-14
    assert th.boundary_defect() == 0.0


def test_theta_free_start_reduces_to_jost(sech25):
    # starting from zero coupling the dressing solves the plain auxiliary
    # problem at the new coupling
    from nlsquench.quench import _theta_pass
    from nlsquench.zsdirect import DEFAULT_INTEGRATOR

    karr = np.array([0.6])
    c_new = Coupling(0.8j)
    _, _, th = _theta_pass(sech25, Coupling(0.0), c_new, karr,
                           DEFAULT_INTEGRATOR, direction=+1)
    _, phi, _ = _theta_pass(sech25, c_new, c_new, karr,
                            DEFAULT_INTEGRATOR, direction=+1)
    assert np.max(np.abs(th - phi)) < 1e-12


def test_theta_unitary(sech25, focusing):
    th = higher_level_theta(sech25, focusing, Coupling(2j), 0.9)
    assert th.unitarity_defect() < 1e-7


def test_theta_rejects_defocusing(sech25, focusing):
    with pytest.raises(NlsQuenchError):
        higher_level_theta(sech25, focusing, Coupling(0.5), 0.9)


@pytest.mark.parametrize("c_old, c_new", [(1j, 0.5), (0.5, 1j), (0.5, 0.7)])
def test_theta_defocusing_raises_typed_error(sech25, c_old, c_new):
    kg = make_kgrid(Coupling(1j), Schwartz(), 2.0, 5)
    for call in (lambda: higher_level_theta(sech25, Coupling(c_old), Coupling(c_new), 0.9),
                 lambda: verify_factorization(sech25, Coupling(c_old), Coupling(c_new), kg)):
        with pytest.raises(DefocusingDressing):
            call()


def test_theta_finite_density_raises_unsupported_asymptotics():
    x = np.linspace(-10.0, 10.0, 401)
    p = make_profile(1.0 + 0.3 * np.exp(-x ** 2), 10.0, FiniteDensity(rho=1.0, theta=0.0),
                     boundary_tol=1e-6)
    kg = make_kgrid(Coupling(1j), FiniteDensity(rho=1.0, theta=0.0), 3.0, 5)
    for call in (lambda: higher_level_theta(p, Coupling(1j), Coupling(2j), 1.5),
                 lambda: verify_factorization(p, Coupling(1j), Coupling(2j), kg)):
        with pytest.raises(UnsupportedAsymptotics):
            call()


def test_theta_refuses_complex_k(sech25):
    c, c_new, cfg = Coupling(1j), Coupling(2j), DEFAULT_INTEGRATOR
    with pytest.raises(ComplexSpectralSample):
        higher_level_theta(sech25, c, c_new, 0.5 + 0.3j)
    with pytest.raises(ComplexSpectralSample):
        higher_level_theta(sech25, c, c_new, np.complex128(0.5 + 1e-12j))
    with pytest.raises(ComplexSpectralSample):
        _theta_pass(sech25, c, c_new, np.array([0.5, 0.7 + 0.1j]), cfg, 1, keep=[0, 5])
    # a complex dtype with every imaginary part zero is real k
    k = np.array([-0.5, 0.7])
    _, phi, th = _theta_pass(sech25, c, c_new, k, cfg, 1, keep=[0, 400, 2500])
    _, phi_c, th_c = _theta_pass(sech25, c, c_new, k.astype(complex), cfg, 1, keep=[0, 400, 2500])
    assert np.array_equal(phi, phi_c) and np.array_equal(th, th_c)
    th1 = higher_level_theta(sech25, c, c_new, 0.7)
    th2 = higher_level_theta(sech25, c, c_new, 0.7 + 0j)
    assert th2.k == 0.7 and isinstance(th2.k, float)
    assert np.array_equal(th1.theta_plus, th2.theta_plus)
    with pytest.raises(NlsQuenchError):
        higher_level_theta(sech25, c, c_new, [0.5, 0.7])


def test_factorization_identity_cases(sech25, focusing, kg_small, fine_cfg):
    rep = verify_factorization(sech25, focusing, Coupling(1j), kg_small, cfg=fine_cfg)
    assert rep.max_residual < 1e-12
    p0 = make_profile(np.zeros(64, complex), 10.0, Schwartz())
    kg0 = make_kgrid(focusing, Schwartz(), 3.0, 11)
    rep0 = verify_factorization(p0, focusing, Coupling(2j), kg0)
    assert rep0.max_residual < 1e-13
    assert rep0.boundary_defect < 1e-13


def test_factorization_quench(sech25, focusing, kg_small, fine_cfg):
    rep = verify_factorization(sech25, focusing, Coupling(2j), kg_small, cfg=fine_cfg)
    assert rep.max_residual < 1e-5
    assert rep.x_spread < 1e-6
    assert rep.boundary_defect < 1e-6


def test_quench_composition_consistency(sech25, focusing, kg_small, fine_cfg):
    # composing two quenches lands exactly on the direct scatter at the
    # final coupling (both sides are the same extensional computation)
    c_mid, c_end = Coupling(1.5j), Coupling(2j)
    rep = quench_map(sech25, c_mid, c_end, kg_small, fine_cfg,
                     find_discrete=False)
    direct = scatter_grid(sech25, c_end, kg_small, fine_cfg,
                          find_discrete=False)
    assert np.max(np.abs(rep.post.a - direct.a)) < 1e-10
    assert np.max(np.abs(rep.post.b - direct.b)) < 1e-10


def test_quench_round_trip_group_law(gauss40):
    # push radiative data to a new coupling, rebuild the field there, and
    # quench back: the original data reappear within the reconstruction
    # tolerance (the map and its reverse compose to the identity)
    from nlsquench.glm import radiative_part, reconstruct_field
    from nlsquench.zsdirect import IntegratorConfig

    c, c_new = Coupling(0.5), Coupling(0.25)
    kg = make_kgrid(c, Schwartz(), 6.0, 241)
    icfg = IntegratorConfig(step=0.01)
    fwd = quench_map(gauss40, c, c_new, kg, icfg, find_discrete=False)
    rd = radiative_part(fwd.post)
    xs = gauss40.x[::10]
    rebuilt = reconstruct_field(rd, c_new, xs, boundary_tol=0.05)
    back = scatter_grid(rebuilt, c, kg, icfg, find_discrete=False)
    # compare on the coarse reconstruction's own resolution
    assert np.max(np.abs(back.a - fwd.pre.a)) < 5e-3
    assert np.max(np.abs(back.b - fwd.pre.b)) < 5e-3
