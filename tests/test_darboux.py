import numpy as np
import pytest

from nlsquench import darboux, zsdirect
from nlsquench.closedforms import SolitonParamsFD, soliton_profile_fd_defocusing
from nlsquench.core import (
    Coupling,
    KGrid,
    NlsQuenchError,
    Schwartz,
    make_kgrid,
    make_profile,
)
from nlsquench.darboux import (
    BoundStatesLost,
    DarbouxStep,
    RemoveNonexistentZero,
    apply_bt,
    bt_data_effect,
    dual_quench,
    strip_solitons,
)
from nlsquench.zsdirect import (
    IntegratorConfig,
    UnsupportedAsymptotics,
    default_zero_region,
    find_zeros,
    norming_constant,
    scatter_grid,
    scattering_batch,
)
from conftest import grid
from darboux_reference import sigma_matrix


@pytest.fixture(scope="module")
def gauss_half():
    x = grid(40.0, 0.01)
    return make_profile(0.8 * np.exp(-x ** 2 / 2), 40.0, Schwartz(),
                        boundary_tol=1e-10)


def test_step_validation():
    with pytest.raises(NlsQuenchError):
        DarbouxStep(k0=0.3 - 0.2j)
    with pytest.raises(NlsQuenchError):
        DarbouxStep(k0=1j, mu_param=0.0)
    with pytest.raises(NlsQuenchError):
        DarbouxStep(k0=1j, mode="twist")


def test_step_serialization():
    st = DarbouxStep(k0=0.3 + 0.7j, mu_param=1 - 2j, mode="remove")
    st2 = DarbouxStep.from_json_dict(st.to_json_dict())
    assert st2 == st


def test_vacuum_add_creates_soliton():
    x = grid(30.0, 0.02)
    p = make_profile(np.zeros(len(x), complex), 30.0, Schwartz())
    c = Coupling(1j)
    q = apply_bt(p, c, DarbouxStep(k0=0.5j, mu_param=1.0, mode="add"))
    # envelope is the unit soliton (phase is free)
    assert np.max(np.abs(np.abs(q.values) - 1 / np.cosh(x))) < 1e-12
    k = np.linspace(-3, 3, 31)
    s = scattering_batch(q, c, k, IntegratorConfig(step=0.01))
    bl = (k - 0.5j) / (k + 0.5j)
    assert np.max(np.abs(s[:, 1, 1] - bl)) < 1e-7
    assert np.max(np.abs(s[:, 0, 1])) < 1e-7


def test_sigma_limits_vacuum():
    # with no field the mixing ratio is a pure exponential: Sigma is
    # diagonal at both ends and swaps its entries between them
    x = grid(30.0, 0.02)
    p = make_profile(np.zeros(len(x), complex), 30.0, Schwartz())
    c = Coupling(1j)
    st = DarbouxStep(k0=0.4 + 0.6j, mu_param=1.0, mode="add")
    s_plus = sigma_matrix(p, c, st, 29.0)
    s_minus = sigma_matrix(p, c, st, -29.0)
    assert abs(s_plus[0, 0] - st.k0) < 1e-9
    assert abs(s_plus[1, 1] - np.conj(st.k0)) < 1e-9
    assert abs(s_minus[0, 0] - np.conj(st.k0)) < 1e-9
    assert abs(s_minus[1, 1] - st.k0) < 1e-9
    assert abs(s_plus[0, 1]) < 1e-9 and abs(s_minus[1, 0]) < 1e-9


def test_add_remove_involution(gauss_half):
    c = Coupling(1j)
    k0 = 0.3 + 0.7j
    q1 = apply_bt(gauss_half, c, DarbouxStep(k0=k0, mu_param=1.0, mode="add"))
    b0 = norming_constant(q1, c, k0)
    q2 = apply_bt(q1, c, DarbouxStep(k0=k0, mu_param=b0 + 1.0, mode="remove"))
    assert np.max(np.abs(q2.values - gauss_half.values)) < 1e-8


def test_field_and_data_effects_agree(gauss_half):
    c = Coupling(1j)
    k0 = 0.3 + 0.7j
    k = np.linspace(-4, 4, 41)
    icfg = IntegratorConfig()
    s0 = scattering_batch(gauss_half, c, k, icfg)
    q1 = apply_bt(gauss_half, c, DarbouxStep(k0=k0, mu_param=1.0, mode="add"), icfg)
    s1 = scattering_batch(q1, c, k, icfg)
    bl = (k - k0) / (k - np.conj(k0))
    assert np.max(np.abs(s1[:, 1, 1] - bl * s0[:, 1, 1])) < 1e-6
    assert np.max(np.abs(s1[:, 0, 1] - s0[:, 0, 1])) < 1e-6


def test_data_effect_bookkeeping():
    from nlsquench.core import KGrid, ScatteringData

    k = np.linspace(-2, 2, 21)
    sd = ScatteringData(kgrid=KGrid(k), a=np.ones(21, complex),
                        b=np.zeros(21, complex), coupling=Coupling(1j))
    st = DarbouxStep(k0=0.5j, mu_param=1.0, mode="add")
    sd1 = bt_data_effect(sd, st)
    assert np.allclose(sd1.a, (k - 0.5j) / (k + 0.5j))
    assert len(sd1.discrete) == 1
    sd2 = bt_data_effect(sd1, DarbouxStep(k0=0.5j, mu_param=2.0, mode="remove"))
    assert np.allclose(sd2.a, 1.0)
    assert sd2.discrete == ()
    assert np.array_equal(sd2.b, sd.b)


def test_remove_unknown_zero_rejected():
    from nlsquench.core import KGrid, ScatteringData

    k = np.linspace(-2, 2, 21)
    sd = ScatteringData(kgrid=KGrid(k), a=np.ones(21, complex),
                        b=np.zeros(21, complex), coupling=Coupling(1j))
    with pytest.raises(RemoveNonexistentZero):
        bt_data_effect(sd, DarbouxStep(k0=1j, mu_param=1.0, mode="remove"))


def test_remove_without_actual_zero_rejected(gauss_half):
    # the defocusing data of this profile have no bound states at all
    with pytest.raises(RemoveNonexistentZero):
        apply_bt(gauss_half, Coupling(0.5),
                 DarbouxStep(k0=0.4 + 0.5j, mu_param=1.0, mode="remove"))


def test_strip_radiative_profile_is_noop(gauss_half):
    out, steps = strip_solitons(gauss_half, Coupling(0.5))
    assert steps == []
    assert np.array_equal(out.values, gauss_half.values)


@pytest.mark.parametrize("c", [Coupling(0.5), Coupling(0.0)])
def test_strip_searches_only_at_focusing_couplings(gauss_half, monkeypatch, c):
    # a rapidly decreasing field has no zeros of a(k) off the focusing ray,
    # so a(k) is never sampled there: every sample goes through a column
    # table, and none may be built
    def no_search(*args, **kwargs):
        raise AssertionError("a(k) sampled at a non-focusing coupling")

    for mod in (zsdirect, darboux):
        monkeypatch.setattr(mod, "_column_table", no_search)
    out, steps = strip_solitons(gauss_half, c)
    assert steps == [] and out is gauss_half


def test_strip_finite_density_raises():
    x = np.linspace(-15.0, 15.0, 1501)
    p = soliton_profile_fd_defocusing(SolitonParamsFD(rho=1.0, theta=np.pi / 2), x,
                                      boundary_tol=1e-6)
    for c in (Coupling(1.0), Coupling(1j)):
        with pytest.raises(UnsupportedAsymptotics):
            strip_solitons(p, c)


def test_strip_single_soliton(sech25):
    c = Coupling(1j)
    out, steps = strip_solitons(sech25, c, IntegratorConfig(step=0.01))
    assert len(steps) == 1
    assert steps[0].mode == "remove"
    assert abs(steps[0].k0 - 0.5j) < 1e-6
    k = np.linspace(-3, 3, 31)
    s = scattering_batch(out, c, k, IntegratorConfig(step=0.01))
    assert np.max(np.abs(s[:, 1, 1] - 1.0)) < 1e-7
    assert np.max(np.abs(s[:, 0, 1])) < 1e-6


def test_strip_two_soliton_bound_state(sech25):
    # the same envelope at doubled coupling carries two bound states,
    # removed tallest first
    c = Coupling(2j)
    out, steps = strip_solitons(sech25, c, IntegratorConfig(step=0.01))
    assert len(steps) == 2
    assert steps[0].k0.imag > steps[1].k0.imag
    k = np.linspace(-3, 3, 25)
    s = scattering_batch(out, c, k, IntegratorConfig(step=0.01))
    assert np.max(np.abs(s[:, 1, 1] - 1.0)) < 1e-6


def test_dressed_spectrum_known_answer():
    # a weak radiative field dressed with a close pair 0.05 apart, a zero
    # 0.002 above the axis and three zeros off the imaginary axis; a
    # soliton of height 0.002 is ~250 wide, hence the long grid.  The low
    # zero sits under a node of the contour's bottom edge: elsewhere its
    # phase turn of 2 pi along the axis falls between two nodes and the
    # search misses it (README, numerical design notes)
    x = grid(2500.0, 0.1)
    seed = make_profile(0.1 * np.exp(-x ** 2 / 4), 2500.0, Schwartz(), boundary_tol=1e-10)
    c = Coupling(1j)
    zeros = [0.1 + 0.1j, 0.15 + 0.1j, 0.002j, -0.3 + 0.12j]
    dressed = seed
    for k0 in zeros:
        dressed = apply_bt(dressed, c, DarbouxStep(k0=k0, mu_param=1.0, mode="add"),
                           boundary_tol=1e-6)
    region = default_zero_region(dressed, c, KGrid(np.array([-5.0, 5.0])))
    found = find_zeros(dressed, c, region)
    assert len(found) == len(zeros)
    for k0 in zeros:
        z = min(found, key=lambda z: abs(z.position - k0))
        assert abs(z.position - k0) <= 1e-6
        assert z.order == 1
    out, steps = strip_solitons(dressed, c)
    assert len(steps) == len(zeros)
    assert np.max(np.abs(out.values - seed.values)) < 1e-6


def test_dual_quench_identity(sech25):
    c = Coupling(1j)
    kg = make_kgrid(c, Schwartz(), 4.0, 41)
    out = dual_quench(sech25, c, c, kg)
    assert np.max(np.abs(out.values - sech25.values)) < 1e-14


def test_dual_quench_same_regime_rescaling(gauss_half):
    kg = make_kgrid(Coupling(0.5), Schwartz(), 4.0, 41)
    out = dual_quench(gauss_half, Coupling(0.5), Coupling(0.25), kg)
    assert np.max(np.abs(out.values - 2.0 * gauss_half.values)) < 1e-14


def test_dual_quench_regime_flip_matches_data(gauss40):
    # radiative field moved from defocusing to focusing coupling: across a
    # regime flip the preserved object is the reflection coefficient (the
    # two regimes normalise |a| against |b| with opposite signs, so a and b
    # individually shift at O(|rho|^2))
    c, c0 = Coupling(0.5), Coupling(0.5j)
    kg = make_kgrid(c, Schwartz(), 6.0, 241)
    icfg = IntegratorConfig(step=0.01)
    out = dual_quench(gauss40, c, c0, kg, cfg=icfg)
    sd0 = scatter_grid(gauss40, c, kg, icfg, find_discrete=False)
    sd1 = scatter_grid(out, c0, kg, icfg, find_discrete=False)
    rho0 = sd0.reflection_samples()
    rho1 = sd1.reflection_samples()
    assert np.max(np.abs(rho1 - rho0)) < 2e-3
    peak = np.max(np.abs(rho0))
    assert peak > 0.1  # the data are not trivially small
    assert np.max(np.abs(sd1.a - sd0.a)) < 1.1 * peak ** 2  # regime distortion
    # not the rescaling map: c/c0 = -i would predict out = -i q
    assert np.max(np.abs(out.values - (-1j) * gauss40.values)) > 1e-3


def _chirped_gauss(amp):
    x = grid(25.0, 0.02)
    return make_profile(amp * np.exp(-x ** 2 / 2) * np.exp(0.2j * x), 25.0,
                        Schwartz(), boundary_tol=1e-10)


_DUAL_K = KGrid(np.linspace(-6.0, 6.0, 241))
_DUAL_CFG = IntegratorConfig(step=0.01)


@pytest.fixture(scope="module", params=[(1.0, 0.8j, 1), (0.8, 0.7j, 1), (2.0, 0.9j, 2)],
                ids=["amp1-one-zero", "amp0.8-one-zero", "amp2-two-zeros"])
def dual_with_zeros(request):
    """(input, c0, zero count, generic dual quench from c = i) for focusing
    gaussians that carry bound states."""
    amp, c0v, nzeros = request.param
    p = _chirped_gauss(amp)
    c0 = Coupling(c0v)
    out = dual_quench(p, Coupling(1j), c0, _DUAL_K, cfg=_DUAL_CFG, exact_rescale=False)
    return p, c0, nzeros, out


def test_dual_quench_with_zeros_matches_rescaling(dual_with_zeros):
    # c/c0 is real, so the generic pipeline must land on the exact
    # rescaling.  Measured relative max errors: 5.7e-3 (amp 1), 2.8e-2
    # (amp 0.8), 1.3e-2 (amp 2); what is left is the first-order error of
    # the reconstruction kernel, which the zero-free amp 0.5 input shows
    # too (7.1e-2)
    p, c0, _, out = dual_with_zeros
    c = Coupling(1j)
    scaled = dual_quench(p, c, c0, _DUAL_K)
    assert np.max(np.abs(out.values - scaled.values)) < 5e-2 * np.max(np.abs(scaled.values))


def test_dual_quench_carries_norming_constants(dual_with_zeros):
    # each zero is re-added with mixing coefficient 1/b0, so the rebuilt
    # field scattered at c0 has the input's zeros and norming constants.
    # Measured: <= 7.1e-8 relative
    p, c0, nzeros, out = dual_with_zeros
    before = sorted(scatter_grid(p, Coupling(1j), _DUAL_K, _DUAL_CFG).discrete,
                    key=lambda z: z.position.imag)
    after = sorted(scatter_grid(out, c0, _DUAL_K, _DUAL_CFG).discrete,
                   key=lambda z: z.position.imag)
    assert len(before) == len(after) == nzeros
    for z0, z1 in zip(before, after):
        assert abs(z1.position - z0.position) <= 1e-6
        assert abs(z1.norming - z0.norming) <= 1e-6 * abs(z0.norming)


def test_dual_quench_zeros_to_defocusing_raise():
    # a defocusing field has no bound states to carry the input's zero
    with pytest.raises(BoundStatesLost):
        dual_quench(_chirped_gauss(1.0), Coupling(1j), Coupling(0.5), _DUAL_K,
                    cfg=_DUAL_CFG)


def test_dual_quench_generic_path_needs_decaying_profile():
    # the radiative reconstruction returns a decaying field, so a
    # finite-density input is refused before any scattering
    x = np.linspace(-15.0, 15.0, 1501)
    p = soliton_profile_fd_defocusing(SolitonParamsFD(rho=1.0, theta=np.pi / 2), x,
                                      boundary_tol=1e-6)
    with pytest.raises(UnsupportedAsymptotics):
        dual_quench(p, Coupling(1.0), Coupling(0.5j), KGrid(np.linspace(-4.0, 4.0, 41)))


def test_dressing_rejects_zero_coupling(gauss_half):
    with pytest.raises(NlsQuenchError):
        apply_bt(gauss_half, Coupling(0.0),
                 DarbouxStep(k0=1j, mu_param=1.0, mode="add"))
