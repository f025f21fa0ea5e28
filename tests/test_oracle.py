import numpy as np
import pytest

import oracle_reference as ref
from nlsquench.core import (
    Coupling,
    FiniteDensity,
    KGrid,
    NlsQuenchError,
    Schwartz,
    make_kgrid,
    make_profile,
)
from nlsquench import oracle
from nlsquench.oracle import (
    BlowUp,
    StepperConfig,
    _resampled_profile,
    boundary_energy,
    evolve,
    fft_upsample,
    hamiltonian,
    isospectral_check,
    mass,
)
from nlsquench.zsdirect import IntegratorConfig, UnsupportedAsymptotics
from conftest import grid


@pytest.fixture(scope="module")
def cfg_fast():
    return StepperConfig(dt=1e-3, n_modes=1024)


def test_stepper_config_validation():
    with pytest.raises(NlsQuenchError):
        StepperConfig(dt=-1.0)
    with pytest.raises(NlsQuenchError):
        StepperConfig(n_modes=1000)  # not a power of two
    with pytest.raises(NlsQuenchError):
        StepperConfig(n_modes=128)


def test_zero_field_stays_zero(cfg_fast):
    p = make_profile(np.zeros(64, complex), 10.0, Schwartz())
    out = evolve(p, Coupling(1j), 0.5, cfg_fast)
    assert np.max(np.abs(out.values)) == 0.0


def test_free_gaussian_matches_exact(cfg_fast):
    # c = 0: i q_t + q_xx = 0 has the closed Gaussian solution
    x = grid(30.0, 0.02)
    p = make_profile(np.exp(-x ** 2), 30.0, Schwartz(), boundary_tol=1e-7)
    t = 0.4
    out = evolve(p, Coupling(0.0), t, cfg_fast)
    s = 1 + 4j * t
    exact = np.exp(-out.x ** 2 / s) / np.sqrt(s)
    # the spectral propagator is exact at c = 0; the residual is the cubic
    # resampling of the initial data onto the stepper grid
    assert np.max(np.abs(out.values - exact)) < 1e-7


def test_soliton_modulus_static(sech40, focusing):
    cfg = StepperConfig(dt=1e-3, n_modes=2048)
    out = evolve(sech40, focusing, 1.0, cfg)
    assert np.max(np.abs(np.abs(out.values) - 1 / np.cosh(out.x))) < 1e-6


def test_soliton_phase_rotation(sech40, focusing):
    # the unit soliton rotates as e^{i A^2 t}; measure at the crest
    cfg = StepperConfig(dt=1e-4, n_modes=2048)
    t = 0.3
    out = evolve(sech40, focusing, t, cfg)
    i0 = int(np.argmin(np.abs(out.x)))
    assert abs(out.values[i0] - np.exp(1j * t)) < 1e-5


def test_conservation_laws(sech40, focusing):
    cfg = StepperConfig(dt=1e-3, n_modes=2048)
    p0 = evolve(sech40, focusing, 0.0, cfg)
    p1 = evolve(sech40, focusing, 1.0, cfg)
    assert abs(mass(p1) - mass(p0)) < 1e-8
    assert abs(hamiltonian(p1, focusing) - hamiltonian(p0, focusing)) < 1e-6


def test_second_order_time_convergence(sech40):
    # a genuine quench so the field actually moves; halving dt should cut
    # the error about fourfold
    c = Coupling(1.4j)
    t = 0.1
    ref = evolve(sech40, c, t, StepperConfig(dt=2.5e-5, n_modes=1024))
    errs = []
    for dt in (4e-4, 2e-4):
        out = evolve(sech40, c, t, StepperConfig(dt=dt, n_modes=1024))
        errs.append(np.max(np.abs(out.values - ref.values)))
    assert 3.0 < errs[0] / errs[1] < 5.5


def test_fractional_final_step(sech40, focusing, cfg_fast):
    # t is not a multiple of dt; the remainder step must land exactly
    out1 = evolve(sech40, focusing, 0.0015, StepperConfig(dt=1e-3, n_modes=1024))
    out2 = evolve(sech40, focusing, 0.0015, StepperConfig(dt=5e-4, n_modes=1024))
    assert np.max(np.abs(out1.values - out2.values)) < 1e-8


def test_single_step_matches_evolve(sech40, focusing, cfg_fast):
    s1 = ref.step(sech40, focusing, cfg_fast)
    s2 = evolve(sech40, focusing, cfg_fast.dt, cfg_fast)
    assert np.max(np.abs(s1.values - s2.values)) < 1e-14


def test_blow_up_guard(sech40, focusing, monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_AMP", 0.5)
    cfg = StepperConfig(dt=1e-3, n_modes=1024)
    with pytest.raises(BlowUp):
        evolve(sech40, focusing, 0.1, cfg)


def test_blow_up_checked_at_the_nonlinear_phase(sech40, monkeypatch):
    # a quench to c = 2i compresses the soliton, so max |q| grows from step
    # to step.  _MAX_AMP sits between max |q| at the nonlinear phase of step
    # 5 and at the end of step 5: a check after every step (the reference
    # loop) trips at step 5, the check at the nonlinear phase at step 6
    c, dt = Coupling(2j), 2.0 ** -8
    cfg = StepperConfig(dt=dt, n_modes=1024)
    box, c2 = 2.0 * sech40.L, (c.value ** 2).real
    q4 = ref.split_steps(_resampled_profile(sech40, cfg).values, box, c2, 0.0, dt, 4)
    # at c = 0 a step is linear only: half a step of dt is the first
    # linear half-step of step 5
    at_phase = np.max(np.abs(ref.split_steps(q4, box, 0.0, 0.0, dt / 2.0, 1)))
    at_end = np.max(np.abs(ref.split_steps(q4, box, c2, 0.0, dt, 1)))
    assert at_phase < at_end
    monkeypatch.setattr(oracle, "_MAX_AMP", 0.5 * (at_phase + at_end))
    with pytest.raises(BlowUp):
        ref.evolve(sech40, c, 5 * dt, cfg)
    evolve(sech40, c, 5 * dt, cfg)
    with pytest.raises(BlowUp):
        evolve(sech40, c, 6 * dt, cfg)


# the two-FFT loop against the four-FFT reference loop.  Measured: 1e-16 at
# 0 and 1 full steps; after 2048 steps 2.2e-12 (focusing, which amplifies
# rounding), 1.5e-13 (defocusing), 2.7e-13 (finite density)
_FD_X = grid(20.0, 0.05)


@pytest.mark.parametrize("n_dt, tol", [(0.4, 1e-14), (1.0, 1e-14), (2048.0, 1e-11)],
                         ids=["fraction", "one-step", "2048-steps"])
@pytest.mark.parametrize("case", ["focusing", "defocusing", "finite-density"])
def test_evolve_matches_reference_loop(sech40, case, n_dt, tol):
    if case == "finite-density":
        p = make_profile(1.0 + 0.3 * (1.0 + 0.5j) * np.exp(-_FD_X ** 2), 20.0,
                         FiniteDensity(rho=1.0, theta=0.0), boundary_tol=1e-6)
        c = Coupling(1.0)
    else:
        p, c = sech40, Coupling(1.4j if case == "focusing" else 0.8)
    cfg = StepperConfig(dt=2.0 ** -10, n_modes=1024)
    t = n_dt * cfg.dt
    want = ref.evolve(p, c, t, cfg)
    assert np.max(np.abs(evolve(p, c, t, cfg).values - want)) < tol


def test_boundary_monitor(sech40):
    assert boundary_energy(sech40) < 1e-10


def test_fft_upsample_exact_for_smooth_fields():
    n = 512
    L = 20.0
    x = -L + (2 * L / n) * np.arange(n)
    p = make_profile(np.zeros(3, complex), 1.0, Schwartz()) if False else None
    from nlsquench.core import FieldProfile

    prof = FieldProfile(L=L, h=2 * L / n, values=(1 / np.cosh(x)).astype(complex),
                        asymptotics=Schwartz(), boundary_tol=1e-6)
    up = fft_upsample(prof, 4)
    # exact up to the periodisation kink of the tails (~|q(L)|)
    assert np.max(np.abs(up.values - 1 / np.cosh(up.x))) < 1e-9
    assert len(up.values) == 4 * n


def test_isospectral_refuses_finite_density():
    p = make_profile(1.0 + 0.3 * np.exp(-_FD_X ** 2), 20.0,
                     FiniteDensity(rho=1.0, theta=0.0), boundary_tol=1e-6)
    with pytest.raises(UnsupportedAsymptotics):
        isospectral_check(p, Coupling(1.0), 0.1, KGrid(np.linspace(-2.0, 2.0, 5)))


def test_isospectral_zero_time(sech40, focusing):
    kg = make_kgrid(focusing, Schwartz(), 3.0, 31)
    rep = isospectral_check(sech40, focusing, 0.0, kg,
                            StepperConfig(dt=1e-3, n_modes=1024))
    assert rep.amp_drift == 0.0
    assert rep.phase_drift == 0.0


def test_isospectral_pure_soliton(sech40, focusing):
    # reflectionless data: only the |a| drift is informative, no b samples
    # clear the floor
    kg = make_kgrid(focusing, Schwartz(), 3.0, 31)
    rep = isospectral_check(sech40, focusing, 0.2, kg,
                            StepperConfig(dt=1e-3, n_modes=2048))
    assert rep.amp_drift < 1e-5
    assert rep.n_phase_points == 0


def test_isospectral_quench_drift(sech40):
    # short version of the full drift check at a quenched coupling
    c = Coupling(1.5j)
    kg = make_kgrid(c, Schwartz(), 4.0, 41)
    rep = isospectral_check(sech40, c, 0.1, kg,
                            StepperConfig(dt=1e-3, n_modes=2048))
    assert rep.amp_drift < 1e-4
    assert rep.n_phase_points > 0
    assert rep.phase_drift < 1e-3
