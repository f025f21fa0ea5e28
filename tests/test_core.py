import numpy as np
import pytest

from nlsquench.core import (
    BoundaryMismatch,
    Coupling,
    DiscreteEigenvalue,
    EmptyGrid,
    FiniteDensity,
    InvalidCoupling,
    KGrid,
    NlsQuenchError,
    ScatteringData,
    Schwartz,
    classify_regime,
    make_kgrid,
    make_profile,
    trapezoid_weights,
)


def test_regime_tags():
    assert classify_regime(Coupling(1j)) == "focusing"
    assert classify_regime(Coupling(0.0)) == "free"
    assert classify_regime(Coupling(2.5)) == "defocusing"


def test_regime_rejects_off_ray():
    for bad in (1 + 1j, -1.0, -0.3j, 2 - 0.01j):
        with pytest.raises(InvalidCoupling):
            Coupling(bad)


def test_regime_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(100):
        r = float(rng.uniform(0.01, 10.0))
        assert Coupling(r).regime == "defocusing"
        assert Coupling(1j * r).regime == "focusing"
        ang = float(rng.uniform(0.05, np.pi / 2 - 0.05))
        with pytest.raises(InvalidCoupling):
            Coupling(r * np.exp(1j * ang))


def test_zero_profile_valid():
    p = make_profile(np.zeros(64, dtype=complex), 10.0, Schwartz())
    assert p.n == 64
    assert p.validate() is p


def test_sech_profile_boundary():
    # sech(40) ~ 8.5e-18, far below the declared tolerance
    x = np.linspace(-40, 40, 4001)
    assert 1.0 / np.cosh(40.0) < 1e-17
    p = make_profile(1 / np.cosh(x), 40.0, Schwartz(), boundary_tol=1e-10)
    p.validate()


def test_sech_with_background_mismatch():
    x = np.linspace(-20, 20, 801)
    with pytest.raises(BoundaryMismatch):
        make_profile(1 / np.cosh(x), 20.0, FiniteDensity(rho=1.0, theta=0.0))


def test_short_profile_rejected():
    with pytest.raises(NlsQuenchError):
        make_profile(np.zeros(8, dtype=complex), 5.0, Schwartz())


def test_explicit_grid_must_be_uniform():
    from nlsquench.core import NonUniformGrid

    x = np.linspace(-10, 10, 32)
    vals = np.zeros(32, dtype=complex)
    make_profile(vals, 10.0, Schwartz(), x=x)
    x_bad = x.copy()
    x_bad[5] += 1e-3
    with pytest.raises(NonUniformGrid):
        make_profile(vals, 10.0, Schwartz(), x=x_bad)


def test_profile_values_frozen(sech40):
    with pytest.raises(ValueError):
        sech40.values[0] = 1.0


def test_kgrid_uniform():
    kg = make_kgrid(Coupling(1j), Schwartz(), 5.0, 201)
    assert kg.n == 201
    assert kg.samples[0] == -5.0 and kg.samples[-1] == 5.0
    assert np.allclose(np.diff(kg.samples), 0.05)


def test_kgrid_gap_excluded():
    kg = make_kgrid(Coupling(1.0), FiniteDensity(rho=1.0, theta=1.0), 5.0, 100)
    assert kg.gap == (-1.0, 1.0)
    assert not ((kg.samples > -1.0) & (kg.samples < 1.0)).any()
    assert kg.n == 100


def test_kgrid_gap_odd_n_reaches_both_ends():
    # the right segment takes the odd sample; each segment is evenly spaced
    # on its own, open at its branch point and closed at +-k_max
    kg = make_kgrid(Coupling(1.0), FiniteDensity(rho=1.0, theta=1.0), 5.0, 9)
    s = kg.samples
    assert kg.n == 9 and s[0] == -5.0 and s[-1] == 5.0
    left, right = s[s < 0], s[s > 0]
    assert len(left) == 4 and len(right) == 5
    assert np.allclose(np.diff(left), 1.0) and np.allclose(np.diff(right), 0.8)
    assert np.isclose(left[-1], -2.0) and np.isclose(right[0], 1.8)


def test_kgrid_gap_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = float(rng.uniform(0.3, 3.0))
        rho = float(rng.uniform(0.3, 2.0))
        kmax = c * rho + float(rng.uniform(0.5, 4.0))
        n = int(rng.integers(4, 60))
        kg = make_kgrid(Coupling(c), FiniteDensity(rho=rho, theta=1.0), kmax, n)
        g = c * rho
        assert not ((kg.samples > -g) & (kg.samples < g)).any()
        assert np.all(np.abs(kg.samples) <= kmax + 1e-12)


def test_kgrid_empty_when_gap_covers():
    with pytest.raises(EmptyGrid):
        make_kgrid(Coupling(2.0), FiniteDensity(rho=1.0, theta=1.0), 1.0, 10)


def test_kgrid_focusing_fd_has_no_gap():
    kg = make_kgrid(Coupling(1j), FiniteDensity(rho=1.0, theta=0.0), 5.0, 51)
    assert kg.gap is None
    assert kg.n == 51


def test_trapezoid_weights_plain():
    k = np.linspace(0, 1, 11)
    w = trapezoid_weights(k)
    assert np.isclose(np.sum(w), 1.0)
    assert np.isclose(w[0], 0.05) and np.isclose(w[5], 0.1)


def test_trapezoid_weights_gapped():
    k = np.concatenate([np.linspace(-3, -1, 21), np.linspace(1, 3, 21)])
    w = trapezoid_weights(k)
    # integrates each segment separately: total length 4, not 6
    assert np.isclose(np.sum(w), 4.0)
    # exactness on a line, per segment
    assert np.isclose(np.sum(w * k), 0.0, atol=1e-12)


def test_discrete_eigenvalue_validation():
    DiscreteEigenvalue(position=0.3 + 0.2j)
    with pytest.raises(NlsQuenchError):
        DiscreteEigenvalue(position=0.3 - 0.2j)
    with pytest.raises(NlsQuenchError):
        DiscreteEigenvalue(position=1j, order=0)


def _toy_data():
    k = np.linspace(-2, 2, 41)
    a = np.sqrt(1 + k ** 2 * 0) * np.exp(0.1j * k)
    b = np.zeros_like(a)
    return ScatteringData(kgrid=KGrid(k), a=a, b=b, coupling=Coupling(1j))


def test_scattering_data_det():
    sd = _toy_data()
    assert sd.det_defect() < 1e-14
    sd.validate(det_tol=1e-12, edge_tol=None)


def test_scattering_data_det_violation():
    k = np.linspace(-2, 2, 11)
    sd = ScatteringData(kgrid=KGrid(k), a=1.1 * np.ones(11, complex),
                        b=np.zeros(11, complex), coupling=Coupling(1j))
    with pytest.raises(NlsQuenchError):
        sd.validate(det_tol=1e-8, edge_tol=None)


def test_serialization_roundtrip_profile(sech25):
    d = sech25.to_json_dict()
    back = type(sech25).from_json_dict(d)
    assert back.L == sech25.L and back.h == sech25.h
    assert np.array_equal(back.values, sech25.values)
    assert isinstance(back.asymptotics, Schwartz)


def test_serialization_schema_keys(sech25):
    d = sech25.to_json_dict()
    assert set(d) == {"L", "h", "asymptotics", "re", "im"}
    assert d["asymptotics"] == {"kind": "schwartz"}
    sd = _toy_data()
    keys = set(sd.to_json_dict())
    assert {"k", "a_re", "a_im", "b_re", "b_im", "zeros"} <= keys


def test_serialization_roundtrip_data():
    sd = _toy_data()
    sd2 = ScatteringData.from_json_dict(sd.to_json_dict())
    assert np.array_equal(sd2.kgrid.samples, sd.kgrid.samples)
    assert np.array_equal(sd2.a, sd.a)
    assert np.array_equal(sd2.b, sd.b)
    assert sd2.coupling.value == sd.coupling.value


def test_finite_density_serialization():
    from nlsquench.core import FieldProfile

    x = np.linspace(-10, 10, 101)
    vals = np.full(101, 1.0 + 0j)
    p = FieldProfile(L=10.0, h=0.2, values=vals,
                     asymptotics=FiniteDensity(rho=1.0, theta=0.0))
    back = FieldProfile.from_json_dict(p.to_json_dict())
    assert isinstance(back.asymptotics, FiniteDensity)
    assert back.asymptotics.rho == 1.0


def test_non_finite_samples_rejected():
    # a NaN or inf sample away from the grid ends used to pass validation
    for bad in (np.nan, np.inf):
        vals = np.zeros(64, dtype=complex)
        vals[32] = bad
        with pytest.raises(NlsQuenchError):
            make_profile(vals, 10.0, Schwartz())
        with pytest.raises(NlsQuenchError):
            KGrid(np.array([-1.0, 0.0, 1.0, bad]))
        # in scattering data they used to reach the GLM solve, which ran
        # GMRES to its iteration cap on NaN
        for entry in ("a", "b"):
            ab = {"a": np.ones(3, complex), "b": np.zeros(3, complex)}
            ab[entry][1] = bad
            with pytest.raises(NlsQuenchError, match="finite"):
                ScatteringData(kgrid=KGrid(np.array([-1.0, 0.0, 1.0])),
                               coupling=Coupling(0.5), **ab)
