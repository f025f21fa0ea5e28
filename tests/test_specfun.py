import numpy as np
import pytest

from nlsquench.specfun import PoleAtNonPositiveInteger, gamma_complex
from hypergeometric import NonConvergent, ParameterPole, SpecFunConfig, hyp2f1


def test_gamma_half():
    assert abs(gamma_complex(0.5) - np.sqrt(np.pi)) < 1e-14


def test_gamma_factorial():
    assert abs(gamma_complex(5.0) - 24.0) < 1e-12
    for n in range(1, 12):
        assert abs(gamma_complex(n + 1) / gamma_complex(n) - n) < 1e-12 * n


def test_gamma_reflection_identity():
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y)
    for y in (0.7, -1.3, 3.1, 7.5):
        g = gamma_complex(0.5 + 1j * y)
        target = np.pi / np.cosh(np.pi * y)
        assert abs(abs(g) ** 2 - target) < 1e-12 * target


def test_gamma_functional_equation_sweep():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z) > 20 or abs(z.imag) < 1e-3 and z.real <= 0.5:
            continue
        g1 = gamma_complex(z + 1)
        g0 = gamma_complex(z)
        assert abs(g1 - z * g0) <= 1e-12 * abs(g1) + 1e-300


def test_gamma_poles():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleAtNonPositiveInteger):
            gamma_complex(z)


def test_2f1_at_zero():
    assert hyp2f1(0.3 + 1j, -2.2, 0.7j + 1.1, 0.0) == 1.0


def test_2f1_polynomial():
    # a = -1 truncates: 1 - (b/c) z, everywhere in z
    for z in (0.3, -0.9, 0.2 + 0.6j, 1.0):
        b, c = 1.7 - 0.3j, 0.4 + 0.2j
        val = hyp2f1(-1.0, b, c, z)
        assert abs(val - (1.0 - b / c * z)) < 1e-13


def _raw_series(a, b, c, z, n_terms):
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for n in range(n_terms):
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
    return total


def test_2f1_summation_at_one_vs_series():
    # independent oracle: partial sums of the raw series, which converges
    # at z = 1 when Re(c - a - b) > 0
    a, b, c = 0.3 + 0.4j, -0.2 - 0.1j, 2.9 + 0.3j  # Re(c-a-b) = 2.8
    val = hyp2f1(a, b, c, 1.0)
    oracle = _raw_series(a, b, c, 1.0, 4000)
    assert abs(val - oracle) < 1e-10


def test_2f1_connection_matches_series_inside_disc():
    # |z| just above 1/2 exercises the 1-z connection; the raw series is
    # still convergent there and serves as the oracle
    a, b, c = 0.7 - 0.2j, 0.4 + 0.9j, 1.3 + 0.1j
    for z in (0.62, 0.55 + 0.3j, -0.7 + 0.25j):
        val = hyp2f1(a, b, c, z)
        oracle = _raw_series(a, b, c, z, 3000)
        assert abs(val - oracle) < 1e-11 * max(1.0, abs(oracle))


def _derivs_5pt(f, z0, h):
    # five-point central differences with one Richardson pass
    def d1(hh):
        return (-f(z0 + 2 * hh) + 8 * f(z0 + hh) - 8 * f(z0 - hh) + f(z0 - 2 * hh)) / (12 * hh)

    def d2(hh):
        return (-f(z0 + 2 * hh) + 16 * f(z0 + hh) - 30 * f(z0) + 16 * f(z0 - hh)
                - f(z0 - 2 * hh)) / (12 * hh ** 2)

    f1 = (16 * d1(h / 2) - d1(h)) / 15.0
    f2 = (16 * d2(h / 2) - d2(h)) / 15.0
    return f1, f2


def test_2f1_ode_residual():
    # z(1-z) F'' + [c - (a+b+1) z] F' - ab F = 0
    a, b, c = 0.5 + 0.3j, -0.4 + 0.1j, 1.2 - 0.2j

    def f(z):
        return hyp2f1(a, b, c, z)

    for z0 in (0.15, 0.3, -0.25, 0.1 + 0.2j):
        f0 = f(z0)
        f1, f2 = _derivs_5pt(f, z0, 0.02)
        resid = z0 * (1 - z0) * f2 + (c - (a + b + 1) * z0) * f1 - a * b * f0
        scale = max(abs(a * b * f0), abs(f1), 1.0)
        assert abs(resid) < 1e-8 * scale


def test_2f1_parameter_pole():
    with pytest.raises(ParameterPole):
        hyp2f1(0.3, 0.4, -2.0, 0.2)


def test_2f1_outside_domain():
    with pytest.raises(NonConvergent):
        hyp2f1(0.3, 0.4, 1.5, 1.7)
    with pytest.raises(NonConvergent):
        hyp2f1(0.3, 0.4, 0.5, 1.0)  # Re(c-a-b) < 0 at z = 1


def test_config_validation():
    with pytest.raises(Exception):
        SpecFunConfig(series_tol=-1.0)
    with pytest.raises(Exception):
        SpecFunConfig(max_terms=0)
