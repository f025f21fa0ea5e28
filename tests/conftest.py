import numpy as np
import pytest

from nlsquench.core import Coupling, Schwartz, make_profile
from nlsquench.closedforms import SolitonParamsRD, soliton_profile_rd
from nlsquench.zsdirect import IntegratorConfig


# np.trapezoid is numpy >= 2.0; on the numpy 1.x floor the rule is np.trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def grid(L, h):
    n = int(round(2 * L / h)) + 1
    return np.linspace(-L, L, n)


@pytest.fixture(scope="session")
def sech40():
    """Unit bright soliton on the wide reference grid."""
    x = grid(40.0, 0.02)
    return soliton_profile_rd(SolitonParamsRD(A=1.0), x, boundary_tol=1e-10)


@pytest.fixture(scope="session")
def sech25():
    """Smaller copy for cheap module tests."""
    x = grid(25.0, 0.02)
    return soliton_profile_rd(SolitonParamsRD(A=1.0), x, boundary_tol=1e-9)


@pytest.fixture(scope="session")
def gauss40():
    x = grid(40.0, 0.02)
    return make_profile(0.2 * np.exp(-x ** 2), 40.0, Schwartz(), boundary_tol=1e-10)


@pytest.fixture(scope="session")
def fine_cfg():
    return IntegratorConfig(step=0.01)


@pytest.fixture(scope="session")
def focusing():
    return Coupling(1j)
