from fractions import Fraction as F

import numpy as np
import pytest

from hermite_chihara import PolynomialSystem, seq_classical, seq_family, seq_hermite

# the fixed pointwise grid: 50 deterministic points in [-5, 5] \ {0}
POINT_GRID = tuple(0.1 + 4.9 * k / 24 for k in range(25))
POINT_GRID = tuple(-x for x in POINT_GRID) + POINT_GRID


def plain(f):
    """A plain integrand y(x), of shape (nodes,) or (nodes, d), in the
    quadrature engine's bilinear pair form: (y as a column block, a column of
    ones), whose integral is the d x 1 block of the integrals of y."""

    def pair(x):
        return np.reshape(f(x), (x.size, -1)), np.ones((x.size, 1))

    return pair


@pytest.fixture(scope="session")
def hermite_sys():
    return PolynomialSystem(seq_hermite(30))


@pytest.fixture(scope="session")
def classical1_sys():
    return PolynomialSystem(seq_classical(1, 30))


@pytest.fixture(scope="session")
def family15_sys():
    return PolynomialSystem(seq_family(1, 5, F(1), 30))


@pytest.fixture(scope="session")
def reference_systems(hermite_sys, classical1_sys, family15_sys):
    return {
        "hermite": hermite_sys,
        "classical_gamma1": classical1_sys,
        "family_1_5": family15_sys,
    }
