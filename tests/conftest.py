import contextlib
import math
from fractions import Fraction as F

import numpy as np
import pytest

from hermite_chihara import (
    GoverningSequence,
    PolynomialSystem,
    seq_classical,
    seq_family,
    seq_hermite,
)
from hermite_chihara.derivation import Poly

from fraction_reference import b2_of

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


def chihara_weight(spec, x):
    """The weight C |x|^gamma exp(-alpha x^2), C = 1/Gamma((gamma+1)/2), in closed form on
    its scale 1/sqrt(alpha): the tests' float reference for the weight the Gram integrates."""
    g, a = float(spec.gamma), float(spec.alpha)
    r = math.sqrt(a)
    return r * np.abs(r * x) ** g * np.exp(-a * x * x) / math.gamma((g + 1) / 2)


@contextlib.contextmanager
def psi_tables(sys):
    """The node arrays of every psi_eval_table call made on sys inside the block, in
    order: the one spy on the table, which passes every other argument through."""
    calls, table = [], sys.psi_eval_table
    sys.psi_eval_table = lambda x, *rest: calls.append(np.asarray(x)) or table(x, *rest)
    try:
        yield calls
    finally:
        del sys.psi_eval_table


def corrupt_core(core, n, kind, j=0):
    """The core P_n with one defect the route check must see: the whole core or
    an even-slot numerator scaled by 1 + 1e-9, a nonzero odd slot, or the
    wrong degree."""
    nums, den = list(core.nums), core.den
    if kind == "scaled":
        nums = [a * (10**9 + 1) for a in nums]
        den *= 10**9
    elif kind == "even":
        k = n - 2 * (j % (n // 2 + 1))
        nums = [a * 10**9 + (a if i == k else 0) for i, a in enumerate(nums)]
        den *= 10**9
    elif kind == "odd":
        if n == 0:
            nums.append(1)  # x^1 sits in the odd slot of P_0 (and raises its degree)
        else:
            nums[n - 1 - 2 * (j % ((n + 1) // 2))] += 1
    else:  # degree: x^{n+2} added; every slot of degree <= n is untouched
        nums += [0, den]
    return Poly.from_numerators(nums, den)


def fraction_lists_of_b2(sys) -> list[str]:
    """The names of a system's attributes that hold its b^2 (b2_row) as a list
    of Fractions: none, wherever the package reads b^2 from the integer row."""
    b2 = b2_of(sys)
    return [name for name, value in vars(sys).items() if isinstance(value, list)
            and all(type(x) is F for x in value) and value[: len(b2)] == b2]


def propagated_compatible_sequence(v1, v2, v3, N):
    """Non-family sequence satisfying the compatibility identity, generated by
    propagating the (n, p=2) relation from a free (v1, v2, v3) seed."""
    v = [F(1), F(v1), F(v2), F(v3)]
    while len(v) <= N:
        n = len(v)
        v.append((v[n - 2] * v[3] + v[1] * v[n - 4] - v[3] * v[n - 4]) / v[1])
    return GoverningSequence(tuple(v), F(1, 2))


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
