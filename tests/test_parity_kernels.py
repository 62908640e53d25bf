"""The exact kernels against their full-slot routes.

P_n has the parity of n, so the lowering, reduced, square-lowering and ODE
kernels compute and compare only the slots of that parity, with the cores'
denominators divided by their gcd, and read the other slots only where a core
is nonzero there.  The route scan compares each neighbouring pair of a core's
coefficients with the explicit formula's ratio, from integer tables.  The
routes in tests/fraction_reference.py read every slot over the full
denominators, and the route scan's builds each coefficient as a Fraction.  On
every kind of corrupted core -- a defect in a slot of either parity, the wrong
degree, or the whole core scaled -- both must give the same first failing n,
the same bracket and the same figure.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from conftest import POINT_GRID, corrupt_core, propagated_compatible_sequence
from hermite_chihara import (
    PolynomialSystem,
    seq_classical,
    seq_family,
    seq_hermite,
    seq_order2,
    seq_order3,
)
from hermite_chihara.oscillator import MARGIN, build_operators, square_lowering_report
from hermite_chihara.systems import UnsupportedSystemError, _over_sqrt

KINDS = ("even", "odd", "degree", "scaled")


def first_ode_failure(sys, n_hi):
    g, a = sys.weight_parameters()
    return next((n for n in range(n_hi + 1)
                 if not ref.ode_bracket_slots(sys.monic[n], n, g, a).is_zero()), None)


def assert_kernels_agree(sys):
    """Each scan against its full-slot route over the whole system; on a family
    system also every bracket, the ODE scan and square lowering at dim n_max."""
    N = sys.n_max
    assert sys.first_route_mismatch(N) == ref.route_scan(sys, N)
    assert sys.first_lowering_failure(N) == ref.lowering_scan(sys, N)
    assert sys.first_reduced_failure(N) == ref.reduced_scan(sys, N)
    ops = build_operators(sys, N)
    if N < MARGIN + 3:  # no column 2 <= n < N - MARGIN to read
        with pytest.raises(ValueError, match=f"dim must be >= {MARGIN + 3}"):
            square_lowering_report(ops, sys)
    elif not sys.is_family:
        with pytest.raises(UnsupportedSystemError):
            square_lowering_report(ops, sys)
    else:
        figure = square_lowering_report(ops, sys)
        assert figure.hex() == ref.square_lowering_figure(sys, N - MARGIN).hex()
    if not sys.is_family:
        with pytest.raises(UnsupportedSystemError):
            sys.ode_bracket(N)
        return
    g, a = sys.weight_parameters()
    for n in range(N + 1):
        assert sys.ode_bracket(n) == ref.ode_bracket_slots(sys.monic[n], n, g, a)
    assert sys.first_ode_failure(N) == first_ode_failure(sys, N)


class TestCorruptedCores:
    """A defect at n, on family (2/3, 5/3, 3/7) built to 40: the square-lowering
    columns stop below 36, so n = 37 is seen by the other three kernels only."""

    N = 40

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 17, 26, 37])
    @pytest.mark.parametrize("j", [0, 1, 5])
    def test_every_kernel_matches_its_full_slot_route(self, kind, n, j):
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), self.N))
        sys.monic[n] = corrupt_core(sys.monic[n], n, kind, j)
        assert_kernels_agree(sys)
        # the corrupted bracket is the composed one, every slot of it
        g, a = sys.weight_parameters()
        want = ref.ode_bracket_composed(ref.FractionPoly(sys.monic[n].coeffs), n, g, a)
        assert sys.ode_bracket(n).coeffs == want.coeffs

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_scan_sees_the_defect(self, kind):
        # an interior defect at n = 17 fails every scan at 17, except that the
        # ODE is linear, so it holds for a scaled core
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), self.N))
        sys.monic[17] = corrupt_core(sys.monic[17], 17, kind, 3)
        assert sys.first_route_mismatch(self.N) == 17
        assert sys.first_lowering_failure(self.N) == 17
        assert sys.first_reduced_failure(self.N) == 17
        assert sys.first_ode_failure(self.N) == (None if kind == "scaled" else 17)
        assert square_lowering_report(build_operators(sys, self.N), sys) > 0.0

    def test_an_odd_defect_in_the_constant_slot(self):
        # the lowering rule skips P_n's constant term (D kills it): P_17's
        # odd-slot constant is first read against P_18's x term, at n = 18
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), self.N))
        sys.monic[17] = corrupt_core(sys.monic[17], 17, "odd", 8)
        assert sys.monic[17].nums[0] != 0
        assert sys.first_lowering_failure(self.N) == ref.lowering_scan(sys, self.N) == 18
        assert sys.first_ode_failure(self.N) == 17

    @pytest.mark.parametrize("seq", [
        seq_hermite(40), seq_classical(F(1, 3), 40), seq_order2(3, 40),
        seq_order3(F(7, 3), F(17, 3), 40, F(8, 3)), propagated_compatible_sequence(2, 3, 5, 40),
    ], ids=["hermite", "classical", "order2", "order3", "compatible"])
    @pytest.mark.parametrize("kind", [None, *KINDS])
    def test_other_systems(self, seq, kind):
        sys = PolynomialSystem(seq)
        if kind is not None:
            sys.monic[9] = corrupt_core(sys.monic[9], 9, kind, 2)
        assert_kernels_agree(sys)


# (constructor, its arguments): a draw the constructor refuses is skipped
_systems = st.one_of(
    st.tuples(st.just(lambda r, v2, b0, N: seq_family(r * v2, v2, b0, N)),  # 0 < v1 <= v2
              st.fractions(F(1, 5), F(1), max_denominator=5),
              st.fractions(F(5, 4), F(5), max_denominator=4),
              st.fractions(F(1, 5), F(4), max_denominator=7), st.integers(5, 40)),
    st.tuples(st.just(seq_order2), st.fractions(F(1), F(5), max_denominator=4),
              st.integers(5, 40)),
    st.tuples(st.just(lambda v1, d, b0, N: seq_order3(v1, v1 + d, N, b0)),
              st.fractions(F(1), F(4), max_denominator=3),
              st.fractions(F(0), F(4), max_denominator=3),
              st.fractions(F(1, 5), F(4), max_denominator=7), st.integers(5, 40)),
    st.tuples(st.just(lambda v1, d2, d3, N: propagated_compatible_sequence(v1, v1 + d2, v1 + d3, N)),
              st.fractions(F(1), F(4), max_denominator=3),
              st.fractions(F(1, 3), F(3), max_denominator=3),
              st.fractions(F(1, 3), F(3), max_denominator=3), st.integers(5, 40)),
)


@settings(max_examples=60, deadline=None)
@given(draw=_systems, kind=st.sampled_from([None, *KINDS]), at=st.integers(0, 40),
       j=st.integers(0, 20))
def test_random_systems_agree_with_the_full_slot_routes(draw, kind, at, j):
    make, *args = draw
    try:
        sys = PolynomialSystem(make(*args))
    except ValueError:
        assume(False)  # not an admissible sequence
    n = at % (sys.n_max + 1)
    if kind is not None:
        sys.monic[n] = corrupt_core(sys.monic[n], n, kind, j)
    assert_kernels_agree(sys)


@pytest.mark.parametrize("seq", [
    seq_hermite(100), seq_classical(1, 100), seq_family(F(2, 3), F(5, 3), F(3, 7), 100),
], ids=["hermite", "classical_1", "family"])
def test_ode_residual_bit_identical(seq):
    # the residual against the Fraction route (three Horner passes over P, P'
    # and P'', then the one rounding of the normalization), at the weight's
    # (gamma, alpha), a shifted gamma, a shifted alpha and a float alpha
    sys = PolynomialSystem(seq)
    cores = ref.monic_cores(sys.b2, 100)
    g, a = sys.weight_parameters()
    for n in (0, 1, 2, 3, 17, 64, 100):
        for x in POINT_GRID:
            for kw, (gw, aw) in (({}, (g, a)), ({"gamma": g + F(1, 3)}, (g + F(1, 3), a)),
                                 ({"alpha": a * F(21, 20)}, (g, a * F(21, 20))),
                                 ({"alpha": float(a) * 1.05}, (g, float(a) * 1.05))):
                want = _over_sqrt(ref.ode_bracket(cores[n], n, x, gw, aw), sys.norm2[n])
                assert sys.ode_residual(n, x, **kw).hex() == want.hex()


def test_ode_residual_of_a_family_system_is_zero_at_n200():
    sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), 200))
    assert {sys.ode_residual(200, x).hex() for x in POINT_GRID} == {(0.0).hex()}
