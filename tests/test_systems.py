import inspect
import math
import warnings
from fractions import Fraction as F
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermite_chihara import (
    DerivationOperator,
    FloatRangeError,
    GoverningSequence,
    PolynomialSystem,
    UnsupportedSystemError,
    alpha_closed,
    alpha_nested,
    bracket_table,
    epsilons_from_sequence,
    seq_classical,
    seq_family,
    seq_hermite,
    seq_order2,
    seq_order3,
    validate,
)
from hermite_chihara import systems as systems_mod
from hermite_chihara.derivation import Poly
from hermite_chihara.governing import common_denominator, is_special_family
from hermite_chihara.systems import _over_sqrt

import fraction_reference as ref
from conftest import POINT_GRID, corrupt_core, propagated_compatible_sequence


def alpha_brute(brackets, m, n):
    """Independent oracle: explicit enumeration of the index tuples
    k_1 > k_2 + 1 > ... with k_j >= 2(m-j)+1, k_1 <= n-1."""
    def rec(level, upper):
        if level == 0:
            yield ()
            return
        lo = 2 * level - 1
        for k in range(lo, upper + 1):
            for rest in rec(level - 1, k - 2):
                yield (k,) + rest

    total = F(0)
    for tup in rec(m, n - 1):
        prod = F(1)
        for k in tup:
            prod *= brackets[k]
        total += prod
    return total


class TestAlpha:
    def test_hermite_m1_n4(self):
        br = bracket_table(seq_hermite(8))
        assert alpha_brute(br, 1, 4) == 6  # 1 + 2 + 3
        assert alpha_nested(br, 1, 4) == 6

    def test_hermite_m2_n4(self):
        br = bracket_table(seq_hermite(8))
        assert alpha_nested(br, 2, 4) == alpha_brute(br, 2, 4) == 3

    def test_hermite_closed_form(self):
        # n!/(2^m m! (n-2m)!)
        seq = seq_hermite(14)
        br = bracket_table(seq)
        for n in range(1, 15):
            for m in range(1, n // 2 + 1):
                expect = F(factorial(n), 2**m * factorial(m) * factorial(n - 2 * m))
                assert alpha_closed(seq.values, br, m, n) == expect

    def test_m0_conventions(self):
        br = bracket_table(seq_hermite(8))
        seq = seq_hermite(8)
        # the defining display pins the m = 0 nested value to 0 ...
        assert alpha_nested(br, 0, 5) == 0
        # ... while the coefficient table needs 1 there (monic leading term)
        assert all(alpha_closed(seq.values, br, 0, n) == 1 for n in range(9))

    def test_classical_gamma1_m1_n2(self):
        seq = seq_classical(1, 8)
        br = bracket_table(seq)
        assert alpha_closed(seq.values, br, 1, 2) == 1
        assert alpha_nested(br, 1, 2) == 1

    def test_full_depth_telescopes_to_double_factorial(self):
        # 2m = n: the generalized factorials cancel, leaving [n-1]!!
        for seq in (seq_classical(F(5, 2), 12), seq_family(1, 5, F(1), 12)):
            br = bracket_table(seq)
            for m in range(1, 6):
                n = 2 * m
                dfact = F(1)
                for j in range(1, m + 1):
                    dfact *= br[2 * j - 1]
                assert alpha_closed(seq.values, br, m, n) == dfact

    def test_nested_equals_closed_on_reference_systems(self, reference_systems):
        for sys in reference_systems.values():
            for n in range(1, 15):
                for m in range(1, n // 2 + 1):
                    nested = alpha_nested(sys.brackets, m, n)
                    closed = alpha_closed(sys.seq.values, sys.brackets, m, n)
                    assert nested == closed == alpha_brute(sys.brackets, m, n)

    def test_range_guards(self):
        seq = seq_hermite(8)
        br = bracket_table(seq)
        with pytest.raises(ValueError):
            alpha_nested(br, 3, 4)
        with pytest.raises(ValueError):
            alpha_nested(br, 1, 0)
        for m, n in ((3, 4), (-1, 4)):  # the closed form reads 0 <= m <= n/2
            with pytest.raises(ValueError, match="need 0 <= m <= n//2"):
                alpha_closed(seq.values, br, m, n)

    def test_n_past_the_tables_is_refused(self):
        # v_0..v_6 and [0]..[6]: n reads v_{n-1} and [n-1], so n = 8 reads past
        # both, and n = 7 still agrees with the brute sum
        seq = seq_hermite(6)
        br = bracket_table(seq)
        with pytest.raises(ValueError, match=r"^n = 8 reads past the 7 values and 7 brackets"):
            alpha_closed(seq.values, br, 1, 8)
        with pytest.raises(ValueError, match=r"^n = 8 reads past the 7 brackets given$"):
            alpha_nested(br, 1, 8)
        for m in range(1, 4):
            assert alpha_closed(seq.values, br, m, 7) == alpha_nested(br, m, 7) \
                == alpha_brute(br, m, 7)

    def test_alpha_closed_reads_its_inputs_exactly(self):
        # numpy's integers convert through int; a float is refused, where the
        # closed form returned the float 1.0 for these values
        assert alpha_closed([1, 2, 3], [0, 1, 2], 1, 2) == 1
        assert alpha_closed([np.int64(1), np.int64(2), np.int64(3)], [0, 1, 2], 1, 2) == 1
        with pytest.raises(TypeError, match="expected exact rational, got float"):
            alpha_closed([1.0, 2.0, 3.0], [0, 1, 2], 1, 2)

    def test_nested_equals_the_brute_sum_off_the_compatible_class(self):
        # order3 is not compatible, so the closed form does not apply: the
        # display's levels are checked against the enumeration of its tuples
        br = bracket_table(seq_order3(F(7, 3), F(17, 3), 16, F(8, 3)))
        for n in range(1, 17):
            for m in range(1, n // 2 + 1):
                assert alpha_nested(br, m, n) == alpha_brute(br, m, n)

    def test_600_levels_equal_the_closed_form(self):
        # one cumulative sum per level, no recursion: m = 600 nests past the
        # interpreter's recursion limit
        seq = seq_hermite(1300)
        br = bracket_table(seq)
        assert alpha_nested(br, 600, 1200) == alpha_closed(seq.values, br, 600, 1200)

    def test_alpha_nested_reads_its_inputs_exactly(self):
        br = bracket_table(seq_hermite(8))
        assert alpha_nested([np.int64(x) for x in br], 2, 8) == alpha_nested(br, 2, 8) == 210
        with pytest.raises(TypeError, match="expected exact rational, got float"):
            alpha_nested([float(x) for x in br], 2, 8)

    @settings(max_examples=30, deadline=None)
    @given(
        brackets=st.lists(
            st.fractions(min_value=F(1, 4), max_value=F(6), max_denominator=5),
            min_size=12,
            max_size=12,
        ),
        n=st.integers(min_value=2, max_value=11),
        p=st.integers(min_value=1, max_value=5),
    )
    def test_alpha_recurrence_any_brackets(self, brackets, n, p):
        # alpha_{2p-1,n-1} = [n-1] alpha_{2p-3,n-3} + alpha_{2p-1,n-2}
        # holds for any bracket table (it is a combinatorial identity)
        if 2 * p > n:
            return
        br = [F(0), F(1)] + brackets

        def a(m, nn):
            if m == 0:
                return F(1)
            if nn < 1 or m > nn // 2:
                return F(0)  # empty sum
            return alpha_nested(br, m, nn)

        assert a(p, n) == br[n - 1] * a(p - 1, n - 2) + a(p, n - 1)


class TestPsiConstruction:
    def test_base_cases(self, hermite_sys):
        assert hermite_sys.monic[0].coeffs == (1,) and hermite_sys.norm2[0] == 1
        assert hermite_sys.monic[1].coeffs == (0, 1)
        assert hermite_sys.norm2[1] == hermite_sys.seq.b0_squared

    def test_hermite_psi2_proportional_to_2x2_minus_1(self, hermite_sys):
        core = hermite_sys.monic[2]
        assert core.coeffs == (F(-1, 2), 0, 1)  # x^2 - 1/2, i.e. (2x^2 - 1)/2

    def test_parity(self, family15_sys):
        core = family15_sys.monic[5]
        assert all(core.coeffs[k] == 0 for k in (0, 2, 4))
        even = family15_sys.monic[8]
        assert all(even.coeffs[k] == 0 for k in (1, 3, 5, 7))

    def test_route_equivalence_exact(self, reference_systems):
        for sys in reference_systems.values():
            for n in range(0, 26):
                assert sys.monic[n] == sys.psi_coeffs_via_alpha(n)

    def test_n_range_guard(self, hermite_sys):
        with pytest.raises(ValueError):
            hermite_sys.psi_coeffs_via_alpha(31)
        # the decompositions read P_{n-2}: 2 <= n <= n_max
        for decomposition in (hermite_sys.decompose_b1bar, hermite_sys.derivative_decomposition):
            for n in (1, 31):
                with pytest.raises(ValueError, match=r"n must be in \[2, 30\]"):
                    decomposition(n)
        # the expansion of psi_n' reads P_n alone: 0 <= n <= n_max
        for n in (-1, 31):
            with pytest.raises(ValueError, match=r"n must be in \[0, 30\]"):
                hermite_sys.derivative_in_basis(n)

    def test_two_entry_sequence_is_rejected_up_front(self):
        with pytest.raises(ValueError, match=r"needs v_0, v_1 and v_2; got 2 entries"):
            PolynomialSystem(GoverningSequence((F(1), F(2)), F(1)))

    def test_one_bracket_pass_per_system(self, monkeypatch):
        # each table is one pass over w (governing._steps, which runs the bracket
        # check), once per system, through the names systems binds: the
        # constructor forms b^2's integer row, and the first read of gamma^2's
        # pairs or of the brackets forms that table; the Fraction views b2 and g2
        # read the integers already formed
        from hermite_chihara import governing

        calls = {}

        def counted(module, name):
            fn = getattr(governing, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(governing, "_steps")
        for name in ("b_squares", "gamma_squares", "bracket_table"):
            counted(systems_mod, name)
        for seq in (seq_hermite(12), seq_order3(F(7, 3), F(17, 3), N=12)):
            calls.clear()
            sys = PolynomialSystem(seq)
            assert calls == {"b_squares": 1, "_steps": 1}
            want = ref.bracket_table(seq)
            assert sys.b2 is sys.b2 and sys.b2 == ref.b_squares(seq, want)
            assert sys.g2 is sys.g2 and sys.g2 == ref.gamma_squares(seq, sys.b2)
            assert sys.g2_pairs is sys.g2_pairs
            assert sys.brackets is sys.brackets and sys.brackets == want
            assert calls == {"b_squares": 1, "gamma_squares": 1, "bracket_table": 1, "_steps": 3}


def _explicit_core(sys, n):
    """P_n from the paper's coefficient display, in Fractions: the coefficient
    of x^{n-2m} is (-b0^2)^m alpha_{2m-1,n-1}, alpha in the table convention."""
    coeffs = [F(0)] * (n + 1)
    for m in range(n // 2 + 1):
        coeffs[n - 2 * m] = (-sys.seq.b0_squared) ** m * alpha_closed(
            sys.seq.values, sys.brackets, m, n)
    return Poly(coeffs)


_route_systems = st.one_of(
    st.builds(lambda b0, N: seq_hermite(N, b0), st.fractions(F(1, 5), F(4), max_denominator=7),
              st.integers(2, 40)),
    st.builds(lambda g, N: seq_classical(g, N), st.fractions(F(-6, 7), F(4), max_denominator=7),
              st.integers(2, 40)),
    st.builds(lambda r, v2, b0, N: seq_family(r * v2, v2, b0, N),  # 0 < v1 <= v2, 1 < v2
              st.fractions(F(1, 5), F(1), max_denominator=5),
              st.fractions(F(5, 4), F(5), max_denominator=4),
              st.fractions(F(1, 5), F(4), max_denominator=7), st.integers(2, 40)),
)


class TestRouteCheck:
    """first_route_mismatch: the recurrence cores against the explicit
    formula, by integer cross-multiplication."""

    def test_valid_systems_agree_to_n_max(self, reference_systems):
        for sys in reference_systems.values():
            assert sys.first_route_mismatch(sys.n_max) is None

    @pytest.mark.parametrize("seq", [
        seq_order3(F(7, 3), F(17, 3), N=40, b0_squared=F(8, 3)),
        seq_order2(3, N=30),
    ], ids=["order3", "order2"])
    def test_an_incompatible_sequence_fails_where_the_polynomials_differ(self, seq):
        sys = PolynomialSystem(seq)
        first = next(n for n in range(sys.n_max + 1) if sys.monic[n] != _explicit_core(sys, n))
        assert sys.first_route_mismatch(sys.n_max) == first

    @pytest.mark.parametrize("kind", ["even", "odd", "degree"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 20, 300])
    def test_each_defect_fails_at_its_row(self, kind, n):
        # n = 300: cores with numerators of several hundred digits; from n = 7 on,
        # the even and odd defects sit in an interior slot (j = n // 4)
        N = max(24, n + 20)
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), N))
        sys.monic[n] = corrupt_core(sys.monic[n], n, kind, n // 4)
        assert sys.first_route_mismatch(N) == n
        if n:
            assert sys.first_route_mismatch(n - 1) is None

    def test_b0_squared_changed_in_the_formula_only(self):
        sys = PolynomialSystem(seq_hermite(12))
        sys.seq = GoverningSequence(sys.seq.values, sys.seq.b0_squared * (1 + F(1, 10**9)))
        assert sys.first_route_mismatch(12) == 2  # P_0 and P_1 carry no b0^2

    @settings(max_examples=60, deadline=None)
    @given(seq=_route_systems, kind=st.sampled_from([None, "even", "odd", "degree"]),
           at=st.integers(0, 40), j=st.integers(0, 20))
    def test_same_verdict_as_comparing_polynomials(self, seq, kind, at, j):
        sys = PolynomialSystem(seq)
        n = at % (sys.n_max + 1)
        if kind is not None:
            sys.monic[n] = corrupt_core(sys.monic[n], n, kind, j)
        by_poly = next((k for k in range(sys.n_max + 1)
                        if sys.monic[k] != sys.psi_coeffs_via_alpha(k)), None)
        assert sys.first_route_mismatch(sys.n_max) == by_poly
        assert by_poly == (None if kind is None else n)
        assert sys.psi_coeffs_via_alpha(n) == _explicit_core(sys, n)


class TestPsiEval:
    """psi_n(x) from the float recurrence, column n of psi_eval_table."""

    def test_psi0_is_one(self, hermite_sys):
        assert hermite_sys.psi_eval_table([3.7], 0)[0, 0] == 1.0

    @pytest.mark.parametrize("x, n_hi", [(math.nan, 5), (math.inf, 1), (math.inf, 5),
                                         (-math.inf, 0)])
    def test_a_non_finite_x_is_rejected(self, hermite_sys, x, n_hi):
        # not a NaN row, an inf, or a FloatRangeError naming a psi value
        with pytest.raises(ValueError, match=r"^x must be finite$"):
            hermite_sys.psi_eval_table(np.array([0.5, x]), n_hi)

    def test_psi1_at_2(self, classical1_sys):
        b0 = math.sqrt(float(classical1_sys.seq.b0_squared))
        assert classical1_sys.psi_eval_table([2.0], 1)[0, 1] == pytest.approx(2.0 / b0, rel=1e-14)

    def test_classical_psi2_at_zero(self, classical1_sys):
        # x = 0 in the recurrence at n = 1: psi_2(0) = -b0/b1
        b = classical1_sys.b_float
        psi2 = classical1_sys.psi_eval_table([0.0], 2)[0, 2]
        assert psi2 == pytest.approx(-b[0] / b[1], rel=1e-14)

    def test_recurrence_matches_horner(self, reference_systems):
        # every column of the table against the exact core by Horner's rule
        xs = np.linspace(-10.0, 10.0, 41)
        for sys in reference_systems.values():
            table = sys.psi_eval_table(xs, 30)
            for n in range(0, 31):
                horner = np.array([_over_sqrt(sys.monic[n](F(x)), sys.norm2[n]) for x in xs])
                scale = max(1.0, float(np.max(np.abs(horner))))
                assert np.max(np.abs(horner - table[:, n])) <= 1e-12 * scale

    def test_normalization_matches_plain_float_where_it_fits(self):
        # _over_sqrt never converts norm^2 itself, yet where float(norm^2)
        # exists it rounds exactly as float(c) / sqrt(float(norm^2)) does, for
        # the coefficients of psi_n and for its exact value at x
        sys = PolynomialSystem(seq_classical(F(1, 2), 60))
        for n in range(0, 61, 6):
            q, core = sys.norm2[n], sys.monic[n]
            nu = math.sqrt(float(q))
            for c in (*core.coeffs, *(core(F(x)) for x in (-3.5, 0.25, 4.75))):
                assert _over_sqrt(c, q).hex() == (float(c) / nu).hex()

    def test_n200_past_the_float_range_of_norm_squared(self):
        sys = PolynomialSystem(seq_hermite(200))
        q, core = sys.norm2[200], sys.monic[200]
        assert q > F(10) ** 309  # float() of it overflows
        assert 0.0 < _over_sqrt(F(1), q) < math.inf  # 1 / nu_200
        assert all(math.isfinite(_over_sqrt(c, q)) for c in core.coeffs)
        xs = (-2.5, 0.5, 4.0)
        for x, recur in zip(xs, sys.psi_eval_table(xs, 200)[:, 200]):
            assert _over_sqrt(core(F(x)), q) == pytest.approx(recur, rel=1e-9)

    def test_over_sqrt_without_a_float_raises(self):
        # c / sqrt(q) past the largest float, in the integer division or in the
        # float quotient, is a FloatRangeError, not an OverflowError or inf
        for c, q in ((F(10**400), F(1)), (F(1), F(1, 10**700)), (F(17 * 10**307), F(5, 7))):
            with pytest.raises(FloatRangeError, match="psi-scaled value outside the float range"):
                _over_sqrt(c, q)
        # a residual of order 1 over nu_7 ~ 10^-2800: an x^9 term added to P_7
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(1, 10**800), 8))
        sys.monic[7] = corrupt_core(sys.monic[7], 7, "degree")
        with pytest.raises(FloatRangeError):
            sys.ode_residual(7, 0.5)

    def test_float_coefficients_convert_each_b2_once(self, reference_systems):
        for sys in reference_systems.values():
            assert [x.hex() for x in sys.b2_float] == [float(x).hex() for x in sys.b2]
            assert [x.hex() for x in sys.b_float] == [math.sqrt(float(x)).hex() for x in sys.b2]

    @pytest.mark.parametrize("b0_squared", [
        F(10**400), F(1, 10**400),  # float() overflows; it rounds to 0
        F(2**1020), F(1, 2**1023),  # b_1^2 = 2 b0^2 past the top; b_0^2 subnormal
    ])
    def test_b2_outside_the_float_range_raises_on_first_use(self, b0_squared):
        sys = PolynomialSystem(seq_hermite(8, b0_squared=b0_squared))
        assert sys.b2[0] == b0_squared  # the exact fields are built
        with pytest.raises(FloatRangeError, match=r"b\^2 outside the float range"):
            sys.b_float


class TestPsiTableKernel:
    """psi_eval_table's in-place recurrence against the plain-float one
    (fraction_reference.psi_table), bit for bit, on the node counts the Gram
    reads: one node, one panel's 61 and a round's largest 16 panels, 976."""

    @pytest.fixture(scope="class")
    def systems(self):
        return {
            "hermite": PolynomialSystem(seq_hermite(100)),
            "classical 1/3": PolynomialSystem(seq_classical(F(1, 3), 100)),
            "family (2/3, 5/3, 3/7)": PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), 100)),
        }

    @pytest.mark.parametrize("nodes", [1, 61, 976])
    @pytest.mark.parametrize("n_hi", [0, 1, 2, 12, 100])
    @pytest.mark.parametrize("name", ["hermite", "classical 1/3", "family (2/3, 5/3, 3/7)"])
    def test_equals_the_plain_float_recurrence(self, systems, name, n_hi, nodes):
        sys = systems[name]
        # the Gram's radius at n = 100 is 35 on the weight's scale
        xs = np.random.default_rng(nodes).uniform(-35.0, 35.0, nodes)
        table = sys.psi_eval_table(xs, n_hi)
        assert table.shape == (nodes, n_hi + 1) and table.flags.c_contiguous
        expect = np.array(ref.psi_table(sys.b2, xs, n_hi))
        assert np.array_equal(table.view(np.int64), expect.view(np.int64))

    def test_psi_0_alone_reads_no_float_b(self):
        sys = PolynomialSystem(seq_hermite(8, b0_squared=F(10**400)))
        assert sys.psi_eval_table([0.5, 2.0], 0).tolist() == [[1.0], [1.0]]
        with pytest.raises(FloatRangeError, match=r"b\^2 outside the float range"):
            sys.psi_eval_table([0.5, 2.0], 1)

    def test_an_overflow_is_a_float_range_error_without_a_warning(self, hermite_sys):
        # x psi_1 ~ 1e400 overflows in the first step of the loop
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError, match=r"^psi value outside the float range"):
                hermite_sys.psi_eval_table([1e200], 2)


class TestLowering:
    def test_exact_zero_residual(self, reference_systems):
        for sys in reference_systems.values():
            assert sys.first_lowering_failure(25) is None

    def test_n1_reduces_to_gamma1(self, classical1_sys):
        # D psi_1 = (v0/b0) psi_0 in scaled form: D P_1 = v_0 P_0
        op = epsilons_from_sequence(classical1_sys.seq)
        applied = op.apply(classical1_sys.monic[1])
        assert applied.coeffs == (1,)

    def test_hermite_reduces_to_doubling_rule(self, hermite_sys):
        # gamma_n^2 = 2n is the normalized form of d/dx H_n = 2n H_{n-1}
        assert [hermite_sys.g2[n] for n in range(1, 11)] == [F(2 * n) for n in range(1, 11)]

    def test_incompatible_sequence_fails_lowering(self):
        values = (F(1), F(1), F(2), F(5), F(8), F(11), F(14))
        sys = PolynomialSystem(GoverningSequence(values, F(1)))
        assert sys.first_lowering_failure(6) == 5

    @pytest.mark.parametrize("kind", ["scaled", "even", "odd", "degree"])
    def test_a_defect_fails_at_its_row(self, kind):
        # both exact scans over the cores; u_16 and u_17 are nonzero here, so
        # the reduced relation sees a scaled core too (on Hermite U = 0)
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), 24))
        assert sys.seq.values[15] != 16 and sys.seq.values[16] != 17
        sys.monic[17] = corrupt_core(sys.monic[17], 17, kind)
        for scan in (sys.first_lowering_failure, sys.first_reduced_failure):
            assert scan(24) == 17
            assert scan(16) is None


class TestLazyOperator:
    """A system builds no derivation operator: the lowering, reduced and ODE
    scans and the decompositions read v alone."""

    def test_a_fresh_system_has_no_operator(self, monkeypatch):
        def unreachable(op):
            raise RuntimeError("a derivation operator was built")

        monkeypatch.setattr(DerivationOperator, "__post_init__", unreachable)
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), 30))
        sys.psi_coeffs_via_alpha(30)
        sys.ode_bracket(30)
        sys.derivative_decomposition(30)
        sys.decompose_b1bar(30)
        assert sys.first_lowering_failure(30) is None and sys.first_ode_failure(30) is None
        assert sys.first_reduced_failure(30) is None
        assert not hasattr(sys, "op")


# each exact reader at n, whose largest core index read is n
CORE_READERS = {
    "ode_residual": lambda sys, n: sys.ode_residual(n, 0.5),
    "first_ode_failure": lambda sys, n: sys.first_ode_failure(n),
    "first_route_mismatch": lambda sys, n: sys.first_route_mismatch(n),
    "first_lowering_failure": lambda sys, n: sys.first_lowering_failure(n),
    "first_reduced_failure": lambda sys, n: sys.first_reduced_failure(n),
    "square_lowering_deviation": lambda sys, n: sys.square_lowering_deviation(n),
    "decompose_b1bar": lambda sys, n: sys.decompose_b1bar(n),
    "derivative_in_basis": lambda sys, n: sys.derivative_in_basis(n),
    "derivative_decomposition": lambda sys, n: sys.derivative_decomposition(n),
}


class TestCoresOnFirstRead:
    """The cores are built where they are read: a fresh system holds P_0 and
    P_1, each exact reader asks _core for each core as it reads it, so a scan
    builds nothing past its first failure, and monic is the list _core grows,
    P_0..P_{n_max}.  The float boundary reads no core."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The index of every core the recurrence builds, in order."""
        indices, step = [], systems_mod._next_monic

        def counted(cur, prev, b2):
            indices.append(len(cur.nums))  # cur is P_{n-1}, with n numerators
            return step(cur, prev, b2)

        monkeypatch.setattr(systems_mod, "_next_monic", counted)
        return indices

    def test_the_float_boundary_builds_no_core(self, built):
        from hermite_chihara import measure, oscillator

        sys = PolynomialSystem(seq_classical(F(1, 3), 60))
        ops = oscillator.build_operators(sys, dim=60)
        oscillator.commutator_report(ops, sys)
        oscillator.spectrum_report(ops, sys)
        measure.gram_deviation(sys, measure.spec_for_system(sys), 12)
        assert built == []

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--family", "classical", "--gamma", "1/3", "--dim", "60"),
        ("gram", "--family", "classical", "--gamma", "1/3", "--n-max", "12"),
    ], ids=["spectrum", "gram"])
    def test_spectrum_and_gram_build_no_core(self, built, capsys, argv):
        from hermite_chihara.cli import main

        assert main(list(argv)) == 0
        capsys.readouterr()
        assert built == []

    @pytest.mark.parametrize("name", list(CORE_READERS))
    @pytest.mark.parametrize("n", [3, 17, 40])
    def test_a_reader_builds_each_core_once_up_to_its_n(self, built, name, n):
        read = CORE_READERS[name]
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), 60))
        read(sys, n)
        assert built == list(range(2, n + 1)) and len(sys._monic) == n + 1
        read(sys, n)
        read(sys, n - 1)
        assert built == list(range(2, n + 1))

    def test_a_fresh_system_holds_no_derived_table(self):
        sys = PolynomialSystem(seq_classical(F(1, 3), 30))
        fresh = {"b2", "brackets", "g2_pairs", "g2", "norm2", "b2_float", "b_float"}
        assert not fresh & set(vars(sys))
        assert sys.norm2 == [math.prod(sys.b2[:n], start=F(1)) for n in range(31)]
        assert {"norm2", "b2"} <= set(vars(sys)) and "g2" not in vars(sys)

    @pytest.mark.parametrize("argv, calls", [
        (("verify", "--family", "classical", "--gamma", "1/3", "--n-max", "12", "--dim", "20"), 0),
        (("classify", "--family", "order3", "--v1", "7/3", "--v2", "17/3", "--n-max", "12"), 0),
        (("gram", "--family", "classical", "--gamma", "1/3", "--n-max", "8"), 0),
        (("spectrum", "--family", "classical", "--gamma", "1/3", "--dim", "20"), 0),
        (("table", "--family", "order3", "--v1", "7/3", "--v2", "17/3", "--n-max", "12"), 1),
        (("build", "--family", "order3", "--v1", "7/3", "--v2", "17/3", "--n-max", "12"), 1),
    ], ids=["verify", "classify", "gram", "spectrum", "table", "build"])
    def test_gamma_squared_is_formed_where_it_is_read(self, monkeypatch, capsys, argv, calls):
        # table and build print gamma^2's integer pairs, formed once; no command
        # forms the g2 Fractions
        from hermite_chihara.cli import main

        counted, original = [], systems_mod.gamma_squares

        def gamma_squares(*args):
            counted.append(args)
            return original(*args)

        def unformed(self):
            raise AssertionError("the g2 Fractions were formed")

        monkeypatch.setattr(systems_mod, "gamma_squares", gamma_squares)
        monkeypatch.setattr(PolynomialSystem, "g2", property(unformed))
        assert main(list(argv)) == 0
        capsys.readouterr()
        assert len(counted) == calls

    def test_ode_residual_grows_the_list_to_n_plus_1(self):
        sys = PolynomialSystem(seq_classical(1, 100))
        for n in (1, 9, 64, 100):
            sys.ode_residual(n, 0.5)
            assert len(sys._monic) == n + 1

    def test_monic_is_the_one_list_the_readers_grow(self, built):
        N = 60
        sys = PolynomialSystem(seq_classical(F(1, 3), N))
        sys.first_route_mismatch(20)
        cores = sys.monic
        assert sys.monic is cores and sys._core(N) is cores[N] and len(cores) == N + 1
        assert sys.first_lowering_failure(N) is None and sys.monic is cores
        assert built == list(range(2, N + 1))
        assert [p.coeffs for p in cores] == [p.coeffs for p in ref.monic_cores(sys.b2, N)]

    @pytest.mark.parametrize("scan", [
        "first_lowering_failure", "first_route_mismatch", "first_reduced_failure"])
    def test_a_scan_builds_nothing_past_its_first_failure(self, built, scan):
        k = getattr(PolynomialSystem(seq_order2(3, 40)), scan)(40)
        assert k is not None and built == list(range(2, k + 1))

    def test_classify_builds_cores_up_to_its_first_non_reduced_n(self, built, capsys):
        from hermite_chihara.cli import main

        assert main(["classify", "--family", "order2", "--v1", "7/3", "--n-max", "40"]) == 0
        assert capsys.readouterr().out.startswith("reduced: false\n")
        assert built == [2, 3, 4]

    @pytest.mark.parametrize("scan", [
        "first_lowering_failure", "first_route_mismatch", "first_reduced_failure"])
    def test_a_scan_forms_no_b2_fraction(self, scan):
        # the cores grow from b2_row's integers: a scan that stops at P_4 forms
        # none of the n_max b^2 Fractions
        sys = PolynomialSystem(seq_order2(3, 40))
        assert getattr(sys, scan)(40) is not None and "b2" not in vars(sys)

    def test_classify_forms_no_b2_fraction(self, monkeypatch, capsys):
        from hermite_chihara.cli import main

        built, init = [], PolynomialSystem.__init__

        def recorded(self, seq):
            built.append(self)
            init(self, seq)

        monkeypatch.setattr(PolynomialSystem, "__init__", recorded)
        assert main(["classify", "--family", "order2", "--v1", "7/3", "--n-max", "40"]) == 0
        assert capsys.readouterr().out.startswith("reduced: false\n")
        assert len(built) == 1 and len(built[0]._monic) == 5 and "b2" not in vars(built[0])

    @pytest.mark.parametrize("kind", ["even", "odd", "degree"])
    @pytest.mark.parametrize("partial", [0, 10, 19, 20, 30])
    def test_a_core_corrupted_after_a_partial_read_fails_at_its_n(self, kind, partial):
        # the scans grow the list to 10, 19, ... before monic is read and P_20
        # corrupted in it: every scan still fails first at 20, as when the
        # constructor built every core
        N, n = 40, 20
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), N))
        if partial:
            assert sys.first_route_mismatch(partial) is None
            assert sys.first_ode_failure(partial) is None
        sys.monic[n] = corrupt_core(sys.monic[n], n, kind, n // 4)
        assert sys.first_route_mismatch(N) == n and sys.first_route_mismatch(n - 1) is None
        assert sys.first_lowering_failure(N) == n
        assert sys.first_reduced_failure(N) == n
        assert sys.first_ode_failure(N) == n
        assert sys.square_lowering_deviation(n - 1) == 0.0 < sys.square_lowering_deviation(N)
        assert sys.first_weight_mismatch(N) is None  # b^2 and the weight read no core


class TestCompatiblePropagation:
    """The compatibility identity at p = 2 propagates a free (v1, v2, v3) seed
    to a full sequence; the result satisfies the identity at every (n, p) and
    its system obeys the exact lowering rule and coefficient equivalence even
    though it is generally NOT of the two-parameter family shape."""

    @staticmethod
    def propagate(v1, v2, v3, N):
        v = [F(1), F(v1), F(v2), F(v3)]
        while len(v) <= N:
            n = len(v)
            v.append((v[n - 2] * v[3] + v[1] * v[n - 4] - v[3] * v[n - 4]) / v[1])
        return GoverningSequence(tuple(v), F(1))

    @settings(max_examples=30, deadline=None)
    @given(
        v1=st.fractions(min_value=F(1), max_value=F(4), max_denominator=3),
        d2=st.fractions(min_value=F(0), max_value=F(3), max_denominator=3),
        d3=st.fractions(min_value=F(0), max_value=F(3), max_denominator=3),
    )
    def test_lowering_and_routes_hold(self, v1, d2, d3):
        seq = self.propagate(v1, v1 + d2, v1 + d2 + d3, 10)
        assert validate_ok(seq)
        try:
            sys = PolynomialSystem(seq)
        except ValueError:
            return  # degenerate brackets (e.g. constant sequence)
        assert sys.first_lowering_failure(10) is None
        for n in range(0, 11):
            assert sys.monic[n] == sys.psi_coeffs_via_alpha(n)

    @settings(max_examples=200, deadline=None)
    @given(
        v1=st.fractions(min_value=F(1, 4), max_value=F(6), max_denominator=5),
        d2=st.fractions(min_value=F(1, 5), max_value=F(6), max_denominator=5),
        d3=st.fractions(min_value=F(1, 5), max_value=F(6), max_denominator=5),
        N=st.integers(4, 24), bump=st.none() | st.tuples(st.integers(1, 24), st.integers(1, 10**6)),
    )
    def test_the_core_scans_fail_one_past_validate(self, v1, d2, d3, N, bump):
        # the lowering rule and the explicit formula reduce to validate's
        # identity (systems module docstring): on a compatible prefix, or one with
        # a value scaled by 1 + 1/k, both scans fail first at validate's first
        # violating n + 1 when that is within N, and not at all otherwise; the
        # seed's steps v2 - v0 and v3 - v1 are positive, as every bracket needs
        seq = propagated_compatible_sequence(v1, 1 + d2, v1 + d3, N)
        if bump is not None:
            i, k = bump[0] % N + 1, bump[1]
            values = list(seq.values)
            values[i] *= 1 + F(1, k)
            seq = GoverningSequence(tuple(values), seq.b0_squared)
        try:
            sys = PolynomialSystem(seq)
        except ValueError:
            assume(False)  # a bracket that is not positive
        first = validate(seq).first_violation
        want = first[0] + 1 if first is not None and first[0] + 1 <= N else None
        assert sys.first_lowering_failure(N) == want
        assert sys.first_route_mismatch(N) == want

    def test_generic_seed_is_not_family(self):
        seq = self.propagate(2, 3, 5, 10)
        from hermite_chihara import is_special_family

        assert is_special_family(seq) == (False, None)
        assert PolynomialSystem(seq).first_reduced_failure(10) == 4


def validate_ok(seq):
    from hermite_chihara import validate

    return validate(seq).ok


class TestGammaCrossRelations:
    def test_odd_relation(self, reference_systems):
        # gamma_{2p+1} sqrt([2p+1]) = (alpha_{2p-1,2p} / [2p-1]!!) gamma_1
        for sys in reference_systems.values():
            for p in range(1, 7):
                lhs_sq = sys.g2[2 * p + 1] * sys.brackets[2 * p + 1]
                dfact = F(1)
                for j in range(1, p + 1):
                    dfact *= sys.brackets[2 * j - 1]
                coeff = alpha_closed(sys.seq.values, sys.brackets, p, 2 * p + 1) / dfact
                assert lhs_sq == coeff**2 * sys.g2[1]

    def test_even_relation(self, reference_systems):
        # gamma_{2p+2} sqrt([2p+2]) = (alpha_{2p-1,2p+1}/alpha_{2p-1,2p}) sqrt([2]) gamma_2
        for sys in reference_systems.values():
            for p in range(1, 7):
                lhs_sq = sys.g2[2 * p + 2] * sys.brackets[2 * p + 2]
                ratio = alpha_closed(sys.seq.values, sys.brackets, p, 2 * p + 2) / alpha_closed(
                    sys.seq.values, sys.brackets, p, 2 * p + 1
                )
                assert lhs_sq == ratio**2 * sys.brackets[2] * sys.g2[2]

    def test_eps_sum_relation(self, reference_systems):
        # b0 (sqrt([2])/2) gamma_2 = eps_1 + eps_2, all positive here
        for sys in reference_systems.values():
            op = epsilons_from_sequence(sys.seq, K=2)
            s = op.eps(1) + op.eps(2)
            assert s > 0
            lhs_sq = sys.seq.b0_squared * sys.brackets[2] / 4 * sys.g2[2]
            assert lhs_sq == s**2


class TestDecomposition:
    def test_delta_is_a_n_2_scaled(self, reference_systems):
        # delta_bar b_{n-1} = A_n(2) = v_{n-1} - n, exactly, for every system
        for sys in reference_systems.values():
            op = epsilons_from_sequence(sys.seq)
            for n in range(2, 16):
                rep = sys.decompose_b1bar(n)
                assert rep.delta_scaled == sys.seq.values[n - 1] - n
                assert rep.delta_scaled == op.a_coefficient(n, 2)

    def test_even_beta_vanishes(self, reference_systems):
        for sys in reference_systems.values():
            for n in range(2, 16, 2):
                assert sys.decompose_b1bar(n).beta_scaled == 0

    def test_family_beta_magnitude(self):
        # beta_{2p+1} b_{2p} b_{2p-1} = b0^2 (v2 - 3) p, here exactly (signed)
        for v1, v2, b0sq in ((F(4), F(5), F(1)), (F(1), F(2), F(1)), (F(2), F(3), F(1, 2))):
            sys = PolynomialSystem(seq_family(v1, v2, b0sq, 16))
            for p in range(1, 8):
                rep = sys.decompose_b1bar(2 * p + 1)
                assert rep.beta_scaled == b0sq * (v2 - 3) * p
                assert abs(rep.beta_bar) == pytest.approx(
                    abs(float(b0sq * (v2 - 3) * p)) / (sys.b_float[2 * p] * sys.b_float[2 * p - 1]),
                    rel=1e-12,
                )

    def test_hermite_upper_part_vanishes(self, hermite_sys):
        for n in range(2, 12):
            rep = hermite_sys.decompose_b1bar(n)
            assert rep.support == ()
            assert rep.reduced

    def test_family_support_is_reduced(self, family15_sys):
        for n in range(2, 16):
            rep = family15_sys.decompose_b1bar(n)
            assert set(rep.support) <= {n - 1, n - 2}
            assert rep.reduced

    def test_order2_not_reduced_at_4(self):
        sys = PolynomialSystem(seq_order2(3, 12))
        first_bad = next(n for n in range(2, 9) if not sys.decompose_b1bar(n).reduced)
        assert first_bad == 4
        assert 0 in sys.decompose_b1bar(4).support  # a psi_{n-4} term appears

    def test_classify_matches_family_shape(self):
        # the scan to N, the decompositions and is_special_family on v_0..v_{N-1}
        # (what the scan reads) agree: none fails on the family systems, and n = 4
        # on the order2 and order3 ones.  n = 4 is where they could first disagree:
        # a family prefix v_0..v_2 with v_3 != 2 v_1 (v_4 only keeps [4] > 0)
        N = 40
        family = [seq_hermite(N), seq_hermite(N, 10**5), seq_classical(1, N),
                  seq_family(1, 5, F(1), N), seq_family(F(2, 3), F(5, 3), F(3, 7), N),
                  seq_family(4, 5, F(1), N), seq_classical(F(1, 3), N), seq_classical(F(-1, 2), N)]
        other = [seq_order2(3, N), seq_order2(F(5, 2), N),
                 seq_order3(F(7, 3), F(17, 3), N), seq_order3(8, 30, N)]
        prefixes = [(GoverningSequence((1, v1, v2, v3, 2 * v2 - 1), F(1)),
                     None if v3 == 2 * v1 else 4)
                    for v1, v2 in ((F(2, 3), F(5, 3)), (F(4), F(5)), (F(1), F(3)))
                    for v3 in (2 * v1, 2 * v1 - F(1, 10**9), 2 * v1 + F(1, 7), 3 * v1)]
        cases = [*((s, None) for s in family), *((s, 4) for s in other), *prefixes]
        for seq, want in cases:
            sys, top = PolynomialSystem(seq), min(N, seq.n_max)
            reports = [sys.decompose_b1bar(n) for n in range(2, top + 1)]
            first = next((r.n for r in reports if not r.reduced), None)
            assert sys.first_reduced_failure(top) == first == want
            prefix = GoverningSequence(seq.values[:top], seq.b0_squared)
            assert is_special_family(prefix)[0] == (want is None)
            if sys.is_family:
                # U P_n = v_{n-1} x P_{n-1} - x P_n' by the lowering rule, so the
                # P_{n-2} term of x P_n' - n x P_{n-1} is -beta
                for r in reports:
                    assert sys.derivative_decomposition(r.n) == (
                        r.n / sys.b_float[r.n - 1], -r.beta_bar)

    def test_remainder_is_the_operator_upper_part(self, reference_systems):
        # the scan's U P_n (its remainder plus u_n x P_{n-1}) is the operator's
        for sys in reference_systems.values():
            op = epsilons_from_sequence(sys.seq)
            L, cores = sys._L, sys.monic  # _upper_remainder reads the cores its caller grew
            for n in range(2, 17):
                un, nums, den = sys._upper_remainder(n)
                cur, prev = cores[n], cores[n - 1]
                assert den == L * math.lcm(cur.den, prev.den)
                upper = ref.FractionPoly(Poly.from_numerators(nums, den).coeffs)
                upper += ref.FractionPoly(prev.coeffs).shift(1).scale(F(un, L))
                assert upper.coeffs == op.apply_upper_part(cur).coeffs

    def test_reduced_means_no_tail(self, reference_systems):
        systems = [*reference_systems.values(), PolynomialSystem(seq_order2(3, 16))]
        for sys in systems:
            for n in range(2, 17):
                rep = sys.decompose_b1bar(n)
                assert rep.reduced == (not rep.tail_scaled)
                assert set(rep.support) - {n - 1, n - 2} == set(rep.tail_scaled)

    @pytest.mark.parametrize("b0_squared", [F(10**400), F(1, 10**400)], ids=["1e400", "1e-400"])
    def test_outside_the_float_range(self, b0_squared):
        # the decompositions read the exact b^2, not b_float, which has no float
        # here.  beta_bar = beta_scaled / (b_{n-1} b_{n-2}) does not depend on
        # b0^2: against its exact square it is as close at 10^400 and 10^-400 as
        # at 3/7, though the bits can differ by an ulp (c and q round at other
        # mantissas).
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), b0_squared, 40))
        at = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), 40))
        with pytest.raises(FloatRangeError):
            sys.b_float
        for n in range(2, 41):
            rep, want = sys.decompose_b1bar(n), at.decompose_b1bar(n)
            q = sys.b2[n - 1] * sys.b2[n - 2]
            assert math.isfinite(rep.delta_bar) and rep.delta_bar != 0.0
            assert (rep.beta_bar == 0.0) == (want.beta_bar == 0.0) == (n % 2 == 0)
            if rep.beta_bar:
                exact = rep.beta_scaled**2 / q
                assert exact == want.beta_scaled**2 / (at.b2[n - 1] * at.b2[n - 2])
                for beta in (rep.beta_bar, want.beta_bar):
                    assert abs(float(F(beta) ** 2 / exact - 1)) < 1e-15
            c_prev, c_over_x = sys.derivative_decomposition(n)
            assert math.isfinite(c_prev) and c_over_x == -rep.beta_bar
            coeffs = sys.derivative_in_basis(n)
            assert coeffs and all(math.isfinite(c) and c != 0.0 for _, c in coeffs)


class TestCorruptCore:
    """Every expansion over the cores runs one triangular elimination; a core
    off by a relative 1e-9 leaves a remainder there, which raises a ValueError
    naming the decomposition's n.  The reduced scan eliminates nothing: it
    names the core's index instead."""

    @pytest.fixture
    def corrupt_sys(self):
        sys = PolynomialSystem(seq_classical(1, 40))
        sys.monic[20] = corrupt_core(sys.monic[20], 20, "scaled")
        return sys

    @pytest.mark.parametrize("call, n", [
        (lambda sys: sys.derivative_in_basis(21), 21),
        (lambda sys: sys.derivative_decomposition(21), 21),
        (lambda sys: sys.decompose_b1bar(20), 20),
    ], ids=["derivative_in_basis", "derivative_decomposition", "decompose_b1bar"])
    def test_remainder_raises(self, corrupt_sys, call, n):
        with pytest.raises(ValueError, match=rf"^the expansion at n = {n} left a remainder: "
                                             r"a monic core is defective"):
            call(corrupt_sys)

    @pytest.mark.parametrize("reader, k, kind", [
        ("derivative_decomposition", 5, "scaled"),
        ("derivative_in_basis", 7, "odd"),
        ("derivative_in_basis", 7, "degree"),
        ("decompose_b1bar", 7, "odd"),
    ])
    def test_a_defect_at_or_below_n_raises_at_n(self, reader, k, kind):
        # a defect in P_k leaves a remainder in the expansion at n = 7, and the
        # route scan locates the core
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), 30))
        sys.monic[k] = corrupt_core(sys.monic[k], k, kind, 1)
        with pytest.raises(ValueError, match=r"^the expansion at n = 7 left a remainder"):
            getattr(sys, reader)(7)
        assert sys.first_route_mismatch(30) == k

    def test_the_reduced_scan_names_the_corrupt_index(self, corrupt_sys):
        assert corrupt_sys.first_reduced_failure(19) is None
        assert corrupt_sys.first_reduced_failure(40) == 20


class TestDerivativeDecomposition:
    def test_eq96_identity(self, classical1_sys):
        # b_{n-1}(gamma_n - delta_n) = v_{n-1} - A_n(2) = n, exactly in squares
        sys = classical1_sys
        for n in range(2, 16):
            rep = sys.decompose_b1bar(n)
            # gamma_n b_{n-1} = v_{n-1} exactly:
            assert sys.g2[n] * sys.b2[n - 1] == sys.seq.values[n - 1] ** 2
            assert sys.seq.values[n - 1] - rep.delta_scaled == n

    def test_classical_coefficients(self, classical1_sys):
        sys = classical1_sys
        gamma = 1.0
        for n in range(2, 13):
            c_prev, c_over_x = sys.derivative_decomposition(n)
            assert c_prev == pytest.approx(n / sys.b_float[n - 1], rel=1e-14)
            theta = gamma if n % 2 == 1 else 0.0
            expect = (n - 1) * theta / (2 * sys.b_float[n - 1] * sys.b_float[n - 2])
            assert c_over_x == pytest.approx(expect, rel=1e-12, abs=1e-14)

    def test_hermite_has_no_x_term(self, hermite_sys):
        for n in range(2, 13):
            c_prev, c_over_x = hermite_sys.derivative_decomposition(n)
            assert c_over_x == 0.0
            assert c_prev == pytest.approx(math.sqrt(2 * n), rel=1e-14)

    def test_pointwise_residual(self, classical1_sys):
        sys = classical1_sys
        table = sys.psi_eval_table(POINT_GRID, 12)
        for n in range(2, 13):
            c_prev, c_over_x = sys.derivative_decomposition(n)
            dcoeffs = np.array([_over_sqrt(c, sys.norm2[n]) for c in sys.monic[n].coeffs])
            for x, row in zip(POINT_GRID, table):
                dpsi = float(np.polyval((dcoeffs[1:] * np.arange(1, n + 1))[::-1], x))
                res = dpsi - c_prev * row[n - 1] - c_over_x * row[n - 2] / x
                assert abs(res) < 1e-10

    def test_x_term_relates_to_beta(self, family15_sys):
        # the 1/x coefficient is the negated decomposition beta
        for n in range(2, 14):
            _, c_over_x = family15_sys.derivative_decomposition(n)
            assert c_over_x == pytest.approx(-family15_sys.decompose_b1bar(n).beta_bar, abs=1e-13)

    def test_rejected_for_non_family(self):
        sys = PolynomialSystem(seq_order2(3, 10))
        with pytest.raises(UnsupportedSystemError):
            sys.derivative_decomposition(4)


class TestOde:
    def test_classical_and_family_residuals(self):
        for seq in (seq_classical(1, 16), seq_family(4, 5, F(1), 16)):
            sys = PolynomialSystem(seq)
            worst = max(abs(sys.ode_residual(n, x)) for n in range(16) for x in POINT_GRID)
            assert worst < 1e-9

    def test_weight_parameters_are_computed_once(self):
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), 16))
        v2, b0sq = sys.seq.values[2], sys.seq.b0_squared
        assert sys.weight_parameters() == ((3 - v2) / (v2 - 1), 1 / (b0sq * (v2 - 1)))
        assert sys.weight_parameters() is sys.weight_parameters()

    def test_family_v2_2_at_spec_points(self):
        sys = PolynomialSystem(seq_family(1, 2, F(1), 16))
        gamma, alpha = sys.weight_parameters()
        assert (gamma, alpha) == (1, 1)
        for n in range(16):
            for x in (0.5, 1.0, 2.3):
                assert abs(sys.ode_residual(n, x)) < 1e-9

    def test_hermite_reduces_to_hermite_equation(self, hermite_sys):
        gamma, alpha = hermite_sys.weight_parameters()
        assert (gamma, alpha) == (0, 1)
        # residual == x(psi'' - 2x psi' + 2n psi); check against a direct evaluation
        n, x = 6, 1.3
        c = np.array([_over_sqrt(c, hermite_sys.norm2[n]) for c in hermite_sys.monic[n].coeffs])
        d1 = (c[1:] * np.arange(1, n + 1))[::-1]
        d2 = (c[2:] * np.arange(2, n + 1) * np.arange(1, n))[::-1]
        direct = x * (np.polyval(d2, x) - 2 * x * np.polyval(d1, x) + 2 * n * np.polyval(c[::-1], x))
        assert hermite_sys.ode_residual(n, x) == pytest.approx(direct, abs=1e-9)

    def test_n200_residual_is_finite(self):
        # norm^2 of psi_200 is past the float range for both systems
        for seq in (seq_hermite(200), seq_classical(F(1, 2), 200)):
            sys = PolynomialSystem(seq)
            worst = max(abs(sys.ode_residual(200, x)) for x in POINT_GRID)
            assert math.isfinite(worst) and worst < 1e-9

    def test_zero_is_rejected(self, classical1_sys):
        for x in (0, 0.0, np.float64(0.0), F(0)):
            with pytest.raises(ValueError, match="regular singular point"):
                classical1_sys.ode_residual(3, x)

    def test_exact_x_without_a_float(self, classical1_sys):
        # the singular point is tested on the exact x: 10^-400 is not 0, and
        # 10^400 has no float, yet a family system's bracket reads 0 at both
        for x in (F(1, 10**400), F(10**400)):
            assert classical1_sys.ode_residual(3, x) == 0.0

    def test_non_family_rejected(self):
        sys = PolynomialSystem(seq_order2(3, 8))
        with pytest.raises(UnsupportedSystemError):
            sys.ode_residual(3, 1.0)
        with pytest.raises(UnsupportedSystemError):
            sys.ode_bracket(3)

    def test_perturbed_alpha_fails(self, classical1_sys):
        # the system's psi_n against the equation of a 5% larger alpha, on the
        # Fraction route, scaled as ode_residual scales
        sys = classical1_sys
        gamma, alpha = sys.weight_parameters()
        worst = max(
            abs(_over_sqrt(ref.ode_bracket(ref.FractionPoly(sys.monic[n].coeffs), n, x, gamma,
                                           float(alpha) * 1.05), sys.norm2[n]))
            for n in range(16)
            for x in POINT_GRID
        )
        assert worst > 1e-3

    @pytest.mark.parametrize("kind", [None, "odd", "degree"])
    def test_a_non_finite_x_is_rejected(self, kind):
        # on the zero bracket and on a defective core's alike
        sys = PolynomialSystem(seq_classical(1, 16))
        if kind is not None:
            sys.monic[3] = corrupt_core(sys.monic[3], 3, kind)
        for x in (math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"),
                  np.float32("nan"), np.float32("-inf"), np.float16("inf"), np.float16("nan")):
            with pytest.raises(ValueError, match="x must be finite"):
                sys.ode_residual(3, x)

    @pytest.mark.parametrize("t", [np.float16, np.float32, np.float64, np.int32, np.int64],
                             ids=lambda t: t.__name__)
    def test_a_numpy_scalar_reads_as_its_python_number(self, t):
        # x converts once: numpy's integers through int, its floats through float
        sys, bad = PolynomialSystem(seq_classical(1, 16)), PolynomialSystem(seq_classical(1, 16))
        bad.monic[3] = corrupt_core(bad.monic[3], 3, "odd")
        py = int if issubclass(t, np.integer) else float
        xs = [t(k) for k in (-3, 1, 2, 5)] if py is int else [t(x) for x in POINT_GRID]
        for x in xs:
            assert sys.ode_residual(3, x).hex() == (0.0).hex()
            assert bad.ode_residual(3, x).hex() == bad.ode_residual(3, py(x)).hex()

    @pytest.mark.parametrize("seq, n, error, match", [
        (seq_classical(1, 16), 17, ValueError, r"n must be in \[0, 16\]"),
        (seq_classical(1, 16), -1, ValueError, r"n must be in \[0, 16\]"),
        (seq_order2(3, 16), 17, ValueError, r"n must be in \[0, 16\]"),
        (seq_order2(3, 16), 3, UnsupportedSystemError, "only for family systems"),
    ], ids=["above", "negative", "non-family-above", "non-family"])
    def test_a_rejected_call_reads_no_core(self, seq, n, error, match):
        sys = PolynomialSystem(seq)
        with pytest.raises(error, match=match):
            sys.ode_residual(n, 0.5)
        with pytest.raises(error, match=match):
            sys.first_ode_failure(n)
        assert len(sys._monic) == 2 and sys._ode_proved == {}

    @pytest.fixture
    def bracket_builds(self, monkeypatch):
        """The n of every ODE bracket built, in order: a build forms its Poly by
        Poly.from_numerators called from ode_bracket itself (the cores it grows
        are formed one frame further down, in _next_monic), and a call that
        finds its core proved returns without one."""
        ns, build = [], Poly.from_numerators.__func__
        bracket_code = PolynomialSystem.ode_bracket.__code__

        def counted(cls, nums, den=1):
            caller = inspect.currentframe().f_back
            if caller.f_code is bracket_code:
                ns.append(caller.f_locals["n"])
            return build(cls, nums, den)

        monkeypatch.setattr(Poly, "from_numerators", classmethod(counted))
        return ns

    @pytest.mark.parametrize("seq", [seq_hermite(64), seq_classical(F(1, 3), 64),
                                     seq_family(F(2, 3), F(5, 3), F(3, 7), 64)],
                             ids=["hermite", "classical_1_3", "family"])
    @pytest.mark.parametrize("n", [0, 1, 16, 64])
    def test_a_grid_builds_the_bracket_once(self, bracket_builds, seq, n):
        sys = PolynomialSystem(seq)
        core, (g, a) = ref.monic_cores(sys.b2, n)[n], sys.weight_parameters()
        for x in POINT_GRID:
            want = _over_sqrt(ref.ode_bracket(core, n, x, g, a), sys.norm2[n])
            assert sys.ode_residual(n, x).hex() == want.hex()
        assert bracket_builds == [n]

    def test_a_scan_proves_every_bracket_it_reads(self, bracket_builds):
        N = 40
        sys = PolynomialSystem(seq_classical(F(1, 3), N))
        assert sys.first_ode_failure(30) is None
        assert bracket_builds == list(range(31))
        for n in range(31):
            assert [sys.ode_residual(n, x) for x in POINT_GRID] == [0.0] * len(POINT_GRID)
        assert sys.first_ode_failure(30) is None
        assert bracket_builds == list(range(31))
        assert sys.first_ode_failure(N) is None
        assert bracket_builds == list(range(N + 1))

    @pytest.mark.parametrize("kind", ["even", "odd", "degree", "scaled"])
    def test_a_swapped_core_is_proved_again(self, bracket_builds, kind):
        # a defective core's bracket is built on every call and reads the same
        # value each time; a scaled core solves the (linear) equation, so its
        # zero bracket is proved once, as the core it replaced was
        N = 40
        sys = PolynomialSystem(seq_family(F(2, 3), F(5, 3), F(3, 7), N))
        g, a = sys.weight_parameters()
        assert sys.ode_residual(17, 1.3) == 0.0 and sys.first_ode_failure(N) is None
        sys.monic[17] = corrupt_core(sys.monic[17], 17, kind, 3)
        core = ref.FractionPoly(sys.monic[17].coeffs)
        want = [_over_sqrt(ref.ode_bracket(core, 17, x, g, a), sys.norm2[17]).hex()
                for x in POINT_GRID]
        assert (set(want) == {(0.0).hex()}) == (kind == "scaled")
        for _ in range(2):
            assert [sys.ode_residual(17, x).hex() for x in POINT_GRID] == want
        assert sys.first_ode_failure(N) == (None if kind == "scaled" else 17)
        rebuilt = 1 if kind == "scaled" else 2 * len(POINT_GRID) + 1
        assert bracket_builds.count(17) == 1 + rebuilt


class TestWeightScan:
    """first_weight_mismatch: b_{n-1}^2 = (n + gamma [n odd]) / (2 alpha), the
    recurrence of the weight's monic orthogonal polynomials, on b2_row's
    integers and the weight's integer pair, with no core, no b^2 Fraction and
    no float."""

    SEQUENCES = {
        "hermite": lambda N: seq_hermite(N),
        "classical_1_3": lambda N: seq_classical(F(1, 3), N),
        "classical_-99_100": lambda N: seq_classical(F(-99, 100), N),
        "family_2_3_5_3_3_7": lambda N: seq_family(F(2, 3), F(5, 3), F(3, 7), N),
        "family_7_3_11_3_8_3": lambda N: seq_family(F(7, 3), F(11, 3), F(8, 3), N),
    }

    @pytest.mark.parametrize("name", list(SEQUENCES))
    def test_holds_for_every_n_to_1000(self, name):
        sys = PolynomialSystem(self.SEQUENCES[name](1000))
        assert sys.first_weight_mismatch(1000) is None
        assert len(sys._monic) == 2 and not {"b2", "b2_float"} & set(vars(sys))

    @pytest.mark.parametrize("name", list(SEQUENCES))
    def test_gives_wigner_s_commutator_and_the_levels(self, name):
        # on the b^2 Fractions: 2 (b_n^2 - b_{n-1}^2) = (1 + gamma (-1)^n) / alpha
        # and 2 (b_{n-1}^2 + b_n^2) = (2n + gamma + 1) / alpha, b_{-1} = 0
        sys = PolynomialSystem(self.SEQUENCES[name](60))
        gamma, alpha = sys.weight_parameters()
        b2 = [F(0), *sys.b2]  # b2[n] = b_{n-1}^2
        for n in range(60):
            assert 2 * (b2[n + 1] - b2[n]) == (1 + gamma * (-1) ** n) / alpha
            assert 2 * (b2[n] + b2[n + 1]) == (2 * n + gamma + 1) / alpha

    @pytest.mark.parametrize("k", [0, 1, 40, 999])
    def test_a_perturbed_b2_fails_at_its_n(self, k):
        sys = PolynomialSystem(self.SEQUENCES["family_2_3_5_3_3_7"](1000))
        B, M = sys.b2_row
        sys.b2_row = ([b + (i == k) for i, b in enumerate(B)], M)
        assert sys.first_weight_mismatch(1000) == k + 1
        assert sys.first_weight_mismatch(k) is None

    @pytest.mark.parametrize("name", list(SEQUENCES))
    def test_alpha_off_by_1e_6_fails_at_1(self, name):
        sys = PolynomialSystem(self.SEQUENCES[name](40))
        gamma, alpha = sys.weight_parameters()
        sys._weight_nums = common_denominator((gamma, alpha * (1 + F(1, 10**6))))
        assert sys.first_weight_mismatch(40) == 1

    @pytest.mark.parametrize("seq", [
        seq_order2(3, 20), seq_order3(F(7, 3), F(17, 3), 20, F(8, 3)),
        propagated_compatible_sequence(2, 3, 6, 20),
    ], ids=["order2", "order3", "compatible"])
    def test_a_non_family_system_raises(self, seq):
        with pytest.raises(UnsupportedSystemError):
            PolynomialSystem(seq).first_weight_mismatch(20)

    def test_n_hi_past_n_max_is_refused(self):
        with pytest.raises(ValueError, match=r"n must be in \[0, 20\]"):
            PolynomialSystem(seq_hermite(20)).first_weight_mismatch(21)


ODE_SEQUENCES = {
    "classical_1": seq_classical(1, 64),
    "family": seq_family(F(2, 3), F(5, 3), F(3, 7), 64),
    "hermite": seq_hermite(64),
}


@pytest.fixture(scope="module")
def ode_systems():
    return {name: PolynomialSystem(seq) for name, seq in ODE_SEQUENCES.items()}


@pytest.mark.parametrize("name", list(ODE_SEQUENCES))
class TestOdeBracket:
    """The second-order equation as an exact polynomial identity."""

    def test_zero_polynomial_for_every_n(self, ode_systems, name):
        sys = ode_systems[name]
        assert [n for n in range(65) if not sys.ode_bracket(n).is_zero()] == []

    def test_mismatched_parameters_leave_a_nonzero_bracket(self, ode_systems, name):
        # the equation names the weight: on the Fraction route, the cores of the
        # system leave a nonzero bracket at a 5% larger alpha and at gamma + 1/3,
        # except that n = 0 and 1 solve the equation for every (gamma, alpha)
        sys = ode_systems[name]
        gamma, alpha = sys.weight_parameters()
        for g, a in ((gamma, float(alpha) * 1.05), (gamma + F(1, 3), alpha)):
            assert all(not ref.ode_bracket_composed(ref.FractionPoly(sys.monic[n].coeffs),
                                                    n, g, a).is_zero() for n in range(2, 65))

    def test_equals_the_composition_reference(self, name):
        # the two-term coefficient relation against the bracket composed from
        # derivative, shift, scale and sum, on the system's cores and on
        # corrupted ones (the zero bracket and nonzero ones)
        for kind in (None, "even", "odd", "degree"):
            sys = PolynomialSystem(ODE_SEQUENCES[name])
            gamma, alpha = sys.weight_parameters()
            for n in range(65):
                if kind is not None:
                    sys.monic[n] = corrupt_core(sys.monic[n], n, kind, n)
                want = ref.ode_bracket_composed(ref.FractionPoly(sys.monic[n].coeffs), n,
                                                gamma, alpha)
                assert sys.ode_bracket(n).coeffs == want.coeffs


@settings(max_examples=40, deadline=None)
@given(
    v1=st.fractions(F(1, 4), F(5), max_denominator=4),
    v2=st.fractions(F(5, 4), F(5), max_denominator=4),
    b0sq=st.fractions(F(1, 4), F(3), max_denominator=4),
    n=st.integers(0, 30),
    kind=st.sampled_from(["even", "odd", "degree"]),
    j=st.integers(0, 20),
)
def test_ode_bracket_equals_the_composition_reference(v1, v2, b0sq, n, kind, j):
    # random family parameters, on the system's core P_n and on a corrupted one
    assume(v1 <= v2)
    sys = PolynomialSystem(seq_family(v1, v2, b0sq, 30))
    gamma, alpha = sys.weight_parameters()
    for core in (sys.monic[n], corrupt_core(sys.monic[n], n, kind, j)):
        sys.monic[n] = core
        want = ref.ode_bracket_composed(ref.FractionPoly(core.coeffs), n, gamma, alpha)
        assert sys.ode_bracket(n).coeffs == want.coeffs


DEFECT_SEQUENCES = {
    "classical_1_3": seq_classical(F(1, 3), 30),
    "family": seq_family(F(2, 3), F(5, 3), F(3, 7), 30),
    "order3": seq_order3(F(7, 3), F(17, 3), 30, F(8, 3)),
}
FAMILIES = ("classical_1_3", "family")
# (reader, system, n, defect kind): each reader runs on a system whose core P_n
# has one defect.  derivative_decomposition divides x P_n' - n x P_{n-1} by
# P_{n-2}, which stays exact for a defect in P_3's x^1 slot (P_1 = x)
DEFECT_CASES = [
    *[(r, name, n, "even") for r in ("decompose_b1bar", "derivative_in_basis")
      for name in DEFECT_SEQUENCES for n in (7, 20)],
    *[("derivative_decomposition", name, 3, "even") for name in FAMILIES],
    *[("ode_residual", name, n, kind) for name in FAMILIES for n in (7, 20)
      for kind in ("even", "odd", "degree")],
]


def defect_floats(reader, name, n, kind):
    """The system with the defect in P_n, and the reader's floats at n as hex."""
    sys = PolynomialSystem(DEFECT_SEQUENCES[name])
    sys.monic[n] = corrupt_core(sys.monic[n], n, kind, 1)
    if reader == "decompose_b1bar":
        rep = sys.decompose_b1bar(n)
        out = [rep.delta_bar, rep.beta_bar]
    elif reader == "derivative_in_basis":
        out = [c for _, c in sys.derivative_in_basis(n)]
    elif reader == "derivative_decomposition":
        out = list(sys.derivative_decomposition(n))
    else:
        out = [sys.ode_residual(n, x) for x in (-2.5, 0.3, 3.7)]
    return sys, [x.hex() for x in out]


# defect_floats on each case, as the psi-scalings formed from the b2 view give them
DEFECT_FLOATS = {
    "decompose_b1bar-classical_1_3-7-even": [
        "-0x1.91132de9a584cp-1", "-0x1.34bf63985bd6dp-2",
    ],
    "decompose_b1bar-classical_1_3-20-even": [
        "-0x1.94c583ada5b52p+0", "0x1.7c0ccd1c3293dp-25",
    ],
    "decompose_b1bar-family-7-even": [
        "-0x1.c38aa37c3f68dp+1", "-0x1.a20bd6d6adcbap+0",
    ],
    "decompose_b1bar-family-20-even": [
        "-0x1.f8d6bc21a583cp+2", "0x1.080fd95e855a4p-23",
    ],
    "decompose_b1bar-order3-7-even": [
        "0x1.c3b9795e22ffap-1", "0x1.4dd40fc81dddap+1",
    ],
    "decompose_b1bar-order3-20-even": [
        "0x1.a91f92985895bp+0", "0x1.67d38e7f52182p+3",
    ],
    "derivative_in_basis-classical_1_3-7-even": [
        "0x1.d3ebb59096703p+1", "0x1.7a23150523fc1p-3", "-0x1.9e3a7a9da3e28p-3",
        "0x1.fb52f76576ed0p-3",
    ],
    "derivative_in_basis-classical_1_3-20-even": [
        "0x1.94c583ada5b52p+2", "-0x1.fabbbc2598c52p-25", "-0x1.07b65f416540bp-21",
        "-0x1.e2f916bdf6312p-20", "-0x1.fd1926aa3c329p-19", "-0x1.52bc3c37e87d3p-18",
        "-0x1.24b3642d28643p-18", "-0x1.4397c51ee51cdp-19", "-0x1.ab082529ad660p-21",
        "-0x1.13a5d9ab7c748p-23",
    ],
    "derivative_in_basis-family-7-even": [
        "0x1.8b194f0cb77bbp+2", "0x1.a20bd6b1db726p+0", "-0x1.75e9751a7a162p+0",
        "0x1.314c3d269edacp+0",
    ],
    "derivative_in_basis-family-20-even": [
        "0x1.7aa10d193c22dp+3", "-0x1.ee03bcc3c40c0p-24", "-0x1.0d2b82c6e68a0p-20",
        "-0x1.0388d4d3a0859p-18", "-0x1.222b1b91e252ep-17", "-0x1.9d8db7a55c559p-17",
        "-0x1.83f299215ace1p-17", "-0x1.db230b753457cp-18", "-0x1.672b7380acdd7p-19",
        "-0x1.1bf2d7bae7e3cp-21",
    ],
    "derivative_in_basis-order3-7-even": [
        "0x1.8331437542920p-4", "-0x1.63253213126abp-4", "0x1.9f42d8048c9a5p-4",
        "-0x1.716f3c09070dcp-5",
    ],
    "derivative_in_basis-order3-20-even": [
        "0x1.152902feebf41p-6", "-0x1.99ab10c4381dep-7", "0x1.75548399b105ap-7",
        "-0x1.6fdc091d33108p-7", "0x1.7ce36b3e17592p-7", "-0x1.9ba38bc6c71fcp-7",
        "0x1.d1eca39d6dec8p-7", "-0x1.177bebea2549ap-6", "0x1.67fa5b8883683p-6",
        "-0x1.997138c7fb828p-6",
    ],
    "derivative_decomposition-classical_1_3-3-even": [
        "0x1.2971f372f95b6p+1", "0x1.08654a1721932p-2",
    ],
    "derivative_decomposition-family-3-even": [
        "0x1.c65adc84ae903p+1", "0x1.43d1361dba15fp+0",
    ],
    "ode_residual-classical_1_3-7-even": [
        "-0x1.4af6f7a2f9e0dp-19", "-0x1.0739f255efd5ep-32", "-0x1.45fb02b1bb884p-16",
    ],
    "ode_residual-classical_1_3-7-odd": [
        "-0x1.cf527f0d45e35p+1", "0x1.b7a0744e05185p-10", "0x1.61b6553883790p+4",
    ],
    "ode_residual-classical_1_3-7-degree": [
        "0x1.2555337e1d65ap+13", "0x1.3c964f75f297cp-11", "0x1.524bfc9d7e9f7p+16",
    ],
    "ode_residual-classical_1_3-20-even": [
        "0x1.786c7cc093ef4p-14", "-0x1.5c9cea8841474p-66", "-0x1.39beff8f8b9f5p-4",
    ],
    "ode_residual-classical_1_3-20-odd": [
        "0x1.81757eeec8994p-8", "0x1.6223df0f8788ep-57", "0x1.c76eddff8b17dp+1",
    ],
    "ode_residual-classical_1_3-20-degree": [
        "-0x1.75915cd0bbb41p+15", "0x1.4e9b4f41976c7p-49", "0x1.402ecc4f852cbp+27",
    ],
    "ode_residual-family-7-even": [
        "-0x1.37028b351e56bp-14", "-0x1.0bad62d6ab2fbp-28", "-0x1.62bb57dffd32bp-11",
    ],
    "ode_residual-family-7-odd": [
        "-0x1.959416fa330d8p+7", "0x1.7e8f3d84c83a3p-5", "0x1.5065c05e7dad0p+10",
    ],
    "ode_residual-family-7-degree": [
        "0x1.965b247b663c6p+11", "0x1.8d4c33bbff836p-6", "-0x1.d9754f346c161p+23",
    ],
    "ode_residual-family-20-even": [
        "0x1.7b6331494fd6dp+1", "-0x1.2ef58630c11a5p-51", "-0x1.6905a21463c35p+11",
    ],
    "ode_residual-family-20-odd": [
        "0x1.bea82b1e35a29p+2", "0x1.47590f4491e48p-47", "0x1.39b8dc70ea747p+12",
    ],
    "ode_residual-family-20-degree": [
        "-0x1.c048f47e16e2fp+31", "0x1.cad49fcad54d7p-33", "0x1.354f73003b266p+43",
    ],
}


@pytest.mark.parametrize("case", DEFECT_CASES, ids=lambda case: "-".join(map(str, case)))
def test_a_defective_core_reads_the_same_floats_from_b2_row(case):
    sys, got = defect_floats(*case)
    assert got == DEFECT_FLOATS["-".join(map(str, case))] and "b2" not in vars(sys)


REFERENCE_SEQUENCES = {
    "hermite": seq_hermite(60),
    "classical_1_3": seq_classical(F(1, 3), 60),
    "family": seq_family(F(7, 3), F(11, 3), F(8, 3), 60),
    "order2": seq_order2(3, 60),
    "order3": seq_order3(F(7, 3), F(17, 3), 60, F(8, 3)),
}


@pytest.fixture(scope="module")
def reference_pairs():
    """{name: (system, reference monic cores in Fraction arithmetic)}."""
    out = {}
    for name, seq in REFERENCE_SEQUENCES.items():
        sys = PolynomialSystem(seq)
        out[name] = (sys, ref.monic_cores(sys.b2, sys.n_max))
    return out


class TestFractionReference:
    """The integer kernel against the Fraction routes it replaced
    (tests/fraction_reference.py): the same exact rationals and the same
    float bits."""

    def test_monic_cores(self, reference_pairs):
        for sys, cores in reference_pairs.values():
            assert [p.coeffs for p in sys.monic] == [p.coeffs for p in cores]

    def test_eliminations(self, reference_pairs):
        for sys, cores in reference_pairs.values():
            first = next((n for n in range(1, 41)
                          if not ref.lowering_remainder(sys.seq.values, cores, n).is_zero()), None)
            assert sys.first_lowering_failure(40) == first
            first = next((n for n in range(2, 41)
                          if ref.decompose_b1bar(sys.seq.values, cores, n)[2]), None)
            assert sys.first_reduced_failure(40) == first
            for n in range(2, 41):
                rep = sys.decompose_b1bar(n)
                got = (rep.delta_scaled, rep.beta_scaled, rep.tail_scaled, rep.support)
                assert got == ref.decompose_b1bar(sys.seq.values, cores, n)
                expansion = ref.derivative_core_expansion(cores, n)
                want = ref.derivative_in_basis(expansion, sys.norm2, n)
                assert sys.derivative_in_basis(n) == want
                if sys.is_family:
                    _, c_over_x = sys.derivative_decomposition(n)
                    c2 = ref.derivative_decomposition_c2(cores, n)
                    assert c_over_x == float(c2) / math.sqrt(float(sys.b2[n - 1] * sys.b2[n - 2]))

    @pytest.mark.parametrize("name", ["hermite", "classical_1_3", "family"])
    def test_ode_residual_bit_identical(self, reference_pairs, name):
        # on the reference cores, and on a system whose core n has a defect of
        # one of three kinds, each against the Fraction route on that core
        sys, cores = reference_pairs[name]
        gamma, alpha = sys.weight_parameters()
        bad = PolynomialSystem(sys.seq)
        for n in range(0, 61, 3):
            bad.monic[n] = corrupt_core(sys.monic[n], n, ("even", "odd", "degree")[n % 3], n)
            for x in POINT_GRID[::2]:
                want = _over_sqrt(ref.ode_bracket(cores[n], n, x, gamma, alpha), sys.norm2[n])
                assert sys.ode_residual(n, x).hex() == want.hex()
                want = _over_sqrt(ref.ode_bracket(ref.FractionPoly(bad.monic[n].coeffs), n, x,
                                                  gamma, alpha), sys.norm2[n])
                assert bad.ode_residual(n, x).hex() == want.hex()

    def test_normalized_evaluation_bit_identical(self, reference_pairs):
        # psi_n(x) = P_n(x) / nu_n: the core by the integer Horner rule, then
        # the one rounding of the normalization
        for sys, cores in reference_pairs.values():
            for n in range(0, 61, 5):
                for x in (-4.75, -0.3, 1.0, 3.125, 7.5):
                    got = _over_sqrt(sys.monic[n](F(x)), sys.norm2[n])
                    want = _over_sqrt(cores[n](F(x)), sys.norm2[n])
                    assert got.hex() == want.hex()


class TestDerivativeInBasis:
    @pytest.mark.parametrize("seq", [seq_hermite(60), seq_classical(F(1, 2), 60),
                                     seq_family(F(7, 3), F(11, 3), F(8, 3), 60)])
    def test_bit_identical_where_the_plain_formula_fits(self, seq):
        sys = PolynomialSystem(seq)
        cores = ref.monic_cores(sys.b2, sys.n_max)
        for n in range(1, 61):
            want = ref.derivative_in_basis(ref.derivative_core_expansion(cores, n), sys.norm2, n)
            assert sys.derivative_in_basis(n) == want

    @pytest.mark.parametrize("seq,n", [
        (seq_order2(3, 200), 120),
        (seq_order2(3, 200), 150),
        (seq_order3(2, 5, 160), 80),
        (seq_order3(2, 5, 160), 120),
    ])
    def test_no_underflow_or_overflow_past_the_float_range(self, seq, n):
        # the plain formula returns 0.0 for half these coefficients at the
        # first n of each sequence and raises OverflowError at the second
        sys = PolynomialSystem(seq)
        expansion = ref.derivative_core_expansion(ref.monic_cores(sys.b2, n), n)
        got = sys.derivative_in_basis(n)
        nonzero = [(n - 1 - 2 * j, e) for j, e in enumerate(expansion) if e != 0]
        assert [idx for idx, _ in got] == [idx for idx, _ in nonzero]
        for (_, c), (idx, e) in zip(got, nonzero):
            # exact reference: c^2 against e^2 norm2[idx] / norm2[n]
            assert math.isfinite(c) and (c > 0) == (e > 0)
            exact = e * e * sys.norm2[idx] / sys.norm2[n]
            assert abs(float(F(c) ** 2 / exact - 1)) < 1e-15
