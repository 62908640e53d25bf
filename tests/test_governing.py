from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermite_chihara import (
    ConstructionError,
    GoverningSequence,
    PolynomialSystem,
    bracket_table,
    gamma_squares,
    is_special_family,
    recurrence_squares,
    seq_classical,
    seq_family,
    seq_hermite,
    seq_order2,
    seq_order3,
    validate,
)
from fraction_reference import validate as validate_fractions

rationals = st.fractions(min_value=F(1), max_value=F(8), max_denominator=6)


def first_violation_oracle(values):
    """Independent scan of the compatibility identity (v_{-1} = 0)."""
    v = lambda i: F(0) if i == -1 else values[i]
    for n in range(2, len(values)):
        for p in range(1, n // 2 + 1):
            lhs = v(n - 2) * v(2 * p - 1) + v(2 * p - 3) * v(n - 2 * p)
            rhs = v(n) * v(2 * p - 3) + v(2 * p - 1) * v(n - 2 * p)
            if lhs != rhs:
                return (n, p)
    return None


class TestConstructors:
    def test_hermite_values(self):
        assert seq_hermite(3).values == (1, 2, 3, 4)
        assert seq_hermite(1).values == (1, 2)
        assert seq_hermite(5).b0_squared == F(1, 2)

    def test_hermite_validates(self):
        assert validate(seq_hermite(20)).ok

    def test_order2_reduces_to_hermite(self):
        # v1 = 2: n(n+1) - n^2 + 1 = n + 1
        assert seq_order2(2, 12).values == seq_hermite(12).values

    def test_order2_squares(self):
        assert seq_order2(4, 3).values == (1, 4, 9, 16)

    def test_order2_rejects_non_monotone(self):
        with pytest.raises(ConstructionError):
            seq_order2(F(3, 2), 10)

    def test_order3_cubes(self):
        seq = seq_order3(8, 27, 6)
        assert seq.values[2] == 27
        assert seq.values[3] == 64
        assert seq.values == tuple(F((n + 1) ** 3) for n in range(7))

    def test_order3_keeps_v1_parameter(self):
        assert seq_order3(8, 30, 5).values[1] == 8

    def test_classical_gamma0_is_hermite(self):
        assert seq_classical(0, 12).values == seq_hermite(12).values
        assert seq_classical(0, 12).b0_squared == F(1, 2)

    def test_classical_gamma1(self):
        seq = seq_classical(1, 5)
        assert seq.values == (1, 1, 2, 2, 3, 3)
        # v1 = 2/(gamma+1) = 1 = 1/b0^2
        assert seq.values[1] == 1 == 1 / seq.b0_squared

    def test_classical_rejects_gamma(self):
        with pytest.raises(ValueError):
            seq_classical(-1, 5)

    def test_family_2_3_is_hermite(self):
        assert seq_family(2, 3, F(1, 2), 16).values == seq_hermite(16).values

    def test_family_1_2_is_classical_gamma1(self):
        assert seq_family(1, 2, F(1), 10).values == seq_classical(1, 10).values

    def test_family_1_5_validates_despite_non_monotone(self):
        seq = seq_family(1, 5, F(1), 12)
        rep = validate(seq)
        assert rep.ok
        assert not rep.monotone

    def test_family_rejects_bad_params(self):
        with pytest.raises(ValueError):
            seq_family(3, 2, F(1), 8)
        with pytest.raises(ValueError):
            seq_family(0, 2, F(1), 8)

    def test_constructor_guards(self):
        with pytest.raises(ValueError):
            GoverningSequence((F(2), F(3)), F(1))  # v0 != 1
        with pytest.raises(ValueError):
            GoverningSequence((F(1), F(-1)), F(1))
        with pytest.raises(ValueError):
            GoverningSequence((F(1), F(2)), F(0))
        with pytest.raises(ValueError):
            GoverningSequence((), F(1))
        with pytest.raises(TypeError):
            GoverningSequence((F(1), 2.5), F(1))


class TestValidate:
    def test_needs_three_entries(self):
        with pytest.raises(ValueError):
            validate(GoverningSequence((F(1), F(2)), F(1)))

    def test_hermite_identity_at_4_2(self):
        # direct substitution: 3*4 + 2*1 = 5*2 + 4*1 = 14
        v = seq_hermite(6).values
        assert v[2] * v[3] + v[1] * v[0] == 14 == v[4] * v[1] + v[3] * v[0]
        assert validate(seq_hermite(6)).ok

    def test_constant_sequence_passes(self):
        seq = GoverningSequence((F(1),) * 8, F(1))
        rep = validate(seq)
        assert rep.ok and rep.monotone

    def test_first_violation_witness(self):
        # brute-force oracle: smallest v3 for which {1,1,2,v3,v3+3} first
        # breaks the identity at (4,2); every v3 with v3+3 != v3(v2-1)+1 does
        values = (F(1), F(1), F(2), F(5), F(8))
        oracle = first_violation_oracle(values)
        assert oracle == (4, 2)
        rep = validate(GoverningSequence(values, F(1)))
        assert not rep.ok
        assert rep.first_violation == (4, 2)

    def test_order2_family_not_compatible(self):
        rep = validate(seq_order2(3, 8))
        assert rep.monotone
        assert not rep.compatible
        assert rep.first_violation == first_violation_oracle(seq_order2(3, 8).values)

    @settings(max_examples=25, deadline=None)
    @given(v1=rationals, v2=rationals, n=st.integers(min_value=4, max_value=14))
    def test_family_always_compatible(self, v1, v2, n):
        if v1 > v2:
            v1, v2 = v2, v1
        seq = seq_family(v1, v2, F(1), n)
        assert validate(seq).ok

    @settings(max_examples=20, deadline=None)
    @given(gamma=st.fractions(min_value=F(-1, 2), max_value=F(6), max_denominator=4))
    def test_classical_always_compatible(self, gamma):
        assert validate(seq_classical(gamma, 12)).ok


    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["family", "classical", "order2", "free"]),
        a=rationals,
        b=rationals,
        index=st.integers(min_value=1, max_value=14),
        bump=st.fractions(min_value=F(-1, 2), max_value=F(3), max_denominator=7),
    )
    def test_integer_check_matches_fraction_reference(self, kind, a, b, index, bump):
        # compatible sequences, then one entry bumped, so the first violation
        # (and monotonicity) moves around the range
        lo, hi = min(a, b), max(a, b)
        build = {
            "family": lambda: seq_family(lo, hi, F(1), 14),
            "classical": lambda: seq_classical(a - 1, 14),
            "order2": lambda: seq_order2(a + 1, 14),
            "free": lambda: GoverningSequence((F(1), a, b, *(a + b * k for k in range(12))), F(1)),
        }
        values = list(build[kind]().values)
        for bumped in (values, [*values[:index], values[index] + bump, *values[index + 1:]]):
            assume(min(bumped) > 0)
            seq = GoverningSequence(tuple(bumped), F(1, 3))
            assert validate(seq) == validate_fractions(seq)


class TestDerivedTables:
    def test_hermite_brackets_are_integers(self):
        br = bracket_table(seq_hermite(20))
        assert br == [F(n) for n in range(21)]

    def test_bracket_1_is_always_1(self):
        for seq in (seq_hermite(8), seq_classical(2, 8), seq_family(1, 5, F(1), 8)):
            assert bracket_table(seq)[1] == 1

    def test_classical_gamma1_bracket2(self):
        assert bracket_table(seq_classical(1, 6))[2] == 1

    def test_constant_sequence_has_no_system(self):
        with pytest.raises(ValueError):
            bracket_table(GoverningSequence((F(1),) * 6, F(1)))

    def test_hermite_b_squared(self):
        b2 = recurrence_squares(seq_hermite(12))
        assert b2 == [F(n, 2) for n in range(1, 13)]
        assert b2[0] == seq_hermite(12).b0_squared

    def test_classical_b_squared_parity(self):
        gamma = F(3)
        b2 = recurrence_squares(seq_classical(gamma, 14))
        for n in range(1, 15):
            expect = F(n, 2) if n % 2 == 0 else (n + gamma) / 2
            assert b2[n - 1] == expect

    def test_hermite_gamma_squared(self):
        g2 = gamma_squares(seq_hermite(12))
        assert g2[1:] == [F(2 * n) for n in range(1, 13)]

    def test_float_conveniences(self):
        import math

        sys = PolynomialSystem(seq_hermite(8))
        assert sys.b_float[0] == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert sys.b_float[3] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert sys.gamma_float[4] == pytest.approx(math.sqrt(8.0), rel=1e-15)

    def test_gamma1_is_inverse_b0(self):
        for seq in (seq_hermite(6), seq_classical(5, 6), seq_family(2, 7, F(3), 6)):
            assert gamma_squares(seq)[1] == 1 / seq.b0_squared

    def test_classical_gamma_closed_form(self):
        gamma = F(1)
        g2 = gamma_squares(seq_classical(gamma, 12))
        for n in range(1, 13):
            num = 2 * n if n % 2 == 0 else 2 * (n + gamma)
            assert g2[n] == F(num) / (gamma + 1) ** 2

    @settings(max_examples=25, deadline=None)
    @given(
        v1=rationals,
        v2=rationals,
        b0sq=st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4),
    )
    def test_roundtrip_gamma_b_is_v(self, v1, v2, b0sq):
        if v1 > v2:
            v1, v2 = v2, v1
        assume(v2 > 1)  # v2 = 1 degenerates to zero brackets (no system)
        seq = seq_family(v1, v2, b0sq, 12)
        b2 = recurrence_squares(seq)
        g2 = gamma_squares(seq)
        for n in range(1, 13):
            assert g2[n] * b2[n - 1] == seq.values[n - 1] ** 2

    def test_roundtrip_on_incompatible_sequence_too(self):
        seq = seq_order2(3, 10)
        b2, g2 = recurrence_squares(seq), gamma_squares(seq)
        for n in range(1, 11):
            assert g2[n] * b2[n - 1] == seq.values[n - 1] ** 2


class TestSpecialFamily:
    def test_hermite_detection(self):
        ok, params = is_special_family(seq_hermite(16))
        assert ok and params == (2, 3)

    def test_classical_detection(self):
        for gamma in (F(0), F(1), F(2), F(7, 2)):
            ok, params = is_special_family(seq_classical(gamma, 14))
            assert ok
            assert params == (2 / (gamma + 1), 1 + 2 / (gamma + 1))

    def test_order2_not_family(self):
        # odd entries grow quadratically, so v3 != 2 v1
        seq = seq_order2(3, 10)
        assert seq.values[3] != 2 * seq.values[1]
        assert is_special_family(seq) == (False, None)

    @settings(max_examples=25, deadline=None)
    @given(
        v1=rationals,
        v2=rationals,
        n_short=st.integers(min_value=3, max_value=8),
        n_long=st.integers(min_value=9, max_value=20),
    )
    def test_prefix_decision_is_stable(self, v1, v2, n_short, n_long):
        if v1 > v2:
            v1, v2 = v2, v1
        long = seq_family(v1, v2, F(1), n_long)
        short = GoverningSequence(long.values[: n_short + 1], long.b0_squared)
        assert is_special_family(short) == is_special_family(long)


class TestJson:
    def test_round_trip(self):
        seq = seq_classical(F(5, 3), 9)
        again = GoverningSequence.from_json(seq.to_json())
        assert again == seq

    def test_schema_shape(self):
        d = seq_hermite(2).to_json_dict()
        assert d == {"values": ["1", "2", "3"], "b0_squared": "1/2"}
