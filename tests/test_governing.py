import json
import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from hermite_chihara import (
    ConstructionError,
    GoverningSequence,
    PolynomialSystem,
    b_squares,
    bracket_table,
    family_weight,
    gamma_squares,
    is_special_family,
    seq_classical,
    seq_family,
    seq_hermite,
    seq_order2,
    seq_order3,
    validate,
)
from conftest import propagated_compatible_sequence
from fraction_reference import validate as validate_fractions
import hermite_chihara.governing as governing
from hermite_chihara.cli import main
from hermite_chihara.governing import as_fraction, common_denominator

rationals = st.fractions(min_value=F(1), max_value=F(8), max_denominator=6)


class TestConstructors:
    def test_hermite_values(self):
        assert seq_hermite(3).values == (1, 2, 3, 4)
        assert seq_hermite(1).values == (1, 2)
        assert seq_hermite(5).b0_squared == F(1, 2)
        with pytest.raises(ValueError, match="N must be >= 1"):
            seq_hermite(0)

    def test_hermite_validates(self):
        assert validate(seq_hermite(20)).ok

    def test_order2_reduces_to_hermite(self):
        # v1 = 2: n(n+1) - n^2 + 1 = n + 1
        assert seq_order2(2, 12).values == seq_hermite(12).values

    def test_order2_squares(self):
        assert seq_order2(4, 3).values == (1, 4, 9, 16)

    @pytest.mark.parametrize("make, want_make", [
        (lambda: seq_order2(F(3, 2), 10), lambda: ref.seq_order2(F(3, 2), 10)),
        (lambda: seq_order3(5, 5, 10), lambda: ref.seq_order3(5, 5, 10)),
        (lambda: seq_order3(3, F(23, 4), 40), lambda: ref.seq_order3(3, F(23, 4), 40)),
    ], ids=["order2 3/2", "order3 (5, 5)", "order3 (3, 23/4)"])
    def test_order2_rejects_non_monotone(self, make, want_make):
        # the first index that is not positive nondecreasing, with the Fraction
        # reference's message
        with pytest.raises(ConstructionError) as want:
            want_make()
        with pytest.raises(ConstructionError) as got:
            make()
        assert str(got.value) == str(want.value)

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

    def test_classical_alpha_sets_b0_alone(self):
        # b0^2 = (gamma + 1)/(2 alpha), and the weight reads alpha back
        seq = seq_classical(F(1, 3), 12, F(3, 2))
        assert seq.values == seq_classical(F(1, 3), 12).values and seq.b0_squared == F(4, 9)
        assert family_weight(seq) == (F(1, 3), F(3, 2))

    @pytest.mark.parametrize("alpha", [0, -1, F(-1, 2)])
    def test_classical_alpha_must_be_positive(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must be > 0$"):
            seq_classical(1, 10, alpha)

    def test_classical_gamma1(self):
        seq = seq_classical(1, 5)
        assert seq.values == (1, 1, 2, 2, 3, 3)
        # v1 = 2/(gamma+1) = 1 = 1/b0^2
        assert seq.values[1] == 1 == 1 / seq.b0_squared

    @pytest.mark.parametrize("N", [1, 2, 5, 40])
    def test_classical_closed_form(self, N):
        # v_n = (gamma+n+1)/(gamma+1) for even n, (n+1)/(gamma+1) for odd n
        for gamma in (F(k, 4) for k in range(-3, 33)):
            seq = seq_classical(gamma, N)
            assert seq.values == tuple(
                (gamma + n + 1 if n % 2 == 0 else n + 1) / (gamma + 1) for n in range(N + 1)
            )
            assert seq.b0_squared == (gamma + 1) / 2

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


class TestLength:
    """Every constructor returns v_0..v_N for N >= 1 and refuses a smaller N."""

    MAKE = {
        "hermite": seq_hermite,
        "order2": lambda N: seq_order2(3, N),
        "order3": lambda N: seq_order3(F(7, 3), F(17, 3), N),
        "family": lambda N: seq_family(F(2, 3), F(5, 3), F(3, 7), N),
        "classical": lambda N: seq_classical(F(1, 3), N),
    }

    @pytest.mark.parametrize("N", [-2, 0])
    @pytest.mark.parametrize("name", MAKE)
    def test_below_one_is_refused(self, name, N):
        with pytest.raises(ValueError, match="^N must be >= 1$"):
            self.MAKE[name](N)

    @pytest.mark.parametrize("N", [1, 2, 5])
    @pytest.mark.parametrize("name", MAKE)
    def test_n_plus_one_values(self, name, N):
        seq = self.MAKE[name](N)
        assert len(seq) == len(seq.values) == N + 1 and seq.n_max == N


class TestExactInput:
    """as_fraction takes an integer through int and a rational through its int
    numerator and denominator, so no fixed-width numpy integer reaches the exact
    layer, and it rejects every float."""

    @pytest.mark.parametrize("t", [np.int8, np.int32, np.int64, np.uint16])
    def test_a_numpy_integer_becomes_a_python_int(self, t):
        x = as_fraction(t(3))
        assert x == 3 and type(x.numerator) is int and type(x.denominator) is int

    @pytest.mark.parametrize("x", [np.float16(1), np.float32(0.5), np.float64(2), 0.5])
    def test_a_float_of_any_width_is_rejected(self, x):
        with pytest.raises(TypeError, match="expected exact rational, got float"):
            as_fraction(x)

    def test_numpy_parameters_build_the_python_int_system(self):
        # the numpy numerators overflowed int64 at P_60, with only a RuntimeWarning
        want = PolynomialSystem(seq_family(2, 3, 1, 60))
        got = PolynomialSystem(seq_family(np.int64(2), np.int64(3), np.int64(1), 60))
        assert got.seq == want.seq and got.monic[60] == want.monic[60]
        assert got.monic[40](np.int64(3)) == want.monic[40](3)

    def test_a_fraction_of_numpy_integers_is_rebuilt_through_int(self):
        # Fraction(np.int64(2), np.int64(1)) keeps np.int64 terms, which overflowed
        # at P_60 with only a RuntimeWarning
        x = as_fraction(F(np.int64(2), np.int64(1)))
        assert x == 2 and type(x.numerator) is int and type(x.denominator) is int
        want = PolynomialSystem(seq_family(2, 3, 1, 60))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = PolynomialSystem(seq_family(F(np.int64(2), np.int64(1)),
                                              F(np.int64(3), np.int64(1)), 1, 60))
            assert got.seq == want.seq and got.monic[60] == want.monic[60]


class TestValidate:
    def test_needs_three_entries(self):
        # as does the family shape
        with pytest.raises(ValueError):
            validate(GoverningSequence((F(1), F(2)), F(1)))
        with pytest.raises(ValueError, match="at least 3 entries"):
            is_special_family(GoverningSequence((F(1), F(2)), F(1)))

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
        seq = GoverningSequence((F(1), F(1), F(2), F(5), F(8)), F(1))
        assert validate_fractions(seq).first_violation == (4, 2)
        rep = validate(seq)
        assert not rep.ok
        assert rep.first_violation == (4, 2)

    def test_order2_family_not_compatible(self):
        rep = validate(seq_order2(3, 8))
        assert rep.monotone
        assert not rep.compatible
        assert rep.first_violation == validate_fractions(seq_order2(3, 8)).first_violation

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


    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["family", "classical", "order2", "free", "propagated"]),
        a=rationals,
        b=rationals,
        r=st.fractions(min_value=F(-1, 2), max_value=F(2), max_denominator=6),
        index=st.integers(min_value=1, max_value=14),
        bump=st.fractions(min_value=F(-1, 2), max_value=F(3), max_denominator=7),
    )
    # the propagated kind at v3 = v1 (r = 0) and at v1 < v3 < 2 v1 (0 < r < 1)
    @example(kind="propagated", a=F(2), b=F(3), r=F(0), index=9, bump=F(1, 7))
    @example(kind="propagated", a=F(3, 2), b=F(5, 2), r=F(1, 3), index=6, bump=F(2))
    @example(kind="propagated", a=F(5), b=F(2), r=F(4, 5), index=14, bump=F(-1, 2))
    def test_integer_check_matches_fraction_reference(self, kind, a, b, r, index, bump):
        # compatible sequences, then one entry bumped, so the first violation
        # (and monotonicity) moves around the range; the propagated kind has
        # the ratio r = (v3 - v1)/v1 of its step-2 differences free, where the
        # family and classical kinds have r = 1
        lo, hi = min(a, b), max(a, b)
        build = {
            "family": lambda: seq_family(lo, hi, F(1), 14),
            "classical": lambda: seq_classical(a - 1, 14),
            "order2": lambda: seq_order2(a + 1, 14),
            "free": lambda: GoverningSequence((F(1), a, b, *(a + b * k for k in range(12))), F(1)),
            "propagated": lambda: propagated_compatible_sequence(a, b, a * (1 + r), 14),
        }
        values = list(build[kind]().values)
        for bumped in (values, [*values[:index], values[index] + bump, *values[index + 1:]]):
            assume(min(bumped) > 0)
            seq = GoverningSequence(tuple(bumped), F(1, 3))
            rep = validate(seq)
            assert rep == validate_fractions(seq)
            assert rep.first_violation is None or rep.first_violation[1] == 2


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
        b2 = ref.b2_of(PolynomialSystem(seq_hermite(12)))
        assert b2 == [F(n, 2) for n in range(1, 13)]
        assert b2[0] == seq_hermite(12).b0_squared

    def test_classical_b_squared_parity(self):
        gamma = F(3)
        b2 = ref.b2_of(PolynomialSystem(seq_classical(gamma, 14)))
        for n in range(1, 15):
            expect = F(n, 2) if n % 2 == 0 else (n + gamma) / 2
            assert b2[n - 1] == expect

    def test_hermite_gamma_squared(self):
        seq = seq_hermite(12)
        g2 = ref.g2_of(PolynomialSystem(seq))
        assert g2[1:] == [F(2 * n) for n in range(1, 13)]

    def test_float_conveniences(self):
        import math

        sys = PolynomialSystem(seq_hermite(8))
        assert sys.b_float[0] == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert sys.b_float[3] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert math.sqrt(float(ref.g2_of(sys)[4])) == pytest.approx(math.sqrt(8.0), rel=1e-15)

    def test_gamma1_is_inverse_b0(self):
        for seq in (seq_hermite(6), seq_classical(5, 6), seq_family(2, 7, F(3), 6)):
            assert ref.g2_of(PolynomialSystem(seq))[1] == 1 / seq.b0_squared

    def test_classical_gamma_closed_form(self):
        gamma = F(1)
        seq = seq_classical(gamma, 12)
        g2 = ref.g2_of(PolynomialSystem(seq))
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
        sys = PolynomialSystem(seq)
        b2, g2 = ref.b2_of(sys), ref.g2_of(sys)
        for n in range(1, 13):
            assert g2[n] * b2[n - 1] == seq.values[n - 1] ** 2

    def test_roundtrip_on_incompatible_sequence_too(self):
        seq = seq_order2(3, 10)
        sys = PolynomialSystem(seq)
        b2, g2 = ref.b2_of(sys), ref.g2_of(sys)
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

    @settings(max_examples=60, deadline=None)
    @given(
        v1=rationals,
        v2=rationals,
        N=st.integers(min_value=2, max_value=14),
        index=st.integers(min_value=0, max_value=14),
        bump=st.fractions(min_value=F(-1, 2), max_value=F(3), max_denominator=7),
    )
    def test_shape_matches_closed_form(self, v1, v2, N, index, bump):
        # family prefixes, one entry bumped (index 0 leaves them as they are):
        # the shape holds iff v_{2p+1} = (p+1) v1 and v_{2m} = m v2 - (m-1)
        # with the stored v1, v2
        if v1 > v2:
            v1, v2 = v2, v1
        values = list(seq_family(v1, v2, F(1), N).values)
        if 0 < index <= N:
            values[index] += bump
        assume(min(values) > 0)
        seq = GoverningSequence(tuple(values), F(1))
        u1, u2 = values[1], values[2]
        shape = all(
            values[n] == ((n // 2 + 1) * u1 if n % 2 else (n // 2) * u2 - (n // 2 - 1))
            for n in range(N + 1)
        )
        assert is_special_family(seq) == ((True, (u1, u2)) if shape else (False, None))


class TestFamilyWeight:
    @pytest.mark.parametrize("v2, bracket", [(F(1), "0"), (F(3, 4), "-1/4")])
    def test_no_weight_where_bracket_2_is_not_positive(self, v2, bracket):
        # a family-shaped prefix with v2 <= 1 has [2] = v2 - 1 <= 0, so no
        # orthonormal system and no weight; bracket_table says the same
        seq = seq_family(F(1, 2), v2, 1, 3)
        message = f"bracket [2] = {bracket} is not positive; no orthonormal system"
        with pytest.raises(ValueError, match=re.escape(message)):
            family_weight(seq)
        with pytest.raises(ValueError, match=re.escape(message)):
            bracket_table(seq)

    @pytest.mark.parametrize("seq, weight", [
        (seq_hermite(20), (F(0), F(1))),
        (seq_classical(F(1, 3), 20), (F(1, 3), F(1))),
        (seq_classical(F(-1, 2), 20, 3), (F(-1, 2), F(3))),
        (seq_classical(5, 20, F(2, 7)), (F(5), F(2, 7))),
        (seq_family(F(2, 3), F(5, 3), F(3, 7), 20), (F(2), F(7, 2))),
        (seq_family(4, 5, 1, 20), (F(-1, 2), F(1, 4))),
    ])
    def test_family_systems_keep_their_weights(self, seq, weight):
        assert family_weight(seq) == ref.family_weight(seq) == weight
        assert PolynomialSystem(seq).weight_parameters() == weight


class TestJson:
    def test_round_trip(self, capsys):
        # build prints a seed file's object as its governing_sequence block
        assert main(["build", "--family", "classical", "--gamma", "5/3", "--n-max", "9"]) == 0
        block = json.loads(capsys.readouterr().out)["governing_sequence"]
        assert GoverningSequence.from_json(json.dumps(block)) == seq_classical(F(5, 3), 9)

    def test_schema_shape(self, capsys):
        assert main(["build", "--n-max", "2"]) == 0
        block = json.loads(capsys.readouterr().out)["governing_sequence"]
        assert block == {"values": ["1", "2", "3"], "b0_squared": "1/2"}

    def test_entries_are_integers_or_p_over_q_strings(self):
        seq = GoverningSequence.from_json('{"values": [1, "3/2", "+4", "5/10"], "b0_squared": 2}')
        assert seq.values == (1, F(3, 2), 4, F(1, 2)) and seq.b0_squared == 2

    @pytest.mark.parametrize("entry", ["0.1", '"0.5"', '"1e3"', '"1/0"', '" 2"', "true", "null"])
    def test_any_other_entry_is_refused_by_name(self, entry):
        with pytest.raises(ValueError, match="seed-file entry"):
            GoverningSequence.from_json(f'{{"values": ["1", {entry}], "b0_squared": "1/2"}}')
        with pytest.raises(ValueError, match="seed-file entry"):
            GoverningSequence.from_json(f'{{"values": ["1", "2"], "b0_squared": {entry}}}')

    @pytest.mark.parametrize(
        "text", ['{"b0_squared": "1"}', '{"values": ["1"]}', '{"values": "123", "b0_squared": "1"}',
                 '["1", "2"]', '"1"'],
    )
    def test_any_other_shape_is_refused(self, text):
        with pytest.raises(ValueError, match="one JSON object"):
            GoverningSequence.from_json(text)
        with pytest.raises(ValueError, match="one JSON object"):
            GoverningSequence.from_json(text, 0)

    @pytest.mark.parametrize("late", ["-5", "0", '"x"', "0.5", '"1/0"', "null"])
    def test_values_past_n_max_are_neither_converted_nor_judged(self, late):
        text = f'{{"values": ["1", "2", "3", {late}], "b0_squared": "1/2"}}'
        assert GoverningSequence.from_json(text, 2) == seq_hermite(2)
        with pytest.raises(ValueError):
            GoverningSequence.from_json(text)

    def test_a_short_file_names_its_length(self):
        text = '{"values": ["1", "2", "3"], "b0_squared": "1/2"}'
        assert GoverningSequence.from_json(text, 2) == seq_hermite(2)
        with pytest.raises(ValueError, match=r"^seed file stores 3 values; need at least 5$"):
            GoverningSequence.from_json(text, 4)

    @pytest.mark.parametrize("n_max", [-1, -3, -12])
    def test_a_negative_n_max_is_refused(self, n_max):
        # the slice values[:n_max + 1] would cut a 12-value file to v_0..v_9 at -3, and to
        # nothing at -1
        text = json.dumps({"values": [str(v) for v in seq_hermite(11).values],
                           "b0_squared": "1/2"})
        with pytest.raises(ValueError, match=rf"^n_max must be >= 0; got {n_max}$"):
            GoverningSequence.from_json(text, n_max)


_positive = st.fractions(min_value=F(1, 7), max_value=F(9), max_denominator=7)


@st.composite
def _prefixes(draw):
    """A positive rational prefix v_0 = 1, v_1..v_n: free values (most have a
    bracket that is not positive), positive steps (every bracket positive),
    or the family's shape with at most one value bumped."""
    n, kind = draw(st.integers(0, 30)), draw(st.sampled_from(["free", "steps", "family"]))
    if kind == "free":
        values = [F(1)] + draw(st.lists(_positive, min_size=n, max_size=n))
    elif kind == "steps":
        values = [F(1)]
        for step in draw(st.lists(_positive, min_size=n, max_size=n)):
            values.append(values[-1] + step)
    else:
        v1, v2 = sorted(draw(st.lists(_positive, min_size=2, max_size=2)))
        values = [(i // 2 + 1) * v1 if i % 2 else i // 2 * v2 - (i // 2 - 1) for i in range(n + 1)]
        assume(min(values) > 0)  # v_{2m} = m v2 - (m - 1) turns negative for v2 < 1
        if n and draw(st.booleans()):
            values[draw(st.integers(1, n))] += draw(_positive)
    return GoverningSequence(tuple(values), draw(_positive))


def _outcome(make, *args):
    """make(*args)'s values and b0^2, or the type and text of what it raised."""
    try:
        seq = make(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    assert all(type(v) is F for v in seq.values)
    assert all(type(a) is int for a in seq.nums)
    # den is the lcm of the values' denominators, however the values were formed
    assert (list(seq.nums), seq.den) == common_denominator(seq.values)
    return seq.values, seq.b0_squared


class TestAgainstFractionRoutes:
    """The integer routes over w = L v against the Fraction routes on v."""

    @settings(max_examples=300, deadline=None)
    @given(seq=_prefixes())
    def test_tables_and_family_test(self, seq):
        # each table is one integer pass over w that runs the bracket check: b^2
        # one row over M = q L w_1 and gamma^2 pairs with positive denominators,
        # equal to the Fraction routes on v; a bracket that is not positive
        # raises the same text from every table
        tables = (bracket_table, b_squares, gamma_squares)
        try:
            want = ref.bracket_table(seq)
        except ValueError as exc:
            for table in tables:
                with pytest.raises(ValueError) as got:
                    table(seq)
                assert str(got.value) == str(exc)
            return
        want_b2 = ref.b_squares(seq, want)
        (nums, den), pairs = b_squares(seq), gamma_squares(seq)
        assert bracket_table(seq) == want
        assert den == seq.b0_squared.denominator * seq.den * (seq.nums[1] if len(seq) > 1 else 1)
        assert all(type(a) is int for a in nums) and [F(a, den) for a in nums] == want_b2
        assert all(type(a) is type(b) is int and b > 0 for a, b in pairs)
        assert [F(a, b) for a, b in pairs] == ref.gamma_squares(seq, want_b2)
        if len(seq) >= 3:
            assert is_special_family(seq) == ref.is_special_family(seq)
            assert family_weight(seq) == ref.family_weight(seq)

    @settings(max_examples=200, deadline=None)
    @given(v1=st.fractions(min_value=F(-1), max_value=F(6), max_denominator=12),
           v2=st.fractions(min_value=F(-1), max_value=F(40), max_denominator=12),
           b0=_positive, N=st.integers(1, 40))
    def test_constructors(self, v1, v2, b0, N):
        # equal values, or the same error with the same text
        assert _outcome(seq_order2, v1, N, b0) == _outcome(ref.seq_order2, v1, N, b0)
        assert _outcome(seq_order3, v1, v2, N, b0) == _outcome(ref.seq_order3, v1, v2, N, b0)
        assert _outcome(seq_family, v1, v2, b0, N) == _outcome(ref.seq_family, v1, v2, b0, N)

    @pytest.mark.parametrize("make, conversions", [
        (lambda N: seq_hermite(N), 1),
        (lambda N: seq_order2(F(9, 2), N), 2),
        (lambda N: seq_order3(F(7, 3), F(17, 3), N, F(8, 3)), 3),
        (lambda N: seq_family(F(2, 3), F(5, 3), F(3, 7), N), 3),
        (lambda N: seq_classical(F(1, 3), N, 2), 5),
    ])
    def test_constructors_form_each_value_once(self, make, conversions, monkeypatch):
        # the constructors hand over their integers: only the parameters pass
        # through as_fraction, and the sequence is the one its values give
        calls = []
        monkeypatch.setattr(governing, "as_fraction", lambda x: calls.append(x) or as_fraction(x))
        seq = make(200)
        assert len(calls) == conversions
        monkeypatch.undo()
        direct = GoverningSequence(seq.values, seq.b0_squared)
        assert seq == direct and (seq.nums, seq.den) == (direct.nums, direct.den)

    def test_values_are_formed_on_first_read(self, monkeypatch):
        # the constructors hand over integers and form no value Fraction; the
        # first read of values forms them, and the sequence equals, and hashes
        # as, the one built from those values.  The parameters are Fractions of
        # ints, which as_fraction returns as they are
        formed = []
        monkeypatch.setattr(governing, "as_fraction", lambda x: x)
        monkeypatch.setattr(governing, "Fraction", lambda *a: formed.append(a) or F(*a))
        seq = seq_family(F(2, 3), F(5, 3), F(3, 7), 256)
        assert formed == [] and "values" not in vars(seq)
        values = seq.values
        assert len(formed) == 257 and seq.values is values
        monkeypatch.undo()
        direct = GoverningSequence(values, F(3, 7))
        assert direct.values == values and direct == seq and hash(direct) == hash(seq)

    def test_values_are_not_coerced_again(self):
        # the public constructor keeps no copy of its values: they are formed
        # from the integers on first read; ints and strings give the same sequence
        values = (F(1), F(3, 2), F(5, 2))
        seq = GoverningSequence(values, F(1, 2))
        assert "values" not in vars(seq)
        assert seq.values == values and "values" in vars(seq)
        assert GoverningSequence((1, "3/2", F(5, 2)), "1/2") == seq
        assert (seq.nums, seq.den) == ((2, 3, 5), 2)

    @pytest.mark.parametrize("values, b0, message", [
        ((), 1, "governing sequence is empty"),
        ((F(2), F(3)), 1, "v_0 must be 1, got 2"),
        ((F(1), F(0)), 1, "strictly positive"),
        ((F(1), F(-1, 3), F(2)), 1, "strictly positive"),
        ((F(1), F(2)), F(0), "b0_squared must be positive"),
        ((F(1), F(2)), F(-1, 2), "b0_squared must be positive"),
    ])
    def test_checks_read_numerators(self, values, b0, message):
        with pytest.raises(ValueError, match=message):
            GoverningSequence(values, b0)
