import random
from fractions import Fraction as F
from math import factorial, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermite_chihara.derivation as derivation
from hermite_chihara import (
    DerivationOperator,
    OrderVerdict,
    Poly,
    epsilons_from_sequence,
    seq_classical,
    seq_family,
    seq_hermite,
    seq_order2,
    seq_order3,
)
import fraction_reference as ref
from conftest import propagated_compatible_sequence
from fraction_reference import FractionPoly

coeff_lists = st.lists(
    st.fractions(min_value=F(-5), max_value=F(5), max_denominator=6), min_size=0, max_size=9
)

K_SERIES = 10
SERIES_OPERATORS = {
    name: epsilons_from_sequence(seq, K=K_SERIES)
    for name, seq in (
        ("classical", seq_classical(F(3, 2), K_SERIES)),
        ("family", seq_family(F(2, 3), F(5, 3), F(3, 7), K_SERIES)),
        ("order2", seq_order2(3, K_SERIES)),
        ("order3", seq_order3(8, 30, K_SERIES)),
    )
}


# name: (the sequence v_0..v_N, the operator's order r)
FINITE = {
    "hermite": (seq_hermite, 1),
    "order2": (lambda N: seq_order2(3, N), 2),
    "order3": (lambda N: seq_order3(F(7, 3), F(17, 3), N), 3),
    "order3 at (2, 3)": (lambda N: seq_order3(2, 3, N), 1),
}
CORRUPTIBLE = {
    **{name: make(304) for name, (make, _) in FINITE.items()},
    "classical": seq_classical(F(3, 2), 260),
    "family": seq_family(F(2, 3), F(5, 3), F(3, 7), 260),
}


def check_as_reference(eps, values) -> str | None:
    """The public constructor's forward check against the Pascal-row reference:
    the same message, returned, or both pass (None)."""
    try:
        ref.forward_check(eps, values)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            DerivationOperator(eps, values)
        assert str(got.value) == str(exc)
        return str(exc)
    assert DerivationOperator(eps, values).epsilons == tuple(eps)
    return None


def series(op, p: FractionPoly, k_min: int, power_offset: int) -> FractionPoly:
    """sum_{k >= k_min} eps_k x^{k + power_offset} p^{(k)}, term by term."""
    out = FractionPoly(())
    for k in range(k_min, p.degree + 1):
        out = out + p.derivative(k).shift(k + power_offset).scale(op.eps(k))
    return out


class TestPoly:
    def test_trim_and_degree(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly([]).degree == -1
        assert Poly([0]).is_zero()

    def test_eval(self):
        p = Poly([1, -2, 1])
        assert p(F(3)) == p(3) == 4

    def test_float_argument_is_rejected(self):
        with pytest.raises(TypeError):
            Poly([1, -2, 1])(3.0)


def assert_canonical(p: Poly) -> None:
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p == Poly.from_numerators(p.nums, p.den) == Poly(p.coeffs)
    assert hash(p) == hash(Poly(p.coeffs))


class TestAgainstFractionReference:
    """The integer storage against the Fraction-tuple polynomial it replaced:
    the same lowest-terms coefficients in canonical form, the same value at
    Fraction points, and the same equality."""

    @settings(max_examples=80, deadline=None)
    @given(
        a=coeff_lists,
        b=coeff_lists,
        k=st.integers(min_value=1, max_value=12),
        x=st.fractions(min_value=F(-4), max_value=F(4), max_denominator=12),
    )
    def test_operations(self, a, b, k, x):
        p, q, rp, rq = Poly(a), Poly(b), FractionPoly(a), FractionPoly(b)
        # numerators with a common factor k reduce to the same canonical form
        scaled = Poly.from_numerators([k * c for c in p.nums], k * p.den)
        assert_canonical(p)
        assert_canonical(scaled)
        assert scaled == p and p.coeffs == rp.coeffs
        assert p.degree == rp.degree
        assert p(x) == rp(x)
        assert (p == q) == (rp == rq)

    def test_equal_values_are_equal_structures(self):
        p = Poly([F(1, 2), 1, 0, 0])
        assert p == Poly.from_numerators([3, 6, 0], 6)
        assert (p.nums, p.den) == ((1, 2), 2)
        assert hash(p) == hash(Poly.from_numerators([3, 6], 6))
        assert Poly([0, 0]) == Poly.from_numerators([], 5) and Poly([]).den == 1
        with pytest.raises(ValueError, match="must be positive"):
            Poly.from_numerators([1, 2], -2)

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            Poly([1, 0.5])


class TestEpsilons:
    def test_hermite_is_plain_derivative(self):
        op = epsilons_from_sequence(seq_hermite(12))
        assert op.eps(1) == 1
        assert all(op.eps(k) == 0 for k in range(2, op.k_max + 1))

    def test_squares_family(self):
        op = epsilons_from_sequence(seq_order2(4, 12))
        assert op.epsilons[:3] == (1, 1, 0)
        assert all(e == 0 for e in op.epsilons[2:])

    def test_cubes_family(self):
        # eps2 = v1/2 - 1 and eps3 = (v2 - 3 v1 + 3)/6 from the general
        # order-3 operator; for (8, 27) that is (3, 1), and D x^2 = 8x forces
        # eps2 = 3 (an operator with eps2 = 1 would give D x^2 = 4x)
        op = epsilons_from_sequence(seq_order3(8, 27, 12))
        assert op.epsilons[:4] == (1, 3, 1, 0)
        assert all(e == 0 for e in op.epsilons[3:])

    def test_classical_closed_form(self):
        for gamma in (F(1), F(2), F(5)):
            op = epsilons_from_sequence(seq_classical(gamma, 12))
            for m in range(2, 13):
                assert op.eps(m) == F((-2) ** (m - 1), factorial(m)) * gamma / (gamma + 1)

    def test_defining_sums(self):
        # sum_{k<=n} eps_k n!/(n-k)! must reproduce v_{n-1}
        for seq in (seq_classical(F(5, 2), 10), seq_family(1, 5, F(1), 10), seq_order2(3, 10)):
            op = epsilons_from_sequence(seq)
            for n in range(1, op.k_max + 1):
                total = sum(op.eps(k) * F(factorial(n), factorial(n - k)) for k in range(1, n + 1))
                assert total == seq.values[n - 1]

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            epsilons_from_sequence(seq_hermite(4), K=9)

    @pytest.mark.parametrize("K", [0, -3])
    def test_horizon_must_be_positive(self, K):
        with pytest.raises(ValueError, match=rf"K={K} must be in \[1, 5\]"):
            epsilons_from_sequence(seq_hermite(4), K=K)

    @pytest.mark.parametrize("values", [seq_hermite(4).values, ()], ids=["values", "none"])
    def test_an_empty_epsilon_list_is_refused(self, values):
        # K = 0 has no order to report, as epsilons_from_sequence refuses K < 1
        with pytest.raises(ValueError, match=r"at least one epsilon \(K >= 1\)"):
            DerivationOperator([], values)

    @pytest.mark.parametrize("k", [0, -1, 14, 99])
    def test_eps_refuses_k_outside_1_to_K(self, k):
        # eps(0) read eps_K and eps(-1) eps_{K-1} through a negative index
        op = epsilons_from_sequence(seq_classical(1, 12))
        assert op.k_max == 13 and op.eps(1) == 1 and op.eps(13) == op.epsilons[-1]
        with pytest.raises(ValueError, match=rf"need 1 <= k <= K=13, got k={k}$"):
            op.eps(k)


class TestFiniteOrder:
    """At order r the transform stops at its first zero row and the forward
    check carries the zeros past r: the same epsilons and verdicts, the same
    errors, and work that grows with r, not with K."""

    @pytest.mark.parametrize("horizon", ["r", "r + 1", 64, 2000])
    @pytest.mark.parametrize("name", FINITE)
    def test_epsilons_and_order(self, name, horizon):
        make, r = FINITE[name]
        K = {"r": r, "r + 1": r + 1}.get(horizon, horizon)
        seq = make(max(K, 64))
        want = ref.epsilons(seq.values, min(K, 64))
        assert not any(want[r:]) and want[r - 1] != 0
        op = epsilons_from_sequence(seq, K=K)
        assert op.epsilons == (*want, *[0] * (K - len(want)))
        # eps_K != 0 reads as infinite within the horizon, unless K = 1
        finite = K > r or K == 1
        assert op.order() == OrderVerdict(finite, r if finite else None, K)

    @pytest.mark.parametrize("name", FINITE)
    def test_work_grows_with_the_order(self, name, monkeypatch):
        # counted, not timed: construction forms no Fraction and no common
        # denominator (the sequence's integers and its own row are handed over),
        # and the forward check is r cumulative sums over n = 0..K, one per
        # difference level below r, with no step per n.  The first read of
        # epsilons forms one Fraction per nonzero difference row (r of them)
        # and one shared zero
        make, r = FINITE[name]
        seq, fractions, terms, passes = make(2000), [], [], []

        def fraction(*args):
            fractions.append(args)
            return F(*args)

        def accumulate(iterable, *args, **kwargs):
            passes.append(len(iterable))
            return derivation_accumulate(iterable, *args, **kwargs)

        derivation_accumulate = derivation.accumulate
        monkeypatch.setattr(derivation, "Fraction", fraction)
        monkeypatch.setattr(derivation, "common_denominator", terms.append)
        monkeypatch.setattr(derivation, "accumulate", accumulate)
        op = epsilons_from_sequence(seq, K=2000)
        assert op.order() == OrderVerdict(True, r, 2000)
        assert fractions == [] and "epsilons" not in vars(op)
        assert terms == []
        # level k holds the k-th differences at n = 0..K - k
        assert passes == list(range(2000 - r + 1, 2001))
        scaled, den = op._scaled
        assert len(scaled) == r and seq.den % den == 0
        eps = op.epsilons
        assert len(fractions) == r + 1 and op.epsilons is eps and len(eps) == 2000

    @pytest.mark.parametrize("where", ["r + 1", "K"])
    @pytest.mark.parametrize("name", FINITE)
    def test_an_epsilon_past_the_order_is_rejected(self, name, where):
        make, r = FINITE[name]
        K = 300
        seq = make(K)
        eps = list(epsilons_from_sequence(seq, K=K).epsilons)
        k = r + 1 if where == "r + 1" else K
        eps[k - 1] = F(-1, 7)
        assert check_as_reference(eps, seq.values).startswith(f"epsilons give D x^{k} = ")

    @pytest.mark.parametrize("seq", [seq_classical(F(1, 3), 256),
                                     seq_family(F(2, 3), F(5, 3), F(3, 7), 256)],
                             ids=["classical 1/3", "family (2/3, 5/3, 3/7)"])
    def test_infinite_order_gives_the_binomial_sums(self, seq):
        op = epsilons_from_sequence(seq, K=256)
        assert list(op.epsilons) == ref.epsilons(seq.values, 256)
        assert op.order() == OrderVerdict(False, None, 256)


class TestTwoConstructors:
    """epsilons_from_sequence hands the operator its own difference row and the
    sequence's integers; the public constructor forms both rows from the
    Fractions.  The two give the same operator and the same D."""

    # name: (the sequence, its horizons K: 1, the order r where it is finite, 64, 256)
    SEQUENCES = {
        "hermite": (seq_hermite(256), (1, 64, 256)),
        "order2": (seq_order2(3, 256), (1, 2, 64, 256)),
        "order3": (seq_order3(F(7, 3), F(17, 3), 256), (1, 3, 64, 256)),
        "classical 1/3": (seq_classical(F(1, 3), 256), (1, 64, 256)),
        "family (2/3, 5/3, 3/7)": (seq_family(F(2, 3), F(5, 3), F(3, 7), 256), (1, 64, 256)),
    }

    @pytest.mark.parametrize("name, K", [(name, K) for name, (_, horizons) in SEQUENCES.items()
                                         for K in horizons])
    def test_same_operator_and_same_d(self, name, K):
        seq = self.SEQUENCES[name][0]
        op = epsilons_from_sequence(seq, K=K)
        public = DerivationOperator(op.epsilons, seq.values)
        assert public == op and hash(public) == hash(op)
        # the operator's values are formed from its row on first read
        assert "values" not in vars(op) and op.values == public.values == seq.values
        rng = random.Random(K)
        for degree in sorted({0, 1, K // 2, K}):
            nums = [rng.randint(-99, 99) for _ in range(degree)] + [rng.randint(1, 99)]
            p = Poly.from_numerators(nums, rng.randint(1, 50))
            assert public.apply(p) == op.apply(p)
            assert public.apply_upper_part(p) == op.apply_upper_part(p)

    @pytest.mark.parametrize("K", [1, 2, 64, 256])
    @pytest.mark.parametrize("name", [*SEQUENCES, "propagated r = 2", "propagated r = 1/4"])
    def test_either_constructor_stores_only_integers(self, name, K, monkeypatch):
        # both constructors store K and the two integer rows, and form no eps
        # and no value Fraction; the operators are equal, and hash alike, and
        # their eps and values are views formed on first read.  The propagated
        # sequences are compatible off the family, at d_3 / v_1 = 2 and 1/4
        seq = self.SEQUENCES[name][0] if name in self.SEQUENCES else {
            "propagated r = 2": lambda: propagated_compatible_sequence(2, 3, 6, 256),
            "propagated r = 1/4": lambda: propagated_compatible_sequence(4, 3, 5, 256),
        }[name]()
        op = epsilons_from_sequence(seq, K=K)
        epsilons, values = op.epsilons, op.values

        def fraction(*args):
            raise AssertionError("construction formed a Fraction")

        monkeypatch.setattr(derivation, "Fraction", fraction)
        public = DerivationOperator(epsilons, values)
        monkeypatch.undo()
        assert not {"epsilons", "values"} & set(vars(public))
        assert public == op and hash(public) == hash(op) and public._scaled == op._scaled
        assert public.epsilons == epsilons and public.values == values == seq.values

    @pytest.mark.parametrize("name", ["classical 1/3", "family (2/3, 5/3, 3/7)"])
    def test_public_constructor_scales_in_integers(self, name, monkeypatch):
        # at infinite order the public constructor forms k! eps_k as integers,
        # one common denominator over eps_1..eps_r and no Fraction product;
        # its scaled row is epsilons_from_sequence's over another denominator
        seq = self.SEQUENCES[name][0]
        op = epsilons_from_sequence(seq, K=256)

        def product(*args):
            raise AssertionError("a Fraction product was formed")

        monkeypatch.setattr(F, "__mul__", product)
        monkeypatch.setattr(F, "__rmul__", product)
        public = DerivationOperator(op.epsilons, seq.values)
        monkeypatch.undo()
        assert public == op and public.order() == op.order()
        (got, got_den), (want, want_den) = public._scaled, op._scaled
        assert len(got) == len(want) == 256
        assert [a * want_den for a in got] == [b * got_den for b in want]


class TestForwardCheckEdges:
    """The forward check at the edges of its level table: no level (r = 0),
    one value (K = 1), every level (r = K), and a corrupted eps at n = 1, at
    r + 1 and at K, each failing at the Pascal-row reference's first n with
    its message, or passing where the reference passes."""

    SEQUENCES = {
        **{name: make(260) for name, (make, _) in FINITE.items()},
        "classical 1/3": seq_classical(F(1, 3), 260),
        "family (2/3, 5/3, 3/7)": seq_family(F(2, 3), F(5, 3), F(3, 7), 260),
    }

    @pytest.mark.parametrize("K", [1, 2, 64, 256])
    def test_all_zero_epsilons_fail_at_1(self, K):
        values = seq_classical(F(1, 3), 260).values
        message = check_as_reference([F(0)] * K, values[:K])
        assert message == "epsilons give D x^1 = 0 x^0, but v_0 = 1"
        assert DerivationOperator([F(0)] * K, [0] * K).order() == OrderVerdict(True, 1, K)

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_one_value(self, name):
        values = self.SEQUENCES[name].values
        assert check_as_reference([values[0]], values[:1]) is None
        message = check_as_reference([values[0] + F(1, 3)], values[:1])
        assert message == "epsilons give D x^1 = 4/3 x^0, but v_0 = 1"

    def test_every_level(self):
        # classical 1/3 has eps_K != 0 at K = 256: r = K, and the table has
        # every level from K down to 0
        seq = self.SEQUENCES["classical 1/3"]
        op = epsilons_from_sequence(seq, K=256)
        assert len(op._scaled[0]) == 256
        assert check_as_reference(list(op.epsilons), seq.values[:256]) is None

    # at infinite order r = K, and no eps lies past the order
    @pytest.mark.parametrize("name, at", [(name, at) for name in SEQUENCES
                                          for at in ("1", "r + 1", "K")
                                          if name in FINITE or at != "r + 1"])
    def test_a_corrupted_epsilon(self, name, at):
        seq, K = self.SEQUENCES[name], 256
        eps = list(epsilons_from_sequence(seq, K=K).epsilons)
        n = {"1": 1, "r + 1": FINITE.get(name, (None, K))[1] + 1, "K": K}[at]
        eps[n - 1] += F(-2, 9)
        message = check_as_reference(eps, seq.values[:K + 1])
        assert message.startswith(f"epsilons give D x^{n} = ")


class TestExactInput:
    """The operator stores Fractions of ints whatever exact input it is given,
    and refuses floats, as as_fraction does."""

    def test_integers_become_fractions(self):
        op = DerivationOperator((1, 0), (1, 2))
        a = op.a_coefficient(2, 1)
        assert a == 2 and type(a) is F
        assert all(type(x) is F for x in (*op.epsilons, *op.values))

    def test_numpy_integers_become_fractions_of_int(self):
        op = DerivationOperator(np.array([1, 0], dtype=np.int64), (np.int32(1), np.int64(2)))
        for x in (*op.epsilons, *op.values):
            assert type(x) is F and type(x.numerator) is int and type(x.denominator) is int
        assert type(op.a_coefficient(2, 1)) is F
        assert op == DerivationOperator((1, 0), (1, 2))

    @pytest.mark.parametrize("eps, values", [
        ((1.0, 0), (1, 2)),
        ((1, np.float64(0)), (1, 2)),
        ((1, 0), (1, 2.0)),
        ((1, 0), (1, np.float32(2))),
    ])
    def test_a_float_is_refused(self, eps, values):
        with pytest.raises(TypeError, match="expected exact rational, got float"):
            DerivationOperator(eps, values)


class TestApply:
    def test_annihilates_constants(self):
        op = epsilons_from_sequence(seq_hermite(6))
        assert op.apply(Poly([7])).is_zero()

    def test_hermite_is_ordinary_derivative(self):
        op = epsilons_from_sequence(seq_hermite(6))
        assert op.apply(Poly([0, 0, 0, 1])).coeffs == (0, 0, 3)

    def test_squares_weighted_derivative(self):
        op = epsilons_from_sequence(seq_order2(4, 6))
        # v_2 = 9: D x^3 = 9 x^2
        assert op.apply(Poly([0, 0, 0, 1])).coeffs == (0, 0, 9)

    def test_monomial_consistency(self):
        for seq in (seq_classical(2, 12), seq_family(1, 5, F(1), 12)):
            op = epsilons_from_sequence(seq)
            for n in range(0, 13):
                mono = Poly([0] * n + [1])
                expect = Poly([0] * (n - 1) + [seq.values[n - 1]]) if n >= 1 else Poly([])
                assert op.apply(mono) == expect

    def test_degree_guard(self):
        op = epsilons_from_sequence(seq_hermite(4), K=3)
        with pytest.raises(ValueError):
            op.apply(Poly([0, 0, 0, 0, 1]))

    @settings(max_examples=40, deadline=None)
    @given(a=coeff_lists, b=coeff_lists, ca=st.fractions(max_denominator=5), cb=st.fractions(max_denominator=5))
    def test_linearity(self, a, b, ca, cb):
        op = epsilons_from_sequence(seq_classical(F(3, 2), 12))
        combo = FractionPoly(a).scale(ca) + FractionPoly(b).scale(cb)
        parts = [FractionPoly(op.apply(Poly(c)).coeffs) for c in (a, b)]
        want = parts[0].scale(ca) + parts[1].scale(cb)
        assert op.apply(Poly(combo.coeffs)).coeffs == want.coeffs


class TestSeriesReference:
    """The operator is the series sum_k eps_k x^{k-1} d^k; apply and
    apply_upper_part must agree with that series evaluated term by term."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(SERIES_OPERATORS)),
        coeffs=st.lists(
            st.fractions(min_value=F(-7), max_value=F(7), max_denominator=9),
            max_size=K_SERIES + 1,
        ),
    )
    def test_apply_and_upper_part_match_the_series(self, name, coeffs):
        op = SERIES_OPERATORS[name]
        p, rp = Poly(coeffs), FractionPoly(coeffs)
        assert op.apply(p).coeffs == series(op, rp, 1, -1).coeffs
        assert op.apply_upper_part(p).coeffs == series(op, rp, 2, 0).coeffs

    def test_perturbed_epsilon_fails_at_construction(self):
        op = epsilons_from_sequence(seq_classical(F(3, 2), 8))
        for k in (1, 4, op.k_max):
            eps = list(op.epsilons)
            eps[k - 1] += F(1, 10**9)
            with pytest.raises(ValueError, match=f"D x\\^{k} "):
                DerivationOperator(epsilons=tuple(eps), values=op.values)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(CORRUPTIBLE)),
        K=st.integers(1, 300),
        at=st.integers(1, 300),
        delta=st.fractions(min_value=F(-3), max_value=F(3), max_denominator=10**6),
        extra=st.integers(0, 3),
    )
    def test_corrupted_epsilon_fails_as_by_pascal_rows(self, name, K, at, delta, extra):
        # the cumulative-sums route and the Pascal-row route name the same
        # first n with the same message, or both pass (delta = 0); the
        # finite-order names reach K = 300, far past their order, the others K = 256
        seq = CORRUPTIBLE[name]
        if name not in FINITE:
            K = (K - 1) % 256 + 1
        op = epsilons_from_sequence(seq, K=K)
        eps = list(op.epsilons)
        eps[(at - 1) % K] += delta
        check_as_reference(eps, seq.values[: K + extra])

    def test_too_few_values_fail_at_construction(self):
        op = epsilons_from_sequence(seq_hermite(5))
        with pytest.raises(ValueError):
            DerivationOperator(epsilons=op.epsilons, values=op.values[:3])


class TestOrder:
    def test_hermite_order_1(self):
        assert epsilons_from_sequence(seq_hermite(10)).order().order == 1

    def test_cubes_order_3(self):
        verdict = epsilons_from_sequence(seq_order3(8, 27, 10)).order()
        assert verdict.finite and verdict.order == 3

    def test_order2_family_order_at_most_2(self):
        for v1 in (F(2), F(3), F(9, 2)):
            verdict = epsilons_from_sequence(seq_order2(v1, 12)).order()
            assert verdict.finite and verdict.order <= 2

    def test_order3_family_order_at_most_3(self):
        for v1, v2 in ((F(2), F(3)), (F(8), F(27)), (F(8), F(30))):
            verdict = epsilons_from_sequence(seq_order3(v1, v2, 12)).order()
            assert verdict.finite and verdict.order <= 3

    def test_classical_infinite_within_horizon(self):
        verdict = epsilons_from_sequence(seq_classical(1, 9)).order()
        assert not verdict.finite
        assert str(verdict) == "infinite within horizon K=10"


class TestACoefficients:
    def test_a_k_2_closed_form(self):
        # A_k(2) = v_{k-1} - k for any sequence
        for seq in (seq_classical(3, 12), seq_family(1, 5, F(1), 12), seq_order2(3, 12)):
            op = epsilons_from_sequence(seq)
            for k in range(2, 13):
                assert op.a_coefficient(k, 2) == seq.values[k - 1] - k

    def test_hermite_a_k_2_vanishes(self):
        op = epsilons_from_sequence(seq_hermite(12))
        assert all(op.a_coefficient(k, 2) == 0 for k in range(2, 13))

    def test_a_n_1_is_v(self):
        seq = seq_family(2, 7, F(1), 10)
        op = epsilons_from_sequence(seq)
        for n in range(1, 11):
            assert op.a_coefficient(n, 1) == seq.values[n - 1]

    def test_diagonal_value(self):
        op = epsilons_from_sequence(seq_classical(2, 10))
        for s in range(1, 11):
            assert op.a_coefficient(s, s) == factorial(s) * op.eps(s)

    def test_index_guard(self):
        op = epsilons_from_sequence(seq_hermite(5))
        with pytest.raises(ValueError):
            op.a_coefficient(2, 3)
        with pytest.raises(ValueError):
            op.a_coefficient(99, 1)
