import decimal
import heapq
import math
import re
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.special

from hermite_chihara import (
    FloatRangeError,
    MeasureSpec,
    PolynomialSystem,
    carleman_determinacy,
    gram_deviation,
    jacobi_moment,
    moment_closed,
    seq_classical,
    seq_family,
    seq_hermite,
    seq_order3,
    spec_for_system,
)
from hermite_chihara import measure, quadrature
from hermite_chihara.quadrature import _halves, _rule, integrate_split_at_zero
import fraction_reference as ref
from conftest import plain, psi_tables


def weight_system(gamma: F, alpha: F, N: int = 16) -> PolynomialSystem:
    """Family system orthonormal for C |x|^gamma exp(-alpha x^2)."""
    v1 = F(2) / (gamma + 1)
    return PolynomialSystem(seq_family(v1, 1 + v1, b0_squared=(gamma + 1) / (2 * alpha), N=N))


class TestNormalization:
    """The constant C = 1/Gamma((gamma+1)/2), read from the weight at alpha = 1
    (C at x = 0 for gamma = 0, C/e at x = 1); a weight at any other alpha is
    formed on its own scale, so no alpha^{(gamma+1)/2} is taken."""

    def test_gaussian(self):
        w = MeasureSpec(F(0), F(1)).weight(0.0)
        assert w == pytest.approx(1 / math.sqrt(math.pi), rel=1e-13)

    def test_gamma1(self):
        # int |x| e^{-x^2} dx = 1
        assert math.e * MeasureSpec(F(1), F(1)).weight(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_gamma2(self):
        # int x^2 e^{-x^2} dx = sqrt(pi)/2
        w = MeasureSpec(F(2), F(1)).weight(1.0)
        assert math.e * w == pytest.approx(2 / math.sqrt(math.pi), rel=1e-13)

    def test_total_mass_is_one(self):
        for g, a in ((F(0), F(1)), (F(1, 2), F(2)), (F(2), F(1, 2)), (F(-1, 2), F(1)),
                     (F(3), F(10**160)), (F(0), F(1, 10**12))):
            spec = MeasureSpec(g, a)
            val, err = integrate_split_at_zero(
                plain(spec.weight), 12.0 / math.sqrt(float(a)), tol=1e-12
            )
            assert abs(val.item() - 1.0) < 1e-10

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_x_is_rejected(self, x):
        # not a NaN, or a FloatRangeError naming a weight value
        with pytest.raises(ValueError, match=r"^x must be finite$"):
            MeasureSpec(F(1), F(1)).weight(np.array([1.0, x]))

    def test_weight_is_finite_where_alpha_power_overflows(self):
        # alpha^{(gamma+1)/2} = 1e320 has no float; on the weight's scale
        # 1e-80 every factor has one: C |x|^3 e^{-alpha x^2} = 1e80 t^3 e^{-t^2}
        # at x = t 1e-80
        spec = MeasureSpec(F(3), F(10**160))
        t = np.arange(-3.0, 4.0)
        w = spec.weight(t * 1e-80)
        assert np.all(np.isfinite(w)) and w[3] == 0.0
        assert w == pytest.approx(1e80 * np.abs(t) ** 3 * np.exp(-t * t), rel=1e-14)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            MeasureSpec(F(-2), F(1))
        with pytest.raises(ValueError):
            MeasureSpec(F(0), F(0))

    def test_weight_parameters_without_a_float_raise(self):
        # alpha = 10^-400 once read as 0.0 and the weight as zeros; gamma =
        # 10^400 once ended in a bare OverflowError; at gamma = -1 + 10^-20,
        # whose float is -1, Gamma((gamma+1)/2) is read at its pole
        x = np.array([-1.0, 0.5, 2.0])
        for g, a, name in ((F(3), F(1, 10**400), "alpha"), (F(10**400), F(1), "gamma"),
                           (F(-1) + F(1, 10**20), F(1), "Gamma((gamma+1)/2)")):
            with pytest.raises(FloatRangeError, match=rf"^{re.escape(name)} outside the float range"):
                MeasureSpec(g, a).weight(x)


    def test_a_weight_value_without_a_float_raises(self):
        # |x|^-1/2 at its pole x = 0, and |x|^300 past 2^1024 at x = 20 (e^-400
        # would leave a float, but the power is formed first)
        for g, x in ((F(-1, 2), 0.0), (F(300), 20.0)):
            with pytest.raises(FloatRangeError, match=r"^weight value outside the float range"):
                MeasureSpec(g, F(1)).weight(np.array([1.0, x]))


class TestMoments:
    def test_odd_vanish(self):
        spec = MeasureSpec(F(3, 2), F(2))
        assert all(moment_closed(spec, k) == 0 for k in (1, 3, 5, 7, 9))

    def test_mu0_is_one(self):
        assert moment_closed(MeasureSpec(F(2), F(1, 2)), 0) == 1

    def test_gaussian_second_moment(self):
        spec = MeasureSpec(F(0), F(1))
        seq = seq_hermite(8)
        b2 = ref.b2_of(PolynomialSystem(seq))
        assert moment_closed(spec, 2) == F(1, 2) == jacobi_moment(b2, 2) == seq.b0_squared

    def test_three_route_agreement(self):
        # closed form == Jacobi walk exactly; quadrature within a relative 1e-8
        for g in (F(0), F(1, 2), F(1), F(2)):
            for a in (F(1, 2), F(1), F(2)):
                spec = MeasureSpec(g, a)
                b2 = ref.b2_of(weight_system(g, a, N=12))
                for k in range(0, 17):
                    closed = moment_closed(spec, k)
                    assert closed == jacobi_moment(b2, k)
                    radius = max(10.0, 3.0 * math.sqrt(max(k, 1) / float(a)) + 5.0)
                    block, _ = integrate_split_at_zero(
                        plain(lambda x: x**k * spec.weight(x)), radius, tol=1e-11
                    )
                    quad = block.item()
                    assert abs(float(closed) - quad) <= 1e-8 * max(1.0, abs(float(closed)))

    def test_jacobi_walk_needs_enough_coefficients(self):
        b2 = ref.b2_of(PolynomialSystem(seq_hermite(4)))
        with pytest.raises(ValueError):
            jacobi_moment(b2[:2], 10)
        # and a moment order k >= 0, as the closed form does
        with pytest.raises(ValueError, match="moment order must be >= 0"):
            jacobi_moment(b2, -1)
        with pytest.raises(ValueError, match="moment order must be >= 0"):
            moment_closed(MeasureSpec(F(0), F(1)), -2)

    def test_the_walk_reads_k_over_2_coefficients(self):
        # a closed walk of k steps reads b_0^2..b_{k/2-1}^2 and no more
        assert jacobi_moment([F(1, 2)], 2) == F(1, 2)
        assert jacobi_moment([], 0) == 1 and jacobi_moment([], 1) == 0
        for seq in (seq_classical(F(1, 3), 16), seq_family(F(2, 3), F(5, 3), F(3, 7), 16),
                    seq_order3(F(7, 3), F(17, 3), 16)):
            b2 = ref.b2_of(PolynomialSystem(seq))
            for k in range(33):
                assert jacobi_moment(b2[: k // 2], k) == jacobi_moment(b2, k)
                if k >= 2:
                    with pytest.raises(ValueError, match=f"need at least {k // 2} squared"):
                        jacobi_moment(b2[: k // 2 - 1], k)

    def test_the_walk_reads_each_b2_as_as_fraction_does(self):
        # numpy's int64 converts through int, where its products would wrap;
        # a float is refused as every exact input is
        want = jacobi_moment([3**30] * 10, 8)
        assert want == 25158144198802036945784517613134470556240658785529915489614
        assert jacobi_moment([np.int64(3**30)] * 10, 8) == want
        with pytest.raises(TypeError, match="expected exact rational, got float"):
            jacobi_moment([0.5, 1.0], 4)

    def test_scipy_cross_check(self):
        # mu_{2n} = Gamma(n + (g+1)/2) / (Gamma((g+1)/2) a^n)
        g, a = 1.5, 2.0
        spec = MeasureSpec(F(3, 2), F(2))
        for n in range(0, 7):
            expect = scipy.special.gamma(n + (g + 1) / 2) / scipy.special.gamma((g + 1) / 2) / a**n
            assert float(moment_closed(spec, 2 * n)) == pytest.approx(expect, rel=1e-12)


def weight_root(spec: MeasureSpec, x: np.ndarray) -> np.ndarray:
    """s = sqrt(w dx/du) at the nodes x = u^M, M = measure._mass_exponent(gamma), written
    out as the Gram forms it: on the weight's scale z = alpha^{1/(2M)} u, log s^2 about the
    peak z^{2M} = h = (K-1)/(2M) (1 at K = 1), K = M(gamma+1), with z^{2M} = alpha x^2."""
    mass = measure._mass_exponent(spec.gamma)
    m, h = float(mass), float((mass * (spec.gamma + 1) - 1) / (2 * mass))
    a, mid = float(spec.alpha), h or 1.0
    c = math.log(m) - measure._log_gamma_at_peak(h, 0.5 / m) - (mid - h)
    zz = a * x * x
    with np.errstate(divide="ignore"):
        log_s2 = c + (h * np.log(zz / mid) if h else 0.0) - (zz - mid)
    return np.exp(0.5 * log_s2) * a ** (0.25 / m)


def whole_line_integrand(sys: PolynomialSystem, spec: MeasureSpec, n: int):
    """The Gram's integrand over the whole line of the mass variable u, x = sign(u) |u|^M,
    and its radius, written out in full factors: the weighted functions s psi_n, twice,
    gram_deviation's before the fold onto u >= 0 and the split into parity blocks
    (s is even in u)."""
    m = float(measure._mass_exponent(spec.gamma))

    def integrand(u):
        x = np.sign(u) * np.abs(u) ** m
        t = sys.psi_eval_table(x, n, weight_root(spec, x))
        return t, t

    radius = measure._integration_radius(n, float(spec.gamma), float(spec.alpha))
    return integrand, radius ** (1.0 / m)


def folded_integrand(sys: PolynomialSystem, spec: MeasureSpec, n: int):
    """whole_line_integrand over [-R, R] read at u = (t + R)/2 for t in [-R, R], as
    gram_deviation reads it: dt = 2 du doubles the half-line [0, R]."""
    f, radius = whole_line_integrand(sys, spec, n)
    return (lambda t: f(0.5 * (t + radius))), radius


def parity_blocks(f):
    """The pair of full factors f(t) = (u, v) as gram_deviation's two parity blocks on a
    leading axis: the columns 0, 2, 4, ... of each, then the columns 1, 3, 5, ... with a
    zero column last where there are fewer of them."""
    def split(a):
        blocks = np.zeros((2, a.shape[0], (a.shape[1] + 1) // 2))
        blocks[0] = a[:, ::2]
        blocks[1, :, : a.shape[1] // 2] = a[:, 1::2]
        return blocks

    return lambda t: tuple(map(split, f(t)))


def from_blocks(blocks: np.ndarray, n: int) -> np.ndarray:
    """The (n + 1) x (n + 1) Gram of the two parity blocks of integrals: 0.0 wherever
    i + j is odd, as psi_n has the parity of n and the weight is even."""
    gram = np.zeros((n + 1, n + 1))
    gram[::2, ::2] = blocks[0]
    gram[1::2, 1::2] = blocks[1, : (n + 1) // 2, : (n + 1) // 2]
    return gram


class TestOrthonormality:
    def test_hermite(self):
        sys = PolynomialSystem(seq_hermite(16))
        assert sys.weight_parameters() == (0, 1)
        rep = gram_deviation(sys, spec_for_system(sys), 12)
        assert rep.max_deviation < 1e-8

    def test_classical_gamma1(self):
        sys = PolynomialSystem(seq_classical(1, 16))
        assert sys.weight_parameters() == (1, 1)
        rep = gram_deviation(sys, spec_for_system(sys), 12)
        assert rep.max_deviation < 1e-8

    @pytest.mark.parametrize(
        "seq",
        [
            seq_hermite(104, b0_squared=F(1, 2)),
            seq_classical(1, 104),
            seq_family(F(2, 3), F(5, 3), F(3, 7), 104),
            seq_classical(F(-1, 2), 104),  # singular weight: |x|^{-1/2}
            seq_hermite(104, b0_squared=F(1, 10**12)),  # narrow weight: alpha = 5e11
        ],
        ids=["hermite", "classical-1", "family", "classical-singular", "hermite-narrow"],
    )
    def test_converged_at_n100(self, seq):
        sys = PolynomialSystem(seq)
        rep = gram_deviation(sys, spec_for_system(sys), 100)
        assert rep.converged and rep.max_deviation < 1e-8

    @pytest.mark.parametrize(
        "seq",
        [
            seq_hermite(104, b0_squared=F(1, 2)),
            seq_classical(1, 104),
            seq_classical(F(-1, 2), 104),  # in the mass variable, x = u^2
        ],
        ids=["hermite", "classical-1", "classical-singular"],
    )
    def test_matches_the_dense_nodal_product_reference_at_n100(self, seq):
        # the Gram by the 61 x d^2 nodal products of each parity block and the
        # same rounds of splits on the folded half-line, one table per panel: the
        # engine evaluates it once per round, on all the round's halves' nodes
        sys = PolynomialSystem(seq)
        spec = spec_for_system(sys)
        with psi_tables(sys) as calls:
            integrand, radius = folded_integrand(sys, spec, 100)
            blocks, err, panels, rounds = integrate_fresh_sums(
                parity_blocks(integrand), [-radius, 0.0, radius], 1e-11, panel=dense_panel)
        assert blocks.shape == (2, 51, 51)
        assert len(calls) == panels + sum(rounds)  # one table per panel made
        with psi_tables(sys) as calls:
            rep = gram_deviation(sys, spec, 100)
        # one table per round, the initial two panels included, on their halves' nodes
        assert len(calls) == 1 + len(rounds)
        assert sum(x.size for x in calls) == 122 * (panels - 1)
        gram = from_blocks(blocks, 100)
        assert np.max(np.abs(rep.deviation - np.abs(gram - np.eye(101)))) <= 1e-14
        assert rep.quadrature_error == pytest.approx(err, abs=1e-14)

    @pytest.mark.parametrize(
        "seq,spec",
        [
            (seq_hermite(104, b0_squared=F(1, 2)), None),
            (seq_classical(1, 104), None),
            (seq_classical(F(-1, 2), 104), None),  # in the mass variable, x = u^2
            (seq_classical(1, 104), MeasureSpec(F(1), F(2))),  # a mismatched weight
        ],
        ids=["hermite", "classical-1", "classical-singular", "mismatched"],
    )
    def test_bit_identical_to_one_integrand_call_per_panel_at_n100(self, seq, spec):
        # the engine evaluates the integrand once per round, on all its
        # halves' nodes; the reference once per panel, with the same rule, on
        # the folded half-line's two parity blocks, cut from its full factors,
        # and with the entries i + j odd 0.0
        sys = PolynomialSystem(seq)
        spec = spec or spec_for_system(sys)
        integrand, radius = folded_integrand(sys, spec, 100)
        blocks, err, _, _ = integrate_fresh_sums(
            parity_blocks(integrand), [-radius, 0.0, radius], 1e-11)
        rep = gram_deviation(sys, spec, 100)
        assert rep.deviation.tobytes() == np.abs(from_blocks(blocks, 100) - np.eye(101)).tobytes()
        assert rep.quadrature_error == err

    @pytest.mark.parametrize("n_max", [12, 100])
    @pytest.mark.parametrize("gamma", [F(-9, 10), F(-1, 2), F(-1, 3), F(-3, 11), F(1, 3), F(7, 4)])
    def test_a_cusp_weight_takes_a_few_rounds(self, gamma, n_max):
        # in the mass variable |x|^gamma dx is M u^{K-1} du, K = M(gamma+1), with
        # no cusp for the rounds to bisect toward: in x, gamma = -1/2 took 68
        # tables at n_max 100 and gamma = -9/10 took 345, to deviations of 6e-12
        # and 5e-11
        sys = PolynomialSystem(seq_classical(gamma, n_max))
        with psi_tables(sys) as calls:
            rep = gram_deviation(sys, spec_for_system(sys), n_max)
        assert rep.converged and rep.max_deviation < 1e-13
        assert len(calls) <= 12

    @pytest.mark.parametrize("n_max", [12, 36])
    def test_next_to_the_pole_of_gamma_the_gram_converges(self, n_max):
        # at gamma = -99/100, m = 100 takes the nodes next to u = 0 to x = 0, the
        # weight's pole, where the weight times dx/du is bounded and formed as such
        sys = PolynomialSystem(seq_classical(F(-99, 100), n_max))
        rep = gram_deviation(sys, spec_for_system(sys), n_max)
        assert rep.converged and rep.max_deviation < 1e-13

    @pytest.mark.parametrize("gamma, name", [(F(-1) + F(1, 10**20), "Gamma((gamma+1)/2)")])
    def test_next_to_the_pole_of_gamma_the_gram_still_raises(self, gamma, name):
        # at gamma = -1 + 10^-20 the float of gamma is -1
        sys = PolynomialSystem(seq_classical(gamma, 12))
        with pytest.raises(FloatRangeError, match=rf"^{re.escape(name)} outside the float range"):
            gram_deviation(sys, spec_for_system(sys), 12)

    @pytest.mark.parametrize("gamma", [F(-1, 2), F(-1, 4), F(-9, 10), F(0), F(1), F(1, 3),
                                       F(7, 4), F(3)])
    def test_the_cusp_factor_is_the_weight_times_dx_du(self, gamma):
        # both factors are the one array of weighted functions s psi_n, from one table
        # whose row 0 is s; away from u = 0, s^2 is the weight at x = u^M, u = (t + T)/2,
        # times M u^{M-1}, up to rounding, on both parity blocks; for -1 < gamma < 0 s
        # has no pole where the weight has its pole x = 0
        sys = PolynomialSystem(seq_classical(gamma, 12, F(3, 2)))
        spec = spec_for_system(sys)
        m = float(measure._mass_exponent(gamma))
        assert gamma >= 0 or m == {F(-1, 2): 2, F(-1, 4): 4, F(-9, 10): 10}[gamma]
        integrand, radius = measure._gram_integrand(sys, spec, 12)
        t = np.linspace(-radius, radius, 103)[1:]  # t = -T is u = 0, the weight's pole
        phi, again = integrand(t)
        u = 0.5 * (t + radius)
        s = np.sqrt(spec.weight(u**m) * m * u ** (m - 1.0))
        table = sys.psi_eval_table(u**m, 12) * s[:, None]
        assert again is phi and phi.shape == (2, 102, 7) and not phi[1, :, 6].any()
        # s psi_n from row 0 = s and psi_n times s round apart near a zero of psi_n
        atol = 1e-14 * np.abs(table).max()
        np.testing.assert_allclose(phi[0], table[:, ::2], rtol=1e-13, atol=atol)
        np.testing.assert_allclose(phi[1, :, :6], table[:, 1::2], rtol=1e-13, atol=atol)
        np.testing.assert_allclose(phi[0, :, 0], s, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5, 9.5, 10.0, 10.5, 30.0, 100.5, 500.5, 1000.0,
                                   5000.5])
    def test_the_peak_constant_keeps_its_digits(self, s):
        # lgamma((gamma+1)/2) - (h log h - h) is O(log s) where lgamma alone is
        # O(s log s): at gamma = 1000 lgamma(500.5) = 2608.2, whose rounding alone
        # made the gamma = 1000 Gram read 1.3e-13 at n = 60.  The reference is
        # log Gamma(s) in 50 digits, from the factorials of Gamma(j) = (j-1)! and
        # Gamma(j + 1/2) = (2j)! sqrt(pi) / (4^j j!)
        decimal.getcontext().prec = 50
        pi = decimal.Decimal("3.14159265358979323846264338327950288419716939937511")
        j = int(s)
        if s == j:
            log_gamma = decimal.Decimal(math.factorial(j - 1)).ln()
        else:
            log_gamma = (decimal.Decimal(math.factorial(2 * j)).ln() + pi.ln() / 2
                         - decimal.Decimal(4**j * math.factorial(j)).ln())
        for d in (0.5, 0.25, 0.125, 0.0625):  # 1/(2M), and h = s - d exact
            h = s - d
            if h < 0:
                continue
            dh = decimal.Decimal(h)
            want = log_gamma - (dh * dh.ln() - dh if h else 0)
            assert abs(measure._log_gamma_at_peak(h, d) - float(want)) <= 1e-14

    @pytest.mark.parametrize("seq, spec, n_max", [
        (seq_hermite(104, b0_squared=F(1, 2)), None, 100),
        (seq_classical(1, 104), None, 100),
        (seq_family(F(2, 3), F(5, 3), F(3, 7), 104), None, 100),
        (seq_classical(F(-1, 2), 104), None, 100),
        (seq_hermite(104, b0_squared=F(1, 10**12)), None, 100),
        (seq_classical(F(-9, 10), 104), None, 100),
        # at n = 100 the whole line's Gram is itself 1.3e-13 off the identity here
        (seq_classical(F(-99, 100), 104), None, 36),
        (seq_classical(1, 104), MeasureSpec(F(1), F(2)), 100),  # a mismatched weight
    ], ids=["hermite", "classical-1", "family", "classical-singular", "hermite-narrow",
            "gamma-9/10", "gamma-99/100", "mismatched"])
    def test_the_half_line_gram_is_the_whole_line_gram(self, seq, spec, n_max):
        # psi_n has the parity of n and the weight is even: an entry i + j odd is
        # 0.0 exactly, and every other entry is the whole line's, which the same
        # engine integrates over [-R, R] in the unfolded mass variable
        sys = PolynomialSystem(seq)
        spec = spec or spec_for_system(sys)
        rep = gram_deviation(sys, spec, n_max)
        whole, _ = integrate_split_at_zero(*whole_line_integrand(sys, spec, n_max), tol=1e-11)
        i, j = np.indices(rep.deviation.shape)
        assert rep.converged and np.all(rep.deviation[(i + j) % 2 == 1] == 0.0)
        even = (i + j) % 2 == 0
        assert np.max(np.abs(rep.deviation - np.abs(whole - np.eye(n_max + 1)))[even]) <= 1e-13

    def test_the_mass_exponent_is_the_least_with_2m_and_k_integers(self):
        # at gamma = p/q, M >= 1 is the least half-integer at which M(gamma+1) = K is
        # an integer, while it is at most MAX_MASS_EXPONENT; past that cap, and only
        # there, ceil(gamma+1)/(gamma+1), at which K alone is an integer; 1 at an integer
        capped = 0
        for gamma in {F(p, q) for q in range(1, 25) for p in range(1 - q, 5 * q)}:
            m = measure._mass_exponent(gamma)
            assert m >= 1 and (m * (gamma + 1)).denominator == 1
            least = next(F(j, 2) for j in range(2, 4 * gamma.denominator + 1)
                         if (F(j, 2) * (gamma + 1)).denominator == 1)
            if least <= measure.MAX_MASS_EXPONENT:
                assert m == least and (2 * m).denominator == 1
            else:
                capped += 1
                assert m == math.ceil(gamma + 1) / (gamma + 1)
            assert (m == 1) == (gamma.denominator == 1)
        assert capped > 0

    @pytest.mark.parametrize("n_max", [0, 1, 12, 13, 100])
    @pytest.mark.parametrize("seq", [seq_hermite(104, b0_squared=F(1, 2)), seq_classical(1, 104),
                                     seq_classical(3, 104, F(3, 2)),
                                     seq_family(F(2, 3), F(5, 3), F(3, 7), 104)],
                             ids=["hermite", "classical-1", "classical-3", "family"])
    def test_at_an_integer_gamma_the_integrand_is_the_x_integrand_bit_for_bit(self, seq, n_max):
        # M = 1: the nodes are x = u bit for bit, and both factors are one array, the
        # parity blocks of the table of s psi_n at x from row 0 = s, s^2 the weight
        # (weight_root, written out); the blocks hold the same bytes
        sys = PolynomialSystem(seq)
        spec = spec_for_system(sys)
        integrand, radius = measure._gram_integrand(sys, spec, n_max)
        t = np.linspace(-radius, radius, 246)[1:-1]  # inside the panels, as every node is

        def before(t):  # the integrand at m = 1.0, written out in x
            x = 0.5 * (t + radius)
            table = sys.psi_eval_table(x, n_max, weight_root(spec, x))
            return table, table

        got = integrand(t)
        assert got[0] is got[1]
        for got, want in zip(got, parity_blocks(before)(t)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gamma", [F(-1, 4), F(-1, 5), F(-1, 9), F(1, 3), F(-3, 7), F(3, 5)])
    def test_an_entire_integrand_takes_two_tables_at_n12(self, gamma):
        # 2M and M(gamma+1) integers: each block's integrand is a polynomial in u
        # times exp(-alpha u^{2M}), entire, and one round of splits of the first two
        # panels meets the tolerance, where x = u^m, m = ceil(gamma+1)/(gamma+1),
        # with the entries i + j odd formed too, took 8, 9, 10, 4, 5 and 5 tables
        sys = PolynomialSystem(seq_classical(gamma, 12))
        with psi_tables(sys) as calls:
            rep = gram_deviation(sys, spec_for_system(sys), 12)
        assert rep.converged and rep.max_deviation < 1e-13
        assert len(calls) <= 2

    @pytest.mark.parametrize("seq, n_max", [
        *((seq, n) for seq in (seq_family(F(2, 3), F(5, 3), F(3, 7), 100), seq_classical(1, 100),
                               seq_hermite(100, b0_squared=F(1, 2))) for n in (20, 50, 100)),
        *((seq_classical(g, 12), 12) for g in (F(-1, 4), F(-1, 2), F(-9, 10), F(1, 3), F(7, 4))),
    ])
    def test_the_half_line_takes_at_most_half_the_nodes(self, seq, n_max):
        # the float-boundary benchmark's three systems, and five cusp weights: the
        # fold evaluates psi on half the line, at no more than half the nodes of
        # the whole line's rounds (at most 0.5 here, 0.33 at gamma = -1/2)
        sys = PolynomialSystem(seq)
        spec = spec_for_system(sys)
        with psi_tables(sys) as half:
            gram_deviation(sys, spec, n_max)
        with psi_tables(sys) as whole:
            integrate_split_at_zero(*whole_line_integrand(sys, spec, n_max), tol=1e-11)
        assert 2 * sum(x.size for x in half) <= sum(x.size for x in whole)

    @pytest.mark.parametrize("n_max, most_tables", [(12, 394), (100, 879)])
    def test_every_weight_of_the_sweep_converges(self, n_max, most_tables):
        # the 230 weights gamma = p/q in (-1, 4], q <= 12: every Gram converges below
        # 2e-14, and all of them take at most 394 tables at n = 12 and 879 at n = 100
        # (500 and 1 000 with the radius max(10, 3 sqrt(n) + 5, ...))
        gammas = {F(p, q) for q in range(1, 13) for p in range(1 - q, 4 * q + 1)}
        assert len(gammas) == 230
        tables, worst = 0, {}
        for gamma in sorted(gammas):
            sys = PolynomialSystem(seq_classical(gamma, n_max))
            with psi_tables(sys) as calls:
                rep = gram_deviation(sys, spec_for_system(sys), n_max)
            tables += len(calls)
            if not (rep.converged and rep.max_deviation < 2e-14):
                worst[gamma] = (rep.converged, rep.max_deviation)
        assert worst == {} and tables <= most_tables

    @pytest.mark.parametrize("n_max", [1, 12, 100])
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 3.5, 5e11])
    def test_integration_radius_on_the_weight_scale(self, n_max, alpha):
        # at every alpha, the alpha = 1 radius over sqrt(alpha), bit for bit
        for gamma in (0.0, 200.0):
            radius = measure._integration_radius(n_max, gamma, alpha)
            assert radius == measure._integration_radius(n_max, gamma, 1.0) / math.sqrt(alpha)

    @pytest.mark.parametrize("seq, spec", [
        (seq_hermite(104, b0_squared=F(1, 2)), None),
        (seq_classical(1, 104), None),
        (seq_classical(F(-1, 2), 104), None),
        (seq_family(F(2, 3), F(5, 3), F(3, 7), 104), None),
        (seq_classical(200, 104), None),
        (seq_hermite(104, b0_squared=F(1, 10**12)), None),
        (seq_classical(1, 104), MeasureSpec(F(1), F(2))),  # a mismatched weight
    ], ids=["hermite", "classical-1", "classical-singular", "family", "gamma-200",
            "hermite-narrow", "mismatched"])
    @pytest.mark.parametrize("n_max", [0, 1, 12, 100])
    def test_integration_radius_is_the_turning_point_and_an_airy_margin(self, seq, spec, n_max):
        # alpha R^2 = t = 2n + gamma + 1 at psi_n's turning point, then 6 Airy scales
        # t^{-1/6} and 3 more: there every weighted function s psi_m, m <= n, is below
        # 1e-10 of its largest value (past it each decays faster than a Gaussian), so
        # what the panels leave out is below the Gram's rounding; the radius
        # max(10, 3 sqrt(n) + 5) it replaced was larger wherever n >= 12, gamma <= 2
        sys = PolynomialSystem(seq)
        spec = spec or spec_for_system(sys)
        g, a = float(spec.gamma), float(spec.alpha)
        t = 2.0 * n_max + g + 1.0
        radius = measure._integration_radius(n_max, g, a)
        assert radius * math.sqrt(a) == pytest.approx(math.sqrt(t) + 6.0 * t ** (-1 / 6) + 3.0,
                                                      rel=1e-15)
        if n_max >= 12 and g <= 2:
            assert radius * math.sqrt(a) < max(10.0, 3.0 * math.sqrt(n_max) + 5.0)
        integrand, t_max = measure._gram_integrand(sys, spec, n_max)
        phi = integrand(np.linspace(-t_max, t_max, 4001)[1:])[0]
        assert np.all(np.abs(phi[:, -1]) <= 1e-10 * np.abs(phi).max(axis=1))

    @pytest.mark.parametrize("gamma, n_max", [(212, 50), (215, 20), (260, 8), (400, 8)])
    def test_a_large_gamma_needs_no_radius_cap(self, gamma, n_max):
        # the weight's factor |x|^gamma is never formed alone, so the radius has no
        # stop where it would reach 2^1020 (29.1^212, 27.4^215, 24.6^260; at
        # gamma = 260, n = 8 that stop, 15.2, left too little margin, and the
        # radius is now 22.0), and the Gram converges below 1e-13
        sys = PolynomialSystem(seq_classical(gamma, n_max))
        rep = gram_deviation(sys, spec_for_system(sys), n_max)
        assert rep.converged and rep.max_deviation < 1e-13

    @pytest.mark.parametrize("n_max", [12, 100])
    @pytest.mark.parametrize("family", ["hermite", "family-4-5"])
    def test_gram_does_not_depend_on_b0_squared(self, family, n_max):
        # b0^2 sets only the weight's scale: on that scale every b0^2 gives
        # the same panels, so the same integrand calls, and the same Gram to
        # rounding
        calls, devs = [], []
        for b0_squared in (F(1, 10**12), F(1, 2), F(10**6), F(10**100)):
            if family == "hermite":
                sys = PolynomialSystem(seq_hermite(n_max, b0_squared=b0_squared))
            else:
                sys = PolynomialSystem(seq_family(4, 5, b0_squared, n_max))
            with psi_tables(sys) as tables:
                rep = gram_deviation(sys, spec_for_system(sys), n_max)
            assert rep.converged
            calls.append([x.size for x in tables])
            devs.append(rep.deviation)
        assert all(sizes == calls[0] for sizes in calls)
        assert all(np.max(np.abs(dev - devs[0])) <= 1e-14 for dev in devs)

    def test_wrong_alpha_is_visible_at_n100(self):
        sys = PolynomialSystem(seq_classical(1, 104))
        rep = gram_deviation(sys, MeasureSpec(F(1), F(2)), 100)
        assert rep.max_deviation > 0.1

    def test_wrong_alpha_is_visible(self):
        sys = PolynomialSystem(seq_classical(1, 16))
        rep = gram_deviation(sys, MeasureSpec(F(1), F(2)), 8)
        assert rep.max_deviation > 0.1

    def test_spec_for_system(self):
        sys = PolynomialSystem(seq_family(4, 5, F(1), 16))
        spec = spec_for_system(sys)
        assert (spec.gamma, spec.alpha) == (F(-1, 2), F(1, 4))
        rep = gram_deviation(sys, spec_for_system(sys), 10)
        assert rep.max_deviation < 1e-8

    def test_converged_quadrature_reports_its_tolerance(self):
        sys = PolynomialSystem(seq_hermite(8))
        rep = gram_deviation(sys, spec_for_system(sys), 4)
        assert rep.tolerance == 1e-11
        assert rep.converged and rep.quadrature_error <= rep.tolerance
        # psi_9 is past the system's n_max
        with pytest.raises(ValueError, match="system built to n_max=8"):
            gram_deviation(sys, spec_for_system(sys), 9)

    @pytest.mark.parametrize("n_max", [-1, -9])
    def test_a_negative_n_max_is_rejected_before_any_float_work(self, monkeypatch, n_max):
        sys = PolynomialSystem(seq_hermite(8))

        def no_radius(*args):
            raise AssertionError("the integration radius was formed")

        monkeypatch.setattr(measure, "_integration_radius", no_radius)
        with pytest.raises(ValueError, match=rf"^n_max must be in \[0, 8\]; got {n_max}$"):
            gram_deviation(sys, spec_for_system(sys), n_max)

    def test_quadrature_stopped_short_is_not_converged(self):
        # no panel count reaches 1e-300: the quadrature stops at MAX_PANELS
        sys = PolynomialSystem(seq_hermite(4))
        rep = gram_deviation(sys, spec_for_system(sys), 2, tol=1e-300)
        assert rep.tolerance == 1e-300
        assert rep.converged is False

    def test_rounds_bound_the_tables_of_a_gram_run_to_max_panels(self):
        # every integrand call holds the halves of at most ROUND_PANELS panels,
        # 2 x 64 x 61 = 7 808 nodes.  Without that bound a round could take up
        # to 2 000 panels here, and one call's 244 000 x 101 table alone would
        # be 197 MB, beside the 326 MB of the 4 000 kept 101 x 101 blocks
        sys = PolynomialSystem(seq_classical(1, 104))
        with psi_tables(sys) as calls:
            rep = gram_deviation(sys, spec_for_system(sys), 100, tol=1e-300)
        sizes = [x.size for x in calls]
        assert max(sizes) <= 2 * quadrature.ROUND_PANELS * 61 == 7808
        assert sum(sizes) == 122 * (quadrature.MAX_PANELS - 1)  # it ends at MAX_PANELS
        assert rep.converged is False

    def test_gram_is_symmetric(self):
        sys = PolynomialSystem(seq_classical(2, 14))
        spec = spec_for_system(sys)
        rep = gram_deviation(sys, spec, 10)
        assert np.max(np.abs(rep.deviation - rep.deviation.T)) < 1e-12

    def test_recurrence_coefficients_recovered(self):
        # <x psi_{n-1}, psi_n> = b_{n-1}
        sys = PolynomialSystem(seq_classical(1, 14))
        spec = spec_for_system(sys)
        n_hi = 10

        def integrand(x):
            t = sys.psi_eval_table(x, n_hi)
            return t * (x * spec.weight(x))[:, None], t

        xg, _ = integrate_split_at_zero(integrand, 14.0, tol=1e-11)
        for n in range(1, n_hi + 1):
            assert xg[n - 1, n] == pytest.approx(sys.b_float[n - 1], abs=1e-8)


def dense_panel(f, a, b):
    """The panel rule on the explicit nodewise outer products of f's pair of
    factors: the 61 x p x q array u_i v_j (for each block on a leading axis),
    contracted with both rules.  The reference for _rule's one rule-weighted product."""
    half = 0.5 * (b - a)
    nodes, rules = quadrature._tables()
    u, v = f(0.5 * (a + b) + half * nodes)
    y = u[..., :, :, None] * v[..., :, None, :]  # (..., 61, p, q), for each block
    k, g = half * np.tensordot(rules, y, axes=([1], [-3]))
    return k, float(np.max(np.abs(k - g)))


def one_panel(f, a, b):
    """The rule on one panel [a, b], with f called on its 61 nodes alone: the
    per-panel reference for the engine, which calls f once per round."""
    half = 0.5 * (b - a)
    u, v = f(0.5 * (a + b) + half * quadrature._tables()[0])
    return quadrature._rule(half, u, v)


def integrate_fresh_sums(f, breakpoints, tol, max_panels=4000, panel=one_panel,
                         round_panels=64):
    """The rounds of integrate_split_at_zero from any breakpoints, on a heap,
    with f called once per panel: the reference for the engine, which starts
    from the split at 0 and calls f once per round.  While the panel errors
    sum to more than tol and fewer than max_panels panels exist, a round pops
    the largest errors in heap order (error, then creation) until the errors
    left in the heap sum to at most tol, at least one panel and at most
    round_panels, never past max_panels panels; then it splits each popped
    panel, left half first, in pop order.  Every error sum is a fresh one: the
    errors left from the smallest up, the panel total in order of position.
    The integral is the sum of the final panels' blocks in order of position.
    Returns it, the error total, the panel count and each round's pop count."""
    heap, counter, rounds = [], 0, []

    def by_position():
        return sorted((a, b, -neg_err, val) for neg_err, _, a, b, val in heap)

    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        val, err = panel(f, a, b)
        heapq.heappush(heap, (-err, counter, a, b, val))
        counter += 1
    total_err = sum(e for _, _, e, _ in by_position())
    while total_err > tol and len(heap) < max_panels:
        cap = min(round_panels, max_panels - len(heap))
        popped = [heapq.heappop(heap)]
        while len(popped) < cap and sum(sorted(-item[0] for item in heap)) > tol:
            popped.append(heapq.heappop(heap))
        rounds.append(len(popped))
        for _, _, a, b, _ in popped:
            mid = 0.5 * (a + b)
            for lo, hi in ((a, mid), (mid, b)):
                val, err = panel(f, lo, hi)
                heapq.heappush(heap, (-err, counter, lo, hi, val))
                counter += 1
        total_err = sum(e for _, _, e, _ in by_position())
    return sum(val for _, _, _, val in by_position()), total_err, len(heap), rounds


class TestQuadratureEngine:
    @pytest.mark.parametrize(
        "amplitude,tol",
        [(1e10, 1e-8), (1e12, 1e-8), (1e12, 1e-6), (3e10, 1e-8), (1e13, 1e-7)],
    )
    def test_running_error_total_matches_fresh_sums(self, amplitude, tol):
        # a tall spike over a unit background, with tol near the rounding of
        # the panel errors: an error total updated by adding and subtracting
        # panel errors drifts by more than tol and, at (3e10, 1e-8) and
        # (1e13, 1e-7), split on to MAX_PANELS one panel at a time, where the
        # fresh sums stopped at 22 and 577 panels (23 and 577 in rounds).
        # Which cases drift depends on the panel product's rounding.
        @plain
        def f(x):
            return amplitude * np.exp(-(((x - 0.3) / 1e-3) ** 2)) + np.cos(x)

        want, want_err, panels, rounds = integrate_fresh_sums(f, [-1.0, 0.0, 1.0], tol)
        assert want_err <= tol and panels < 4000
        sizes = []
        got, err = integrate_split_at_zero(lambda x: sizes.append(x.size) or f(x), 1.0, tol=tol)
        assert got.tobytes() == want.tobytes() and err == want_err  # bit for bit
        # one call for the two initial panels and one per round, on all its halves
        assert len(sizes) == 1 + len(rounds)
        assert sum(sizes) == 122 * (panels - 1)

    @pytest.mark.parametrize(
        "small,half,tol",
        [(3.0, 0.0, 3.5), (1.0, 0.0, 0.5), (1.0, 3e15, 6e15)],
        ids=["reads-over", "reads-under", "reads-under-unhalved"],
    )
    def test_running_error_total_against_chosen_errors(self, small, half, tol, monkeypatch):
        # panels with chosen error estimates: [-1, 0] at 1e16, its halves at
        # `half` and theirs at 0; [0, 1] at `small`, and each half of a panel
        # there at a quarter of its parent's.  The float spacing is 2 at 1e16,
        # so an error total updated by subtracting 1e16 after splitting
        # [-1, 0] is off by one:
        # - 1e16 + 3 rounds up: the total reads 4 where the panels hold 3, over
        #   tol 3.5, and would split on;
        # - 1e16 + 1 rounds down: it reads 0 where they hold 1, under tol 0.5;
        # - with halves at 3e15 it reads 6e15 = tol where they hold 6e15 + 1.
        # A fresh sum over the panels after every split stops where the
        # reference does.
        # The rule sees a panel through its half width and its nodes (the
        # integrand's factors here), all of one sign on either side of 0.
        def fake(h, u, v):
            if u[0, 0] > 0.0:
                return np.zeros((1, 1)), small * (2 * h) ** 2
            return np.zeros((1, 1)), {1.0: 1e16, 0.5: half}.get(2 * h, 0.0)

        def nodes(x):
            calls.append(x.size)
            return x[:, None], x[:, None]

        monkeypatch.setattr(quadrature, "_rule", fake)
        calls = []
        want, want_err, panels, rounds = integrate_fresh_sums(nodes, [-1.0, 0.0, 1.0], tol)
        assert want_err <= tol and calls == [61] * (2 * panels - 2)
        calls = []
        _, err = integrate_split_at_zero(nodes, 1.0, tol=tol)
        assert err == want_err
        # two initial panels, then one call per round
        assert len(calls) == 1 + len(rounds)
        assert sum(calls) == 122 * (panels - 1)

    @pytest.mark.parametrize("tol,round_panels,max_panels,want", [
        (6.0, 64, 4000, [[-0.75]]),  # popping 5 leaves 3 + 2 + 1 = 6
        (5.5, 64, 4000, [[-0.75, -0.25]]),  # ... more than 5.5; popping 3 too leaves 3
        (3.0, 64, 4000, [[-0.75, -0.25]]),
        (2.5, 64, 4000, [[-0.75, -0.25, 0.25]]),
        (0.5, 64, 4000, [[-0.75, -0.25, 0.25, 0.75]]),
        (0.5, 2, 4000, [[-0.75, -0.25], [0.25, 0.75]]),  # at most ROUND_PANELS a round
        (0.5, 64, 6, [[-0.75, -0.25]]),  # never past MAX_PANELS
    ])
    def test_a_round_pops_the_minimal_largest_error_prefix(
            self, tol, round_panels, max_panels, want, monkeypatch):
        # chosen error estimates: 8 on each initial panel, so the first round
        # splits both; on their halves, centred at -0.75, -0.25, 0.25 and 0.75,
        # errors 5, 3, 2 and 1; 0 on every narrower panel.  A round pops the
        # largest errors until those left sum to at most tol, and no more.
        errors = {-0.75: 5.0, -0.25: 3.0, 0.25: 2.0, 0.75: 1.0}

        def fake(h, u, v):  # node 30 is the panel's centre
            return np.zeros((1, 1)), {1.0: 8.0, 0.5: errors.get(u[30, 0])}.get(2 * h) or 0.0

        def nodes(x):
            calls.append(x)
            return x[:, None], x[:, None]

        monkeypatch.setattr(quadrature, "_rule", fake)
        monkeypatch.setattr(quadrature, "ROUND_PANELS", round_panels)
        monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
        calls = []
        _, err = integrate_split_at_zero(nodes, 1.0, tol=tol)
        # the centres of the panels each call split, from its halves' centres
        centres = [list((x[30::122] + x[91::122]) / 2) for x in calls]
        assert centres[:2] == [[0.0], [-0.5, 0.5]] and centres[2:] == want
        left = [e for c, e in errors.items() if not any(c in w for w in want)]
        assert err == sum(left)
        calls = []
        _, want_err, _, rounds = integrate_fresh_sums(nodes, [-1.0, 0.0, 1.0], tol, max_panels,
                                                      round_panels=round_panels)
        assert rounds == [2] + [len(w) for w in want] and want_err == err

    def test_each_call_holds_both_halves_nodes(self):
        # the engine's calls hold, bit for bit, the reference's per-panel node
        # arrays concatenated round by round: first the two panels split at 0,
        # then both halves of each panel the round splits, in pop order
        @plain
        def f(x):
            return np.abs(x) ** 0.3 * np.exp(-x * x)

        want, got = [], []
        _, _, _, rounds = integrate_fresh_sums(
            lambda x: want.append(x) or f(x), [-5.0, 0.0, 5.0], 1e-12)
        integrate_split_at_zero(lambda x: got.append(x) or f(x), 5.0, tol=1e-12)
        assert len(got) == 1 + len(rounds) > 2 and max(rounds) > 1
        starts = np.cumsum([0, 2] + [2 * k for k in rounds])
        for x, lo, hi in zip(got, starts[:-1], starts[1:]):
            assert x.tobytes() == np.concatenate(want[lo:hi]).tobytes()
        assert starts[-1] == len(want)

    @pytest.mark.parametrize("cols", [1, 2, 7, 51])
    def test_a_block_axis_gives_the_2d_rule_block_by_block(self, cols):
        # a leading block axis: each block's K61 block is the 2-D rule's bit for
        # bit, on fixed panels whose rows are cut from one call's factors, as
        # _halves cuts them, and the error is the largest of the blocks' errors
        rng = np.random.default_rng(cols)
        u, v = rng.standard_normal((2, 244, cols)), rng.standard_normal((2, 244, cols))
        panels = [(-1.0, 0.0), (0.0, 1.0)]
        stacked = _halves(lambda x: (u, v), panels, 0)
        apart = [_halves(lambda x: (u[i], v[i]), panels, 0) for i in range(2)]
        for j, (_, _, k, err, _) in enumerate(stacked):
            assert k.shape == (2, cols, cols)
            for i in range(2):
                assert k[i].tobytes() == apart[i][j][2].tobytes()
            assert err == max(apart[0][j][3], apart[1][j][3])
            rows = slice(61 * j, 61 * j + 61)
            k_rule, err_rule = _rule(0.25, u[:, rows], v[:, rows])
            assert k_rule.tobytes() == k.tobytes() and err_rule == err

    def test_panel_block_owns_its_data(self):
        # a panel kept for the next round holds its K61 block alone, not a view
        # into the product that also holds the G30 block
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal((244, 4)), rng.standard_normal((244, 3))
        halves = _halves(lambda x: (u, v), [(-1.0, 0.0), (0.0, 1.0)], 0)
        assert [(a, b, i) for a, b, _, _, i in halves] == [
            (-1.0, -0.5, 0), (-0.5, 0.0, 1), (0.0, 0.5, 2), (0.5, 1.0, 3)]
        for _, _, k, _, _ in halves:
            assert k.base is None and k.flags.owndata

    @pytest.mark.parametrize("tol,max_panels", [(1e-6, 4000), (1e-12, 4000), (1e-300, 600)])
    def test_vector_integrand_matches_fresh_sums(self, tol, max_panels, monkeypatch):
        @plain
        def f(x):
            return np.stack([np.abs(x) ** 0.3 * np.exp(-x * x), np.cos(5 * x)], axis=1)

        want, want_err, _, _ = integrate_fresh_sums(f, [-5.0, 0.0, 5.0], tol, max_panels)
        monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
        got, err = integrate_split_at_zero(f, 5.0, tol=tol)
        assert got.tobytes() == want.tobytes() and err == want_err

    def test_panel_contracts_the_pair_of_factors(self):
        # one rule-weighted product equals both rules applied to the explicit
        # 61 x p x q nodewise products, to rounding: 1e-15 of the integral of
        # |u_i v_j| (the scale of a 61-term dot product's rounding)
        rng = np.random.default_rng(11)
        u, v = rng.standard_normal((61, 7)), rng.standard_normal((61, 5))
        a, b = -0.7, 2.3
        k, err = _rule(0.5 * (b - a), u, v)
        want, want_err = dense_panel(lambda x: (u, v), a, b)
        scale, _ = dense_panel(lambda x: (np.abs(u), np.abs(v)), a, b)
        assert k.shape == (7, 5)
        assert np.all(np.abs(k - want) <= 1e-15 * scale)
        assert abs(err - want_err) <= 2e-15 * scale.max()

    def test_rule_constants_by_exactness(self):
        # K61 integrates x^k over [-1, 1] exactly for k <= 91, G30 for k <= 59
        nodes, (kronrod, gauss_weights) = quadrature._tables()
        gauss = gauss_weights != 0
        for weights, x, degree in (
            (kronrod, nodes, 91),
            (gauss_weights[gauss], nodes[gauss], 59),
        ):
            for k in range(degree + 1):
                want = 0.0 if k % 2 else 2.0 / (k + 1)
                assert abs(weights @ x**k - want) < 1e-14, (len(x), k)
            assert np.all(weights > 0)
        assert quadrature._tables() is quadrature._tables()  # built once per process
        assert nodes.shape == (61,) and np.all(np.diff(nodes) > 0)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(np.flatnonzero(gauss), np.arange(1, 61, 2))

    def test_polynomial_exactness(self):
        val, err = integrate_split_at_zero(plain(lambda x: x**6), 2.0, tol=1e-13)
        assert val.item() == pytest.approx(2 * 2.0**7 / 7, rel=1e-13)

    def test_vector_integrand(self):
        val, _ = integrate_split_at_zero(
            plain(lambda x: np.stack([np.ones_like(x), x, x * x], axis=1)), 1.0
        )
        assert np.allclose(val[:, 0], [2.0, 0.0, 2.0 / 3.0], atol=1e-12)

    def test_cusp_handling(self):
        # int_{-1}^{1} |x|^{-1/2} dx = 4, integrable singularity at 0
        val, err = integrate_split_at_zero(plain(lambda x: np.abs(x) ** -0.5), 1.0, tol=1e-9)
        assert val.item() == pytest.approx(4.0, abs=1e-7)


class TestCarleman:
    def test_hermite_determinate(self):
        sys = PolynomialSystem(seq_hermite(64))
        rep = carleman_determinacy(sys.b_float)
        assert rep.verdict == "divergent (determinate)"
        assert abs(rep.growth_exponent - 0.5) < 0.05
        assert rep.partial_sum > 10

    def test_classical_gamma3_determinate(self):
        sys = PolynomialSystem(seq_classical(3, 64))
        rep = carleman_determinacy(sys.b_float)
        assert rep.verdict == "divergent (determinate)"
        assert abs(rep.growth_exponent - 0.5) < 0.05

    def test_geometric_growth_inconclusive(self):
        rep = carleman_determinacy([2.0**n for n in range(32)])
        assert rep.verdict == "inconclusive within horizon"
        assert rep.partial_sum < 2.01

    def test_guards(self):
        with pytest.raises(ValueError):
            carleman_determinacy([1.0, 2.0])
        with pytest.raises(ValueError):
            carleman_determinacy([1.0] * 10 + [-1.0] * 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_coefficient_is_rejected(self, bad):
        # as psi_eval_table rejects a non-finite node: no partial sum of nan or 0.0
        for b in ([bad] * 10, [1.0] * 9 + [bad]):
            with pytest.raises(ValueError, match="positive and finite"):
                carleman_determinacy(b)
