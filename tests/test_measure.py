import heapq
import math
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_chihara import (
    MeasureSpec,
    PolynomialSystem,
    carleman_determinacy,
    gram_deviation,
    jacobi_moment,
    moment_closed,
    normalization,
    orthonormality_check,
    seq_classical,
    seq_family,
    seq_hermite,
    spec_for_system,
)
from hermite_chihara.gammafn import gamma as lanczos_gamma
from hermite_chihara import quadrature
from hermite_chihara.quadrature import _panel, integrate_adaptive, integrate_split_at_zero


def weight_system(gamma: F, alpha: F, N: int = 16) -> PolynomialSystem:
    """Family system orthonormal for C |x|^gamma exp(-alpha x^2)."""
    v1 = F(2) / (gamma + 1)
    return PolynomialSystem(seq_family(v1, 1 + v1, b0_squared=(gamma + 1) / (2 * alpha), N=N))


class TestGammaFunction:
    def test_against_stdlib(self):
        for z in np.concatenate([np.linspace(0.02, 2, 67), np.linspace(2, 59.5, 77)]):
            assert lanczos_gamma(z) == pytest.approx(math.gamma(z), rel=1e-13)

    def test_against_scipy(self):
        zs = [0.5, 1.5, 2.5, 10.25, 33.7]
        for z in zs:
            assert lanczos_gamma(z) == pytest.approx(float(scipy.special.gamma(z)), rel=1e-13)

    def test_exact_values(self):
        assert lanczos_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        for k in range(1, 15):
            assert lanczos_gamma(k) == pytest.approx(math.factorial(k - 1), rel=1e-13)

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            lanczos_gamma(0.0)

    @settings(max_examples=40, deadline=None)
    @given(z=st.floats(min_value=0.05, max_value=30.0, allow_nan=False))
    def test_recurrence(self, z):
        assert lanczos_gamma(z + 1.0) == pytest.approx(z * lanczos_gamma(z), rel=1e-12)


class TestNormalization:
    def test_gaussian(self):
        assert normalization(0, 1) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-13)

    def test_gamma1(self):
        # int |x| e^{-x^2} dx = 1
        assert normalization(1, 1) == pytest.approx(1.0, rel=1e-13)

    def test_gamma2(self):
        # int x^2 e^{-x^2} dx = sqrt(pi)/2
        assert normalization(2, 1) == pytest.approx(2 / math.sqrt(math.pi), rel=1e-13)

    def test_total_mass_is_one(self):
        for g, a in ((F(0), F(1)), (F(1, 2), F(2)), (F(2), F(1, 2)), (F(-1, 2), F(1))):
            spec = MeasureSpec(g, a)
            val, err = integrate_split_at_zero(spec.weight, 12.0 / math.sqrt(float(a)), tol=1e-12)
            assert abs(val - 1.0) < 1e-10

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            normalization(-1, 1)
        with pytest.raises(ValueError):
            normalization(0, 0)
        with pytest.raises(ValueError):
            MeasureSpec(F(-2), F(1))


class TestMoments:
    def test_odd_vanish(self):
        spec = MeasureSpec(F(3, 2), F(2))
        assert all(moment_closed(spec, k) == 0 for k in (1, 3, 5, 7, 9))

    def test_mu0_is_one(self):
        assert moment_closed(MeasureSpec(F(2), F(1, 2)), 0) == 1

    def test_gaussian_second_moment(self):
        spec = MeasureSpec(F(0), F(1))
        sys = PolynomialSystem(seq_hermite(8))
        assert moment_closed(spec, 2) == F(1, 2) == jacobi_moment(sys.b2, 2) == sys.seq.b0_squared

    def test_three_route_agreement(self):
        # closed form == Jacobi walk exactly; quadrature within a relative 1e-8
        for g in (F(0), F(1, 2), F(1), F(2)):
            for a in (F(1, 2), F(1), F(2)):
                spec = MeasureSpec(g, a)
                sys = weight_system(g, a, N=12)
                for k in range(0, 17):
                    closed = moment_closed(spec, k)
                    assert closed == jacobi_moment(sys.b2, k)
                    radius = max(10.0, 3.0 * math.sqrt(max(k, 1) / float(a)) + 5.0)
                    quad, _ = integrate_split_at_zero(
                        lambda x: x**k * spec.weight(x), radius, tol=1e-11
                    )
                    assert abs(float(closed) - quad) <= 1e-8 * max(1.0, abs(float(closed)))

    def test_jacobi_walk_needs_enough_coefficients(self):
        sys = PolynomialSystem(seq_hermite(4))
        with pytest.raises(ValueError):
            jacobi_moment(sys.b2[:2], 10)

    def test_scipy_cross_check(self):
        # mu_{2n} = Gamma(n + (g+1)/2) / (Gamma((g+1)/2) a^n)
        g, a = 1.5, 2.0
        spec = MeasureSpec(F(3, 2), F(2))
        for n in range(0, 7):
            expect = scipy.special.gamma(n + (g + 1) / 2) / scipy.special.gamma((g + 1) / 2) / a**n
            assert float(moment_closed(spec, 2 * n)) == pytest.approx(expect, rel=1e-12)


class TestOrthonormality:
    def test_hermite(self):
        sys = PolynomialSystem(seq_hermite(16))
        rep = orthonormality_check(sys, MeasureSpec(F(0), F(1)), 12)
        assert rep.max_deviation < 1e-8

    def test_classical_gamma1(self):
        sys = PolynomialSystem(seq_classical(1, 16))
        rep = orthonormality_check(sys, MeasureSpec(F(1), F(1)), 12)
        assert rep.max_deviation < 1e-8

    def test_wrong_alpha_is_visible(self):
        sys = PolynomialSystem(seq_classical(1, 16))
        rep = orthonormality_check(sys, MeasureSpec(F(1), F(2)), 8, require_match=False)
        assert rep.max_deviation > 0.1

    def test_mismatch_is_an_input_error(self):
        sys = PolynomialSystem(seq_classical(1, 16))
        with pytest.raises(ValueError):
            orthonormality_check(sys, MeasureSpec(F(1), F(2)), 8)

    def test_spec_for_system(self):
        sys = PolynomialSystem(seq_family(4, 5, F(1), 16))
        spec = spec_for_system(sys)
        assert (spec.gamma, spec.alpha) == (F(-1, 2), F(1, 4))
        rep = orthonormality_check(sys, spec, 10)
        assert rep.max_deviation < 1e-8

    def test_converged_quadrature_reports_its_tolerance(self):
        sys = PolynomialSystem(seq_hermite(8))
        rep = gram_deviation(sys, spec_for_system(sys), 4)
        assert rep.tolerance == 1e-11
        assert rep.converged and rep.quadrature_error <= rep.tolerance

    def test_quadrature_stopped_short_is_not_converged(self):
        # no panel count reaches 1e-300: the quadrature stops at max_panels
        sys = PolynomialSystem(seq_hermite(4))
        rep = gram_deviation(sys, spec_for_system(sys), 2, tol=1e-300)
        assert rep.tolerance == 1e-300
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
            w = spec.weight(x)
            return (t[:, :, None] * t[:, None, :] * (x * w)[:, None, None]).reshape(x.size, -1)

        vals, _ = integrate_split_at_zero(integrand, 14.0, tol=1e-11)
        xg = np.asarray(vals).reshape(n_hi + 1, n_hi + 1)
        for n in range(1, n_hi + 1):
            assert xg[n - 1, n] == pytest.approx(sys.b_float[n - 1], abs=1e-8)


def integrate_fresh_sums(f, breakpoints, tol, max_panels=4000):
    """integrate_adaptive with the error total re-summed over every panel
    after each split: the reference for the running total.  Also returns the
    panel count."""
    heap, counter, total = [], 0, None
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        val, err = _panel(f, a, b)
        total = val if total is None else total + val
        heapq.heappush(heap, (-err, counter, a, b, val))
        counter += 1
    total_err = -sum(item[0] for item in heap)
    while total_err > tol and len(heap) < max_panels:
        neg_err, _, a, b, val = heapq.heappop(heap)
        if -neg_err <= 0.0:
            heapq.heappush(heap, (neg_err, counter, a, b, val))
            break
        mid = 0.5 * (a + b)
        v1, e1 = _panel(f, a, mid)
        v2, e2 = _panel(f, mid, b)
        total = total - val + v1 + v2
        heapq.heappush(heap, (-e1, counter, a, mid, v1)); counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2)); counter += 1
        total_err = -sum(item[0] for item in heap)
    return (total[0] if total.shape == (1,) else total), total_err, len(heap)


class TestQuadratureEngine:
    @pytest.mark.parametrize("amplitude,tol", [(1e10, 1e-8), (1e12, 1e-8), (1e12, 1e-6)])
    def test_running_error_total_matches_fresh_sums(self, amplitude, tol, monkeypatch):
        # a spike of 1e12 over a unit background: a running total that is
        # never re-summed drifts by more than tol and, at (1e12, 1e-8), splits
        # on to max_panels where the fresh sums stop at 844 panels
        def f(x):
            return amplitude * np.exp(-(((x - 0.3) / 1e-3) ** 2)) + np.cos(x)

        want, want_err, panels = integrate_fresh_sums(f, [-1.0, 0.0, 1.0], tol)
        assert want_err <= tol and panels < 4000
        calls = []
        monkeypatch.setattr(quadrature, "_panel", lambda *a: calls.append(a) or _panel(*a))
        got, err = integrate_adaptive(f, [-1.0, 0.0, 1.0], tol=tol)
        assert (got, err) == (want, want_err)  # same floats, bit for bit
        assert len(calls) == 2 * panels - 2  # two initial panels, two per split

    @pytest.mark.parametrize("tol,max_panels", [(1e-6, 4000), (1e-12, 4000), (1e-300, 600)])
    def test_vector_integrand_matches_fresh_sums(self, tol, max_panels):
        def f(x):
            return np.stack([np.abs(x) ** 0.3 * np.exp(-x * x), np.cos(5 * x)], axis=1)

        want, want_err, _ = integrate_fresh_sums(f, [-5.0, 0.0, 5.0], tol, max_panels)
        got, err = integrate_adaptive(f, [-5.0, 0.0, 5.0], tol=tol, max_panels=max_panels)
        assert got.tobytes() == want.tobytes() and err == want_err

    def test_polynomial_exactness(self):
        val, err = integrate_adaptive(lambda x: x**6, [0.0, 2.0], tol=1e-13)
        assert val == pytest.approx(2.0**7 / 7, rel=1e-13)

    def test_vector_integrand(self):
        val, _ = integrate_adaptive(
            lambda x: np.stack([np.ones_like(x), x, x * x], axis=1), [0.0, 1.0]
        )
        assert np.allclose(val, [1.0, 0.5, 1.0 / 3.0], atol=1e-12)

    def test_cusp_handling(self):
        # int_{-1}^{1} |x|^{-1/2} dx = 4, integrable singularity at 0
        val, err = integrate_split_at_zero(lambda x: np.abs(x) ** -0.5, 1.0, tol=1e-9)
        assert val == pytest.approx(4.0, abs=1e-7)

    def test_breakpoint_guard(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, [1.0])


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
