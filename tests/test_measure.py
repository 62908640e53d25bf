import heapq
import math
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.special

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
from hermite_chihara import measure, quadrature
from hermite_chihara.quadrature import _panel, integrate_split_at_zero
from conftest import plain


def weight_system(gamma: F, alpha: F, N: int = 16) -> PolynomialSystem:
    """Family system orthonormal for C |x|^gamma exp(-alpha x^2)."""
    v1 = F(2) / (gamma + 1)
    return PolynomialSystem(seq_family(v1, 1 + v1, b0_squared=(gamma + 1) / (2 * alpha), N=N))


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
            val, err = integrate_split_at_zero(
                plain(spec.weight), 12.0 / math.sqrt(float(a)), tol=1e-12
            )
            assert abs(val.item() - 1.0) < 1e-10

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
                    block, _ = integrate_split_at_zero(
                        plain(lambda x: x**k * spec.weight(x)), radius, tol=1e-11
                    )
                    quad = block.item()
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
        assert sys.weight_parameters() == (0, 1)
        rep = orthonormality_check(sys, 12)
        assert rep.max_deviation < 1e-8

    def test_classical_gamma1(self):
        sys = PolynomialSystem(seq_classical(1, 16))
        assert sys.weight_parameters() == (1, 1)
        rep = orthonormality_check(sys, 12)
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
        rep = orthonormality_check(sys, 100)
        assert rep.converged and rep.max_deviation < 1e-8

    @pytest.mark.parametrize(
        "seq",
        [seq_hermite(104, b0_squared=F(1, 2)), seq_classical(1, 104), seq_classical(F(-1, 2), 104)],
        ids=["hermite", "classical-1", "classical-singular"],
    )
    def test_matches_the_dense_nodal_product_reference_at_n100(self, seq, monkeypatch):
        # the Gram by the 61 x d^2 nodal products and the same adaptive
        # splitting, with the table evaluated as often
        sys = PolynomialSystem(seq)
        spec = spec_for_system(sys)
        calls = []
        table = sys.psi_eval_table
        monkeypatch.setattr(sys, "psi_eval_table", lambda *a: calls.append(a) or table(*a))

        def integrand(x):
            t = sys.psi_eval_table(x, 100)
            return t * spec.weight(x)[:, None], t

        radius = measure._integration_radius(100, float(spec.alpha))
        gram, err, _ = integrate_fresh_sums(integrand, [-radius, 0.0, radius], 1e-11,
                                            panel=dense_panel)
        want_calls = len(calls)
        rep = gram_deviation(sys, spec, 100)
        assert len(calls) - want_calls == want_calls
        assert np.max(np.abs(rep.deviation - np.abs(gram - np.eye(101)))) <= 1e-14
        assert rep.quadrature_error == pytest.approx(err, abs=1e-14)

    @pytest.mark.parametrize("n_max", [1, 12, 100])
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 3.5, 5e11])
    def test_integration_radius_on_the_weight_scale(self, n_max, alpha):
        # below alpha = 1 the radius is max(10, 3 sqrt(n/alpha) + 5); above,
        # it is never more than the alpha = 1 radius over sqrt(alpha)
        unscaled = max(10.0, 3.0 * math.sqrt(n_max / alpha) + 5.0)
        radius = measure._integration_radius(n_max, alpha)
        if alpha <= 1.0:
            assert radius == unscaled
        else:
            assert radius <= measure._integration_radius(n_max, 1.0) / math.sqrt(alpha)

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
        rep = orthonormality_check(sys, 10)
        assert rep.max_deviation < 1e-8

    def test_converged_quadrature_reports_its_tolerance(self):
        sys = PolynomialSystem(seq_hermite(8))
        rep = gram_deviation(sys, spec_for_system(sys), 4)
        assert rep.tolerance == 1e-11
        assert rep.converged and rep.quadrature_error <= rep.tolerance

    def test_quadrature_stopped_short_is_not_converged(self):
        # no panel count reaches 1e-300: the quadrature stops at MAX_PANELS
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
            return t * (x * spec.weight(x))[:, None], t

        xg, _ = integrate_split_at_zero(integrand, 14.0, tol=1e-11)
        for n in range(1, n_hi + 1):
            assert xg[n - 1, n] == pytest.approx(sys.b_float[n - 1], abs=1e-8)


def dense_panel(f, a, b):
    """The panel rule on the explicit nodewise outer products of f's pair of
    factors: the 61 x p x q array u_i v_j, contracted with both rules.  The
    reference for _panel's one rule-weighted product."""
    half = 0.5 * (b - a)
    u, v = f(0.5 * (a + b) + half * quadrature._NODES)
    y = (u[:, :, None] * v[:, None, :]).reshape(u.shape[0], -1)
    k, g = half * (quadrature._RULES @ y)
    return k.reshape(u.shape[1], v.shape[1]), float(np.max(np.abs(k - g)))


def integrate_fresh_sums(f, breakpoints, tol, max_panels=4000, panel=_panel):
    """The adaptive bisection of integrate_split_at_zero from any breakpoints,
    with the error total re-summed over every panel after each split: the
    reference for the engine, which starts from the split at 0.  Also returns
    the panel count."""
    heap, counter, total = [], 0, None
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        val, err = panel(f, a, b)
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
        v1, e1 = panel(f, a, mid)
        v2, e2 = panel(f, mid, b)
        total = total - val + v1 + v2
        heapq.heappush(heap, (-e1, counter, a, mid, v1)); counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2)); counter += 1
        total_err = -sum(item[0] for item in heap)
    return total, total_err, len(heap)


class TestQuadratureEngine:
    @pytest.mark.parametrize(
        "amplitude,tol",
        [(1e10, 1e-8), (1e12, 1e-8), (1e12, 1e-6), (3e10, 1e-8), (1e13, 1e-7)],
    )
    def test_running_error_total_matches_fresh_sums(self, amplitude, tol, monkeypatch):
        # a tall spike over a unit background, with tol near the rounding of
        # the panel errors: an error total updated by adding and subtracting
        # panel errors drifts by more than tol and, at (3e10, 1e-8) and
        # (1e13, 1e-7), splits on to MAX_PANELS where the fresh sums stop at
        # 22 and 577 panels.  Which cases drift depends on the panel product's
        # rounding.
        @plain
        def f(x):
            return amplitude * np.exp(-(((x - 0.3) / 1e-3) ** 2)) + np.cos(x)

        want, want_err, panels = integrate_fresh_sums(f, [-1.0, 0.0, 1.0], tol)
        assert want_err <= tol and panels < 4000
        calls = []
        monkeypatch.setattr(quadrature, "_panel", lambda *a: calls.append(a) or _panel(*a))
        got, err = integrate_split_at_zero(f, 1.0, tol=tol)
        assert got.tobytes() == want.tobytes() and err == want_err  # bit for bit
        assert len(calls) == 2 * panels - 2  # two initial panels, two per split

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
        def fake(f, a, b):
            if b > 0.0:
                return np.zeros((1, 1)), small * (b - a) ** 2
            return np.zeros((1, 1)), {1.0: 1e16, 0.5: half}.get(b - a, 0.0)

        want, want_err, panels = integrate_fresh_sums(None, [-1.0, 0.0, 1.0], tol, panel=fake)
        assert want_err <= tol
        calls = []
        monkeypatch.setattr(quadrature, "_panel", lambda *a: calls.append(a) or fake(*a))
        _, err = integrate_split_at_zero(None, 1.0, tol=tol)
        assert err == want_err
        assert len(calls) == 2 * panels - 2  # two initial panels, two per split

    def test_panel_block_owns_its_data(self):
        # a panel kept in the heap holds its K61 block alone, not a view into
        # the product that also holds the G30 block
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal((61, 4)), rng.standard_normal((61, 3))
        k, _ = _panel(lambda x: (u, v), -1.0, 1.0)
        assert k.base is None and k.flags.owndata

    @pytest.mark.parametrize("tol,max_panels", [(1e-6, 4000), (1e-12, 4000), (1e-300, 600)])
    def test_vector_integrand_matches_fresh_sums(self, tol, max_panels, monkeypatch):
        @plain
        def f(x):
            return np.stack([np.abs(x) ** 0.3 * np.exp(-x * x), np.cos(5 * x)], axis=1)

        want, want_err, _ = integrate_fresh_sums(f, [-5.0, 0.0, 5.0], tol, max_panels)
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
        k, err = _panel(lambda x: (u, v), a, b)
        want, want_err = dense_panel(lambda x: (u, v), a, b)
        scale, _ = dense_panel(lambda x: (np.abs(u), np.abs(v)), a, b)
        assert k.shape == (7, 5)
        assert np.all(np.abs(k - want) <= 1e-15 * scale)
        assert abs(err - want_err) <= 2e-15 * scale.max()

    def test_rule_constants_by_exactness(self):
        # K61 integrates x^k over [-1, 1] exactly for k <= 91, G30 for k <= 59
        gauss = quadrature._WGAUSS != 0
        for weights, nodes, degree in (
            (quadrature._WK, quadrature._NODES, 91),
            (quadrature._WGAUSS[gauss], quadrature._NODES[gauss], 59),
        ):
            for k in range(degree + 1):
                want = 0.0 if k % 2 else 2.0 / (k + 1)
                assert abs(weights @ nodes**k - want) < 1e-14, (len(nodes), k)
            assert np.all(weights > 0)
        nodes = quadrature._NODES
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
