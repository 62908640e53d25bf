"""Acceptance suite: one test per criterion, each printing a pass line with its
measured figure of merit.  Run with `pytest tests/test_acceptance.py -v`."""

import math
import time
from fractions import Fraction as F
from math import factorial

import numpy as np

from hermite_chihara import (
    GoverningSequence,
    PolynomialSystem,
    alpha_closed,
    alpha_nested,
    build_operators,
    carleman_determinacy,
    commutator_report,
    epsilons_from_sequence,
    is_special_family,
    jacobi_moment,
    moment_closed,
    MeasureSpec,
    orthonormality_check,
    seq_classical,
    seq_family,
    seq_hermite,
    seq_order2,
    seq_order3,
    spectrum_report,
    square_lowering_report,
)
from hermite_chihara.quadrature import integrate_split_at_zero
from conftest import POINT_GRID

DIM = 40
MARGIN = 4


def _pass(num, detail, t0=None, budget=None):
    elapsed = time.perf_counter() - t0 if t0 is not None else None
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:02d} PASS{stamp}: {detail}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s runtime budget"


def weight_system(gamma: F, alpha: F, N: int = 16) -> PolynomialSystem:
    v1 = F(2) / (gamma + 1)
    return PolynomialSystem(seq_family(v1, 1 + v1, b0_squared=(gamma + 1) / (2 * alpha), N=N))


def propagated_compatible_sequence(v1, v2, v3, N):
    """Non-family sequence satisfying the compatibility identity, generated by
    propagating the (n, p=2) relation from a free (v1, v2, v3) seed."""
    v = [F(1), F(v1), F(v2), F(v3)]
    while len(v) <= N:
        n = len(v)
        v.append((v[n - 2] * v[3] + v[1] * v[n - 4] - v[3] * v[n - 4]) / v[1])
    return GoverningSequence(tuple(v), F(1, 2))


def test_criterion_01_epsilon_closed_form():
    t0 = time.perf_counter()
    for gamma in (F(1), F(2), F(5)):
        op = epsilons_from_sequence(seq_classical(gamma, 12))
        for m in range(2, 11):
            expect = F((-2) ** (m - 1), factorial(m)) * gamma / (gamma + 1)
            assert op.eps(m) == expect
    _pass(1, "classical epsilon closed form exact for gamma in {1,2,5}, m=2..10", t0, budget=1.0)


def test_criterion_02_finite_order_families():
    t0 = time.perf_counter()
    op2 = epsilons_from_sequence(seq_order2(4, 12))
    assert op2.epsilons[:2] == (1, 1) and all(e == 0 for e in op2.epsilons[2:])
    assert op2.order().order == 2

    # (v1, v2) = (8, 27): the general cubic-operator coefficients are
    # eps2 = v1/2 - 1 = 3 and eps3 = (v2 - 3 v1 + 3)/6 = 1 (the monomial rule
    # D x^2 = 8x forces eps2 = 3), with exact zeros beyond order 3
    op3 = epsilons_from_sequence(seq_order3(8, 27, 12))
    assert op3.epsilons[1] == F(8, 2) - 1 == 3
    assert op3.epsilons[2] == F(27 - 3 * 8 + 3, 6) == 1
    assert all(e == 0 for e in op3.epsilons[3:])
    assert [e != 0 for e in op3.epsilons[:5]] == [True, True, True, False, False]
    assert op3.order().order == 3
    _pass(2, "order-2 operator eps=(1,1,0,..); order-3 eps=(1,3,1,0,..) with order 3 detected "
             "(nonzero support pattern 1,1,1,0,..)", t0, budget=1.0)


def test_criterion_03_alpha_equivalence():
    t0 = time.perf_counter()
    systems = [
        PolynomialSystem(seq_hermite(20)),
        PolynomialSystem(seq_classical(1, 20)),
        PolynomialSystem(seq_family(1, 5, F(1), 20)),
    ]
    for sys in systems:
        for n in range(1, 21):
            for m in range(1, n // 2 + 1):
                assert alpha_nested(sys.brackets, m, n) == alpha_closed(
                    sys.values, sys.brackets, m, n
                )
    hermite = systems[0]
    for n in range(1, 21):
        for m in range(1, n // 2 + 1):
            assert alpha_closed(hermite.values, hermite.brackets, m, n) == F(
                factorial(n), 2**m * factorial(m) * factorial(n - 2 * m)
            )
    _pass(3, "nested == closed coefficients exact, n <= 20, three systems; "
             "hermite case matches the factorial closed form", t0, budget=10.0)


def test_criterion_04_lowering_rule():
    t0 = time.perf_counter()
    for seq in (seq_hermite(25), seq_classical(1, 25), seq_family(1, 5, F(1), 25)):
        sys = PolynomialSystem(seq)
        for n in range(1, 26):
            assert sys.lowering_residual(n) == 0
    _pass(4, "D psi_n - gamma_n psi_{n-1} == 0 exactly for n <= 25 on three systems",
          t0, budget=10.0)


def test_criterion_05_route_equivalence():
    t0 = time.perf_counter()
    for seq in (seq_hermite(25), seq_classical(1, 25), seq_family(1, 5, F(1), 25)):
        sys = PolynomialSystem(seq)
        for n in range(0, 26):
            assert sys.psi_coeffs(n).core == sys.psi_coeffs_via_alpha(n).core
    _pass(5, "explicit-coefficient route coefficient-identical to the recurrence, n <= 25", t0)


def test_criterion_06_orthonormality():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (F(0), F(1), F(2)):
        for alpha in (F(1, 2), F(1), F(2)):
            sys = weight_system(gamma, alpha)
            rep = orthonormality_check(sys, MeasureSpec(gamma, alpha), 12)
            worst = max(worst, rep.max_deviation)
            assert rep.max_deviation < 1e-8
    _pass(6, f"Gram deviation < 1e-8 for i,j <= 12 over 9 (gamma, alpha) combos "
             f"(worst {worst:.2e})", t0, budget=30.0)


def test_criterion_07_oscillator_identities():
    t0 = time.perf_counter()
    cases = [
        ("hermite", PolynomialSystem(seq_hermite(64))),
        ("classical gamma=1", PolynomialSystem(seq_classical(1, 64))),
        ("classical gamma=2", PolynomialSystem(seq_classical(2, 64))),
        ("family(4,5,1)", PolynomialSystem(seq_family(4, 5, F(1), 64))),
    ]
    worst_comm = worst_spec = 0.0
    for name, sys in cases:
        ops = build_operators(sys, DIM)
        crep = commutator_report(ops, sys, MARGIN)
        assert crep.max_deviation < 1e-10, name
        srep = spectrum_report(ops, sys, MARGIN)
        assert srep.max_deviation < 1e-10 and srep.off_diagonal < 1e-10, name
        gamma, alpha = sys.weight_parameters()
        if alpha == 1:
            assert crep.classical_deviation is not None and crep.classical_deviation < 1e-10
            lam = np.array([row[1] for row in srep.rows])
            expect = 2 * np.arange(DIM - MARGIN) + float(gamma) + 1
            assert np.max(np.abs(lam - expect)) < 1e-10
        worst_comm = max(worst_comm, crep.max_deviation)
        worst_spec = max(worst_spec, srep.max_deviation)
    _pass(7, f"dim-40/margin-4 commutator and spectrum identities < 1e-10 on rows "
             f"n < {DIM - MARGIN} "
             f"(worst {max(worst_comm, worst_spec):.2e})", t0)


def test_criterion_08_square_lowering():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (0, 1, 2):
        sys = PolynomialSystem(seq_classical(gamma, 64))
        assert sys.seq.b0_squared * (sys.values[2] - 1) == 1  # c1 = 1
        dev = square_lowering_report(build_operators(sys, DIM), sys, MARGIN)
        worst = max(worst, dev)
        assert dev < 1e-10
    fam = PolynomialSystem(seq_family(1, 2, F(1), 64))
    dev = square_lowering_report(build_operators(fam, DIM), fam, MARGIN)
    worst = max(worst, dev)
    assert dev < 1e-10
    _pass(8, f"X d/dx - N = (a-)^2/c1 < 1e-10, as the exact monic identity on columns "
             f"2 <= n < {DIM - MARGIN}, for classical gamma in {{0,1,2}} and "
             f"family (b0^2=1, v2=2) (worst {worst:.2e})", t0)


def test_criterion_09_ode():
    t0 = time.perf_counter()
    worst = 0.0
    for seq in (seq_classical(1, 16), seq_family(4, 5, F(1), 16)):
        sys = PolynomialSystem(seq)
        for n in range(16):
            for x in POINT_GRID:
                worst = max(worst, abs(sys.ode_residual(n, x)))
    assert worst < 1e-9
    # negative control: a 5% perturbation of alpha must fail by > 1e-3
    sys = PolynomialSystem(seq_classical(1, 16))
    _, alpha = sys.weight_parameters()
    bad = max(
        abs(sys.ode_residual(n, x, alpha=float(alpha) * 1.05))
        for n in range(16)
        for x in POINT_GRID
    )
    assert bad > 1e-3
    _pass(9, f"second-order equation residual < 1e-9 on the 50-point grid, n <= 15 "
             f"(worst {worst:.2e}); perturbed-alpha control fails at {bad:.2e}", t0)


def test_criterion_10_classification_round_trip():
    t0 = time.perf_counter()
    family_cases = [
        seq_hermite(10),
        seq_classical(1, 10),
        seq_family(1, 5, F(1), 10),
        seq_family(4, 5, F(1), 10),
        seq_family(F(3, 2), 2, F(2), 10),
    ]
    non_family_cases = [
        seq_order2(3, 10),
        seq_order3(8, 30, 10),
        seq_order2(5, 10),
        seq_order3(10, 30, 10),
        propagated_compatible_sequence(2, 3, 5, 10),
    ]
    for seq in family_cases:
        assert is_special_family(seq)[0] is True
        assert PolynomialSystem(seq).classify_reduced(10) is True
    for seq in non_family_cases:
        assert is_special_family(seq)[0] is False
        assert PolynomialSystem(seq).classify_reduced(10) is False
    _pass(10, "classify_reduced(n_max=10) agrees with the family shape on 10 sequences "
              "(5 family, 5 non-family)", t0)


def test_criterion_11_moments():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (F(0), F(1), F(2)):
        spec = MeasureSpec(gamma, F(1))
        sys = weight_system(gamma, F(1), N=12)
        for k in range(0, 17):
            closed = moment_closed(spec, k)
            assert closed == jacobi_moment(sys.b2, k)  # exact route agreement
            radius = max(10.0, 3.0 * math.sqrt(max(k, 1)) + 5.0)
            quad, _ = integrate_split_at_zero(lambda x: x**k * spec.weight(x), radius, tol=1e-11)
            worst = max(worst, abs(float(closed) - quad))
            assert abs(float(closed) - quad) < 1e-8
    _pass(11, f"closed form == Jacobi walk exactly and quadrature within 1e-8 "
              f"for k <= 16, gamma in {{0,1,2}} (worst {worst:.2e})", t0)


def test_criterion_12_determinacy():
    t0 = time.perf_counter()
    for seq in (seq_hermite(64), seq_classical(3, 64)):
        sys = PolynomialSystem(seq)
        rep = carleman_determinacy(sys.b_float)
        assert rep.verdict == "divergent (determinate)"
        assert abs(rep.growth_exponent - 0.5) < 0.05
    _pass(12, "hermite and classical gamma=3 report divergent sum(1/b_n) with growth "
              "exponent 0.5 +/- 0.05 over n <= 64", t0)
