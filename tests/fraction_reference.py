"""Reference routes in plain Fraction arithmetic.

The package holds polynomials as integer numerators over one shared
denominator and runs its exact kernel in integers.  The routes below are the
ones that kernel replaced: every coefficient a lowest-terms Fraction, every
operation re-normalized.  The tests compare the kernel against them.

- ``FractionPoly``: a dense tuple of Fractions;
- ``monic_cores``: P_{n+1} = x P_n - b_{n-1}^2 P_{n-1} on FractionPoly;
- ``lowering_remainder``, ``decompose_b1bar``, ``derivative_decomposition_c2``:
  the eliminations on FractionPoly;
- ``derivative_core_expansion``: the exact e_j with P_n' = sum_j e_j P_{n-1-2j},
  by elimination on FractionPoly, the reference expansion for the package's
  ``derivative_in_basis`` (through ``derivative_in_basis`` below);
- ``ode_bracket``: three Fraction Horner passes over P, P' and P'';
- ``ode_bracket_composed``: the bracket polynomial composed on FractionPoly
  from derivative, shift, scale and sum;
- ``validate``: monotonicity, and the compatibility identity by the nested
  scan over every (n, p), on Fractions;
- ``lowering_scan``, ``reduced_scan``, ``square_lowering_figure``,
  ``ode_bracket_slots``: the integer scans on every slot of the cores, each
  cross-multiplication over the full denominators, as they ran before the
  kernel read only the slots of the cores' parity with small cofactors;
- ``derivative_in_basis``: float(e) * sqrt(float(norm2[idx] / norm2[n]));
- ``fraction_str``, ``coeff_strings``: a rational as ``str(Fraction)`` prints
  it, and the ``hcpoly table`` strings of a monic core built that way;
- ``bracket_table``, ``b_squares``, ``gamma_squares``, ``is_special_family``,
  ``family_weight``: the sequence's tables by Fraction arithmetic on v;
- ``b2_of``, ``g2_of``: a system's integer rows b2_row and g2_pairs as Fractions;
- ``seq_order2``, ``seq_order3``, ``seq_family``: the constructors' values by
  Fraction arithmetic on the parameters;
- ``epsilons``: eps_1..eps_K by the binomial sums, a Fraction per term;
- ``forward_check``: the epsilons' forward identity by Pascal's rows, a
  Fraction per n;
- ``route_scan``: the first n whose core differs from the explicit formula's
  coefficients, each a lowest-terms Fraction chained from c_{n,0} = 1;
- ``psi_table``: the one float reference, psi_0..psi_n at each node by the
  three-term recurrence in plain Python floats, in the operation order of the
  package's ``psi_eval_table``, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial

from hermite_chihara.derivation import Poly
from hermite_chihara.governing import (
    ConstructionError,
    GoverningSequence,
    ValidationReport,
    as_fraction,
    common_denominator,
)
from hermite_chihara.systems import _over_sqrt


@dataclass(frozen=True)
class FractionPoly:
    """Dense univariate polynomial over Q; the zero polynomial has no coeffs."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "FractionPoly") -> "FractionPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(tuple(out))

    def __sub__(self, other: "FractionPoly") -> "FractionPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "FractionPoly":
        c = Fraction(c)
        return FractionPoly(tuple(c * a for a in self.coeffs))

    def shift(self, k: int) -> "FractionPoly":
        if self.is_zero():
            return self
        return FractionPoly((Fraction(0),) * k + self.coeffs)

    def derivative(self, order: int = 1) -> "FractionPoly":
        c = self.coeffs
        for _ in range(order):
            c = tuple(c[i] * i for i in range(1, len(c)))
        return FractionPoly(c)

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def monic_cores(b2, n_max: int) -> list[FractionPoly]:
    monic = [FractionPoly((1,)), FractionPoly((0, 1))]
    for n in range(1, n_max):
        monic.append(monic[n].shift(1) - monic[n - 1].scale(b2[n - 1]))
    return monic[: n_max + 1]


def _eliminate(rem: FractionPoly, cores, indices) -> tuple[list[Fraction], FractionPoly]:
    """Coefficients of rem on cores[idx], idx in the given (descending) order."""
    out = []
    for idx in indices:
        c = rem.coeff(idx)
        out.append(c)
        if c != 0:
            rem = rem - cores[idx].scale(c)
    return out, rem


def lowering_remainder(values, cores, n: int) -> FractionPoly:
    """D P_n - v_{n-1} P_{n-1}, zero where the lowering rule holds."""
    p = cores[n]
    applied = FractionPoly(tuple(c * values[k - 1] for k, c in enumerate(p.coeffs) if k >= 1))
    return applied - cores[n - 1].scale(values[n - 1])


def decompose_b1bar(values, cores, n: int):
    """(delta_scaled, beta_scaled, tail, support) as decompose_b1bar reports them."""
    upper = FractionPoly(tuple(
        c * ((values[m - 1] if m else 0) - m * values[0]) for m, c in enumerate(cores[n].coeffs)
    ))
    delta = upper.coeff(n)
    rem = upper - cores[n - 1].shift(1).scale(delta)
    indices = list(range(n - 2, -1, -2))
    coeffs, rem = _eliminate(rem, cores, indices)
    assert rem.is_zero()
    tail = {idx: c for idx, c in zip(indices[1:], coeffs[1:]) if c != 0}
    support = [n - 1] * (delta != 0) + [idx for idx, c in zip(indices, coeffs) if c != 0]
    return delta, coeffs[0], tail, tuple(support)


def derivative_core_expansion(cores, n: int) -> list[Fraction]:
    coeffs, rem = _eliminate(cores[n].derivative(), cores, range(n - 1, -1, -2))
    assert rem.is_zero()
    return coeffs


def derivative_decomposition_c2(cores, n: int) -> Fraction:
    """c with x P_n' - n x P_{n-1} = c P_{n-2}."""
    s = cores[n].derivative().shift(1) - cores[n - 1].shift(1).scale(n)
    c = s.coeff(n - 2)
    assert (s - cores[n - 2].scale(c)).is_zero()
    return c


def ode_bracket(core: FractionPoly, n: int, x, gamma, alpha) -> Fraction:
    """x P'' + (gamma - 2 alpha x^2) P' + (2 alpha n x - theta_n/x) P, exactly."""
    g, a, xq = Fraction(gamma), Fraction(alpha), Fraction(x)
    theta = g if n % 2 == 1 else Fraction(0)
    p, dp, ddp = core(xq), core.derivative()(xq), core.derivative(2)(xq)
    return xq * ddp + (g - 2 * a * xq * xq) * dp + (2 * a * n * xq - theta / xq) * p


def ode_bracket_composed(p, n: int, gamma, alpha):
    """x^2 P'' + (gamma x - 2 alpha x^3) P' + (2 alpha n x^2 - theta_n) P as a
    FractionPoly, for a FractionPoly p."""
    g, a = Fraction(gamma), Fraction(alpha)
    theta = g if n % 2 == 1 else Fraction(0)
    dp = p.derivative()
    return (
        p.derivative(2).shift(2)
        + dp.shift(1).scale(g)
        - dp.shift(3).scale(2 * a)
        + p.shift(2).scale(2 * a * n)
        - p.scale(theta)
    )


def lowering_scan(sys, n_hi: int) -> int | None:
    """first_lowering_failure on every slot: v_{k-1} c_k(P_n) = v_{n-1}
    c_{k-1}(P_{n-1}), k = 1..n, over w_i = L v_i and both core denominators."""
    w = sys._w
    for n in range(1, n_hi + 1):
        cur, prev = sys.monic[n], sys.monic[n - 1]
        lhs, rhs = prev.den, w[n - 1] * cur.den
        if cur.degree != n or prev.degree != n - 1 or any(
            w[k] * a * lhs != b * rhs for k, (a, b) in enumerate(zip(cur.nums[1:], prev.nums))
        ):
            return n
    return None


def upper_remainder(sys, n: int) -> list[int]:
    """The numerators of R = U P_n - u_n x P_{n-1} over L den(P_n) den(P_{n-1}),
    on every slot."""
    cur, prev, w = sys.monic[n], sys.monic[n - 1], sys._w
    u = [0, *(w[m - 1] - m * w[0] for m in range(1, n + 1))]
    return [um * a * prev.den - u[n] * b * cur.den
            for um, a, b in zip(u, cur.nums, (0, *prev.nums), strict=True)]


def reduced_scan(sys, n_hi: int) -> int | None:
    """first_reduced_failure on every slot: r_k den(P_{n-2}) = r_{n-2} c_k(P_{n-2})."""
    for n in range(2, n_hi + 1):
        if any(sys.monic[k].degree != k for k in (n, n - 1, n - 2)):
            return n
        r, low = upper_remainder(sys, n), sys.monic[n - 2]
        if any(a * low.den != r[n - 2] * b for a, b in zip(r, (*low.nums, 0, 0))):
            return n
    return None


def square_lowering_figure(sys, k: int) -> float:
    """square_lowering_report's figure on the columns 2 <= n < k, every slot, r
    a lowest-terms Fraction."""
    c1 = sys.seq.b0_squared * (sys.seq.values[2] - 1)
    worst, b2 = 0.0, b2_of(sys)
    for n in range(2, k):
        p, q = sys.monic[n], sys.monic[n - 2]
        r = 2 * b2[n - 1] * b2[n - 2] / c1
        sp, sq = q.den * r.denominator, p.den * r.numerator
        gap = max(
            abs((j - n) * a * sp - c * sq)
            for j, (a, c) in enumerate(zip_longest(p.nums, q.nums, fillvalue=0))
        )
        if gap:
            worst = max(worst, _over_sqrt(Fraction(gap, p.den * sp), sys.norm2[n]))
    return worst


def ode_bracket_slots(core, n: int, gamma, alpha) -> Poly:
    """The bracket of a Poly core by the two-term relation on every slot
    k <= deg + 2, over den(P_n) times the common denominator of (gamma, alpha,
    theta_n)."""
    g, a = Fraction(gamma), Fraction(alpha)
    theta = g if n % 2 == 1 else Fraction(0)
    (gi, ai, ti), G = common_denominator((g, a, theta))
    c = (*core.nums, 0, 0)
    out = [
        (k * (k - 1) * G + gi * k - ti) * ck + 2 * ai * (n - k + 2) * c2
        for k, (ck, c2) in enumerate(zip(c, (0, 0, *c)))
    ]
    return Poly.from_numerators(out, core.den * G)


def v_of(seq):
    """i -> v_i of seq, with the convention v_{-1} = 0."""
    return lambda i: Fraction(0) if i == -1 else seq.values[i]


def validate(seq) -> ValidationReport:
    v = v_of(seq)
    monotone = all(seq.values[i] <= seq.values[i + 1] for i in range(seq.n_max))
    for n in range(2, len(seq)):
        for p in range(1, n // 2 + 1):
            lhs = v(n - 2) * v(2 * p - 1) + v(2 * p - 3) * v(n - 2 * p)
            rhs = v(n) * v(2 * p - 3) + v(2 * p - 1) * v(n - 2 * p)
            if lhs != rhs:
                return ValidationReport(monotone=monotone, compatible=False, first_violation=(n, p))
    return ValidationReport(monotone=monotone, compatible=True, first_violation=None)


def derivative_in_basis(expansion, norm2, n: int) -> list[tuple[int, float]]:
    out = []
    for j, e in enumerate(expansion):
        idx = n - 1 - 2 * j
        if e != 0:
            out.append((idx, float(e) / math.sqrt(float(norm2[n] / norm2[idx]))))
    return out


def fraction_str(p: int, q: int) -> str:
    return str(Fraction(p, q))


def coeff_strings(core) -> list[str]:
    """The table strings of a monic core: str of each lowest-terms coefficient."""
    return [str(c) for c in core.coeffs]


def bracket_table(seq) -> list[Fraction]:
    v = v_of(seq)
    out = [Fraction(0), Fraction(1)]
    for n in range(2, len(seq)):
        br = v(n - 1) * (v(n) - v(n - 2)) / v(1)
        if br <= 0:
            raise ValueError(f"bracket [{n}] = {br} is not positive; no orthonormal system")
        out.append(br)
    if len(seq) == 1:
        return out[:1]
    return out


def b_squares(seq, brackets) -> list[Fraction]:
    return [seq.b0_squared * br for br in brackets[1:]]


def gamma_squares(seq, b2) -> list[Fraction]:
    return [Fraction(0)] + [seq.values[n - 1] ** 2 / b2[n - 1] for n in range(1, len(seq))]


def b2_of(sys) -> list[Fraction]:
    """b_i^2, i = 0..n_max-1, a system's b2_row as lowest-terms Fractions."""
    nums, den = sys.b2_row
    return [Fraction(a, den) for a in nums]


def g2_of(sys) -> list[Fraction]:
    """gamma_n^2, n = 0..n_max, a system's g2_pairs as lowest-terms Fractions."""
    return [Fraction(a, b) for a, b in sys.g2_pairs]


def is_special_family(seq):
    if len(seq) < 3:
        raise ValueError("need at least 3 entries to decide the family shape")
    v = seq.values
    if any(v[n] - v[n - 2] != (v[1] if n % 2 else v[2] - 1) for n in range(3, len(v))):
        return False, None
    return True, (v[1], v[2])


def family_weight(seq):
    if not is_special_family(seq)[0]:
        return None
    v2 = seq.values[2]
    return (3 - v2) / (v2 - 1), 1 / (seq.b0_squared * (v2 - 1))


def _require_admissible(values, name: str) -> None:
    for i in range(len(values) - 1):
        if values[i] <= 0 or values[i] > values[i + 1]:
            raise ConstructionError(
                f"{name}: result not positive nondecreasing at index {i}: "
                f"{values[i]} -> {values[i + 1]}"
            )


def seq_order2(v1, N: int, b0_squared=Fraction(1, 2)):
    v1 = as_fraction(v1)
    if v1 < 1:
        raise ValueError("v1 must be >= 1")
    values = [Fraction(1)]
    for n in range(1, N + 1):
        values.append(comb(n + 1, 2) * v1 - n * n + 1)
    _require_admissible(values, "seq_order2")
    return GoverningSequence(tuple(values), as_fraction(b0_squared))


def seq_order3(v1, v2, N: int, b0_squared=Fraction(1, 2)):
    v1, v2 = as_fraction(v1), as_fraction(v2)
    if not 1 <= v1 <= v2:
        raise ValueError("need 1 <= v1 <= v2")
    values = [Fraction(1), v1]
    for n in range(2, N + 1):
        values.append(
            comb(n + 1, 3) * v2
            - Fraction((n + 1) * n * (n - 2), 2) * v1
            + Fraction((n + 1) * (n - 1) * (n - 2), 2)
        )
    _require_admissible(values, "seq_order3")
    return GoverningSequence(tuple(values), as_fraction(b0_squared))


def seq_family(v1, v2, b0_squared, N: int):
    v1, v2 = as_fraction(v1), as_fraction(v2)
    if not 0 < v1 <= v2:
        raise ValueError("need 0 < v1 <= v2")
    values = tuple(
        (n // 2 + 1) * v1 if n % 2 == 1 else (n // 2) * v2 - (n // 2 - 1)
        for n in range(N + 1)
    )
    return GoverningSequence(values, as_fraction(b0_squared))


def epsilons(values, K: int) -> list[Fraction]:
    """eps_1..eps_K from k! eps_k = sum_{j=1}^{k} (-1)^{k-j} C(k,j) v_{j-1}."""
    return [
        sum(((-1) ** (k - j) * comb(k, j) * values[j - 1] for j in range(1, k + 1)), Fraction(0))
        / factorial(k)
        for k in range(1, K + 1)
    ]


def forward_check(epsilons, values) -> None:
    """Raise DerivationOperator's ValueError at the first n <= K where
    sum_{k<=n} C(n,k) k! eps_k != v_{n-1}, by row n of Pascal's triangle."""
    num, den = common_denominator(e * factorial(k) for k, e in enumerate(epsilons, 1))
    binom = [1]
    for n in range(1, len(epsilons) + 1):
        binom = [1, *(a + b for a, b in zip(binom, binom[1:])), 1]
        series = Fraction(sum(c * a for c, a in zip(binom[1:], num)), den)
        if series != values[n - 1]:
            raise ValueError(
                f"epsilons give D x^{n} = {series} x^{n - 1}, but v_{n - 1} = {values[n - 1]}"
            )


def route_scan(sys, n_hi: int) -> int | None:
    """The first n <= n_hi whose core's coefficients differ from the explicit
    formula's, c_{n,0} = 1 and c_{n,m+1} = c_{n,m} (-b0^2 [2m+1] v_{n-2m-1}
    v_{n-2m-2} / (v_{2m} v_{2m+1})), over bracket_table above."""
    v, br = sys.seq.values, bracket_table(sys.seq)
    for n in range(n_hi + 1):
        want, c = [Fraction(0)] * (n + 1), Fraction(1)
        want[n] = c
        for m in range(n // 2):
            c *= -sys.seq.b0_squared * br[2 * m + 1] * v[n - 2 * m - 1] * v[n - 2 * m - 2] / (
                v[2 * m] * v[2 * m + 1])
            want[n - 2 * m - 2] = c
        if sys.monic[n].coeffs != FractionPoly(tuple(want)).coeffs:
            return n
    return None


def psi_table(b2, xs, n_hi: int) -> list[list[float]]:
    """One row per node x: psi_0..psi_{n_hi} by psi_{m+1} = (x psi_m - b_{m-1}
    psi_{m-1}) / b_m, each step fl(x psi_m), fl(b_{m-1} psi_{m-1}), their
    difference and the division by b_m, with b_m = sqrt(float(b_m^2))."""
    b = [math.sqrt(float(v)) for v in b2[:n_hi]]
    rows = []
    for x in map(float, xs):
        row = [1.0]
        if n_hi >= 1:
            row.append(x / b[0])
        for m in range(1, n_hi):
            row.append((x * row[m] - b[m - 1] * row[m - 1]) / b[m])
        rows.append(row)
    return rows
