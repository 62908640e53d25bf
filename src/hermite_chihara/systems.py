"""Hermite-Chihara polynomial systems.

The orthonormal polynomials are stored through their monic cores P_n:

    psi_n = P_n / nu_n,   nu_n^2 = [n]! b0^{2n} = prod_{k<n} b_k^2,

with P_{n+1} = x P_n - b_{n-1}^2 P_{n-1}, P_0 = 1, P_1 = x.  Since nu_n^2 is
rational, every identity of interest (lowering rule, coefficient formulas,
reduced decompositions) becomes an exact statement about rational polynomials:

    lowering   D P_n = v_{n-1} P_{n-1}
    reduced    U P_n = u_n x P_{n-1} + beta_n P_{n-2}  (U x^m = (v_{m-1} - m) x^m; family only)
    explicit   c_{n,m} = coeff of x^{n-2m} in P_n = (-1)^m b0^{2m} alpha_{2m-1,n-1}: c_{n,0} = 1,
               c_{n,m+1} / c_{n,m} = -b0^2 [2m+1] v_{n-2m-1} v_{n-2m-2} / (v_{2m} v_{2m+1})

The lowering and route scans cross-check validate by an independent route: for
any v the ratio telescopes to c_{n+1,m} / c_{n,m} = v_n / v_{n-2m}, the lowering
rule coefficientwise, and the recurrence for P_{n+1} on the explicit coefficients
reduces to validate's case (n, m+1), (v_{2m+1} - v_{2m-1}) (v_n - v_{n-2m-2}) =
v_{2m+1} (v_n - v_{n-2}), so both first fail at validate's first violating n + 1.

The exact layer stores each integer row once, and package code reads the rows:
b^2 from b2_row (formed by the constructor, whose pass runs the bracket check),
gamma^2 from g2_pairs, the weight as one integer pair (_weight_nums).  _core(n)
alone grows the one core list, [P_0, P_1] at first, as far as the core a reader
asks for, so a scan that fails at k builds nothing past P_k, and build, gram,
spectrum and the operator band build none.  ode_bracket(n) alone builds the ODE
bracket and holds the per-core proof (_ode_proved): a grid of residuals builds
it once, a new core is proved again.

Floating point enters only at evaluation boundaries.  A psi-scaled figure of
an exact coefficient (the decompositions, the derivative expansion, the ODE
residual, the square-lowering deviation) crosses once, through _over_sqrt, from
the exact b^2 and nu_n^2, so it has a float at any b0^2.  The float tables
(psi_eval_table, the operator band) read b^2 (b2_float), the weight and its closed
forms (gamma, alpha) (_weight_floats), with FloatRangeError where one has no float,
and where a psi value overflows.  numpy is imported only at that boundary, inside
each function that builds or reads a float array (psi_eval_table here, the weight,
the Gram and the Carleman fit in measure, the operator band in oscillator, the
panels in quadrature), so a process that evaluates no float never loads it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, zip_longest
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .derivation import Poly
from .governing import (
    GoverningSequence,
    as_fraction,
    b_squares,
    common_denominator,
    family_weight,
    gamma_squares,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FLOAT_RANGE",
    "FloatRangeError",
    "UnsupportedSystemError",
    "alpha_nested",
    "alpha_closed",
    "DecompositionReport",
    "PolynomialSystem",
]


class UnsupportedSystemError(ValueError):
    """Operation requires a special-family system and this one is not."""


# the floats the float boundary reads b^2 and alpha as: normal, with room for
# the levels lambda_n = 2 (b_{n-1}^2 + b_n^2) below the largest float
FLOAT_RANGE = (2.0**-1022, 2.0**1020)
_ZERO = Poly.from_numerators(())  # the zero polynomial: ode_bracket's value on a proved core


class FloatRangeError(ArithmeticError):
    """A value the float boundary reads has no float in FLOAT_RANGE."""

    def __init__(self, name: str):
        super().__init__(f"{name} outside the float range [2^-1022, 2^1020]")


def _range_float(p: int, q: int, name: str) -> float:
    """The positive rational p / q as a float, rounded once (int division, as
    Fraction's float is), or FloatRangeError(name) when it is not in FLOAT_RANGE."""
    try:
        f = p / q
    except OverflowError:
        raise FloatRangeError(name) from None
    if not FLOAT_RANGE[0] <= f <= FLOAT_RANGE[1]:
        raise FloatRangeError(name)
    return f


def _weight_floats(gamma: Fraction, alpha: Fraction) -> tuple[float, float]:
    """The weight's exact (gamma, alpha) as floats, the one place they cross."""
    try:
        g = float(gamma)
    except OverflowError:
        raise FloatRangeError("gamma") from None
    return g, _range_float(alpha.numerator, alpha.denominator, "alpha")


def alpha_nested(brackets: Sequence[Fraction], m: int, n: int) -> Fraction:
    """m-fold nested bracket sum

        alpha_{2m-1,n-1} = sum_{k1=2m-1}^{n-1} [k1] sum_{k2=2m-3}^{k1-2} [k2] ...

    m = 0 returns 0, the sentinel value of the defining display (the value used
    as the m = 0 entry of the coefficient table is 1; see alpha_closed).

    Level j, S_j(u) = sum_{k=2j-1}^{u} [k] S_{j-1}(k-2) with S_0 = 1, is read on the
    n - 2m + 1 values of u from 2j - 1 up: each level is one cumulative sum over the last.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if m == 0:
        return Fraction(0)
    if not 1 <= m <= n // 2:
        raise ValueError(f"need 1 <= m <= n//2, got m={m}, n={n}")
    brackets = tuple(map(as_fraction, brackets))
    if n > len(brackets):  # the outer sum reads [n-1]
        raise ValueError(f"n = {n} reads past the {len(brackets)} brackets given")
    width = n - 2 * m + 1
    level = [Fraction(1)] * width  # S_0 on its window
    for j in range(1, m + 1):
        level = list(accumulate(map(mul, brackets[2 * j - 1 : 2 * j - 1 + width], level)))
    return level[-1]


def alpha_closed(
    values: Sequence[Fraction], brackets: Sequence[Fraction], m: int, n: int
) -> Fraction:
    """Closed form  [2m-1]!! (v_{n-1})! / ((v_{2m-1})! (v_{n-2m-1})!).

    At m = 0 it is 1, the coefficient-table convention (monic leading term)
    that the explicit polynomial formula and the p = 1 case of the alpha
    recurrence require, P_0 = 1 included."""
    if not 0 <= m <= n // 2:
        raise ValueError(f"need 0 <= m <= n//2, got m={m}, n={n}")
    if n > min(len(values), len(brackets)):  # (v_{n-1})! reads v_{n-1}, [2m-1]!! [n-1]
        raise ValueError(f"n = {n} reads past the {len(values)} values and "
                         f"{len(brackets)} brackets given")

    def fact(j: int) -> Fraction:  # (v_{j-1})! = v_0 ... v_{j-1}
        return math.prod(map(as_fraction, values[:j]), start=Fraction(1))

    dfact = math.prod(map(as_fraction, brackets[1 : 2 * m : 2]), start=Fraction(1))
    return dfact * fact(n) / (fact(2 * m) * fact(n - 2 * m))


def _ldexp_float(q: Fraction, e: int) -> float:
    """float(q * 2^e), rounded once from the exact value."""
    num, den = q.numerator, q.denominator
    return (num << e) / den if e >= 0 else num / (den << -e)


def _over_sqrt(c: Fraction, q: Fraction) -> float:
    """c / sqrt(q) in floating point, the one crossing from an exact coefficient
    to its psi-scaled float.  c and q are scaled near 1 by 2^{-k} and 2^{-2t},
    which commute with rounding and with the square root, so the value equals
    float(c) / sqrt(float(q)) bit for bit wherever that neither overflows nor
    underflows, and c and q may lie far beyond the float range.  FloatRangeError
    where c / sqrt(q) has no float."""
    k = c.numerator.bit_length() - c.denominator.bit_length()
    t = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    try:
        return math.ldexp(_ldexp_float(c, -k) / math.sqrt(_ldexp_float(q, -2 * t)), k - t)
    except OverflowError:
        raise FloatRangeError("psi-scaled value") from None


def _next_monic(cur: Poly, prev: Poly, b2: tuple[int, int]) -> Poly:
    """x cur - (b2[0] / b2[1]) prev over the lcm of the two terms' denominators, b2
    in lowest terms.  The cores alternate in parity: only the new parity's slots are formed."""
    g = math.gcd(*b2)
    prev_den = prev.den * (b2[1] // g)
    den = math.lcm(cur.den, prev_den)
    sa, sb = den // cur.den, den // prev_den * (b2[0] // g)
    s = len(cur.nums) % 2  # parity of the new degree
    out = [0] * (len(cur.nums) + 1)
    shifted = (0, *cur.nums)
    out[s::2] = [sa * a - sb * b for a, b in zip(shifted[s::2], (*prev.nums[s::2], 0))]
    return Poly.from_numerators(out, den)


def _parities(s: int, *slots: Sequence[int]) -> tuple[int, ...]:
    """The slot parities an exact kernel reads: s, as P_n(-x) = (-1)^n P_n(x) for
    an even weight, and 1 - s where an aligned slot list is nonzero there."""
    for x in slots:
        if any(x[1 - s :: 2]):
            return s, 1 - s
    return (s,)


@dataclass(frozen=True)
class DecompositionReport:
    """Expansion of the degree-preserving operator part applied to psi_n over
    the triangular generating set {x psi_{n-1}, psi_{n-2}, psi_{n-4}, ...}.

    ``support`` lists the basis indices carrying a nonzero coefficient, with
    index n-1 standing for the x psi_{n-1} term; ``reduced`` says that no
    term below psi_{n-2} appears (``tail_scaled`` is empty).  The *_scaled
    fields are the exact rational coefficients relative to the monic cores:

        delta_scaled = delta_bar * b_{n-1},
        beta_scaled  = beta_bar * b_{n-1} b_{n-2}.
    """

    n: int
    support: tuple[int, ...]
    delta_bar: float
    beta_bar: float
    reduced: bool
    delta_scaled: Fraction
    beta_scaled: Fraction
    tail_scaled: dict[int, Fraction]


class PolynomialSystem:
    """Orthonormal system generated by a governing sequence.

    Its values are fixed once built, and every query returns the same result
    whenever it is made: b2_row is formed by the constructor; g2_pairs, norm2
    and the float tables are formed on first read, each core when it is read
    (_core), and ode_bracket records each zero ODE bracket (_ode_proved).
    """

    def __init__(self, seq: GoverningSequence):
        if len(seq) < 3:
            raise ValueError(f"a polynomial system needs v_0, v_1 and v_2; got {len(seq)} entries")
        self.seq = seq
        self.n_max = seq.n_max
        self.b2_row = b_squares(seq)  # b_i^2 = b2_row[0][i] / b2_row[1], the bracket check
        self._w, self._L = seq.nums, seq.den  # _w[i] = L v_i, for the exact scans
        self._monic = [Poly.from_numerators([1]), Poly.from_numerators([0, 1])]
        self._ode_proved: dict[int, Poly] = {}  # n -> the core ode_bracket proved
        self._weight = family_weight(seq)
        self._weight_nums = None if self._weight is None else common_denominator(self._weight)

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def g2_pairs(self) -> list[tuple[int, int]]:
        """g2_pairs[n] = (num, den) with gamma_n^2 = num / den, den > 0 (gamma_squares)."""
        return gamma_squares(self.seq)

    @cached_property
    def norm2(self) -> list[Fraction]:
        """norm2[n] = nu_n^2 = b_0^2 ... b_{n-1}^2, n = 0..n_max, in lowest terms."""
        nums, den = self.b2_row
        return list(accumulate((Fraction(a, den) for a in nums), mul, initial=Fraction(1)))

    @cached_property
    def b2_float(self) -> list[float]:
        """b_i^2 in floats, from b2_row, for the float boundary alone: exact paths
        run at any b0^2.  FloatRangeError when one of them has no float in FLOAT_RANGE."""
        return [_range_float(a, self.b2_row[1], "b^2") for a in self.b2_row[0]]

    @cached_property
    def b_float(self) -> list[float]:
        """b_i in floats, the square roots of b2_float: psi_eval_table's and the
        operator band's alone."""
        return [math.sqrt(x) for x in self.b2_float]

    @property
    def is_family(self) -> bool:
        return self._weight is not None

    def weight_parameters(self) -> tuple[Fraction, Fraction]:
        """(gamma, alpha) of the weight C |x|^gamma exp(-alpha x^2) the system
        is orthonormal against; defined for special-family systems."""
        if self._weight is None:
            raise UnsupportedSystemError("weight parameters exist only for family systems")
        return self._weight

    # -- polynomials -------------------------------------------------------

    def _core(self, n: int) -> Poly:
        """The monic core P_n, the one list of cores grown by the recurrence as far
        as n: every reader asks for each core when it reads it, so a scan that
        stops at n builds nothing past P_n."""
        cores, (b2, den) = self._monic, self.b2_row
        for k in range(len(cores) - 1, n):
            cores.append(_next_monic(cores[k], cores[k - 1], (b2[k - 1], den)))
        return cores[n]

    @property
    def monic(self) -> list[Poly]:
        """The monic cores P_0..P_{n_max}, all of them: the list _core grows."""
        self._core(self.n_max)
        return self._monic

    def _explicit_ratios(self, n_hi: int) -> tuple[list[int], list[int], list[int]]:
        """Integer tables (a, d, t) with c_{n,m+1} / c_{n,m} = a[m] t[n - 2m] / d[m] and
        d[m] > 0, for 2m + 2 <= n <= n_hi (module docstring).  Over b0^2 = p/q and
        w_i = L v_i, [2m+1] = w_{2m} (w_{2m+1} - w_{2m-1}) / (L w_1), so w_{2m} and L^2
        cancel: a[m] = -p (w_{2m+1} - w_{2m-1}), d[m] = q L w_1 w_{2m+1} and
        t[j] = w_{j-1} w_{j-2}.  The denominator reads m alone, the numerator m and n - 2m."""
        w = (0, *self._w)  # w[i + 1] = L v_i, with v_{-1} = 0
        p, q = self.seq.b0_squared.numerator, self.seq.b0_squared.denominator
        qlw1 = q * self._L * w[2]
        a = [-p * (w[2 * m + 2] - w[2 * m]) for m in range(n_hi // 2)]
        d = [qlw1 * w[2 * m + 2] for m in range(n_hi // 2)]
        return a, d, [0, 0] + [w[j] * w[j - 1] for j in range(2, n_hi + 1)]

    def psi_coeffs_via_alpha(self, n: int) -> Poly:
        """The monic core P_n from the explicit coefficient formula: the
        coefficient of x^{n-2m} is (-1)^m b0^{2m} alpha_{2m-1,n-1} (alpha_nested
        is the defining display), from c_{n,0} = 1 by the route check's ratios.
        Then psi_n = P_n / sqrt(norm2[n]), as for the recurrence's core monic[n]."""
        self._check_n(n)
        a, d, t = self._explicit_ratios(n)
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[n] = c = Fraction(1)
        for m in range(n // 2):
            coeffs[n - 2 * m - 2] = c = c * Fraction(a[m] * t[n - 2 * m], d[m])
        return Poly(coeffs)

    def first_route_mismatch(self, n_hi: int) -> int | None:
        """The first n <= n_hi whose recurrence core monic[n] differs from the
        explicit formula's polynomial (psi_coeffs_via_alpha(n)), or None.  A core
        agrees when it has degree n, zeros in every slot of the other parity,
        leading coefficient 1 and each neighbouring pair in the formula's ratio,
        c_{n,m+1} d[m] = a[m] t[n - 2m] c_{n,m} (_explicit_ratios, built once per
        scan; d[m] > 0 fixes c_{n,m+1}): a core numerator times small integers on
        each side, no gcd, no Fraction."""
        self._check_n(n_hi)
        a, d, t = self._explicit_ratios(n_hi)
        for n in range(n_hi + 1):
            core = self._core(n)
            nums = core.nums
            if core.degree != n or any(nums[(n + 1) % 2 :: 2]) or nums[n] != core.den or any(
                lo * dm != am * tj * hi for am, dm, tj, lo, hi in
                zip(a, d, t[n:1:-2], nums[n - 2 :: -2], nums[n::-2])
            ):
                return n
        return None

    def psi_eval_table(self, x: np.ndarray, n_hi: int, row0: np.ndarray = 1.0) -> np.ndarray:
        """Matrix [len(x), n_hi+1] of row0 psi_0..row0 psi_{n_hi} at the nodes x, row0 = 1
        or per-node values, by the forward three-term recurrence from row 0: the one float
        evaluation of psi, linear in row 0.  It fills one contiguous row per psi_m in place,
        each step psi_{m+1} = (x psi_m - b_{m-1} psi_{m-1}) / b_m in that operation order
        with no temporary but one scratch row, and the rows are returned transposed into a
        row-major (C-contiguous) copy: the factor layout whose Gram product rounds alike on
        one BLAS thread and on two (gram_deviation).  ValueError where an x is not finite;
        FloatRangeError when a value overflows (or, after an overflow, is NaN)."""
        import numpy as np

        self._check_n(n_hi)
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        buf = np.empty((n_hi + 1, x.size))
        buf[0] = row0
        try:
            with np.errstate(over="raise", invalid="raise"):
                if n_hi >= 1:
                    b, rows, scratch = self.b_float, list(buf), np.empty(x.size)
                    np.multiply(x, rows[0], out=rows[1])
                    np.divide(rows[1], b[0], out=rows[1])
                    for m in range(1, n_hi):
                        nxt = rows[m + 1]
                        np.multiply(x, rows[m], out=nxt)
                        np.multiply(b[m - 1], rows[m - 1], out=scratch)
                        np.subtract(nxt, scratch, out=nxt)
                        np.divide(nxt, b[m], out=nxt)
        except FloatingPointError:
            raise FloatRangeError("psi value") from None
        return buf.T.copy()

    # -- identity checks ---------------------------------------------------

    def first_lowering_failure(self, n_hi: int) -> int | None:
        """The first 1 <= n <= n_hi at which D P_n = v_{n-1} P_{n-1} (the
        lowering rule, radical cleared) fails, or None.  As D x^k = v_{k-1}
        x^{k-1}, cores of degrees n and n - 1 obey it iff v_{k-1} c_k(P_n) =
        v_{n-1} c_{k-1}(P_{n-1}) for k = 1..n: over w_i = L v_i, L the common
        denominator of the stored values, an integer cross-multiplication of the
        cores' numerators with no Poly arithmetic and no derivation operator, on the
        slots k = n - 1 (mod 2) (_parities) and over gcd(den(P_n), den(P_{n-1}))."""
        self._check_n(n_hi)
        w, cores = self._w, self._monic
        for n in range(1, n_hi + 1):
            cur, prev = self._core(n), cores[n - 1]
            if cur.degree != n or prev.degree != n - 1:
                return n
            g = math.gcd(cur.den, prev.den)
            lhs, rhs, top = prev.den // g, w[n - 1] * (cur.den // g), cur.nums[1:]
            if any(a * (w[k] * lhs) != b * rhs for t in _parities((n - 1) % 2, top, prev.nums)
                   for k, a, b in zip(range(t, n, 2), top[t::2], prev.nums[t::2])):
                return n
        return None

    def first_weight_mismatch(self, n_hi: int) -> int | None:
        """The first 1 <= n <= n_hi at which b_{n-1}^2 = (n + gamma [n odd]) / (2 alpha),
        the recurrence of the weight's monic orthogonal polynomials (Chihara's
        generalized Hermite system), fails, or None.  It gives Wigner's commutator
        (1 + gamma (-1)^n) / alpha and the levels (2n + gamma + 1) / alpha.  Over
        b^2 = B / M (b2_row) and (gamma, alpha) = (g, a) / G (_weight_nums) it reads
        2 a B_{n-1} = M (n G + g [n odd]), in integers.  Family only."""
        self.weight_parameters()  # family only
        self._check_n(n_hi)
        ((g, a), G), (B, M) = self._weight_nums, self.b2_row
        return next((n for n in range(1, n_hi + 1)
                     if 2 * a * B[n - 1] != M * (n * G + g * (n % 2))), None)

    def first_deformation_mismatch(self, n_hi: int) -> int | None:
        """The first 3 <= n <= n_hi - 2 (a range that reads every b^2 below b_{n_hi}^2) at
        which b_{n+1}^2 - (r + r^2) b_{n-1}^2 + r^3 b_{n-3}^2 = 0, r = (v_3 - v_1)/v_1, fails,
        or None.  On the compatible class d_n = v_n - v_{n-2} = r d_{n-2} and b_{n-1}^2 =
        (b0^2/v_1) v_{n-1} d_n give C_{n+2} = r^2 C_n, C_n = b_{n+1}^2 - r b_{n-1}^2: a parity-
        deformed oscillator (Arik-Coon, q = r; Wigner's at r = 1), which the commutator and
        the levels obey alike.  Over b^2 = B / M (b2_row) and r = R / W, R = w_3 - w_1, W = w_1,
        it reads W^3 B_{n+1} - R W (W + R) B_{n-1} + R^3 B_{n-3} = 0, in integers."""
        self._check_n(n_hi)
        if n_hi < 5:  # no n in range
            return None
        B, w = self.b2_row[0], self._w
        R, W = w[3] - w[1], w[1]
        c1, c2, c3 = W**3, R * W * (W + R), R**3
        return next((n for n in range(3, n_hi - 1)
                     if c1 * B[n + 1] - c2 * B[n - 1] + c3 * B[n - 3]), None)

    def square_lowering_deviation(self, n_hi: int) -> float:
        """Deviation of X d/dx - N = (a-)^2 / c1, c1 = 1 / alpha (the weight's),
        on the columns 2 <= n <= n_hi.  On the monic cores it reads

            x P_n' - n P_n = r P_{n-2},   r = 2 alpha b_{n-1}^2 b_{n-2}^2,

        that is (k - n) c_k(P_n) = r c_k(P_{n-2}) for every k, checked exactly by
        cross-multiplying the integer numerators: 0.0 when every column holds,
        else the largest residual coefficient in units of psi_n (_over_sqrt).
        With r = 2 a B_{n-1} B_{n-2} / (G M^2), alpha = a / G (_weight_nums) and
        b^2 = B / M (b2_row), an unreduced integer pair, and the cores' denominators
        over their gcd, each product is a numerator times a small integer, on n's
        parity (_parities).  Family only; n_hi >= 2 reads the first column."""
        self.weight_parameters()  # family only
        self._check_n(n_hi)
        if n_hi < 2:
            raise ValueError(f"square lowering reads the columns 2 <= n <= n_hi: got n_hi = {n_hi}")
        (_, ai), G = self._weight_nums
        (B, M), worst, cores = self.b2_row, 0.0, self._monic
        for n in range(2, n_hi + 1):
            p, q = self._core(n), cores[n - 2]
            g = math.gcd(p.den, q.den)
            # the residual coefficients times den(P_n) sp, for r = rn / rd: sp = den(P_{n-2}) rd / g
            sp, sq = q.den // g * G * M * M, p.den // g * 2 * ai * B[n - 1] * B[n - 2]
            gap = max(
                abs((t + 2 * i - n) * a * sp - c * sq) for t in _parities(n % 2, p.nums, q.nums)
                for i, (a, c) in enumerate(zip_longest(p.nums[t::2], q.nums[t::2], fillvalue=0))
            )
            if gap:
                worst = max(worst, _over_sqrt(Fraction(gap, p.den * sp), self.norm2[n]))
        return worst

    def _core_expansion(self, n: int, nums: Sequence[int], den: int,
                        indices: Sequence[int]) -> list[Fraction]:
        """Coefficients of nums / den (x^0 first) over the monic cores P_idx, idx in
        the given descending order, by triangular elimination in integers: P_idx is
        monic of degree idx, so r / den(p) is its coefficient, r the x^idx numerator
        of the rest p, and p - (r / den(p)) P_idx has numerators a den(P_idx) - r c(P_idx).
        A remainder means a defective core: ValueError naming the decomposition's n."""
        p, out = Poly.from_numerators(nums, den), []
        for idx in indices:
            r = p.nums[idx] if idx < len(p.nums) else 0
            out.append(Fraction(r, p.den))
            if r:
                core = self._core(idx)
                p = Poly.from_numerators([a * core.den - r * c for a, c in zip_longest(
                    p.nums, core.nums, fillvalue=0)], p.den * core.den)
        if not p.is_zero():
            raise ValueError(f"the expansion at n = {n} left a remainder: a monic core is "
                             "defective (the first_* scans locate the first)")
        return out

    def _upper_remainder(self, n: int) -> tuple[int, list[int], int]:
        """(L u_n, the numerators of R = U P_n - u_n x P_{n-1} and their denominator
        L lcm(den(P_n), den(P_{n-1})), each a numerator times a small cofactor on the
        slots of n's parity (_parities)), from w_i = L v_i, i < n.  U, D's degree-
        preserving part, is diagonal: U x^m = u_m x^m, u_m = v_{m-1} - m v_0, the
        series x D x^m = v_{m-1} x^m less its eps_1 = v_0 term (apply_upper_part)."""
        cur, prev, w = self._core(n), self._core(n - 1), self._w
        g, un = math.gcd(cur.den, prev.den), w[n - 1] - n * w[0]
        sa, sb = prev.den // g, cur.den // g * un
        shifted, wd, r = (0, *prev.nums), (0, *w[:n]), [0] * (n + 1)  # u_k = wd[k] - k w_0
        for t in _parities(n % 2, cur.nums, shifted):
            r[t::2] = [a * ((v - k * w[0]) * sa) - b * sb for k, v, a, b in zip(
                range(t, n + 1, 2), wd[t::2], cur.nums[t::2], shifted[t::2], strict=True)]
        return un, r, self._L * cur.den * sa

    def first_reduced_failure(self, n_hi: int) -> int | None:
        """The first 2 <= n <= n_hi at which U P_n leaves span{x P_{n-1}, P_{n-2}}
        (the decomposition is not reduced), or None.  For cores of degrees n, n - 1
        and n - 2 that is R != beta P_{n-2}, beta = [x^{n-2}] R (_upper_remainder):
        r_k den(P_{n-2}) = r_{n-2} c_k(P_{n-2}) in integers, both sides over
        gcd(r_{n-2}, den(P_{n-2})), on the slots of n's parity (_parities)."""
        self._check_n(n_hi)
        cores = self._monic
        for n in range(2, n_hi + 1):
            if self._core(n).degree != n or any(cores[k].degree != k for k in (n - 1, n - 2)):
                return n
            r, low = self._upper_remainder(n)[1], cores[n - 2]
            h = math.gcd(r[n - 2], low.den)
            dl, rl, c = low.den // h, r[n - 2] // h, (*low.nums, 0, 0)
            if any(a * dl != rl * b for t in _parities(n % 2, r, c)
                   for a, b in zip(r[t::2], c[t::2])):
                return n
        return None

    def decompose_b1bar(self, n: int) -> DecompositionReport:
        """Expand U psi_n (U the degree-preserving part of D) over {x psi_{n-1},
        psi_{n-2}, psi_{n-4}, ...}: delta is u_n, and R by exact elimination."""
        self._check_n(n, 2)
        un, nums, den = self._upper_remainder(n)
        delta_scaled = Fraction(un, self._L)
        indices = range(n - 2, -1, -2)
        beta_scaled, *rest = self._core_expansion(n, nums, den, indices)
        tail = {idx: c for idx, c in zip(indices[1:], rest) if c != 0}
        support = [n - 1] * (delta_scaled != 0) + [n - 2] * (beta_scaled != 0) + list(tail)
        B, M = self.b2_row  # the psi-scalings b_{n-1}^2 and b_{n-1}^2 b_{n-2}^2
        return DecompositionReport(
            n=n, support=tuple(support), reduced=not tail,
            delta_bar=_over_sqrt(delta_scaled, Fraction(B[n - 1], M)),
            beta_bar=_over_sqrt(beta_scaled, Fraction(B[n - 1] * B[n - 2], M * M)),
            delta_scaled=delta_scaled, beta_scaled=beta_scaled, tail_scaled=tail,
        )

    def derivative_in_basis(self, n: int) -> list[tuple[int, float]]:
        """psi_n' = sum c_k psi_k, c_k = e_k nu_k / nu_n from the exact P_n' = sum e_k P_k."""
        self._check_n(n)
        core = self._core(n)
        indices = range(n - 1, -1, -2)
        expansion = self._core_expansion(
            n, [k * a for k, a in enumerate(core.nums[1:], 1)], core.den, indices)
        return [(idx, _over_sqrt(e, self.norm2[n] / self.norm2[idx]))
                for idx, e in zip(indices, expansion) if e]

    def derivative_decomposition(self, n: int) -> tuple[float, float]:
        """Coefficients (c_prev, c_over_x) of psi_n' = c_prev psi_{n-1}
        + c_over_x psi_{n-2} / x; exists exactly for family systems."""
        self._check_n(n, 2)
        if not self.is_family:
            raise UnsupportedSystemError("two-term derivative decomposition needs a family system")
        # x P_n' - n x P_{n-1} is an exact multiple of P_{n-2}; its x^k numerator
        # over den(P_n) den(P_{n-1}) is k c_k(P_n) den(P_{n-1}) - n c_{k-1}(P_{n-1}) den(P_n)
        cur, prev = self._core(n), self._core(n - 1)
        s = [k * a * prev.den - n * b * cur.den
             for k, (a, b) in enumerate(zip_longest(cur.nums, (0, *prev.nums), fillvalue=0))]
        (c2,) = self._core_expansion(n, s, cur.den * prev.den, (n - 2,))
        (B, M), k = self.b2_row, n - 1  # the psi-scalings b_k^2 and b_k^2 b_{k-1}^2
        return _over_sqrt(n, Fraction(B[k], M)), _over_sqrt(c2, Fraction(B[k] * B[k - 1], M * M))

    def ode_bracket(self, n: int) -> Poly:
        """The second-order equation of the system's weight applied to the monic
        core, as an exact polynomial:

            x^2 P'' + (gamma x - 2 alpha x^3) P' + (2 alpha n x^2 - theta_n) P,

        (gamma, alpha) the weight parameters and theta_n = gamma for odd n and 0
        for even n.  It is the zero polynomial for every n of a special family, so
        the equation holds for all x, not only on a grid.

        Built in one pass from the two-term relation for its coefficients,

            [x^k] = (k(k-1) + gamma k - theta_n) c_k + 2 alpha (n - k + 2) c_{k-2},

        c_k those of P_n, in integers over den(P_n) times the small common
        denominator of (gamma, alpha), which theta_n in {gamma, 0} shares, on the
        slots k = n (mod 2) up to k = deg + 2 (_parities); at degree n, n - k + 2
        = 0 leaves only k <= n nonzero.  A zero bracket is recorded with its core
        (_ode_proved) and returned for that core object again without a build.
        """
        self._check_n(n)
        self.weight_parameters()  # family only
        core = self._core(n)
        if self._ode_proved.get(n) is core:
            return _ZERO
        (gi, ai), G = self._weight_nums
        ti, ai2 = gi if n % 2 == 1 else 0, 2 * ai
        out = [0] * (len(core.nums) + 2)
        for t in _parities(n % 2, core.nums):
            c = core.nums[t::2]
            out[t::2] = [(k * ((k - 1) * G + gi) - ti) * ck + (n + 2 - k) * ai2 * c2
                         for k, ck, c2 in zip(range(t, len(out), 2), (*c, 0), (0, *c))]
        if not any(out):
            self._ode_proved[n] = core
        return Poly.from_numerators(out, core.den * G)

    def ode_residual(self, n: int, x) -> float:
        """Left side of the second-order equation of the system's weight

            x psi'' + (gamma - 2 alpha x^2) psi' + (2 alpha n x - theta_n/x) psi

        at a finite x != 0, which is ode_bracket(n)(x) / (x nu_n).  x converts
        once, a rational (numpy's integers too) to a Fraction and any other real
        to a float, and NaN and the infinities are rejected.  A family system
        reads +0.0: its bracket is the zero polynomial, proved once per core
        (ode_bracket).  A nonzero bracket (a defective core) is evaluated exactly
        and only the 1/nu_n normalization rounds, without converting nu_n^2 (it
        passes the float range near n = 200), free of the cancellation a naive
        float evaluation suffers at large |x| and n.
        """
        if type(x) is not float:
            x = as_fraction(x) if isinstance(x, numbers.Rational) else float(x)
        if x == 0:
            raise ValueError("the equation has a regular singular point at x = 0")
        if type(x) is float and not math.isfinite(x):
            raise ValueError(f"x must be finite; got {x}")
        bracket = self.ode_bracket(n)
        if bracket.is_zero():
            return 0.0
        return _over_sqrt(bracket(X := Fraction(x)) / X, self.norm2[n])

    def first_ode_failure(self, n_hi: int) -> int | None:
        """The first n <= n_hi whose ode_bracket is not the zero polynomial, or None."""
        self._check_n(n_hi)
        return next((n for n in range(n_hi + 1) if not self.ode_bracket(n).is_zero()), None)

    def _check_n(self, n: int, lo: int = 0) -> None:
        if not lo <= n <= self.n_max:
            raise ValueError(f"n must be in [{lo}, {self.n_max}]")
