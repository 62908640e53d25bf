"""Generalized derivation operators D = sum_k eps_k x^{k-1} d^k/dx^k.

The operator acts on monomials as D x^n = v_{n-1} x^{n-1}.  Applying the series
to x^n gives sum_{k<=n} C(n,k) k! eps_k = v_{n-1}, so the eps coefficients
are the binomial inverse transform of the governing sequence,

    k! eps_k = sum_{j=1}^{k} (-1)^{k-j} C(k,j) v_{j-1}.

The transform stops at the first difference row that is all zero: every later
row is zero too, so every later eps is 0.  At order r (eps_k = 0 for k > r)
it costs O(K r) integer additions; at infinite order, O(K^2).

Each operator checks the forward identity once, when it is built, on integer
rows it keeps: den k! eps_k are the forward differences at 0 of
f(n) = den sum_k C(n,k) k! eps_k (Newton), so f(0..K) is formed from the top
difference down by r cumulative sums, again O(K r) additions, and compared with
v_0..v_{K-1} in one pass.  After that D is applied by the monomial rule alone.

Polynomials are dense tuples of integer numerators over one shared
denominator (index = power of x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import comb, gcd
from operator import eq, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .governing import GoverningSequence, as_fraction, common_denominator

__all__ = [
    "Poly",
    "DerivationOperator",
    "OrderVerdict",
    "epsilons_from_sequence",
]


@dataclass(frozen=True, init=False)
class Poly:
    """Dense univariate polynomial over Q, held as integer numerators over one
    shared denominator: p = sum_k nums[k] x^k / den.

    The form is canonical -- den > 0, gcd(den, *nums) == 1, no trailing zero
    numerators, and the zero polynomial has none at all -- so == and hash
    compare structure.  ``coeffs`` gives the coefficients as lowest-terms
    Fractions.  Poly only stores and evaluates: the checks compute on nums."""

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable):
        _settle(self, *common_denominator(as_fraction(c) for c in coeffs))

    @classmethod
    def from_numerators(cls, nums: Sequence[int], den: int = 1) -> "Poly":
        """sum_k nums[k] x^k / den for integers nums and den > 0, reduced once."""
        p = object.__new__(cls)
        _settle(p, nums, den)
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.nums

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation in integers at a rational x; a float x
        raises TypeError, as a float coefficient does."""
        x = as_fraction(x)
        if self.is_zero():
            return Fraction(0)
        # p(u/w) den w^deg = sum_k nums[k] u^k w^(deg-k)
        u, w = x.numerator, x.denominator
        acc, pw = 0, 1
        for a in reversed(self.nums):
            acc = acc * u + a * pw
            pw *= w
        return Fraction(acc, self.den * w**self.degree)


def _settle(p: Poly, nums: Sequence[int], den: int) -> None:
    """Store nums/den on p in canonical form: trailing zeros dropped, then one
    division by gcd(den, *nums).  An all-zero list (a satisfied identity) is
    dropped whole."""
    if den <= 0:
        raise ValueError(f"the shared denominator must be positive, got {den}")
    n = len(nums) if any(nums) else 0
    while n and not nums[n - 1]:
        n -= 1
    g = gcd(den, *nums[:n])
    object.__setattr__(p, "nums", tuple(a // g for a in nums[:n]) if g > 1 else tuple(nums[:n]))
    object.__setattr__(p, "den", den // g)


class OrderVerdict(NamedTuple):
    """Finite order of the operator, or 'infinite within horizon'."""

    finite: bool
    order: int | None
    horizon: int

    def __str__(self) -> str:
        if self.finite:
            return str(self.order)
        return f"infinite within horizon K={self.horizon}"


@dataclass(frozen=True, init=False)
class DerivationOperator:
    """eps_1..eps_K plus the source values v_0..; both exact.

    Integers (numpy's too, through int) are read as as_fraction reads them and
    floats are refused with TypeError.  It stores K and two integer rows, each
    formed once: den k! eps_k for k <= r, r the last k with eps_k != 0, over its
    gcd, and the values over their common denominator (_row), which D reads;
    ``epsilons`` and ``values`` are views formed on first read.  Equality and
    hash compare K and the rows, that is eps and the values.  Construction
    checks on the rows that the series reproduces the monomial rule,
    sum_{k<=n} C(n,k) k! eps_k = v_{n-1}, for every n <= K, and raises
    ValueError otherwise.  Both sides are linear, so on polynomials of degree
    <= K the series and the monomial rule agree.
    """

    k_max: int
    _scaled: tuple[tuple[int, ...], int]
    _row: tuple[tuple[int, ...], int]

    def __init__(self, epsilons: Iterable, values: Iterable):
        epsilons = list(map(as_fraction, epsilons))
        r = max((k for k, e in enumerate(epsilons, 1) if e), default=0)
        nums, den = common_denominator(epsilons[:r])
        scaled = list(map(mul, nums, accumulate(range(1, r + 1), mul)))  # den k! eps_k
        self._store(len(epsilons), scaled, den, common_denominator(map(as_fraction, values)))

    def _store(self, K: int, scaled: Sequence[int], den: int, row: tuple[Sequence[int], int]):
        """Store K, the row den k! eps_k over its gcd and the value row; check them."""
        g = gcd(den, *scaled)
        object.__setattr__(self, "k_max", K)
        object.__setattr__(self, "_scaled", (tuple(a // g for a in scaled), den // g))
        object.__setattr__(self, "_row", (tuple(row[0]), row[1]))
        self.__post_init__()

    def __post_init__(self):
        """The forward check, which every construction runs on the integer rows."""
        K = self.k_max
        (num, den), (vnum, vden) = self._scaled, self._row
        if not 1 <= K <= len(vnum):
            raise ValueError(f"K={K} epsilons need at least {K} values" if K else
                             "an operator needs at least one epsilon (K >= 1)")
        # den k! eps_k are the forward differences at 0 of f(n) = den sum_k C(n,k)
        # k! eps_k (Newton).  Level k holds the k-th differences at n = 0..K - k:
        # level r is constant (the differences past r are zero), and each level
        # below it is its cumulative sum from den k! eps_k, so level 0 is f(0..K)
        *lower, top = 0, *num  # den k! eps_k at k = 0..r-1, and at k = r (0 when r = 0)
        level = [top] * (K - len(num) + 1)
        for s in reversed(lower):
            level = list(accumulate(level, initial=s))
        f, v = level[1:], list(vnum[:K])
        if den != vden:  # f / den against v / vden, crosswise
            f, v = list(map(mul, f, repeat(vden))), list(map(mul, v, repeat(den)))
        if f != v:
            n = list(map(eq, f, v)).index(False) + 1
            raise ValueError(
                f"epsilons give D x^{n} = {Fraction(level[n], den)} x^{n - 1}, "
                f"but v_{n - 1} = {Fraction(vnum[n - 1], vden)}"
            )

    @cached_property
    def epsilons(self) -> tuple[Fraction, ...]:
        """eps_k = num[k-1] / (den k!) for k <= r, then K - r zeros."""
        num, den = self._scaled
        dens = map(mul, accumulate(range(1, len(num) + 1), mul), repeat(den))
        return (*map(Fraction, num, dens), *[Fraction(0)] * (self.k_max - len(num)))

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        vnum, vden = self._row
        return tuple(Fraction(a, vden) for a in vnum)

    def eps(self, k: int) -> Fraction:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"need 1 <= k <= K={self.k_max}, got k={k}")
        return self.epsilons[k - 1]

    def apply(self, p: Poly) -> Poly:
        """D p by the linear extension of D x^n = v_{n-1} x^{n-1}."""
        self._check_degree(p)
        v, vden = self._row
        return Poly.from_numerators([a * b for a, b in zip(p.nums[1:], v)], p.den * vden)

    def apply_upper_part(self, p: Poly) -> Poly:
        """The degree-preserving part sum_{k>=2} eps_k x^k d^k applied to p.

        It is diagonal: x^m -> A_m(2) x^m with A_m(2) = v_{m-1} - m eps_1, the
        full series x D x^m = v_{m-1} x^m less its k = 1 term (eps_1 = v_0)."""
        self._check_degree(p)
        v, vden = self._row
        return Poly.from_numerators(
            [0] + [a * (v[m - 1] - m * v[0]) for m, a in enumerate(p.nums[1:], 1)],
            p.den * vden,
        )

    def _check_degree(self, p: Poly) -> None:
        if p.degree > self.k_max:
            raise ValueError(f"degree {p.degree} exceeds available epsilons K={self.k_max}")

    def order(self) -> OrderVerdict:
        """Smallest k with eps_j = 0 exactly for all k < j <= K."""
        last_nonzero = len(self._scaled[0])  # one entry per k <= r
        if last_nonzero == self.k_max and self.k_max > 1:
            return OrderVerdict(finite=False, order=None, horizon=self.k_max)
        return OrderVerdict(finite=True, order=max(last_nonzero, 1), horizon=self.k_max)

    def a_coefficient(self, s: int, m: int) -> Fraction:
        """A_s(m) = s! sum_{k=m}^{s} eps_k / (s-k)! = sum_k C(s,k) k! eps_k, on the eps row."""
        if not 1 <= m <= s <= self.k_max:
            raise ValueError(f"need 1 <= m <= s <= K={self.k_max}, got s={s}, m={m}")
        num, den = self._scaled
        return Fraction(sum(comb(s, k) * a for k, a in enumerate(num[m - 1 : s], m)), den)


def epsilons_from_sequence(seq: GoverningSequence, K: int | None = None) -> DerivationOperator:
    """eps_1..eps_K by the binomial inverse transform, for 1 <= K <= N+1 (K
    defaults to N+1, the most the stored prefix supports)."""
    if K is None:
        K = len(seq)
    if not 1 <= K <= len(seq):
        raise ValueError(f"K={K} must be in [1, {len(seq)}], the stored sequence length")
    # f[j] = den * v_{j-1} for j = 0..K, in integers; the k-th forward
    # difference at 0 is sum_j (-1)^{k-j} C(k,j) f[j] = den * k! eps_k.  A row
    # of zeros (f[0] = 0 is read first) ends the table: every later eps is 0,
    # and the f[0] before it is not 0 (else that row was zero), so scaled ends at r
    f = [0, *seq.nums[:K]]
    scaled = []
    for _ in range(K):
        f = list(map(sub, f[1:], f))
        if not f[0] and not any(f):
            break
        scaled.append(f[0])
    op = object.__new__(DerivationOperator)
    op._store(K, scaled, seq.den, (seq.nums, seq.den))
    return op
