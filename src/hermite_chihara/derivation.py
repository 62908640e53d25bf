"""Generalized derivation operators D = sum_k eps_k x^{k-1} d^k/dx^k.

The operator acts on monomials as D x^n = v_{n-1} x^{n-1}.  Applying the series
to x^n gives sum_{k<=n} C(n,k) k! eps_k = v_{n-1}, so the eps coefficients
are the binomial inverse transform of the governing sequence,

    k! eps_k = sum_{j=1}^{k} (-1)^{k-j} C(k,j) v_{j-1}.

Each operator checks the forward identity once, when it is built; after that
D is applied by the monomial rule alone.

Polynomials are dense tuples of exact rationals (index = power of x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, NamedTuple

from .governing import GoverningSequence, as_fraction

__all__ = [
    "Poly",
    "poly",
    "DerivationOperator",
    "OrderVerdict",
    "epsilons_from_sequence",
]


def _trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial over Q; the zero polynomial has no coeffs."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(tuple(as_fraction(c) for c in self.coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "Poly":
        c = as_fraction(c)
        return Poly(tuple(c * a for a in self.coeffs))

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def derivative(self, order: int = 1) -> "Poly":
        c = self.coeffs
        for _ in range(order):
            c = tuple(c[i] * i for i in range(1, len(c)))
        return Poly(c)

    def __call__(self, x):
        """Horner evaluation; exact for Fraction x, float otherwise."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + (c if isinstance(x, Fraction) else float(c))
        return acc

    def max_abs_coeff(self) -> Fraction:
        return max((abs(c) for c in self.coeffs), default=Fraction(0))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(terms)


def poly(coeffs: Iterable) -> Poly:
    return Poly(tuple(coeffs))


class OrderVerdict(NamedTuple):
    """Finite order of the operator, or 'infinite within horizon'."""

    finite: bool
    order: int | None
    horizon: int

    def __str__(self) -> str:
        if self.finite:
            return str(self.order)
        return f"infinite within horizon K={self.horizon}"


@dataclass(frozen=True)
class DerivationOperator:
    """eps_1..eps_K plus the source values v_0..; both exact.

    Construction checks that the series reproduces the monomial rule,
    sum_{k<=n} C(n,k) k! eps_k = v_{n-1}, for every n <= K, and raises
    ValueError otherwise.  Both sides are linear, so on polynomials of degree
    <= K the series and the monomial rule agree everywhere.
    """

    epsilons: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.k_max > len(self.values):
            raise ValueError(f"K={self.k_max} epsilons need at least {self.k_max} values")
        # k! eps_k over one common denominator, so the sums run in integers
        scaled = [e * factorial(k) for k, e in enumerate(self.epsilons, 1)]
        den = lcm(*(x.denominator for x in scaled))
        num = [x.numerator * (den // x.denominator) for x in scaled]
        binom = [1]  # row n of Pascal's triangle, C(n, 0..n)
        for n in range(1, self.k_max + 1):
            binom = [1, *(a + b for a, b in zip(binom, binom[1:])), 1]
            series = Fraction(sum(c * a for c, a in zip(binom[1:], num)), den)
            if series != self.values[n - 1]:
                raise ValueError(
                    f"epsilons give D x^{n} = {series} x^{n - 1}, "
                    f"but v_{n - 1} = {self.values[n - 1]}"
                )

    @property
    def k_max(self) -> int:
        return len(self.epsilons)

    def eps(self, k: int) -> Fraction:
        return self.epsilons[k - 1]

    def v(self, i: int) -> Fraction:
        return Fraction(0) if i == -1 else self.values[i]

    def apply(self, p: Poly) -> Poly:
        """D p by the linear extension of D x^n = v_{n-1} x^{n-1}."""
        self._check_degree(p)
        return Poly(tuple(c * self.values[n] for n, c in enumerate(p.coeffs[1:])))

    def apply_upper_part(self, p: Poly) -> Poly:
        """The degree-preserving part sum_{k>=2} eps_k x^k d^k applied to p.

        It is diagonal: x^m -> A_m(2) x^m with A_m(2) = v_{m-1} - m eps_1, the
        full series x D x^m = v_{m-1} x^m less its k = 1 term (eps_1 = v_0)."""
        self._check_degree(p)
        v0 = self.values[0]
        return Poly(tuple(c * (self.v(m - 1) - m * v0) for m, c in enumerate(p.coeffs)))

    def _check_degree(self, p: Poly) -> None:
        if p.degree > self.k_max:
            raise ValueError(f"degree {p.degree} exceeds available epsilons K={self.k_max}")

    def order(self) -> OrderVerdict:
        """Smallest k with eps_j = 0 exactly for all k < j <= K."""
        last_nonzero = 0
        for k in range(1, self.k_max + 1):
            if self.eps(k) != 0:
                last_nonzero = k
        if last_nonzero == self.k_max and self.k_max > 1:
            return OrderVerdict(finite=False, order=None, horizon=self.k_max)
        return OrderVerdict(finite=True, order=max(last_nonzero, 1), horizon=self.k_max)

    def a_coefficient(self, s: int, m: int) -> Fraction:
        """A_s(m) = s! sum_{k=m}^{s} eps_k / (s-k)!"""
        if not 1 <= m <= s <= self.k_max:
            raise ValueError(f"need 1 <= m <= s <= K={self.k_max}, got s={s}, m={m}")
        return factorial(s) * sum(
            (self.eps(k) / factorial(s - k) for k in range(m, s + 1)), Fraction(0)
        )


def epsilons_from_sequence(seq: GoverningSequence, K: int | None = None) -> DerivationOperator:
    """eps_1..eps_K by the binomial inverse transform (K defaults to N+1, the
    most the stored prefix supports)."""
    if K is None:
        K = len(seq)
    if K > len(seq):
        raise ValueError(f"K={K} exceeds stored sequence length {len(seq)}")
    # f[j] = den * v_{j-1} for j = 0..K, in integers; the k-th forward
    # difference at 0 is sum_j (-1)^{k-j} C(k,j) f[j] = den * k! eps_k
    den = lcm(*(v.denominator for v in seq.values[:K]))
    f = [0, *(v.numerator * (den // v.denominator) for v in seq.values[:K])]
    eps = []
    for k in range(1, K + 1):
        f = [b - a for a, b in zip(f, f[1:])]
        eps.append(Fraction(f[0], den * factorial(k)))
    return DerivationOperator(epsilons=tuple(eps), values=seq.values)
