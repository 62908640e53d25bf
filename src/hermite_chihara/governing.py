"""Governing sequences and the coefficient data they induce.

A governing sequence is a finite prefix (v_0, ..., v_N) of positive rationals
with v_0 = 1, together with the scale b0 of the first recurrence coefficient
(stored squared, so everything downstream stays rational).  From it the module
derives the bracket symbols

    [0] = 0,  [1] = 1,  [n] = v_{n-1} (v_n - v_{n-2}) / v_1,

the squared recurrence coefficients b_{n-1}^2 = b0^2 [n], and the squared
lowering factors gamma_n^2 = v_{n-1}^2 / b_{n-1}^2.  The sequence tests and
the tables read the step-2 differences d_n = v_n - v_{n-2}, d_1 = v_1, on the
integers w_i = L v_i: b^2 is one integer row over one denominator and gamma^2
a list of integer pairs, and only the brackets are Fractions.  All arithmetic
is exact.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Sequence

__all__ = [
    "ConstructionError",
    "GoverningSequence",
    "ValidationReport",
    "validate",
    "seq_hermite",
    "seq_order2",
    "seq_order3",
    "seq_classical",
    "seq_family",
    "bracket_table",
    "b_squares",
    "gamma_squares",
    "family_weight",
    "is_special_family",
]

DEFAULT_N = 64


class ConstructionError(ValueError):
    """A constructor produced a sequence violating its contract."""


def as_fraction(x) -> Fraction:
    """Coerce an integer (through int), a rational (through its int numerator and
    denominator) or a string to Fraction, a Fraction of ints as it is; reject floats."""
    if type(x) is Fraction and type(x.numerator) is int and type(x.denominator) is int:
        return x
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, numbers.Real):  # float, and numpy's floats of every width
        raise TypeError(f"expected exact rational, got float {x!r}")
    return Fraction(x)


def common_denominator(fracs: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integers nums and den > 0 with fracs[i] = nums[i] / den, den the lcm of
    the denominators."""
    fracs = list(fracs)
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _json_rational(x) -> Fraction:
    """A seed-file entry: a JSON integer or a "p/q" string with q > 0.  A JSON
    float is refused, since Fraction would take it at its binary value."""
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", x):
        return Fraction(x)
    raise ValueError(f"seed-file entry {x!r} is not an integer or a 'p/q' string with q > 0")


@dataclass(frozen=True, init=False)
class GoverningSequence:
    """Finite prefix of a governing sequence plus the b0 scale (squared); v_i = nums[i] / den.

    Held as nums over den, the lcm of the values' denominators; ``values`` is a
    Fraction view formed on first read.  Every sequence passes the same checks,
    in ``__post_init__``."""

    nums: tuple[int, ...]
    den: int
    b0_squared: Fraction

    def __init__(self, values: Iterable, b0_squared):
        self._store(*common_denominator(map(as_fraction, values)), b0_squared)

    @classmethod
    def _of_numerators(cls, nums: Sequence[int], den: int, b0_squared) -> "GoverningSequence":
        """v_i = nums[i] / den for Python ints nums and den > 0."""
        seq = object.__new__(cls)
        seq._store(nums, den, b0_squared)
        return seq

    def _store(self, nums: Sequence[int], den: int, b0_squared) -> None:
        """Store v = nums / den over their gcd, so that den is the lcm of the values'
        denominators, and check it."""
        g = math.gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(a // g for a in nums) if g > 1 else tuple(nums))
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "b0_squared", as_fraction(b0_squared))
        self.__post_init__()

    def __post_init__(self):
        if not self.nums:
            raise ValueError("governing sequence is empty")
        if self.nums[0] != self.den:
            raise ValueError(f"v_0 must be 1, got {Fraction(self.nums[0], self.den)}")
        if min(self.nums) <= 0:
            raise ValueError("governing sequence values must be strictly positive")
        if self.b0_squared.numerator <= 0:
            raise ValueError("b0_squared must be positive")

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    @property
    def n_max(self) -> int:
        return len(self.nums) - 1

    @classmethod
    def from_json(cls, text: str, n_max: int | None = None) -> "GoverningSequence":
        """The sequence of a seed file's object {"values": [...], "b0_squared": ...},
        cut to v_0..v_{n_max} when n_max is given: later values are neither converted
        nor judged.  ValueError on any other shape, on a negative n_max, or on fewer than
        n_max + 1 values."""
        if n_max is not None and n_max < 0:
            raise ValueError(f"n_max must be >= 0; got {n_max}")
        data = json.loads(text)
        if not (isinstance(data, dict) and isinstance(data.get("values"), list)
                and "b0_squared" in data):
            raise ValueError('a seed file holds one JSON object '
                             '{"values": [...], "b0_squared": ...}')
        values = data["values"][: None if n_max is None else n_max + 1]
        seq = cls(tuple(map(_json_rational, values)), _json_rational(data["b0_squared"]))
        if n_max is not None and seq.n_max < n_max:
            raise ValueError(f"seed file stores {len(seq)} values; need at least {n_max + 1}")
        return seq


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a sequence against the admissibility conditions.

    ``compatible`` is the operative condition (the cross-product identity that
    makes the nested and closed coefficient formulas agree); ``monotone`` is
    reported separately because several legitimate systems (e.g. the classical
    weight with gamma > 1) violate it while remaining perfectly usable.
    """

    monotone: bool
    compatible: bool
    first_violation: tuple[int, int] | None

    @property
    def ok(self) -> bool:
        return self.compatible


def validate(seq: GoverningSequence) -> ValidationReport:
    """Check monotonicity and the compatibility identity

        v_{n-2} v_{2p-1} + v_{2p-3} v_{n-2p} = v_n v_{2p-3} + v_{2p-1} v_{n-2p}

    for all n >= 2 and 1 <= p <= n/2 in the stored range, with v_{-1} = 0
    (which makes the p = 1 case vacuous).  Returns the first violated (n, p).

    The case p = 2 at n >= 4 reads v_1 d_n = (v_3 - v_1) d_{n-2}, and it implies
    every other p: if it holds up to n, then with r = d_3/v_1, e = d_{n-2p+2}
    and S_j = 1 + r + ... + r^{j-1}, v_{2p-1} = v_1 S_p, v_{2p-3} = v_1 S_{p-1},
    v_{n-2} - v_{n-2p} = e S_{p-1} and v_n - v_{n-2p} = e S_p, so both sides of
    case p equal v_1 S_p S_{p-1} e (no division by r).  Hence the first
    violation in (n, p) order is (n, 2) at the first n where case p = 2 fails.
    """
    if len(seq) < 3:
        raise ValueError("validate needs at least 3 sequence entries")
    # both conditions are homogeneous, so they are checked on the integers
    # w_i = L v_i, with L the common denominator
    w = seq.nums
    monotone = all(a <= b for a, b in zip(w, w[1:]))
    first = next(((n, 2) for n in range(4, len(w))
                  if w[1] * (w[n] - w[n - 2]) != (w[3] - w[1]) * (w[n - 2] - w[n - 4])), None)
    return ValidationReport(monotone=monotone, compatible=first is None, first_violation=first)


def _check_length(N: int) -> None:
    """Every constructor returns v_0..v_N, N + 1 values, for N >= 1."""
    if N < 1:
        raise ValueError("N must be >= 1")


def seq_hermite(N: int, b0_squared=Fraction(1, 2)) -> GoverningSequence:
    """v_n = n + 1.  The unique order-1 sequence; b0^2 defaults to 1/2."""
    _check_length(N)
    return GoverningSequence._of_numerators(range(1, N + 2), 1, b0_squared)


def seq_order2(v1, N: int = DEFAULT_N, b0_squared=Fraction(1, 2)) -> GoverningSequence:
    """One-parameter order-2 family: v_n = C(n+1,2) v1 - n^2 + 1 for n >= 1."""
    _check_length(N)
    v1 = as_fraction(v1)
    if v1 < 1:
        raise ValueError("v1 must be >= 1")
    p, q = v1.numerator, v1.denominator
    nums = [q] + [comb(n + 1, 2) * p - (n * n - 1) * q for n in range(1, N + 1)]
    return _admissible(nums, q, "seq_order2", b0_squared)


def seq_order3(v1, v2, N: int = DEFAULT_N, b0_squared=Fraction(1, 2)) -> GoverningSequence:
    """Two-parameter order-3 family; v_1 is taken verbatim, n >= 2 from the
    cubic binomial formula (each halved product has an even factor)."""
    _check_length(N)
    v1, v2 = as_fraction(v1), as_fraction(v2)
    if not 1 <= v1 <= v2:
        raise ValueError("need 1 <= v1 <= v2")
    (a1, a2), den = common_denominator((v1, v2))
    nums = [den, a1] + [
        comb(n + 1, 3) * a2 - (n + 1) * n * (n - 2) // 2 * a1
        + (n + 1) * (n - 1) * (n - 2) // 2 * den
        for n in range(2, N + 1)
    ]
    return _admissible(nums, den, "seq_order3", b0_squared)


def seq_classical(gamma, N: int = DEFAULT_N, alpha=1) -> GoverningSequence:
    """Sequence of the classical weight |x|^gamma exp(-alpha x^2):

        v_n = (gamma+n+1)/(gamma+1)  (n even),   (n+1)/(gamma+1)  (n odd),

    with b0^2 = (gamma+1)/(2 alpha): the special family at v1 = 2/(gamma+1),
    v2 = 1 + v1.  Not monotone for gamma > 1, but compatible.
    """
    gamma, alpha = as_fraction(gamma), as_fraction(alpha)
    if gamma <= -1:
        raise ValueError("gamma must be > -1")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    v1 = 2 / (gamma + 1)
    return seq_family(v1, 1 + v1, (gamma + 1) / (2 * alpha), N)


def seq_family(v1, v2, b0_squared=Fraction(1), N: int = DEFAULT_N) -> GoverningSequence:
    """Two-parameter special family: v_{2p+1} = (p+1) v1, v_{2m} = m v2 - (m-1).

    The lower bound on v1 is relaxed to v1 > 0 (the classical systems with
    gamma > 1 sit at v1 = 2/(gamma+1) < 1).  b0 enters only as a scale.
    """
    _check_length(N)
    v1, v2 = as_fraction(v1), as_fraction(v2)
    if not 0 < v1 <= v2:
        raise ValueError("need 0 < v1 <= v2")
    (a1, a2), den = common_denominator((v1, v2))
    # L v_{2p+1} = (p+1) a1 and L v_{2m} = m (a2 - L) + L over L = den
    nums = [(n // 2 + 1) * a1 if n % 2 else n // 2 * (a2 - den) + den for n in range(N + 1)]
    return GoverningSequence._of_numerators(nums, den, b0_squared)


def _admissible(nums: Sequence[int], den: int, name: str, b0_squared) -> GoverningSequence:
    """The sequence v_i = nums[i] / den (den > 0), once positive and nondecreasing.
    nums[0] = den, so a nondecreasing row is positive, and the first index where
    it decreases is the first that is not positive nondecreasing."""
    ok = list(map(operator.le, nums, nums[1:]))
    if not all(ok):
        i = ok.index(False)
        raise ConstructionError(
            f"{name}: result not positive nondecreasing at index {i}: "
            f"{Fraction(nums[i], den)} -> {Fraction(nums[i + 1], den)}"
        )
    return GoverningSequence._of_numerators(nums, den, b0_squared)


def _steps(seq: GoverningSequence) -> list[int]:
    """d_n = w_n - w_{n-2} for n = 1..N over w_i = L v_i (w_{-1} = 0, so d_1 = w_1),
    the pass every table reads.  As w_{n-1} > 0, [n] = w_{n-1} d_n / (L w_1) is
    positive iff d_n is: raises at the first n where it is not (then no
    orthonormal system)."""
    w = seq.nums
    d = [b - a for a, b in zip((0, *w), w[1:])]
    if d and min(d) <= 0:
        n = next(n for n, x in enumerate(d, 1) if x <= 0)
        raise ValueError(f"bracket [{n}] = {Fraction(w[n - 1] * d[n - 1], seq.den * w[1])} "
                         "is not positive; no orthonormal system")
    return d


def bracket_table(seq: GoverningSequence) -> list[Fraction]:
    """[0..N] bracket symbols, [n] = w_{n-1} d_n / (L w_1) (_steps, which raises
    where one is not positive)."""
    w, d = seq.nums, _steps(seq)
    den = seq.den * w[1] if d else 1
    return [Fraction(0)] + [Fraction(a * x, den) for a, x in zip(w, d)]


def b_squares(seq: GoverningSequence) -> tuple[list[int], int]:
    """Squared recurrence coefficients b_i^2 = b0^2 [i+1], i = 0..N-1, as one
    integer row over one denominator: (nums, M) with b_i^2 = nums[i] / M,
    nums[i] = p w_i d_{i+1} and M = q L w_1 over b0^2 = p/q (_steps, which
    raises where a bracket is not positive)."""
    w, d = seq.nums, _steps(seq)
    p, q = seq.b0_squared.numerator, seq.b0_squared.denominator
    return [p * a * x for a, x in zip(w, d)], q * seq.den * (w[1] if d else 1)


def gamma_squares(seq: GoverningSequence) -> list[tuple[int, int]]:
    """Squared lowering factors gamma_n^2 = v_{n-1}^2 / b_{n-1}^2, n = 0..N, as
    integer pairs (num, den), den > 0: gamma_n^2 = q w_1 w_{n-1} / (L p d_n) over
    b0^2 = p/q, and (0, 1) at n = 0 (_steps, which raises where a bracket is
    not positive)."""
    w, d = seq.nums, _steps(seq)
    p, q = seq.b0_squared.numerator, seq.b0_squared.denominator
    qw1, lp = q * (w[1] if d else 1), seq.den * p
    return [(0, 1)] + [(qw1 * a, lp * x) for a, x in zip(w, d)]


def is_special_family(seq: GoverningSequence) -> tuple[bool, tuple[Fraction, Fraction] | None]:
    """Whether the stored prefix obeys v_{2p+1} = (p+1) v1 and
    v_{2m} = m v2 - (m-1) exactly, that is d_n = v1 for odd n >= 3 and
    d_n = v2 - 1 for even n >= 4; returns the recovered (v1, v2) when it does.
    Read on w_i = L v_i: w_n - w_{n-2} = w_1 or w_2 - L."""
    if len(seq) < 3:
        raise ValueError("need at least 3 entries to decide the family shape")
    w, steps = seq.nums, (seq.nums[2] - seq.den, seq.nums[1])
    if any(w[n] - w[n - 2] != steps[n % 2] for n in range(3, len(w))):
        return False, None
    return True, (Fraction(w[1], seq.den), Fraction(w[2], seq.den))


def family_weight(seq: GoverningSequence) -> tuple[Fraction, Fraction] | None:
    """(gamma, alpha) of the weight C |x|^gamma exp(-alpha x^2) of a special-family
    sequence, else None; raises, as bracket_table does, where [2] = v2 - 1 <= 0."""
    if not is_special_family(seq)[0]:
        return None
    v2 = Fraction(seq.nums[2], seq.den)
    if v2 <= 1:
        raise ValueError(f"bracket [2] = {v2 - 1} is not positive; no orthonormal system")
    return (3 - v2) / (v2 - 1), 1 / (seq.b0_squared * (v2 - 1))
