"""Governing sequences and the coefficient data they induce.

A governing sequence is a finite prefix (v_0, ..., v_N) of positive rationals
with v_0 = 1, together with the scale b0 of the first recurrence coefficient
(stored squared, so everything downstream stays rational).  From it the module
derives the bracket symbols

    [0] = 0,  [1] = 1,  [n] = v_{n-1} (v_n - v_{n-2}) / v_1,

the squared recurrence coefficients b_{n-1}^2 = b0^2 [n], and the squared
lowering factors gamma_n^2 = v_{n-1}^2 / b_{n-1}^2.  The sequence tests read the
step-2 differences d_n = v_n - v_{n-2}, d_1 = v_1.  All arithmetic is exact.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
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
    """Coerce int/str/Fraction to Fraction, a Fraction as it is; reject floats (exactness)."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
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


@dataclass(frozen=True)
class GoverningSequence:
    """Finite prefix of a governing sequence plus the b0 scale (squared); v_i = nums[i] / den."""

    values: tuple[Fraction, ...]
    b0_squared: Fraction
    nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        object.__setattr__(self, "b0_squared", as_fraction(self.b0_squared))
        if not self.values:
            raise ValueError("governing sequence is empty")
        if self.values[0] != 1:
            raise ValueError(f"v_0 must be 1, got {self.values[0]}")
        if any(v.numerator <= 0 for v in self.values):
            raise ValueError("governing sequence values must be strictly positive")
        if self.b0_squared.numerator <= 0:
            raise ValueError("b0_squared must be positive")
        nums, den = common_denominator(self.values)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def value(self, i: int) -> Fraction:
        """v_i, with the v_{-1} = 0 convention used throughout."""
        if i == -1:
            return Fraction(0)
        return self.values[i]

    def to_json_dict(self) -> dict:
        return {
            "values": [str(v) for v in self.values],
            "b0_squared": str(self.b0_squared),
        }

    @classmethod
    def from_json(cls, text: str) -> "GoverningSequence":
        """The sequence of a seed file's object {"values": [...], "b0_squared": ...}.
        Raises ValueError on any other shape."""
        data = json.loads(text)
        if not (isinstance(data, dict) and isinstance(data.get("values"), list)
                and "b0_squared" in data):
            raise ValueError('a seed file holds one JSON object '
                             '{"values": [...], "b0_squared": ...}')
        return cls(
            values=tuple(_json_rational(x) for x in data["values"]),
            b0_squared=_json_rational(data["b0_squared"]),
        )


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


def seq_hermite(N: int, b0_squared=Fraction(1, 2)) -> GoverningSequence:
    """v_n = n + 1.  The unique order-1 sequence; b0^2 defaults to 1/2."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return GoverningSequence(tuple(Fraction(n + 1) for n in range(N + 1)), as_fraction(b0_squared))


def seq_order2(v1, N: int = DEFAULT_N, b0_squared=Fraction(1, 2)) -> GoverningSequence:
    """One-parameter order-2 family: v_n = C(n+1,2) v1 - n^2 + 1 for n >= 1."""
    v1 = as_fraction(v1)
    if v1 < 1:
        raise ValueError("v1 must be >= 1")
    p, q = v1.numerator, v1.denominator
    nums = [q] + [comb(n + 1, 2) * p - (n * n - 1) * q for n in range(1, N + 1)]
    return _admissible(nums, q, "seq_order2", b0_squared)


def seq_order3(v1, v2, N: int = DEFAULT_N, b0_squared=Fraction(1, 2)) -> GoverningSequence:
    """Two-parameter order-3 family; v_1 is taken verbatim, n >= 2 from the
    cubic binomial formula (each halved product has an even factor)."""
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


def seq_classical(gamma, N: int = DEFAULT_N) -> GoverningSequence:
    """Sequence of the classical weight |x|^gamma exp(-x^2):

        v_n = (gamma+n+1)/(gamma+1)  (n even),   (n+1)/(gamma+1)  (n odd),

    with b0^2 = (gamma+1)/2: the special family at v1 = 2/(gamma+1), v2 = 1 + v1.
    Not monotone for gamma > 1, but compatible.
    """
    gamma = as_fraction(gamma)
    if gamma <= -1:
        raise ValueError("gamma must be > -1")
    v1 = 2 / (gamma + 1)
    return seq_family(v1, 1 + v1, (gamma + 1) / 2, N)


def seq_family(v1, v2, b0_squared=Fraction(1), N: int = DEFAULT_N) -> GoverningSequence:
    """Two-parameter special family: v_{2p+1} = (p+1) v1, v_{2m} = m v2 - (m-1).

    The lower bound on v1 is relaxed to v1 > 0 (the classical systems with
    gamma > 1 sit at v1 = 2/(gamma+1) < 1).  b0 enters only as a scale.
    """
    v1, v2 = as_fraction(v1), as_fraction(v2)
    if not 0 < v1 <= v2:
        raise ValueError("need 0 < v1 <= v2")
    p1, q1, p2, q2 = v1.numerator, v1.denominator, v2.numerator, v2.denominator
    values = tuple(
        Fraction((n // 2 + 1) * p1, q1) if n % 2 == 1 else Fraction(n // 2 * (p2 - q2) + q2, q2)
        for n in range(N + 1)
    )
    return GoverningSequence(values, as_fraction(b0_squared))


def _admissible(nums: Sequence[int], den: int, name: str, b0_squared) -> GoverningSequence:
    """The sequence v_i = nums[i] / den (den > 0), once positive and nondecreasing."""
    for i in range(len(nums) - 1):
        if nums[i] <= 0 or nums[i] > nums[i + 1]:
            raise ConstructionError(
                f"{name}: result not positive nondecreasing at index {i}: "
                f"{Fraction(nums[i], den)} -> {Fraction(nums[i + 1], den)}"
            )
    return GoverningSequence(tuple(Fraction(a, den) for a in nums), as_fraction(b0_squared))


def bracket_table(seq: GoverningSequence) -> list[Fraction]:
    """[0..N] bracket symbols, [n] = w_{n-1} (w_n - w_{n-2}) / (L w_1) over w_i = L v_i.
    Raises if some [n], n >= 1, is not positive (then no orthonormal system)."""
    w = (0, *seq.nums)  # w[i + 1] = L v_i
    den = seq.den * w[2] if len(seq) > 1 else 1
    out = [Fraction(0)]
    for n in range(1, len(seq)):
        a = w[n] * (w[n + 1] - w[n - 1])
        if a <= 0:
            raise ValueError(f"bracket [{n}] = {Fraction(a, den)} is not positive; "
                             "no orthonormal system")
        out.append(Fraction(a, den))
    return out


def b_squares(seq: GoverningSequence, brackets: Sequence[Fraction]) -> list[Fraction]:
    """Squared recurrence coefficients, entry i = b_i^2 = b0^2 [i+1] for
    i = 0..N-1, from the sequence's brackets (bracket_table)."""
    p, q = seq.b0_squared.numerator, seq.b0_squared.denominator
    return [Fraction(p * b.numerator, q * b.denominator) for b in brackets[1:]]


def gamma_squares(seq: GoverningSequence, b2: Sequence[Fraction]) -> list[Fraction]:
    """Squared lowering factors, entry n = gamma_n^2 = v_{n-1}^2 / b_{n-1}^2
    for n = 1..N (entry 0 is 0), from the sequence's squared recurrence
    coefficients b2 (b_squares), over w_i = L v_i."""
    return [Fraction(0)] + [Fraction(a * a * b.denominator, seq.den**2 * b.numerator)
                            for a, b in zip(seq.nums, b2)]


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
    return True, seq.values[1:3]


def family_weight(seq: GoverningSequence) -> tuple[Fraction, Fraction] | None:
    """(gamma, alpha) of the weight C |x|^gamma exp(-alpha x^2) of a special-
    family sequence (v2 > 1 where its brackets are positive), else None."""
    if not is_special_family(seq)[0]:
        return None
    v2 = seq.values[2]
    return (3 - v2) / (v2 - 1), 1 / (seq.b0_squared * (v2 - 1))
