"""Governing sequences and the coefficient data they induce.

A governing sequence is a finite prefix (v_0, ..., v_N) of positive rationals
with v_0 = 1, together with the scale b0 of the first recurrence coefficient
(stored squared, so everything downstream stays rational).  From it the module
derives the bracket symbols

    [0] = 0,  [1] = 1,  [n] = v_{n-1} (v_n - v_{n-2}) / v_1,

the squared recurrence coefficients b_{n-1}^2 = b0^2 [n], and the squared
lowering factors gamma_n^2 = v_{n-1}^2 / b_{n-1}^2.  All arithmetic is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    "recurrence_squares",
    "gamma_squares",
    "is_special_family",
]

DEFAULT_N = 64


class ConstructionError(ValueError):
    """A constructor produced a sequence violating its contract."""


def as_fraction(x) -> Fraction:
    """Coerce int/str/Fraction to Fraction; reject floats (exactness)."""
    if isinstance(x, float):
        raise TypeError(f"expected exact rational, got float {x!r}")
    return Fraction(x)


def common_denominator(fracs: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integers nums and den > 0 with fracs[i] = nums[i] / den, den the lcm of
    the denominators."""
    fracs = list(fracs)
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


@dataclass(frozen=True)
class GoverningSequence:
    """Finite prefix of a governing sequence plus the b0 scale (squared)."""

    values: tuple[Fraction, ...]
    b0_squared: Fraction

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        object.__setattr__(self, "b0_squared", as_fraction(self.b0_squared))
        if not self.values:
            raise ValueError("governing sequence is empty")
        if self.values[0] != 1:
            raise ValueError(f"v_0 must be 1, got {self.values[0]}")
        if any(v <= 0 for v in self.values):
            raise ValueError("governing sequence values must be strictly positive")
        if self.b0_squared <= 0:
            raise ValueError("b0_squared must be positive")

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "GoverningSequence":
        return cls(
            values=tuple(Fraction(s) for s in data["values"]),
            b0_squared=Fraction(data["b0_squared"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "GoverningSequence":
        return cls.from_json_dict(json.loads(text))


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
    """
    if len(seq) < 3:
        raise ValueError("validate needs at least 3 sequence entries")
    # both conditions are homogeneous (the identity of degree 2), so they are
    # checked on the integers L v_i, with L the common denominator
    w, _ = common_denominator(seq.values)
    v = w + [0]  # v[-1] = 0 stands for v_{-1}
    monotone = all(a <= b for a, b in zip(w, w[1:]))
    first = None
    for n in range(2, len(seq)):
        for p in range(1, n // 2 + 1):
            lhs = v[n - 2] * v[2 * p - 1] + v[2 * p - 3] * v[n - 2 * p]
            rhs = v[n] * v[2 * p - 3] + v[2 * p - 1] * v[n - 2 * p]
            if lhs != rhs:
                first = (n, p)
                break
        if first is not None:
            break
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
    values = [Fraction(1)]
    for n in range(1, N + 1):
        values.append(comb(n + 1, 2) * v1 - n * n + 1)
    _require_admissible(values, "seq_order2")
    return GoverningSequence(tuple(values), as_fraction(b0_squared))


def seq_order3(v1, v2, N: int = DEFAULT_N, b0_squared=Fraction(1, 2)) -> GoverningSequence:
    """Two-parameter order-3 family; v_1 is taken verbatim, n >= 2 from the
    cubic binomial formula."""
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


def seq_classical(gamma, N: int = DEFAULT_N) -> GoverningSequence:
    """Sequence of the classical weight |x|^gamma exp(-x^2):

        v_n = (gamma+n+1)/(gamma+1)  (n even),   (n+1)/(gamma+1)  (n odd),

    with b0^2 = (gamma+1)/2.  Not monotone for gamma > 1, but compatible.
    """
    gamma = as_fraction(gamma)
    if gamma <= -1:
        raise ValueError("gamma must be > -1")
    values = tuple(
        (gamma + n + 1) / (gamma + 1) if n % 2 == 0 else Fraction(n + 1) / (gamma + 1)
        for n in range(N + 1)
    )
    return GoverningSequence(values, (gamma + 1) / 2)


def seq_family(v1, v2, b0_squared=Fraction(1), N: int = DEFAULT_N) -> GoverningSequence:
    """Two-parameter special family: v_{2p+1} = (p+1) v1, v_{2m} = m v2 - (m-1).

    The lower bound on v1 is relaxed to v1 > 0 (the classical systems with
    gamma > 1 sit at v1 = 2/(gamma+1) < 1).  b0 enters only as a scale.
    """
    v1, v2 = as_fraction(v1), as_fraction(v2)
    if not 0 < v1 <= v2:
        raise ValueError("need 0 < v1 <= v2")
    values = tuple(
        (n // 2 + 1) * v1 if n % 2 == 1 else (n // 2) * v2 - (n // 2 - 1)
        for n in range(N + 1)
    )
    return GoverningSequence(values, as_fraction(b0_squared))


def _require_admissible(values: Sequence[Fraction], name: str) -> None:
    for i in range(len(values) - 1):
        if values[i] <= 0 or values[i] > values[i + 1]:
            raise ConstructionError(
                f"{name}: result not positive nondecreasing at index {i}: "
                f"{values[i]} -> {values[i + 1]}"
            )


def bracket_table(seq: GoverningSequence) -> list[Fraction]:
    """[0..N] bracket symbols.  Raises if some [n], n >= 1, is not positive
    (the sequence then generates no orthonormal system)."""
    v = seq.value
    out = [Fraction(0), Fraction(1)]
    for n in range(2, len(seq)):
        br = v(n - 1) * (v(n) - v(n - 2)) / v(1)
        if br <= 0:
            raise ValueError(f"bracket [{n}] = {br} is not positive; no orthonormal system")
        out.append(br)
    if len(seq) == 1:
        return out[:1]
    return out


def recurrence_squares(seq: GoverningSequence) -> list[Fraction]:
    """Squared recurrence coefficients: entry i is b_i^2 = b0^2 [i+1], i = 0..N-1."""
    brackets = bracket_table(seq)
    return [seq.b0_squared * brackets[n] for n in range(1, len(seq))]


def gamma_squares(seq: GoverningSequence) -> list[Fraction]:
    """Squared lowering factors, entry n = gamma_n^2 for n = 1..N (entry 0 is 0).

    Both closed forms are evaluated -- v1 v_{n-1} / (b0^2 (v_n - v_{n-2})) and
    v_{n-1}^2 / b_{n-1}^2 -- and must agree exactly.
    """
    v = seq.value
    b2 = recurrence_squares(seq)
    out = [Fraction(0)]
    for n in range(1, len(seq)):
        direct = v(1) * v(n - 1) / (seq.b0_squared * (v(n) - v(n - 2)))
        via_b = v(n - 1) ** 2 / b2[n - 1]
        if direct != via_b:
            raise RuntimeError(f"gamma_n^2 formulas disagree at n={n}: {direct} != {via_b}")
        out.append(direct)
    return out


def is_special_family(seq: GoverningSequence) -> tuple[bool, tuple[Fraction, Fraction] | None]:
    """Whether the stored prefix obeys v_{2p+1} = (p+1) v1 and
    v_{2m} = m v2 - (m-1) exactly; returns the recovered (v1, v2) when it does."""
    if len(seq) < 3:
        raise ValueError("need at least 3 entries to decide the family shape")
    v1 = seq.values[1]
    v2 = seq.values[2]
    for n in range(len(seq)):
        if n % 2 == 1:
            expect = (n // 2 + 1) * v1
        else:
            expect = (n // 2) * v2 - (n // 2 - 1)
        if seq.values[n] != expect:
            return False, None
    return True, (v1, v2)
