"""The generalized Hermite weight C |x|^gamma exp(-alpha x^2): normalization,
moments (three independent routes), Gram matrices by adaptive quadrature of
the bilinear integrand (w psi_i) psi_j, and the Carleman determinacy
heuristic.  gram_deviation takes any weight (a mismatched one is a negative
control); orthonormality_check takes the system's own."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .governing import as_fraction
from .quadrature import integrate_split_at_zero
from .systems import PolynomialSystem

__all__ = [
    "MeasureSpec",
    "normalization",
    "moment_closed",
    "jacobi_moment",
    "spec_for_system",
    "OrthonormalityReport",
    "gram_deviation",
    "orthonormality_check",
    "DeterminacyReport",
    "carleman_determinacy",
]


@dataclass(frozen=True)
class MeasureSpec:
    """Weight parameters; gamma > -1 (exponent), alpha > 0 (Gaussian rate)."""

    gamma: Fraction
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_fraction(self.gamma))
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.gamma <= -1:
            raise ValueError("gamma must be > -1")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    def weight(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g, a = float(self.gamma), float(self.alpha)
        return normalization(g, a) * np.abs(x) ** g * np.exp(-a * x * x)


def normalization(gamma: float, alpha: float) -> float:
    """C with integral of C |x|^gamma exp(-alpha x^2) over R equal to 1:
    C = alpha^{(gamma+1)/2} / Gamma((gamma+1)/2)."""
    if gamma <= -1:
        raise ValueError("gamma must be > -1")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return alpha ** ((gamma + 1.0) / 2.0) / math.gamma((gamma + 1.0) / 2.0)


def moment_closed(spec: MeasureSpec, k: int) -> Fraction:
    """Exact moment: odd k vanish; mu_{2n} = alpha^{-n} prod_{j<n} ((gamma+1)/2 + j).

    The rising product is Gamma(n + (gamma+1)/2) / Gamma((gamma+1)/2) with the
    Gamma ratio cleared, so the value is rational for rational parameters.
    """
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if k % 2 == 1:
        return Fraction(0)
    n = k // 2
    s = (spec.gamma + 1) / 2
    acc = Fraction(1)
    for j in range(n):
        acc *= s + j
    return acc / spec.alpha**n


def jacobi_moment(b2: Sequence[Fraction], k: int) -> Fraction:
    """mu_k = (J^k)_{00} for the Jacobi matrix with off-diagonal b_i, computed
    exactly as a closed-walk sum in the monic basis (x P_j = P_{j+1} +
    b_{j-1}^2 P_{j-1}), which keeps every amplitude rational."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    size = k // 2 + 1
    if len(b2) < size:
        raise ValueError(f"need at least {size} squared coefficients for k={k}")
    amp = [Fraction(0)] * (size + 1)
    amp[0] = Fraction(1)
    for _ in range(k):
        nxt = [Fraction(0)] * (size + 1)
        for j in range(size):
            if amp[j] == 0:
                continue
            if j + 1 <= size:
                nxt[j + 1] += amp[j]
            if j >= 1:
                nxt[j - 1] += amp[j] * b2[j - 1]
        amp = nxt
    return amp[0]


def spec_for_system(sys: PolynomialSystem) -> MeasureSpec:
    """Measure a family system is orthonormal against (its two-parameter weight)."""
    gamma, alpha = sys.weight_parameters()
    return MeasureSpec(gamma=gamma, alpha=alpha)


@dataclass(frozen=True)
class OrthonormalityReport:
    n_max: int
    max_deviation: float
    deviation: np.ndarray  # |<psi_i, psi_j> - delta_ij|
    quadrature_error: float
    tolerance: float  # the quadrature's error target

    @property
    def converged(self) -> bool:
        """Whether the quadrature met its tolerance before its panel limit."""
        return self.quadrature_error <= self.tolerance


def _integration_radius(n_max: int, alpha: float) -> float:
    """The weight's width is about 1/sqrt(alpha): above alpha = 1 the radius
    is the alpha = 1 radius on that scale, so a narrow weight is not lost
    between the nodes of a panel 10 wide."""
    n = max(n_max, 1)
    unit = max(10.0, 3.0 * math.sqrt(n) + 5.0)
    return min(max(10.0, 3.0 * math.sqrt(n / alpha) + 5.0), unit / math.sqrt(alpha))


def gram_deviation(
    sys: PolynomialSystem, spec: MeasureSpec, n_max: int, tol: float = 1e-11
) -> OrthonormalityReport:
    """Gram matrix of psi_0..psi_{n_max} against the weight, by adaptive
    panel quadrature split at the origin.  The integrand is bilinear: its
    factors are the weighted table (w psi_i) and the table (psi_j) at a
    panel's nodes, one psi_eval_table call per panel, and the quadrature
    contracts them into the d x d block directly."""
    if n_max > sys.n_max:
        raise ValueError(f"system built to n_max={sys.n_max}")

    def integrand(x):
        table = sys.psi_eval_table(x, n_max)
        return table * spec.weight(x)[:, None], table

    radius = _integration_radius(n_max, float(spec.alpha))
    gram, err = integrate_split_at_zero(integrand, radius, tol=tol)
    dev = np.abs(gram - np.eye(n_max + 1))
    return OrthonormalityReport(
        n_max=n_max,
        max_deviation=float(dev.max()),
        deviation=dev,
        quadrature_error=float(err),
        tolerance=tol,
    )


def orthonormality_check(sys: PolynomialSystem, n_max: int) -> OrthonormalityReport:
    """Gram deviation report of psi_0..psi_{n_max} against the weight of the
    family system sys (spec_for_system)."""
    return gram_deviation(sys, spec_for_system(sys), n_max)


@dataclass(frozen=True)
class DeterminacyReport:
    n_terms: int
    partial_sum: float
    growth_exponent: float
    verdict: str  # "divergent (determinate)" | "inconclusive within horizon"

    EXPONENT_LIMIT = 1.05


def carleman_determinacy(b_values: Sequence[float]) -> DeterminacyReport:
    """Partial sums of sum 1/b_n plus a log-log growth fit of b_n.

    The sum diverges (and the moment problem is determinate) whenever
    b_n = O(n^p) with p <= 1; the verdict is an explicitly finite-horizon
    heuristic, never a convergence claim.
    """
    b = [float(x) for x in b_values]
    if len(b) < 8:
        raise ValueError("need at least 8 coefficients for a meaningful fit")
    if any(x <= 0 for x in b):
        raise ValueError("recurrence coefficients must be positive")
    partial = sum(1.0 / x for x in b)
    n0 = max(2, len(b) // 4)
    ns = np.arange(n0, len(b), dtype=float)
    logs = np.log(np.array(b[n0:]))
    slope, _ = np.polyfit(np.log(ns), logs, 1)
    verdict = (
        "divergent (determinate)"
        if slope <= DeterminacyReport.EXPONENT_LIMIT
        else "inconclusive within horizon"
    )
    return DeterminacyReport(
        n_terms=len(b), partial_sum=partial, growth_exponent=float(slope), verdict=verdict
    )
