"""The generalized Hermite weight C |x|^gamma exp(-alpha x^2), C formed in
MeasureSpec._floats, moments (two exact routes: closed form, Jacobi walk), Gram
matrices by adaptive quadrature of (w psi_i) psi_j in the mass variable u, x =
sign(u) |u|^m, which has no cusp at 0, and the Carleman determinacy heuristic.
gram_deviation takes any weight: the system's own (spec_for_system) or a mismatched one."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .governing import as_fraction, common_denominator
from .quadrature import integrate_split_at_zero
from .systems import FloatRangeError, PolynomialSystem, _weight_floats

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MeasureSpec",
    "moment_closed",
    "jacobi_moment",
    "spec_for_system",
    "OrthonormalityReport",
    "gram_deviation",
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

    def _floats(self) -> tuple[float, float, float]:
        """(C = 1/Gamma((gamma+1)/2), gamma, alpha); FloatRangeError where one has no float."""
        g, a = _weight_floats(self.gamma, self.alpha)
        try:
            return 1.0 / math.gamma((g + 1.0) / 2.0), g, a
        except (OverflowError, ValueError):  # ValueError: the pole at gamma's float -1
            raise FloatRangeError("Gamma((gamma+1)/2)") from None

    def weight(self, x: np.ndarray) -> np.ndarray:
        """C sqrt(alpha) |sqrt(alpha) x|^gamma exp(-alpha x^2), of unit mass with
        C = 1/Gamma((gamma+1)/2): on its scale 1/sqrt(alpha), no alpha^{(gamma+1)/2}
        is formed.  ValueError where an x is not finite; FloatRangeError when gamma,
        alpha or the Gamma value has no float, where a weight value overflows (or,
        after an overflow, is NaN), and at the pole x = 0 of a gamma < 0."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        c, g, a = self._floats()
        r = math.sqrt(a)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return c * r * np.abs(r * x) ** g * np.exp(-a * x * x)
        except FloatingPointError:
            raise FloatRangeError("weight value") from None


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
    """mu_k = (J^k)_{00} for the Jacobi matrix with off-diagonal b_i: a sum over
    the closed walks of k steps in the monic basis (x P_j = P_{j+1} + b_{j-1}^2
    P_{j-1}), which climb to height k/2 at most and read b_0^2..b_{k/2-1}^2 (by
    as_fraction: a float is a TypeError).  Fraction-free: over b_i^2 = B_i / L, L
    the common denominator, the amplitudes A_j = amp_j L^{(k-j)/2} are integers; an
    up-step adds A_j to A_{j+1}, a down-step A_j B_{j-1} to A_{j-1}, mu_k = A_0 / L^{k/2}."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    size = k // 2
    if len(b2) < size:
        raise ValueError(f"need at least {size} squared coefficients for k={k}")
    B, L = common_denominator(map(as_fraction, b2[:size]))
    amp = [1] + [0] * size
    for _ in range(k):
        amp = [(amp[j - 1] if j else 0) + (amp[j + 1] * B[j] if j < size else 0)
               for j in range(size + 1)]
    return Fraction(amp[0], L**size)


def spec_for_system(sys: PolynomialSystem) -> MeasureSpec:
    """Measure a family system is orthonormal against (its two-parameter weight)."""
    gamma, alpha = sys.weight_parameters()
    return MeasureSpec(gamma=gamma, alpha=alpha)


@dataclass(frozen=True)
class OrthonormalityReport:
    max_deviation: float
    deviation: np.ndarray  # |<psi_i, psi_j> - delta_ij|
    quadrature_error: float
    tolerance: float  # the quadrature's error target

    @property
    def converged(self) -> bool:
        """Whether the quadrature met its tolerance before its panel limit."""
        return self.quadrature_error <= self.tolerance


def _integration_radius(n_max: int, gamma: float, alpha: float) -> float:
    """The alpha = 1 radius on the weight's scale 1/sqrt(alpha), at every
    alpha: the panel layout does not depend on alpha.  At alpha = 1 it is the
    larger of max(10, 3 sqrt(n) + 5) and sqrt(t) + 3 t^{1/4} + 6, t = s + n
    with s = (gamma + 1)/2: the integrand's mass lies near x^2 = t, which a
    large gamma moves past the first.  The second never passes the |x| at which
    the weight's factor C sqrt(alpha) |sqrt(alpha) x|^gamma, formed before
    exp(-alpha x^2), reaches 2^1020: growing the radius for gamma makes no
    weight value overflow that the first radius left finite."""
    s = (gamma + 1.0) / 2.0
    t = s + n_max
    reach = math.sqrt(t) + 3.0 * t**0.25 + 6.0
    if gamma > 0:
        room = 1020.0 * math.log(2.0) - max(0.0, 0.5 * math.log(alpha) - math.lgamma(s))
        if gamma * math.log(reach) > room:  # room: log 2^1020 / max(1, C sqrt(alpha))
            reach = math.exp(room / gamma)
    return max(10.0, 3.0 * math.sqrt(max(n_max, 1)) + 5.0, reach) / math.sqrt(alpha)


def _gram_integrand(sys: PolynomialSystem, spec: MeasureSpec, n_max: int):
    """gram_deviation's integrand and radius in the mass variable u, x = sign(u) |u|^m,
    m = ceil(gamma+1)/(gamma+1), where |x|^gamma dx = m |u|^{ceil(gamma+1)-1} du has no cusp
    (m = 1.0, x = u at an integer gamma); for gamma < 0 the weight times dx/du is formed as
    the bounded C m alpha^{(gamma+1)/2} exp(-alpha x^2), as x = |u|^m may underflow to 0."""
    import numpy as np

    radius = _integration_radius(n_max, *_weight_floats(spec.gamma, spec.alpha))
    m = float(math.ceil(spec.gamma + 1) / (spec.gamma + 1))
    cusp = spec.gamma < 0

    def integrand(u):
        p = np.abs(u) ** (m - 1.0)
        x = u * p  # sign(u) |u|^m
        # row-major factors: a column-major table's product rounds differently on two BLAS threads
        table = sys.psi_eval_table(x, n_max)
        if cusp:
            c, g, a = spec._floats()
            w = c * m * math.sqrt(a) ** (g + 1.0) * np.exp(-a * x * x)
        else:
            w = spec.weight(x) * (m * p)
        return table * w[:, None], table

    return integrand, radius ** (1.0 / m)


def gram_deviation(
    sys: PolynomialSystem, spec: MeasureSpec, n_max: int, tol: float = 1e-11
) -> OrthonormalityReport:
    """Gram matrix of psi_0..psi_{n_max} against the weight, by adaptive panel
    quadrature split at the origin, in the mass variable (_gram_integrand), where
    no cusp is left to bisect toward; its factors (w psi_i) and psi_j, one
    psi_eval_table call per round of splits.  ValueError for an n_max outside
    [0, sys.n_max]; FloatRangeError when gamma, alpha or a b^2 has no float (in
    FLOAT_RANGE for alpha and b^2), or Gamma((gamma+1)/2) has none."""
    import numpy as np

    if n_max < 0:
        raise ValueError(f"n_max must be in [0, {sys.n_max}]; got {n_max}")
    if n_max > sys.n_max:
        raise ValueError(f"system built to n_max={sys.n_max}")
    gram, err = integrate_split_at_zero(*_gram_integrand(sys, spec, n_max), tol=tol)
    dev = np.abs(gram - np.eye(n_max + 1))
    return OrthonormalityReport(max_deviation=float(dev.max()), deviation=dev,
                                quadrature_error=float(err), tolerance=tol)


@dataclass(frozen=True)
class DeterminacyReport:
    partial_sum: float
    growth_exponent: float
    verdict: str  # "divergent (determinate)" | "inconclusive within horizon"

    EXPONENT_LIMIT = 1.05


def carleman_determinacy(b_values: Sequence[float]) -> DeterminacyReport:
    """Partial sums of sum 1/b_n plus a log-log growth fit of b_n.

    The sum diverges (and the moment problem is determinate) whenever
    b_n = O(n^p) with p <= 1; the verdict is an explicitly finite-horizon
    heuristic, never a convergence claim.  ValueError for fewer than 8
    coefficients or one that is not positive and finite.
    """
    import numpy as np

    b = [float(x) for x in b_values]
    if len(b) < 8:
        raise ValueError("need at least 8 coefficients for a meaningful fit")
    if not all(0 < x < math.inf for x in b):  # NaN fails both comparisons
        raise ValueError("recurrence coefficients must be positive and finite")
    partial = sum(1.0 / x for x in b)
    n0 = max(2, len(b) // 4)
    ns = np.arange(n0, len(b), dtype=float)
    logs = np.log(np.array(b[n0:]))
    slope, _ = np.polyfit(np.log(ns), logs, 1)
    verdict = ("divergent (determinate)" if slope <= DeterminacyReport.EXPONENT_LIMIT
               else "inconclusive within horizon")
    return DeterminacyReport(partial_sum=partial, growth_exponent=float(slope), verdict=verdict)
