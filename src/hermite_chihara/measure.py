"""The generalized Hermite weight C |x|^gamma exp(-alpha x^2), C = 1/Gamma((gamma+1)/2), held
as its exact (gamma, alpha) (MeasureSpec), moments (two exact routes: closed form, Jacobi walk),
Gram matrices by adaptive quadrature of (s psi_i)(s psi_j), s^2 the weight times dx/du and the
weight's one float form, over x >= 0 in two parity blocks (psi_n has the parity of n and the
weight is even, so an entry with i + j odd is 0) in the mass variable u, x = u^M, which has no
cusp at 0 and, for most rational gamma, leaves an entire integrand, and the Carleman determinacy
heuristic.  gram_deviation takes any weight: the system's (spec_for_system) or a mismatched one."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .governing import as_fraction, common_denominator
from .quadrature import integrate_split_at_zero
from .systems import FLOAT_RANGE, FloatRangeError, PolynomialSystem, _weight_floats

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


# the largest M that _mass_exponent takes as the least M with 2M and M(gamma+1) integers:
# at M = 11/2..8, on 36 of the 70 such gamma = p/q in (-1, 4] with q <= 12, the entire
# integrand's degree in u took a third table at n = 12 where ceil(gamma+1)/(gamma+1) took two
MAX_MASS_EXPONENT = 5


def _integration_radius(n_max: int, gamma: float, alpha: float) -> float:
    """psi_{n_max}'s turning point alpha x^2 = t = 2 n_max + gamma + 1 and a margin of 6 Airy
    scales t^{-1/6} and 3, on the weight's scale 1/sqrt(alpha), so the panel layout does not
    depend on alpha: past it every weighted function s psi_n decays faster than a Gaussian."""
    t = 2.0 * n_max + gamma + 1.0
    return (math.sqrt(t) + 6.0 * t ** (-1.0 / 6.0) + 3.0) / math.sqrt(alpha)


def _log_gamma_at_peak(h: float, d: float) -> float:
    """lgamma(h + d) - (h log h - h), 0 < d <= 1/2: from h + d = 10 on by Stirling's series,
    whose terms are all small, where lgamma alone would round away digits the difference keeps."""
    s = h + d
    if s < 10.0:
        return math.lgamma(s) - (h * math.log(h) - h if h else 0.0)
    r, series = 1.0 / (s * s), 0.0
    for coeff in (-691.0 / 360360.0, 1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0):
        series = r * (coeff + series)
    return ((d - 0.5) * math.log(s) + 0.5 * math.log(2.0 * math.pi) - d
            + (1.0 / 12.0 + series) / s - h * math.log1p(-d / s))


def _mass_exponent(gamma: Fraction) -> Fraction:
    """M of the Gram's mass variable u, x = u^M.  At gamma = p/q, not an integer, the least
    M >= 1 at which 2M and M(gamma+1) are integers, q / gcd(p + q, 2q), while it is at most
    MAX_MASS_EXPONENT; above it, ceil(gamma+1)/(gamma+1), at which M(gamma+1) alone is an
    integer.  1 at an integer gamma."""
    p, q = gamma.numerator, gamma.denominator
    if q == 1:
        return Fraction(1)
    mass = Fraction(q, math.gcd(p + q, 2 * q))
    return mass if mass <= MAX_MASS_EXPONENT else math.ceil(gamma + 1) / (gamma + 1)


def _gram_integrand(sys: PolynomialSystem, spec: MeasureSpec, n_max: int):
    """gram_deviation's integrand over t in [-T, T], and T: the half-line u = (t + T)/2
    in [0, T] of the mass variable, x = u^M (_mass_exponent), where |x|^gamma dx =
    M u^{K-1} du, K = M(gamma+1) an integer: no cusp is left at u = 0, and where 2M is an
    integer too, x^2 = u^{2M} and each block's integrand is a polynomial in u times
    exp(-alpha u^{2M}), which is entire.  dt = 2 du doubles the half-line to the whole line
    (psi_n has n's parity, the weight is even).  Both factors are phi_n = s psi_n, s^2 the
    weight times dx/du, in two parity blocks on a leading axis, each of floor(n_max/2) + 1
    columns (the odd block's last one 0 at an even n_max), from one psi_eval_table call from
    row 0 = s.  On the weight's scale z = alpha^{1/(2M)} u, s^2 = C M alpha^{1/(2M)} z^{K-1}
    exp(-z^{2M}), formed in logs about its peak z^{2M} = h = (K-1)/(2M) (or 1) so that no large
    log cancels (_log_gamma_at_peak), with z^{2M} = alpha x^2: no Gamma value, alpha power or
    |x|^gamma is formed.  FloatRangeError before the first table where s at the radius is not
    a normal float ("weight value"; Hermite from n = 537) or gamma's float is -1."""
    import numpy as np

    g, a = _weight_floats(spec.gamma, spec.alpha)
    if g <= -1.0:  # gamma within about 1e-16 of -1: (gamma+1)/2 has no float
        raise FloatRangeError("Gamma((gamma+1)/2)")
    mass = _mass_exponent(spec.gamma)
    m, h = float(mass), float((mass * (spec.gamma + 1) - 1) / (2 * mass))
    mid = h or 1.0
    c = math.log(m) - _log_gamma_at_peak(h, 0.5 / m) - (mid - h)
    root = a ** (0.25 / m)  # s = root exp(log_s(z^{2M}))
    radius = _integration_radius(n_max, g, a)

    def log_s(zz):  # log(zz / mid) = -inf at zz = 0, and at K = 1 it is not read
        return 0.5 * (c + (h * np.log(zz / mid) if h else 0.0) - (zz - mid))

    low, high = map(math.log, FLOAT_RANGE)
    if not low <= log_s(a * radius * radius) + math.log(root) <= high:
        raise FloatRangeError("weight value")
    t_max, cols, odd = radius ** (1.0 / m), n_max // 2 + 1, (n_max + 1) // 2

    def integrand(t):
        x = (0.5 * (t + t_max)) ** m
        with np.errstate(divide="ignore"):  # x = 0: s = 0 at K > 1
            s = np.exp(log_s(a * x * x)) * root
        table = sys.psi_eval_table(x, n_max, s)
        # row-major factors: a column-major table's product rounds differently on two BLAS threads
        phi = np.zeros((2, x.size, cols))
        phi[0] = table[:, ::2]
        phi[1, :, :odd] = table[:, 1::2]
        return phi, phi

    return integrand, t_max


def gram_deviation(
    sys: PolynomialSystem, spec: MeasureSpec, n_max: int, tol: float = 1e-11
) -> OrthonormalityReport:
    """Gram matrix of psi_0..psi_{n_max} against the weight, by adaptive panel quadrature
    of x >= 0 in the mass variable (_gram_integrand), where no cusp is left to bisect
    toward: psi_n has the parity of n and the weight is even, so an entry with i + j odd
    is 0, and the quadrature integrates the two parity blocks alone, which fill the others.
    Both factors are the weighted functions s psi_i, one psi_eval_table call per round of
    splits.  ValueError for an n_max outside [0, sys.n_max]; FloatRangeError when gamma,
    alpha or a b^2 has no float (in FLOAT_RANGE for alpha and b^2), gamma's float is -1, or
    s at the integration radius is not a normal float (_gram_integrand)."""
    import numpy as np

    if n_max < 0:
        raise ValueError(f"n_max must be in [0, {sys.n_max}]; got {n_max}")
    if n_max > sys.n_max:
        raise ValueError(f"system built to n_max={sys.n_max}")
    blocks, err = integrate_split_at_zero(*_gram_integrand(sys, spec, n_max), tol=tol)
    odd = (n_max + 1) // 2
    gram = np.zeros((n_max + 1, n_max + 1))
    gram[::2, ::2] = blocks[0]
    gram[1::2, 1::2] = blocks[1, :odd, :odd]
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
