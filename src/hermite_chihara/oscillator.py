"""Ladder, position and number operators on the truncated basis psi_0..psi_{dim-1}.

Every operator is banded over the recurrence coefficients, so the float
realization holds only the off-diagonal b_0..b_{dim-2}:

    a-   psi_n = sqrt2 b_{n-1} psi_{n-1},   a+ = (a-)^T
    X    psi_n = b_{n-1} psi_{n-1} + b_n psi_{n+1}
    -iP  = sqrt2 a- - X     (real: upper band sqrt2 (sqrt2 b_n) - b_n, lower band -b_n)
    H    = a- a+ + a+ a-    (diagonal: (sqrt2 b_n)^2 + (sqrt2 b_{n-1})^2)

The creation operator maps the last basis vector out of the truncated space, so
the commutator and the spectrum are checked only on the interior rows
n < dim - MARGIN.  Their rows compare the band with its own b^2, so they can
differ only by rounding, which grows with the level lambda_n = (sqrt2 b_n)^2 +
(sqrt2 b_{n-1})^2; each row is judged against ROUNDING_BOUND eps lambda_n, and
the reports carry the largest deviation / (eps lambda_n), the figure it gates.
Square lowering is checked as an exact identity on the monic cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .systems import PolynomialSystem, _weight_floats

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "OperatorSet",
    "build_operators",
    "commutator_report",
    "spectrum_report",
    "square_lowering_report",
    "CommutatorReport",
    "SpectrumReport",
]

SQRT2 = math.sqrt(2.0)
# the truncation margin: the operator checks cover the interior rows n < dim - MARGIN
MARGIN = 4
# a row's rounding bound in units of eps lambda_n: measured rounding stays at
# or below 2.25 eps lambda_n, on levels from 2e-3 to 1.6e12 and up to dim 400
ROUNDING_BOUND = 8.0


@dataclass(frozen=True)
class OperatorSet:
    dim: int
    b: np.ndarray  # off-diagonal b_0..b_{dim-2}; every operator is a band of it

    def __post_init__(self):
        if self.dim <= MARGIN:
            raise ValueError(f"dim must be >= {MARGIN + 1}: the checks read n < dim - {MARGIN}")


def build_operators(sys: PolynomialSystem, dim: int = 40) -> OperatorSet:
    """Realize the operator set on the first dim basis vectors.  Needs the
    system built at least to n_max = dim (b_{dim-1}^2 uses v_dim)."""
    import numpy as np

    if sys.n_max < dim:
        raise ValueError(f"system built to n_max={sys.n_max}; need >= dim={dim}")
    return OperatorSet(dim=dim, b=np.array(sys.b_float[: dim - 1], dtype=float))


def _diagonals(ops: OperatorSet, sys: PolynomialSystem) -> tuple[int, np.ndarray, np.ndarray,
                                                                  np.ndarray, np.ndarray]:
    """The interior row count k = dim - MARGIN and, on the rows n < k, the
    diagonals of a- a+ and a+ a-, (sqrt2 b_n)^2 and (sqrt2 b_{n-1})^2, and of
    B(N+I) and B(N), b_n^2 and b_{n-1}^2, with b_{-1} = 0."""
    import numpy as np

    k = ops.dim - MARGIN
    s = SQRT2 * ops.b[:k]
    up = s * s
    shift = np.array(sys.b2_float[:k])
    return (k, up, np.concatenate(([0.0], up[:-1])),
            shift, np.concatenate(([0.0], shift[:-1])))


def _max_ratio(deviation: np.ndarray, lam: np.ndarray) -> float:
    """The largest deviation / (eps lambda_n) over the rows (lambda_n > 0, as
    b_0^2 > 0; eps is math.ulp(1.0)): the printed figure, and the one the
    verdict max_ratio <= ROUNDING_BOUND reads (NaN fails it)."""
    return float((deviation / lam).max()) / math.ulp(1.0)


@dataclass(frozen=True)
class CommutatorReport:
    max_deviation: float
    classical_deviation: float | None  # vs Wigner's (1 + gamma (-1)^n)/alpha for family systems
    within_rounding: bool  # max_ratio <= ROUNDING_BOUND: every row within its bound
    max_ratio: float  # the largest row deviation / (eps lambda_n)


def commutator_report(ops: OperatorSet, sys: PolynomialSystem) -> CommutatorReport:
    """[a-, a+] against 2(B(N+I) - B(N)) on interior indices; family systems
    are also compared with Wigner's deformed relation (I + gamma R)/alpha, R the
    parity (-1)^n.  Both sides are diagonal."""
    import numpy as np

    k, up, down, b2_shift, b2 = _diagonals(ops, sys)
    comm = up - down
    deviation = np.abs(comm - 2.0 * (b2_shift - b2))
    classical_dev = None
    if sys.is_family:
        g, a = _weight_floats(*sys.weight_parameters())
        wigner = np.where(np.arange(k) % 2, 1.0 - g, 1.0 + g) / a
        classical_dev = float(np.max(np.abs(comm - wigner)))
    ratio = _max_ratio(deviation, up + down)
    return CommutatorReport(
        max_deviation=float(np.max(deviation)), classical_deviation=classical_dev,
        within_rounding=ratio <= ROUNDING_BOUND, max_ratio=ratio,
    )


@dataclass(frozen=True)
class SpectrumReport:
    rows: list[tuple[int, float, float, float]]  # n, lambda from H, lambda formula, deviation
    max_deviation: float
    off_diagonal: float
    classical_deviation: float | None  # vs (2n + gamma + 1)/alpha for family systems
    within_rounding: bool  # max_ratio <= ROUNDING_BOUND: every row within its bound
    max_ratio: float  # the largest row deviation / (eps lambda_n)


def spectrum_report(ops: OperatorSet, sys: PolynomialSystem) -> SpectrumReport:
    """H psi_n = lambda_n psi_n with lambda_n = 2(b_{n-1}^2 + b_n^2), checked on
    interior indices; for family systems also against (2n + gamma + 1)/alpha.
    H is diagonal by its band structure, so off_diagonal is 0.0."""
    import numpy as np

    k, up, down, b2_shift, b2 = _diagonals(ops, sys)
    lam_matrix = up + down
    lam_formula = 2.0 * b2 + 2.0 * b2_shift
    deviation = np.abs(lam_matrix - lam_formula)
    rows = list(zip(range(k), lam_matrix.tolist(), lam_formula.tolist(), deviation.tolist()))
    classical_dev = None
    if sys.is_family:
        g, a = _weight_floats(*sys.weight_parameters())
        lam_cl = (2.0 * np.arange(k) + g + 1.0) / a
        classical_dev = float(np.max(np.abs(lam_matrix - lam_cl)))
    ratio = _max_ratio(deviation, lam_matrix)
    return SpectrumReport(
        rows=rows, max_deviation=float(np.max(deviation)), off_diagonal=0.0,
        classical_deviation=classical_dev, within_rounding=ratio <= ROUNDING_BOUND,
        max_ratio=ratio,
    )


def square_lowering_report(ops: OperatorSet, sys: PolynomialSystem) -> float:
    """Deviation of X d/dx - N = (a-)^2 / c1 on the columns 2 <= n < dim - MARGIN,
    checked exactly on the monic cores (PolynomialSystem.square_lowering_deviation):
    0.0 when every column holds.  Family only; dim MARGIN + 3 reads the first column."""
    if ops.dim - MARGIN <= 2:
        raise ValueError(f"dim must be >= {MARGIN + 3} for a column 2 <= n < dim - {MARGIN}")
    return sys.square_lowering_deviation(ops.dim - MARGIN - 1)

