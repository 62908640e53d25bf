"""Ladder, position and number operators on the truncated basis psi_0..psi_{dim-1}.

Every operator is banded over the recurrence coefficients, so the float
realization holds only the off-diagonal b_0..b_{dim-2}:

    a-   psi_n = sqrt2 b_{n-1} psi_{n-1},   a+ = (a-)^T
    X    psi_n = b_{n-1} psi_{n-1} + b_n psi_{n+1}
    -iP  = sqrt2 a- - X     (real: upper band sqrt2 (sqrt2 b_n) - b_n, lower band -b_n)
    H    = a- a+ + a+ a-    (diagonal: (sqrt2 b_n)^2 + (sqrt2 b_{n-1})^2)

The creation operator maps the last basis vector out of the truncated space, so
the commutator, the spectrum and the mixed form of H are checked only on the
interior rows n < dim - margin.  Square lowering is checked as an exact
identity on the monic cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import PolynomialSystem, UnsupportedSystemError, _over_sqrt

__all__ = [
    "OperatorSet",
    "build_operators",
    "commutator_report",
    "spectrum_report",
    "square_lowering_report",
    "hamiltonian_mixed_form_deviation",
    "CommutatorReport",
    "SpectrumReport",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class OperatorSet:
    dim: int
    b: np.ndarray  # off-diagonal b_0..b_{dim-2}; every operator is a band of it


def build_operators(sys: PolynomialSystem, dim: int = 40) -> OperatorSet:
    """Realize the operator set on the first dim basis vectors.  Needs the
    system built at least to n_max = dim (b_{dim-1}^2 uses v_dim)."""
    if dim < 3:
        raise ValueError("dim must be >= 3")
    if sys.n_max < dim:
        raise ValueError(f"system built to n_max={sys.n_max}; need >= dim={dim}")
    return OperatorSet(dim=dim, b=np.array(sys.b_float[: dim - 1], dtype=float))


def _interior_rows(ops: OperatorSet, margin: int) -> int:
    """The count k of interior rows n < dim - margin."""
    if not 1 <= margin < ops.dim:
        raise ValueError(f"interior_margin must be in [1, {ops.dim - 1}] for dim {ops.dim}")
    return ops.dim - margin


def _ladder_diagonals(ops: OperatorSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of a- a+ and a+ a- on rows n < k: (sqrt2 b_n)^2 and
    (sqrt2 b_{n-1})^2, with b_{-1} = 0."""
    s = SQRT2 * ops.b[:k]
    up = s * s
    return up, np.concatenate(([0.0], up[:-1]))


def _b2_diagonals(sys: PolynomialSystem, k: int) -> tuple[np.ndarray, np.ndarray]:
    """B(N+I) and B(N) on rows n < k: b_n^2 and b_{n-1}^2, with b_{-1} = 0."""
    shift = np.array([float(x) for x in sys.b2[:k]])
    return shift, np.concatenate(([0.0], shift[:-1]))


@dataclass(frozen=True)
class CommutatorReport:
    max_deviation: float
    classical_deviation: float | None  # vs (gamma+1) I - 2 Theta, alpha = 1 systems


def commutator_report(
    ops: OperatorSet, sys: PolynomialSystem, interior_margin: int = 4
) -> CommutatorReport:
    """[a-, a+] against 2(B(N+I) - B(N)) on interior indices; classical
    systems (alpha = 1) are additionally compared with (gamma+1) I - 2 Theta,
    Theta = 2 B(N) - N.  Both sides are diagonal."""
    k = _interior_rows(ops, interior_margin)
    up, down = _ladder_diagonals(ops, k)
    comm = up - down
    b2_shift, b2 = _b2_diagonals(sys, k)
    dev = float(np.max(np.abs(comm - 2.0 * (b2_shift - b2))))
    classical_dev = None
    if sys.is_family:
        gamma, alpha = sys.weight_parameters()
        if alpha == 1:
            theta = 2.0 * b2 - np.arange(k)
            classical_dev = float(np.max(np.abs(comm - ((float(gamma) + 1.0) - 2.0 * theta))))
    return CommutatorReport(max_deviation=dev, classical_deviation=classical_dev)


@dataclass(frozen=True)
class SpectrumReport:
    rows: list[tuple[int, float, float, float]]  # n, lambda from H, lambda formula, deviation
    max_deviation: float
    off_diagonal: float
    classical_deviation: float | None  # vs (2n + gamma + 1)/alpha for family systems


def spectrum_report(
    ops: OperatorSet, sys: PolynomialSystem, interior_margin: int = 4
) -> SpectrumReport:
    """H psi_n = lambda_n psi_n with lambda_n = 2(b_{n-1}^2 + b_n^2), checked on
    interior indices; for family systems also against (2n + gamma + 1)/alpha.
    H is diagonal by its band structure, so off_diagonal is 0.0."""
    k = _interior_rows(ops, interior_margin)
    up, down = _ladder_diagonals(ops, k)
    lam_matrix = up + down
    b2_shift, b2 = _b2_diagonals(sys, k)
    lam_formula = 2.0 * b2 + 2.0 * b2_shift
    deviation = np.abs(lam_matrix - lam_formula)
    rows = [
        (n, float(lam_matrix[n]), float(lam_formula[n]), float(deviation[n])) for n in range(k)
    ]
    classical_dev = None
    if sys.is_family:
        gamma, alpha = sys.weight_parameters()
        lam_cl = np.array([(2.0 * n + float(gamma) + 1.0) / float(alpha) for n in range(k)])
        classical_dev = float(np.max(np.abs(lam_matrix - lam_cl)))
    return SpectrumReport(
        rows=rows, max_deviation=float(np.max(deviation)), off_diagonal=0.0,
        classical_deviation=classical_dev,
    )


def square_lowering_report(
    ops: OperatorSet, sys: PolynomialSystem, interior_margin: int = 4
) -> float:
    """Deviation of X d/dx - N = (a-)^2 / c1, c1 = b0^2 (v2 - 1), on the
    columns 2 <= n < dim - margin.  On the monic cores it reads

        x P_n' - n P_n = (2 b_{n-1}^2 b_{n-2}^2 / c1) P_{n-2},

    checked exactly: 0.0 when every column holds, else the largest residual
    coefficient in units of psi_n.  Family systems only."""
    if not sys.is_family:
        raise UnsupportedSystemError("square-lowering identity holds for family systems")
    k = _interior_rows(ops, interior_margin)
    c1 = sys.seq.b0_squared * (sys.values[2] - 1)
    worst = 0.0
    for n in range(2, k):
        p = sys.monic[n]
        lowered = sys.monic[n - 2].scale(2 * sys.b2[n - 1] * sys.b2[n - 2] / c1)
        residual = p.derivative().shift(1) - p.scale(n) - lowered
        worst = max(worst, _over_sqrt(residual.max_abs_coeff(), sys.norm2[n]))
    return worst


def hamiltonian_mixed_form_deviation(ops: OperatorSet, interior_margin: int = 4) -> float:
    """Max interior deviation of H = X^2 + P^2 realized over the reals as
    H = X^2 - (-iP)^2.  Both squares are pentadiagonal: their first
    off-diagonals vanish, and so does the lower second off-diagonal of the
    difference (both give b_n b_{n+1} there), which leaves the diagonal and
    the upper second off-diagonal."""
    k = _interior_rows(ops, interior_margin)
    b = ops.b[:k]
    p = SQRT2 * (SQRT2 * b) - b  # upper band of -iP
    pair = b * b + b * p  # what rows n and n+1 each take from the pair (n, n+1)
    diag = pair + np.concatenate(([0.0], pair[:-1]))
    up, down = _ladder_diagonals(ops, k)
    second = (b[:-1] * b[1:] - p[:-1] * p[1:])[: k - 2]  # entries (n, n+2), n + 2 < k
    return float(max(np.max(np.abs(up + down - diag)), np.max(np.abs(second), initial=0.0)))
