"""Adaptive Gauss-Kronrod (G7/K15) panel integration.

The integrand may be vector valued: f(x) with x an array of nodes must return
shape (len(x),) or (len(x), d).  Panels are bisected greedily by estimated
error; the error estimate |K15 - G7| is conservative for smooth integrands,
which is what drives the splitting toward weight-function cusps.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

__all__ = ["integrate_adaptive", "integrate_split_at_zero"]

# 15-point Kronrod abscissae (positive half) and weights, 7-point Gauss weights
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[7:], _XGK[6::-1]])  # ascending, 15 nodes
_WK = np.concatenate([_WGK[:7], _WGK[7:], _WGK[6::-1]])
_WGAUSS = np.zeros(15)
_WGAUSS[1:14:2] = np.concatenate([_WG[:3], _WG[3:], _WG[2::-1]])


def _panel(f: Callable, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    k15 = half * (_WK @ y)
    g7 = half * (_WGAUSS @ y)
    err = float(np.max(np.abs(k15 - g7)))
    return k15, err


def integrate_adaptive(
    f: Callable,
    breakpoints: list[float],
    tol: float = 1e-10,
    max_panels: int = 4000,
):
    """Integrate f over [breakpoints[0], breakpoints[-1]] with initial panels
    between consecutive breakpoints.  Returns (integral, error_estimate); the
    integral is a scalar for scalar integrands, an array of length d otherwise.
    """
    if len(breakpoints) < 2:
        raise ValueError("need at least two breakpoints")
    heap = []
    counter = 0
    total = None
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        val, err = _panel(f, a, b)
        total = val if total is None else total + val
        heapq.heappush(heap, (-err, counter, a, b, val))
        counter += 1
    # A running error total keeps each split O(log panels).  It drifts by
    # rounding, so it is re-anchored on a fresh sum over the heap whenever it
    # has halved since the last anchor, and only a fresh sum may end the loop.
    total_err = anchor = _heap_error(heap)
    while total_err > tol and len(heap) < max_panels:
        neg_err, _, a, b, val = heapq.heappop(heap)
        if -neg_err <= 0.0:
            heapq.heappush(heap, (neg_err, counter, a, b, val))
            break
        mid = 0.5 * (a + b)
        v1, e1 = _panel(f, a, mid)
        v2, e2 = _panel(f, mid, b)
        total = total - val + v1 + v2
        heapq.heappush(heap, (-e1, counter, a, mid, v1)); counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2)); counter += 1
        total_err += neg_err + e1 + e2
        if total_err <= tol or total_err <= 0.5 * anchor:
            total_err = anchor = _heap_error(heap)
    result = total[0] if total.shape == (1,) else total
    return result, _heap_error(heap)


def _heap_error(heap) -> float:
    """Sum of the panel error estimates, recomputed from the heap."""
    return -sum(item[0] for item in heap)


def integrate_split_at_zero(f: Callable, radius: float, tol: float = 1e-10):
    """Integrate over [-R, R] with an initial split at 0 (weight cusp)."""
    return integrate_adaptive(f, [-radius, 0.0, radius], tol=tol)
