"""Adaptive Gauss-Kronrod (G30/K61) panel integration of bilinear integrands.

The integrand is given by two factors: f(x), with x the 61 nodes of a panel,
returns a pair (u, v) of shapes (61, p) and (61, q), and the integral is the
p x q block of integrals of u_i v_j.  A Gram matrix is one such block, with
u = (weight * psi) and v = psi; a plain vector integrand y is the pair
(y, a column of ones).  Each panel applies both rules to the nodewise outer
products in one matrix product, so the 61 x p x q products are never formed.
The panel with the largest estimated error is bisected, and the error total
is re-summed over the panels after each split; the error estimate
max |K61 - G30| over the block is conservative for smooth integrands, which
is what drives the splitting toward weight-function cusps.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

__all__ = ["MAX_PANELS", "integrate_split_at_zero"]

MAX_PANELS = 4000  # the panel count at which the bisection stops short of tol

# QUADPACK dqk61 tables (Piessens et al., 1983): the 31 non-negative
# abscissae of the 61-point Kronrod rule, descending, with the 30-point Gauss
# abscissae at odd positions; the Kronrod weights of those abscissae; the
# Gauss weights of _XGK[1], _XGK[3], ..., _XGK[29]
_XGK = np.array([
    0.999484410050490637571325895705811,
    0.996893484074649540271630050918695,
    0.991630996870404594858628366109486,
    0.983668123279747209970032581605663,
    0.973116322501126268374693868423707,
    0.960021864968307512216871025581798,
    0.944374444748559979415831324037439,
    0.926200047429274325879324277080474,
    0.905573307699907798546522558925958,
    0.882560535792052681543116462530226,
    0.857205233546061098958658510658944,
    0.829565762382768397442898119732502,
    0.799727835821839083013668942322683,
    0.767777432104826194917977340974503,
    0.733790062453226804726171131369528,
    0.697850494793315796932292388026640,
    0.660061064126626961370053668149271,
    0.620526182989242861140477556431189,
    0.579345235826361691756024932172540,
    0.536624148142019899264169793311073,
    0.492480467861778574993693061207709,
    0.447033769538089176780609900322854,
    0.400401254830394392535476211542661,
    0.352704725530878113471037207089374,
    0.304073202273625077372677107199257,
    0.254636926167889846439805129817805,
    0.204525116682309891438957671002025,
    0.153869913608583546963794672743256,
    0.102806937966737030147096751318001,
    0.051471842555317695833025213166723,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.001389013698677007624551591226760,
    0.003890461127099884051267201844516,
    0.006630703915931292173319826369750,
    0.009273279659517763428441146892024,
    0.011823015253496341742232898853251,
    0.014369729507045804812451432443580,
    0.016920889189053272627572289420322,
    0.019414141193942381173408951050128,
    0.021828035821609192297167485738339,
    0.024191162078080601365686370725232,
    0.026509954882333101610601709335075,
    0.028754048765041292843978785354334,
    0.030907257562387762472884252943092,
    0.032981447057483726031814191016854,
    0.034979338028060024137499670731468,
    0.036882364651821229223911065617136,
    0.038678945624727592950348651532281,
    0.040374538951535959111995279752468,
    0.041969810215164246147147541285970,
    0.043452539701356069316831728117073,
    0.044814800133162663192355551616723,
    0.046059238271006988116271735559374,
    0.047185546569299153945261478181099,
    0.048185861757087129140779492298305,
    0.049055434555029778887528165367238,
    0.049795683427074206357811569379942,
    0.050405921402782346840893085653585,
    0.050881795898749606492297473049805,
    0.051221547849258772170656282604944,
    0.051426128537459025933862879215781,
    0.051494729429451567558340433647099,
])
_WG = np.array([
    0.007968192496166605615465883474674,
    0.018466468311090959142302131912047,
    0.028784707883323369349719179611292,
    0.038799192569627049596801936446348,
    0.048402672830594052902938140422808,
    0.057493156217619066481721689402056,
    0.065974229882180495128128515115962,
    0.073755974737705206268243850022191,
    0.080755895229420215354694938460530,
    0.086899787201082979802387530715126,
    0.092122522237786128717632707087619,
    0.096368737174644259639468626351810,
    0.099593420586795267062780282103569,
    0.101762389748405504596428952168554,
    0.102852652893558840341285636705415,
])

_NODES = np.concatenate([-_XGK[:30], _XGK[30:], _XGK[29::-1]])  # ascending, 61 nodes
_WK = np.concatenate([_WGK[:30], _WGK[30:], _WGK[29::-1]])
_WGAUSS = np.zeros(61)
_WGAUSS[1:60:2] = np.concatenate([_WG, _WG[::-1]])
_RULES = np.stack([_WK, _WGAUSS])  # one product applies both rules


def _panel(f: Callable, a: float, b: float):
    """The K61 block over [a, b] of the integrand's pair of factors, and its
    error estimate max |K61 - G30|.  The block owns its data, so a panel kept
    in the heap does not keep the G30 block alive."""
    half = 0.5 * (b - a)
    u, v = f(0.5 * (a + b) + half * _NODES)
    # (2, p, 61) @ (61, q): sum_k (half w_k u_ik) v_jk for both rule weights w
    k, g = (half * _RULES[:, None, :] * u.T) @ v
    return k.copy(), float(np.max(np.abs(k - g)))


def integrate_split_at_zero(f: Callable, radius: float, tol: float = 1e-10):
    """Integrate the bilinear integrand f (see the module docstring) over
    [-radius, radius], starting from the two panels split at 0, where a weight
    has its cusp.  Returns (integral, error_estimate); the integral is the
    p x q block of the factors' shapes (61, p) and (61, q), and the error
    estimate is the sum of the final panels' errors.  It exceeds tol only when
    MAX_PANELS panels did not meet it.
    """
    (v1, e1), (v2, e2) = _panel(f, -radius, 0.0), _panel(f, 0.0, radius)
    total, err = v1 + v2, e1 + e2
    heap = [(-e1, 0, -radius, 0.0, v1), (-e2, 1, 0.0, radius, v2)]
    heapq.heapify(heap)
    counter = 2
    while err > tol and len(heap) < MAX_PANELS:
        _, _, a, b, val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _panel(f, a, mid)
        v2, e2 = _panel(f, mid, b)
        total = total - val + v1 + v2
        heapq.heappush(heap, (-e1, counter, a, mid, v1)); counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2)); counter += 1
        err = -sum(item[0] for item in heap)
    return total, err
