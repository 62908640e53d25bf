"""Adaptive Gauss-Kronrod (G30/K61) panel integration of bilinear integrands.

The integrand is given by two factors: f(x), with x the 61 nodes of each of
2k panels, returns a row-aligned pair (u, v) of shapes (2k x 61, p) and
(2k x 61, q), and the integral is the p x q block of integrals of u_i v_j.  A
Gram matrix is one such block, with u = (weight * psi) and v = psi; a plain
vector integrand y is the pair (y, a column of ones).  The factors may carry a
leading block axis, (blocks, 2k x 61, p) and (blocks, 2k x 61, q), and the
integral is then one p x q block per block: the Gram's two parity blocks, whose
entries are the only ones that can be nonzero.  Each panel applies both rules
to its 61 rows of the nodewise outer products in one matrix product per block,
so the 61 x p x q products are never formed.  The panels are bisected in rounds,
the batch rule of SciPy's quad_vec: a round takes the panels with the largest
estimated errors, the fewest whose removal leaves errors that sum to at most
the tolerance (at least one, at most ROUND_PANELS), and evaluates all their
halves with one call of f; the error total is re-summed over the panels after
each round.  The error estimate max |K61 - G30| over every block is
conservative for smooth integrands, which is what drives the splitting
toward weight-function cusps.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

__all__ = ["MAX_PANELS", "ROUND_PANELS", "integrate_split_at_zero"]

MAX_PANELS = 4000  # the panel count at which the bisection stops short of tol
ROUND_PANELS = 64  # the most panels one round splits, with one call of the integrand

# QUADPACK dqk61 tables (Piessens et al., 1983): the 31 non-negative
# abscissae of the 61-point Kronrod rule, descending, with the 30-point Gauss
# abscissae at odd positions; the Kronrod weights of those abscissae; the
# Gauss weights of _XGK[1], _XGK[3], ..., _XGK[29]
_XGK = (
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
)
_WGK = (
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
)
_WG = (
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
)


@cache
def _tables():
    """The 61 nodes, ascending, and the (2, 61) rule weights, K61 then G30 (zero
    at the Kronrod-only nodes), so one product applies both rules: read-only
    arrays, built from the tables above once per process, on first use."""
    import numpy as np

    nodes = np.array([-x for x in _XGK[:30]] + list(_XGK[30:] + _XGK[29::-1]))
    gauss = np.zeros(61)
    gauss[1:60:2] = _WG + _WG[::-1]
    rules = np.array([_WGK + _WGK[29::-1], gauss])
    nodes.flags.writeable = rules.flags.writeable = False
    return nodes, rules


def _rule(half: float, u: np.ndarray, v: np.ndarray):
    """The K61 block of one panel's factor blocks u (..., 61, p) and v (..., 61, q),
    half its width, and its error estimate max |K61 - G30| over every block.  A
    leading block axis gives one product per block, each the 2-D rule's product.
    The block owns its data, so a panel kept for the next round does not keep the
    G30 block alive."""
    # (2, ..., p, 61) @ (..., 61, q): sum_k (half w_k u_ik) v_jk for both rule weights w
    rules = _tables()[1].reshape((2,) + (1,) * (u.ndim - 1) + (61,))
    k, g = (half * rules * u.swapaxes(-1, -2)) @ v
    return k.copy(), float(abs(k - g).max())


def _halves(f: Callable, panels, index: int):
    """The halves of each panel (a, b) in panels, left then right, as
    (a, b, block, error, index) entries numbered from index on: one call of f
    on all their nodes, then the rule on each half's 61 rows (of every block)."""
    import numpy as np

    ends = []
    for a, b in panels:
        mid = 0.5 * (a + b)
        ends += [(a, mid), (mid, b)]
    lo, hi = np.array(ends).T
    half = 0.5 * (hi - lo)
    u, v = f((0.5 * (lo + hi)[:, None] + half[:, None] * _tables()[0]).ravel())
    return [(a, b, *_rule(h, u[..., 61 * i : 61 * i + 61, :], v[..., 61 * i : 61 * i + 61, :]),
             index + i)
            for i, ((a, b), h) in enumerate(zip(ends, half.tolist()))]


def _round_size(errors, tol: float, cap: int) -> int:
    """The fewest of the descending errors, at least 1 and at most cap, whose
    removal leaves errors that sum to at most tol.  Each left sum is a fresh
    sum, from the smallest error up."""
    left = 0.0
    for k in range(len(errors) - 1, 0, -1):
        left += errors[k]  # the sum of errors[k:]
        if left > tol:
            return min(k + 1, cap)
    return 1


def integrate_split_at_zero(f: Callable, radius: float, tol: float = 1e-10):
    """Integrate the bilinear integrand f (see the module docstring) over
    [-radius, radius], starting from the two panels split at 0, where a weight
    has its cusp.  Returns (integral, error_estimate); the integral is the
    p x q block of the factors' shapes (2k x 61, p) and (2k x 61, q), one per
    block on a leading block axis where they have one, and the
    error estimate is the sum of the final panels' errors.  It exceeds tol only
    when MAX_PANELS panels did not meet it.  f is called once for the two
    initial panels and once per round.
    """
    panels = _halves(f, [(-radius, radius)], 0)  # in order of position
    made, err = 2, sum(p[3] for p in panels)
    while err > tol and len(panels) < MAX_PANELS:
        # heap order: the largest error first, then the panel made first
        ranked = sorted(panels, key=lambda p: (-p[3], p[4]))
        cap = min(ROUND_PANELS, MAX_PANELS - len(panels))
        split = ranked[: _round_size([p[3] for p in ranked], tol, cap)]
        halves = _halves(f, [p[:2] for p in split], made)
        made += len(halves)
        pairs = {p[4]: halves[2 * i : 2 * i + 2] for i, p in enumerate(split)}
        panels = [h for p in panels for h in pairs.get(p[4], (p,))]
        err = sum(p[3] for p in panels)
    return sum(p[2] for p in panels), err
