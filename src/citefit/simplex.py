"""Nelder-Mead simplex minimisation.

A compact derivative-free simplex search used for the maximum-likelihood
fits. The discretised likelihoods are cheap but not smooth enough to make
gradient methods attractive, and the simplex keeps full control over the
stopping rule and the evaluation budget. Only the budget is set per call;
the coefficients, ``_STEP``, ``_REL_F_TOL`` and ``_X_TOL`` are fixed (J. A.
Nelder and R. Mead, "A simplex method for function minimization", Comput.
J. 7(4), 1965). Points are lists of plain floats: in the fits' two
dimensions NumPy calls cost more than the maths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5
_STEP = 0.25        # initial offset of each coordinate from the start
_REL_F_TOL = 1e-8   # converged: relative spread of the function values
_X_TOL = 1e-6       # converged: simplex diameter


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    fx: float
    evaluations: int
    converged: bool


def nelder_mead(fn, x0, max_evals=10_000) -> SimplexResult:
    """Minimise ``fn`` starting from ``x0``.

    Stops as converged when the relative spread of the simplex function
    values falls below ``_REL_F_TOL`` or the simplex diameter falls below
    ``_X_TOL``; stops unconverged when ``max_evals`` evaluations are spent
    (the budget is checked between iterations, so the final iteration may
    overshoot it by a few evaluations). ``fn`` may return ``inf`` for
    out-of-domain points.

    Parameters
    ----------
    fn : callable
        Objective, mapping a sequence of floats (one per coordinate) to a
        float.
    x0 : array_like
        Starting point; the initial simplex offsets each coordinate by
        ``_STEP``.
    """
    x0 = np.asarray(x0, dtype=np.float64).tolist()
    dim = len(x0)
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        v = fn(x)
        return float(v) if math.isfinite(v) else math.inf

    points = [x0] + [[v + _STEP if j == i else v for j, v in enumerate(x0)]
                     for i in range(dim)]
    values = [call(p) for p in points]
    if not math.isfinite(values[0]):
        raise ValueError("objective is not finite at the starting point")

    def order():
        idx = sorted(range(len(values)), key=values.__getitem__)
        return [points[i] for i in idx], [values[i] for i in idx]

    points, values = order()

    while evals < max_evals:
        best, worst = values[0], values[-1]
        spread_ok = (worst - best) <= _REL_F_TOL * max(1.0, abs(best))
        diameter = max(abs(v - u) for p in points[1:] for u, v in zip(points[0], p))
        if spread_ok or diameter <= _X_TOL:
            return SimplexResult(np.array(points[0]), values[0], evals, True)

        # mean of all but the worst point, summed left to right as np.mean does
        centroid = points[0]
        for p in points[1:-1]:
            centroid = [u + v for u, v in zip(centroid, p)]
        centroid = [u / dim for u in centroid]
        reflected = [c + _REFLECT * (c - w) for c, w in zip(centroid, points[-1])]
        f_reflected = call(reflected)

        if f_reflected < values[0]:
            expanded = [c + _EXPAND * (r - c) for c, r in zip(centroid, reflected)]
            f_expanded = call(expanded)
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = [c + _CONTRACT * (r - c) for c, r in zip(centroid, reflected)]
            else:
                contracted = [c + _CONTRACT * (w - c) for c, w in zip(centroid, points[-1])]
            f_contracted = call(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                points[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, len(points)):
                    points[i] = [u + _SHRINK * (v - u) for u, v in zip(points[0], points[i])]
                    values[i] = call(points[i])
        points, values = order()

    return SimplexResult(np.array(points[0]), values[0], evals, False)
