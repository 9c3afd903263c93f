"""The dimension-generic Nelder-Mead search of ``citefit.simplex`` as it
was before the search was written for two coordinates, kept unchanged as
the reference that ``test_simplex`` replays the two-coordinate search
against, point for point and bit for bit."""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from citefit.simplex import (_CONTRACT, _EXPAND, _REFLECT, _SHRINK, _STEP, _REL_F_TOL,
                             _X_TOL, SimplexResult)


def simplex_search(x0, max_evals=10_000):
    """Minimise by ask/tell from ``x0``: a generator that yields each point
    to evaluate (a list of floats), is sent its value, and returns a
    :class:`SimplexResult`.

    Stops as converged when the relative spread of the simplex function
    values falls below ``_REL_F_TOL`` or the simplex diameter falls below
    ``_X_TOL``; stops unconverged when ``max_evals`` evaluations are spent
    (the budget is checked between iterations, so the final iteration may
    overshoot it by a few evaluations). A value that is not finite counts
    as ``inf`` (an out-of-domain point). Raises ValueError, once the
    starting simplex is evaluated, when the value at ``x0`` is not finite.

    Parameters
    ----------
    x0 : array_like
        Starting point; the initial simplex offsets each coordinate by
        ``_STEP``.
    """
    x0 = np.asarray(x0, dtype=np.float64).tolist()
    dim = len(x0)
    points = [x0] + [[v + _STEP if j == i else v for j, v in enumerate(x0)]
                     for i in range(dim)]
    values = []
    for p in points:
        values.append(_finite((yield p)))
    evals = len(points)
    if not math.isfinite(values[0]):
        raise ValueError("objective is not finite at the starting point")

    def order():
        idx = sorted(range(len(values)), key=values.__getitem__)
        return [points[i] for i in idx], [values[i] for i in idx]

    points, values = order()

    while evals < max_evals:
        best, worst = values[0], values[-1]
        spread_ok = (worst - best) <= _REL_F_TOL * max(1.0, abs(best))
        if spread_ok or max([abs(v - u) for p in points[1:]
                             for u, v in zip(points[0], p)]) <= _X_TOL:
            return SimplexResult(np.array(points[0]), values[0], evals, True)

        # mean of all but the worst point, summed left to right as np.mean does
        centroid = points[0]
        for p in points[1:-1]:
            centroid = [u + v for u, v in zip(centroid, p)]
        centroid = [u / dim for u in centroid]
        reflected = [c + _REFLECT * (c - w) for c, w in zip(centroid, points[-1])]
        f_reflected = _finite((yield reflected))
        evals += 1

        if f_reflected < values[0]:
            expanded = [c + _EXPAND * (r - c) for c, r in zip(centroid, reflected)]
            f_expanded = _finite((yield expanded))
            evals += 1
            if f_expanded < f_reflected:
                point, value = expanded, f_expanded
            else:
                point, value = reflected, f_reflected
        elif f_reflected < values[-2]:
            point, value = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = [c + _CONTRACT * (r - c) for c, r in zip(centroid, reflected)]
            else:
                contracted = [c + _CONTRACT * (w - c) for c, w in zip(centroid, points[-1])]
            f_contracted = _finite((yield contracted))
            evals += 1
            if f_contracted < min(f_reflected, values[-1]):
                point, value = contracted, f_contracted
            else:
                for i in range(1, len(points)):
                    points[i] = [u + _SHRINK * (v - u) for u, v in zip(points[0], points[i])]
                    values[i] = _finite((yield points[i]))
                    evals += 1
                points, values = order()
                continue
        # the new point replaces the worst one; the rest stay in order, and
        # it goes after those of equal value, as a stable sort puts it
        del points[-1], values[-1]
        k = bisect_right(values, value)
        points.insert(k, point)
        values.insert(k, value)

    return SimplexResult(np.array(points[0]), values[0], evals, False)


def _finite(value) -> float:
    return float(value) if math.isfinite(value) else math.inf
