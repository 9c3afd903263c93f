"""Nelder-Mead simplex minimisation.

A compact derivative-free simplex search used for the maximum-likelihood
fits. The discretised likelihoods are cheap but not smooth enough to make
gradient methods attractive, and the simplex keeps full control over the
stopping rule and the evaluation budget. Only the budget is set per call;
the coefficients, ``_STEP``, ``_REL_F_TOL`` and ``_X_TOL`` are fixed (J. A.
Nelder and R. Mead, "A simplex method for function minimization", Comput.
J. 7(4), 1965). Points are lists of plain floats: in the fits' two
dimensions NumPy calls cost more than the maths, in lockstep too: a
prototype stepping all running searches as arrays took 0.82 s against 0.70
s per ``vuong-boot`` benchmark round (2-core x86-64, about 35 searches).

The search is written once, in ask/tell form: :func:`simplex_search` is a
generator that yields each point it wants evaluated, is sent the value and
returns a :class:`SimplexResult`. :func:`nelder_mead_lockstep` drives
any number of searches, asking one batch objective per round for the next
point of every search still running, so that the objective can evaluate
them all in one vectorised call. Each search does the same arithmetic
however many run beside it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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


def nelder_mead_lockstep(fn_batch, starts, max_evals=10_000) -> list[SimplexResult | None]:
    """One :func:`simplex_search` per start, advanced together.

    Each round calls ``fn_batch(live, points)`` once, with the indices of
    the searches still running (ascending) and the next point of each, and
    sends each search its value from the returned sequence. A search that
    raises ValueError (no finite start) ends alone with None in its place;
    the others go on.
    """
    searches = [simplex_search(x0, max_evals) for x0 in starts]
    results = [None] * len(searches)
    live = list(range(len(searches)))
    points = [next(search) for search in searches]
    while live:
        ended = False
        for k, value in enumerate(fn_batch(live, points)):
            try:
                points[k] = searches[live[k]].send(value)
            except StopIteration as stop:
                results[live[k]], points[k], ended = stop.value, None, True
            except ValueError:
                points[k], ended = None, True
        if ended:
            live = [i for i, point in zip(live, points) if point is not None]
            points = [point for point in points if point is not None]
    return results

