"""Simplex minimiser against scipy.optimize as an independent oracle, and
point for point against the dimension-generic search it replaced
(``simplex_oracle``)."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from simplex_oracle import simplex_search as generic_search

from citefit.simplex import nelder_mead_lockstep, simplex_search


def nelder_mead(fn, x0, max_evals=10_000):
    """Minimise ``fn`` from ``x0`` by one :func:`simplex_search` on its own;
    raises ValueError when ``fn`` is not finite at ``x0``."""
    search = simplex_search(x0, max_evals)
    try:
        point = next(search)
        while True:
            point = search.send(fn(point))
    except StopIteration as stop:
        return stop.value


def quadratic(x):
    return float((x[0] - 1.5) ** 2 + 3.0 * (x[1] + 0.5) ** 2)


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def flat_bottom(x):
    return float((x[0] - 0.7) ** 4 + 0.1 * (x[0] - 0.7) ** 2 + (x[1] + 0.2) ** 4)


SCIPY_OPTIONS = {"maxfev": 5000, "xatol": 1e-8, "fatol": 1e-10}


def test_quadratic_minimum():
    res = nelder_mead(quadratic, [0.0, 0.0])
    assert res.converged
    assert res.fx == pytest.approx(0.0, abs=1e-8)
    assert np.allclose(res.x, [1.5, -0.5], atol=1e-4)


def test_rosenbrock_matches_scipy():
    res = nelder_mead(rosenbrock, [-1.2, 1.0], max_evals=5000)
    ref = scipy.optimize.minimize(rosenbrock, [-1.2, 1.0], method="Nelder-Mead",
                                  options=SCIPY_OPTIONS)
    assert res.converged
    assert res.fx <= ref.fun + 1e-6
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-3)


def test_budget_exhaustion_flagged():
    res = nelder_mead(rosenbrock, [-1.2, 1.0], max_evals=20)
    assert not res.converged
    assert res.evaluations <= 20


def test_infinite_regions_are_avoided():
    def walled(x):
        if x[0] > 2.0:
            return float("inf")
        return (x[0] - 1.0) ** 2 + x[1] ** 2

    res = nelder_mead(walled, [1.9, 0.5])
    assert res.converged
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-4)


def test_nonfinite_start_rejected():
    with pytest.raises(ValueError):
        nelder_mead(lambda x: float("inf"), [0.0, 0.0])


def test_deterministic():
    r1 = nelder_mead(rosenbrock, [0.3, 0.7])
    r2 = nelder_mead(rosenbrock, [0.3, 0.7])
    assert np.array_equal(r1.x, r2.x)
    assert r1.fx == r2.fx and r1.evaluations == r2.evaluations


# float.hex of the minimiser and minimum, with the evaluation count, as the
# NumPy-array implementation returned them: the same IEEE operations in the
# same order must give the same bits.
@pytest.mark.parametrize("fn,x0,x_hex,fx_hex,evals", [
    (rosenbrock, [-1.2, 1.0], ["0x1.0002b97d2943cp+0", "0x1.000576de1a1c1p+0"],
     "0x1.dc8b554ff84b6p-30", 159),
], ids=["dim2"])
def test_iterates_are_bit_exact(fn, x0, x_hex, fx_hex, evals):
    res = nelder_mead(fn, x0, max_evals=5000)
    assert [float(v).hex() for v in res.x] == x_hex
    assert res.fx.hex() == fx_hex
    assert res.evaluations == evals and res.converged


def _recorded(fn, log):
    def recording(x):
        log.append([float(v).hex() for v in x])
        return fn(x)
    return recording


def test_lockstep_reproduces_each_search():
    # searches of different lengths, with a non-finite start in the middle
    # that ends only its own search
    problems = [(flat_bottom, [3.0, 1.0]), (rosenbrock, [-1.2, 1.0]),
                (lambda x: float("inf"), [0.0, 0.0]), (rosenbrock, [0.3, 0.7]),
                (quadratic, [0.0, 0.0])]
    alone = []
    for fn, x0 in problems:
        log = []
        try:
            alone.append((nelder_mead(_recorded(fn, log), x0, max_evals=5000), log))
        except ValueError:
            alone.append((None, log))

    logs = [[] for _ in problems]
    fns = [_recorded(fn, log) for (fn, _), log in zip(problems, logs)]
    rounds = []

    def batch(live, points):
        rounds.append(list(live))
        return [fns[i](x) for i, x in zip(live, points)]

    results = nelder_mead_lockstep(batch, [x0 for _, x0 in problems], max_evals=5000)
    assert rounds[0] == [0, 1, 2, 3, 4] and 2 not in rounds[3]
    for (res, log), got, got_log in zip(alone, results, logs):
        assert got_log == log
        if res is None:
            assert got is None
        else:
            assert [v.hex() for v in got.x] == [v.hex() for v in res.x]
            assert (got.fx.hex(), got.evaluations, got.converged) == \
                (res.fx.hex(), res.evaluations, res.converged)
    assert len({res.evaluations for res, _ in alone if res is not None}) == 4


@pytest.mark.parametrize("x0", [[3.0], [-1.0, 0.5, 2.0]], ids=["dim1", "dim3"])
def test_two_coordinates_only(x0):
    message = f"simplex_search takes two coordinates, got {len(x0)}"
    with pytest.raises(ValueError, match=message):
        next(simplex_search(x0, 100))
    # not a search without a finite start: the error ends the whole batch
    with pytest.raises(ValueError, match=message):
        nelder_mead_lockstep(lambda live, points: [quadratic(x) for x in points],
                             [[0.0, 0.0], x0], 100)


def _replay(search, fn):
    """The points ``search`` asks for (float.hex) and how it ends: the
    result's bits, or ValueError."""
    asked = []
    try:
        point = next(search)
        while True:
            assert type(point) is list and len(point) == 2
            asked.append([float(v).hex() for v in point])
            point = search.send(fn(point))
    except StopIteration as stop:
        res = stop.value
        assert res.x.dtype == np.float64 and res.x.shape == (2,)
        return asked, ([v.hex() for v in res.x], res.fx.hex(), res.evaluations, res.converged)
    except ValueError:
        return asked, ValueError


_SHAPES = {
    "quadratic": lambda x, a, b, s: s * (x[0] - a) ** 2 + (x[1] - b) ** 2 / s,
    "rosenbrock": lambda x, a, b, s: (a - x[0]) ** 2 + 100.0 * s * (x[1] - b - x[0] ** 2) ** 2,
    "abs": lambda x, a, b, s: abs(x[0] - a) + s * abs(x[1] - b),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(shape=st.sampled_from(sorted(_SHAPES)),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0), scale=st.floats(0.01, 100.0),
       wall=st.one_of(st.none(), st.floats(-4.0, 4.0)),
       beyond=st.sampled_from([math.inf, math.nan, -math.inf]),
       grid=st.sampled_from([None, 1e-3, 0.25, 1.0]),
       x0=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
       max_evals=st.integers(3, 200))
# the simplex diameter ends this search, through the last of its four distances
@example(shape="abs", a=-0.1478850630409787, b=2.3417920905352485, scale=0.14029013126102233,
         wall=None, beyond=math.inf, grid=None, x0=[-0.5540744049519457, 2.367829582170902],
         max_evals=100)
def test_search_replays_the_generic_search(shape, a, b, scale, wall, beyond, grid, x0,
                                           max_evals):
    # shifted and scaled bowls and valleys, a wall of non-finite values past
    # x[0] = wall, and values rounded to a grid so that vertices tie
    def fn(x):
        if wall is not None and x[0] > wall:
            return beyond
        value = _SHAPES[shape](x, a, b, scale)
        return round(value / grid) * grid if grid else value

    expected = _replay(generic_search(x0, max_evals), fn)
    assert _replay(simplex_search(x0, max_evals), fn) == expected
