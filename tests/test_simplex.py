"""Simplex minimiser against scipy.optimize as an independent oracle."""

import numpy as np
import pytest
import scipy.optimize

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


def rosenbrock3(x):
    return float(sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1 - x[i]) ** 2
                     for i in range(2)))


def flat_bottom(x):
    return float((x[0] - 0.7) ** 4 + 0.1 * (x[0] - 0.7) ** 2)


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


@pytest.mark.parametrize("fn,x0,atol", [
    (flat_bottom, [3.0], 1e-3),
    (rosenbrock3, [-1.0, 0.5, 2.0], 1e-3),
], ids=["dim1", "dim3"])
def test_other_dimensions_match_scipy(fn, x0, atol):
    res = nelder_mead(fn, x0, max_evals=5000)
    ref = scipy.optimize.minimize(fn, x0, method="Nelder-Mead", options=SCIPY_OPTIONS)
    assert res.converged and ref.success
    assert res.x.shape == (len(x0),) and res.x.dtype == np.float64
    assert res.fx <= ref.fun + 1e-7
    assert np.allclose(res.x, ref.x, atol=atol)


# float.hex of the minimiser and minimum, with the evaluation count, as the
# NumPy-array implementation returned them: the same IEEE operations in the
# same order must give the same bits in every dimension.
@pytest.mark.parametrize("fn,x0,x_hex,fx_hex,evals", [
    (flat_bottom, [3.0], ["0x1.6680000000000p-1"], "0x1.0624e3bcd3dd9p-28", 30),
    (rosenbrock, [-1.2, 1.0], ["0x1.0002b97d2943cp+0", "0x1.000576de1a1c1p+0"],
     "0x1.dc8b554ff84b6p-30", 159),
    (rosenbrock3, [-1.0, 0.5, 2.0],
     ["0x1.000191babc6bep+0", "0x1.0002c8e164ccap+0", "0x1.0005c23f23e31p+0"],
     "0x1.a5245baece49dp-28", 391),
], ids=["dim1", "dim2", "dim3"])
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
    # searches of different dimensions and lengths, with a non-finite start
    # in the middle that ends only its own search
    problems = [(flat_bottom, [3.0]), (rosenbrock, [-1.2, 1.0]),
                (lambda x: float("inf"), [0.0, 0.0]), (rosenbrock3, [-1.0, 0.5, 2.0]),
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
