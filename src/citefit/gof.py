"""Discrete Kolmogorov-Smirnov statistic, Monte-Carlo p-values and the
bottom/middle/top cumulative-shape classification.

The KS statistic is the maximum absolute difference between the model CDF
and the empirical CDF over every integer from 1 to the sample maximum,
read exactly at the empirical CDF's breakpoints (``cdf_breakpoints``).
Because neither reference distribution is available in closed form for
estimated parameters, p-values are estimated by simulation: ``n_sim``
samples of the same size are drawn from the fitted model and the p-value
is (r + 1) / (n_sim + 1), where r counts simulated statistics at least as
large as the observed one. By default the simulated samples are compared
against the one fitted model; ``refit=True`` refits each simulated sample,
which corrects the known conservatism of the fixed-parameter procedure
(Clauset, Shalizi & Newman, SIAM Review 51(4), 2009).

The simulations run through ``bootstrap.run_reps`` in blocks of about
``_BLOCK_DRAWS`` draws. Simulation i takes its uniforms from the stream
(seed, i); a block's uniforms are sorted row by row and mapped to counts
by one quantile search, which reads the model CDF pointwise once per run
of equal closed-form starts, and one pass over the runs of equal counts
gives every row's breakpoints and F_hat, the points and floats
``cdf_breakpoints`` gives for a sample. Without ``refit`` one pointwise
CDF read at those breakpoints and one ``np.maximum.reduceat`` give every
row's statistic; with it, a
block's simulations are fitted together by one ``fitting.fit_many`` call,
each held only as its distinct counts and breakpoints. Either way memory
follows the block, not ``n_sim``, and every statistic is the one a
simulation drawn, sorted and tested on its own would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from citefit.exceptions import DomainError, FitFailedError
from citefit.fitting import MAX_EVALS, FitResult, fit, fit_many
from citefit.bootstrap import run_reps
from citefit.sample import DistinctCounts, as_sample
from citefit.seeding import spawn_rng

PLUS = "+"
EQUAL = "="
MINUS = "-"

# Simulations are drawn, sorted and reduced in blocks of about this many draws.
_BLOCK_DRAWS = 1 << 16


@dataclass(frozen=True)
class GofResult:
    """Monte-Carlo goodness-of-fit outcome for one sample and null model."""

    ks_stat: float
    p_value: float
    n_sim: int
    refit_mode: str               # "fixed" or "refit"
    fit: FitResult | None = None  # convergence flag when the null was fitted

    @property
    def plausible(self) -> bool:
        return self.p_value > 0.05


@dataclass(frozen=True)
class ShapeReport:
    """Sign of empirical minus model CDF at the bottom/middle/top atoms."""

    bottom: str
    middle: str
    top: str
    epsilon: float


def empirical_cdf(sample, grid: np.ndarray) -> np.ndarray:
    """Proportion of counts <= g for each g in ``grid``."""
    sample = as_sample(sample)
    sample.require_nonempty()
    return np.searchsorted(sample.sorted_counts, grid, side="right") / len(sample)


def _breakpoints(rows: np.ndarray):
    """Breakpoints of the empirical CDF of each row of a 2-d array of
    sorted counts, with F_hat there, and each row's distinct counts.

    Returns the breakpoints x and F_hat(x), and the distinct counts v and
    their multiplicities, each flattened row after row, with the index
    where each row's x and each row's v begin. Per row, x is
    np.union1d(v[v > 1] - 1, v); a row's points are never merged with
    the previous row's. F_hat is read off the runs of equal counts:
    F_hat(v) is the index after the last v over n, F_hat(v - 1) the index
    of the first v over n, the same floats as ``empirical_cdf`` gives.
    """
    n = rows.shape[1]
    flat = rows.reshape(-1)
    new_run = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new_run[1:])
    new_run[::n] = True
    first = np.flatnonzero(new_run)
    v = flat[first]
    below = first % n                   # how many counts of the row are < v
    v_starts = np.flatnonzero(below == 0)
    x = np.empty(2 * v.size, dtype=np.int64)
    at_most = np.empty(2 * v.size, dtype=np.int64)     # how many counts are <= x
    x[0::2], x[1::2] = v - 1, v
    at_most[0::2] = below
    at_most[1::2] = np.append(first[1:], flat.size) - (first - below)
    keep = np.ones(x.size, dtype=bool)
    # v - 1 is a point unless it is 0 or the row's previous v
    keep[2::2] = x[2::2] != x[1:-1:2]
    keep[2 * v_starts] = v[v_starts] > 1
    x_starts = (np.cumsum(keep) - keep)[2 * v_starts]
    return (x[keep], at_most[keep] / n, x_starts,
            v, at_most[1::2] - below, v_starts)


def cdf_breakpoints(model, sample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints x of the empirical CDF, with F_hat(x) and F(x) there.

    x runs over each distinct count v and v - 1 (when v > 1). F_hat is flat
    from one distinct count to the integer before the next, and F is
    non-decreasing, so |F - F_hat| peaks at these points: its maximum over
    them is its maximum over all of 1..max(sample), read from equal floats.
    """
    sample = as_sample(sample)
    sample.require_nonempty()
    x, emp_cdf, *_ = _breakpoints(sample.sorted_counts[np.newaxis])
    return x, emp_cdf, model.cdf(x)


def ks_statistic(model, sample) -> float:
    """Max |F(x) - F_hat(x)| over x in {1, ..., max(sample)}, read exactly
    at the ``cdf_breakpoints``: the work follows the distinct counts."""
    _, emp_cdf, model_cdf = cdf_breakpoints(model, sample)
    return float(np.abs(model_cdf - emp_cdf).max())


def _simulated_breakpoints(model, n: int, seed: int, reps: range):
    """``_breakpoints`` of the sorted simulations of ``reps``, block by
    block: simulation i is n draws of ``model`` from the stream (seed, i)."""
    rows = max(1, _BLOCK_DRAWS // n)
    for start in range(0, len(reps), rows):
        block = reps[start:start + rows]
        u = np.empty((len(block), n))
        for row, i in zip(u, block):
            spawn_rng(seed, i).random(out=row)
        u.sort(axis=1)      # the quantile is monotone: its draws come sorted
        yield _breakpoints(model._quantile_array(u.reshape(-1)).reshape(u.shape))


def _mc_ks_reps(model, n: int, seed: int, refit, reps: range) -> list[float]:
    """KS statistic of each simulation in ``reps`` against ``model`` or, with
    ``refit`` (a batch fit of one family), against its own fit when that
    is usable. The simulations of a block are refitted together, held as
    their distinct counts and breakpoints."""
    d_sim = []
    for x, emp_cdf, x_starts, v, mult, v_starts in _simulated_breakpoints(model, n, seed, reps):
        if refit is None:
            d_sim += np.maximum.reduceat(np.abs(model._cdf_at(x) - emp_cdf), x_starts).tolist()
            continue
        fits = refit(list(map(DistinctCounts, np.split(v, v_starts[1:]),
                              np.split(mult, v_starts[1:]))))
        d_sim += [float(np.abs((sim_fit.model if sim_fit.usable else model)._cdf_at(x_i)
                               - emp_i).max())
                  for sim_fit, x_i, emp_i in zip(fits, np.split(x, x_starts[1:]),
                                                 np.split(emp_cdf, x_starts[1:]))]
    return d_sim


def _mc_ks(model, sample, n_sim: int, seed: int, refit,
           fitted: FitResult | None = None) -> GofResult:
    """``refit``: None to test against ``model``, or a batch fit of the
    simulated samples. The p-value is (r + 1) / (n_sim + 1)."""
    d_obs = ks_statistic(model, sample)
    [d_sim] = run_reps([partial(_mc_ks_reps, model, len(sample), seed, refit)],
                       n_sim, workers=1)
    exceed = sum(d >= d_obs for d in d_sim)
    return GofResult(
        ks_stat=d_obs,
        p_value=(exceed + 1) / (n_sim + 1),
        n_sim=n_sim,
        refit_mode="fixed" if refit is None else "refit",
        fit=fitted,
    )


def ks_test_fixed(model, sample, n_sim: int = 1000, seed: int = 0) -> GofResult:
    """Monte-Carlo KS test of the sample against a fully specified model.

    No parameters are estimated, so when the data really do come from
    ``model`` the p-values are uniform up to Monte-Carlo granularity.
    Deterministic given ``seed``: simulation i uses the stream derived
    from (seed, i).
    """
    sample = as_sample(sample)
    sample.require_nonempty()
    if n_sim < 1:
        raise DomainError("n_sim must be >= 1")
    return _mc_ks(model, sample, n_sim, seed, refit=None)


def ks_p_value(family: str, sample, n_sim: int = 1000, seed: int = 0,
               refit: bool = False, max_evals: int = MAX_EVALS) -> GofResult:
    """Fit ``family`` to the sample and Monte-Carlo test the fit.

    With ``refit`` off (the default) the simulated samples are compared
    against the one fitted model, which is conservative for estimated
    parameters; ``refit=True`` refits every simulated sample instead.
    Every fit is given ``max_evals`` likelihood evaluations. Deterministic
    given ``seed``.

    Raises
    ------
    FitFailedError
        If the base fit is degenerate. Non-converged fits are used but
        flagged through ``GofResult.fit.status``.
    """
    sample = as_sample(sample)
    sample.require_nonempty()
    if n_sim < 1:
        raise DomainError("n_sim must be >= 1")
    fitted = fit(family, sample, max_evals)
    if not fitted.usable:
        raise FitFailedError(f"cannot test an unusable fit: {fitted.message}")
    refit_fn = partial(fit_many, family, max_evals=max_evals) if refit else None
    return _mc_ks(fitted.model, sample, n_sim, seed, refit_fn, fitted)


def _classify(delta: float, epsilon: float) -> str:
    if delta > epsilon:
        return PLUS
    if delta < -epsilon:
        return MINUS
    return EQUAL


def shape_classify(model, sample, epsilon: float = 0.01) -> ShapeReport:
    """Classify empirical-minus-model CDF differences at three atoms.

    The atoms are x = 1 (zero raw citations under the usual offset), the
    empirical median atom (smallest x with F_hat(x) >= 0.5) and the upper
    atom (smallest x with F_hat(x) >= 0.99). Differences larger than
    ``epsilon`` in magnitude are classified "+" or "-", otherwise "=".
    """
    sample = as_sample(sample)
    sample.require_nonempty()
    if not epsilon > 0:
        raise DomainError("epsilon must be > 0")
    sorted_counts = sample.sorted_counts
    n = len(sample)
    x_bottom = 1
    x_middle = int(sorted_counts[int(np.ceil(0.5 * n)) - 1])
    x_top = int(sorted_counts[int(np.ceil(0.99 * n)) - 1])
    points = np.array([x_bottom, x_middle, x_top])
    deltas = empirical_cdf(sample, points) - np.asarray(model.cdf(points))
    return ShapeReport(
        bottom=_classify(float(deltas[0]), epsilon),
        middle=_classify(float(deltas[1]), epsilon),
        top=_classify(float(deltas[2]), epsilon),
        epsilon=epsilon,
    )
