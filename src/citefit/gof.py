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

A sample is read as its distinct counts and multiplicities
(``unique_counts``): breakpoints, F_hat, the ECDF and the shape atoms come
from them. ``_simulated_counts``, the one way a study draws from a model,
draws blocks of about ``_BLOCK_DRAWS`` draws. Simulation i takes its
uniforms from the stream (seed, i, *path); ``seeding.streams`` derives a
block's streams together. A block's uniforms are sorted row by row and
mapped to counts by one quantile search, which reads the model CDF at the
closed-form start v and at v - 1 once per run of equal starts, and one pass
over the runs of equal counts gives every row's distinct counts. F at the
block's breakpoints and one ``np.maximum.reduceat`` give every row's
statistic. Against the one model, F at the breakpoints (each distinct
count and one below) is what the quantile search read, and it is read
again only in a block where a start missed. With ``refit``, a block's
simulations are fitted together by one ``fitting.fit_many`` call, and each
row reads its own fit. Memory follows the block, not ``n_sim``, and every
statistic is the one a simulation drawn, sorted and tested on its own
would give.

A draw beyond ``MAX_COUNT`` = 2**62 is 2**62, so the simulations follow
min(X, 2**62): every KS read of F, of the data and of each simulation, fixed
or refitted, and the plot's model column take F as 1 from there on
(``_drawn_cdf``); the model's ``cdf`` does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from citefit.distributions import MAX_COUNT
from citefit.exceptions import DomainError, EmptySampleError, FitFailedError
from citefit.fitting import MAX_EVALS, FitResult, fit, fit_many
from citefit.sample import DistinctCounts, as_sample
from citefit.seeding import streams

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
    v, mult = sample.unique_counts
    at_most = np.append(0, np.cumsum(mult))
    return at_most[np.searchsorted(v, grid, side="right")] / len(sample)


def _breakpoints(v: np.ndarray, mult: np.ndarray, n: int, f: np.ndarray | None = None):
    """Breakpoints x of the empirical CDF of samples of n counts each, given
    as their distinct counts v and multiplicities flattened sample after
    sample, with F_hat(x), the index where each sample's x begin, and F(x)
    taken from ``f``, the rows F(v - 1) and F(v), or None without it. Per
    sample, x is np.union1d(v[v > 1] - 1, v), never merged with the previous
    sample's, and F_hat(x) is (counts <= x) / n, as ``empirical_cdf`` gives."""
    below = (np.cumsum(mult) - mult) % n    # how many counts of its sample are < v
    v_starts = np.flatnonzero(below == 0)
    x = np.empty(2 * v.size, dtype=np.int64)
    at_most = np.empty(2 * v.size, dtype=np.int64)     # how many counts are <= x
    x[0::2], x[1::2] = v - 1, v
    at_most[0::2], at_most[1::2] = below, below + mult
    keep = np.ones(x.size, dtype=bool)
    # v - 1 is a point unless it is 0 or the sample's previous v
    keep[2::2] = x[2::2] != x[1:-1:2]
    keep[2 * v_starts] = v[v_starts] > 1
    x_starts = (np.cumsum(keep) - keep)[2 * v_starts]
    f_x = None if f is None else f.T.reshape(-1)[keep]
    return x[keep], at_most[keep] / n, x_starts, f_x


def _drawn_cdf(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """F, read as ``f`` at breakpoints x, as the draws follow it: 1 from ``MAX_COUNT`` on."""
    return np.where(x < MAX_COUNT, f, 1.0)


def cdf_breakpoints(model, sample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints x of the empirical CDF, with F_hat(x) and F(x) (``_drawn_cdf``).

    x runs over each distinct count v and v - 1 (when v > 1). F_hat is flat
    from one distinct count to the integer before the next, and F is
    non-decreasing, so |F - F_hat| peaks at these points: its maximum over
    them is its maximum over all of 1..max(sample), read from equal floats.
    """
    sample = as_sample(sample)
    x, emp_cdf, _, _ = _breakpoints(*sample.unique_counts, len(sample))
    return x, emp_cdf, _drawn_cdf(x, model.cdf(x))


def ks_statistic(model, sample) -> float:
    """Max |F(x) - F_hat(x)| over x in {1, ..., max(sample)}, read exactly
    at the ``cdf_breakpoints``: the work follows the distinct counts."""
    _, emp_cdf, model_cdf = cdf_breakpoints(model, sample)
    return float(np.abs(model_cdf - emp_cdf).max())


def _simulated_counts(model, n: int, seed: int, reps: range, *path):
    """The simulations of ``reps``, block by block: simulation i is n >= 1
    draws of ``model`` from the stream (seed, i, *path). Yields each block's
    distinct counts v and their multiplicities, flattened simulation after
    simulation, and F(v - 1) and F(v) as the rows of one array, or None if
    the quantile search read F at other counts too."""
    rows = max(1, _BLOCK_DRAWS // n)
    for start in range(0, len(reps), rows):
        block = reps[start:start + rows]
        u = np.empty((len(block), n))
        for row, rng in zip(u, streams(seed, block, *path)):
            rng.random(out=row)
        u.sort(axis=1)      # the quantile is monotone: its draws come sorted
        flat, run_starts, f = model._quantile_array(u.reshape(-1))
        new_run = np.empty(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=new_run[1:])
        new_run[::n] = True     # a row's counts are never merged with the previous row's
        first = np.flatnonzero(new_run)
        if f is not None:       # each distinct count is the start of the run it begins in
            f = f.reshape(2, -1)[::-1, np.searchsorted(run_starts, first, side="right") - 1]
        distinct = flat[first], np.diff(first, append=flat.size), f
        del u, flat, new_run    # only the distinct counts outlive the block
        yield distinct


def _split(v: np.ndarray, mult: np.ndarray, n: int) -> list[DistinctCounts]:
    """A block of ``_simulated_counts`` as one DistinctCounts per simulation."""
    starts = np.flatnonzero((np.cumsum(mult) - mult) % n == 0)[1:]    # no count below v
    return list(map(DistinctCounts, np.split(v, starts), np.split(mult, starts)))


def _simulated_samples(model, n: int, seed: int, path, reps: range) -> list[DistinctCounts]:
    """Every simulation of ``reps`` held as its distinct counts."""
    return [sample for v, mult, _ in _simulated_counts(model, n, seed, reps, *path)
            for sample in _split(v, mult, n)]


def simulation_draw(model, n: int, seed: int, *path: int):
    """The draw of a simulation study: replicates -> samples of ``n`` counts of
    ``model`` from the streams (seed, rep, *path), checked before any rep runs."""
    if n < 1:
        raise EmptySampleError("operation requires a non-empty sample")
    return partial(_simulated_samples, model, n, seed, path)


def _mc_ks_reps(model, n: int, seed: int, refit, reps: range) -> list[float]:
    """KS statistic of each simulation in ``reps`` against ``model`` or, with
    ``refit`` (a batch fit of one family), against its own fit when that
    is usable; the simulations of a block are refitted together."""
    d_sim = []
    for v, mult, f in _simulated_counts(model, n, seed, reps):
        x, emp_cdf, x_starts, f = _breakpoints(v, mult, n, f)
        if refit is not None:
            nulls = [r.model if r.usable else model for r in refit(_split(v, mult, n))]
            f = np.concatenate([null._cdf_at(x_i)
                                for null, x_i in zip(nulls, np.split(x, x_starts[1:]))])
        elif f is None:     # a quantile start missed in this block
            f = model._cdf_at(x)
        d_sim += np.maximum.reduceat(np.abs(_drawn_cdf(x, f) - emp_cdf), x_starts).tolist()
    return d_sim


def _mc_ks(model, sample, n_sim: int, seed: int, refit,
           fitted: FitResult | None = None) -> GofResult:
    """``refit``: None to test against ``model``, or a batch fit of the
    simulated samples. The p-value is (r + 1) / (n_sim + 1)."""
    d_obs = ks_statistic(model, sample)
    d_sim = _mc_ks_reps(model, len(sample), seed, refit, range(n_sim))
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
    if not epsilon > 0:
        raise DomainError("epsilon must be > 0")
    v, mult = sample.unique_counts
    n = len(sample)
    # the k-th smallest count is the first v with at least k counts <= v
    middle, top = np.searchsorted(np.cumsum(mult), [np.ceil(0.5 * n), np.ceil(0.99 * n)])
    points = np.array([1, v[middle], v[top]])
    deltas = empirical_cdf(sample, points) - np.asarray(model.cdf(points))
    return ShapeReport(
        bottom=_classify(float(deltas[0]), epsilon),
        middle=_classify(float(deltas[1]), epsilon),
        top=_classify(float(deltas[2]), epsilon),
        epsilon=epsilon,
    )
