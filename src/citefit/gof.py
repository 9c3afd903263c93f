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
which corrects the known conservatism of the fixed-parameter procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from citefit.exceptions import DomainError, FitFailedError
from citefit.fitting import MAX_EVALS, FitResult, fit
from citefit.sample import as_sample
from citefit.seeding import spawn_rng

PLUS = "+"
EQUAL = "="
MINUS = "-"


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


def cdf_breakpoints(model, sample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints x of the empirical CDF, with F_hat(x) and F(x) there.

    x runs over each distinct count v and v - 1 (when v > 1). F_hat is flat
    from one distinct count to the integer before the next, and F is
    non-decreasing, so |F - F_hat| peaks at these points: its maximum over
    them is its maximum over all of 1..max(sample), read from equal floats.
    """
    sample = as_sample(sample)
    sample.require_nonempty()
    # np.union1d(v[v > 1] - 1, v) over the distinct counts v, in a few
    # passes over sorted arrays at a fraction of np.unique's cost per call
    counts = sample.sorted_counts
    v = counts[np.concatenate(([True], counts[1:] != counts[:-1]))]
    x = np.empty(2 * v.size, dtype=np.int64)
    x[0::2], x[1::2] = v - 1, v         # non-decreasing
    x = x[np.concatenate(([x[0] > 0], x[1:] != x[:-1]))]
    return x, empirical_cdf(sample, x), model.cdf(x)


def ks_statistic(model, sample) -> float:
    """Max |F(x) - F_hat(x)| over x in {1, ..., max(sample)}, read exactly
    at the ``cdf_breakpoints``: the work follows the distinct counts."""
    _, emp_cdf, model_cdf = cdf_breakpoints(model, sample)
    return float(np.abs(model_cdf - emp_cdf).max())


def mc_p_value(exceed_count: int, n_sim: int) -> float:
    """Positive-by-construction Monte-Carlo p-value (r + 1) / (n_sim + 1)."""
    if n_sim < 1 or exceed_count < 0 or exceed_count > n_sim:
        raise DomainError("need 0 <= exceed_count <= n_sim, n_sim >= 1")
    return (exceed_count + 1) / (n_sim + 1)


def _mc_ks(model, sample, n_sim: int, seed: int, refit,
           fitted: FitResult | None = None) -> GofResult:
    """``refit``: None to test against ``model``, or a fit of each simulated sample."""
    d_obs = ks_statistic(model, sample)
    n = len(sample)
    exceed = 0
    for i in range(n_sim):
        rng = spawn_rng(seed, i)
        sim = as_sample(model.sample_with(rng, n), label="sim")
        if refit is None:
            sim_model = model
        else:
            sim_fit = refit(sim)
            sim_model = sim_fit.model if sim_fit.usable else model
        if ks_statistic(sim_model, sim) >= d_obs:
            exceed += 1
    return GofResult(
        ks_stat=d_obs,
        p_value=mc_p_value(exceed, n_sim),
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
    # this module's ``fit``, so a wrapper set on ``citefit.gof.fit`` (as the
    # perfbench tracer does) also sees the refits
    refit_fn = partial(fit, family, max_evals=max_evals) if refit else None
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
