"""Reproducible study harness, one function per table: bootstrap
statistics, plausibility rows, bootstrap and simulation Vuong tallies,
scale-parameter intervals, shape tables, the mixture-impurity experiment
(a :class:`~citefit.distributions.Mixture` against a pure model) and the
closed-form mean table.

Every study is a pure function of its inputs and a master seed. Per-rep
streams derive from (seed, rep), so reruns reproduce every cell for any
worker count. Every replicated study is ``statistic(draw(reps))``: a batch
statistic (one value per sample, NaN where it failed) of one draw per
sample, run by one :func:`citefit.bootstrap.run_reps` call that takes the
draws and the statistic, so a run opens at most one process pool (when
``workers > 1``) and a study of many samples sends each of them to the
pool as one task. A draw, checked when it is built, maps a range of
replicates to their samples, held as their distinct counts
(:class:`~citefit.sample.DistinctCounts`): bootstrap resamples
(:func:`~citefit.bootstrap.resample_draw`) or fresh simulations
(:func:`~citefit.gof.simulation_draw`). Each statistic, and the shape table,
fits its samples with one :func:`~citefit.fitting.fit_many` call per
family, which gives each sample the fit :func:`~citefit.fitting.fit` would.
A statistic fails a replicate by returning NaN for it, never by raising:
:func:`_summaries`, which summarises every study but the mixture study,
counts each non-finite value as failed. Vuong studies always orient the
test as hooked (model A) against lognormal (model B): positive z favours
the hooked power law, and each surviving z is classified by the Vuong
test's own +-1.96 rule.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from citefit.bootstrap import (
    MIN_REPS,
    StudySummary,
    resample_draw,
    run_reps,
    summarise,
)
from citefit.distributions import MODELS
from citefit.exceptions import (
    AllStatisticsFailedError,
    FitFailedError,
    IdenticalModelsError,
    ParameterError,
    TooFewRepsError,
)
from citefit.fitting import FitStatus, fit_many
from citefit.gof import (EQUAL, MINUS, PLUS, ks_p_value, ks_statistic, shape_classify,
                         simulation_draw)
from citefit.sample import as_sample, count_total
from citefit.seeding import child_seed
from citefit.subjects import SUBJECTS
from citefit.vuong import MODEL_A, MODEL_B, NEITHER, _favored, vuong

PLAUSIBILITY_COLUMNS = (
    "subject", "n", "ln_mu", "ln_sigma", "ln_ks", "ln_p",
    "hook_alpha", "hook_b", "hook_ks", "hook_p", "plausible",
)

SHAPE_COLUMNS = (
    "subject", "ln_bottom", "ln_middle", "ln_top",
    "hook_bottom", "hook_middle", "hook_top",
)

SCALE_COLUMNS = ("subject", "sigma_median", "sigma_lo95", "sigma_hi95",
                 "reps", "failed", "note")

VUONG_STUDY_COLUMNS = ("label", "n", "z_lo95", "z_median", "z_hi95",
                       "hooked_wins", "lognormal_wins", "neither", "failed")

MIXTURE_COLUMNS = ("rep", "mixture_ks", "pure_ks", "mixture_worse")

# (family, column prefix, plausibility flag); family i fits on child_seed(seed, i)
_FAMILY_CELLS = (("lognormal", "ln", "L"), ("hooked", "hook", "H"))


@dataclass(frozen=True)
class VuongStudy:
    """Summary of repeated hooked-vs-lognormal Vuong tests."""

    z_summary: StudySummary
    hooked_wins: int
    lognormal_wins: int
    neither: int

    @classmethod
    def from_summary(cls, z_summary: StudySummary) -> VuongStudy:
        """Tally each surviving z of ``z_summary`` by the +-1.96 rule."""
        tally = Counter(_favored(z) for z in z_summary.raw if not math.isnan(z))
        return cls(z_summary, tally[MODEL_A], tally[MODEL_B], tally[NEITHER])

    @property
    def failed(self) -> int:
        return self.z_summary.n_failed

    @property
    def reps(self) -> int:
        return self.z_summary.reps

    def row(self, label: str, n: int) -> dict:
        s = self.z_summary
        return dict(zip(VUONG_STUDY_COLUMNS, (label, n, s.lo95, s.median, s.hi95,
                                              self.hooked_wins, self.lognormal_wins,
                                              self.neither, self.failed), strict=True))


# --- bootstrap statistics: resamples -> one value each, NaN where it fails --

def _z_from_fits(sample, ln, hk) -> float:
    """Vuong z of the hooked fit ``hk`` against the lognormal fit ``ln`` of
    ``sample``. NaN when either fit is degenerate, when the hooked fit hits
    the ridge guard or the budget, or when z is undefined."""
    if ln.status is not FitStatus.CONVERGED or hk.status is not FitStatus.CONVERGED:
        return math.nan
    try:
        return vuong(hk.model, ln.model, sample).z
    except IdenticalModelsError:
        return math.nan


def _z_values(samples) -> list[float]:
    """:func:`_z_from_fits` of each sample, from one
    :func:`~citefit.fitting.fit_many` call per family."""
    return list(map(_z_from_fits, samples, fit_many("lognormal", samples),
                    fit_many("hooked", samples)))


def _means(samples) -> list[float]:
    """The mean of each sample: its exact total over its size, correctly
    rounded. That is ``np.mean`` of its counts while the total stays below
    2**53."""
    return [count_total(*s.unique_counts) / len(s) for s in samples]


def _medians(samples) -> list[float]:
    """``np.median`` of each sample's counts, from the one or two middle
    values (an odd size takes its middle value twice)."""
    medians = []
    for s in samples:
        below = np.cumsum(s.mult)
        middle = np.searchsorted(below, [(below[-1] - 1) // 2, below[-1] // 2],
                                 side="right")
        medians.append(float(np.median(s.values[middle])))
    return medians


def _fitted_params(family: str, name: str, samples) -> list[float]:
    """Parameter ``name`` of the ``family`` fit of each sample, NaN where
    the fit is degenerate."""
    return [float(getattr(result.model, name)) if result.usable else math.nan
            for result in fit_many(family, samples)]


BOOTSTRAP_STATISTICS = {
    "mean": _means,
    "median": _medians,
    **{f"{family}-{name}": partial(_fitted_params, family, name)
       for family, cls in MODELS.items() for name in cls.PARAMS},
    "vuong-z": _z_values,
}


def _summaries(draws, statistic, reps: int, workers: int) -> list[StudySummary]:
    """The summary of the batch function ``statistic`` over ``reps``
    replicates of each draw, all run through one
    :func:`~citefit.bootstrap.run_reps` call. Raises
    :class:`~citefit.exceptions.TooFewRepsError` below ``MIN_REPS``."""
    if reps < MIN_REPS:
        raise TooFewRepsError(f"need reps >= {MIN_REPS}, got {reps}")
    return [summarise(values, reps) for values in run_reps(draws, statistic, reps, workers)]


def bootstrap_study(sample, reps: int, statistic: str, size: int | None = None,
                    seed: int = 0, workers: int = 1) -> StudySummary:
    """Bootstrap the statistic named ``statistic`` (a key of
    :data:`BOOTSTRAP_STATISTICS`) over ``reps`` resamples of ``size``
    counts (None: the sample's size).

    Raises :class:`~citefit.exceptions.ParameterError` for an unknown
    statistic and :class:`~citefit.exceptions.AllStatisticsFailedError`
    when every replicate failed.
    """
    draw = resample_draw(sample, size, seed)
    if statistic not in BOOTSTRAP_STATISTICS:
        raise ParameterError(f"unknown statistic {statistic!r}; "
                             f"expected one of {sorted(BOOTSTRAP_STATISTICS)}")
    [summary] = _summaries([draw], BOOTSTRAP_STATISTICS[statistic], reps, workers)
    if summary.n_failed == reps:
        raise AllStatisticsFailedError(f"all {reps} replicates failed for {statistic!r}")
    return summary


# --- bootstrap and simulation Vuong studies ---------------------------------

def vuong_studies(draws, reps: int, workers: int = 1) -> list[VuongStudy]:
    """One :class:`VuongStudy` per draw: a bootstrap draw
    (:func:`~citefit.bootstrap.resample_draw`) or a simulation draw
    (:func:`~citefit.gof.simulation_draw`)."""
    return [VuongStudy.from_summary(summary)
            for summary in _summaries(draws, _z_values, reps, workers)]


def bootstrap_vuong_study(sample, reps: int, size: int | None = None,
                          seed: int = 0, workers: int = 1) -> VuongStudy:
    """Vuong z over ``reps`` bootstrap resamples of ``sample``."""
    [study] = vuong_studies([resample_draw(sample, size, seed)], reps, workers)
    return study


# --- plausibility rows ----------------------------------------------------

def plausibility_row(sample, n_sim: int = 1000, seed: int = 0) -> dict:
    """One KS-plausibility table row: both families fitted and tested."""
    sample = as_sample(sample)
    row = dict.fromkeys(PLAUSIBILITY_COLUMNS)
    row["subject"] = sample.label
    row["n"] = len(sample)
    flags = []
    for i, (family, prefix, flag) in enumerate(_FAMILY_CELLS):
        try:
            result = ks_p_value(family, sample, n_sim, child_seed(seed, i))
        except FitFailedError:
            row["plausible"] = "degenerate"
            return row
        for name, value in result.fit.model.params.items():
            row[f"{prefix}_{name}"] = value
        row[f"{prefix}_ks"] = result.ks_stat
        row[f"{prefix}_p"] = result.p_value
        if result.plausible:
            flags.append(flag)
    row["plausible"] = ",".join(flags)
    return row


# --- scale-parameter intervals (one per subject) --------------------------

def scale_ci_study(samples, reps: int = 1000, size: int | None = 500,
                   seed: int = 0, workers: int = 1) -> list[dict]:
    """Bootstrap interval of the fitted lognormal sigma for each sample.

    Every sample is checked before any replicate runs, and all of them run
    through one :func:`~citefit.bootstrap.run_reps` call. A sample whose
    replicates all failed gets the note "degenerate" and no interval.
    """
    samples = list(map(as_sample, samples))
    draws = [resample_draw(sample, size, child_seed(seed, index))
             for index, sample in enumerate(samples)]
    summaries = _summaries(draws, BOOTSTRAP_STATISTICS["lognormal-sigma"], reps, workers)
    rows = []
    for sample, summary in zip(samples, summaries):
        row = dict.fromkeys(SCALE_COLUMNS)
        row["subject"] = sample.label
        row["reps"] = reps
        row["failed"] = summary.n_failed
        if summary.n_failed == reps:
            row["note"] = "degenerate"
        else:
            row["sigma_median"] = summary.median
            row["sigma_lo95"] = summary.lo95
            row["sigma_hi95"] = summary.hi95
            row["note"] = ""
        rows.append(row)
    return rows


# --- shape tables ----------------------------------------------------------

def shape_table(samples, epsilon: float = 0.01) -> tuple[list[dict], list[dict]]:
    """Bottom/middle/top shape classification per sample and family.

    Returns the per-sample rows plus three totals rows counting "+", "="
    and "-" cells per column.
    """
    samples = list(map(as_sample, samples))
    fits = zip(*(fit_many(family, samples) for family, _, _ in _FAMILY_CELLS))
    rows = []
    for sample, results in zip(samples, fits):
        row = dict.fromkeys(SHAPE_COLUMNS)
        row["subject"] = sample.label
        for (_, prefix, _), result in zip(_FAMILY_CELLS, results):
            if result.usable:
                report = shape_classify(result.model, sample, epsilon)
                row.update({f"{prefix}_bottom": report.bottom,
                            f"{prefix}_middle": report.middle, f"{prefix}_top": report.top})
        rows.append(row)

    totals = []
    for symbol, label in ((PLUS, "higher total"), (EQUAL, "same total"),
                          (MINUS, "lower total")):
        total_row = {"subject": label}
        for col in SHAPE_COLUMNS[1:]:
            total_row[col] = sum(1 for r in rows if r[col] == symbol)
        totals.append(total_row)
    return rows, totals


# --- mixtures ---------------------------------------------------------------

def _lognormal_ks(samples) -> list[float]:
    """KS distance of each sample from its own lognormal fit, NaN where the
    fit is degenerate."""
    return [ks_statistic(result.model, sample) if result.usable else math.nan
            for sample, result in zip(samples, fit_many("lognormal", samples))]


def mixture_impurity_study(mixture, pure_model, n: int, reps: int,
                           seed: int = 0, workers: int = 1) -> tuple[list[dict], dict]:
    """Compare lognormal KS fits on mixture data against pure data.

    Each rep draws one sample from ``mixture`` (a
    :class:`~citefit.distributions.Mixture`, path 0) and one from
    ``pure_model`` (path 1) and records both :func:`_lognormal_ks` values.
    """
    if reps < 1:
        raise TooFewRepsError(f"need reps >= 1, got {reps}")
    draws = [simulation_draw(mixture, n, seed, 0), simulation_draw(pure_model, n, seed, 1)]
    mix_ks, pure_ks = run_reps(draws, _lognormal_ks, reps, workers)
    rows = []
    for rep, (mix, pure) in enumerate(zip(mix_ks, pure_ks)):
        if math.isnan(mix) or math.isnan(pure):
            mix = pure = None
        flag = None if mix is None else mix > pure
        rows.append(dict(zip(MIXTURE_COLUMNS, (rep, mix, pure, flag), strict=True)))
    worse = sum(1 for r in rows if r["mixture_worse"])
    valid = sum(1 for r in rows if r["mixture_worse"] is not None)
    summary = {
        "reps": reps,
        "mixture_worse_count": worse,
        "valid": valid,
        "fraction_worse": worse / valid if valid else math.nan,
    }
    return rows, summary


# --- closed-form mean table -------------------------------------------------

def mean_table(fixture=SUBJECTS) -> list[dict]:
    """Closed-form continuous-analogue means of both fitted families, one row
    per subject of ``fixture``, then their ``average`` row."""
    rows = [{"subject": s.name, "ln_mean": s.lognormal().continuous_mean(),
             "hook_mean": s.hooked().continuous_mean()} for s in fixture]
    rows.append({"subject": "average",
                 "ln_mean": float(np.mean([r["ln_mean"] for r in rows])),
                 "hook_mean": float(np.mean([r["hook_mean"] for r in rows]))})
    return rows
