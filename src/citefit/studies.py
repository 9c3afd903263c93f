"""Reproducible study harness, one function per table: bootstrap
statistics, plausibility rows, bootstrap and simulation Vuong tallies,
scale-parameter intervals, shape tables, the mixture-impurity experiment
(a :class:`~citefit.distributions.Mixture` against a pure model) and the
closed-form mean table.

Every study is a pure function of its inputs and a master seed. Per-rep
streams derive from (seed, rep), so reruns reproduce every cell for any
worker count. A replicated study makes one :func:`citefit.bootstrap.run_reps`
call however many samples it covers, so a run opens at most one process
pool (when ``workers > 1``), and a study of many samples sends each of
them to the pool as one task. Its replicate functions take a range of
replicates and fit all of their samples with one
:func:`~citefit.fitting.fit_many` call per family, which gives each sample
the fit :func:`~citefit.fitting.fit` would. Every bootstrap study --
:func:`bootstrap_study`, the bootstrap Vuong tallies and the scale
intervals -- runs :func:`~citefit.bootstrap._bootstrap_reps` with a named
batch statistic of :data:`BOOTSTRAP_STATISTICS`, on resamples held as their
distinct counts (:class:`~citefit.sample.DistinctCounts`); the simulation
Vuong replicates hold their samples the same way. None of them builds a
sample's raw counts. Every study shares its failure rule: a replicate that
raises a citefit error or yields a non-finite value counts as failed.
Vuong studies always orient the test as hooked (model A) against
lognormal (model B): positive z favours the hooked power law, and each
surviving z is classified by the Vuong test's own +-1.96 rule.
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
    _bootstrap_reps,
    _checked_resampling,
    _replicate_value,
    run_reps,
    summarise,
)
from citefit.exceptions import (
    AllStatisticsFailedError,
    FitFailedError,
    ParameterError,
    TooFewRepsError,
)
from citefit.fitting import FitStatus, fit, fit_many
from citefit.gof import ks_p_value, ks_statistic, shape_classify
from citefit.sample import CitationSample, DistinctCounts, as_sample, count_total
from citefit.seeding import child_seed, spawn_rng
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
    failed: int
    reps: int

    def row(self, label: str, n: int) -> dict:
        s = self.z_summary
        return {
            "label": label, "n": n,
            "z_lo95": s.lo95, "z_median": s.median, "z_hi95": s.hi95,
            "hooked_wins": self.hooked_wins,
            "lognormal_wins": self.lognormal_wins,
            "neither": self.neither, "failed": self.failed,
        }


# --- bootstrap statistics: resamples -> one value each, NaN where it fails --

def _z_from_fits(sample, ln, hk) -> float:
    """Vuong z of the hooked fit ``hk`` against the lognormal fit ``ln`` of
    ``sample``. Raises a citefit error when either fit is degenerate, when
    the hooked fit hits the ridge guard or the budget, or when z is
    undefined."""
    if ln.status is not FitStatus.CONVERGED:
        raise FitFailedError(f"lognormal fit unusable: {ln.status.value}")
    if hk.status is not FitStatus.CONVERGED:
        raise FitFailedError(f"hooked fit unusable: {hk.status.value}")
    return vuong(hk.model, ln.model, sample).z


def _z_values(samples) -> list[float]:
    """Vuong z of the hooked fit against the lognormal fit of each sample,
    NaN where :func:`_z_from_fits` raises, from one
    :func:`~citefit.fitting.fit_many` call per family."""
    fits = zip(samples, fit_many("lognormal", samples), fit_many("hooked", samples))
    return [_replicate_value(_z_from_fits, *sample_fits) for sample_fits in fits]


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
    "lognormal-mu": partial(_fitted_params, "lognormal", "mu"),
    "lognormal-sigma": partial(_fitted_params, "lognormal", "sigma"),
    "hooked-alpha": partial(_fitted_params, "hooked", "alpha"),
    "hooked-b": partial(_fitted_params, "hooked", "b"),
    "vuong-z": _z_values,
}


def bootstrap_study(sample, reps: int, statistic: str, size: int | None = None,
                    seed: int = 0, workers: int = 1) -> StudySummary:
    """Bootstrap the statistic named ``statistic`` (a key of
    :data:`BOOTSTRAP_STATISTICS`) over ``reps`` resamples of ``size``
    counts (None: the sample's size).

    Raises :class:`~citefit.exceptions.ParameterError` for an unknown
    statistic and :class:`~citefit.exceptions.AllStatisticsFailedError`
    when every replicate failed.
    """
    if statistic not in BOOTSTRAP_STATISTICS:
        raise ParameterError(f"unknown statistic {statistic!r}; "
                             f"expected one of {sorted(BOOTSTRAP_STATISTICS)}")
    sample, size = _checked_resampling(sample, reps, size)
    [values] = run_reps([partial(_bootstrap_reps, sample, size, seed,
                                 BOOTSTRAP_STATISTICS[statistic])], reps, workers)
    summary = summarise(values, reps, statistic)
    if summary.n_failed == reps:
        raise AllStatisticsFailedError(f"all {reps} replicates failed for {statistic!r}")
    return summary


# --- bootstrap and simulation Vuong studies ---------------------------------

def _simulation_z_reps(generator, n: int, seed: int, reps: range) -> list[float]:
    draws = (generator.sample_with(spawn_rng(seed, rep), n) for rep in reps)
    return _z_values([DistinctCounts(*np.unique(d, return_counts=True)) for d in draws])


def bootstrap_z_reps(sample, reps: int, size: int | None, seed: int):
    """The replicate function of a bootstrap Vuong study of ``sample``:
    replicates -> Vuong z on each resample ``rep`` drawn from ``seed``."""
    sample, size = _checked_resampling(sample, reps, size)
    return partial(_bootstrap_reps, sample, size, seed, _z_values)


def simulation_z_reps(generator, n: int, seed: int):
    """The replicate function of a simulation Vuong study: replicates ->
    Vuong z on each fresh sample of size ``n`` from ``generator`` drawn from
    (``seed``, rep)."""
    return partial(_simulation_z_reps, generator, n, seed)


def vuong_studies(rep_fns, reps: int, workers: int = 1) -> list[VuongStudy]:
    """One :class:`VuongStudy` per replicate function (from
    :func:`bootstrap_z_reps` or :func:`simulation_z_reps`), all run through
    one :func:`~citefit.bootstrap.run_reps` call."""
    if reps < MIN_REPS:
        raise TooFewRepsError(f"need reps >= {MIN_REPS}, got {reps}")
    studies = []
    for values in run_reps(rep_fns, reps, workers):
        summary = summarise(values, reps, "vuong_z")
        tally = Counter(_favored(z) for z in summary.raw if not math.isnan(z))
        studies.append(VuongStudy(z_summary=summary, hooked_wins=tally[MODEL_A],
                                  lognormal_wins=tally[MODEL_B], neither=tally[NEITHER],
                                  failed=summary.n_failed, reps=reps))
    return studies


def bootstrap_vuong_study(sample, reps: int, size: int | None = None,
                          seed: int = 0, workers: int = 1) -> VuongStudy:
    """Vuong z over ``reps`` bootstrap resamples of ``sample``."""
    [study] = vuong_studies([bootstrap_z_reps(sample, reps, size, seed)], reps, workers)
    return study


def simulation_study(generator, n: int, reps: int, seed: int = 0,
                     workers: int = 1) -> VuongStudy:
    """Vuong z over ``reps`` fresh samples of size ``n`` from ``generator``."""
    [study] = vuong_studies([simulation_z_reps(generator, n, seed)], reps, workers)
    return study


# --- plausibility rows ----------------------------------------------------

def plausibility_row(sample, n_sim: int = 1000, seed: int = 0) -> dict:
    """One KS-plausibility table row: both families fitted and tested."""
    sample = as_sample(sample)
    sample.require_nonempty()
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
    checked = [_checked_resampling(sample, reps, size) for sample in samples]
    sigma = BOOTSTRAP_STATISTICS["lognormal-sigma"]
    rep_fns = [partial(_bootstrap_reps, sample, n, child_seed(seed, index), sigma)
               for index, (sample, n) in enumerate(checked)]
    rows = []
    for (sample, _), values in zip(checked, run_reps(rep_fns, reps, workers)):
        summary = summarise(values, reps, "lognormal_sigma")
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
    rows = []
    for sample in samples:
        sample = as_sample(sample)
        row = dict.fromkeys(SHAPE_COLUMNS)
        row["subject"] = sample.label
        for family, prefix, _ in _FAMILY_CELLS:
            result = fit(family, sample)
            if result.usable:
                report = shape_classify(result.model, sample, epsilon)
                row.update({f"{prefix}_bottom": report.bottom,
                            f"{prefix}_middle": report.middle, f"{prefix}_top": report.top})
        rows.append(row)

    totals = []
    for symbol, label in (("+", "higher total"), ("=", "same total"),
                          ("-", "lower total")):
        total_row = {"subject": label}
        for col in SHAPE_COLUMNS[1:]:
            total_row[col] = sum(1 for r in rows if r[col] == symbol)
        totals.append(total_row)
    return rows, totals


# --- mixtures ---------------------------------------------------------------

def mixture_impurity_study(mixture, pure_model, n: int, reps: int,
                           seed: int = 0, workers: int = 1) -> tuple[list[dict], dict]:
    """Compare lognormal KS fits on mixture data against pure data.

    Each rep draws one sample from ``mixture`` (a
    :class:`~citefit.distributions.Mixture`) and one from ``pure_model``,
    fits the lognormal family to each, and records both KS statistics.
    """
    if reps < 1:
        raise TooFewRepsError(f"need reps >= 1, got {reps}")
    [rows] = run_reps([partial(_mixture_reps, mixture, pure_model, n, seed)], reps, workers)
    worse = sum(1 for r in rows if r["mixture_worse"])
    valid = sum(1 for r in rows if r["mixture_worse"] is not None)
    summary = {
        "reps": reps,
        "mixture_worse_count": worse,
        "valid": valid,
        "fraction_worse": worse / valid if valid else math.nan,
    }
    return rows, summary


def _mixture_reps(mixture, pure_model, n: int, seed: int, reps: range) -> list[dict]:
    mix_data = [CitationSample(mixture.sample_with(spawn_rng(seed, rep, 0), n))
                for rep in reps]
    pure_data = [CitationSample(pure_model.sample_with(spawn_rng(seed, rep, 1), n))
                 for rep in reps]
    fits = fit_many("lognormal", mix_data + pure_data)
    rows = []
    for rep, mix, pure, mix_fit, pure_fit in zip(reps, mix_data, pure_data, fits,
                                                 fits[len(reps):]):
        row = {"rep": rep, "mixture_ks": None, "pure_ks": None, "mixture_worse": None}
        if mix_fit.usable and pure_fit.usable:
            row["mixture_ks"] = ks_statistic(mix_fit.model, mix)
            row["pure_ks"] = ks_statistic(pure_fit.model, pure)
            row["mixture_worse"] = row["mixture_ks"] > row["pure_ks"]
        rows.append(row)
    return rows


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
