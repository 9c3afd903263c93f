"""Reproducible study harness: plausibility rows, bootstrap and simulation
Vuong tallies, scale-parameter intervals, shape tables, mixture-impurity
experiments and the closed-form mean cross-check.

Every study is a pure function of its inputs and a master seed. Per-rep
streams derive from (seed, rep), so reruns reproduce every cell for any
worker count. Replicated studies run through :func:`citefit.bootstrap.run_reps`,
which opens one process pool per call when ``workers > 1``, and share its
failure rule: a replicate that raises a citefit error or yields a
non-finite value counts as failed. Vuong studies always orient the test as
hooked (model A) against lognormal (model B): positive z favours the
hooked power law, and each surviving z is classified by the Vuong test's
own +-1.96 rule.
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
    _bootstrap_rep,
    _checked_resampling,
    _replicate_value,
    bootstrap_study,
    run_reps,
    summarise,
)
from citefit.distributions import Mixture, continuous_moments
from citefit.exceptions import (
    AllStatisticsFailedError,
    DegenerateDataError,
    FitFailedError,
    TooFewRepsError,
)
from citefit.fitting import FitStatus, fit
from citefit.gof import ks_p_value, ks_statistic, shape_classify
from citefit.sample import CitationSample, as_sample
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


@dataclass(frozen=True)
class MixtureSpec:
    """Weighted combination of models feeding the impurity experiments."""

    components: tuple
    weights: tuple[float, ...]

    def to_model(self) -> Mixture:
        return Mixture(self.components, self.weights)


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


# --- hooked-vs-lognormal z replicates -----------------------------------

def hooked_vs_lognormal_z(sample) -> float:
    """Vuong z of the hooked fit against the lognormal fit of ``sample``.

    Raises a citefit error when either fit is degenerate, when the hooked
    fit hits the ridge guard or the budget (such replicates are excluded
    from studies and counted as failed), or when z is undefined.
    """
    sample = as_sample(sample)
    ln = fit("lognormal", sample)
    hk = fit("hooked", sample)
    if ln.status is not FitStatus.CONVERGED:
        raise FitFailedError(f"lognormal fit unusable: {ln.status.value}")
    if hk.status is not FitStatus.CONVERGED:
        raise FitFailedError(f"hooked fit unusable: {hk.status.value}")
    return vuong(hk.model, ln.model, sample).z


def _simulation_rep(generator, n: int, seed: int, rep: int) -> float:
    data = CitationSample(generator.sample_with(spawn_rng(seed, rep), n))
    return _replicate_value(hooked_vs_lognormal_z, data)


def _vuong_study(values, reps: int) -> VuongStudy:
    summary = summarise(values, reps, "vuong_z")
    tally = Counter(_favored(z) for z in summary.raw if not math.isnan(z))
    return VuongStudy(z_summary=summary, hooked_wins=tally[MODEL_A],
                      lognormal_wins=tally[MODEL_B], neither=tally[NEITHER],
                      failed=summary.n_failed, reps=reps)


def bootstrap_vuong_study(sample, reps: int, size: int | None = None,
                          seed: int = 0, workers: int = 1) -> VuongStudy:
    """Vuong z over ``reps`` bootstrap resamples of ``sample``."""
    sample, size = _checked_resampling(sample, reps, size)
    rep_fn = partial(_bootstrap_rep, sample, size, seed, hooked_vs_lognormal_z)
    return _vuong_study(run_reps(rep_fn, reps, workers), reps)


def simulation_study(generator, n: int, reps: int, seed: int = 0,
                     workers: int = 1) -> VuongStudy:
    """Vuong z over ``reps`` fresh samples of size ``n`` from ``generator``."""
    if reps < MIN_REPS:
        raise TooFewRepsError(f"need reps >= {MIN_REPS}, got {reps}")
    rep_fn = partial(_simulation_rep, generator, n, seed)
    return _vuong_study(run_reps(rep_fn, reps, workers), reps)


# --- plausibility rows ----------------------------------------------------

def plausibility_row(sample, n_sim: int = 1000, seed: int = 0) -> dict:
    """One KS-plausibility table row: both families fitted and tested."""
    sample = as_sample(sample)
    sample.require_nonempty()
    row = dict.fromkeys(PLAUSIBILITY_COLUMNS)
    row["subject"] = sample.label
    row["n"] = len(sample)
    flags = []
    try:
        ln = ks_p_value("lognormal", sample, n_sim, child_seed(seed, 0))
        row["ln_mu"] = ln.fit.model.mu
        row["ln_sigma"] = ln.fit.model.sigma
        row["ln_ks"] = ln.ks_stat
        row["ln_p"] = ln.p_value
        if ln.plausible:
            flags.append("L")
        hk = ks_p_value("hooked", sample, n_sim, child_seed(seed, 1))
        row["hook_alpha"] = hk.fit.model.alpha
        row["hook_b"] = hk.fit.model.b
        row["hook_ks"] = hk.ks_stat
        row["hook_p"] = hk.p_value
        if hk.plausible:
            flags.append("H")
    except FitFailedError:
        row["plausible"] = "degenerate"
        return row
    row["plausible"] = ",".join(flags)
    return row


# --- scale-parameter intervals (one per subject) --------------------------

def fitted_param(sample, family: str, name: str) -> float:
    """Bootstrap statistic: parameter ``name`` of the ``family`` fit."""
    result = fit(family, sample)
    if not result.usable:
        raise DegenerateDataError(result.message)
    return float(getattr(result.model, name))


fitted_lognormal_sigma = partial(fitted_param, family="lognormal", name="sigma")


def scale_ci_study(samples, reps: int = 1000, size: int | None = 500,
                   seed: int = 0, workers: int = 1) -> list[dict]:
    """Bootstrap interval of the fitted lognormal sigma for each sample."""
    rows = []
    for index, sample in enumerate(samples):
        sample = as_sample(sample)
        row = dict.fromkeys(SCALE_COLUMNS)
        row["subject"] = sample.label
        row["reps"] = reps
        try:
            summary = bootstrap_study(
                sample, reps, fitted_lognormal_sigma, size=size,
                seed=child_seed(seed, index), statistic_name="lognormal_sigma",
                workers=workers,
            )
        except AllStatisticsFailedError:
            row["note"] = "degenerate"
            row["failed"] = reps
            rows.append(row)
            continue
        row["sigma_median"] = summary.median
        row["sigma_lo95"] = summary.lo95
        row["sigma_hi95"] = summary.hi95
        row["failed"] = summary.n_failed
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
        for family, prefix in (("lognormal", "ln"), ("hooked", "hook")):
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

def mixture_sample(spec: MixtureSpec, n: int, seed: int,
                   label: str = "mixture") -> CitationSample:
    """Draw ``n`` counts from the mixture by inverse transform.

    Sampling inverts the mixture CDF with one uniform per draw, so a
    single-component mixture reproduces the component's sample stream
    exactly.
    """
    model = spec.to_model()
    return CitationSample(model.sample(n, seed), label=label)


def mixture_impurity_study(spec: MixtureSpec, pure_model, n: int, reps: int,
                           seed: int = 0, workers: int = 1) -> tuple[list[dict], dict]:
    """Compare lognormal KS fits on mixture data against pure data.

    Each rep draws one sample from the mixture and one from ``pure_model``,
    fits the lognormal family to each, and records both KS statistics.
    """
    if reps < 1:
        raise TooFewRepsError(f"need reps >= 1, got {reps}")
    mixture = spec.to_model()
    rows = run_reps(partial(_mixture_rep, mixture, pure_model, n, seed), reps, workers)
    worse = sum(1 for r in rows if r["mixture_worse"])
    valid = sum(1 for r in rows if r["mixture_worse"] is not None)
    summary = {
        "reps": reps,
        "mixture_worse_count": worse,
        "valid": valid,
        "fraction_worse": worse / valid if valid else math.nan,
    }
    return rows, summary


def _mixture_rep(mixture, pure_model, n: int, seed: int, rep: int) -> dict:
    row = {"rep": rep, "mixture_ks": None, "pure_ks": None, "mixture_worse": None}
    mix_data = CitationSample(mixture.sample_with(spawn_rng(seed, rep, 0), n))
    pure_data = CitationSample(pure_model.sample_with(spawn_rng(seed, rep, 1), n))
    mix_fit = fit("lognormal", mix_data)
    pure_fit = fit("lognormal", pure_data)
    if not (mix_fit.usable and pure_fit.usable):
        return row
    row["mixture_ks"] = ks_statistic(mix_fit.model, mix_data)
    row["pure_ks"] = ks_statistic(pure_fit.model, pure_data)
    row["mixture_worse"] = row["mixture_ks"] > row["pure_ks"]
    return row


# --- closed-form mean cross-check -------------------------------------------

def mean_crosscheck(fixture=SUBJECTS) -> dict[str, float]:
    """Average closed-form mean estimates of both families over a fixture."""
    ln_means = [continuous_moments(s.lognormal()).mean for s in fixture]
    hook_means = [continuous_moments(s.hooked()).mean for s in fixture]
    return {
        "ln_mean_avg": float(np.mean(ln_means)),
        "hook_mean_avg": float(np.mean(hook_means)),
    }
