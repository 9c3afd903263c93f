"""Bootstrap resampling and the replicate runner behind every study.

A study evaluates a statistic on ``reps`` independent replicates (bootstrap
resamples or fresh simulated samples). A study's replicate function maps a
``range`` of replicate indices to their values, so that it can fit the
samples of a whole chunk together (:func:`citefit.fitting.fit_many`).
:func:`run_reps` runs the replicates of every sample in a study run
together, through one process pool when ``workers > 1`` in chunks planned
for the whole study: when the study has at least four samples per
requested worker, one task per sample. :func:`summarise` takes the 95%
interval from the order statistics of each sample's values: with k =
ceil(0.025 * reps) the bounds are the k-th smallest and k-th largest
values, the 25th smallest / 25th largest for the canonical 1000-rep study.

Every bootstrap resample is drawn one way, by :func:`_distinct_resamples`,
straight into its distinct counts, and every bootstrap statistic is a
batch function of those (:func:`_bootstrap_reps`). So a chunk's memory
follows the distinct counts of its resamples, not their size, and a serial
run holds all of its resamples at once.

One failure rule holds for every study: a replicate whose statistic raises
a citefit error or yields a non-finite value is recorded as NaN, excluded
from the order statistics and counted in ``n_failed`` (bounds become NaN if
fewer than k successes remain on a side).

Per-replicate seeds derive from (master seed, replicate index), so results
are identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from citefit.exceptions import CitefitError, DomainError, TooFewRepsError
from citefit.sample import CitationSample, DistinctCounts, as_sample
from citefit.seeding import spawn_rng

MIN_REPS = 40   # keeps k = ceil(0.025 * reps) >= 1


@dataclass(frozen=True)
class StudySummary:
    """Median and order-statistic 95% interval of a replicated statistic.

    ``raw`` holds every replicate's value in order, NaN where it failed.
    """

    statistic_name: str
    median: float
    lo95: float
    hi95: float
    reps: int
    n_failed: int
    raw: tuple[float, ...]


def order_stat_bounds(raw_sorted: np.ndarray, reps: int) -> tuple[float, float]:
    """k-th smallest / k-th largest with k = ceil(0.025 * reps).

    ``raw_sorted`` holds the successful replicate values; NaN bounds are
    reported when failures left fewer than 2k values, the situation the
    canonical studies mark as not-available.
    """
    k = math.ceil(0.025 * reps)
    if len(raw_sorted) < 2 * k:
        return (math.nan, math.nan)
    return (float(raw_sorted[k - 1]), float(raw_sorted[len(raw_sorted) - k]))


def run_reps(rep_fns, reps: int, workers: int) -> list[list]:
    """``[fn(range(reps)) for fn in rep_fns]``, run in chunks of replicates.

    Each ``fn`` maps a ``range`` of replicate indices to the list of their
    values, in order, and a replicate's value must depend on its index
    alone, not on the range it came in. With ``workers > 1`` one process
    pool of at most ``os.cpu_count()`` workers runs them all, in about
    ``4 * workers`` tasks shared among the F functions: each function's
    replicates go in ``ceil(4 * workers / F)`` chunks of consecutive
    replicates. That is chunks of ``reps // (4 * workers)`` for one
    function, and one task per function, its sample pickled once, when
    ``F >= 4 * workers``. Every function's chunks are submitted before any
    result is read, so the pool stays busy across samples. The chunks
    follow the requested ``workers``, not the pool size, and the values
    depend on neither. Each ``fn`` must then be picklable (a partial of a
    module-level function). A replicate that raises cancels the work still
    queued, and the exception propagates.
    """
    if workers <= 1 or not rep_fns:
        return [fn(range(reps)) for fn in rep_fns]
    chunksize = max(1, reps // math.ceil(4 * workers / len(rep_fns)))
    chunks = [range(start, min(start + chunksize, reps))
              for start in range(0, reps, chunksize)]
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        try:
            pending = [pool.map(fn, chunks, chunksize=1) for fn in rep_fns]
            return [[value for chunk in values for value in chunk] for values in pending]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _replicate_value(statistic, *args) -> float:
    """``statistic(*args)`` as a float, NaN when it raises a citefit error."""
    try:
        return float(statistic(*args))
    except CitefitError:
        return math.nan


def _distinct_resamples(sample: CitationSample, size: int, seed: int,
                        reps: range) -> list[DistinctCounts]:
    """The bootstrap resample of each ``rep`` in ``reps``: ``size`` draws
    with replacement from ``sample``, drawn from (seed, rep) and held as its
    distinct counts, bit for bit ``np.unique(draws, return_counts=True)``,
    with no sort and no raw draws kept."""
    values, inverse = np.unique(sample.counts, return_inverse=True)
    resamples = []
    for rep in reps:
        idx = spawn_rng(seed, rep).integers(0, len(sample), size=size)
        mult = np.bincount(inverse[idx], minlength=values.size)
        drawn = np.flatnonzero(mult)
        resamples.append(DistinctCounts(values[drawn], mult[drawn]))
    return resamples


def _bootstrap_reps(sample: CitationSample, size: int, seed: int, statistic,
                    reps: range) -> list[float]:
    """The replicate function of every bootstrap study: ``statistic``, a
    batch function (one value per resample, NaN where it failed), of the
    resamples of ``reps``."""
    return statistic(_distinct_resamples(sample, size, seed, reps))


def summarise(values, reps: int, name: str) -> StudySummary:
    """Median and order-statistic interval of the finite replicate values.

    Never raises: non-finite values count as failed and are stored as NaN,
    and with no finite value the median is NaN.
    """
    raw = tuple(v if math.isfinite(v) else math.nan for v in map(float, values))
    good = np.sort([v for v in raw if not math.isnan(v)])
    lo, hi = order_stat_bounds(good, reps)
    median = float(np.median(good)) if good.size else math.nan
    return StudySummary(statistic_name=name, median=median, lo95=lo, hi95=hi,
                        reps=reps, n_failed=len(raw) - good.size, raw=raw)


def _checked_resampling(sample, reps: int, size: int | None) -> tuple[CitationSample, int]:
    """The validated source sample and resample size of a bootstrap study."""
    sample = as_sample(sample)
    if isinstance(sample, DistinctCounts):
        raise DomainError("a bootstrap study resamples a CitationSample, not DistinctCounts")
    sample.require_nonempty()
    if reps < MIN_REPS:
        raise TooFewRepsError(f"need reps >= {MIN_REPS}, got {reps}")
    size = len(sample) if size is None else int(size)
    if size < 1:
        raise DomainError("resample size must be >= 1")
    return sample, size
