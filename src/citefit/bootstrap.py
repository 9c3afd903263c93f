"""Bootstrap resampling and the replicate runner behind every study.

A study evaluates a statistic on ``reps`` independent replicates (bootstrap
resamples or fresh simulated samples). :func:`run_reps` takes the study's
draws, each mapping a ``range`` of replicate indices to their samples, and
its statistic, a batch function of those samples, so that it can fit the
samples of a whole chunk together (:func:`citefit.fitting.fit_many`). It
runs the replicates of every draw in a study run together, through one
process pool when ``workers > 1`` in chunks planned for the whole study:
when the study has at least four draws per requested worker, one task per
draw. :func:`summarise` takes the 95% interval from the order statistics of
each draw's values: with k = ceil(0.025 * reps) the bounds are the k-th
smallest and k-th largest values, the 25th smallest / 25th largest for the
canonical 1000-rep study.

A draw, checked when it is built, holds each sample as its distinct counts.
A bootstrap draw (:func:`resample_draw`) resamples a source sample by
:func:`_distinct_resamples`; a simulation draw
(:func:`citefit.gof.simulation_draw`) draws from a model. So a chunk's
memory follows the distinct counts of its samples, not their size, and a
serial run holds at most ``SERIAL_BLOCK`` samples at once.

One failure rule holds for every study: a statistic fails a replicate by
returning NaN for it, never by raising (a citefit error it raises ends the
study). A non-finite value is recorded as NaN, excluded from the order
statistics and counted in ``n_failed`` (bounds become NaN if fewer than k
successes remain on a side).

Per-replicate seeds derive from (master seed, replicate index), so results
are identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from citefit.exceptions import DomainError
from citefit.sample import CitationSample, DistinctCounts, as_sample
from citefit.seeding import spawn_rng

MIN_REPS = 40   # the smallest reps with k = ceil(0.025 * reps) equal to 0.025 * reps
SERIAL_BLOCK = 256  # replicates per call of a serial run, which bounds its memory


@dataclass(frozen=True)
class StudySummary:
    """Median and order-statistic 95% interval of a replicated statistic.

    ``raw`` holds every replicate's value in order, NaN where it failed.
    """

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


def run_reps(draws, statistic, reps: int, workers: int) -> list[list]:
    """``[statistic(draw(range(reps))) for draw in draws]``, run in chunks of
    replicates, each by ``_statistic_reps``.

    A replicate's value must depend on its index alone, not on the range it
    came in. A serial run takes each draw in blocks of ``SERIAL_BLOCK``
    consecutive replicates. With ``workers > 1`` one process pool of at most
    ``os.cpu_count()`` workers runs them all, in about ``4 * workers`` tasks
    shared among the D draws: each draw's replicates go in ``ceil(4 *
    workers / D)`` chunks of consecutive replicates. That is chunks of
    ``reps // (4 * workers)`` for one draw, and one task per draw, its
    sample pickled once, when ``D >= 4 * workers``. Every draw's chunks are
    submitted before any result is read, so the pool stays busy across
    samples. The chunks follow the requested ``workers``, not the pool
    size, and the values depend on neither. The draws and the statistic
    must then be picklable (module-level functions or partials of them). A
    replicate that raises cancels the work still queued, and the exception
    propagates.
    """
    tasks = [partial(_statistic_reps, draw, statistic) for draw in draws]
    serial = workers <= 1 or not tasks
    chunksize = SERIAL_BLOCK if serial else max(1, reps // math.ceil(4 * workers / len(tasks)))
    chunks = [range(start, min(start + chunksize, reps))
              for start in range(0, reps, chunksize)]
    if serial:
        return [[value for values in map(task, chunks) for value in values] for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        try:
            pending = [pool.map(task, chunks, chunksize=1) for task in tasks]
            return [[value for chunk in values for value in chunk] for values in pending]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


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


def resample_draw(sample, size: int | None, seed: int):
    """The draw of a bootstrap study: replicates -> resamples of ``size``
    counts (None: the sample's size) of ``sample`` from ``seed``, checked
    before any replicate runs."""
    sample = as_sample(sample)
    if isinstance(sample, DistinctCounts):
        raise DomainError("a bootstrap study resamples a CitationSample, not DistinctCounts")
    size = len(sample) if size is None else int(size)
    if size < 1:
        raise DomainError("resample size must be >= 1")
    return partial(_distinct_resamples, sample, size, seed)


def _statistic_reps(draw, statistic, reps: range) -> list[float]:
    """The task of every chunk of replicates in :func:`run_reps`:
    ``statistic``, a batch function (one value per sample, NaN where it
    failed), of the samples ``draw`` makes for ``reps``."""
    return statistic(draw(reps))


def summarise(values, reps: int) -> StudySummary:
    """Median and order-statistic interval of the finite replicate values.

    Never raises: non-finite values count as failed and are stored as NaN,
    and with no finite value the median is NaN.
    """
    raw = tuple(v if math.isfinite(v) else math.nan for v in map(float, values))
    good = np.sort([v for v in raw if not math.isnan(v)])
    lo, hi = order_stat_bounds(good, reps)
    median = float(np.median(good)) if good.size else math.nan
    return StudySummary(median=median, lo95=lo, hi95=hi, reps=reps,
                        n_failed=len(raw) - good.size, raw=raw)

