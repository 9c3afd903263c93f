"""Bootstrap engine: resampling semantics, order-statistic intervals,
failure accounting and worker independence."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import citefit.bootstrap
from citefit import (
    AllStatisticsFailedError,
    CitationSample,
    DegenerateDataError,
    DiscretisedLognormal,
    EmptySampleError,
    FitStatus,
    TooFewRepsError,
    HookedPowerLaw,
    bootstrap_study,
    bootstrap_vuong_study,
    fit_many,
    resample,
    scale_ci_study,
    simulation_study,
)
from citefit.bootstrap import (
    _distinct_resamples,
    _resample_with,
    order_stat_bounds,
    run_reps,
    summarise,
)
from citefit.seeding import spawn_rng
from citefit.studies import fitted_lognormal_sigma, hooked_vs_lognormal_z


def _mean(sample):
    return float(np.mean(sample.counts))


def _always_fails(sample):
    raise DegenerateDataError("nope")


def _fails_on_small_mean(sample):
    value = float(np.mean(sample.counts))
    if value < 2.5:
        raise DegenerateDataError("below threshold")
    return value


def _power(exponent, reps):
    return [rep ** exponent for rep in reps]


def _chunk_start(reps):
    return [reps.start] * len(reps)


def _raises(reps):
    raise RuntimeError(f"replicates {reps} broke")


def _raises_at(bad, reps):
    if bad in reps:
        raise RuntimeError(f"replicate {bad} broke")
    return list(reps)


@pytest.fixture()
def inline_pools(monkeypatch):
    """Replace the process pool with a recorder that runs every call inline."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            # submitted: the chunks of each map call
            self.max_workers, self.submitted, self.cancelled = max_workers, [], False
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            self.submitted.append(list(items))
            return map(fn, items)

        def shutdown(self, wait=True, cancel_futures=False):
            self.cancelled = self.cancelled or cancel_futures

    monkeypatch.setattr(citefit.bootstrap, "ProcessPoolExecutor", InlinePool)
    return pools


def test_resample_membership_and_size():
    source = CitationSample([2, 3, 5, 8, 13], label="src")
    boot = resample(source, 200, seed=1)
    assert len(boot) == 200
    assert set(boot.counts) <= set(source.counts)
    assert boot.label == "src"


def test_resample_constant_source():
    boot = resample(CitationSample([7, 7, 7]), 50, seed=3)
    assert np.all(boot.counts == 7)


def test_resample_two_point_support():
    outcomes = set()
    for seed in range(40):
        boot = resample(CitationSample([2, 3]), 2, seed=seed)
        outcomes.add(tuple(sorted(boot.counts)))
    assert outcomes <= {(2, 2), (2, 3), (3, 3)}
    assert outcomes == {(2, 2), (2, 3), (3, 3)}  # all three occur


def test_resample_deterministic():
    source = CitationSample([1, 4, 9, 16])
    assert_array_equal(resample(source, 100, 5).counts,
                       resample(source, 100, 5).counts)


def test_resample_empty_source_rejected():
    with pytest.raises(EmptySampleError):
        resample(CitationSample([]), 5, 0)


_LOGNORMAL_300 = DiscretisedLognormal(2.0, 1.0).sample(300, 4)


@pytest.mark.parametrize("counts,size", [
    (_LOGNORMAL_300, 50),
    (_LOGNORMAL_300, 1000),
    ([7], 5),
    ([4] * 25, 25),
    ([2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1, 2 ** 62 + 2, 3], 40),
])
def test_distinct_resamples_are_unique_counts_of_the_resamples(counts, size):
    sample = CitationSample(counts)
    reps = range(3, 9)
    for rep, distinct in zip(reps, _distinct_resamples(sample, size, 11, reps)):
        values, mult = np.unique(_resample_with(sample, size, spawn_rng(11, rep)).counts,
                                 return_counts=True)
        assert_array_equal(distinct.values, values)
        assert_array_equal(distinct.mult, mult)
        assert (distinct.values.dtype, distinct.mult.dtype) == (values.dtype, mult.dtype)
        assert len(distinct) == size


def test_all_equal_distinct_resamples_fit_degenerate_and_fail():
    flat = CitationSample([4] * 25)
    for family in ("lognormal", "hooked"):
        fits = fit_many(family, _distinct_resamples(flat, 25, 0, range(3)))
        assert [result.status for result in fits] == [FitStatus.DEGENERATE] * 3
    study = bootstrap_vuong_study(flat, 40, seed=0)
    assert (study.failed, study.z_summary.n_failed) == (40, 40)


def test_vuong_and_scale_replicates_build_no_citation_sample(monkeypatch):
    data = CitationSample(HookedPowerLaw(3.94, 67.9).sample(300, 1))
    built = []
    init = CitationSample.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CitationSample, "__init__", counting_init)
    bootstrap_vuong_study(data, 40, seed=2)
    scale_ci_study([data], reps=40, size=100)
    simulation_study(HookedPowerLaw(3.94, 67.9), 100, reps=40)
    assert built == []
    resample(data, 10, 0)    # the counter sees a resample that is built
    assert len(built) == 1


def test_order_stat_bounds_canonical_k():
    raw = np.sort(np.random.default_rng(0).normal(size=1000))
    lo, hi = order_stat_bounds(raw, 1000)
    assert lo == raw[24]     # 25th smallest
    assert hi == raw[975]    # 25th largest
    lo40, hi40 = order_stat_bounds(np.sort(raw[:40]), 40)
    assert lo40 == np.sort(raw[:40])[0]
    assert hi40 == np.sort(raw[:40])[-1]


def test_bootstrap_study_reproduces_order_stats():
    data = CitationSample(DiscretisedLognormal(2.0, 1.0).sample(800, 11))
    summary = bootstrap_study(data, 1000, _mean, seed=42)
    raw = np.sort(np.asarray(summary.raw))
    assert summary.lo95 == raw[24]
    assert summary.hi95 == raw[975]
    assert summary.lo95 <= summary.median <= summary.hi95
    assert summary.n_failed == 0


def test_bootstrap_study_constant_data_zero_width():
    summary = bootstrap_study(CitationSample([4] * 25), 100, _mean, seed=0)
    assert summary.lo95 == summary.median == summary.hi95 == 4.0


def test_bootstrap_study_median_even_length():
    # median of an even-length vector is the mean of the central pair
    data = CitationSample([1, 10])
    summary = bootstrap_study(data, 40, _mean, size=1, seed=12)
    values = np.sort(np.asarray(summary.raw))
    assert summary.median == (values[19] + values[20]) / 2.0


def test_bootstrap_study_rejects_too_few_reps():
    data = CitationSample([1, 2, 3])
    with pytest.raises(TooFewRepsError):
        bootstrap_study(data, 39, _mean, seed=0)
    bootstrap_study(data, 40, _mean, seed=0)  # boundary accepted


def test_bootstrap_study_all_failures():
    data = CitationSample([1, 2, 3])
    with pytest.raises(AllStatisticsFailedError):
        bootstrap_study(data, 40, _always_fails, seed=0)


def test_bootstrap_study_counts_partial_failures():
    data = CitationSample([1, 2, 3, 4])
    summary = bootstrap_study(data, 200, _fails_on_small_mean, size=4, seed=9)
    assert summary.n_failed > 0
    assert summary.n_failed < 200
    good = [v for v in summary.raw if not math.isnan(v)]
    assert len(good) + summary.n_failed == 200
    assert all(v >= 2.5 for v in good)


def test_bootstrap_study_worker_independence():
    data = CitationSample(DiscretisedLognormal(2.0, 1.0).sample(400, 2))
    a = bootstrap_study(data, 40, _mean, seed=5, workers=1)
    b = bootstrap_study(data, 40, _mean, seed=5, workers=3)
    assert a == b


def test_bootstrap_study_seed_sensitivity():
    data = CitationSample(DiscretisedLognormal(2.0, 1.0).sample(400, 2))
    a = bootstrap_study(data, 40, _mean, seed=5)
    b = bootstrap_study(data, 40, _mean, seed=6)
    assert a.median != b.median


def test_bootstrap_study_worker_independence_with_failures():
    # most size-5 resamples of this sample are all ones, which no fit identifies
    data = CitationSample([1] * 30 + [2])
    a = bootstrap_study(data, 40, fitted_lognormal_sigma, size=5, seed=0, workers=1)
    b = bootstrap_study(data, 40, fitted_lognormal_sigma, size=5, seed=0, workers=2)
    assert 0 < a.n_failed < 40
    assert a == b


def test_bootstrap_study_and_vuong_study_share_one_runner():
    data = CitationSample(HookedPowerLaw(3.94, 67.9).sample(300, 1))
    generic = bootstrap_study(data, 40, hooked_vs_lognormal_z, seed=12)
    study = bootstrap_vuong_study(data, 40, seed=12)
    assert replace(study.z_summary, statistic_name=generic.statistic_name) == generic


def test_summarise_counts_non_finite_values_as_failed():
    summary = summarise([math.nan, math.inf, -math.inf], 40, "z")
    assert summary.n_failed == 3
    assert math.isnan(summary.median)
    assert math.isnan(summary.lo95) and math.isnan(summary.hi95)
    assert all(math.isnan(v) for v in summary.raw) and len(summary.raw) == 3
    mixed = summarise([2.0, math.inf, 1.0], 40, "z")
    assert (mixed.median, mixed.n_failed) == (1.5, 1)


@pytest.mark.parametrize("cpus,workers,pool_size", [(2, 64, 2), (8, 3, 3), (None, 4, 1)])
def test_one_pool_capped_at_the_core_count(monkeypatch, inline_pools, cpus, workers,
                                           pool_size):
    monkeypatch.setattr(citefit.bootstrap.os, "cpu_count", lambda: cpus)
    values = run_reps([partial(_power, 1), partial(_power, 2), _chunk_start], 40, workers)
    assert values[:2] == [list(range(40)), [r * r for r in range(40)]]
    assert [pool.max_workers for pool in inline_pools] == [pool_size]
    # chunking follows the requested workers, whatever the machine
    chunk = max(1, 40 // math.ceil(4 * workers / 3))
    assert values[2] == [r - r % chunk for r in range(40)]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_raising_replicate_propagates(workers):
    with pytest.raises(RuntimeError, match="broke"):
        run_reps([_raises, partial(_power, 1)], 40, workers)


def test_a_raising_replicate_cancels_the_queued_work(inline_pools):
    with pytest.raises(RuntimeError, match="broke"):
        run_reps([_raises, partial(_power, 1)], 40, 2)
    assert inline_pools[0].cancelled


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_uneven_chunks_give_every_worker_count_the_same_values(workers):
    values = run_reps([partial(_power, 2), _chunk_start], 41, workers)
    assert values[0] == [r * r for r in range(41)]
    # one range when serial; otherwise chunks of 41 // ceil(4 * workers / 2),
    # the last one shorter
    chunk = 41 if workers == 1 else 41 // math.ceil(4 * workers / 2)
    assert values[1] == [r - r % chunk for r in range(41)]
    with pytest.raises(RuntimeError, match="replicate 40 broke"):
        run_reps([partial(_power, 1), partial(_raises_at, 40)], 41, workers)


@pytest.mark.parametrize("workers", [2, 3])
def test_one_function_keeps_chunks_of_reps_over_four_workers(inline_pools, workers):
    run_reps([partial(_power, 1)], 41, workers)
    chunk = 41 // (4 * workers)
    assert inline_pools[0].submitted == [[range(start, min(start + chunk, 41))
                                          for start in range(0, 41, chunk)]]


@pytest.mark.parametrize("workers,functions", [(2, 8), (2, 23), (3, 12)])
def test_four_functions_per_worker_get_one_task_each(inline_pools, workers, functions):
    values = run_reps([partial(_power, k) for k in range(functions)], 50, workers)
    assert values == [[r ** k for r in range(50)] for k in range(functions)]
    assert inline_pools[0].submitted == [[range(50)]] * functions


def test_scale_study_rows_equal_for_every_worker_count(inline_pools):
    samples = [CitationSample(DiscretisedLognormal(1.0 + 0.3 * i, 0.8).sample(120, i),
                              label=f"s{i}") for i in range(5)]
    rows = [scale_ci_study(samples, reps=41, size=60, seed=3, workers=workers)
            for workers in (1, 2, 3)]
    assert rows[0] == rows[1] == rows[2]
    assert all(row["failed"] == 0 for row in rows[0])
    # ceil(4 * workers / 5) chunks per sample: 41 // 2 = 20 and 41 // 3 = 13 reps
    assert [[len(chunks) for chunks in pool.submitted] for pool in inline_pools] == [
        [3] * 5, [4] * 5]
