"""Bootstrap engine: resampling semantics, the named batch statistics,
order-statistic intervals, failure accounting and worker independence."""

import math
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import citefit.bootstrap
from citefit import (
    AllStatisticsFailedError,
    CitationSample,
    CitefitError,
    DiscretisedLognormal,
    DomainError,
    EmptySampleError,
    FitStatus,
    ParameterError,
    TooFewRepsError,
    HookedPowerLaw,
    bootstrap_study,
    bootstrap_vuong_study,
    fit,
    fit_many,
    scale_ci_study,
    vuong,
)
from citefit.bootstrap import (
    _distinct_resamples,
    _statistic_reps,
    order_stat_bounds,
    resample_draw,
    run_reps,
    summarise,
)
from citefit.gof import simulation_draw
from citefit.sample import DistinctCounts, count_total
from citefit.seeding import child_seed, spawn_rng
from citefit.studies import BOOTSTRAP_STATISTICS, vuong_studies


def _draws(sample, size, seed, reps):
    """The raw counts of each resample of ``reps``, drawn as
    ``_distinct_resamples`` draws them."""
    return [sample.counts[spawn_rng(seed, rep).integers(0, len(sample), size=size)]
            for rep in reps]


def _one_resample(sample, size, seed, rep=0):
    [resample] = _distinct_resamples(sample, size, seed, range(rep, rep + 1))
    return resample


# Draws of plain values: run_reps(draws, list, ...) returns what they draw.
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
    boot = _one_resample(source, 200, seed=1)
    assert len(boot) == 200
    assert set(boot.values) <= set(source.counts)


def test_resample_constant_source():
    boot = _one_resample(CitationSample([7, 7, 7]), 50, seed=3)
    assert (boot.values.tolist(), boot.mult.tolist()) == ([7], [50])


def test_resample_two_point_support():
    outcomes = {tuple(np.repeat(boot.values, boot.mult))
                for boot in _distinct_resamples(CitationSample([2, 3]), 2, 0, range(40))}
    assert outcomes == {(2, 2), (2, 3), (3, 3)}  # all three occur, nothing else


def test_resample_deterministic():
    # a resample depends on (seed, rep) alone, not on the range it came in
    source = CitationSample([1, 4, 9, 16])
    a = _one_resample(source, 100, 5, rep=2)
    b = _distinct_resamples(source, 100, 5, range(4))[2]
    assert_array_equal(a.values, b.values)
    assert_array_equal(a.mult, b.mult)


def test_resample_empty_source_rejected():
    with pytest.raises(EmptySampleError):
        resample_draw(CitationSample([]), 5, 0)
    # an empty sample is rejected as empty before it is rejected as DistinctCounts
    empty = DistinctCounts(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    with pytest.raises(EmptySampleError, match="operation requires a non-empty sample"):
        resample_draw(empty, 5, 0)
    with pytest.raises(EmptySampleError):
        bootstrap_study(CitationSample([]), 40, "mean")


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
    for draws, distinct in zip(_draws(sample, size, 11, reps),
                               _distinct_resamples(sample, size, 11, reps)):
        values, mult = np.unique(draws, return_counts=True)
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
    vuong_studies([simulation_draw(HookedPowerLaw(3.94, 67.9), 100, 0)], 40)
    for name in BOOTSTRAP_STATISTICS:
        bootstrap_study(data, 40, name, size=100, seed=3)
    assert built == []
    CitationSample(data.counts[:10])    # the counter sees a sample that is built
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
    summary = bootstrap_study(data, 1000, "mean", seed=42)
    raw = np.sort(np.asarray(summary.raw))
    assert summary.lo95 == raw[24]
    assert summary.hi95 == raw[975]
    assert summary.lo95 <= summary.median <= summary.hi95
    assert summary.n_failed == 0


def test_bootstrap_study_constant_data_zero_width():
    summary = bootstrap_study(CitationSample([4] * 25), 100, "mean", seed=0)
    assert summary.lo95 == summary.median == summary.hi95 == 4.0


def test_bootstrap_study_median_even_length():
    # median of an even-length vector is the mean of the central pair
    data = CitationSample([1, 10])
    summary = bootstrap_study(data, 40, "mean", size=1, seed=12)
    values = np.sort(np.asarray(summary.raw))
    assert summary.median == (values[19] + values[20]) / 2.0


def test_bootstrap_study_rejects_too_few_reps():
    data = CitationSample([1, 2, 3])
    with pytest.raises(TooFewRepsError):
        bootstrap_study(data, 39, "mean", seed=0)
    bootstrap_study(data, 40, "mean", seed=0)  # boundary accepted


def test_bootstrap_study_rejects_an_unknown_statistic():
    data = CitationSample([1, 2, 3])
    with pytest.raises(ParameterError, match="unknown statistic 'mode'"):
        bootstrap_study(data, 40, "mode", seed=0)


def test_bootstrap_study_all_failures():
    # every resample of a constant sample has one distinct count: no fit
    with pytest.raises(AllStatisticsFailedError, match="lognormal-sigma"):
        bootstrap_study(CitationSample([4] * 25), 40, "lognormal-sigma", seed=0)


def test_bootstrap_study_counts_partial_failures():
    # a size-5 resample of this sample fails exactly when it is all ones
    data = CitationSample([1] * 30 + [2])
    summary = bootstrap_study(data, 200, "lognormal-sigma", size=5, seed=9)
    flat = [r.values.size == 1 for r in _distinct_resamples(data, 5, 9, range(200))]
    assert 0 < summary.n_failed < 200
    assert [math.isnan(v) for v in summary.raw] == flat
    assert all(v > 0.0 and math.isfinite(v) for v in summary.raw if not math.isnan(v))


def test_bootstrap_study_worker_independence():
    data = CitationSample(DiscretisedLognormal(2.0, 1.0).sample(400, 2))
    a = bootstrap_study(data, 40, "mean", seed=5, workers=1)
    b = bootstrap_study(data, 40, "mean", seed=5, workers=3)
    assert a == b


def test_bootstrap_study_seed_sensitivity():
    data = CitationSample(DiscretisedLognormal(2.0, 1.0).sample(400, 2))
    a = bootstrap_study(data, 40, "mean", seed=5)
    b = bootstrap_study(data, 40, "mean", seed=6)
    assert a.median != b.median


def test_bootstrap_study_worker_independence_with_failures():
    # most size-5 resamples of this sample are all ones, which no fit identifies
    data = CitationSample([1] * 30 + [2])
    a = bootstrap_study(data, 40, "lognormal-sigma", size=5, seed=0, workers=1)
    b = bootstrap_study(data, 40, "lognormal-sigma", size=5, seed=0, workers=2)
    assert 0 < a.n_failed < 40
    assert a == b


def test_bootstrap_study_and_vuong_study_share_one_runner():
    data = CitationSample(HookedPowerLaw(3.94, 67.9).sample(300, 1))
    generic = bootstrap_study(data, 40, "vuong-z", seed=12)
    study = bootstrap_vuong_study(data, 40, seed=12)
    assert study.z_summary == generic


def _per_resample(name, counts) -> float:
    """Statistic ``name`` of one resample's raw counts, computed on its own."""
    if name == "mean":
        return float(np.mean(counts))
    if name == "median":
        return float(np.median(counts))
    sample = CitationSample(counts)
    if name == "vuong-z":
        ln, hk = fit("lognormal", sample), fit("hooked", sample)
        if (ln.status, hk.status) != (FitStatus.CONVERGED, FitStatus.CONVERGED):
            return math.nan
        try:
            return vuong(hk.model, ln.model, sample).z
        except CitefitError:
            return math.nan
    family, param = name.split("-")
    result = fit(family, sample)
    return float(getattr(result.model, param)) if result.usable else math.nan


# totals stay below 2**53 (80 draws of at most 2**40), where np.mean is exact
_COUNTS = st.lists(st.one_of(st.integers(1, 60), st.integers(1, 2 ** 40)),
                   min_size=1, max_size=40)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(counts=_COUNTS, size=st.integers(1, 80), seed=st.integers(0, 2 ** 32),
       start=st.integers(0, 10 ** 6))
def test_batch_statistics_equal_the_per_resample_values(counts, size, seed, start):
    sample = CitationSample(counts)
    reps = range(start, start + 3)
    draws = _draws(sample, size, seed, reps)
    for name, statistic in BOOTSTRAP_STATISTICS.items():
        got = _statistic_reps(resample_draw(sample, size, seed), statistic, reps)
        want = [_per_resample(name, d) for d in draws]
        assert [v.hex() for v in got] == [v.hex() for v in want], name


# a statistic reads a sample through unique_counts, so a CitationSample
# gives the bits of its DistinctCounts (odd and even sizes for the median)
@pytest.mark.parametrize("name", list(BOOTSTRAP_STATISTICS))
def test_statistics_read_a_sample_and_its_distinct_counts_alike(name):
    counts = HookedPowerLaw(3.94, 67.9).sample(101, 5)
    samples = [CitationSample(counts), CitationSample(counts[:100])]
    distinct = [DistinctCounts(*sample.unique_counts) for sample in samples]
    statistic = BOOTSTRAP_STATISTICS[name]
    assert ([v.hex() for v in statistic(samples)]
            == [v.hex() for v in statistic(distinct)])


@pytest.mark.parametrize("counts,size", [
    ([2 ** 62, 2 ** 62 + 1, 3], 40),     # the int64 total overflows
    ([2 ** 53 - 1, 2 ** 52 + 1, 7], 40),  # totals from 2**53 to 2**59
    ([2 ** 60, 1], 7),
])
def test_mean_of_a_large_total_is_the_correctly_rounded_exact_mean(counts, size):
    sample = CitationSample(counts)
    reps = range(100)
    exact = [float(Fraction(sum(map(int, d)), size)) for d in _draws(sample, size, 4, reps)]
    got = _statistic_reps(resample_draw(sample, size, 4), BOOTSTRAP_STATISTICS["mean"],
                          reps)
    assert [v.hex() for v in got] == [v.hex() for v in exact]


def test_count_total_is_exact_past_int64():
    values, mult = np.array([3, 2 ** 62, 2 ** 62 + 1]), np.array([4, 4, 4])
    assert count_total(values, mult) == 4 * (3 + 2 ** 62 + 2 ** 62 + 1)
    assert count_total(np.array([5, 9]), np.array([2, 3])) == 37


@pytest.mark.parametrize("study", [partial(bootstrap_study, statistic="mean"),
                                   bootstrap_vuong_study], ids=["bootstrap", "vuong"])
def test_bootstrap_studies_reject_distinct_counts(study):
    # a resample draws from the raw counts, which DistinctCounts does not keep
    counts = DistinctCounts(np.array([1, 2, 5]), np.array([3, 4, 2]))
    with pytest.raises(DomainError, match="CitationSample"):
        study(counts, 40)


@pytest.mark.parametrize("call,error,message", [
    (lambda: resample_draw(CitationSample([1, 2]), 0, 0), DomainError,
     "resample size must be >= 1"),
    (lambda: spawn_rng(-1, 0), ValueError, "master seed must be non-negative, got -1"),
    (lambda: child_seed(-1, 2), ValueError, "master seed must be non-negative, got -1"),
], ids=["resample-size", "spawn_rng", "child_seed"])
def test_draw_inputs_are_checked_before_any_replicate(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_summarise_counts_non_finite_values_as_failed():
    summary = summarise([math.nan, math.inf, -math.inf], 40)
    assert summary.n_failed == 3
    assert math.isnan(summary.median)
    assert math.isnan(summary.lo95) and math.isnan(summary.hi95)
    assert all(math.isnan(v) for v in summary.raw) and len(summary.raw) == 3
    mixed = summarise([2.0, math.inf, 1.0], 40)
    assert (mixed.median, mixed.n_failed) == (1.5, 1)


# affinity None: a platform without os.sched_getaffinity, capped at os.cpu_count()
@pytest.mark.parametrize("affinity,cpus,workers,pool_size", [
    (2, 8, 64, 2), (8, 8, 3, 3), (1, 2, 2, 1), (None, 2, 64, 2), (None, None, 4, 1),
])
def test_one_pool_capped_at_the_usable_cpus(monkeypatch, inline_pools, affinity, cpus,
                                            workers, pool_size):
    if affinity is None:
        monkeypatch.delattr(citefit.bootstrap.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(citefit.bootstrap.os, "sched_getaffinity",
                            lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr(citefit.bootstrap.os, "cpu_count", lambda: cpus)
    values = run_reps([partial(_power, 1), partial(_power, 2), _chunk_start], list, 40,
                      workers)
    assert values[:2] == [list(range(40)), [r * r for r in range(40)]]
    assert [pool.max_workers for pool in inline_pools] == [pool_size]
    # chunking follows the requested workers, whatever the machine
    chunk = max(1, 40 // math.ceil(4 * workers / 3))
    assert values[2] == [r - r % chunk for r in range(40)]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_raising_replicate_propagates(workers):
    with pytest.raises(RuntimeError, match="broke"):
        run_reps([_raises, partial(_power, 1)], list, 40, workers)


def test_a_raising_replicate_cancels_the_queued_work(inline_pools):
    with pytest.raises(RuntimeError, match="broke"):
        run_reps([_raises, partial(_power, 1)], list, 40, 2)
    assert inline_pools[0].cancelled


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_uneven_chunks_give_every_worker_count_the_same_values(workers):
    values = run_reps([partial(_power, 2), _chunk_start], list, 41, workers)
    assert values[0] == [r * r for r in range(41)]
    # one range when serial; otherwise chunks of 41 // ceil(4 * workers / 2),
    # the last one shorter
    chunk = 41 if workers == 1 else 41 // math.ceil(4 * workers / 2)
    assert values[1] == [r - r % chunk for r in range(41)]
    with pytest.raises(RuntimeError, match="replicate 40 broke"):
        run_reps([partial(_power, 1), partial(_raises_at, 40)], list, 41, workers)


def test_a_serial_run_goes_in_blocks_of_replicates():
    values = run_reps([partial(_power, 1), _chunk_start], list, 600, 1)
    assert values[0] == list(range(600))
    block = citefit.bootstrap.SERIAL_BLOCK
    assert values[1] == [r - r % block for r in range(600)]


def _bootstrap_peak(sample, reps):
    tracemalloc.start()
    try:
        bootstrap_study(sample, reps, "mean", seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_serial_study_memory_follows_the_block_not_the_reps():
    # about 2,500 distinct counts per resample: one block of 256 resamples
    # holds about 10 MB; all 1024 at once held 40 MiB
    sample = CitationSample(3 * np.arange(1, 4001))
    assert _bootstrap_peak(sample, 1024) < 1.5 * _bootstrap_peak(sample, 256)


@pytest.mark.parametrize("workers", [2, 3])
def test_one_function_keeps_chunks_of_reps_over_four_workers(inline_pools, workers):
    run_reps([partial(_power, 1)], list, 41, workers)
    chunk = 41 // (4 * workers)
    assert inline_pools[0].submitted == [[range(start, min(start + chunk, 41))
                                          for start in range(0, 41, chunk)]]


@pytest.mark.parametrize("workers,functions", [(2, 8), (2, 23), (3, 12)])
def test_four_functions_per_worker_get_one_task_each(inline_pools, workers, functions):
    values = run_reps([partial(_power, k) for k in range(functions)], list, 50, workers)
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
