"""KS statistic, Monte-Carlo p-values and shape classification."""

import dataclasses
import pickle
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citefit import (
    CitationSample,
    DiscretisedLognormal,
    DomainError,
    EmptySampleError,
    FitFailedError,
    FitStatus,
    HookedPowerLaw,
    Mixture,
    fit,
    fit_many,
    ks_p_value,
    ks_statistic,
    ks_test_fixed,
    plausibility_row,
    shape_classify,
    shape_table,
)
from citefit import gof
from citefit.gof import EQUAL, PLUS, cdf_breakpoints, empirical_cdf
from citefit.io import render_plot_data, render_report
from citefit.sample import as_sample
from citefit.seeding import child_seed, spawn_rng


class _MatchingModel:
    """Mock whose CDF equals the empirical CDF of a given sample."""

    def __init__(self, sample):
        self._sample = sample

    def cdf(self, x):
        return empirical_cdf(self._sample, np.atleast_1d(np.asarray(x)))


def test_ks_zero_when_cdfs_match():
    sample = CitationSample([1, 1, 1])
    assert ks_statistic(_MatchingModel(sample), sample) == 0.0
    sample = CitationSample([1, 2, 2, 7])
    assert ks_statistic(_MatchingModel(sample), sample) == 0.0


def test_ks_oracle_two_point_sample():
    d = ks_statistic(HookedPowerLaw(2.0, 1.0), CitationSample([1, 2]))
    assert d == pytest.approx(0.4401, abs=1e-4)


def test_ks_invariant_under_sample_duplication():
    model = HookedPowerLaw(2.0, 1.0)
    base = CitationSample([1, 2, 2, 5, 9])
    dup = CitationSample(np.repeat(base.counts, 4))
    assert ks_statistic(model, base) == ks_statistic(model, dup)


def test_ks_bounds():
    model = DiscretisedLognormal(2.0, 1.0)
    data = CitationSample(model.sample(500, 0))
    d = ks_statistic(model, data)
    assert 0.0 <= d <= 1.0


_MODELS = st.one_of(
    st.builds(HookedPowerLaw, st.floats(1.05, 6.0), st.floats(0.05, 80.0)),
    st.builds(DiscretisedLognormal, st.floats(-1.0, 5.0), st.floats(0.2, 3.0)),
    st.builds(lambda a, b, mu, sigma, w: Mixture(
        [HookedPowerLaw(a, b), DiscretisedLognormal(mu, sigma)], [w, 1.0 - w]),
        st.floats(1.2, 4.0), st.floats(0.5, 30.0), st.floats(0.0, 4.0),
        st.floats(0.3, 2.5), st.floats(0.05, 0.95)),
)
_COUNTS = st.lists(st.one_of(st.integers(1, 12), st.integers(1, 5000)),
                   min_size=1, max_size=300)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(model=_MODELS, counts=_COUNTS)
def test_ks_at_breakpoints_equals_dense_maximum(model, counts):
    # the breakpoint maximum reads the same floats as the maximum over
    # every integer 1..max(sample), so it agrees bit for bit
    sample = CitationSample(counts)
    dense = np.arange(1, max(counts) + 1)
    reference = float(np.abs(model.cdf(dense) - empirical_cdf(sample, dense)).max())
    assert ks_statistic(model, sample).hex() == reference.hex()
    distinct = np.unique(counts)
    x, _, _ = cdf_breakpoints(model, sample)
    np.testing.assert_array_equal(x, np.union1d(distinct[distinct > 1] - 1, distinct))


def test_ks_on_draws_at_the_count_ceiling():
    # many of these draws are far beyond 2**23; the largest is 2**62
    model = HookedPowerLaw(1.05, 0.5)
    draws = model.sample(2000, 3)
    assert draws.max() == 2 ** 62
    assert 0.0 <= ks_statistic(model, draws) <= 1.0


_LN = DiscretisedLognormal(2.0, 1.1)
_HOOKED_WIDE = HookedPowerLaw(1.05, 0.5)
_MIX = Mixture((DiscretisedLognormal(0.5, 0.7), HookedPowerLaw(6.0, 2.0)), (0.4, 0.6))


# D and p as recorded before the simulations were read off sorted draws.
# The hooked draws reach the 2**62 ceiling.
@pytest.mark.parametrize("run,d_hex,p_hex", [
    (lambda: ks_test_fixed(_LN, _LN.sample(300, 7), n_sim=39, seed=3),
     "0x1.200e5ec3ae580p-5", "0x1.6666666666666p-1"),
    (lambda: ks_test_fixed(_HOOKED_WIDE, _HOOKED_WIDE.sample(8, 2), n_sim=19, seed=4),
     "0x1.4e51dc74f16b0p-2", "0x1.3333333333333p-2"),
    (lambda: ks_test_fixed(_MIX, _MIX.sample(150, 5), n_sim=29, seed=6),
     "0x1.16955f51f0e80p-5", "0x1.bbbbbbbbbbbbcp-2"),
    (lambda: ks_test_fixed(_LN, [5], n_sim=19, seed=8),
     "0x1.386a794092dd8p-1", "0x1.8000000000000p-1"),
    (lambda: ks_p_value("lognormal", _LN.sample(300, 7), n_sim=19, seed=9),
     "0x1.1705950cb1c30p-5", "0x1.6666666666666p-1"),
    (lambda: ks_p_value("hooked", _LN.sample(300, 7)[:120], n_sim=9, seed=10, refit=True),
     "0x1.56ddf08c33350p-5", "0x1.3333333333333p-1"),
    (lambda: ks_p_value("lognormal", _LN.sample(300, 7)[:120], n_sim=9, seed=11, refit=True),
     "0x1.09a8321382490p-5", "0x1.ccccccccccccdp-1"),
], ids=["lognormal", "hooked-to-the-ceiling", "mixture", "n1", "fitted", "refit-hooked",
        "refit-lognormal"])
def test_mc_ks_is_pinned(run, d_hex, p_hex):
    result = run()
    assert (result.ks_stat.hex(), result.p_value.hex()) == (d_hex, p_hex)


# Draws saturate at 2**62, so every KS read takes F as 1 there. Read as the
# model's own F(2**62) of about 0.883, each of these samples and every one of
# its simulations had D = 1 - F(2**62) and p = 1.0; a lognormal sample is
# rejected either way.
def test_mc_ks_reads_the_drawn_law_at_the_ceiling():
    samples = [_HOOKED_WIDE.sample(200, s) for s in range(1, 8)]
    assert all(sample.max() == 2 ** 62 for sample in samples)
    results = [ks_test_fixed(_HOOKED_WIDE, sample, n_sim=19, seed=4) for sample in samples]
    assert (results[0].ks_stat.hex(), results[0].p_value.hex()) == (
        "0x1.84b19c9d429fcp-5", "0x1.ccccccccccccdp-1")
    assert [r.p_value for r in results] == [0.9, 1.0, 0.9, 0.1, 0.85, 0.3, 0.95]
    other = ks_test_fixed(_HOOKED_WIDE, DiscretisedLognormal(2.0, 1.0).sample(200, 1),
                          n_sim=19, seed=4)
    assert (other.ks_stat.hex(), other.p_value) == ("0x1.9a5feac795ab8p-1", 1 / 20)


def _exact_ks_tails(model, n: int, d: float) -> np.ndarray:
    """P(D >= d) and P(D > d) for the KS distance D of n draws of ``model``
    (Conover, JASA 67(339), 1972): a dynamic programme over x = 1, 2, ...
    whose state is c, the count of draws <= x. Given c at x - 1, the n - c
    draws above x - 1 land on x independently with q = p(x) / (1 - F(x - 1)),
    and a path survives while |c/n - F(x)| stays below (or at) d, read in
    the floats ``ks_statistic`` reads. It stops where 1 - F < 1e-12."""
    f = model.cdf(np.arange(1, model.quantile(1.0 - 1e-12) + 1))
    c = np.arange(n + 1)
    step, left, at_most = c - c[:, None], (n - c)[:, None], c / n
    alive = np.zeros((2, n + 1))    # rows: |gap| < d, |gap| <= d on every x so far
    alive[:, 0] = 1.0
    f_prev = 0.0
    for f_x in f:
        q = min(1.0, (f_x - f_prev) / (1.0 - f_prev))
        alive = alive @ scipy.stats.binom.pmf(step, left, q)
        gap = np.abs(f_x - at_most)
        alive[0, gap >= d] = 0.0
        alive[1, gap > d] = 0.0
        f_prev = f_x
    return 1.0 - alive.sum(axis=1)


# The fixed-null Monte-Carlo count r of simulations with D >= d_obs is
# Binomial(n_sim, P(D >= d_obs)), the tie mass P(D = d_obs) included by the
# rule "ties count as >=". The second sample puts P(D >= d_obs) near 0.05,
# where a small bias in the count or a wrong tie rule moves the test's verdict.
@pytest.mark.parametrize("sample_seed,p_ge_exact,tie_mass",
                         [(1, 0.7316, 0.0216), (53, 0.0549, 0.0062)],
                         ids=["typical", "near_rejection"])
def test_mc_ks_count_matches_the_exact_discrete_law(sample_seed, p_ge_exact, tie_mass):
    model = DiscretisedLognormal(1.0, 0.8)
    sample = model.sample(50, sample_seed)
    d_obs = ks_statistic(model, sample)
    p_ge, p_gt = _exact_ks_tails(model, 50, d_obs)
    assert p_ge == pytest.approx(p_ge_exact, abs=1e-4)
    assert p_ge - p_gt == pytest.approx(tie_mass, abs=1e-4)
    lo, hi = scipy.stats.binom.interval(1 - 1e-4, 4000, p_ge)
    for seed in (0, 1, 2):
        r = round(ks_test_fixed(model, sample, n_sim=4000, seed=seed).p_value * 4001) - 1
        assert lo <= r <= hi


def _one_simulation_at_a_time(model, n, seed, reps, family=None):
    """KS statistic (hex) of each simulation in ``reps``, drawn, sorted and
    tested on its own against ``model`` or, with ``family``, against its own
    fit when usable; on an unpickled copy of ``model``."""
    model = pickle.loads(pickle.dumps(model))
    sims = [np.sort(model._quantile_array(spawn_rng(seed, i).random(n))[0]) for i in reps]
    nulls = [model] * len(sims)
    if family is not None:
        nulls = [f.model if f.usable else model for f in (fit(family, sim) for sim in sims)]
    return [ks_statistic(null, sim).hex() for null, sim in zip(nulls, sims)]


# A budget below n draws gives one simulation per block; the others split
# ``reps`` into blocks of several simulations, the last one partial.
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(model=_MODELS, n=st.integers(1, 400), seed=st.integers(0, 2 ** 32),
       first=st.integers(1, 40), count=st.integers(1, 25),
       budget=st.sampled_from([1, 3, 100, 1000, 1 << 16]))
# draws up to the 2**62 ceiling
@example(model=_HOOKED_WIDE, n=8, seed=4, first=1, count=5, budget=20)
# every row is all ones
@example(model=DiscretisedLognormal(-1.0, 0.2), n=50, seed=0, first=3, count=4, budget=120)
# one count per row, often equal to the previous row's
@example(model=DiscretisedLognormal(0.3, 0.4), n=1, seed=5, first=1, count=30, budget=7)
def test_block_pass_is_one_simulation_at_a_time(model, n, seed, first, count, budget):
    reps = range(first, first + count)
    expected = _one_simulation_at_a_time(model, n, seed, reps)
    with mock.patch.object(gof, "_BLOCK_DRAWS", budget):
        got = gof._mc_ks_reps(model, n, seed, None, reps)
    assert [d.hex() for d in got] == expected


# Fixed-mode KS reads F where the quantile pass read it, at each distinct
# count v and v - 1, unless a start in the block missed. The lognormal's
# starts all hit; a mixture starts at its smallest component start, so some
# start misses in every block, and the wide hooked law's draws reach the
# 2**62 ceiling, where starts miss in most blocks but not all.
@pytest.mark.parametrize("model,n,budget,blocks,handed", [
    (_LN, 60, 130, 9, 9),
    (HookedPowerLaw(2.5, 12.0), 250, 1 << 16, 1, 1),
    (_MIX, 25, 90, 6, 0),
    (_HOOKED_WIDE, 8, 20, 9, 2),
])
def test_fixed_ks_reads_f_once(model, n, budget, blocks, handed):
    reps = range(3, 20)
    expected, f_handed = [], 0
    with mock.patch.object(gof, "_BLOCK_DRAWS", budget):
        got = gof._mc_ks_reps(model, n, 5, None, reps)
        counts = list(gof._simulated_counts(model, n, 5, reps))
    for v, mult, f in counts:
        x, emp_cdf, x_starts, f_x = gof._breakpoints(v, mult, n, f)
        f_read = model._cdf_at(x)
        if f_x is not None:
            f_handed += 1
            assert f_x.tolist() == f_read.tolist()
        expected += np.maximum.reduceat(np.abs(gof._drawn_cdf(x, f_read) - emp_cdf),
                                        x_starts).tolist()
    assert (len(counts), f_handed) == (blocks, handed)
    assert [d.hex() for d in got] == [d.hex() for d in expected]


@pytest.mark.parametrize("family,model,n,reps,budget", [
    ("lognormal", _LN, 60, range(2, 9), 130),
    ("hooked", HookedPowerLaw(2.5, 12.0), 40, range(1, 8), 90),
    ("hooked", _MIX, 25, range(4, 10), 1 << 16),
    # all ones: every refit is degenerate and falls back to the model
    ("lognormal", DiscretisedLognormal(-1.0, 0.2), 20, range(1, 4), 50),
])
def test_refit_block_pass_is_one_simulation_at_a_time(family, model, n, reps, budget):
    expected = _one_simulation_at_a_time(model, n, 11, reps, family)
    with mock.patch.object(gof, "_BLOCK_DRAWS", budget):
        got = gof._mc_ks_reps(model, n, 11, partial(fit_many, family), reps)
    assert [d.hex() for d in got] == expected


# Every block budget, path and family draws each simulation as np.unique of
# its own draws; a budget below n gives one simulation per block.
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(model=_MODELS, n=st.integers(1, 400), seed=st.integers(0, 2 ** 32),
       first=st.integers(0, 40), count=st.integers(1, 25),
       path=st.sampled_from([(), (0,), (1,)]),
       budget=st.sampled_from([1, 3, 100, 1000, 1 << 16]))
# draws up to the 2**62 ceiling on every path
@example(model=_HOOKED_WIDE, n=8, seed=4, first=1, count=5, path=(0,), budget=20)
def test_block_draw_is_np_unique_of_each_simulation(model, n, seed, first, count, path,
                                                    budget):
    reps = range(first, first + count)
    with mock.patch.object(gof, "_BLOCK_DRAWS", budget):
        got = gof.simulation_draw(model, n, seed, *path)(reps)
    assert len(got) == len(reps)
    for sample, i in zip(got, reps):
        draws = model._quantile_array(spawn_rng(seed, i, *path).random(n))[0]
        values, mult = np.unique(draws, return_counts=True)
        got_values, got_mult = sample.unique_counts
        assert (got_values.dtype, got_mult.dtype) == (values.dtype, mult.dtype)
        np.testing.assert_array_equal(got_values, values)
        np.testing.assert_array_equal(got_mult, mult)


def _hexed(value):
    """``value`` with every float (also in arrays, dicts, dataclasses and
    model parameters) as its hex string, so that == compares bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return [float(v).hex() for v in value]
    if isinstance(value, dict):
        return {key: _hexed(v) for key, v in value.items()}
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _hexed(vars(value))
    if hasattr(value, "params"):
        return type(value).__name__, _hexed(value.params)
    return value


# Each reader of a sample, its result as floats in hex or a report as bytes.
_READERS = {
    "ks_statistic": lambda s: _hexed(ks_statistic(_LN, s)),
    "ks_test_fixed": lambda s: _hexed(ks_test_fixed(_LN, s, n_sim=19, seed=2)),
    "ks_p_value": lambda s: _hexed(ks_p_value("lognormal", s, n_sim=9, seed=2, refit=True)),
    "shape_classify": lambda s: _hexed(shape_classify(_LN, s)),
    "empirical_cdf": lambda s: _hexed(empirical_cdf(s, np.arange(0, 70))),
    "render_plot_data": lambda s: render_plot_data(_LN, s).encode(),
    "plausibility_row": lambda s: render_report([plausibility_row(s, n_sim=9, seed=4)],
                                                "json").encode(),
    "shape_table": lambda s: render_report(sum(shape_table([s]), []), "json").encode(),
}


@pytest.mark.parametrize("counts", [_LN.sample(300, 7), _MIX.sample(150, 5)],
                         ids=["lognormal", "mixture"])
@pytest.mark.parametrize("reader", _READERS.values(), ids=_READERS.keys())
def test_readers_give_equal_results_on_distinct_counts(reader, counts):
    distinct = CitationSample.from_distinct(*np.unique(counts, return_counts=True))
    assert reader(distinct) == reader(CitationSample(counts))


@pytest.mark.parametrize("empty", [
    CitationSample.from_distinct(np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
    CitationSample([]),
], ids=["distinct-counts", "citation-sample"])
@pytest.mark.parametrize("reader", _READERS.values(), ids=_READERS.keys())
def test_readers_reject_empty_distinct_counts(reader, empty):
    with pytest.raises(EmptySampleError, match="operation requires a non-empty sample"):
        reader(empty)


def test_as_sample_rejects_an_empty_sample():
    with pytest.raises(EmptySampleError, match="^operation requires a non-empty sample$"):
        as_sample([])


# Either form of a sample is immutable and derives the other form: a sample
# built from distinct counts gives its counts sorted.
@pytest.mark.parametrize("sample", [
    CitationSample([2, 1, 2]),
    CitationSample.from_distinct(np.array([1, 2]), np.array([1, 2])),
], ids=["counts", "distinct-counts"])
def test_a_sample_is_immutable_in_either_form(sample):
    with pytest.raises(AttributeError):
        sample.label = "relabelled"
    with pytest.raises(AttributeError):
        del sample.label
    assert (sample.label, len(sample), sorted(sample.counts)) == ("", 3, [1, 2, 2])
    assert [part.tolist() for part in sample.unique_counts] == [[1, 2], [1, 2]]
    assert not sample.counts.flags.writeable


@pytest.mark.parametrize("test", [partial(ks_test_fixed, _LN), partial(ks_p_value, "lognormal")],
                         ids=["ks_test_fixed", "ks_p_value"])
def test_monte_carlo_ks_needs_a_simulation(test):
    with pytest.raises(DomainError, match="n_sim must be >= 1"):
        test(_LN.sample(50, 1), n_sim=0)


def _traced_peak(run):
    """``run()`` and the peak of the memory it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Cancer Research's lognormal at its own n: 9994 counts, about 425 distinct.
def test_refit_memory_follows_the_block_not_n_sim():
    data = DiscretisedLognormal(2.77, 1.40).sample(9994, 3)
    result, peak = _traced_peak(
        lambda: ks_p_value("lognormal", data, n_sim=200, seed=3, refit=True))
    assert result.p_value == 0.39800995024875624
    assert peak <= 6.7e6


def test_fixed_memory_follows_the_block_not_n_sim():
    model = DiscretisedLognormal(2.77, 1.40)
    data = model.sample(9994, 3)
    first = ks_test_fixed(model, data, n_sim=1000, seed=3)
    result, peak = _traced_peak(lambda: ks_test_fixed(model, data, n_sim=1000, seed=3))
    assert result == first
    assert peak <= 2e6


def test_ks_requires_data():
    with pytest.raises(EmptySampleError):
        ks_statistic(HookedPowerLaw(2, 1), CitationSample([]))


@pytest.mark.parametrize("counts,n_sim", [
    ([10 ** 6] * 5, 19), ([5], 19), (_LN.sample(300, 7), 39), (_LN.sample(40, 2), 999),
], ids=["far", "n1", "n300", "nsim999"])
def test_mc_p_value_counts_the_simulations_at_least_as_far(counts, n_sim):
    # p = (r + 1) / (n_sim + 1), with r simulated D at least the observed D
    p = ks_test_fixed(_LN, counts, n_sim=n_sim, seed=3).p_value
    r_plus_1 = round(p * (n_sim + 1))
    assert p * (n_sim + 1) == pytest.approx(r_plus_1, rel=1e-12)
    assert 1 <= r_plus_1 <= n_sim + 1
    if counts[0] == 10 ** 6:    # no simulation comes near: the smallest p
        assert p == 1 / (n_sim + 1)


def test_ks_p_value_reproducible_and_in_range():
    data = CitationSample(DiscretisedLognormal(2.0, 1.1).sample(600, 4))
    a = ks_p_value("lognormal", data, n_sim=99, seed=5)
    b = ks_p_value("lognormal", data, n_sim=99, seed=5)
    assert a == b
    assert 0.0 < a.p_value <= 1.0
    assert a.n_sim == 99
    assert a.refit_mode == "fixed"
    assert a.fit.status is FitStatus.CONVERGED
    c = ks_p_value("lognormal", data, n_sim=99, seed=6)
    assert c.ks_stat == a.ks_stat  # observed statistic has no randomness


def test_ks_p_value_refit_mode_runs():
    data = CitationSample(DiscretisedLognormal(2.0, 1.1).sample(300, 8))
    r = ks_p_value("lognormal", data, n_sim=19, seed=5, refit=True)
    assert r.refit_mode == "refit"
    assert 0.0 < r.p_value <= 1.0


def test_ks_p_value_degenerate_fit_propagates():
    with pytest.raises(FitFailedError):
        ks_p_value("lognormal", CitationSample([3, 3, 3]), n_sim=9, seed=0)


def test_fixed_model_test_is_roughly_calibrated():
    gen = DiscretisedLognormal(2.08, 1.11)
    pvals = []
    for trial in range(40):
        data = CitationSample(gen.sample(400, child_seed(5, trial, 0)))
        res = ks_test_fixed(gen, data, n_sim=99, seed=child_seed(5, trial, 1))
        pvals.append(res.p_value)
    pvals = np.asarray(pvals)
    assert (pvals < 0.05).mean() <= 0.2
    assert 0.25 <= pvals.mean() <= 0.75
    assert np.all(pvals > 0.0)


def test_shape_classify_equal_for_matching_model():
    sample = CitationSample([1, 2, 2, 3, 7, 7, 9, 20])
    report = shape_classify(_MatchingModel(sample), sample, epsilon=0.01)
    assert (report.bottom, report.middle, report.top) == (EQUAL, EQUAL, EQUAL)


def test_shape_classify_two_point_oracle():
    report = shape_classify(HookedPowerLaw(2.0, 1.0), CitationSample([1, 2]),
                            epsilon=0.01)
    assert (report.bottom, report.middle, report.top) == (PLUS, PLUS, PLUS)
    assert report.epsilon == 0.01


def test_shape_classify_self_fit_mostly_equal():
    from citefit import fit
    data = CitationSample(DiscretisedLognormal(2.3, 1.2).sample(20_000, 31))
    model = fit("lognormal", data).model
    report = shape_classify(model, data, epsilon=0.01)
    assert (report.bottom, report.middle, report.top) == (EQUAL, EQUAL, EQUAL)


def test_shape_classify_epsilon_validation():
    with pytest.raises(DomainError):
        shape_classify(HookedPowerLaw(2, 1), CitationSample([1, 2]), epsilon=0.0)
