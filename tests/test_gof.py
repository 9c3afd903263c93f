"""KS statistic, Monte-Carlo p-values and shape classification."""

import pickle
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
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
    shape_classify,
)
from citefit import gof
from citefit.gof import EQUAL, PLUS, cdf_breakpoints, empirical_cdf
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


def _one_simulation_at_a_time(model, n, seed, reps, family=None):
    """KS statistic (hex) of each simulation in ``reps``, drawn, sorted and
    tested on its own against ``model`` or, with ``family``, against its own
    fit when usable; on an unpickled copy of ``model``."""
    model = pickle.loads(pickle.dumps(model))
    sims = [np.sort(model.sample_with(spawn_rng(seed, i), n)) for i in reps]
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
