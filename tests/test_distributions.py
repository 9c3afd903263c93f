"""Distribution families: pmf/cdf/quantile/sampling contracts and the
closed-form moment formulae."""

import math
import pickle
import timeit
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose, assert_array_equal

from citefit import (
    CitationSample,
    DiscretisedLognormal,
    DomainError,
    HookedPowerLaw,
    InvalidWeightsError,
    Mixture,
    ParameterError,
)
from citefit.distributions import MAX_COUNT
from citefit.gof import ks_statistic
from citefit.subjects import SUBJECTS

mp.mp.dps = 50

ZETA2_MINUS_1 = math.pi ** 2 / 6.0 - 1.0


# --- parameter validation ----------------------------------------------------

@pytest.mark.parametrize("mu,sigma", [(0.0, 0.0), (0.0, -1.0), (math.nan, 1.0),
                                      (math.inf, 1.0), (0.0, math.inf)])
def test_lognormal_rejects_bad_parameters(mu, sigma):
    with pytest.raises(ParameterError):
        DiscretisedLognormal(mu, sigma)


@pytest.mark.parametrize("alpha,b", [(1.0, 1.0), (0.5, 1.0), (2.0, 0.0),
                                     (2.0, -3.0), (math.nan, 1.0)])
def test_hooked_rejects_bad_parameters(alpha, b):
    with pytest.raises(ParameterError):
        HookedPowerLaw(alpha, b)


@pytest.mark.parametrize("x", [0, -1, 2.5])
def test_support_starts_at_one(x):
    model = HookedPowerLaw(2.0, 1.0)
    with pytest.raises(DomainError):
        model.pmf(x)
    with pytest.raises(DomainError):
        model.cdf(x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x,message", [
    (math.inf, "must be integers"), (-math.inf, "must be integers"),
    (math.nan, "must be integers"), (2.0 ** 63, "below 2"), (1e30, "below 2"),
    (np.uint64(2 ** 63), "below 2"), (-1e30, ">= 1"),
    (2 ** 64, "below 2"), (-2 ** 64, ">= 1"),    # Python ints: object arrays
])
def test_out_of_range_values_rejected_before_the_cast(x, message):
    # casting such a float to int64 wraps around with a RuntimeWarning
    with pytest.raises(DomainError, match=message):
        CitationSample(np.array([3, x]))
    with pytest.raises(DomainError, match=message):
        HookedPowerLaw(2.0, 1.0).cdf(x)


# counts are integer or real-float arrays, or object arrays of real non-bool
# numbers; a float16 array is range-checked without casting 2**63 to float16
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x,expected", [
    ([True, True], None), (np.array([True, 3], dtype=object), None),
    ([1 + 5j, 2], None), (np.array(["3", 4], dtype=object), None), (["1"], None),
    (np.array(["2020-01-02"], dtype="datetime64[D]"), None),
    (np.array([3, 4], dtype=np.float16), [3, 4]),
    (np.array([np.uint8(3), 4.0], dtype=object), [3, 4]),
], ids=["bool", "object-bool", "complex", "object-str", "str", "datetime64", "float16",
        "object-numbers"])
def test_counts_of_the_wrong_kind_are_rejected(x, expected):
    model = HookedPowerLaw(3.0, 10.0)
    if expected is None:
        with pytest.raises(DomainError, match="must be integers"):
            CitationSample(x)
        with pytest.raises(DomainError, match="must be integers"):
            model.cdf(x)
    else:
        assert_array_equal(CitationSample(x).counts, expected)
        assert_array_equal(model.cdf(x), model.cdf(expected))


# an integer in an object array is read exactly, however large; any other
# real goes through float64 and must hold an integer there
@pytest.mark.parametrize("count", [2 ** 53 + 1, 2 ** 60 + 1, 2 ** 63 - 100, 2 ** 63 - 1])
def test_object_array_integers_are_read_exactly(count):
    assert CitationSample(np.array([count, 3], dtype=object)).counts.tolist() == [count, 3]
    model = HookedPowerLaw(3.0, 10.0)
    assert_array_equal(model.cdf(np.array([count, 3], dtype=object)),
                       model.cdf(np.array([count, 3], dtype=np.int64)))


@pytest.mark.parametrize("x,message", [
    (np.array([2 ** 63, 3], dtype=object), "below 2"),
    (np.array([2.0 ** 63, 3], dtype=object), "below 2"),
    (np.array([np.uint64(2 ** 63), 3], dtype=object), "below 2"),
    (np.array([0, 2 ** 62], dtype=object), ">= 1"),
    (np.array([2.5, 2 ** 62], dtype=object), "must be integers"),
    (np.array([math.inf, 2], dtype=object), "must be integers"),
    (np.array([2 ** 64, 0.5], dtype=object), "must be integers"),
])
def test_object_array_rules(x, message):
    with pytest.raises(DomainError, match=message):
        CitationSample(x)


@pytest.mark.parametrize("u", [-0.1, 1.0, 1.5, math.nan])
def test_quantile_domain(u):
    with pytest.raises(DomainError):
        HookedPowerLaw(2.0, 1.0).quantile(u)


# --- hooked pmf/cdf oracles --------------------------------------------------

def test_hooked_pmf_ratio_is_normalizer_free():
    model = HookedPowerLaw(2.0, 1.0)
    assert model.pmf(1) / model.pmf(3) == pytest.approx(4.0, rel=1e-12)


def test_hooked_pmf_ratio_identity_across_parameters():
    rng = np.random.default_rng(3)
    for alpha, b in [(2.0, 1.0), (3.94, 67.9), (1.2, 0.5), (14.74, 329.5)]:
        model = HookedPowerLaw(alpha, b)
        xs = rng.integers(1, 5000, size=20)
        ys = rng.integers(1, 5000, size=20)
        got = model.pmf(xs) / model.pmf(ys)
        expected = ((b + ys) / (b + xs)) ** alpha
        assert_allclose(got, expected, rtol=1e-10)


def test_hooked_pmf_against_closed_form_normalizer():
    # sum of (1+x)^-2 over x >= 1 is pi^2/6 - 1
    model = HookedPowerLaw(2.0, 1.0)
    assert model.pmf(1) == pytest.approx(0.25 / ZETA2_MINUS_1, rel=1e-10)
    assert model.pmf(2) == pytest.approx((1 / 9) / ZETA2_MINUS_1, rel=1e-10)
    assert model.cdf(2) == pytest.approx((0.25 + 1 / 9) / ZETA2_MINUS_1, rel=1e-10)


def test_hooked_normalizer_against_hurwitz_zeta():
    mp.mp.dps = 120
    for alpha, b in [(2.0, 1.0), (1.001, 0.1), (2.06, 7.1), (3.94, 67.9),
                     (14.74, 329.5), (30.17, 713.6), (3.0, 1e7)]:
        model = HookedPowerLaw(alpha, b)
        exact = mp.zeta(mp.mpf(alpha), mp.mpf(b) + 1)
        got = mp.exp(mp.mpf(model.log_normalizer))
        assert abs(got - exact) / exact < 1e-10, (alpha, b)
    mp.mp.dps = 50


@pytest.mark.parametrize("alpha,b", [(1e10, 5e11), (1e6, 1e7), (1e6, 1e9)])
def test_hooked_pmf_sums_to_one_inside_fit_box(alpha, b):
    # With b far above x, an exponent formed as alpha * (log(b + x) - log(b + 1))
    # cancels to a few digits and misses 1 by up to 2.5e-5 at these points;
    # alpha * log1p((x - 1) / (b + 1)) keeps full accuracy.
    model = HookedPowerLaw(alpha, b)
    total = math.fsum(model.pmf(np.arange(1, 200_000)))
    assert abs(total - 1.0) <= 1e-12


# --- lognormal pmf oracles ---------------------------------------------------

def _phi(z):
    return 0.5 * mp.erfc(-mp.mpf(z) / mp.sqrt(2))


def test_lognormal_pmf_one_against_mpmath():
    model = DiscretisedLognormal(0.0, 1.0)
    num = _phi(mp.log(mp.mpf("1.5"))) - _phi(mp.log(mp.mpf("0.5")))
    den = 1 - _phi(mp.log(mp.mpf("0.5")))
    assert model.pmf(1) == pytest.approx(float(num / den), rel=1e-12)
    assert model.pmf(1) == pytest.approx(0.5468, abs=5e-5)


def test_lognormal_pmf_equals_normal_cdf_differences():
    for mu, sigma in [(0.0, 1.0), (2.54, 1.26), (-0.38, 1.73)]:
        model = DiscretisedLognormal(mu, sigma)
        norm = float(1 - _phi((mp.log(mp.mpf("0.5")) - mu) / sigma))
        for x in (1, 2, 3, 10, 50, 400):
            hi = _phi((mp.log(x + mp.mpf("0.5")) - mu) / sigma)
            lo = _phi((mp.log(x - mp.mpf("0.5")) - mu) / sigma)
            assert model.pmf(x) * norm == pytest.approx(float(hi - lo), rel=1e-12)


def test_lognormal_tail_reaches_one():
    model = DiscretisedLognormal(0.0, 1.0)
    assert model.cdf(10 ** 6) >= 1 - 1e-6


# --- cdf/quantile contracts --------------------------------------------------

@pytest.mark.parametrize("model", [
    HookedPowerLaw(2.0, 1.0),       # a head of explicit terms
    HookedPowerLaw(5.07, 41.9),     # no head
    DiscretisedLognormal(0.0, 1.0),
    DiscretisedLognormal(2.08, 1.11),
    Mixture([HookedPowerLaw(2.0, 1.0), DiscretisedLognormal(2.08, 1.11)], [0.3, 0.7]),
])
def test_cdf_monotone_and_bounded(model):
    grid = model.cdf(np.arange(1, 10_001))
    assert np.all(np.diff(grid) >= 0.0)
    assert grid[0] > 0.0
    assert grid[-1] <= 1.0
    assert model.cdf(1) == pytest.approx(model.pmf(1), rel=1e-12)
    for no_counts in ([], np.empty(0, dtype=np.int64)):
        empty = model.cdf(no_counts)
        assert empty.dtype == np.float64 and empty.shape == (0,)


def test_normalization_with_tail_correction_over_fixture():
    # truncated pmf sum plus the mass beyond it must reach 1 to 1e-9
    for subject in SUBJECTS:
        for model in (subject.lognormal(), subject.hooked()):
            xmax = 100_000
            total = float(np.exp(model._log_pmf(np.arange(1, xmax + 1))).sum())
            total += 1.0 - model.cdf(xmax)
            assert abs(total - 1.0) <= 1e-9, (subject.name, model.family)


def test_quantile_examples():
    model = HookedPowerLaw(2.0, 1.0)
    assert model.quantile(0.0) == 1
    assert model.quantile(0.3) == 1
    assert model.quantile(0.5) == 2
    assert DiscretisedLognormal(3.0, 1.2).quantile(0.0) == 1


@pytest.mark.parametrize("model", [
    HookedPowerLaw(2.0, 1.0),
    HookedPowerLaw(3.94, 67.9),
    DiscretisedLognormal(2.08, 1.11),
])
def test_quantile_cdf_adjoint(model):
    xs = np.arange(1, 3000)
    cdf = model.cdf(xs)
    q = model.quantile(np.minimum(cdf, 1.0 - 1e-12))
    assert np.all(q <= xs)
    us = np.linspace(0.0, 0.99999, 1001)
    xq = model.quantile(us)
    assert np.all(model.cdf(xq) >= us)


def test_quantile_deep_tail_bisection():
    # far into the tail: the start is a continuous approximation there
    model = HookedPowerLaw(1.8, 2.0)
    u = 1.0 - 1e-6
    x = model.quantile(u)
    assert model.cdf(x) >= u
    assert model.cdf(x - 1) < u
    assert x > 10_000_000


_TOP = float(np.nextafter(1.0, 0.0))
_CONTRACT_MODELS = [
    DiscretisedLognormal(2.08, 1.11),
    DiscretisedLognormal(-0.38, 1.73),
    DiscretisedLognormal(1.0, 0.05),
    HookedPowerLaw(2.0, 1.0),
    HookedPowerLaw(8.0, 1.0),
    HookedPowerLaw(1.05, 0.5),
    HookedPowerLaw(1.0 + 1e-9, 3e5),
    HookedPowerLaw(1e6, 1e7),
    Mixture((DiscretisedLognormal(0.5, 0.7), HookedPowerLaw(6.0, 2.0)), (0.4, 0.6)),
]


@pytest.mark.parametrize("model", _CONTRACT_MODELS, ids=repr)
def test_quantile_is_the_smallest_count_reaching_u(model):
    # u = 0, the largest u below 1, random u, and u at and just above F(x),
    # where the answer moves from x to x + 1
    xs = np.array([1, 2, 3, 7, 12, 13, 40, 1000, 10 ** 6, 10 ** 12])
    at = model.cdf(xs)
    us = np.concatenate([[0.0, _TOP], np.random.default_rng(8).random(500),
                         at, np.nextafter(at, 1.0)])
    us = us[us < 1.0]
    q = model.quantile(us)
    assert np.all((q >= 1) & (q <= MAX_COUNT))
    reached = model.cdf(q) >= us
    assert np.all(reached | (q == MAX_COUNT))
    below = np.where(q > 1, model.cdf(np.maximum(q - 1, 1)), -1.0)
    assert np.all(below < us)


def test_quantile_at_the_top_is_history_free():
    # the largest u that rng.random() returns: every call gives the same
    # count, and F reaches u there, or F never does and draws saturate
    for model in _CONTRACT_MODELS:
        first = model.quantile(_TOP)
        assert [model.quantile(_TOP) for _ in range(3)] == [first] * 3
        assert model.quantile([_TOP, 0.5, _TOP]).tolist()[::2] == [first] * 2
        assert model.cdf(first - 1) < _TOP
        assert model.cdf(first) >= _TOP or first == MAX_COUNT


def test_lognormal_whose_cdf_stops_below_the_top_u_saturates():
    # F divides masses from scipy's erfc by a normaliser from math.erfc;
    # for these parameters it tops out one ulp short of the largest u below
    # 1, which rng.random() returns once in 2**53 draws. The quantile keeps
    # its contract and saturates rather than mixing in a second CDF formula.
    model = DiscretisedLognormal(-0.38, 1.73)
    assert model.cdf(MAX_COUNT) == 1.0 - 2.0 ** -52
    assert model.quantile(_TOP) == MAX_COUNT
    assert model.quantile(1.0 - 2.0 ** -52) < 10 ** 7


# --- public read types -------------------------------------------------------

_READ_MODELS = [DiscretisedLognormal(1.0, 0.8), HookedPowerLaw(2.5, 4.0),
                Mixture((DiscretisedLognormal(1.0, 0.8), HookedPowerLaw(2.5, 4.0)), (0.3, 0.7))]


# A scalar or 0-d array gives a Python scalar, a list an array of the reads.
@pytest.mark.parametrize("model", _READ_MODELS, ids=["lognormal", "hooked", "mixture"])
@pytest.mark.parametrize("read,x,cast", [
    ("log_pmf", 3, float), ("pmf", 3, float), ("cdf", 3, float), ("quantile", 0.4, int),
])
def test_public_reads_keep_the_shape_given(model, read, x, cast):
    method = getattr(model, read)
    for given in (x, np.asarray(x), np.asarray(x)[()]):
        assert type(method(given)) is cast
    out = method([x, x])
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert out[0] == out[1] == method(x)


# --- sampling ----------------------------------------------------------------

def test_sample_empty_and_negative():
    model = HookedPowerLaw(2.0, 1.0)
    assert model.sample(0, 1).size == 0
    with pytest.raises(DomainError):
        model.sample(-1, 1)


def test_sample_deterministic():
    model = DiscretisedLognormal(2.08, 1.11)
    assert_array_equal(model.sample(5000, 99), model.sample(5000, 99))
    assert not np.array_equal(model.sample(5000, 99), model.sample(5000, 100))


def test_sample_frequency_of_one_matches_pmf():
    model = HookedPowerLaw(2.0, 1.0)
    draws = model.sample(100_000, 2024)
    freq = float((draws == 1).mean())
    assert abs(freq - 0.25 / ZETA2_MINUS_1) <= 0.005


@pytest.mark.parametrize("model", [HookedPowerLaw(2.0, 1.0),
                                   DiscretisedLognormal(1.0, 1.0)])
def test_sampling_consistency_over_low_support(model):
    n = 100_000
    draws = model.sample(n, 7)
    for x in range(1, 21):
        expected = n * model.pmf(x)
        observed = int((draws == x).sum())
        assert abs(observed - expected) <= 4.0 * math.sqrt(expected), x


def test_concurrent_quantiles_match_sequential():
    us = np.random.default_rng(5).random(20_000) * 0.99999
    shared = HookedPowerLaw(3.94, 67.9)
    chunks = np.array_split(us, 16)
    with ThreadPoolExecutor(8) as pool:
        threaded = np.concatenate(list(pool.map(shared.quantile, chunks)))
    reference = HookedPowerLaw(3.94, 67.9).quantile(us)
    assert_array_equal(threaded, reference)


def test_models_pickle_roundtrip():
    for model in (HookedPowerLaw(3.94, 67.9), DiscretisedLognormal(2.08, 1.11)):
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        assert_array_equal(clone.sample(100, 3), model.sample(100, 3))


def test_equal_models_hash_equal_and_dedupe():
    def build():
        hooked, lognormal = HookedPowerLaw(3.94, 67.9), DiscretisedLognormal(2.08, 1.11)
        return hooked, lognormal, Mixture([hooked, lognormal], [1.0, 3.0])

    for model, twin in zip(build(), build()):
        assert model == twin and hash(model) == hash(twin)
    others = (HookedPowerLaw(3.94, 68.0), DiscretisedLognormal(2.08, 1.12),
              Mixture(build()[:2], [3.0, 1.0]))
    assert len({*build(), *build(), *others}) == 6


def test_pickle_roundtrip_after_sampling():
    hooked, lognormal = HookedPowerLaw(3.94, 67.9), DiscretisedLognormal(2.08, 1.11)
    for model in (hooked, lognormal, Mixture([hooked, lognormal], [0.3, 0.7])):
        drawn = model.sample(500, 4)
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        assert vars(clone).keys() == vars(model).keys()
        assert_array_equal(clone.sample(500, 4), drawn)
        xs = np.arange(1, 3001)
        assert_array_equal(clone.cdf(xs), model.cdf(xs))


def test_draw_at_the_count_ceiling_is_fast():
    # F(2**62) is about 0.04: the closed-form start lands on the ceiling
    model = HookedPowerLaw(1.001, 1.0)
    assert model.sample(1, 3).tolist() == [MAX_COUNT]
    assert min(timeit.repeat(lambda: model.sample(1, 3), number=1, repeat=5)) < 5e-3


@pytest.mark.parametrize("model", [HookedPowerLaw(2.0, 1.0), HookedPowerLaw(1.05, 0.5),
                                   DiscretisedLognormal(2.08, 1.11)], ids=repr)
def test_ks_memory_follows_the_distinct_counts_not_the_largest(model):
    data = CitationSample(np.append(model.sample(299, 5), 10 ** 9))
    tracemalloc.start()
    try:
        ks_statistic(model, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# --- continuous moments ------------------------------------------------------

def test_lognormal_moments_closed_form():
    model = DiscretisedLognormal(2.54, 1.26)
    assert model.continuous_mean() == pytest.approx(28.0447, abs=1e-3)
    ref = scipy.stats.lognorm(s=1.26, scale=math.exp(2.54))
    assert model.continuous_mean() == pytest.approx(ref.mean(), rel=1e-12)


def test_hooked_moments_lomax_convention():
    model = HookedPowerLaw(5.76, 89.8)
    assert model.continuous_mean() == pytest.approx(89.8 / 4.76, rel=1e-12)
    assert model.continuous_mean() == pytest.approx(18.8655, abs=1e-3)
    ref = scipy.stats.lomax(c=5.76, scale=89.8)
    assert model.continuous_mean() == pytest.approx(ref.mean(), rel=1e-12)


def test_hooked_mean_at_low_alpha():
    # the Lomax mean b / (alpha - 1) exists for every alpha > 1
    assert HookedPowerLaw(1.5, 10.0).continuous_mean() == pytest.approx(20.0)


# --- mixtures ----------------------------------------------------------------

def test_mixture_weight_validation():
    comp = DiscretisedLognormal(1.0, 1.0)
    with pytest.raises(InvalidWeightsError):
        Mixture([], [])
    with pytest.raises(InvalidWeightsError):
        Mixture([comp], [0.0])
    with pytest.raises(InvalidWeightsError):
        Mixture([comp, comp], [1.0, -0.5])
    assert_allclose(Mixture([comp, comp], [2.0, 6.0]).weights, [0.25, 0.75])
    params = Mixture([comp, HookedPowerLaw(3.0, 10.0)], [2.0, 6.0]).params
    assert params == {"weight_0": 0.25, "weight_1": 0.75}
    assert all(type(w) is float for w in params.values())


def test_single_component_mixture_is_bitwise_identical():
    base = DiscretisedLognormal(2.0, 1.1)
    mix = Mixture([DiscretisedLognormal(2.0, 1.1)], [1.0])
    assert_array_equal(mix.sample(10_000, 42), base.sample(10_000, 42))
    xs = np.arange(1, 500)
    assert_array_equal(mix.pmf(xs), base.pmf(xs))
    assert_array_equal(mix.cdf(xs), base.cdf(xs))


def test_identical_component_mixture_matches_pure_sampler():
    base = DiscretisedLognormal(2.0, 1.1)
    mix = Mixture([DiscretisedLognormal(2.0, 1.1),
                   DiscretisedLognormal(2.0, 1.1)], [0.5, 0.5])
    assert_array_equal(mix.sample(5000, 17), base.sample(5000, 17))


def test_mixture_pmf_is_weighted_sum():
    a = DiscretisedLognormal(1.0, 1.0)
    b = HookedPowerLaw(3.0, 10.0)
    mix = Mixture([a, b], [0.25, 0.75])
    xs = np.arange(1, 200)
    assert_allclose(mix.pmf(xs), 0.25 * a.pmf(xs) + 0.75 * b.pmf(xs), rtol=1e-12)


def test_mixture_mean_is_convex_combination():
    a = DiscretisedLognormal(1.0, 1.0)
    b = DiscretisedLognormal(3.5, 1.0)
    mix = Mixture([a, b], [0.5, 0.5])
    draws = mix.sample(100_000, 8)
    mean_a = a.continuous_mean()
    mean_b = b.continuous_mean()
    assert mean_a < draws.mean() < mean_b
    assert mix.continuous_mean() == 0.5 * mean_a + 0.5 * mean_b
