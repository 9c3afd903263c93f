"""Maximum-likelihood fitting: oracles, round trips and diagnostics."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citefit import (
    CitationSample,
    DiscretisedLognormal,
    DomainError,
    EmptySampleError,
    FitStatus,
    HookedPowerLaw,
    ParameterError,
    fit,
    ks_p_value,
    log_likelihood,
)
import citefit.fitting
from citefit.distributions import MODELS, _em_sum
from citefit.fitting import _SEARCH, MAX_EVALS, fit_many
from citefit.seeding import child_seed

ZETA2_MINUS_1 = math.pi ** 2 / 6.0 - 1.0


def test_log_likelihood_single_point_oracle():
    model = HookedPowerLaw(2.0, 1.0)
    expected = math.log(0.25 / ZETA2_MINUS_1)
    assert log_likelihood(model, CitationSample([1])) == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(-0.947687, abs=1e-6)


def test_log_likelihood_two_point_oracle():
    model = HookedPowerLaw(2.0, 1.0)
    expected = math.log(0.25 / ZETA2_MINUS_1) + math.log((1 / 9) / ZETA2_MINUS_1)
    assert log_likelihood(model, CitationSample([1, 2])) == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(-2.706305, abs=1e-6)


def test_log_likelihood_additive_over_concatenation():
    model = DiscretisedLognormal(1.0, 1.2)
    a = CitationSample([1, 2, 3, 8])
    b = CitationSample([2, 2, 40])
    combined = CitationSample(np.concatenate([a.counts, b.counts]))
    assert log_likelihood(model, combined) == pytest.approx(
        log_likelihood(model, a) + log_likelihood(model, b), rel=1e-12)


def test_empty_sample_raises():
    with pytest.raises(EmptySampleError):
        fit("lognormal", CitationSample([]))
    with pytest.raises(EmptySampleError):
        log_likelihood(DiscretisedLognormal(0, 1), CitationSample([]))


def test_unknown_family_rejected():
    with pytest.raises(ParameterError):
        fit("negative-binomial", CitationSample([1, 2, 3]))


@pytest.mark.parametrize("family", ["lognormal", "hooked"])
def test_constant_sample_is_degenerate(family):
    result = fit(family, CitationSample([5, 5, 5, 5]))
    assert result.status is FitStatus.DEGENERATE
    assert result.model is None
    assert not result.usable


@pytest.mark.parametrize("family,counts", [
    ("lognormal", [1, 2 ** 62]),           # the pmf at 2**62 underflows at the start
    ("lognormal", [2 ** 62 - 1, 2 ** 62]),  # equal as floats: zero log spread
    ("hooked", [1, 10 ** 13]),             # the start b = mean lies beyond the box
    ("hooked", [2 ** 61, 2 ** 61 + 5, 3, 3]),
    ("hooked", [2 ** 62, 2 ** 62 + 1, 3] * 4),  # an int64 total would wrap to 16
])
def test_non_finite_start_is_degenerate(family, counts):
    result = fit(family, CitationSample(counts))
    assert result.status is FitStatus.DEGENERATE
    assert not result.usable


def test_lognormal_round_trip():
    gen = DiscretisedLognormal(2.08, 1.11)
    for seed in (11, 12, 13):
        data = CitationSample(gen.sample(10_000, seed))
        result = fit("lognormal", data)
        assert result.status is FitStatus.CONVERGED
        assert result.model.mu == pytest.approx(2.08, abs=0.05)
        assert result.model.sigma == pytest.approx(1.11, abs=0.04)
        assert result.log_likelihood >= log_likelihood(gen, data) - 1e-6 * len(data)


def test_hooked_round_trip_dominance():
    gen = HookedPowerLaw(5.07, 41.9)
    data = CitationSample(gen.sample(10_000, 21))
    result = fit("hooked", data)
    assert result.usable
    assert result.log_likelihood >= log_likelihood(gen, data) - 1e-6 * len(data)


@pytest.mark.parametrize("family,gen", [
    ("lognormal", DiscretisedLognormal(2.0, 1.2)),
    ("hooked", HookedPowerLaw(4.0, 50.0)),
])
def test_fit_matches_dense_grid_oracle(family, gen):
    data = CitationSample(gen.sample(1500, 9))
    result = fit(family, data)
    p1, p2 = result.model.params.values()
    best = -np.inf
    for a in np.linspace(p1 - 0.08, p1 + 0.08, 33):
        for b in np.linspace(p2 * 0.92, p2 * 1.08, 33):
            try:
                model = (DiscretisedLognormal(a, b) if family == "lognormal"
                         else HookedPowerLaw(a, b))
            except ParameterError:
                continue
            best = max(best, log_likelihood(model, data))
    assert result.log_likelihood >= best - 1e-3


def test_fit_deterministic():
    data = CitationSample(DiscretisedLognormal(2.0, 1.0).sample(2000, 3))
    r1 = fit("lognormal", data)
    r2 = fit("lognormal", data)
    assert r1.model.params == r2.model.params
    assert r1.log_likelihood == r2.log_likelihood
    assert r1.evaluations == r2.evaluations


def test_location_shift_moves_mu_not_sigma():
    lo = fit("lognormal", CitationSample(DiscretisedLognormal(2.0, 1.0).sample(20_000, 5)))
    hi = fit("lognormal", CitationSample(DiscretisedLognormal(3.0, 1.0).sample(20_000, 5)))
    assert hi.model.mu > lo.model.mu + 0.8
    assert abs(hi.model.sigma - lo.model.sigma) <= 0.05


def test_ridge_guard_reports_non_converged(monkeypatch):
    # near-geometric data pushes the hooked fit up the alpha-b ridge
    monkeypatch.setattr(citefit.fitting, "RIDGE_B_CAP", 100.0)
    rng_counts = np.random.default_rng(7).geometric(0.25, size=4000)
    data = CitationSample(rng_counts)
    result = fit("hooked", data)
    assert result.status is FitStatus.NON_CONVERGED
    assert "ridge" in result.message or "budget" in result.message
    assert result.usable  # best point is still reported


def test_evaluation_budget_respected():
    data = CitationSample(DiscretisedLognormal(2.0, 1.0).sample(500, 1))
    result = fit("lognormal", data, max_evals=15)
    assert result.status is FitStatus.NON_CONVERGED
    # the budget is checked per iteration; one iteration may overshoot
    assert result.evaluations <= 15 + 4


# A budget below one, or not an integer, is rejected before any sample is
# read (an empty one would raise otherwise) and before a base fit reaches a
# Monte-Carlo test.
@pytest.mark.parametrize("max_evals", [0, -3, 2.5, 3.0, True, np.True_])
@pytest.mark.parametrize("call", [
    lambda m: fit("lognormal", CitationSample([1, 2, 3, 5, 8, 13, 1, 1, 2]), m),
    lambda m: fit_many("hooked", [CitationSample([1, 2]), CitationSample([])], m),
    lambda m: ks_p_value("hooked", CitationSample([1, 2, 3, 5, 8, 13, 1, 1, 2]), max_evals=m),
], ids=["fit", "fit_many", "ks_p_value"])
def test_a_budget_below_one_is_rejected(call, max_evals):
    message = f"max_evals must be >= 1 and an integer, got {max_evals!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        call(max_evals)


def test_seeded_fits_differ_across_seeds():
    gen = DiscretisedLognormal(2.08, 1.11)
    r1 = fit("lognormal", CitationSample(gen.sample(2000, child_seed(1, 0))))
    r2 = fit("lognormal", CitationSample(gen.sample(2000, child_seed(1, 1))))
    assert r1.model.params != r2.model.params


# Fits pinned to the bit: float.hex of both parameters and the
# log-likelihood, the evaluation count and the status, as recorded with the
# NumPy-array simplex and the per-evaluation log(x +- 0.5). Any change to
# the order of floating-point operations in a fit shows up here.
PINNED_FITS = [
    ("lognormal", DiscretisedLognormal(2.08, 1.11), 2000, 1, MAX_EVALS,
     "0x1.0b2b4b0a6be50p+1", "0x1.1a3787b169aa2p+0", "-0x1.c1a6b1bc8a51fp+12", 45,
     "converged"),
    ("lognormal", DiscretisedLognormal(0.5, 2.3), 800, 2, MAX_EVALS,
     "0x1.2a7eae627dbfcp-2", "0x1.32618f2ade0adp+1", "-0x1.53c60bab66e2ap+11", 50,
     "converged"),
    ("lognormal", HookedPowerLaw(2.5, 10.0), 1500, 6, MAX_EVALS,
     "0x1.e577b79d2491ep+0", "0x1.609ce91095a82p+0", "-0x1.54edb52a5a100p+12", 46,
     "converged"),
    ("lognormal", DiscretisedLognormal(2.0, 1.0), 500, 1, 15,
     "0x1.fba2439985077p+0", "0x1.f2b303fe30586p-1", "-0x1.a5d9b488d86f3p+10", 16,
     "non_converged"),
    ("hooked", HookedPowerLaw(5.07, 41.9), 2000, 3, MAX_EVALS,
     "0x1.3e9eb3973b56fp+2", "0x1.408ff061252b1p+5", "-0x1.bec721f381c27p+12", 51,
     "converged"),
    ("hooked", HookedPowerLaw(1.8, 3.0), 800, 4, MAX_EVALS,
     "0x1.cb3baeb367146p+0", "0x1.b73566d162588p+1", "-0x1.82c99918b0cb3p+11", 64,
     "converged"),
    ("hooked", DiscretisedLognormal(2.08, 1.11), 2000, 5, MAX_EVALS,
     "0x1.0158b39b12b3dp+2", "0x1.c67b9a4f9d3e6p+4", "-0x1.c0c0b615cd53ep+12", 50,
     "converged"),
]


@pytest.mark.parametrize(
    "family,gen,n,seed,max_evals,p1,p2,ll,evals,status", PINNED_FITS,
    ids=["ln-ln", "ln-wide", "ln-on-hooked", "ln-budget",
         "hk-hk", "hk-heavy", "hk-on-ln"])
def test_fit_is_bit_exact(family, gen, n, seed, max_evals, p1, p2, ll, evals, status):
    data = CitationSample(gen.sample(n, seed))
    result = fit(family, data, max_evals)
    assert [float(v).hex() for v in result.model.params.values()] == [p1, p2]
    assert result.log_likelihood.hex() == ll
    assert (result.evaluations, result.status.value) == (evals, status)
    # the per-fit support features give the same bits as the public path
    assert result.log_likelihood == log_likelihood(result.model, data)


def test_ridge_guard_fit_is_bit_exact(monkeypatch):
    monkeypatch.setattr(citefit.fitting, "RIDGE_B_CAP", 100.0)
    data = CitationSample(np.random.default_rng(7).geometric(0.25, size=4000))
    result = fit("hooked", data)
    assert result.model.alpha.hex() == "0x1.42caa2936ee0cp+5"
    assert result.model.b.hex() == "0x1.08bb473f6cb10p+7"
    assert result.log_likelihood.hex() == "-0x1.18c271cce5a39p+13"
    assert result.evaluations == 65
    assert result.message == "scale parameter ridge guard tripped (b > 100)"


def _fingerprint(result):
    params = None if result.model is None else [v.hex() for v in result.model.params.values()]
    return (params, result.log_likelihood.hex(), result.evaluations, result.status,
            result.message)


@pytest.mark.parametrize("max_evals", [MAX_EVALS, 12])
@pytest.mark.parametrize("family", ["lognormal", "hooked"])
def test_fit_many_equals_one_fit_per_sample(monkeypatch, family, max_evals):
    monkeypatch.setattr(citefit.fitting, "RIDGE_B_CAP", 100.0)
    batch = [
        CitationSample(DiscretisedLognormal(2.08, 1.11).sample(2000, 1)),
        CitationSample([5, 5, 5, 5]),                                   # all equal
        CitationSample(HookedPowerLaw(1.8, 3.0).sample(300, 4)),
        CitationSample([1, 2 ** 62]),                                   # no finite start
        CitationSample(np.random.default_rng(7).geometric(0.25, size=4000)),  # ridge
        CitationSample([2 ** 62 - 1, 2 ** 62]),                         # no finite start
        CitationSample([1, 10 ** 13]),                                  # no finite start
        CitationSample(HookedPowerLaw(5.07, 41.9).sample(60, 3)),
    ]
    got = [_fingerprint(r) for r in fit_many(family, batch, max_evals)]
    assert got == [_fingerprint(fit(family, s, max_evals)) for s in batch]
    messages = {message for *_, message in got}
    assert "no finite log-likelihood at the starting point" in messages
    assert any(m.startswith("all counts equal") for m in messages)
    if max_evals == 12:
        assert "evaluation budget exhausted" in messages
    else:
        assert "" in messages       # converged
        if family == "hooked":
            assert "scale parameter ridge guard tripped (b > 100)" in messages


# --- kernel arguments at a search point ---------------------------------------

def _in_box(family, theta):
    """The box each family's search stays in, as the fitter states it."""
    if family == "lognormal":
        return abs(theta[1]) <= 30.0
    return theta[0] <= 300.0 and abs(theta[1]) <= 27.0


def _reference_scaled_norm(alpha, b):
    """S summed as the constructor summed it before the head was skipped:
    terms from x = 1 until b + x reaches max(12, 1.5 alpha), then the
    Euler-Maclaurin tail, in its array form at a one-element array."""
    c, reach, total, x = b + 1.0, max(12.0, 1.5 * alpha), 0.0, 1
    while True:
        term = math.exp(-alpha * math.log1p((x - 1) / c))
        edge = b + x
        if edge >= reach:
            tail = _em_sum(alpha, np.array([edge]), edge / (alpha - 1.0) + 0.5)
            return total + term * float(tail[0])
        if term * (1.0 + edge / (alpha - 1.0)) <= 1e-17 * total:
            return total
        total += term
        x += 1


def _hex(args):
    return None if args is None else [float(v).hex() for v in args]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(family=st.sampled_from(["lognormal", "hooked"]),
       t0=st.floats(-45.0, 310.0), t1=st.floats(-31.0, 31.0))
@example(family="hooked", t0=0.4, t1=0.3)        # b + 1 < 12: head terms
@example(family="hooked", t0=0.4, t1=3.3)        # b + 1 >= 12: no head
@example(family="hooked", t0=5.0, t1=3.3)        # b + 1 < 1.5 alpha: head terms
@example(family="hooked", t0=-37.0, t1=0.0)      # 1 + exp(t0) rounds to 1
@example(family="hooked", t0=300.0, t1=-27.0)    # the box's far corner
@example(family="hooked", t0=300.5, t1=0.0)
@example(family="hooked", t0=0.0, t1=27.5)
@example(family="lognormal", t0=-40.0, t1=0.0)   # the support mass underflows
@example(family="lognormal", t0=1.0, t1=-30.5)
@example(family="lognormal", t0=1.0, t1=30.0)
def test_search_point_arguments_are_the_models(family, t0, t1):
    cls = MODELS[family]
    _, args_at, params = _SEARCH[family]
    theta = [t0, t1]
    try:
        model = cls(*params(theta)) if _in_box(family, theta) else None
    except ParameterError:
        model = None
    got = args_at(theta)
    assert _hex(got) == _hex(None if model is None else model._kernel_args)
    if family == "hooked" and model is not None:
        reference = _reference_scaled_norm(model.alpha, model.b)
        assert model._scaled_norm.hex() == reference.hex()
        assert got[2].hex() == math.log(reference).hex()


@pytest.mark.parametrize("size", [1, 8])
@pytest.mark.parametrize("family", ["lognormal", "hooked"])
def test_one_model_per_usable_result(monkeypatch, family, size):
    built = []
    for cls in (DiscretisedLognormal, HookedPowerLaw):
        def counted(self, *args, _init=cls.__init__):
            built.append(type(self))
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    pool = [
        CitationSample([5, 5, 5, 5]),                                   # all equal
        CitationSample([1, 2 ** 62] if family == "lognormal" else [1, 10 ** 13]),  # no start
    ] + [CitationSample(draw) for draw in
         (np.random.default_rng(seed).geometric(0.1, size=300) for seed in range(6))]
    batch = pool[-1:] if size == 1 else pool
    results = fit_many(family, batch)
    assert len(built) == sum(result.usable for result in results) == size - 2 * (size > 1)
