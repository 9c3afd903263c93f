"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
runtime budget, and prints one PASS/FAIL line (run with ``pytest -s`` to
see them on success). The heavier statistical criteria are exercised at
the sizes and rep counts they specify; every random quantity derives from
a fixed master seed, so the whole suite is reproducible bit for bit.
"""

import time

import numpy as np
import pytest

from citefit import (
    CitationSample,
    DiscretisedLognormal,
    HookedPowerLaw,
    Mixture,
    bootstrap_study,
    fit,
    ks_statistic,
    ks_test_fixed,
    log_likelihood,
    mean_table,
    mixture_impurity_study,
    simulation_study,
)
from citefit.cli import main
from citefit.seeding import child_seed
from citefit.subjects import SUBJECTS

MASTER_SEED = 20260811


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def test_01_mean_crosscheck():
    start = time.perf_counter()
    average = mean_table(SUBJECTS)[-1]
    elapsed = time.perf_counter() - start
    ok = (abs(average["ln_mean"] - 25.4) <= 0.3
          and abs(average["hook_mean"] - 14.2) <= 0.3
          and elapsed < 1.0)
    _report(1, "mean cross-check", ok,
            f"ln_avg={average['ln_mean']:.3f} hook_avg={average['hook_mean']:.3f} "
            f"elapsed={elapsed:.2f}s")


def test_02_normalization_suite():
    start = time.perf_counter()
    worst = 0.0
    xmax = 100_000
    grid = np.arange(1, xmax + 1)
    for subject in SUBJECTS:
        for model in (subject.lognormal(), subject.hooked()):
            total = float(np.exp(model._log_pmf(grid)).sum())
            total += 1.0 - model.cdf(xmax)
            worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, "normalization suite", ok,
            f"worst |sum-1|={worst:.2e} over 46 parameter sets, elapsed={elapsed:.1f}s")


def test_03_analytic_ks_oracle():
    start = time.perf_counter()
    d = ks_statistic(HookedPowerLaw(2.0, 1.0), CitationSample([1, 2]))
    elapsed = time.perf_counter() - start
    ok = abs(d - 0.4401) <= 1e-4 and elapsed < 1.0
    _report(3, "analytic KS oracle", ok, f"D={d:.6f} elapsed={elapsed:.2f}s")


def test_04_round_trip_fitting():
    start = time.perf_counter()
    ln_gen = DiscretisedLognormal(2.08, 1.11)
    hk_gen = HookedPowerLaw(5.07, 41.9)
    mu_sigma_ok = 0
    dominance_ok = 0
    for trial in range(20):
        data = CitationSample(ln_gen.sample(10_000, child_seed(MASTER_SEED, 4, trial, 0)))
        result = fit("lognormal", data)
        if (abs(result.model.mu - 2.08) <= 0.05
                and abs(result.model.sigma - 1.11) <= 0.04):
            mu_sigma_ok += 1
        hdata = CitationSample(hk_gen.sample(10_000, child_seed(MASTER_SEED, 4, trial, 1)))
        hresult = fit("hooked", hdata)
        if hresult.log_likelihood >= log_likelihood(hk_gen, hdata) - 1e-6 * len(hdata):
            dominance_ok += 1
    elapsed = time.perf_counter() - start
    ok = mu_sigma_ok >= 19 and dominance_ok == 20 and elapsed < 120.0
    _report(4, "round-trip fitting", ok,
            f"recovered={mu_sigma_ok}/20 dominance={dominance_ok}/20 elapsed={elapsed:.1f}s")


def test_05_ks_calibration():
    start = time.perf_counter()
    gen = DiscretisedLognormal(2.08, 1.11)
    rejections = 0
    for trial in range(200):
        data = CitationSample(gen.sample(1043, child_seed(MASTER_SEED, 5, trial, 0)))
        result = ks_test_fixed(gen, data, n_sim=199,
                               seed=child_seed(MASTER_SEED, 5, trial, 1))
        if result.p_value < 0.05:
            rejections += 1
    fraction = rejections / 200.0
    elapsed = time.perf_counter() - start
    ok = 0.01 <= fraction <= 0.12 and elapsed < 300.0
    _report(5, "KS calibration", ok,
            f"fraction(p<0.05)={fraction:.3f} over 200 trials, elapsed={elapsed:.0f}s")


@pytest.fixture(scope="module")
def lognormal_direction_study():
    return simulation_study(DiscretisedLognormal(2.81, 1.05), 6534, reps=50,
                            seed=child_seed(MASTER_SEED, 6))


def test_06_vuong_discrimination_lognormal(lognormal_direction_study):
    start = time.perf_counter()
    study = lognormal_direction_study
    elapsed = time.perf_counter() - start
    ok = (study.lognormal_wins >= 45 and study.hooked_wins == 0
          and elapsed < 600.0)
    _report(6, "Vuong discrimination (lognormal)", ok,
            f"ln_wins={study.lognormal_wins}/50 hooked_wins={study.hooked_wins} "
            f"median_z={study.z_summary.median:.2f} failed={study.failed}")


def test_07_vuong_discrimination_hooked():
    start = time.perf_counter()
    study = simulation_study(HookedPowerLaw(3.94, 67.9), 9994, reps=50,
                             seed=child_seed(MASTER_SEED, 7))
    elapsed = time.perf_counter() - start
    ok = (study.hooked_wins >= 45 and study.lognormal_wins == 0
          and elapsed < 600.0)
    _report(7, "Vuong discrimination (hooked)", ok,
            f"hooked_wins={study.hooked_wins}/50 ln_wins={study.lognormal_wins} "
            f"median_z={study.z_summary.median:.2f} failed={study.failed} "
            f"elapsed={elapsed:.0f}s")


def test_08_power_loss_at_small_n(lognormal_direction_study):
    big = lognormal_direction_study
    small = simulation_study(DiscretisedLognormal(2.81, 1.05), 500, reps=50,
                             seed=child_seed(MASTER_SEED, 6))
    big_sig = big.lognormal_wins + big.hooked_wins
    small_sig = small.lognormal_wins + small.hooked_wins
    ok = small_sig < big_sig
    _report(8, "power loss at n=500", ok,
            f"significant {small_sig}/50 at n=500 vs {big_sig}/50 at n=6534")


def test_09_bootstrap_ci_mechanics():
    data = CitationSample(DiscretisedLognormal(2.0, 1.2).sample(700, 13))
    summary = bootstrap_study(data, 1000, "mean", seed=child_seed(MASTER_SEED, 9))
    raw = np.sort(np.asarray(summary.raw))
    exact = summary.lo95 == raw[24] and summary.hi95 == raw[975]

    flat = bootstrap_study(CitationSample([4] * 100), 1000, "mean",
                           seed=child_seed(MASTER_SEED, 9, 1))
    zero_width = flat.lo95 == flat.median == flat.hi95 == 4.0
    ok = exact and zero_width
    _report(9, "bootstrap CI mechanics", ok,
            f"order-stats exact={exact} zero-width={zero_width}")


def test_10_mixture_impurity():
    start = time.perf_counter()
    mixture = Mixture(
        components=(DiscretisedLognormal(1.0, 1.0), DiscretisedLognormal(3.5, 1.0)),
        weights=(0.5, 0.5),
    )
    pure = DiscretisedLognormal(2.25, 1.0)
    _, summary = mixture_impurity_study(mixture, pure, n=10_000, reps=100,
                                        seed=child_seed(MASTER_SEED, 10))
    elapsed = time.perf_counter() - start
    ok = (summary["valid"] == 100 and summary["mixture_worse_count"] >= 90
          and elapsed < 300.0)
    _report(10, "mixture impurity", ok,
            f"mixture_worse={summary['mixture_worse_count']}/100 elapsed={elapsed:.0f}s")


def test_11_determinism(tmp_path, capsys):
    counts = DiscretisedLognormal(2.2, 1.2).sample(1200, 3) - 1
    path = tmp_path / "counts.txt"
    path.write_text("\n".join(str(int(c)) for c in counts) + "\n")

    def run(extra):
        code = main(["study", "vuong", str(path), "--reps", "40",
                     "--size", "400", "--seed", "77", "--format", "json"] + extra)
        out = capsys.readouterr().out
        assert code == 0
        return out

    first = run([])
    second = run([])
    parallel = run(["--workers", "3"])
    ok = first == second == parallel
    _report(11, "byte determinism", ok,
            f"rerun identical={first == second} workers-independent={first == parallel}")
