"""Study harness: schemas, accounting identities and statistical direction."""

import importlib.util
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import citefit.studies as studies
from citefit import (
    CitationSample,
    DiscretisedLognormal,
    DomainError,
    EmptySampleError,
    HookedPowerLaw,
    Mixture,
    ParameterError,
    TooFewRepsError,
    bootstrap_vuong_study,
    fit,
    mean_table,
    mixture_impurity_study,
    plausibility_row,
    scale_ci_study,
    shape_table,
)
from citefit.gof import shape_classify, simulation_draw
from citefit.sample import DistinctCounts
from citefit.studies import (
    MIXTURE_COLUMNS,
    PLAUSIBILITY_COLUMNS,
    SCALE_COLUMNS,
    SHAPE_COLUMNS,
    vuong_studies,
)
from citefit.subjects import SUBJECTS, get_subject


def test_subject_fixture_shape():
    assert len(SUBJECTS) == 23
    assert sum(s.n for s in SUBJECTS) == 135_970
    food = get_subject("food science")
    assert (food.ln_mu, food.ln_sigma) == (2.54, 1.26)
    assert (food.hook_alpha, food.hook_b) == (5.76, 89.8)
    with pytest.raises(KeyError):
        get_subject("Astrology")


def test_subject_model_takes_only_the_fitted_families():
    virology = get_subject("Virology")
    assert virology.model("lognormal") == virology.lognormal()
    assert virology.model("hooked") == virology.hooked()
    message = "unknown family 'pareto'; expected one of ('lognormal', 'hooked')"
    with pytest.raises(ParameterError, match=re.escape(message)):
        virology.model("pareto")


def test_mean_crosscheck_averages():
    average = mean_table()[-1]
    assert average["ln_mean"] == pytest.approx(25.4, abs=0.3)
    assert average["hook_mean"] == pytest.approx(14.2, abs=0.3)


def test_mean_crosscheck_single_subject():
    average = mean_table([get_subject("Food Science")])[-1]
    assert average["ln_mean"] == pytest.approx(28.0, abs=0.1)
    assert average["hook_mean"] == pytest.approx(18.87, abs=0.01)


def test_plausibility_row_schema_and_flags():
    data = CitationSample(DiscretisedLognormal(2.08, 1.11).sample(1043, 55),
                          label="sim")
    row = plausibility_row(data, n_sim=99, seed=7)
    assert tuple(row.keys()) == PLAUSIBILITY_COLUMNS
    assert row["subject"] == "sim"
    assert row["n"] == 1043
    assert 0 < row["ln_p"] <= 1 and 0 < row["hook_p"] <= 1
    assert "L" in row["plausible"]


def test_plausibility_row_degenerate():
    row = plausibility_row(CitationSample([3, 3, 3], label="flat"), n_sim=9, seed=0)
    assert row["plausible"] == "degenerate"
    assert row["ln_p"] is None and row["hook_p"] is None
    assert row["n"] == 3


def test_bootstrap_vuong_study_accounting():
    data = CitationSample(HookedPowerLaw(3.94, 67.9).sample(2000, 1), label="x")
    study = bootstrap_vuong_study(data, reps=40, seed=12)
    assert (study.hooked_wins + study.lognormal_wins + study.neither
            + study.failed) == study.reps == 40
    s = study.z_summary
    assert s.lo95 <= s.median <= s.hi95
    with pytest.raises(TooFewRepsError):
        bootstrap_vuong_study(data, reps=39, seed=12)


def test_bootstrap_vuong_study_worker_independence():
    data = CitationSample(HookedPowerLaw(3.94, 67.9).sample(1500, 1))
    a = bootstrap_vuong_study(data, reps=40, seed=12, workers=1)
    b = bootstrap_vuong_study(data, reps=40, seed=12, workers=3)
    assert a == b


def test_vuong_studies_count_any_citefit_error_as_failed(monkeypatch):
    import citefit.studies as studies

    data = CitationSample(HookedPowerLaw(3.94, 67.9).sample(200, 1))
    threshold = float(data.counts.mean())

    def raises_on_large_mean(sample):
        if sample.counts.mean() > threshold:
            raise ParameterError("out of the box")
        return float(sample.counts.mean())

    monkeypatch.setattr(studies, "_z_from_fits",
                        lambda sample, ln, hk: raises_on_large_mean(
                            CitationSample(np.repeat(*sample.unique_counts))))
    [simulated] = vuong_studies([simulation_draw(HookedPowerLaw(3.94, 67.9), 50, 3)], 40)
    for study in (bootstrap_vuong_study(data, reps=40, seed=3), simulated):
        assert 0 < study.failed < 40
        assert study.failed == study.z_summary.n_failed
        assert study.hooked_wins + study.lognormal_wins + study.neither == 40 - study.failed


def test_simulation_study_sign_convention():
    # positive z favours hooked, so a lognormal generator pushes z down
    [study] = vuong_studies([simulation_draw(DiscretisedLognormal(2.81, 1.05), 500, 4)], 40)
    assert study.z_summary.median <= 0.0
    assert study.hooked_wins == 0
    assert (study.hooked_wins + study.lognormal_wins + study.neither
            + study.failed) == 40


def test_simulation_study_worker_independence():
    draws = [simulation_draw(HookedPowerLaw(5.0, 40.0), 400, 3)]
    a = vuong_studies(draws, 40, workers=1)
    b = vuong_studies(draws, 40, workers=3)
    assert a == b


def test_scale_ci_study_separates_sigmas():
    s1 = CitationSample(DiscretisedLognormal(2.0, 1.0).sample(5000, 21), label="low")
    s2 = CitationSample(DiscretisedLognormal(2.0, 1.6).sample(5000, 22), label="high")
    rows = scale_ci_study([s1, s2], reps=50, size=500, seed=3)
    assert [tuple(r.keys()) for r in rows] == [tuple(SCALE_COLUMNS)] * 2
    low, high = rows
    assert low["sigma_lo95"] <= low["sigma_median"] <= low["sigma_hi95"]
    assert low["sigma_hi95"] < high["sigma_lo95"]


def test_scale_ci_study_degenerate_subject_isolated():
    flat = CitationSample([4] * 600, label="flat")
    ok = CitationSample(DiscretisedLognormal(2.0, 1.0).sample(2000, 5), label="ok")
    rows = scale_ci_study([flat, ok], reps=40, size=100, seed=1)
    assert rows[0]["note"] == "degenerate"
    assert rows[0]["sigma_median"] is None
    assert rows[1]["note"] == "" and rows[1]["sigma_median"] is not None


def test_shape_table_schema_and_totals():
    samples = [
        CitationSample(DiscretisedLognormal(2.3, 1.2).sample(5000, 31), label="a"),
        CitationSample(HookedPowerLaw(4.0, 50.0).sample(5000, 32), label="b"),
    ]
    rows, totals = shape_table(samples)
    assert [r["subject"] for r in rows] == ["a", "b"]
    assert tuple(rows[0].keys()) == SHAPE_COLUMNS
    assert [t["subject"] for t in totals] == ["higher total", "same total",
                                              "lower total"]
    for col in SHAPE_COLUMNS[1:]:
        assert sum(t[col] for t in totals) == len(samples)


def test_shape_table_self_fit_mostly_equal():
    data = CitationSample(DiscretisedLognormal(2.3, 1.2).sample(20_000, 31),
                          label="self")
    rows, _ = shape_table([data])
    ln_cells = [rows[0]["ln_bottom"], rows[0]["ln_middle"], rows[0]["ln_top"]]
    assert ln_cells.count("=") == 3


def test_mixture_sample_single_component_identity():
    mixture = Mixture((DiscretisedLognormal(2.0, 1.1),), (1.0,))
    plain = DiscretisedLognormal(2.0, 1.1).sample(5000, 42)
    assert_array_equal(mixture.sample(5000, 42), plain)


def test_mixture_sample_mean_between_components():
    mixture = Mixture(
        (DiscretisedLognormal(1.0, 1.0), DiscretisedLognormal(3.5, 1.0)),
        (0.5, 0.5),
    )
    counts = mixture.sample(100_000, 9)
    lo = DiscretisedLognormal(1.0, 1.0).sample(100_000, 9).mean()
    hi = DiscretisedLognormal(3.5, 1.0).sample(100_000, 9).mean()
    assert lo < counts.mean() < hi


def test_mixture_impurity_study_degrades_fit():
    mixture = Mixture(
        (DiscretisedLognormal(1.0, 1.0), DiscretisedLognormal(3.5, 1.0)),
        (0.5, 0.5),
    )
    pure = DiscretisedLognormal(2.25, 1.0)
    rows, summary = mixture_impurity_study(mixture, pure, n=5000, reps=20, seed=99)
    assert tuple(rows[0].keys()) == MIXTURE_COLUMNS
    assert summary["reps"] == 20
    assert summary["mixture_worse_count"] >= 18
    assert summary["valid"] == 20


def test_mixture_impurity_study_worker_independence():
    mixture = Mixture(
        (DiscretisedLognormal(1.0, 1.0), DiscretisedLognormal(3.0, 1.0)),
        (0.5, 0.5),
    )
    pure = DiscretisedLognormal(2.0, 1.0)
    a = mixture_impurity_study(mixture, pure, n=1000, reps=8, seed=3, workers=1)
    b = mixture_impurity_study(mixture, pure, n=1000, reps=8, seed=3, workers=2)
    assert a == b


# The `citefit study mixture` defaults. Each sample is held as its few
# hundred distinct counts, not its 10000 raw counts, so the peak follows
# one block of draws instead of reps x n.
def test_mixture_study_memory_follows_the_block_not_the_reps():
    mixture = Mixture((DiscretisedLognormal(1.0, 1.0), DiscretisedLognormal(3.5, 1.0)),
                      (0.5, 0.5))
    tracemalloc.start()
    try:
        rows, summary = mixture_impurity_study(mixture, DiscretisedLognormal(2.25, 1.0),
                                               n=10_000, reps=100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(rows[i]["mixture_ks"].hex(), rows[i]["pure_ks"].hex()) for i in (0, -1)] == [
        ("0x1.5162a2878f9a0p-5", "0x1.0ecfa3c994000p-8"),
        ("0x1.5766ea8d21dc0p-5", "0x1.360f17e1c1100p-8")]
    assert summary["mixture_worse_count"] == 100
    assert peak <= 12e6


def _no_replicates(*args):
    raise AssertionError("a replicate ran")


@pytest.mark.parametrize("study", [
    lambda n: mixture_impurity_study(Mixture((DiscretisedLognormal(1.0, 1.0),), (1.0,)),
                                     DiscretisedLognormal(2.0, 1.0), n=n, reps=2, workers=2),
    lambda n: vuong_studies([simulation_draw(DiscretisedLognormal(2.0, 1.0), n, 0)], 40,
                            workers=2),
    lambda n: simulation_draw(DiscretisedLognormal(2.0, 1.0), n, 0),
], ids=["mixture", "simulation-vuong", "draw"])
@pytest.mark.parametrize("n", [0, -3])
def test_simulated_studies_reject_empty_samples(monkeypatch, study, n):
    # the draw rejects n when it is built, before any replicate or pool starts
    monkeypatch.setattr(studies, "run_reps", _no_replicates)
    with pytest.raises(EmptySampleError, match="operation requires a non-empty sample"):
        study(n)


_SAMPLE = CitationSample([1, 2, 3, 5, 8], label="s")
_NONE = (EmptySampleError, "operation requires a non-empty sample")


# Each study checks every input before any replicate or fit runs.
@pytest.mark.parametrize("call,error", [
    (lambda: bootstrap_vuong_study(CitationSample([]), 40), _NONE),
    (lambda: scale_ci_study([_SAMPLE], reps=39), (TooFewRepsError, "need reps >= 40, got 39")),
    (lambda: scale_ci_study([_SAMPLE, CitationSample([])], reps=40), _NONE),
    (lambda: scale_ci_study([DistinctCounts(np.array([1, 2]), np.array([3, 4]))], reps=40),
     (DomainError, "resamples a CitationSample, not DistinctCounts")),
    (lambda: scale_ci_study([_SAMPLE], reps=40, size=0),
     (DomainError, "resample size must be >= 1")),
    (lambda: shape_table([_SAMPLE, CitationSample([])]), _NONE),
], ids=["vuong-empty", "scale-reps", "scale-empty", "scale-distinct-counts", "scale-size",
        "shape-empty"])
def test_studies_reject_invalid_input(monkeypatch, call, error):
    monkeypatch.setattr(studies, "run_reps", _no_replicates)
    monkeypatch.setattr(studies, "fit_many", _no_replicates)
    cls, message = error
    with pytest.raises(cls, match=message):
        call()


# Each cell classifies the sample against its own fit; a degenerate fit
# leaves its family's cells empty.
def test_shape_table_cells_follow_each_samples_own_fit():
    samples = [CitationSample(DiscretisedLognormal(1.5 + 0.5 * i, 1.0).sample(300, i),
                              label=f"s{i}") for i in range(3)]
    samples.insert(1, CitationSample([4] * 9, label="flat"))
    rows, _ = shape_table(samples, epsilon=0.02)
    for sample, row in zip(samples, rows):
        for family, prefix, _ in studies._FAMILY_CELLS:
            result = fit(family, sample)
            cells = [row[f"{prefix}_{atom}"] for atom in ("bottom", "middle", "top")]
            if not result.usable:
                assert cells == [None] * 3
                continue
            report = shape_classify(result.model, sample, 0.02)
            assert cells == [report.bottom, report.middle, report.top]


@pytest.mark.parametrize("reps", [0, -2])
def test_mixture_impurity_study_rejects_too_few_reps(reps):
    mixture = Mixture((DiscretisedLognormal(1.0, 1.0),), (1.0,))
    with pytest.raises(TooFewRepsError):
        mixture_impurity_study(mixture, DiscretisedLognormal(2.0, 1.0), n=100, reps=reps)


# The benchmark's library workloads call these study drivers; a change that
# removes or renames one breaks the benchmark before it can be retargeted.
@pytest.mark.parametrize("workload", ["vuong-boot", "plausibility-mc"])
def test_benchmark_library_workloads_run(workload, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)     # for its dataclasses
    spec.loader.exec_module(workloads)
    size = workloads.SIZES["smoke"]
    samples = workloads.build_samples(workload, 0, size, 0)
    job = workloads.run_library_job(workload, samples, 0, size, 0)
    assert job.errors == []
    check = workloads.check_report(workload, job.report, size, [s.label for s in samples])
    assert check.report_ok and check.problems == []
