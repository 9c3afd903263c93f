"""Vuong test: hand-checked z values, symmetry and tallies."""

import math

import numpy as np
import pytest

from citefit import (
    CitationSample,
    DiscretisedLognormal,
    HookedPowerLaw,
    IdenticalModelsError,
    VuongStudy,
    vuong,
)
from citefit.bootstrap import summarise
from citefit.vuong import MODEL_A, MODEL_B, NEITHER, vuong_from_diffs


def test_hand_computed_z():
    result = vuong_from_diffs(np.array([0.1, 0.3]))
    assert result.z == pytest.approx(2.0, rel=1e-12)
    assert result.n == 2
    assert result.favored == MODEL_A
    assert result.p_two_sided == pytest.approx(2 * (1 - 0.9772498680518208), rel=1e-9)


def test_identical_models_rejected():
    model = HookedPowerLaw(2.0, 1.0)
    sample = CitationSample([1, 2, 3, 4])
    with pytest.raises(IdenticalModelsError):
        vuong(model, HookedPowerLaw(2.0, 1.0), sample)


@pytest.mark.parametrize("counts,message", [
    ([3, 3, 3], "zero spread"),
    ([3], "need at least two observations"),
], ids=["one-value", "one-observation"])
def test_too_little_data_rejected(counts, message):
    with pytest.raises(IdenticalModelsError, match=message):
        vuong(HookedPowerLaw(2.0, 1.0), DiscretisedLognormal(0.0, 1.0),
              CitationSample(counts))


def test_antisymmetry_exact():
    a = HookedPowerLaw(3.0, 20.0)
    b = DiscretisedLognormal(2.0, 1.2)
    sample = CitationSample(a.sample(5000, 3))
    fwd = vuong(a, b, sample)
    rev = vuong(b, a, sample)
    assert rev.z == -fwd.z
    assert rev.p_two_sided == fwd.p_two_sided
    assert fwd.z > 1.96
    assert fwd.favored == MODEL_A and rev.favored == MODEL_B


def test_duplication_scales_z_by_sqrt_k():
    a = HookedPowerLaw(3.0, 20.0)
    b = DiscretisedLognormal(2.0, 1.2)
    base = CitationSample(a.sample(1000, 5))
    dup = CitationSample(np.concatenate([base.counts] * 4))
    z1 = vuong(a, b, base).z
    z4 = vuong(a, b, dup).z
    # exact up to the n-1 vs n denominator, negligible at this size
    assert z4 / z1 == pytest.approx(2.0, rel=1e-3)


def test_deterministic():
    a = HookedPowerLaw(3.0, 20.0)
    b = DiscretisedLognormal(2.0, 1.2)
    sample = CitationSample(a.sample(400, 9))
    assert vuong(a, b, sample) == vuong(a, b, sample)


def test_threshold_boundaries():
    assert vuong_from_diffs(np.array([0.1, 0.3])).favored == MODEL_A      # z = 2.0
    near = vuong_from_diffs(np.array([0.05, 0.25, -0.06, 0.02, 0.01]))
    assert abs(near.z) < 1.96 and near.favored == NEITHER


def test_study_tally_at_the_threshold():
    # z = +-1.96 itself favours neither model, and a NaN z is a failed rep
    zs = (2.5, -2.5, 0.0, 1.96, -1.96, math.nan)
    study = VuongStudy.from_summary(summarise([zs[rep % 6] for rep in range(42)], 42))
    assert (study.hooked_wins, study.lognormal_wins, study.neither, study.failed) \
        == (7, 7, 21, 7)
