"""Vuong closeness test between two non-nested models on the same sample.

For per-observation log-likelihood differences d_i = log pmf_A(c_i) -
log pmf_B(c_i), the statistic z = mean(d) * sqrt(n) / sd(d) is
approximately standard normal when the models fit equally well; positive
z favours model A. Both families here have two parameters, so the
information-criterion correction terms cancel and the uncorrected
statistic is used. A model is favoured when |z| exceeds the fixed
``Z_THRESHOLD`` (1.96, a two-sided 5% level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from citefit.exceptions import IdenticalModelsError
from citefit.sample import as_sample

MODEL_A = "modelA"
MODEL_B = "modelB"
NEITHER = "neither"

Z_THRESHOLD = 1.96   # two-sided p = 0.05


@dataclass(frozen=True)
class VuongResult:
    z: float
    p_two_sided: float
    favored: str
    n: int


def _favored(z: float) -> str:
    if z > Z_THRESHOLD:
        return MODEL_A
    if z < -Z_THRESHOLD:
        return MODEL_B
    return NEITHER


def vuong_from_diffs(diffs: np.ndarray, weights: np.ndarray) -> VuongResult:
    """Build the z statistic from the log-likelihood differences ``diffs`` of
    distinct observations, each seen ``weights`` times (its multiplicity);
    the sample standard deviation uses the n - 1 denominator.
    """
    diffs = np.asarray(diffs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = int(weights.sum())
    if n < 2:
        raise IdenticalModelsError("need at least two observations for a z value")
    mean = float(np.dot(weights, diffs)) / n
    var = float(np.dot(weights, (diffs - mean) ** 2)) / (n - 1)
    if var <= 0.0:
        raise IdenticalModelsError(
            "log-likelihood differences have zero spread; z undefined"
        )
    z = mean * math.sqrt(n) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return VuongResult(z=z, p_two_sided=p, favored=_favored(z), n=n)


def vuong(model_a, model_b, sample) -> VuongResult:
    """Vuong test of ``model_a`` against ``model_b`` on ``sample``."""
    sample = as_sample(sample)
    values, mult = sample.unique_counts
    diffs = model_a.log_pmf(values) - model_b.log_pmf(values)
    return vuong_from_diffs(diffs, mult)

