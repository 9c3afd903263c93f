"""Maximum-likelihood fits for the two model families.

Both families are fitted by a derivative-free simplex search on a
transformed, unconstrained parameter space: (mu, log sigma) for the
lognormal and (log(alpha - 1), log b) from alpha = ``_INIT_ALPHA`` for
the hooked power law. Its one setting is the budget ``max_evals``. The
hooked search carries an explicit ridge guard: for large parameter values
coordinated increases of alpha and b barely change the distribution, so
fits that drift past ``RIDGE_B_CAP`` are reported as non-converged with
the best point found rather than discarded.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from citefit.distributions import DiscretisedLognormal, HookedPowerLaw, FAMILIES
from citefit.exceptions import ParameterError
from citefit.sample import as_sample
from citefit.simplex import nelder_mead

MAX_EVALS = 10_000
RIDGE_B_CAP = 1e7     # hooked fits with b beyond this are not converged
_INIT_ALPHA = 3.0


class FitStatus(enum.Enum):
    CONVERGED = "converged"
    NON_CONVERGED = "non_converged"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class FitResult:
    """A fitted model with its log-likelihood and convergence diagnostics."""

    model: object | None
    log_likelihood: float
    status: FitStatus
    evaluations: int
    message: str = ""

    @property
    def usable(self) -> bool:
        return self.model is not None


def log_likelihood(model, sample) -> float:
    """Sum of log pmf values of ``model`` over the sample counts."""
    sample = as_sample(sample)
    sample.require_nonempty()
    values, mult = sample.unique_counts
    return float(np.dot(mult, model.log_pmf(values)))


def fit(family: str, sample, max_evals: int = MAX_EVALS) -> FitResult:
    """Maximum-likelihood fit of ``family`` ("lognormal" or "hooked") within
    ``max_evals`` likelihood evaluations."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")
    sample = as_sample(sample)
    sample.require_nonempty()

    values, mult = sample.unique_counts
    if values.size == 1:
        return _degenerate("all counts equal; two-parameter family not identifiable")
    try:
        return _fit(family, values, mult, max_evals)
    except ValueError:
        # no finite start: counts near 2**62 that are equal as floats give a
        # zero log spread, the pmf of such a count underflows there, or the
        # hooked start b = mean leaves the search box (nelder_mead refuses)
        return _degenerate("no finite log-likelihood at the starting point")


def _degenerate(message: str) -> FitResult:
    return FitResult(model=None, log_likelihood=math.nan,
                     status=FitStatus.DEGENERATE, evaluations=0, message=message)


def _lognormal_start(values, mult, n) -> list[float]:
    logs = np.log(values.astype(np.float64))
    mu0 = float(np.dot(mult, logs) / n)
    var0 = float(np.dot(mult, (logs - mu0) ** 2) / (n - 1))
    return [mu0, math.log(math.sqrt(var0))]


def _hooked_start(values, mult, n) -> list[float]:
    mean = float(np.dot(mult, values)) / n
    return [math.log(_INIT_ALPHA - 1.0), math.log(mean)]


# Per family: the model class, the start point, the test for a search point
# outside the box, and the model parameters at a search point.
_SEARCH = {
    "lognormal": (DiscretisedLognormal, _lognormal_start,
                  lambda t: abs(t[1]) > 30.0,
                  lambda t: (t[0], math.exp(t[1]))),
    "hooked": (HookedPowerLaw, _hooked_start,
               # alpha astronomically large or b outside (1e-12, 5e11)
               lambda t: t[0] > 300.0 or abs(t[1]) > 27.0,
               lambda t: (1.0 + math.exp(t[0]), math.exp(t[1]))),
}


def _fit(family: str, values, mult, max_evals: int) -> FitResult:
    cls, start, outside, params = _SEARCH[family]
    features = cls._features(values)
    weights = mult.astype(np.float64)   # what np.dot would cast to on every call

    def objective(theta):
        if outside(theta):
            return math.inf
        try:
            model = cls(*params(theta))
        except ParameterError:
            return math.inf
        ll = float(np.dot(weights, model._log_pmf_at(features)))
        return -ll if math.isfinite(ll) else math.inf

    # one errstate for every evaluation: a pmf that underflows is -inf
    with np.errstate(divide="ignore"):
        res = nelder_mead(objective, start(values, mult, mult.sum()), max_evals=max_evals)
    model = cls(*params(res.x))
    if family == "hooked" and model.b > RIDGE_B_CAP:
        message = f"scale parameter ridge guard tripped (b > {RIDGE_B_CAP:g})"
    elif not res.converged:
        message = "evaluation budget exhausted"
    else:
        message = ""
    status = FitStatus.NON_CONVERGED if message else FitStatus.CONVERGED
    return FitResult(model, -res.fx, status, res.evaluations, message)
