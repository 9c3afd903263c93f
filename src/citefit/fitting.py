"""Maximum-likelihood fits for the two model families.

Both families are fitted by a derivative-free simplex search on a
transformed, unconstrained parameter space: (mu, log sigma) for the
lognormal and (log(alpha - 1), log b) for the hooked power law. The
hooked search carries an explicit ridge guard: for large parameter values
coordinated increases of alpha and b barely change the distribution, so
fits that drift past ``b_cap`` are reported as non-converged with the
best point found rather than discarded.
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


class FitStatus(enum.Enum):
    CONVERGED = "converged"
    NON_CONVERGED = "non_converged"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class FitConfig:
    """Tuning knobs for the simplex search.

    ``rel_f_tol`` and ``x_tol`` stop the search when the relative
    log-likelihood spread or the simplex diameter falls below them;
    ``max_evals`` bounds the number of likelihood evaluations; ``b_cap``
    is the hooked ridge guard.
    """

    max_evals: int = 10_000
    rel_f_tol: float = 1e-8
    x_tol: float = 1e-6
    step: float = 0.25
    b_cap: float = 1e7
    init_alpha: float = 3.0


DEFAULT_CONFIG = FitConfig()


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


def _weighted_loglik(model, features, mult) -> float:
    return float(np.dot(mult, model._log_pmf_at(features)))


def fit(family: str, sample, config: FitConfig | None = None) -> FitResult:
    """Maximum-likelihood fit of ``family`` ("lognormal" or "hooked")."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")
    sample = as_sample(sample)
    sample.require_nonempty()
    config = config or DEFAULT_CONFIG

    values, mult = sample.unique_counts
    if values.size == 1:
        return _degenerate("all counts equal; two-parameter family not identifiable")
    fit_family = _fit_lognormal if family == "lognormal" else _fit_hooked
    try:
        return fit_family(values, mult, config)
    except ValueError:
        # no finite start: counts near 2**62 that are equal as floats give a
        # zero log spread, the pmf of such a count underflows there, or the
        # hooked start b = mean leaves the search box (nelder_mead refuses)
        return _degenerate("no finite log-likelihood at the starting point")


def _degenerate(message: str) -> FitResult:
    return FitResult(model=None, log_likelihood=math.nan,
                     status=FitStatus.DEGENERATE, evaluations=0, message=message)


def _fit_lognormal(values, mult, config: FitConfig) -> FitResult:
    n = mult.sum()
    logs = np.log(values.astype(np.float64))
    mu0 = float(np.dot(mult, logs) / n)
    var0 = float(np.dot(mult, (logs - mu0) ** 2) / (n - 1))
    x0 = np.array([mu0, math.log(math.sqrt(var0))])
    features = DiscretisedLognormal._features(values)

    def objective(theta):
        if abs(theta[1]) > 30.0:
            return math.inf
        try:
            model = DiscretisedLognormal(theta[0], math.exp(theta[1]))
        except ParameterError:
            return math.inf
        ll = _weighted_loglik(model, features, mult)
        return -ll if math.isfinite(ll) else math.inf

    res = nelder_mead(objective, x0, step=config.step, max_evals=config.max_evals,
                      rel_f_tol=config.rel_f_tol, x_tol=config.x_tol)
    model = DiscretisedLognormal(res.x[0], math.exp(res.x[1]))
    status = FitStatus.CONVERGED if res.converged else FitStatus.NON_CONVERGED
    message = "" if res.converged else "evaluation budget exhausted"
    return FitResult(model, -res.fx, status, res.evaluations, message)


def _fit_hooked(values, mult, config: FitConfig) -> FitResult:
    n = mult.sum()
    mean = float(np.dot(mult, values)) / n
    x0 = np.array([math.log(config.init_alpha - 1.0), math.log(mean)])
    features = HookedPowerLaw._features(values)

    def objective(theta):
        if theta[0] > 300.0 or abs(theta[1]) > 27.0:
            # alpha astronomically large or b outside (1e-12, 5e11)
            return math.inf
        try:
            model = HookedPowerLaw(1.0 + math.exp(theta[0]), math.exp(theta[1]))
        except ParameterError:
            return math.inf
        ll = _weighted_loglik(model, features, mult)
        return -ll if math.isfinite(ll) else math.inf

    res = nelder_mead(objective, x0, step=config.step, max_evals=config.max_evals,
                      rel_f_tol=config.rel_f_tol, x_tol=config.x_tol)
    model = HookedPowerLaw(1.0 + math.exp(res.x[0]), math.exp(res.x[1]))

    if model.b > config.b_cap:
        status = FitStatus.NON_CONVERGED
        message = f"scale parameter ridge guard tripped (b > {config.b_cap:g})"
    elif not res.converged:
        status = FitStatus.NON_CONVERGED
        message = "evaluation budget exhausted"
    else:
        status = FitStatus.CONVERGED
        message = ""
    return FitResult(model, -res.fx, status, res.evaluations, message)
