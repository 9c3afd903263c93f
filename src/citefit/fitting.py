"""Maximum-likelihood fits for the two model families.

Both families are fitted by a derivative-free simplex search on a
transformed, unconstrained parameter space: (mu, log sigma) for the
lognormal and (log(alpha - 1), log b) from alpha = ``_INIT_ALPHA`` for
the hooked power law. Its one setting is the budget ``max_evals``. The
hooked search carries an explicit ridge guard: for large parameter values
coordinated increases of alpha and b barely change the distribution, so
fits that drift past ``RIDGE_B_CAP`` are reported as non-converged with
the best point found rather than discarded.

:func:`fit_many` fits one family to many samples at once: each sample keeps
its own simplex search, and each round the searches' next points are
evaluated together, with one call of the family's likelihood kernel over
the concatenated support features of every sample that needs one. Each
fit does the same floating-point operations as on its own, so
:func:`fit`, a batch of one, gives the same bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from citefit.distributions import DiscretisedLognormal, HookedPowerLaw, FAMILIES
from citefit.exceptions import ParameterError
from citefit.sample import as_sample, count_total
from citefit.simplex import nelder_mead_lockstep

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


_NO_START = "no finite log-likelihood at the starting point"


def fit(family: str, sample, max_evals: int = MAX_EVALS) -> FitResult:
    """Maximum-likelihood fit of ``family`` ("lognormal" or "hooked") within
    ``max_evals`` likelihood evaluations."""
    return fit_many(family, [sample], max_evals)[0]


def fit_many(family: str, samples, max_evals: int = MAX_EVALS) -> list[FitResult]:
    """``[fit(family, s, max_evals) for s in samples]``, bit for bit, with
    the searches run in lockstep (see the module docstring)."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")
    samples = [as_sample(sample) for sample in samples]
    for sample in samples:
        sample.require_nonempty()

    start = _SEARCH[family][1]
    results = [None] * len(samples)
    indices, searched, starts = [], [], []
    for index, sample in enumerate(samples):
        values, mult = sample.unique_counts
        if values.size == 1:
            results[index] = _degenerate("all counts equal; two-parameter family "
                                         "not identifiable")
            continue
        try:
            # counts near 2**62 that are equal as floats give a zero log spread
            starts.append(start(values, mult, mult.sum()))
        except ValueError:
            results[index] = _degenerate(_NO_START)
            continue
        indices.append(index)
        searched.append((values, mult))

    # one errstate for every evaluation: a pmf that underflows is -inf
    with np.errstate(divide="ignore"):
        found = nelder_mead_lockstep(_objective(family, searched), starts, max_evals)
    for index, res in zip(indices, found):
        # no finite start: the pmf of a count underflows there, or the hooked
        # start b = mean leaves the search box
        results[index] = _degenerate(_NO_START) if res is None else _result(family, res)
    return results


def _degenerate(message: str) -> FitResult:
    return FitResult(model=None, log_likelihood=math.nan,
                     status=FitStatus.DEGENERATE, evaluations=0, message=message)


def _lognormal_start(values, mult, n) -> list[float]:
    logs = np.log(values.astype(np.float64))
    mu0 = float(np.dot(mult, logs) / n)
    var0 = float(np.dot(mult, (logs - mu0) ** 2) / (n - 1))
    return [mu0, math.log(math.sqrt(var0))]


def _hooked_start(values, mult, n) -> list[float]:
    mean = count_total(values, mult) / int(n)
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


def _objective(family: str, searched):
    """The batch objective of :func:`~citefit.simplex.nelder_mead_lockstep`
    over the (distinct counts, multiplicities) of each searched sample:
    minus the log-likelihood, inf outside the box or the family's domain."""
    cls, _, outside, params = _SEARCH[family]
    features = [cls._features(values) for values, _ in searched]
    weights = [mult.astype(np.float64) for _, mult in searched]  # what np.dot would cast to
    sizes = [values.size for values, _ in searched]

    def objective(live, points):
        if len(live) == 1:      # scalar parameters, no concatenation
            i, theta = live[0], points[0]
            if outside(theta):
                return [math.inf]
            try:
                model = cls(*params(theta))
            except ParameterError:
                return [math.inf]
            ll = float(np.dot(weights[i], cls._log_pmf_at(features[i], *model._kernel_args)))
            return [-ll if math.isfinite(ll) else math.inf]
        out = [math.inf] * len(live)
        fitted, fits, args = [], [], []     # position in live, fit index, kernel args
        for pos, theta in enumerate(points):
            if outside(theta):
                continue
            try:
                model = cls(*params(theta))
            except ParameterError:
                continue
            fitted.append(pos)
            fits.append(live[pos])
            args.append(model._kernel_args)
        if fitted:
            counts = [sizes[i] for i in fits]
            # each parameter repeated over its fit's elements, as C-contiguous rows
            batch = cls._log_pmf_at(np.concatenate([features[i] for i in fits], axis=-1),
                                    *np.repeat(np.array(list(zip(*args))), counts, axis=1))
            for pos, i, end, size in zip(fitted, fits, accumulate(counts), counts):
                # one dot per fit: its own summation order
                ll = float(np.dot(weights[i], batch[end - size:end]))
                out[pos] = -ll if math.isfinite(ll) else math.inf
        return out

    return objective


def _result(family: str, res) -> FitResult:
    """The fit at the search's best point, with its status."""
    cls, _, _, params = _SEARCH[family]
    model = cls(*params(res.x))
    if family == "hooked" and model.b > RIDGE_B_CAP:
        message = f"scale parameter ridge guard tripped (b > {RIDGE_B_CAP:g})"
    elif not res.converged:
        message = "evaluation budget exhausted"
    else:
        message = ""
    status = FitStatus.NON_CONVERGED if message else FitStatus.CONVERGED
    return FitResult(model, -res.fx, status, res.evaluations, message)
