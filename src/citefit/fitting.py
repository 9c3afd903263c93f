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
the concatenated support features of every running search, its arguments
formed by the normaliser the model constructors use: a model is built per
result, not per point. Each fit does the same floating-point operations as
on its own, so :func:`fit`, a batch of one, gives the same bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from citefit.distributions import MODELS, _hooked_terms, _lognormal_terms, family_class
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
    family_class(family)
    samples = [as_sample(sample) for sample in samples]

    start = _SEARCH[family][0]
    results = [None] * len(samples)
    indices, searched, starts = [], [], []
    for index, sample in enumerate(samples):
        values, mult = sample.unique_counts
        if values.size == 1:
            results[index] = _degenerate("all counts equal; two-parameter family "
                                         "not identifiable")
            continue
        starts.append(start(values, mult, mult.sum()))
        indices.append(index)
        searched.append((values, mult))

    # one errstate for every evaluation: a pmf that underflows is -inf
    with np.errstate(divide="ignore"):
        found = nelder_mead_lockstep(_objective(family, searched), starts, max_evals)
    for index, res in zip(indices, found):
        # no finite start: the pmf of a count underflows there, the hooked
        # start b = mean leaves the search box, or the log spread is 0
        results[index] = _degenerate(_NO_START) if res is None else _result(family, res)
    return results


def _degenerate(message: str) -> FitResult:
    return FitResult(model=None, log_likelihood=math.nan,
                     status=FitStatus.DEGENERATE, evaluations=0, message=message)


def _lognormal_start(values, mult, n) -> list[float]:
    logs = np.log(values.astype(np.float64))
    mu0 = float(np.dot(mult, logs) / n)
    var0 = float(np.dot(mult, (logs - mu0) ** 2) / (n - 1))
    # counts near 2**62 that are equal as floats give a zero log spread
    return [mu0, math.log(math.sqrt(var0)) if var0 > 0.0 else -math.inf]


def _hooked_start(values, mult, n) -> list[float]:
    mean = count_total(values, mult) / int(n)
    return [math.log(_INIT_ALPHA - 1.0), math.log(mean)]


# The kernel arguments at a search point; None outside the box (the hooked
# one bounds alpha and keeps b in (1e-12, 5e11)) or the family's domain.
def _lognormal_args(theta):
    if abs(theta[1]) > 30.0:
        return None
    try:
        return _lognormal_terms(theta[0], math.exp(theta[1]))[0]
    except ParameterError:
        return None


def _hooked_args(theta):
    if theta[0] > 300.0 or abs(theta[1]) > 27.0:
        return None
    try:
        return _hooked_terms(1.0 + math.exp(theta[0]), math.exp(theta[1]))[0]
    except ParameterError:
        return None


# Per family of ``MODELS``: the start point, the kernel arguments at a search
# point, and the arguments of the family's class (its ``PARAMS``) there.
_SEARCH = {
    "lognormal": (_lognormal_start, _lognormal_args, lambda t: (t[0], math.exp(t[1]))),
    "hooked": (_hooked_start, _hooked_args, lambda t: (1.0 + math.exp(t[0]), math.exp(t[1]))),
}


def _objective(family: str, searched):
    """The batch objective of :func:`~citefit.simplex.nelder_mead_lockstep`
    over the (distinct counts, multiplicities) of each searched sample:
    minus the log-likelihood, inf outside the box or the family's domain
    (where a round of several searches evaluates a fixed in-domain point)."""
    cls = MODELS[family]
    _, args_at, _ = _SEARCH[family]
    features = [cls._features(values) for values, _ in searched]
    weights = [mult.astype(np.float64) for _, mult in searched]  # what np.dot would cast to
    placeholder = args_at([0.0, 0.0])
    group = (0,)    # per live set, which only shrinks: size, features, counts, slices

    def objective(live, points):
        nonlocal group
        if group[0] != len(live):
            sizes = [features[i].shape[-1] for i in live]
            group = (len(live), np.concatenate([features[i] for i in live], axis=-1), sizes,
                     [(weights[i], end - size, end)
                      for i, size, end in zip(live, sizes, accumulate(sizes))])
        _, feats, sizes, slices = group
        if len(points) == 1:    # a lone search: its Python-float arguments
            args = args_at(points[0])
            ll = float(np.dot(slices[0][0], cls._log_pmf_at(feats, *args))) if args else math.nan
            return [-ll if math.isfinite(ll) else math.inf]
        args = list(map(args_at, points))
        # each search's arguments over its elements, as C-contiguous rows
        rows = np.repeat(np.array([a or placeholder for a in args]).T, sizes, axis=1)
        batch = cls._log_pmf_at(feats, *rows)
        out = []
        for a, (w, lo, hi) in zip(args, slices):
            # one dot per fit: its own summation order
            ll = float(np.dot(w, batch[lo:hi])) if a else math.nan
            out.append(-ll if math.isfinite(ll) else math.inf)
        return out

    return objective


def _result(family: str, res) -> FitResult:
    """The fit at the search's best point, with its status."""
    _, _, params = _SEARCH[family]
    model = MODELS[family](*params(res.x))
    if family == "hooked" and model.b > RIDGE_B_CAP:
        message = f"scale parameter ridge guard tripped (b > {RIDGE_B_CAP:g})"
    elif not res.converged:
        message = "evaluation budget exhausted"
    else:
        message = ""
    status = FitStatus.NON_CONVERGED if message else FitStatus.CONVERGED
    return FitResult(model, -res.fx, status, res.evaluations, message)
