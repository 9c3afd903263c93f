"""Discrete distributions on the support {1, 2, 3, ...}.

Two families are provided, plus finite mixtures of them:

* :class:`DiscretisedLognormal` puts at each integer x the lognormal
  density mass of the unit interval (x - 0.5, x + 0.5], renormalised by
  the total mass of (0.5, inf).
* :class:`HookedPowerLaw` uses the density value (b + x)**(-alpha) as a
  point mass with a normalising constant, the discrete counterpart of a
  Lomax (Pareto type II) law; it needs alpha > 1 to be summable. The
  normaliser is a Hurwitz zeta value, evaluated in closed form.

``MODELS`` maps each family name to its class, and each class lists its
parameter names in constructor order as ``PARAMS``: the fitter, the subject
table and the CLI read both from there (by :func:`family_class`, which
rejects any other name), so a family is declared once.

Each family evaluates its CDF pointwise at the counts asked for, and
quantiles and draws search from a closed-form start, so work and memory
follow the number of points, not the largest count. All models are
immutable after construction and safe for concurrent use.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np
from scipy.special import erfc, ndtri

from citefit.exceptions import DomainError, InvalidWeightsError, ParameterError
from citefit.sample import positive_ints
from citefit.seeding import spawn_rng

# Hooked power sums: terms are added one by one until b + x reaches
# max(_EM_FLOOR, _EM_RATIO * alpha), where the Euler-Maclaurin tail with
# the Bernoulli numbers B_2 ... B_24 is accurate to about 1e-16.
_EM_FLOOR = 12.0
_EM_RATIO = 1.5
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
              -236364091 / 2730)
_EM_COEFFS = tuple(bn / math.factorial(2 * j) for j, bn in enumerate(_BERNOULLI, 1))
_NEGLIGIBLE = 1e-17

MAX_COUNT = 2 ** 62     # draws saturate here; larger counts are not ingested

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_HALF_WIDTHS = np.array([[-0.5], [0.5]])    # lognormal interval edges x -/+ 0.5


def _normal_interval_masses(z: np.ndarray) -> np.ndarray:
    """Phi(z[1]) - Phi(z[0]) for standard-normal Phi, elementwise over a
    (2, m) float64 array of interval edges.

    Intervals on the right half-axis are differenced through upper-tail
    erfc values and mirrored otherwise, which preserves relative accuracy
    deep in both tails (needed for tail pmf values feeding KS statistics
    and log-likelihoods). Both edges go through one erfc call; mirroring
    the scaled edges is exact, since (-z) * k == -(z * k) in IEEE
    arithmetic. z is scaled in place; the result is a view into one buffer.
    """
    right = (z[0] + z[1]) > 0.0
    z *= _INV_SQRT2
    e = np.negative(z[::-1])
    np.copyto(e, z, where=right)
    erfc(e, out=e)
    out = np.subtract(e[0], e[1], out=e[0])
    out *= 0.5
    return np.maximum(out, 0.0, out=out)


def _power_head(alpha: float, b: float) -> tuple[tuple[float, ...], float, float]:
    """Running totals of f(x) = ((b + x) / (b + 1))**(-alpha), x = 1, 2, ...,
    then the first term not summed and its edge b + x (the term is 0 when
    the rest is negligible). The scaling keeps every term in floating range
    (f(1) = 1) where the bare Hurwitz zeta value underflows; each exponent
    is -alpha * log1p((x - 1) / (b + 1)), accurate when b is large against
    x. Terms are added until b + x reaches max(12, 1.5 alpha), which b + 1
    must not, or the integral bound on the rest falls below 1e-17 of the
    total."""
    c, slope, neg_alpha = b + 1.0, alpha - 1.0, -alpha
    reach = max(_EM_FLOOR, _EM_RATIO * alpha)
    totals = [1.0]
    total = 1.0
    x = 2
    while True:
        term = math.exp(neg_alpha * math.log1p((x - 1) / c))
        edge = b + x
        if edge >= reach:
            return tuple(totals), term, edge
        if term * (1.0 + edge / slope) <= _NEGLIGIBLE * total:
            return tuple(totals), 0.0, edge
        total += term
        totals.append(total)
        x += 1


def _em_sum(alpha: float, edge, acc):
    """``acc`` (a float) plus the Euler-Maclaurin corrections B_2j / (2j)!
    * alpha (alpha + 1) ... (alpha + 2j - 2) / edge**(2j - 1) of the sum over
    k >= 0 of ((edge + k) / edge)**(-alpha), added in turn (F. Johansson,
    Numer. Algorithms 69, 2015), at a float or an array of edges >=
    max(12, 1.5 alpha). The series ends after the first correction below
    1e-17 of max(1, acc) at the smallest edge, where they are largest: a
    sum they complete is at least 1, in units of its first tail term."""
    scalar = isinstance(edge, float)
    low = edge if scalar else float(edge.min())
    enough = _NEGLIGIBLE * max(1.0, acc)
    square = edge * edge
    rising = alpha / edge
    top = rising if scalar else alpha / low     # the rising product at low
    for j, coeff in enumerate(_EM_COEFFS, 1):
        acc = acc + coeff * rising
        if abs(coeff * top) <= enough:
            break
        factor = (alpha + 2 * j - 1) * (alpha + 2 * j)
        rising = rising * (factor / square)
        top = rising if scalar else top * (factor / (low * low))
    return acc


# The normalisers of the model constructors and of the fit objective, which
# forms kernel arguments without a model. They take Python floats.
def _lognormal_terms(mu: float, sigma: float):
    """The kernel arguments (mu, sigma, log M), z(0.5) = (log 0.5 - mu) /
    sigma and M, the mass of (0.5, inf) under the continuous density."""
    if not math.isfinite(mu):
        raise ParameterError(f"mu must be finite, got {mu}")
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ParameterError(f"sigma must be > 0 and finite, got {sigma}")
    z_half = (math.log(0.5) - mu) / sigma
    norm = 0.5 * math.erfc(z_half * _INV_SQRT2)
    if norm <= 0.0:
        raise ParameterError("support mass underflows for these parameters")
    return (mu, sigma, math.log(norm)), z_half, norm


def _hooked_terms(alpha: float, b: float):
    """The kernel arguments (b + 1, -alpha, log S), the head of S (see
    ``_power_head``) and S, the sum of ((b + x) / (b + 1))**(-alpha) over
    the support."""
    if not (alpha > 1.0) or not math.isfinite(alpha):
        raise ParameterError(f"alpha must be > 1 and finite, got {alpha}")
    if not (b > 0.0) or not math.isfinite(b):
        raise ParameterError(f"b must be > 0 and finite, got {b}")
    c = b + 1.0
    if c >= max(_EM_FLOOR, _EM_RATIO * alpha):     # no head: the tail from b + 1 is S
        head, total = ((), 1.0, c), _em_sum(alpha, c, c / (alpha - 1.0) + 0.5)
    else:
        totals, term, edge = head = _power_head(alpha, b)
        total = totals[-1]
        if term:
            total += term * _em_sum(alpha, edge, edge / (alpha - 1.0) + 0.5)
    return (c, -alpha, math.log(total)), head, total


class _DiscreteModel(ABC):
    """Shared quantile/sampling machinery for all model families: a family
    gives F at an array of counts (``_cdf_at``) and a closed-form quantile
    estimate (``_start``). Models hold only parameters and normalisers."""

    family: str
    PARAMS: tuple[str, ...]     # parameter names, in constructor order

    # --- family-specific primitives -------------------------------------

    def _log_pmf(self, x: np.ndarray) -> np.ndarray:
        """log P(X = x) for a validated int64 array.

        A family computes it as ``_log_pmf_at(_features(x), *_kernel_args)``.
        The features are parameter-free, so a fit computes them once per
        sample, and the kernel takes each parameter as a scalar or as one
        value per feature element, so one call can serve several fits
        (under the caller's ``np.errstate``: a mass that underflows is -inf).
        """
        with np.errstate(divide="ignore"):
            return self._log_pmf_at(self._features(x), *self._kernel_args)

    @abstractmethod
    def _cdf_at(self, x: np.ndarray) -> np.ndarray:
        """``cdf`` of a non-empty int64 array of counts in [1, 2**63), unchecked."""

    @abstractmethod
    def _start(self, u: np.ndarray) -> np.ndarray:
        """A float64 estimate of the quantile at each u (may overflow to inf)."""

    @property
    def params(self) -> dict[str, float]:
        """Parameter record keyed by parameter name."""
        return {name: getattr(self, name) for name in self.PARAMS}

    # --- public API ------------------------------------------------------

    def log_pmf(self, x):
        scalar = np.ndim(x) == 0
        out = self._log_pmf(positive_ints(x, "x"))
        return float(out[0]) if scalar else out

    def pmf(self, x):
        scalar = np.ndim(x) == 0
        out = np.exp(self._log_pmf(positive_ints(x, "x")))
        return float(out[0]) if scalar else out

    def cdf(self, x):
        """F(x) = P(X <= x), evaluated at each count given."""
        scalar = np.ndim(x) == 0
        arr = positive_ints(x, "x")
        if arr.size == 0:
            return np.empty(0)
        out = self._cdf_at(arr)
        return float(out[0]) if scalar else out

    def quantile(self, u):
        """Smallest x >= 1 with F(x) >= u, for u in [0, 1); 2**62 when F
        stays below u up to there."""
        scalar = np.isscalar(u) or np.ndim(u) == 0
        arr = np.asarray(u, dtype=np.float64).reshape(-1)
        if arr.size and (arr.min() < 0.0 or arr.max() >= 1.0 or not np.all(np.isfinite(arr))):
            raise DomainError("u must lie in [0, 1)")
        out = self._quantile_array(arr)
        return int(out[0]) if scalar else out

    def _quantile_array(self, u: np.ndarray) -> np.ndarray:
        """``quantile`` of a float64 array of u in [0, 1), unchecked: F is read
        at the closed-form start x and at x - 1 once per run of equal starts
        (a Monte-Carlo block's draws come sorted), and ``_search`` mends the
        starts that miss. The result depends on the model and u alone."""
        if u.size == 0:
            return np.empty(0, dtype=np.int64)
        with np.errstate(over="ignore", divide="ignore"):
            start = np.clip(np.ceil(self._start(u)), 1, MAX_COUNT)
        first = np.flatnonzero(np.append(True, start[1:] != start[:-1]))
        v = start[first].astype(np.int64)
        del start           # freed before the per-draw arrays below are made
        runs = np.diff(first, append=u.size)
        f = self._cdf_at(np.concatenate([v, np.maximum(v - 1, 1)]))
        # F(2**62) counts as above every u, F(0) as below
        up = np.repeat(np.where(v < MAX_COUNT, f[:v.size], np.inf), runs) < u
        down = np.repeat(np.where(v > 1, f[v.size:], -np.inf), runs) >= u
        x = np.repeat(v, runs)
        miss = np.flatnonzero(up | down)
        if miss.size:
            x[miss] = self._search(u[miss], x[miss], up[miss])
        return x

    def _search(self, u: np.ndarray, x: np.ndarray, up: np.ndarray) -> np.ndarray:
        """Quantiles from starts x that missed: F(x) < u where ``up``, else
        F(x - 1) >= u. Steps of 1, 2, 4, ... away from x find each bracket's
        open end, then it is bisected; F(0) < u <= F(2**62) by convention."""
        lo, hi = np.where(up, x, 0), np.where(up, MAX_COUNT, x - 1)  # F(lo) < u <= F(hi)
        out, index, step = hi.copy(), np.arange(x.size), 1
        while (wide := hi - lo > 1).any():
            index, u, up, lo, hi = (a[wide] for a in (index, u, up, lo, hi))
            probe = np.where(np.where(up, hi == MAX_COUNT, lo == 0),
                             np.where(up, lo + step, hi - step), lo + (hi - lo) // 2)
            np.clip(probe, lo + 1, hi - 1, out=probe)
            above = self._cdf_at(probe) >= u
            hi, lo = np.where(above, probe, hi), np.where(above, lo, probe)
            out[index] = hi
            step = min(2 * step, MAX_COUNT)
        return out

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws by inverse transform; identical seed, identical output."""
        if n < 0:
            raise DomainError("sample size must be >= 0")
        return self.sample_with(spawn_rng(seed), n)

    def sample_with(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._quantile_array(rng.random(n))

    def __repr__(self):
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{type(self).__name__}({inner})"

    def __eq__(self, other):
        return type(other) is type(self) and other.params == self.params

    def __hash__(self):
        return hash((type(self).__name__, tuple(self.params.items())))


class DiscretisedLognormal(_DiscreteModel):
    """Lognormal mass integrated over unit intervals around each integer.

    P(X = x) is the lognormal(mu, sigma) density integrated over
    (x - 0.5, x + 0.5], divided by the density mass of (0.5, inf) so the
    probabilities sum to 1 over {1, 2, ...}.

    Parameters
    ----------
    mu : float
        Location on the log scale.
    sigma : float
        Scale on the log scale, > 0.
    """

    family = "lognormal"
    PARAMS = ("mu", "sigma")

    def __init__(self, mu: float, sigma: float):
        self.mu = mu = float(mu)
        self.sigma = sigma = float(sigma)
        self._kernel_args, self._z_half, self._norm = _lognormal_terms(mu, sigma)

    @staticmethod
    def _features(x: np.ndarray) -> np.ndarray:
        """log(x - 0.5) and log(x + 0.5), the parameter-free interval edges,
        as the rows of one (2, m) array."""
        return np.log(x.astype(np.float64) + _HALF_WIDTHS)

    @staticmethod
    def _log_pmf_at(features, mu, sigma, log_norm) -> np.ndarray:
        """Needs ``np.errstate(divide="ignore")``: a mass that underflows is -inf."""
        z = features - mu
        z /= sigma
        out = _normal_interval_masses(z)
        np.log(out, out=out)
        out -= log_norm
        return out

    def _cdf_at(self, x: np.ndarray) -> np.ndarray:
        """The normal mass of (z(0.5), z(x + 0.5)] over that of (z(0.5), inf),
        as ``_normal_interval_masses`` forms it, with the erfc values at the
        fixed edge z(0.5) read once."""
        w = (np.log(x + 0.5) - self.mu) / self.sigma
        right = w > -self._z_half           # z(0.5) + z(x + 0.5) > 0
        w *= _INV_SQRT2
        erfc(np.negative(w, out=w, where=~right), out=w)
        edge = self._z_half * _INV_SQRT2
        out = np.where(right, erfc(edge) - w, w - erfc(-edge))
        out *= 0.5
        return np.minimum(np.maximum(out, 0.0, out=out) / self._norm, 1.0)

    def _start(self, u: np.ndarray) -> np.ndarray:
        """The continuous quantile less 0.5: F(x) is the lognormal probability
        of (0.5, x + 0.5] over that of (0.5, inf)."""
        return np.exp(self.mu - self.sigma * ndtri((1.0 - u) * self._norm)) - 0.5

    def continuous_mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma ** 2)


class HookedPowerLaw(_DiscreteModel):
    """Point masses proportional to (b + x)**(-alpha) on {1, 2, ...}.

    The normalising constant is the Hurwitz zeta value zeta(alpha, b + 1),
    computed as a few explicit terms plus an Euler-Maclaurin tail to
    about 1e-16 relative accuracy over the whole parameter range the
    fitter can visit (see ``_power_head`` and ``_em_sum``). It is carried
    with a (b + 1)**alpha scaling, so the pmf and the CDF stay finite for
    any alpha > 1, b > 0.

    Parameters
    ----------
    alpha : float
        Shape, > 1 (required for the normaliser to converge).
    b : float
        Scale in count units, > 0.
    """

    family = "hooked"
    PARAMS = ("alpha", "b")

    def __init__(self, alpha: float, b: float):
        self.alpha = alpha = float(alpha)
        self.b = b = float(b)
        self._kernel_args, self._head, self._scaled_norm = _hooked_terms(alpha, b)

    @property
    def log_normalizer(self) -> float:
        return self._kernel_args[2] - self.alpha * math.log1p(self.b)

    @staticmethod
    def _features(x: np.ndarray) -> np.ndarray:
        """x - 1 as float64, the parameter-free distance from the support's start."""
        return (x - 1).astype(np.float64)

    @staticmethod
    def _log_pmf_at(features, b_plus_1, neg_alpha, log_scaled_norm) -> np.ndarray:
        out = features / b_plus_1
        np.log1p(out, out=out)
        out *= neg_alpha
        out -= log_scaled_norm
        return out

    def _cdf_at(self, x: np.ndarray) -> np.ndarray:
        """H(x) / S, H(x) the sum of the terms up to x: the head's running
        totals, then S - T(x + 1) for T the Euler-Maclaurin tail after x, or
        where F < 1/2 the head's total plus T(e0) - T(x + 1) (e0 = b + h + 1)
        arranged without cancellation: a few ulp of relative accuracy."""
        totals, term, edge = self._head
        alpha, norm, h = self.alpha, self._scaled_norm, len(totals)
        k = (x - h).astype(np.float64)                  # terms past the head
        past = k > 0.0
        if h:
            k = k[past]
        if not (term and k.size):   # past a negligible rest F is total / S = 1
            return np.array((0.0,) + totals)[np.minimum(x, h)] / norm
        e = edge + k                                    # b + x + 1
        log_ratio = np.log1p(k / edge)                  # log(e / e0)
        decay = np.exp(-alpha * log_ratio)              # f(x + 1) / f(e0)
        corr = _em_sum(alpha, e, 0.0)
        tail = decay * (e / (alpha - 1.0) + 0.5 + corr)
        tail *= term                                    # T(x + 1)
        lower = np.flatnonzero(tail > 0.5 * norm)         # F below 1/2
        summed = norm - tail
        if lower.size:
            ratio, decay, corr = log_ratio[lower], decay[lower], corr[lower]
            # T(e0) - T(x + 1), over f(e0)
            gained = (np.expm1((1.0 - alpha) * ratio) * (-edge / (alpha - 1.0))
                      + 0.5 * (1.0 - decay) + _em_sum(alpha, edge, 0.0) - decay * corr)
            summed[lower] = (totals[-1] if h else 0.0) + term * gained
        out = summed
        if h:
            out = np.array((0.0,) + totals)[np.minimum(x, h)]
            out[past] = summed
        out /= norm
        return np.minimum(out, 1.0, out=out)

    def _start(self, u: np.ndarray) -> np.ndarray:
        """x solving T(x + 1) = (1 - u) S, with T(x + 1) taken as the integral
        I of ((b + t) / (b + 1))**(-alpha) over t > E = b + x + 1/2 less the
        midpoint rule's error I alpha (alpha - 1) / (24 E**2): E from I
        alone, less alpha / (24 E)."""
        c = self.b + 1.0
        level = np.log((1.0 - u) * (self._scaled_norm * (self.alpha - 1.0) / c))
        edge = c * np.exp(level / (1.0 - self.alpha))
        return edge - (self.alpha / 24.0) / edge - (self.b + 0.5)

    def continuous_mean(self) -> float:
        """Mean of the continuous analogue: the Lomax law with shape alpha
        and scale b (an approximation to the discrete mean)."""
        return self.b / (self.alpha - 1.0)


# The fitted families by name, in report order.
MODELS = {cls.family: cls for cls in (DiscretisedLognormal, HookedPowerLaw)}


def family_class(family: str):
    """The class of ``family``, a key of ``MODELS``; ParameterError otherwise."""
    if family not in MODELS:
        raise ParameterError(f"unknown family {family!r}; expected one of {tuple(MODELS)}")
    return MODELS[family]


class Mixture(_DiscreteModel):
    """Finite mixture of discrete models on the same support.

    Weights are normalised to sum to 1. A single-component mixture
    reproduces its component exactly, including the sampling stream.
    """

    family = "mixture"

    def __init__(self, components, weights):
        components = tuple(components)
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if len(components) == 0 or w.size != len(components):
            raise InvalidWeightsError("need one weight per component, at least one component")
        if not np.all(np.isfinite(w)) or w.min() <= 0.0:
            raise InvalidWeightsError("weights must be finite and > 0")
        w = w / w.sum()
        w.flags.writeable = False
        self.components = components
        self.weights = w

    @property
    def params(self) -> dict[str, float]:
        return {f"weight_{i}": float(w) for i, w in enumerate(self.weights)}

    def __repr__(self):
        inner = ", ".join(
            f"{w:g}*{c!r}" for w, c in zip(self.weights, self.components)
        )
        return f"Mixture({inner})"

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.components == self.components
            and np.array_equal(other.weights, self.weights)
        )

    def __hash__(self):
        return hash((self.components, tuple(self.weights)))

    def _log_pmf(self, x: np.ndarray) -> np.ndarray:
        stacked = np.stack([c._log_pmf(x) for c in self.components])
        stacked += np.log(self.weights)[:, None]
        top = stacked.max(axis=0)
        with np.errstate(invalid="ignore"):
            out = top + np.log(np.exp(stacked - top).sum(axis=0))
        return np.where(np.isfinite(top), out, top)

    def _cdf_at(self, x: np.ndarray) -> np.ndarray:
        out = sum(w * c._cdf_at(x) for w, c in zip(self.weights, self.components))
        return np.minimum(out, 1.0, out=out)

    def _start(self, u: np.ndarray) -> np.ndarray:
        """The smallest component start: below every component's quantile,
        F of the mixture is below u."""
        return np.minimum.reduce([c._start(u) for c in self.components])

    def continuous_mean(self) -> float:
        return float(sum(w * c.continuous_mean()
                         for w, c in zip(self.weights, self.components)))

