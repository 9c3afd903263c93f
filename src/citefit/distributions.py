"""Discrete distributions on the support {1, 2, 3, ...}.

Two families are provided, plus finite mixtures of them:

* :class:`DiscretisedLognormal` puts at each integer x the lognormal
  density mass of the unit interval (x - 0.5, x + 0.5], renormalised by
  the total mass of (0.5, inf).
* :class:`HookedPowerLaw` uses the density value (b + x)**(-alpha) as a
  point mass with a normalising constant, the discrete counterpart of a
  Lomax (Pareto type II) law; it needs alpha > 1 to be summable. The
  normaliser is a Hurwitz zeta value, evaluated in closed form.

All models are immutable after construction and safe for concurrent use;
the lazily grown cumulative table behind ``cdf``, ``quantile`` and
``sample`` is extended under a lock and readers only ever see complete
arrays.
"""

from __future__ import annotations

import functools
import math
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from citefit.exceptions import (
    DomainError,
    InvalidWeightsError,
    MomentUndefinedError,
    ParameterError,
)
from citefit.sample import CitationSample, positive_ints
from citefit.seeding import spawn_rng

FAMILIES = ("lognormal", "hooked")

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

# Quantile tables start small and double; beyond the cap (64 MiB of
# float64) quantiles fall back to bisection on the tail formula.
_TABLE_START = 1 << 10
_TABLE_CAP = 1 << 23
MAX_COUNT = 2 ** 62     # draws saturate here; larger counts are not ingested

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _normal_interval_masses(z_lo: np.ndarray, z_hi: np.ndarray) -> np.ndarray:
    """Phi(z_hi) - Phi(z_lo) for standard-normal Phi, elementwise.

    Intervals on the right half-axis are differenced through upper-tail
    erfc values and mirrored otherwise, which preserves relative accuracy
    deep in both tails (needed for tail pmf values feeding KS statistics
    and log-likelihoods).
    """
    z_lo = np.asarray(z_lo, dtype=np.float64)
    z_hi = np.asarray(z_hi, dtype=np.float64)
    right = (z_lo + z_hi) > 0.0
    a = np.where(right, z_lo, -z_hi)
    c = np.where(right, z_hi, -z_lo)
    out = 0.5 * (erfc(a * _INV_SQRT2) - erfc(c * _INV_SQRT2))
    return np.maximum(out, 0.0)


def _power_tail(alpha: float, b: float, start: int) -> float:
    """Sum of ((b + x) / (b + 1))**(-alpha) over the integers x >= start.

    This is (b + 1)**alpha * zeta(alpha, b + start), with the scaling
    that keeps every term in floating range for any alpha > 1, b > 0
    (the x = 1 term is exactly 1) where the bare Hurwitz zeta value
    underflows. Terms are summed one by one, each exponent formed as
    -alpha * log1p((x - 1) / (b + 1)) so that it keeps full relative
    accuracy when b is large against x. The sum stops as soon as the
    integral bound on what is left falls below 1e-17 of the total, or
    otherwise, once b + x reaches max(12, 1.5 alpha), adds the
    Euler-Maclaurin tail from there (F. Johansson, "Rigorous
    high-precision computation of the Hurwitz zeta function and its
    derivatives", Numer. Algorithms 69, 2015).
    """
    c = b + 1.0
    reach = max(_EM_FLOOR, _EM_RATIO * alpha)
    total = 0.0
    x = start
    while True:
        term = math.exp(-alpha * math.log1p((x - 1) / c))
        edge = b + x
        if edge >= reach:
            break
        if term * (1.0 + edge / (alpha - 1.0)) <= _NEGLIGIBLE * total:
            return total
        total += term
        x += 1
    if term == 0.0:
        return total
    # sum over k >= 0 of ((edge + k) / edge)**(-alpha): the integral, half
    # the first term, then B_2j / (2j)! * alpha (alpha + 1) ... (alpha + 2j - 2)
    # / edge**(2j - 1) until the next correction is negligible
    tail = edge / (alpha - 1.0) + 0.5
    rising = alpha / edge
    for j, coeff in enumerate(_EM_COEFFS, 1):
        step = coeff * rising
        tail += step
        if abs(step) <= _NEGLIGIBLE * tail:
            break
        rising *= (alpha + 2 * j - 1) * (alpha + 2 * j) / (edge * edge)
    return total + term * tail


class _CdfTable:
    """Geometrically grown cache of F(1), ..., F(m).

    The table for a given size is a pure function of the model, so it is
    recomputed from scratch on growth; any interleaving of concurrent
    readers and growers observes identical values.
    """

    def __init__(self, grid_fn):
        self._grid_fn = grid_fn
        self._lock = threading.Lock()
        self._cdf: np.ndarray | None = None

    def __getstate__(self):
        # the cache is rebuilt on demand; locks do not pickle
        return {"_grid_fn": self._grid_fn}

    def __setstate__(self, state):
        self._grid_fn = state["_grid_fn"]
        self._lock = threading.Lock()
        self._cdf = None

    def ensure(self, length: int = 1, u_max: float = 0.0) -> np.ndarray:
        """The table, first grown to the smallest doubling of its size that
        holds ``length`` entries, then doubled until F(m) >= ``u_max``, the
        cap, or saturation. A saturated table still grows by one doubling
        per call, which ``_quantile_beyond`` brackets from."""
        with self._lock:
            cdf = self._cdf
            size = _TABLE_START if cdf is None else len(cdf)
            while size < length:
                size *= 2
            if cdf is None or size > len(cdf):
                cdf = self._cdf = self._build(size)
            while cdf[-1] < u_max and len(cdf) < _TABLE_CAP:
                grown = self._build(2 * len(cdf))
                # saturated in floating point; growing further is futile
                saturated = grown[-1] <= cdf[-1] and len(grown) > 4 * _TABLE_START
                cdf = self._cdf = grown
                if saturated:
                    break
        return cdf

    def _build(self, m: int) -> np.ndarray:
        out = self._grid_fn(m)
        out.flags.writeable = False
        return out


class _DiscreteModel(ABC):
    """Shared quantile/sampling machinery for all model families.

    The CDF table is built on first use: models built only to evaluate a
    likelihood never allocate one. Threads that race to build it each get
    an equal table, since it is a pure function of the model.
    """

    family: str

    @functools.cached_property
    def _table(self) -> _CdfTable:
        return _CdfTable(self._grid)

    # --- family-specific primitives -------------------------------------

    def _log_pmf(self, x: np.ndarray) -> np.ndarray:
        """log P(X = x) for a validated int64 array; a fit computes the
        parameter-free ``_features(x)`` once and calls ``_log_pmf_at``."""
        return self._log_pmf_at(self._features(x))

    @abstractmethod
    def _grid(self, m: int) -> np.ndarray:
        """F(1), ..., F(m) as a monotone float64 array."""

    @abstractmethod
    def _cdf_beyond(self, x: int) -> float:
        """F(x) for x beyond the table cap (tail formula)."""

    @property
    @abstractmethod
    def params(self) -> dict[str, float]:
        """Parameter record keyed by parameter name."""

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
        """F(x): the table up to the cap, the tail formula beyond it."""
        scalar = np.ndim(x) == 0
        arr = positive_ints(x, "x")
        if arr.size == 0:
            return np.empty(0)
        m = int(arr.max())
        table = self._table.ensure(min(m, _TABLE_CAP))
        out = table.take(arr - 1, mode="clip")
        if m > len(table):
            beyond = arr > len(table)
            out[beyond] = [self._cdf_beyond(int(v)) for v in arr[beyond]]
        return float(out[0]) if scalar else out

    def quantile(self, u):
        """Smallest x >= 1 with F(x) >= u, for u in [0, 1)."""
        scalar = np.isscalar(u) or np.ndim(u) == 0
        arr = np.asarray(u, dtype=np.float64).reshape(-1)
        if arr.size and (arr.min() < 0.0 or arr.max() >= 1.0 or not np.all(np.isfinite(arr))):
            raise DomainError("u must lie in [0, 1)")
        out = self._quantile_array(arr)
        return int(out[0]) if scalar else out

    def _quantile_array(self, u: np.ndarray) -> np.ndarray:
        if u.size == 0:
            return np.empty(0, dtype=np.int64)
        table = self._table.ensure(u_max=float(u.max()))
        x = np.searchsorted(table, u, side="left") + 1
        overflow = u > table[-1]
        if np.any(overflow):
            for idx in np.flatnonzero(overflow):
                x[idx] = self._quantile_beyond(float(u[idx]), len(table))
        return x.astype(np.int64)

    def _quantile_beyond(self, u: float, lo: int) -> int:
        # exponential bracket then bisection on the tail cdf; saturates at
        # 2**62 for quantiles beyond any representable count
        hi = 2 * lo
        while self._cdf_beyond(hi) < u:
            lo = hi
            hi *= 2
            if hi >= MAX_COUNT:
                return MAX_COUNT
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._cdf_beyond(mid) >= u:
                hi = mid
            else:
                lo = mid
        return hi

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

    def __init__(self, mu: float, sigma: float):
        mu = float(mu)
        sigma = float(sigma)
        if not math.isfinite(mu):
            raise ParameterError(f"mu must be finite, got {mu}")
        if not (sigma > 0.0) or not math.isfinite(sigma):
            raise ParameterError(f"sigma must be > 0 and finite, got {sigma}")
        self.mu = mu
        self.sigma = sigma
        self._z_half = (math.log(0.5) - mu) / sigma
        # mass of (0.5, inf) under the continuous density
        self._norm = 0.5 * math.erfc(self._z_half * _INV_SQRT2)
        if self._norm <= 0.0:
            raise ParameterError("support mass underflows for these parameters")
        self._log_norm = math.log(self._norm)

    @property
    def params(self) -> dict[str, float]:
        return {"mu": self.mu, "sigma": self.sigma}

    @staticmethod
    def _features(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log(x - 0.5) and log(x + 0.5), the parameter-free interval edges."""
        xf = x.astype(np.float64)
        return np.log(xf - 0.5), np.log(xf + 0.5)

    def _log_pmf_at(self, features) -> np.ndarray:
        z_lo, z_hi = ((log_edge - self.mu) / self.sigma for log_edge in features)
        with np.errstate(divide="ignore"):
            return np.log(_normal_interval_masses(z_lo, z_hi)) - self._log_norm

    def _grid(self, m: int) -> np.ndarray:
        xf = np.arange(1, m + 1, dtype=np.float64)
        z_hi = (np.log(xf + 0.5) - self.mu) / self.sigma
        z_lo = np.full(m, self._z_half)
        out = _normal_interval_masses(z_lo, z_hi) / self._norm
        # the per-element tail branch can wiggle by an ulp; force monotone
        return np.minimum(np.maximum.accumulate(out), 1.0)

    def _cdf_beyond(self, x: int) -> float:
        z_hi = (math.log(x + 0.5) - self.mu) / self.sigma
        mass = 0.5 * (math.erfc(self._z_half * _INV_SQRT2) - math.erfc(z_hi * _INV_SQRT2))
        return min(mass / self._norm, 1.0)

    def continuous_mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma ** 2)

    def continuous_sd(self) -> float:
        s2 = self.sigma ** 2
        return math.sqrt((math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2))


class HookedPowerLaw(_DiscreteModel):
    """Point masses proportional to (b + x)**(-alpha) on {1, 2, ...}.

    The normalising constant is the Hurwitz zeta value zeta(alpha, b + 1),
    computed as a few explicit terms plus an Euler-Maclaurin tail to
    about 1e-16 relative accuracy over the whole parameter range the
    fitter can visit (see ``_power_tail``). It is carried with a
    (b + 1)**alpha scaling, so the pmf, the CDF table and the tail
    formula behind ``cdf`` and ``quantile`` stay finite for any
    alpha > 1, b > 0.

    Parameters
    ----------
    alpha : float
        Shape, > 1 (required for the normaliser to converge).
    b : float
        Scale in count units, > 0.
    """

    family = "hooked"

    def __init__(self, alpha: float, b: float):
        alpha = float(alpha)
        b = float(b)
        if not (alpha > 1.0) or not math.isfinite(alpha):
            raise ParameterError(f"alpha must be > 1 and finite, got {alpha}")
        if not (b > 0.0) or not math.isfinite(b):
            raise ParameterError(f"b must be > 0 and finite, got {b}")
        self.alpha = alpha
        self.b = b
        # sum of ((b + x) / (b + 1))**(-alpha) over the support
        self._scaled_norm = _power_tail(alpha, b, 1)
        self._log_scaled_norm = math.log(self._scaled_norm)

    @property
    def params(self) -> dict[str, float]:
        return {"alpha": self.alpha, "b": self.b}

    @property
    def normalizer(self) -> float:
        """Sum of (b + x)**(-alpha) over the support (may underflow to 0.0
        for extreme parameters; ``log_normalizer`` is always finite)."""
        return math.exp(self.log_normalizer)

    @property
    def log_normalizer(self) -> float:
        return self._log_scaled_norm - self.alpha * math.log1p(self.b)

    @staticmethod
    def _features(x: np.ndarray) -> np.ndarray:
        """x - 1 as float64, the parameter-free distance from the support's start."""
        return (x - 1).astype(np.float64)

    def _log_pmf_at(self, features) -> np.ndarray:
        return -self.alpha * np.log1p(features / (self.b + 1.0)) - self._log_scaled_norm

    def _grid(self, m: int) -> np.ndarray:
        steps = np.arange(m, dtype=np.float64)
        terms = np.exp(-self.alpha * np.log1p(steps / (self.b + 1.0)))
        out = np.cumsum(terms) / self._scaled_norm
        return np.minimum(out, 1.0)

    def _cdf_beyond(self, x: int) -> float:
        return min(1.0 - _power_tail(self.alpha, self.b, x + 1) / self._scaled_norm, 1.0)

    def continuous_mean(self) -> float:
        return self.b / (self.alpha - 1.0)

    def continuous_sd(self) -> float:
        if self.alpha <= 2.0:
            raise MomentUndefinedError(
                f"sd undefined for alpha <= 2 (infinite variance), got alpha={self.alpha}"
            )
        a, b = self.alpha, self.b
        return b * math.sqrt(a / (a - 2.0)) / (a - 1.0)


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

    def _grid(self, m: int) -> np.ndarray:
        out = sum(w * c._grid(m) for w, c in zip(self.weights, self.components))
        return np.minimum(np.maximum.accumulate(out), 1.0)

    def _cdf_beyond(self, x: int) -> float:
        return min(
            sum(w * c._cdf_beyond(x) for w, c in zip(self.weights, self.components)),
            1.0,
        )

    def continuous_mean(self) -> float:
        return float(sum(w * c.continuous_mean()
                         for w, c in zip(self.weights, self.components)))

    def continuous_sd(self) -> float:
        mean = self.continuous_mean()
        second = sum(
            w * (c.continuous_sd() ** 2 + c.continuous_mean() ** 2)
            for w, c in zip(self.weights, self.components)
        )
        return math.sqrt(max(second - mean ** 2, 0.0))


@dataclass(frozen=True)
class Moments:
    """Continuous-analogue mean and sd (approximations to the discrete moments)."""

    mean: float
    sd: float | None

    @property
    def sd_defined(self) -> bool:
        return self.sd is not None


def continuous_moments(model) -> Moments:
    """Closed-form mean and sd of the continuous analogue of ``model``.

    For the lognormal family these are exp(mu + sigma**2 / 2) and
    sqrt((exp(sigma**2) - 1) * exp(2 mu + sigma**2)).  For the hooked
    family the standard Lomax formulae are used with ``alpha`` read as
    the Lomax shape and ``b`` as its scale: mean b / (alpha - 1), sd
    defined only for alpha > 2 (``sd`` is None below that).
    """
    mean = model.continuous_mean()
    try:
        sd = model.continuous_sd()
    except MomentUndefinedError:
        sd = None
    return Moments(mean=mean, sd=sd)


def make_model(family: str, *params: float) -> _DiscreteModel:
    """Build a model from a family name and its two parameters."""
    if family == "lognormal":
        return DiscretisedLognormal(*params)
    if family == "hooked":
        return HookedPowerLaw(*params)
    raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")


def simulate_sample(model, n: int, seed: int, label: str = "") -> CitationSample:
    """Draw n counts from ``model`` into a :class:`CitationSample`."""
    counts = model.sample(n, seed)
    return CitationSample(counts, offset_applied=1,
                          label=label or f"simulated[{model!r}]")
