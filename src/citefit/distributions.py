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

import numpy as np
from scipy.special import erfc

from citefit.exceptions import DomainError, InvalidWeightsError, ParameterError
from citefit.sample import positive_ints
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
_HALF_WIDTHS = np.array([[-0.5], [0.5]])    # lognormal interval edges x -/+ 0.5


def _normal_interval_masses(z: np.ndarray) -> np.ndarray:
    """Phi(z[1]) - Phi(z[0]) for standard-normal Phi, elementwise over a
    (2, m) float64 array of interval edges.

    Intervals on the right half-axis are differenced through upper-tail
    erfc values and mirrored otherwise, which preserves relative accuracy
    deep in both tails (needed for tail pmf values feeding KS statistics
    and log-likelihoods). Both edges go through one erfc call; mirroring
    the scaled edges is exact, since (-z) * k == -(z * k) in IEEE
    arithmetic.
    """
    right = (z[0] + z[1]) > 0.0
    w = z * _INV_SQRT2
    e = np.where(right, w, -w[::-1])
    erfc(e, out=e)
    out = 0.5 * (e[0] - e[1])
    return np.maximum(out, 0.0, out=out)


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
    """Geometrically grown cache of F(1), ..., F(m), built by a model's
    ``_grid``.

    The table for a given size is a pure function of the model, so it is
    recomputed from scratch on growth; any interleaving of concurrent
    readers and growers observes identical values. The grid function is
    passed to ``ensure`` rather than held, so that a model and its table
    form no reference cycle and are freed as soon as the model is.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._cdf: np.ndarray | None = None
        self._saturated = False

    def __reduce__(self):
        # the cache is rebuilt on demand; locks do not pickle
        return type(self), ()

    def ensure(self, grid_fn, length: int = 1, u_max: float = 0.0) -> np.ndarray:
        """The table, first grown to the smallest doubling of its size that
        holds ``length`` entries, then doubled until F(m) >= ``u_max``, the
        cap, or a doubling that leaves F(m) where it was. Once saturated
        that way, the table no longer grows for any ``u_max``."""
        with self._lock:
            cdf = self._cdf
            size = _TABLE_START if cdf is None else len(cdf)
            while size < length:
                size *= 2
            if cdf is None or size > len(cdf):
                cdf = self._cdf = _build(grid_fn, size)
            while not self._saturated and cdf[-1] < u_max and len(cdf) < _TABLE_CAP:
                grown = _build(grid_fn, 2 * len(cdf))
                # saturated in floating point: growing for a u_max is futile
                # from now on (quantiles beyond it come from the tail formula)
                self._saturated = grown[-1] <= cdf[-1] and len(grown) > 4 * _TABLE_START
                cdf = self._cdf = grown
        return cdf


def _build(grid_fn, m: int) -> np.ndarray:
    out = grid_fn(m)
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
        return _CdfTable()

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
        out = self._cdf_at(arr)
        return float(out[0]) if scalar else out

    def _cdf_at(self, x: np.ndarray) -> np.ndarray:
        """``cdf`` of a non-empty int64 array of counts in [1, 2**63), unchecked."""
        m = int(x.max())
        table = self._table.ensure(self._grid, min(m, _TABLE_CAP))
        out = table.take(x - 1, mode="clip")
        if m > len(table):
            beyond = x > len(table)
            out[beyond] = [self._cdf_beyond(int(v)) for v in x[beyond]]
        return out

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
        u_max = float(u.max())
        table = self._table.ensure(self._grid, u_max=u_max)
        x = np.searchsorted(table, u, side="left") + 1
        if u_max > table[-1]:
            for idx in np.flatnonzero(u > table[-1]):
                x[idx] = self._quantile_beyond(float(u[idx]))
        return x

    def _quantile_beyond(self, u: float) -> int:
        """Smallest x with ``_cdf_beyond(x) >= u``, for u beyond the table.

        An exponential bracket from 1, then bisection, so the result depends
        on the model and u alone, not on how far the table has grown (a
        table saturated in floating point can end below u at any length).
        Saturates at 2**62 for quantiles beyond any representable count.
        """
        lo, hi = 0, 1
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
    def _features(x: np.ndarray) -> np.ndarray:
        """log(x - 0.5) and log(x + 0.5), the parameter-free interval edges,
        as the rows of one (2, m) array."""
        return np.log(x.astype(np.float64) + _HALF_WIDTHS)

    @property
    def _kernel_args(self) -> tuple[float, float, float]:
        return self.mu, self.sigma, self._log_norm

    @staticmethod
    def _log_pmf_at(features, mu, sigma, log_norm) -> np.ndarray:
        """Needs ``np.errstate(divide="ignore")``: a mass that underflows is -inf."""
        z = features - mu
        z /= sigma
        out = np.log(_normal_interval_masses(z))
        out -= log_norm
        return out

    def _grid(self, m: int) -> np.ndarray:
        z = np.empty((2, m))
        z[0] = self._z_half
        z[1] = (np.log(np.arange(1, m + 1, dtype=np.float64) + 0.5) - self.mu) / self.sigma
        out = _normal_interval_masses(z) / self._norm
        # the per-element tail branch can wiggle by an ulp; force monotone
        return np.minimum(np.maximum.accumulate(out), 1.0)

    def _cdf_beyond(self, x: int) -> float:
        z_hi = (math.log(x + 0.5) - self.mu) / self.sigma
        mass = 0.5 * (math.erfc(self._z_half * _INV_SQRT2) - math.erfc(z_hi * _INV_SQRT2))
        return min(mass / self._norm, 1.0)

    def continuous_mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma ** 2)


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
    def log_normalizer(self) -> float:
        return self._log_scaled_norm - self.alpha * math.log1p(self.b)

    @staticmethod
    def _features(x: np.ndarray) -> np.ndarray:
        """x - 1 as float64, the parameter-free distance from the support's start."""
        return (x - 1).astype(np.float64)

    @property
    def _kernel_args(self) -> tuple[float, float, float]:
        return self.b + 1.0, -self.alpha, self._log_scaled_norm

    @staticmethod
    def _log_pmf_at(features, b_plus_1, neg_alpha, log_scaled_norm) -> np.ndarray:
        out = features / b_plus_1
        np.log1p(out, out=out)
        out *= neg_alpha
        out -= log_scaled_norm
        return out

    def _grid(self, m: int) -> np.ndarray:
        steps = np.arange(m, dtype=np.float64)
        terms = np.exp(-self.alpha * np.log1p(steps / (self.b + 1.0)))
        out = np.cumsum(terms) / self._scaled_norm
        return np.minimum(out, 1.0)

    def _cdf_beyond(self, x: int) -> float:
        return min(1.0 - _power_tail(self.alpha, self.b, x + 1) / self._scaled_norm, 1.0)

    def continuous_mean(self) -> float:
        """Mean of the continuous analogue: the Lomax law with shape alpha
        and scale b (an approximation to the discrete mean)."""
        return self.b / (self.alpha - 1.0)


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

