"""Numerical kernels: the hooked power sum, the CDFs of both families and
the normal interval masses, against high-precision mpmath references, and
the lognormal pmf and CDF against a frozen copy of their earlier two-erfc
form."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erfc

from citefit.distributions import (
    DiscretisedLognormal,
    HookedPowerLaw,
    _em_sum,
    _em_tail,
    _normal_interval_masses,
    _power_head,
)

mp.mp.dps = 50

# The box the hooked fitter can visit: alpha = 1 + exp(theta0) with
# theta0 <= 300, b = exp(theta1) with |theta1| <= 27.
BOX_ALPHAS = [1 + 1e-4, 1.01, 1.5, 2.0, 3.0, 10.0, 30.0, 100.0, 300.0,
              1e4, 1e6, 1e10, math.exp(300)]
BOX_BS = [1e-12, 1e-3, 0.5, 1.0, 10.0, 100.0, 1e3, 1e7, 1e9, 5e11]


def _oracle_norm(alpha, b):
    """Sum of ((b + x) / (b + 1))**(-alpha) over x >= 1, in mpmath.

    Neither mpmath routine covers the whole box. ``mp.nsum`` cannot
    extrapolate the slow decay near alpha = 1 or when b is many times
    alpha. ``mp.zeta`` at 120 digits loses accuracy when alpha and b are
    both large (2.5e-13 at (100, 1000), 1.4e-11 at (1e10, 5e11)); there
    the terms fall off within a few thousand steps and ``mp.nsum``
    converges, so each is used where it is accurate.
    """
    a, c = mp.mpf(alpha), mp.mpf(b) + 1
    if alpha >= 100 and b + 1 <= 1e4 * alpha:
        with mp.workdps(30):
            return mp.nsum(lambda x: mp.exp(-a * mp.log1p((x - 1) / c)), [1, mp.inf])
    with mp.workdps(120):
        return mp.zeta(a, c) * c ** a


def _oracle_hooked_cdf(alpha, b, x):
    """F(x) of ``HookedPowerLaw(alpha, b)`` in mpmath: the sum of the terms up
    to x over their sum to infinity.

    Up to alpha = 30 each sum is a difference of Hurwitz zeta values at 120
    digits. Above it, where ``mp.zeta`` loses accuracy, each sum adds its
    first 100 terms one by one and the rest by ``mp.sumem``
    (Euler-Maclaurin with numerical derivatives) around the closed-form
    integral.
    """
    a, c = mp.mpf(alpha), mp.mpf(b) + 1
    if alpha <= 30:
        with mp.workdps(120):
            whole = mp.zeta(a, c)
            return (whole - mp.zeta(a, c + x)) / whole
    with mp.workdps(60):

        def term(k):
            return mp.exp(-a * mp.log1p((k - 1) / c))

        def partial(end):
            head = mp.fsum(term(k) for k in range(1, int(min(end, 100)) + 1))
            if end <= 100:
                return head
            # the integral of term(t) over [101, end]; 0 at end = inf
            ahead = c / (a - 1) * ((c + 100) / c) ** (1 - a)
            beyond = 0 if end == mp.inf else c / (a - 1) * ((c + end - 1) / c) ** (1 - a)
            return head + mp.sumem(term, [101, end], integral=ahead - beyond)

        return partial(mp.mpf(x)) / partial(mp.inf)


@pytest.mark.parametrize("alpha", BOX_ALPHAS)
def test_hooked_normaliser_matches_mpmath_over_fit_box(alpha):
    for b in BOX_BS:
        exact = _oracle_norm(alpha, b)
        got = HookedPowerLaw(alpha, b)._scaled_norm
        assert abs(got - exact) <= 1e-14 * exact, (alpha, b, got, float(exact))


@pytest.mark.parametrize("alpha,b,x", [
    (3.0, 0.5, 4),          # explicit terms, then the Euler-Maclaurin tail
    (1.5, 1.0, 100_000),
    (2.06, 7.1, 1 << 23),
    (30.17, 713.6, 49),
    (1e6, 1e7, 999),
])
def test_hooked_cdf_matches_mpmath_past_the_explicit_terms(alpha, b, x):
    exact = _oracle_hooked_cdf(alpha, b, x)
    got = HookedPowerLaw(alpha, b).cdf(x)
    assert abs(got - exact) <= 1e-14 * exact


def test_hooked_cdf_is_one_where_the_rest_underflows():
    # alpha * log1p((x - 1) / (b + 1)) is far beyond exp's range: the
    # explicit terms stop, and F is 1 from there
    assert _power_head(1e10, 1.0) == ((0.0, 1.0), 0.0, 3.0)
    assert HookedPowerLaw(1e10, 1.0).cdf([2, 3, 1 << 40]).tolist() == [1.0] * 3
    assert HookedPowerLaw(300.0, 1e-12).cdf(1 << 40) == 1.0


# The scalar tail of every normaliser is the CDF's array tail at one edge,
# bit for bit: alpha over the fitter's (1, 1 + e**300], edges from
# max(12, 1.5 alpha) up, and acc as the callers form it.
@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(theta0=st.floats(-37.0, 300.0), spread=st.floats(0.0, 40.0), head=st.booleans())
@example(theta0=300.0, spread=0.0, head=True)
@example(theta0=-36.0, spread=0.0, head=True)
def test_scalar_tail_is_the_array_tail_at_one_edge(theta0, spread, head):
    alpha = 1.0 + math.exp(theta0)
    assume(alpha > 1.0)
    edge = max(12.0, 1.5 * alpha) * math.exp(spread)
    acc = edge / (alpha - 1.0) + 0.5 if head else 0.0
    got = _em_tail(alpha, edge, acc)
    assert got.hex() == float(_em_sum(alpha, np.array([edge]), acc)[0]).hex()


def _exact_mass(z_lo, z_hi):
    # difference on the thin-tail side avoids cancellation in the oracle
    q = lambda z: 0.5 * mp.erfc(mp.mpf(z) / mp.sqrt(2))
    if z_lo + z_hi > 0:
        return float(q(z_lo) - q(z_hi))
    return float(q(-z_hi) - q(-z_lo))


def test_normal_interval_masses_matches_mpmath():
    z_lo = np.array([-1.0, 0.3, 5.0, -8.0, 20.0, -36.0, -0.2])
    z_hi = np.array([1.0, 0.9, 6.0, -7.0, 21.0, -35.0, 0.2])
    got = _normal_interval_masses(np.array([z_lo, z_hi]))
    exact = np.array([_exact_mass(l, h) for l, h in zip(z_lo, z_hi)])
    assert_allclose(got, exact, rtol=1e-12)


def test_normal_interval_masses_deep_tail_relative_accuracy():
    # masses near 1e-200 must keep relative accuracy, not just absolute
    got = float(_normal_interval_masses(np.array([[30.0], [30.5]]))[0])
    exact = _exact_mass(30.0, 30.5)
    assert exact > 0
    assert abs(got - exact) <= 1e-10 * exact


def test_normal_interval_masses_never_negative():
    rng = np.random.default_rng(0)
    z = np.sort(rng.normal(size=(100, 2)) * 10, axis=1)
    out = _normal_interval_masses(z.T.copy())
    assert np.all(out >= 0.0)


# The lognormal kernel as it was with one erfc call per interval edge: the
# one-call form must reproduce it bit for bit.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _two_erfc_masses(z_lo, z_hi):
    right = (z_lo + z_hi) > 0.0
    a = np.where(right, z_lo, -z_hi)
    c = np.where(right, z_hi, -z_lo)
    out = 0.5 * (erfc(a * _INV_SQRT2) - erfc(c * _INV_SQRT2))
    return np.maximum(out, 0.0)


def _two_erfc_log_pmf(model, x):
    xf = x.astype(np.float64)
    z_lo = (np.log(xf - 0.5) - model.mu) / model.sigma
    z_hi = (np.log(xf + 0.5) - model.mu) / model.sigma
    with np.errstate(divide="ignore"):
        return np.log(_two_erfc_masses(z_lo, z_hi)) - math.log(model._norm)


def _two_erfc_cdf(model, m):
    xf = np.arange(1, m + 1, dtype=np.float64)
    z_hi = (np.log(xf + 0.5) - model.mu) / model.sigma
    z_lo = np.full(m, model._z_half)
    out = _two_erfc_masses(z_lo, z_hi) / model._norm
    return np.minimum(np.maximum.accumulate(out), 1.0)


@st.composite
def _lognormals(draw):
    # mu in [-40, 40], log sigma in [-5, 4]; below log(0.5) - 30 sigma the
    # support mass underflows and the constructor refuses the parameters
    sigma = math.exp(draw(st.floats(-5.0, 4.0)))
    mu = draw(st.floats(max(-40.0, math.log(0.5) - 30.0 * sigma), 40.0))
    return DiscretisedLognormal(mu, sigma)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(model=_lognormals(),
       counts=st.lists(st.one_of(st.integers(1, 100), st.integers(1, 10 ** 11)),
                       min_size=1, max_size=50),
       m=st.integers(1, 3000))
def test_lognormal_kernel_is_bit_identical_to_two_erfc_form(model, counts, m):
    x = np.array(counts, dtype=np.int64)
    got, ref = model.log_pmf(x), _two_erfc_log_pmf(model, x)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref.tolist()]
    got, ref = model._cdf_at(np.arange(1, m + 1)), _two_erfc_cdf(model, m)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref.tolist()]


def _oracle_lognormal_cdf(model, x):
    """F(x) of ``model`` in mpmath, the normal mass of (z(0.5), z(x + 0.5)]
    over that of (z(0.5), inf) differenced on the thin-tail side, and the
    larger |z|."""
    with mp.workdps(60):
        z = [(mp.log(mp.mpf(edge)) - model.mu) / model.sigma for edge in (0.5, x + 0.5)]
        upper = [mp.erfc(v / mp.sqrt(2)) for v in z]
        if z[0] + z[1] > 0:
            return (upper[0] - upper[1]) / upper[0], max(map(abs, z))
        lower = [mp.erfc(-v / mp.sqrt(2)) for v in z]
        return (lower[1] - lower[0]) / upper[0], max(map(abs, z))


_COUNTS_TO_1E12 = st.one_of(st.integers(1, 100), st.integers(1, 10 ** 12))


# log(alpha - 1) up to the fitter's 300, most draws where F is not 1 at once
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(theta0=st.one_of(st.floats(-30.0, 5.0), st.floats(5.0, 300.0)),
       theta1=st.floats(-27.0, 27.0), x=_COUNTS_TO_1E12)
def test_hooked_cdf_matches_mpmath_over_fit_box(theta0, theta1, x):
    alpha, b = 1.0 + math.exp(theta0), math.exp(theta1)
    exact = _oracle_hooked_cdf(alpha, b, x)
    got = HookedPowerLaw(alpha, b).cdf(x)
    assert abs(got - exact) <= 1e-14 * exact, (alpha, b, x, got, float(exact))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(model=_lognormals(), x=_COUNTS_TO_1E12)
def test_lognormal_cdf_matches_mpmath_over_fit_box(model, x):
    # z is formed in floating point, to about 1.1e-16 |z|; deep in a tail
    # that moves a normal mass by about z**2 times as much. Below 1e-300
    # the masses lose digits to underflow.
    exact, z = _oracle_lognormal_cdf(model, x)
    got = model.cdf(x)
    assert abs(got - exact) <= 1e-14 * (1 + z ** 2) * exact + 1e-300, (model, x, got)
