"""Numerical kernels: the hooked power sum and the normal interval masses,
against high-precision mpmath references."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from citefit.distributions import (
    HookedPowerLaw,
    _normal_interval_masses,
    _power_tail,
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


def _oracle_tail(alpha, b, start):
    # the same sum over x >= start, rescaled so that its first term is 1
    # (nsum's stopping rule is absolute)
    with mp.workdps(50):
        first = (1 + (mp.mpf(start) - 1) / (mp.mpf(b) + 1)) ** -mp.mpf(alpha)
        return first * _oracle_norm(alpha, b + start - 1)


@pytest.mark.parametrize("alpha", BOX_ALPHAS)
def test_hooked_normaliser_matches_mpmath_over_fit_box(alpha):
    for b in BOX_BS:
        exact = _oracle_norm(alpha, b)
        got = HookedPowerLaw(alpha, b)._scaled_norm
        assert abs(got - exact) <= 1e-14 * exact, (alpha, b, got, float(exact))


@pytest.mark.parametrize("alpha,b,start", [
    (3.0, 0.5, 5),          # explicit terms, then the Euler-Maclaurin tail
    (1.5, 1.0, 100_001),
    (2.06, 7.1, (1 << 23) + 1),
    (30.17, 713.6, 50),
    (1e6, 1e7, 1_000),
])
def test_power_tail_matches_mpmath(alpha, b, start):
    # exp(-alpha * log1p(...)) of the first term is only as accurate as
    # its exponent, about 100 * 1.1e-16 at (1e6, 1e7, 1000)
    exact = _oracle_tail(alpha, b, start)
    got = _power_tail(alpha, b, start)
    assert abs(got - exact) <= 1e-12 * exact


def test_power_tail_underflows_to_zero():
    # alpha * log1p((x - 1) / (b + 1)) is far beyond exp's range
    assert _power_tail(1e10, 1.0, 3) == 0.0
    assert _power_tail(300.0, 1e-12, 1 << 40) == 0.0


def _exact_mass(z_lo, z_hi):
    # difference on the thin-tail side avoids cancellation in the oracle
    q = lambda z: 0.5 * mp.erfc(mp.mpf(z) / mp.sqrt(2))
    if z_lo + z_hi > 0:
        return float(q(z_lo) - q(z_hi))
    return float(q(-z_hi) - q(-z_lo))


def test_normal_interval_masses_matches_mpmath():
    z_lo = np.array([-1.0, 0.3, 5.0, -8.0, 20.0, -36.0, -0.2])
    z_hi = np.array([1.0, 0.9, 6.0, -7.0, 21.0, -35.0, 0.2])
    got = _normal_interval_masses(z_lo, z_hi)
    exact = np.array([_exact_mass(l, h) for l, h in zip(z_lo, z_hi)])
    assert_allclose(got, exact, rtol=1e-12)


def test_normal_interval_masses_deep_tail_relative_accuracy():
    # masses near 1e-200 must keep relative accuracy, not just absolute
    got = float(_normal_interval_masses(np.array([30.0]), np.array([30.5]))[0])
    exact = _exact_mass(30.0, 30.5)
    assert exact > 0
    assert abs(got - exact) <= 1e-10 * exact


def test_normal_interval_masses_never_negative():
    rng = np.random.default_rng(0)
    z = np.sort(rng.normal(size=(100, 2)) * 10, axis=1)
    out = _normal_interval_masses(z[:, 0], z[:, 1])
    assert np.all(out >= 0.0)
