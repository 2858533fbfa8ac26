"""Brent's root finder against scipy.optimize.brentq, bit for bit.

special.brent_root ports scipy's brentq.  The package never imports
scipy.optimize, so it appears only here, as the oracle.  Each comparison
records the points both solvers evaluate, so it checks the same iterates and
the same result in float.hex: on families of test functions, on every
parent-quantile solve behind the SBS normalizing constants, and on the
optimal harvest fraction's solve over the range of Q.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from wpcn_select import evt, experiments
from wpcn_select.analytic import Scheme
from wpcn_select.evt import normalizing_constants
from wpcn_select.experiments import find_optimal_t1
from wpcn_select.model import dbm_to_watts, default_params
from wpcn_select.special import AccuracyError, DomainError, brent_root

POWERS_DBM = (-50.0, -40.0, -30.0, -10.0, 10.0)


def _traced(f):
    seen = []

    def g(x):
        seen.append(float(x).hex())
        return f(x)

    return g, seen


def _same_root(f, a, b, xtol, rtol, maxiter):
    # a solve that runs out of steps must raise with scipy's last iterate
    ours, ours_x = _traced(f)
    theirs, theirs_x = _traced(f)
    want, r = brentq(theirs, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter,
                     full_output=True, disp=False)
    if r.converged:
        got = brent_root(ours, a, b, xtol, rtol, maxiter)
    else:
        with pytest.raises(AccuracyError) as info:
            brent_root(ours, a, b, xtol, rtol, maxiter)
        got = info.value.estimate
    assert ours_x == theirs_x
    assert got.hex() == float(want).hex()
    return got


# ---------------------------------------------------------------------------
# test-function families: (f, a, b) with f(a) < 0 < f(b) or the reverse
# ---------------------------------------------------------------------------

def _root_problems(rng, n):
    for _ in range(n):
        c = float(10.0 ** rng.uniform(-3.0, 3.0))
        s = float(10.0 ** rng.uniform(-1.0, 2.0))
        w = float(rng.uniform(0.1, 5.0))
        yield (lambda x, c=c: x ** 3 - c), 0.0, 1.0 + c
        yield (lambda x, c=c, s=s: math.tanh(s * (x - c))), c - w, c + 2.0 * w
        yield (lambda x, c=c: (x - c) ** 3), c - w, c + 0.5 * w
        yield (lambda x, c=c: math.exp(x) - c), -10.0, 10.0
        yield (lambda x, c=c: -1.0 if x < c else 1.0), c - w, c + w
        yield (lambda x, s=s: math.cos(s * x) - x), 0.0, 1.0
        yield (lambda x, c=c: 1.0 - math.exp(-x) - 1.0 / (1.0 + c)), 0.0, 50.0
        if s * w > 0.11:  # atan(-s w) + 0.1 < 0
            yield (lambda x, c=c, s=s: math.atan(s * (x - c)) + 0.1), c - w, c + 3.0 * w


@pytest.mark.parametrize("xtol, rtol", [(1e-300, 8.9e-16), (2e-12, 8.9e-16), (1e-6, 1e-4)])
def test_brent_root_takes_brentqs_steps(xtol, rtol):
    rng = np.random.default_rng(20)
    for f, a, b in _root_problems(rng, 60):
        _same_root(f, a, b, xtol, rtol, 100)


def test_brent_root_returns_a_zero_endpoint():
    assert brent_root(lambda x: x, 0.0, 1.0, 1e-12, 8.9e-16, 10) == 0.0
    assert brent_root(lambda x: x - 1.0, 0.0, 1.0, 1e-12, 8.9e-16, 10) == 1.0


def test_brent_root_rejects_an_unsigned_bracket():
    with pytest.raises(DomainError):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 8.9e-16, 10)


def test_brent_root_stops_short_with_the_last_iterate():
    f = lambda x: math.exp(x) - 3.0
    _, r = brentq(f, -10.0, 10.0, maxiter=3, full_output=True, disp=False)
    assert not r.converged
    with pytest.raises(AccuracyError) as info:
        brent_root(f, -10.0, 10.0, 2e-12, 8.9e-16, 3)
    assert info.value.estimate.hex() == float(r.root).hex()


def test_solvers_refuse_a_nan_objective():
    with pytest.raises(AccuracyError):
        brent_root(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12, 8.9e-16, 50)


# ---------------------------------------------------------------------------
# the package's own solves
# ---------------------------------------------------------------------------

def test_sbs_normalizing_constants_match_brentq(monkeypatch):
    # every parent-quantile solve behind the SBS constants, run through both
    # solvers on the package's own function and bracket
    solves = []

    def both(f, a, b, xtol, rtol, maxiter):
        solves.append((xtol, rtol, maxiter))
        return _same_root(f, a, b, xtol, rtol, maxiter)

    monkeypatch.setattr(evt, "brent_root", both)
    evt._parent_quantile.cache_clear()
    try:
        for M, pt, t1 in itertools.product(
                (2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10_000),
                POWERS_DBM, (0.2, 0.5, 0.8)):
            params = default_params(num_devices=M, transmit_power=dbm_to_watts(pt),
                                    harvest_fraction=t1)
            consts = normalizing_constants(Scheme.SBS, M, params)
            assert consts.eta > 0.0 and consts.xi > 0.0
    finally:
        evt._parent_quantile.cache_clear()
    assert len(solves) == 12 * 5 * 3 * 2
    assert set(solves) == {(1e-300, 8.9e-16, 400)}


def test_optimal_t1_root_matches_brentq(monkeypatch):
    # the harvest-fraction solve, run through both solvers from the smallest
    # subnormal Q to the largest double; no Q took more than 115 of its 200 steps
    solves = []

    def both(f, a, b, xtol, rtol, maxiter):
        solves.append((a, b, xtol, rtol, maxiter))
        return _same_root(f, a, b, xtol, rtol, maxiter)

    monkeypatch.setattr(experiments, "brent_root", both)
    for q in np.geomspace(5e-324, 1.7e308, 200):
        params = default_params(rate_threshold_q=float(q))
        assert 0.0 < find_optimal_t1(Scheme.RS, 1, params).t1 < 1.0
    assert solves == [(0.0, 1.0, 1e-300, 8.9e-16, 200)] * 200
