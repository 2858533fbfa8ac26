"""Checks for the special-function and quadrature kernel.

Expected values are frozen from independent computations: the Bessel tail
against its integral representation, the incomplete beta against the
binomial-tail identity.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import wpcn_select.special as special
from wpcn_select.evt import gumbel_kth_cdf
from wpcn_select.special import (
    DEFAULT_QUADRATURE,
    AccuracyError,
    DomainError,
    QuadratureSpec,
    bessel_k1,
    binomial_p_value,
    clopper_pearson,
    _qk21,
    integrate_panels,
    reg_inc_beta,
)

from oracles import qk21_reference, reg_inc_beta_complement


# ---------------------------------------------------------------------------
# the deferred scipy.special import
# ---------------------------------------------------------------------------

# in a fresh interpreter, eight threads released together make the first
# special-function calls of the process, with a thread switch every microsecond
FIRST_CALLS_PROBE = """
import json, sys, threading
from wpcn_select import special
from wpcn_select.evt import gumbel_kth_cdf
n = 8
barrier = threading.Barrier(n)
out = [None] * n
def first_call(i):
    barrier.wait(timeout=60)
    out[i] = [special.bessel_k1(0.5 + i), special.reg_inc_beta(0.3, 2.0, 3.0 + i),
              gumbel_kth_cdf(0.1 * i, 2)]
unloaded = "scipy.special" not in sys.modules
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_call, args=(i,)) for i in range(n)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps([unloaded, [t.is_alive() for t in threads],
                  special._special is sys.modules["scipy.special"], out]))
"""


def test_first_special_calls_from_many_threads_agree():
    # the import lock hands every thread the fully imported module, and the
    # stand-in is replaced by scipy.special itself
    src = os.path.dirname(os.path.dirname(os.path.abspath(special.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", FIRST_CALLS_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    unloaded, alive, rebound, values = json.loads(out.stdout)
    assert unloaded and alive == [False] * 8 and rebound
    assert values == [[bessel_k1(0.5 + i), reg_inc_beta(0.3, 2.0, 3.0 + i),
                       gumbel_kth_cdf(0.1 * i, 2)] for i in range(8)]


# ---------------------------------------------------------------------------
# bessel_k1
# ---------------------------------------------------------------------------

def test_k1_at_one_frozen():
    # integral representation evaluated once to high precision and frozen
    assert bessel_k1(1.0) == pytest.approx(0.6019072301972347, rel=1e-14)


@pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 5.0, 20.0])
def test_k1_matches_integral_representation(x):
    # K1(x) = int_0^inf exp(-x cosh t) cosh t dt
    oracle, _ = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t), 0.0, 30.0,
                     epsabs=1e-300, epsrel=1e-12, limit=400)
    assert bessel_k1(x) == pytest.approx(oracle, rel=1e-9)


def test_k1_small_argument_limit():
    # z K1(z) -> 1 as z -> 0
    z = 1e-6
    assert z * bessel_k1(z) == pytest.approx(0.9999999999927843, rel=1e-12)


def test_k1_underflows_to_zero():
    assert bessel_k1(750.0) == 0.0


def test_k1_domain():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            bessel_k1(bad)


def test_k1_deterministic():
    assert bessel_k1(2.345) == bessel_k1(2.345)


# ---------------------------------------------------------------------------
# incomplete beta / gamma
# ---------------------------------------------------------------------------

def test_reg_inc_beta_binomial_tail_identity():
    # I_psi(M-k+1, k) = P(Binomial(M, psi) >= M-k+1)
    M, k, psi = 7, 3, 0.37
    tail = sum(
        math.comb(M, i) * psi**i * (1.0 - psi) ** (M - i)
        for i in range(M - k + 1, M + 1)
    )
    assert reg_inc_beta(psi, M - k + 1, k) == pytest.approx(tail, abs=1e-10)


def test_reg_inc_beta_small_shape_values():
    # I_psi(2,3): four-draw binomial tail, exact polynomial
    psi = 0.3
    exact = 1.0 - ((1 - psi) ** 4 + 4 * psi * (1 - psi) ** 3)
    assert reg_inc_beta(psi, 2, 3) == pytest.approx(exact, abs=1e-12)


def test_reg_inc_beta_endpoints():
    assert reg_inc_beta(0.0, 2, 3) == 0.0
    assert reg_inc_beta(1.0, 2, 3) == 1.0


def test_reg_inc_beta_complement_keeps_tail_digits():
    # I_psi(1, q) = 1 - (1 - psi)^q, so the complement is (1 - psi)^q exactly
    assert reg_inc_beta_complement(0.75, 1, 3) == pytest.approx(0.25**3, rel=1e-14)
    psi = 1.0 - 2.0**-40
    assert reg_inc_beta(psi, 1, 3) == 1.0  # the direct form has no digit left
    assert reg_inc_beta_complement(psi, 1, 3) == pytest.approx(2.0**-120, rel=1e-12)
    assert reg_inc_beta_complement(0.3, 2, 3) == pytest.approx(
        1.0 - reg_inc_beta(0.3, 2, 3), rel=1e-14
    )
    with pytest.raises(DomainError):
        reg_inc_beta_complement(1.2, 2, 3)


def test_reg_inc_beta_domain():
    with pytest.raises(DomainError):
        reg_inc_beta(1.2, 2, 3)
    with pytest.raises(DomainError):
        reg_inc_beta(-0.1, 2, 3)
    with pytest.raises(DomainError):
        reg_inc_beta(0.5, 0.0, 3)
    with pytest.raises(DomainError):
        reg_inc_beta(0.5, 2, -1.0)


# ---------------------------------------------------------------------------
# the exact binomial test and interval
# ---------------------------------------------------------------------------

def _binomial_pmf(i, n, p):
    return math.comb(n, i) * p**i * (1.0 - p) ** (n - i)


@pytest.mark.parametrize("failures, trials, p", [
    (0, 40, 0.05), (3, 40, 0.05), (7, 40, 0.05), (20, 40, 0.5), (40, 40, 0.9), (1, 1, 0.3),
])
def test_binomial_p_value_is_twice_the_smaller_tail(failures, trials, p):
    lower = sum(_binomial_pmf(i, trials, p) for i in range(failures + 1))
    upper = sum(_binomial_pmf(i, trials, p) for i in range(failures, trials + 1))
    want = min(1.0, 2.0 * min(lower, upper))
    assert binomial_p_value(failures, trials, p) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_binomial_p_value_at_a_certain_outcome():
    assert binomial_p_value(0, 10, 0.0) == 1.0
    assert binomial_p_value(1, 10, 0.0) == 0.0
    assert binomial_p_value(10, 10, 1.0) == 1.0


@pytest.mark.parametrize("failures, trials", [(0, 50), (1, 50), (17, 50), (49, 50), (50, 50)])
def test_clopper_pearson_bounds_leave_each_tail_its_share(failures, trials):
    # at the lower bound P(X >= failures) is 2.5%, at the upper P(X <= failures)
    lo, hi = clopper_pearson(failures, trials)
    assert 0.0 <= lo < failures / trials < hi <= 1.0 or failures in (0, trials)
    if failures > 0:
        upper = sum(_binomial_pmf(i, trials, lo) for i in range(failures, trials + 1))
        assert upper == pytest.approx(0.025, rel=1e-9)
    else:
        assert lo == 0.0
    if failures < trials:
        lower = sum(_binomial_pmf(i, trials, hi) for i in range(failures + 1))
        assert lower == pytest.approx(0.025, rel=1e-9)
    else:
        assert hi == 1.0


def test_binomial_domain():
    for bad in ((-1, 10), (11, 10), (0, 0), (2.0, 10), (True, 10)):
        with pytest.raises(DomainError):
            binomial_p_value(*bad, 0.5)
        with pytest.raises(DomainError):
            clopper_pearson(*bad)
    for p in (-0.1, 1.1, math.nan):
        with pytest.raises(DomainError):
            binomial_p_value(3, 10, p)


# ---------------------------------------------------------------------------
# panel kernel
# ---------------------------------------------------------------------------

def _one_panel(f, a, b):
    value, err = _qk21(lambda t, piece: f(t), np.array([a]), np.array([b]), np.zeros(1, int))
    return float(value[0]), float(err[0])


@pytest.mark.parametrize("degree", range(32))
@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 1.0)])
def test_kronrod_rule_exact_through_degree_31(degree, a, b):
    exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
    value, _ = _one_panel(lambda t: t ** degree, a, b)
    assert value == pytest.approx(exact, rel=1e-14, abs=1e-15)
    if degree <= 19:  # the embedded 10-point Gauss rule is exact too: error is roundoff
        one = QuadratureSpec(1e-10, 1e-12, max_subdivisions=1)
        total, _ = integrate_panels(lambda t, piece: t ** degree, [[a, b]], one)
        assert total == pytest.approx(exact, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("f", [
    lambda t, piece: np.sin(t),
    lambda t, piece: np.cos(12.0 * t),
    lambda t, piece: np.exp(-2.0 * t - 3.0 / t),
    lambda t, piece: np.sqrt(t),
    lambda t, piece: np.exp(-1e4 * (t - 0.3) ** 2),
    lambda t, piece: np.where(piece[:, None] == 0, t, -t * t),
    lambda t, piece: np.zeros_like(t),
], ids=["sin", "cos", "bessel", "sqrt", "spike", "pieces", "zero"])
def test_qk21_is_the_reference_arithmetic(f):
    # value and error estimate equal the one-expression form bit for bit,
    # on panels from one to hundreds, wide and narrow
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 16, 33, 200):
        a = np.sort(rng.uniform(0.01, 5.0, n))
        b = a + rng.exponential(1.0, n) * np.exp(rng.uniform(-20.0, 2.0, n))
        piece = rng.integers(0, 2, n)
        value, err = _qk21(f, a, b, piece)
        want_value, want_err = qk21_reference(f, a, b, piece)
        assert np.array_equal(value, want_value)
        assert np.array_equal(err, want_err)


def test_kronrod_rule_not_exact_at_degree_32():
    value, _ = _one_panel(lambda t: t ** 32, -1.0, 1.0)
    assert abs(value - 2.0 / 33.0) > 1e-13


@pytest.mark.parametrize("f, edges, exact", [
    (np.sin, [[0.0, math.pi]], 2.0),
    (lambda t: np.exp(-t), [[0.0, 1.0, 2.0, 40.0]], -math.expm1(-40.0)),
    (lambda t: 1.0 / (1.0 + t * t), [[-10.0, 0.0, 10.0]], 2.0 * math.atan(10.0)),
    # int_0^inf exp(-2 z - 3/z) dz = 2 sqrt(3/2) K1(2 sqrt 6), frozen; the tail past 30 is e^-60
    (lambda t: np.exp(-2.0 * t - 3.0 / t), [[0.0, 1.0, 5.0, 30.0]], 0.011087167594360257),
])
def test_integrate_panels_known_integrals(f, edges, exact):
    value, err = integrate_panels(lambda t, piece: f(t), edges)
    assert value == pytest.approx(exact, rel=1e-13)
    assert err <= DEFAULT_QUADRATURE.relative_tolerance * abs(exact)


def test_integrate_panels_sums_pieces_with_their_own_integrands():
    # piece 0 integrates t on [0, 1], piece 1 t^2 on [2, 3]
    f = lambda t, piece: np.where(piece[:, None] == 0, t, t * t)
    value, _ = integrate_panels(f, [[0.0, 0.5, 1.0], [2.0, 3.0]])
    assert value == pytest.approx(0.5 + 19.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("f, a, b, exact", [
    (np.exp, 0.0, 4.0, math.expm1(4.0)),
    (lambda t: np.cos(12.0 * t), 0.0, 2.0, math.sin(24.0) / 12.0),
    (lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0, 0.4 * math.atan(5.0)),
    (lambda t: np.sqrt(t), 0.0, 1.0, 2.0 / 3.0),
])
def test_panel_error_estimate_bounds_true_error(f, a, b, exact):
    # the estimate must cover the true error both for a lone panel and for a
    # loose adaptive result that stopped after few bisections
    value, err = _one_panel(f, a, b)
    assert abs(value - exact) <= err
    loose = QuadratureSpec(relative_tolerance=1e-5, absolute_tolerance=1e-300)
    value, err = integrate_panels(lambda t, piece: f(t), [[a, b]], loose)
    assert abs(value - exact) <= err


def test_integrate_panels_spike_raises_with_estimate():
    spike = lambda t, piece: np.exp(-1e4 * (t - 0.3) ** 2)
    small = QuadratureSpec(relative_tolerance=1e-10, absolute_tolerance=1e-12, max_subdivisions=4)
    with pytest.raises(AccuracyError) as info:
        integrate_panels(spike, [[0.0, 1.0]], small)
    assert math.isfinite(info.value.estimate)
    assert info.value.error_estimate > 1e-12
    # the default budget resolves it
    value, _ = integrate_panels(spike, [[0.0, 1.0]])
    assert value == pytest.approx(math.sqrt(math.pi) / 100.0, rel=1e-12)


def test_integrate_panels_nan_integrand_raises():
    # a nan gives no panel to bisect; the kernel must stop, not loop
    f = lambda t, piece: np.where(t > 0.5, np.nan, t)
    with pytest.raises(AccuracyError):
        integrate_panels(f, [[0.0, 1.0]])


def test_integrate_panels_rejects_unordered_edges():
    with pytest.raises(DomainError):
        integrate_panels(lambda t, piece: t, [[0.0, 1.0, 1.0]])


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(relative_tolerance=-1e-10, absolute_tolerance=1e-12,
                       max_subdivisions=100)
    with pytest.raises(ValueError):
        QuadratureSpec(relative_tolerance=1e-10, absolute_tolerance=1e-12,
                       max_subdivisions=0)
    assert DEFAULT_QUADRATURE.max_subdivisions >= 100
