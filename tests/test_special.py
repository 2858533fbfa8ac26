"""Checks for the special-function and quadrature kernel.

Expected values are frozen from independent computations: the Bessel tail
against its integral representation, the incomplete beta against the
binomial-tail identity.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from wpcn_select.special import (
    DEFAULT_QUADRATURE,
    AccuracyError,
    DomainError,
    QuadratureSpec,
    bessel_k1,
    _qk21,
    integrate_finite,
    integrate_panels,
    integrate_semi_infinite,
    reg_inc_beta,
    reg_inc_beta_complement,
)


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
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_finite_polynomial():
    val, err = integrate_finite(lambda t: t * t, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert err < 1e-8


def test_integrate_finite_sine():
    val, _ = integrate_finite(math.sin, 0.0, math.pi)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_integrate_finite_degenerate_and_reversed():
    assert integrate_finite(math.sin, 1.0, 1.0) == (0.0, 0.0)
    with pytest.raises(DomainError):
        integrate_finite(math.sin, 1.0, 0.0)


def test_integrate_semi_infinite_exponential():
    val, _ = integrate_semi_infinite(lambda z: math.exp(-z), 0.0)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_integrate_semi_infinite_shifted_lower():
    r = 0.7
    val, _ = integrate_semi_infinite(lambda z: math.exp(-z), r)
    assert val == pytest.approx(math.exp(-r), rel=1e-12)


def test_integrate_semi_infinite_bessel_identity():
    # int_0^inf exp(-a z - b/z) dz = 2 sqrt(b/a) K1(2 sqrt(a b)); frozen at a=2, b=3
    val, _ = integrate_semi_infinite(lambda z: math.exp(-2.0 * z - 3.0 / z) if z > 0 else 0.0, 0.0)
    assert val == pytest.approx(0.011087167594360257, rel=1e-11)
    closed = 2.0 * math.sqrt(3.0 / 2.0) * bessel_k1(2.0 * math.sqrt(6.0))
    assert val == pytest.approx(closed, rel=1e-9)


def test_accuracy_error_carries_estimate():
    # one subdivision cannot resolve a narrow spike
    spec = QuadratureSpec(relative_tolerance=1e-10, absolute_tolerance=1e-12,
                          max_subdivisions=1)
    spike = lambda t: math.exp(-1e6 * (t - 0.123456) ** 2)
    with pytest.raises(AccuracyError) as info:
        integrate_finite(spike, 0.0, 1.0, spec)
    assert info.value.estimate is not None
    assert info.value.error_estimate is not None


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
