"""Checks for the special-function and quadrature kernel.

Expected values are frozen from independent computations: the Bessel tail
against its integral representation, the incomplete beta against the
binomial-tail identity.
"""

import math

import pytest
from scipy.integrate import quad

from wpcn_select.special import (
    DEFAULT_QUADRATURE,
    AccuracyError,
    DomainError,
    QuadratureSpec,
    bessel_k1,
    integrate_finite,
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


def test_integrate_finite_points_hint_consistent():
    f = lambda t: math.exp(-t) * t
    plain, _ = integrate_finite(f, 0.0, 10.0)
    hinted, _ = integrate_finite(f, 0.0, 10.0, points=[1.0, 5.0])
    assert hinted == pytest.approx(plain, rel=1e-12)


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


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(relative_tolerance=-1e-10, absolute_tolerance=1e-12,
                       max_subdivisions=100)
    with pytest.raises(ValueError):
        QuadratureSpec(relative_tolerance=1e-10, absolute_tolerance=1e-12,
                       max_subdivisions=0)
    assert DEFAULT_QUADRATURE.max_subdivisions >= 100
