"""Large-population asymptotics for the selection schemes.

The scheme statistics (downlink gain, uplink gain, worse link, end-to-end
SNR) all sit in the Gumbel domain of attraction, so the k-th best statistic
converges, after centering and scaling, to the k-th Gumbel law.  This module
provides the normalizing constants, the limiting CDF, and the asymptotic
outage evaluators.  The MMS and IBS limits are the exact integrals of the
analytic module with the Gumbel law of the ranked gain in place of its
finite-M density; the EBS limit keeps its pre-series integral form, which
stays stable where the expanded double series overflows.

The population-size prefactor M^k / Gamma(k) is always folded into the
log density (k log M - lgamma(k)) so no intermediate overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .analytic import (
    LogDensity,
    Method,
    OutageEstimate,
    PairSpec,
    Parent,
    Scheme,
    _exp_or_zero,
    _finalize,
    _ibs_integral,
    _mms_integral,
    _r_and_cr,
    pair_marginal_primary,
    pair_marginal_secondary,
    parent_cdf,
    r_scale,
)
from .model import SystemParams
from .special import (
    AccuracyError,
    DomainError,
    bessel_k1,
    integrate_semi_infinite,
)

__all__ = [
    "NormalizingConstants",
    "gumbel_kth_cdf",
    "normalizing_constants",
    "outage_evt_ebs",
    "outage_evt_ibs",
    "outage_evt_mms",
    "outage_evt_pair",
    "outage_evt_sbs",
]

@dataclass(frozen=True)
class NormalizingConstants:
    """Location eta and scale xi standardizing a scheme's k-th best statistic."""

    eta: float
    xi: float
    scheme: Scheme

    def __post_init__(self) -> None:
        if not self.xi > 0.0:
            raise ValueError("scale xi must be positive")


def _evt_estimate(value: float) -> OutageEstimate:
    # asymptotic formulas may overshoot the unit interval pre-asymptotically;
    # clamping is part of their contract, not a bug signal
    return OutageEstimate(min(1.0, max(0.0, value)), Method.EVT)


# ---------------------------------------------------------------------------
# Gumbel machinery
# ---------------------------------------------------------------------------

def gumbel_kth_cdf(z: float, k: int) -> float:
    """Limiting CDF of the k-th largest standardized maximum.

    G_k(z) = exp(-exp(-z)) * sum_{j<k} exp(-j z)/j!, evaluated term-wise in
    log space so deeply negative z underflow cleanly to 0.
    """
    if not (isinstance(k, int) and k >= 1):
        raise DomainError(f"order index k must be an integer >= 1, got {k!r}")
    z = float(z)
    if z < -700.0:  # exp(-z) would overflow; the limit is exactly 0
        return 0.0
    if math.isinf(z):
        return 1.0
    ez = math.exp(-z)
    total = math.fsum(
        _exp_or_zero(-ez - j * z - math.lgamma(j + 1)) for j in range(k)
    )
    return min(1.0, total)


def _gumbel_log_density(M: int, k: int, rate: float) -> LogDensity:
    """log density of the Gumbel limit of the k-th largest of M iid
    exponentials with the given rate: rate M^k/Gamma(k) e^(-k rate t - M e^(-rate t)).
    """
    lc = math.log(rate) + k * math.log(M) - math.lgamma(k)

    def logf(t: float) -> float:
        return lc - k * rate * t - M * math.exp(-rate * t)

    return logf


def _parent_quantile(p: float, params: SystemParams) -> float:
    """Inverse of the per-device SNR CDF, bracketed bisection + secant."""
    hi = 1.0
    for _ in range(200):
        if parent_cdf(hi, params, Parent.NON_LINEAR) > p:
            break
        hi *= 2.0
    else:
        raise AccuracyError(f"could not bracket the parent quantile at p={p!r}")
    root = brentq(
        lambda x: parent_cdf(x, params, Parent.NON_LINEAR) - p,
        0.0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=400,
    )
    achieved = parent_cdf(root, params, Parent.NON_LINEAR)
    if abs(achieved - p) > 1e-12:
        raise AccuracyError(
            f"quantile root off by {abs(achieved - p):.3e} in probability",
            estimate=root, error_estimate=abs(achieved - p),
        )
    return float(root)


def normalizing_constants(scheme: Scheme, M: int, params: SystemParams) -> NormalizingConstants:
    """Solve 1 - F(eta) = 1/M and 1 - F(eta + xi) = 1/(e M) for the scheme's
    ranking statistic.

    Exponential statistics give closed forms: unit-rate (EBS, IBS) yields
    (log M, 1), the rate-2 worse-link statistic (MMS) yields (log(M)/2, 1/2).
    SBS ranks on the SNR itself, whose CDF is only available numerically, so
    the defining equations are root-found to 1e-12 in probability.
    """
    if not (isinstance(M, int) and M >= 2):
        raise DomainError(f"normalizing constants need M >= 2, got {M!r}")
    if scheme in (Scheme.EBS, Scheme.IBS):
        return NormalizingConstants(math.log(M), 1.0, scheme)
    if scheme is Scheme.MMS:
        return NormalizingConstants(0.5 * math.log(M), 0.5, scheme)
    if scheme is Scheme.SBS:
        eta = _parent_quantile(1.0 - 1.0 / M, params)
        xi = _parent_quantile(1.0 - 1.0 / (math.e * M), params) - eta
        return NormalizingConstants(eta, xi, scheme)
    raise ValueError("random selection has no extreme-value limit")


# ---------------------------------------------------------------------------
# asymptotic outage evaluators
# ---------------------------------------------------------------------------

def outage_evt_sbs(x: float, k: int, M: int, params: SystemParams) -> OutageEstimate:
    """Gumbel limit of the k-th best end-to-end SNR, standardized numerically."""
    consts = normalizing_constants(Scheme.SBS, M, params)
    z = (float(x) - consts.eta) / consts.xi
    return _evt_estimate(gumbel_kth_cdf(z, k))


def outage_evt_ebs(x: float, k: int, M: int, params: SystemParams) -> OutageEstimate:
    """Asymptotic outage when ranking on harvested energy.

    1 - (M^k/Gamma(k)) e^(-r) int_0^inf exp(-M e^(-y) - k y - c r/(Pt y)) dy.
    """
    x = float(x)
    r = r_scale(x, params)
    c_term = params.rectenna.c * r / params.transmit_power
    lpre = k * math.log(M) - math.lgamma(k)

    def f(y: float) -> float:
        if y <= 0.0:
            return 0.0
        return _exp_or_zero(lpre - M * math.exp(-y) - k * y - c_term / y)

    val, _ = integrate_semi_infinite(f, 0.0, points=[math.log(max(M / k, 2.0))])
    return _evt_estimate(1.0 - math.exp(-r) * val)


def outage_evt_ibs(x: float, k: int, M: int, params: SystemParams) -> OutageEstimate:
    """Asymptotic outage when ranking on the uplink gain: the exact IBS
    integral with the rate-1 Gumbel law of the ranked uplink gain."""
    x = float(x)
    if x <= 0.0:
        return _evt_estimate(0.0)
    if math.isinf(x):
        return _evt_estimate(1.0)
    r, cr_over_pt = _r_and_cr(x, params)
    return _evt_estimate(_ibs_integral(r, cr_over_pt, k, M, _gumbel_log_density(M, k, 1.0)))


def outage_evt_mms(x: float, k: int, M: int, params: SystemParams) -> OutageEstimate:
    """Asymptotic outage when ranking on the worse of the two links: the
    exact MMS integral with the rate-2 Gumbel law of the ranked worse link."""
    x = float(x)
    if x <= 0.0:
        return _evt_estimate(0.0)
    if math.isinf(x):
        return _evt_estimate(1.0)
    r, cr_over_pt = _r_and_cr(x, params)
    return _evt_estimate(_mms_integral(r, cr_over_pt, k, M, _gumbel_log_density(M, k, 2.0)))


def outage_evt_pair(
    x: float, pair: PairSpec, M: int, params: SystemParams
) -> OutageEstimate:
    """Asymptotic pair outage: lower extremes decorrelate, so the joint law
    factorizes into the product of the two finite-M marginal SINR CDFs."""
    if pair.scheme is not Scheme.SBS:
        raise ValueError("asymptotic pair independence is stated for ranked (SBS) pairs")
    x = float(x)
    if not x < 1.0:
        raise DomainError(
            "pair outage evaluation requires threshold x < 1: the outer "
            f"integration limit x/(1-x) diverges at x = {x!r}"
        )
    if pair.j > M:
        raise ValueError(f"order index j={pair.j} exceeds M={M}")
    if x <= 0.0:
        return _finalize(0.0, Method.EVT)
    stronger = pair_marginal_primary(x, pair.k, pair.j, M, params, Parent.NON_LINEAR)
    weaker = pair_marginal_secondary(x, pair.k, pair.j, M, params, Parent.NON_LINEAR)
    # both factors are probabilities, so an overshoot is an error, not noise
    return _finalize(stronger * weaker, Method.EVT)


# ---------------------------------------------------------------------------
# series cross-check (toy sizes only)
# ---------------------------------------------------------------------------

def _series_check_ebs(
    x: float, k: int, M: int, params: SystemParams, num_terms: int = 60
) -> float:
    """Alternating-series expansion of the EBS limit.

    Terms grow like M^n/n! before decaying, so this is only trustworthy for
    toy populations; it exists to cross-check the integral form, never as an
    evaluation path.
    """
    if M > 5:
        raise DomainError("series expansion loses precision beyond M = 5")
    x = float(x)
    r = r_scale(x, params)
    c_term = params.rectenna.c * r / params.transmit_power
    terms = []
    for n in range(num_terms):
        order = n + k
        if c_term > 0.0:
            arg = 2.0 * math.sqrt(c_term * order)
            integral = 2.0 * math.sqrt(c_term / order) * bessel_k1(arg)
        else:
            integral = 1.0 / order
        mag = math.exp(order * math.log(M) - math.lgamma(n + 1) - math.lgamma(k)) * integral
        terms.append(-mag if n % 2 else mag)
    return 1.0 - math.exp(-r) * math.fsum(terms)
