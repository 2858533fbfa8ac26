"""Large-population asymptotics for the selection schemes.

The scheme statistics (downlink gain, uplink gain, worse link, end-to-end
SNR) all sit in the Gumbel domain of attraction, so the k-th best statistic
converges, after centering and scaling, to the k-th Gumbel law.  This module
provides the normalizing constants, the limiting CDF, and the asymptotic
outage evaluators.  The EBS, IBS and MMS limits are the exact integrals of
the analytic module with the Gumbel law of the ranked gain (gumbel_law) in
place of the finite-M order statistic.  That law lives on the whole line:
it keeps the mass Q(k, M) at negative gains, and the integrals count it as
outage.  Each value is then a probability by construction, so it goes
through the same unit-interval check as the exact routes, with no clamp.

The population-size prefactor M^k / Gamma(k) is always folded into the
log density (k log M - lgamma(k)) so no intermediate overflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import special
from .analytic import (
    Method,
    RankedLaw,
    Scheme,
    SchemeSpec,
    _evaluator,
    _mms_integral,
    _one_gate,
    _scales,
    parent_cdf,
)
from .model import EhModel, SystemParams
from .special import AccuracyError, DomainError, brent_root

__all__ = [
    "NormalizingConstants",
    "gumbel_kth_cdf",
    "gumbel_law",
    "normalizing_constants",
    "outage_evt_ebs",
    "outage_evt_ibs",
    "outage_evt_mms",
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


# ---------------------------------------------------------------------------
# Gumbel machinery
# ---------------------------------------------------------------------------

def gumbel_kth_cdf(z: float, k: int) -> float:
    """Limiting CDF of the k-th largest standardized maximum.

    G_k(z) = exp(-exp(-z)) * sum_{j<k} exp(-j z)/j! = Q(k, e^(-z)), the
    regularized upper incomplete gamma function.
    """
    if not (type(k) is int and k >= 1):
        raise DomainError(f"order index k must be an integer >= 1, got {k!r}")
    z = float(z)
    if z < -700.0:  # exp(-z) would overflow; the limit is exactly 0
        return 0.0
    return float(special._special.gammaincc(k, math.exp(-z)))


@functools.lru_cache(maxsize=256)
def gumbel_law(M: int, k: int, rate: float) -> RankedLaw:
    """Gumbel limit of the k-th largest of M iid exponentials with the given
    rate: density rate M^k/Gamma(k) e^(-k rate t - M e^(-rate t)) on the whole
    line, cdf(t) = Q(k, M e^(-rate t)), so cdf(0) = Q(k, M) > 0."""
    lc = math.log(rate) + k * math.log(M) - math.lgamma(k)

    def logpdf(t: np.ndarray) -> np.ndarray:
        return lc - k * rate * t - M * np.exp(-rate * t)

    def cdf(t: float) -> float:
        return float(special._special.gammaincc(k, M * math.exp(-rate * t)))

    return RankedLaw(logpdf, cdf, math.log(max(M / k, 2.0)) / rate, rate)


@functools.lru_cache(maxsize=512)
def _parent_quantile(p: float, params: SystemParams) -> float:
    """Inverse of the per-device SNR CDF: double hi from 1 until F(hi) > p,
    then Brent's root finder on [0, hi] to 8.9e-16 relative in x."""
    hi = 1.0
    for _ in range(200):
        if parent_cdf(hi, params, EhModel.NON_LINEAR) > p:
            break
        hi *= 2.0
    else:
        raise AccuracyError(f"could not bracket the parent quantile at p={p!r}")
    root = brent_root(
        lambda x: parent_cdf(x, params, EhModel.NON_LINEAR) - p,
        0.0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=400,
    )
    achieved = parent_cdf(root, params, EhModel.NON_LINEAR)
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
        params = params.replace(rate_threshold_q=0.0)  # the parent SNR law ignores it
        eta = _parent_quantile(1.0 - 1.0 / M, params)
        xi = _parent_quantile(1.0 - 1.0 / (math.e * M), params) - eta
        return NormalizingConstants(eta, xi, scheme)
    raise ValueError("random selection has no extreme-value limit")


# ---------------------------------------------------------------------------
# asymptotic outage evaluators
# ---------------------------------------------------------------------------

@_evaluator(Method.EVT, SchemeSpec, Scheme.SBS)
def outage_evt_sbs(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Gumbel limit of the k-th best end-to-end SNR, standardized numerically."""
    consts = normalizing_constants(Scheme.SBS, params.num_devices, params)
    return gumbel_kth_cdf((x - consts.eta) / consts.xi, spec.k)


@_evaluator(Method.EVT, SchemeSpec, Scheme.EBS)
def outage_evt_ebs(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Asymptotic outage when ranking on harvested energy: the exact EBS
    integral with the rate-1 Gumbel law of the ranked downlink gain."""
    law = gumbel_law(params.num_devices, spec.k, 1.0)
    return _one_gate(*_scales(x, params, spec.model), law, uplink=False)


@_evaluator(Method.EVT, SchemeSpec, Scheme.IBS)
def outage_evt_ibs(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Asymptotic outage when ranking on the uplink gain: the exact IBS
    integral with the rate-1 Gumbel law of the ranked uplink gain."""
    law = gumbel_law(params.num_devices, spec.k, 1.0)
    return _one_gate(*_scales(x, params, spec.model), law, uplink=True)


@_evaluator(Method.EVT, SchemeSpec, Scheme.MMS)
def outage_evt_mms(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Asymptotic outage when ranking on the worse of the two links: the
    exact MMS integral with the rate-2 Gumbel law of the ranked worse link."""
    law = gumbel_law(params.num_devices, spec.k, 2.0)
    return _mms_integral(*_scales(x, params, spec.model), law)

