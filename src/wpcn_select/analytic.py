"""Exact finite-M outage evaluators for every selection scheme.

Scaled quantities used throughout (x is the SNR threshold):

    r     = sigma_n^2 c t2 x / (t1 (a c - b))    saturation-scaled threshold
    s     = r/2 + sqrt(r^2/4 + c r / Pt)         positive root of y^2 - r y - c r/Pt
    w(y)  = r + c r / (Pt y)                     uplink outage boundary given downlink y
    v(z)  = c r / (Pt (z - r))                   inverse boundary, defined for z > r
    delta = k + m                                binomial summation shift

Per-device SNR parent laws (unit-mean exponential squared gains), each with
its survival S = 1 - F, which is computed directly (parent_log_sf) so it keeps
its digits in the far tail where 1 - F formed from F is 0:

    NonLinear    S(x) = e^(-r) z K1(z),  z = 2 sqrt(c r / Pt)
    Linear       S(x) = u K1(u),         u = 2 sqrt(beta), beta = sigma^2 t2 x/(Pt t1)
    Saturation   S(x) = e^(-r)           (Pt -> inf limit of NonLinear)

"k-th best" always means the k-th largest order statistic.  EBS, IBS and MMS
outage is the law of the ranked gain t integrated against the scheme's
failure gate 1 - e^(-E(t)), and every gate has E(t) = shift - slope t +
c r/(Pt (t - lo)) on t > lo.  So one helper evaluates all three:

    P(t <= lo) + int_lo^hi f(t) [1 - e^(-E(t))] dt
    EBS   lo = 0, shift = r, hi = inf      ranked downlink gain
    IBS   lo = r, hi = inf                 ranked uplink gain, certain outage below r
    MMS   half with lo = 0, shift = r      ranked worse link, the downlink ...
          half with lo = r                 ... or the uplink; slope = 1, hi = s

(the linear harvester has r = 0 and beta in place of c r/Pt).  The integrals
take the ranked law (RankedLaw) as an argument: the finite-M order statistic
on the exact and floor routes, its Gumbel limit on the extreme-value (evt)
route.  They run on special.integrate_panels, seeded at the law's scale and
the gate's, both MMS halves in one call.  For M <= 60, EBS and IBS use closed
alternating sums of K1 terms instead (math.fsum, under a cancellation
monitor) and fall back to the integrals when the monitor trips.

Pair selection ranks Y, Z as the k-th and j-th largest parent SNRs (k < j).
Given one of them, the other is an order statistic of iid draws from the
truncated parent, so its CDF is an incomplete beta function I and each
marginal is one quadrature (David & Nagaraja, Order Statistics, 2003, 2.2):

    primary    P(Y <= x (Z+1)) = int_0^{x/(1-x)} f_Z(z) [1 - I_{S(x(z+1))/S(z)}(k, j-k)] dz
    secondary  P(Z <= x (Y+1)) = 1 - int_{x/(1-x)}^inf f_Y(y) [1 - I_{F(x(y+1))/F(y)}(M-j+1, j-k)] dy

where f_Y and f_Z are the k-th and j-th best densities.  Both integrate
1 - I (scipy betaincc, accurate where I is near 1), and the secondary, written
as 1 minus a quadrature, cannot exceed 1 by that quadrature's relative error.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.special import k0 as _bessel_k0  # parent PDF needs K0 alongside K1

from .model import EhModel, SystemParams
from .special import (
    AccuracyError,
    DomainError,
    QuadratureSpec,
    bessel_k1,
    integrate_finite,
    integrate_panels,
    integrate_semi_infinite,
    reg_inc_beta,
    reg_inc_beta_complement,
)

__all__ = [
    "Method",
    "OutageEstimate",
    "PairSpec",
    "Parent",
    "Scheme",
    "SchemeSpec",
    "outage_ebs",
    "outage_ebs_high_snr",
    "outage_ibs",
    "outage_ibs_high_snr",
    "outage_mms",
    "outage_mms_high_snr",
    "outage_pair",
    "outage_pair_high_snr",
    "outage_rs",
    "outage_rs_high_snr",
    "outage_sbs",
    "outage_sbs_high_snr",
]

# sums over (-1)^m C(M-k, m) lose all double precision well before M = 100;
# beyond this cutoff the integral representations take over
MAX_SUM_DEVICES = 60
_CANCELLATION_LIMIT = 1e-8

# the one quadrature left in each pair marginal, over the outer order statistic
_PAIR_OUTER = QuadratureSpec(1e-8, 1e-13, 400)


class Scheme(Enum):
    """Device-selection rule."""

    RS = "RS"
    SBS = "SBS"
    EBS = "EBS"
    IBS = "IBS"
    MMS = "MMS"


class Method(Enum):
    """Evaluation route an outage number came from."""

    ANALYTIC = "analytic"
    HIGH_SNR = "highsnr"
    EVT = "evt"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class SchemeSpec:
    """Selection rule, order index k (k-th best), and EH model."""

    scheme: Scheme
    k: int = 1
    model: EhModel = EhModel.NON_LINEAR

    def __post_init__(self) -> None:
        if not (type(self.k) is int and self.k >= 1):  # not isinstance: True is an int
            raise ValueError("order index k must be an integer >= 1")


@dataclass(frozen=True)
class PairSpec:
    """Joint selection of the k-th and j-th best devices, k < j."""

    scheme: Scheme
    k: int
    j: int
    model: EhModel = EhModel.NON_LINEAR

    def __post_init__(self) -> None:
        if self.scheme not in (Scheme.RS, Scheme.SBS):
            raise ValueError("pair selection supports only RS and SBS ranking")
        if not (type(self.k) is int and type(self.j) is int):  # True is no index either
            raise ValueError("order indices k, j must be integers")
        if not 1 <= self.k < self.j:
            raise ValueError("pair selection requires 1 <= k < j")


@dataclass(frozen=True)
class OutageEstimate:
    """Outage probability plus the route that produced it."""

    value: float
    method: Method
    stderr: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"outage value must lie in [0, 1], got {self.value!r}")
        if (self.stderr is not None) != (self.method is Method.MONTE_CARLO):
            raise ValueError("stderr must be present exactly for Monte Carlo estimates")
        if self.stderr is not None and not self.stderr >= 0.0:
            raise ValueError("stderr must be nonnegative")


def _finalize(value: float, method: Method, stderr: Optional[float] = None) -> OutageEstimate:
    # anything beyond float-noise distance from [0, 1] is a formula bug,
    # not roundoff, so it raises instead of being clamped
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise AccuracyError(f"outage {value!r} far outside the unit interval", estimate=value)
    return OutageEstimate(min(1.0, max(0.0, value)), method, stderr)


def _evaluator(method: Method, spec_type: type, *schemes: Scheme):
    """Decorator: the contract every deterministic outage evaluator shares.

    The evaluator takes (x, spec, params).  spec must be a spec_type naming
    one of schemes, with its order indices within the population; the floor
    and extreme-value routes take only the nonlinear harvester, since the
    linear one neither saturates nor is covered by the limits.  x <= 0 is no
    outage and x = inf certain outage; a pair also needs x < 1, where its
    integration limit x/(1-x) is finite.  The body computes the value at any
    other x, and it leaves through _finalize.
    """
    nonlinear_only = method is not Method.ANALYTIC
    pair = spec_type is PairSpec

    def decorate(body: Callable[..., float]) -> Callable[..., OutageEstimate]:
        @functools.wraps(body, assigned=("__module__", "__name__", "__qualname__", "__doc__"))
        def evaluator(x: float, spec, params: SystemParams) -> OutageEstimate:
            if type(spec) is not spec_type or spec.scheme not in schemes:
                raise ValueError(f"{body.__name__} cannot evaluate {spec!r}")
            top = spec.j if pair else spec.k
            if top > params.num_devices:
                raise ValueError(f"order index {top} exceeds num_devices={params.num_devices}")
            if nonlinear_only and spec.model is not EhModel.NON_LINEAR:
                raise ValueError(f"the {method.value} route is stated for the nonlinear harvester")
            x = float(x)
            if x <= 0.0:
                return _finalize(0.0, method)
            if math.isinf(x):
                return _finalize(1.0, method)
            if pair and not x < 1.0:
                raise DomainError(f"pair outage needs threshold x < 1, got {x!r}")
            return _finalize(body(x, spec, params), method)

        del evaluator.__wrapped__  # introspection shows the evaluator, not its body
        return evaluator

    return decorate


# ---------------------------------------------------------------------------
# scaled threshold quantities and parent laws
# ---------------------------------------------------------------------------

class Parent(Enum):
    """Which per-device SNR law underlies an evaluation."""

    NON_LINEAR = "nonlinear"
    LINEAR = "linear"
    SATURATION = "saturation"


def parent_from_model(model: EhModel) -> Parent:
    return Parent.LINEAR if model is EhModel.LINEAR else Parent.NON_LINEAR


def r_scale(x: float, params: SystemParams) -> float:
    """r = sigma_n^2 c t2 x / (t1 (a c - b))."""
    rc = params.rectenna
    t1 = params.harvest_fraction
    return params.noise_variance * rc.c * (1.0 - t1) * x / (t1 * rc.saturation_slope)


def _r_and_cr(x: float, params: SystemParams) -> tuple[float, float]:
    """r and c r / Pt, the two scales every nonlinear ranked route needs."""
    r = r_scale(x, params)
    return r, params.rectenna.c * r / params.transmit_power


def _linear_beta(x: float, params: SystemParams) -> float:
    """beta = sigma_n^2 t2 x / (Pt t1), the linear-model threshold scale."""
    t1 = params.harvest_fraction
    return params.noise_variance * (1.0 - t1) * x / (params.transmit_power * t1)


def parent_log_sf(x: float, params: SystemParams, parent: Parent) -> float:
    """log(1 - F(x)) of a single device's SNR, formed from the survival itself.

    The survival e^(-r) z K1(z), u K1(u) or e^(-r) keeps its relative
    precision far into the tail, where 1 - F computed from F is 0.  Returns
    -inf where K1 underflows (certain outage).
    """
    if x <= 0.0:
        return 0.0
    if math.isinf(x):  # t2 -> 0 pushes the threshold to inf; outage is certain
        return -math.inf
    if parent is Parent.SATURATION:
        return -r_scale(x, params)
    if parent is Parent.NON_LINEAR:
        r = r_scale(x, params)
        z = 2.0 * math.sqrt(params.rectenna.c * r / params.transmit_power)
        t = z * bessel_k1(z)
        return -r + math.log(t) if t > 0.0 else -math.inf
    u = 2.0 * math.sqrt(_linear_beta(x, params))
    t = u * bessel_k1(u)
    return math.log(t) if t > 0.0 else -math.inf


def parent_cdf(x: float, params: SystemParams, parent: Parent) -> float:
    """CDF of a single device's SNR under the given parent law."""
    if x <= 0.0:
        return 0.0
    return -math.expm1(parent_log_sf(x, params, parent))


def parent_pdf(x: float, params: SystemParams, parent: Parent) -> float:
    """Density of a single device's SNR under the given parent law."""
    if x <= 0.0 or math.isinf(x):
        return 0.0
    if parent is Parent.SATURATION:
        rho = r_scale(1.0, params)
        return rho * math.exp(-rho * x)
    if parent is Parent.NON_LINEAR:
        rho = r_scale(1.0, params)
        c_over_pt = params.rectenna.c * rho / params.transmit_power
        z = 2.0 * math.sqrt(c_over_pt * x)
        return math.exp(-rho * x) * (
            rho * z * bessel_k1(z) + 2.0 * c_over_pt * float(_bessel_k0(z))
        )
    beta1 = _linear_beta(1.0, params)
    u = 2.0 * math.sqrt(beta1 * x)
    return 2.0 * beta1 * float(_bessel_k0(u))


def _kth_best_cdf(psi: float, M: int, k: int) -> float:
    """CDF of the k-th largest of M iid draws at parent probability psi."""
    return reg_inc_beta(psi, M - k + 1, k)


# ---------------------------------------------------------------------------
# alternating binomial sums with cancellation guard
# ---------------------------------------------------------------------------

def _order_sum_or_integral(
    M: int, k: int, term: Callable[[int], float], integral: Callable[[], float]
) -> float:
    """1 - k C(M,k) sum_m (-1)^m C(M-k, m) term(k+m), cancellation-monitored;
    integral() instead for M > MAX_SUM_DEVICES or when the monitor trips.

    The leading 1 is part of the monitored total, so losing the answer to the
    final subtraction trips the fallback too, not just losing it inside the
    alternating sum.
    """
    if M > MAX_SUM_DEVICES:
        return integral()
    prefactor = k * math.comb(M, k)
    terms = [1.0]
    for m in range(M - k + 1):
        t = prefactor * math.comb(M - k, m) * term(k + m)
        terms.append(t if m % 2 else -t)
    total = math.fsum(terms)
    worst = max(abs(t) for t in terms)
    if abs(total) < worst * sys.float_info.epsilon / _CANCELLATION_LIMIT:
        return integral()
    return total


@dataclass(frozen=True)
class RankedLaw:
    """Law of a scheme's ranked gain t: array-valued log density (-inf for an
    exact zero), CDF, the density's peak, and the rate that sets its width."""

    logpdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[float], float]
    peak: float
    rate: float


def order_stat_law(M: int, k: int, rate: float) -> RankedLaw:
    """The k-th largest of M iid exponentials with the given rate:
    cdf(t) = I_{1 - e^(-rate t)}(M - k + 1, k)."""
    lc = (
        math.log(k * rate)
        + math.lgamma(M + 1)
        - math.lgamma(k + 1)
        - math.lgamma(M - k + 1)
    )

    def logpdf(t: np.ndarray) -> np.ndarray:
        q = -np.expm1(-rate * np.maximum(t, 0.0))  # parent CDF, 0 at t <= 0
        live = q > 0.0
        return np.where(live, lc - k * rate * t + (M - k) * np.log(np.where(live, q, 1.0)), -np.inf)

    def cdf(t: float) -> float:
        return _kth_best_cdf(-math.expm1(-rate * t), M, k) if t > 0.0 else 0.0

    return RankedLaw(logpdf, cdf, math.log(max(M / k, 2.0)) / rate, rate)


# seed panels of the gated integral at its two scales: the ranked law's width
# 1/rate about its peak, and the gate's c r/Pt above lo
_LAW_STEPS = (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
_GATE_STEPS = tuple(4.0 ** j for j in range(-1, 6))


def _gated_integral(law: RankedLaw, gates: list[tuple[float, float, float]],
                    cr_over_pt: float, slope: float = 0.0) -> float:
    """Sum over gates (lo, hi, shift) of P(t <= lo) + int_lo^hi f(t) [1 -
    e^(-E(t))] dt in one kernel call, with f the law's density and E(t) =
    shift - slope t + cr_over_pt/(t - lo): every ranked scheme's outage
    (module docstring).  The law keeps about e^-40 of its mass or less beyond
    peak + 40, so each integral stops there, on the peak however far hi is.
    """
    mass = sum(law.cdf(lo) for lo, _, _ in gates)
    gates = [(lo, top, shift) for lo, hi, shift in gates if (top := min(hi, law.peak + 40.0)) > lo]
    if not gates:
        return mass
    cuts = [law.peak + step / law.rate for step in _LAW_STEPS]
    edges = [sorted({lo, top}.union(c for c in cuts + [lo + cr_over_pt * g for g in _GATE_STEPS]
                                    if lo < c < top)) for lo, top, _ in gates]
    lo, _, shift = (np.array(column)[:, None] for column in zip(*gates))

    def f(t: np.ndarray, piece: np.ndarray) -> np.ndarray:
        e = slope * t - shift[piece] - cr_over_pt / (t - lo[piece])
        return np.exp(law.logpdf(t)) * -np.expm1(e)

    return mass + integrate_panels(f, edges)[0]


# ---------------------------------------------------------------------------
# RS and SBS
# ---------------------------------------------------------------------------

@_evaluator(Method.ANALYTIC, SchemeSpec, Scheme.RS)
def outage_rs(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Outage of a uniformly selected device: the parent CDF itself."""
    return parent_cdf(x, params, parent_from_model(spec.model))


@_evaluator(Method.HIGH_SNR, SchemeSpec, Scheme.RS)
def outage_rs_high_snr(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Transmit-power-independent outage floor 1 - e^(-r)."""
    return parent_cdf(x, params, Parent.SATURATION)


@_evaluator(Method.ANALYTIC, SchemeSpec, Scheme.SBS)
def outage_sbs(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Outage of the device with the k-th best end-to-end SNR."""
    psi = parent_cdf(x, params, parent_from_model(spec.model))
    return _kth_best_cdf(psi, params.num_devices, spec.k)


@_evaluator(Method.HIGH_SNR, SchemeSpec, Scheme.SBS)
def outage_sbs_high_snr(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """SBS floor: the k-th best order statistic of the saturation parent."""
    psi = parent_cdf(x, params, Parent.SATURATION)
    return _kth_best_cdf(psi, params.num_devices, spec.k)


# ---------------------------------------------------------------------------
# EBS: rank on harvested energy (equivalently on the downlink gain)
# ---------------------------------------------------------------------------

def _ebs_value(x: float, k: int, M: int, params: SystemParams, parent: Parent) -> float:
    if parent is Parent.NON_LINEAR:
        r, cr_over_pt = _r_and_cr(x, params)
        scale = math.exp(-r)
        shift = r
    else:
        cr_over_pt = _linear_beta(x, params)
        scale = 1.0
        shift = 0.0

    def term(delta: int) -> float:
        arg = 2.0 * math.sqrt(cr_over_pt * delta)
        return scale * 2.0 * math.sqrt(cr_over_pt / delta) * bessel_k1(arg)

    def integral() -> float:
        return _ebs_integral(shift, cr_over_pt, order_stat_law(M, k, 1.0))

    return _order_sum_or_integral(M, k, term, integral)


def _ebs_integral(shift: float, cr_over_pt: float, law: RankedLaw) -> float:
    """EBS outage for a ranked downlink gain y with the given law: the uplink
    fails with probability 1 - e^(-shift - cr_over_pt/y), shift being r under
    the nonlinear harvester and 0 under the linear one."""
    return _gated_integral(law, [(0.0, math.inf, shift)], cr_over_pt)


@_evaluator(Method.ANALYTIC, SchemeSpec, Scheme.EBS)
def outage_ebs(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Outage of the device harvesting the k-th most energy."""
    return _ebs_value(x, spec.k, params.num_devices, params, parent_from_model(spec.model))


@_evaluator(Method.HIGH_SNR, SchemeSpec, Scheme.EBS)
def outage_ebs_high_snr(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """EBS floor.  Saturation erases the harvested-energy ranking, so this is
    the RS floor evaluated through the same saturation parent."""
    return parent_cdf(x, params, Parent.SATURATION)


# ---------------------------------------------------------------------------
# IBS: rank on the uplink gain
# ---------------------------------------------------------------------------

def ibs_phi_closed(x: float, params: SystemParams, delta: int) -> float:
    """Tail integral int_r^inf exp(-delta z - c r/(Pt (z - r))) dz in closed form."""
    r, cr_over_pt = _r_and_cr(x, params)
    arg = 2.0 * math.sqrt(cr_over_pt * delta)
    return math.exp(-delta * r) * 2.0 * math.sqrt(cr_over_pt / delta) * bessel_k1(arg)


def _ibs_integral(r: float, cr_over_pt: float, law: RankedLaw) -> float:
    """IBS outage for a ranked uplink gain z with the given law: below r it
    fails outright, above r the downlink gate fails with probability
    1 - e^(-c r/(Pt (z - r)))."""
    return _gated_integral(law, [(r, math.inf, 0.0)], cr_over_pt)


def _ibs_value(x: float, k: int, M: int, params: SystemParams) -> float:
    def integral() -> float:
        return _ibs_integral(*_r_and_cr(x, params), order_stat_law(M, k, 1.0))

    return _order_sum_or_integral(M, k, lambda d: ibs_phi_closed(x, params, d), integral)


@_evaluator(Method.ANALYTIC, SchemeSpec, Scheme.IBS)
def outage_ibs(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Outage of the device with the k-th best uplink gain."""
    if spec.model is EhModel.LINEAR:
        # under the linear harvester the SNR is symmetric in the two gains,
        # so ranking the uplink gain performs exactly like ranking energy
        return _ebs_value(x, spec.k, params.num_devices, params, Parent.LINEAR)
    return _ibs_value(x, spec.k, params.num_devices, params)


@_evaluator(Method.HIGH_SNR, SchemeSpec, Scheme.IBS)
def outage_ibs_high_snr(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """IBS floor: the k-th best uplink order statistic against the threshold r."""
    # Pt -> inf closes the downlink gate: only the ranked mass below r fails
    law = order_stat_law(params.num_devices, spec.k, 1.0)
    return _ibs_integral(r_scale(x, params), 0.0, law)


# ---------------------------------------------------------------------------
# MMS: rank on the worse of the two gains
# ---------------------------------------------------------------------------

def _mms_integral(r: float, cr_over_pt: float, law: RankedLaw) -> float:
    """MMS outage for a ranked worse-link gain t with the given law.

    Given the ranked minimum t, a fair coin picks the link that attains it
    and the other gain is t + Exp(1).  A downlink minimum fails when the
    uplink is below w(t) = r + cr_over_pt/t; an uplink minimum fails outright
    below r and otherwise when the downlink is below v(t) = cr_over_pt/(t - r).
    Both gates close at s, the root of w(s) = s.
    """
    s = 0.5 * r + math.sqrt(0.25 * r * r + cr_over_pt)
    return 0.5 * _gated_integral(law, [(0.0, s, r), (r, s, 0.0)], cr_over_pt, slope=1.0)


@_evaluator(Method.ANALYTIC, SchemeSpec, Scheme.MMS)
def outage_mms(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Outage of the device whose worse link is the k-th best."""
    if spec.model is EhModel.LINEAR:
        # the linear harvester fails on the hyperbola g h < beta: r = 0
        r, cr_over_pt = 0.0, _linear_beta(x, params)
    else:
        r, cr_over_pt = _r_and_cr(x, params)
    return _mms_integral(r, cr_over_pt, order_stat_law(params.num_devices, spec.k, 2.0))


@_evaluator(Method.HIGH_SNR, SchemeSpec, Scheme.MMS)
def outage_mms_high_snr(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """MMS floor: the saturation limit of the min-link selection outage."""
    # Pt -> inf drops the c r/Pt terms from both failure gates
    law = order_stat_law(params.num_devices, spec.k, 2.0)
    return _mms_integral(r_scale(x, params), 0.0, law)


# ---------------------------------------------------------------------------
# pair selection: k-th and j-th best transmit together, single-user detection
# ---------------------------------------------------------------------------

def _kth_best_parent_density(
    y: float, log_sf: float, k: int, M: int, params: SystemParams, parent: Parent
) -> float:
    """Density k C(M,k) F^(M-k) S^(k-1) f of the k-th largest parent SNR at y,
    given log S(y); summed in logs so no factor under- or overflows alone."""
    f = parent_pdf(y, params, parent)
    cdf = -math.expm1(log_sf)
    if f == 0.0 or log_sf == -math.inf or (cdf == 0.0 and M > k):
        return 0.0
    log_d = (
        math.lgamma(M + 1) - math.lgamma(k) - math.lgamma(M - k + 1)
        + math.log(f) + (k - 1) * log_sf
    )
    if M > k:
        log_d += (M - k) * math.log(cdf)
    return math.exp(log_d) if log_d > -745.0 else 0.0


def pair_marginal_primary(
    x: float, k: int, j: int, M: int, params: SystemParams, parent: Parent
) -> float:
    """P(Y <= x (Z + 1)) for Y, Z the k-th and j-th largest parent SNRs.

    This is the stronger pair member's SINR outage under single-user
    detection, with the weaker member as interference.  Given Z = z, the j-1
    stronger devices are iid with survival S(.)/S(z), so Y <= x (z + 1) has
    the binomial probability 1 - I_{S(x (z+1))/S(z)}(k, j-k) in closed form;
    one quadrature over the j-th best density remains.  It runs in amplitude
    coordinates (z = wz^2) because the parent density has an integrable log
    singularity at the origin.  The event needs Z <= x/(1-x).
    """
    if x <= 0.0:
        return 0.0
    z_max = x / (1.0 - x)

    def f(wz: float) -> float:
        z = wz * wz
        log_sf_z = parent_log_sf(z, params, parent)
        density = _kth_best_parent_density(z, log_sf_z, j, M, params, parent)
        if density == 0.0:
            return 0.0
        # z <= x/(1-x) keeps x (z + 1) >= z, so the ratio is at most 1
        ratio = math.exp(parent_log_sf(x * (z + 1.0), params, parent) - log_sf_z)
        return density * 2.0 * wz * reg_inc_beta_complement(min(1.0, ratio), k, j - k)

    val, _ = integrate_finite(f, 0.0, math.sqrt(z_max), _PAIR_OUTER)
    return val


def pair_marginal_secondary(
    x: float, k: int, j: int, M: int, params: SystemParams, parent: Parent
) -> float:
    """P(Z <= x (Y + 1)) for Y, Z the k-th and j-th largest parent SNRs.

    The weaker member's SINR outage, for the nonlinear parent.  For Y below
    x/(1-x) the whole conditional support Z <= Y is in outage.  Above it,
    given Y = y the M-k weaker devices are iid with CDF F(.)/F(y), so
    Z > x (y + 1) has probability 1 - I_{F(x (y+1))/F(y)}(M-j+1, j-k), and
    the marginal is 1 minus one quadrature of it over the k-th best density.
    That keeps it at most 1, but its error is absolute: a value far below
    the quadrature's tolerance (a low threshold) keeps no relative digits.
    """
    if parent is not Parent.NON_LINEAR:
        raise ValueError("the secondary pair marginal is stated for the nonlinear parent")
    if x <= 0.0:
        return 0.0
    y_star = x / (1.0 - x)
    # the quadrature runs in s = a wy, where the survival falls like e^(-a wy)
    # with a = 2 sqrt(c rho/Pt): the integrand falls like e^(-k a wy), so the
    # semi-infinite map u = e^-(s - s*) leaves it regular at u = 0, where a
    # unit-rate map in wy is singular like u^(k a - 1) for k a < 1
    rate = 2.0 * math.sqrt(params.rectenna.c * r_scale(1.0, params) / params.transmit_power)

    def f(s: float) -> float:
        wy = s / rate
        y = wy * wy
        log_sf_y = parent_log_sf(y, params, parent)
        density = _kth_best_parent_density(y, log_sf_y, k, M, params, parent)
        if density == 0.0:
            return 0.0
        q = parent_cdf(x * (y + 1.0), params, parent) / -math.expm1(log_sf_y)
        miss = reg_inc_beta_complement(min(1.0, q), M - j + 1, j - k)
        return density * 2.0 * wy / rate * miss

    misses, _ = integrate_semi_infinite(f, rate * math.sqrt(y_star), _PAIR_OUTER)
    return 1.0 - misses


def _pair_rs_value(x: float, params: SystemParams, parent: Parent) -> float:
    """Random unordered pair: product parent density over the printed region,
    which requires both members' SINRs to fall below the threshold."""
    z_max = x / (1.0 - x)

    def outer(wz: float) -> float:
        z = wz * wz
        f_z = parent_pdf(z, params, parent)
        if f_z == 0.0:
            return 0.0
        lo = max(0.0, (z - x) / x)
        hi = x * (z + 1.0)
        if hi <= lo:
            return 0.0
        mass = parent_cdf(hi, params, parent) - parent_cdf(lo, params, parent)
        return f_z * mass * 2.0 * wz

    val, _ = integrate_finite(outer, 0.0, math.sqrt(z_max), _PAIR_OUTER)
    return val


def _pair_value(x: float, pair: PairSpec, params: SystemParams, parent: Parent) -> float:
    if pair.scheme is Scheme.RS:
        return _pair_rs_value(x, params, parent)
    return pair_marginal_primary(x, pair.k, pair.j, params.num_devices, params, parent)


@_evaluator(Method.ANALYTIC, PairSpec, Scheme.RS, Scheme.SBS)
def outage_pair(x: float, pair: PairSpec, params: SystemParams) -> float:
    """Outage of a two-device transmission under single-user detection."""
    return _pair_value(x, pair, params, parent_from_model(pair.model))


@_evaluator(Method.HIGH_SNR, PairSpec, Scheme.RS, Scheme.SBS)
def outage_pair_high_snr(x: float, pair: PairSpec, params: SystemParams) -> float:
    """Pair outage floor through the saturation parent."""
    return _pair_value(x, pair, params, Parent.SATURATION)
