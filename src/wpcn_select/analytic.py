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
    Pt = inf     S(x) = e^(-r)           NonLinear at z = 0: every floor (outage_high_snr)

"k-th best" always means the k-th largest order statistic.  EBS, IBS and MMS
outage is the law of the ranked gain t integrated against the scheme's
failure gate 1 - e^(-E(t)), and every gate has E(t) = shift - slope t +
c r/(Pt (t - lo)) on t > lo.  So one helper evaluates all three:

    P(t <= lo) + int_lo^hi f(t) [1 - e^(-E(t))] dt
    EBS   lo = 0, shift = r, hi = inf      ranked downlink gain
    IBS   lo = r, hi = inf                 ranked uplink gain, certain outage below r
    MMS   half with lo = 0, shift = r      ranked worse link, the downlink ...
          half with lo = r                 ... or the uplink; slope = 1, hi = s

The linear harvester is the nonlinear one with r = 0 and beta in place of
c r/Pt; _scales forms (r, c r/Pt) for either, and no other code branches on
the harvester to do so.  With r = 0 the EBS and IBS gates coincide.  The
integrals take the ranked law (RankedLaw) as an argument: the finite-M
order statistic on the exact and floor routes, its Gumbel limit on the
extreme-value (evt) route.  They run on special.integrate_panels, seeded at
the law's scale and the gate's, both MMS halves in one call.  Both laws are
pure and memoized per (M, k, rate), each with its own seed cuts.  The
integrand takes a lone gate's lo and shift as scalars and works in place,
rounding exactly as e^(log f(t)) (-expm1(slope t - shift - cr/(t - lo)))
does.  EBS and IBS share one body (_one_gate).  For a finite M <= 10 it
uses the closed alternating sum of K1 terms instead (math.fsum, under a
cancellation monitor), and it falls back to the integral when the monitor
trips or at Pt = inf, where the gate is constant and the integral closed.
Above M = 10 the sum keeps too few digits: at M = 20 it was 3.3e-8 off a
tight integral inside the monitor's limit, against 2.3e-11 at M = 10.

Pair selection ranks Y, Z as the k-th and j-th largest parent SNRs (k < j).
The weaker member's SINR never exceeds the stronger's (Z (Z+1) <= Y (Y+1)),
so the stronger member failing implies the weaker one fails, and a pair's
outage is the stronger member's, the primary marginal.  Given Z = z, the j-1 stronger devices
are iid with survival S(.)/S(z), so the stronger member's place among them
is a binomial tail, an incomplete beta function I, and the marginal is one
quadrature over the j-th best density f_Z (David & Nagaraja, Order
Statistics, 2003, 2.2).  With z* = x/(1-x):

    P(Y <= x (Z+1)) = int_0^z* f_Z(z) I_{1-S(x(z+1))/S(z)}(j-k, k) dz

Every term is positive, so it keeps its relative digits far into the tail.
It runs on special.integrate_panels in amplitude w = sqrt(z), with every
parent survival written as S(t) = e^(-rho t) z K1(z), z = 2 sqrt(a t),
where (rho, a) are the scales at x = 1.  A random pair is the best and
second best of two devices.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import special  # scipy's ufuncs as special._special, read at each call
from .model import EhModel, SystemParams
from .special import (
    AccuracyError,
    DomainError,
    QuadratureSpec,
    bessel_k1,
    integrate_panels,
    reg_inc_beta,
)

__all__ = [
    "Method",
    "OutageEstimate",
    "PairSpec",
    "Scheme",
    "SchemeSpec",
    "outage_ebs",
    "outage_high_snr",
    "outage_ibs",
    "outage_mms",
    "outage_pair",
    "outage_rs",
    "outage_sbs",
]

# the EBS/IBS K1 sums run up to this M, the integral above it (_one_gate)
MAX_SUM_DEVICES = 10
_CANCELLATION_LIMIT = 1e-8

# the pair quadrature: no absolute floor above any value it can return
_PAIR_QUADRATURE = QuadratureSpec(1e-8, 1e-300, 400)


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


def _check_order_index(spec: SchemeSpec | PairSpec, num_devices: int) -> None:
    """Reject a spec that ranks past the population: k, or j for a pair,
    above num_devices."""
    top = spec.j if isinstance(spec, PairSpec) else spec.k
    if top > num_devices:
        raise ValueError(f"order index {top} exceeds num_devices={num_devices}")


def _evaluator(method: Method, spec_type: type, *schemes: Scheme):
    """Decorator: the contract every deterministic outage evaluator shares.

    The evaluator takes (x, spec, params).  spec must be a spec_type naming
    one of schemes, with its order indices within the population; the
    extreme-value route takes only the nonlinear harvester, which its limits
    cover.  x <= 0 is no outage and x = inf certain outage; a pair also needs
    x < 1, where its integration limit x/(1-x) is finite; a nan x raises
    DomainError.  The body computes the value at any other x, at any Pt up
    to inf, and it leaves through _finalize.  The floor route
    (outage_high_snr) is the exact evaluator at Pt = inf.
    """
    nonlinear_only = method is not Method.ANALYTIC
    pair = spec_type is PairSpec

    def decorate(body: Callable[..., float]) -> Callable[..., OutageEstimate]:
        @functools.wraps(body, assigned=("__module__", "__name__", "__qualname__", "__doc__"))
        def evaluator(x: float, spec, params: SystemParams) -> OutageEstimate:
            if type(spec) is not spec_type or spec.scheme not in schemes:
                raise ValueError(f"{body.__name__} cannot evaluate {spec!r}")
            _check_order_index(spec, params.num_devices)
            if nonlinear_only and spec.model is not EhModel.NON_LINEAR:
                raise ValueError(f"the {method.value} route is stated for the nonlinear harvester")
            x = float(x)
            if x != x:
                raise DomainError(f"outage threshold x must be a number, got {x!r}")
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

def r_scale(x: float, params: SystemParams) -> float:
    """r = sigma_n^2 c t2 x / (t1 (a c - b))."""
    rc = params.rectenna
    t1 = params.harvest_fraction
    return params.noise_variance * rc.c * (1.0 - t1) * x / (t1 * rc.saturation_slope)


def _scales(x: float, params: SystemParams, model: EhModel) -> tuple[float, float]:
    """(r, c r/Pt), the two threshold scales of every route.  The linear
    harvester is the nonlinear one with r = 0 and beta = sigma_n^2 t2 x/(Pt t1)
    in place of c r/Pt."""
    if model is EhModel.LINEAR:
        t1 = params.harvest_fraction
        return 0.0, params.noise_variance * (1.0 - t1) * x / (params.transmit_power * t1)
    r = r_scale(x, params)
    return r, params.rectenna.c * r / params.transmit_power


def parent_log_sf(x: float, params: SystemParams, model: EhModel) -> float:
    """log(1 - F(x)) of a single device's SNR under the given harvester,
    formed from the survival itself.

    The survival e^(-r) z K1(z) or u K1(u) keeps its relative precision far
    into the tail, where 1 - F computed from F is 0; at Pt = inf the
    nonlinear one is e^(-r).  Returns -inf where K1 underflows (certain
    outage).
    """
    if x <= 0.0:
        return 0.0
    if math.isinf(x):  # t2 -> 0 pushes the threshold to inf; outage is certain
        return -math.inf
    r, cr_over_pt = _scales(x, params, model)
    z = 2.0 * math.sqrt(cr_over_pt)
    t = z * bessel_k1(z) if z != 0.0 else 1.0  # z K1(z) -> 1 as z -> 0 (Pt = inf)
    return -r + math.log(t) if t > 0.0 else -math.inf


def parent_cdf(x: float, params: SystemParams, model: EhModel) -> float:
    """CDF of a single device's SNR under the given harvester."""
    if x <= 0.0:
        return 0.0
    return -math.expm1(parent_log_sf(x, params, model))


def _parent_logs(t: np.ndarray, rho: float, a: float, density: bool = True):
    """(log S(t), log f(t)) of a single device's SNR at t > 0, array-valued,
    for the parent with rates (rho, a): f = -S' = e^(-rho t) (rho z K1(z) +
    2 a K0(z)).  The Bessel factors enter scaled by e^z, so neither
    underflows in the far tail.  Without density, log S(t) alone, which
    spares the K0 the pair factor does not need."""
    if a == 0.0:
        return (-rho * t, math.log(rho) - rho * t) if density else -rho * t
    z = 2.0 * np.sqrt(a * t)
    zk1 = z * special._special.k1e(z)
    e = -rho * t - z
    # z K1(z) = 1 - O(z^2 log z) rounds above 1 at tiny z; S cannot
    log_sf = np.minimum(e + np.log(zk1), 0.0)
    if not density:
        return log_sf
    return log_sf, e + np.log(rho * zk1 + 2.0 * a * special._special.k0e(z))


def _kth_best_cdf(psi: float, M: int, k: int) -> float:
    """CDF of the k-th largest of M iid draws at parent probability psi."""
    return reg_inc_beta(psi, M - k + 1, k)


@dataclass(frozen=True)
class RankedLaw:
    """Law of a scheme's ranked gain t: array-valued log density (-inf for an
    exact zero), CDF, the density's peak, the rate that sets its width, and
    (M, k) when it is the k-th largest of M draws, None for a limit law."""

    logpdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[float], float]
    peak: float
    rate: float
    order: Optional[tuple[int, int]] = None

    @functools.cached_property
    def cuts(self) -> tuple[float, ...]:
        """The gated integral's seed edges at the law's own scale."""
        return tuple(self.peak + step / self.rate for step in _LAW_STEPS)


@functools.lru_cache(maxsize=256)
def order_stat_law(M: int, k: int, rate: float) -> RankedLaw:
    """The k-th largest of M iid exponentials with the given rate:
    cdf(t) = I_{1 - e^(-rate t)}(M - k + 1, k)."""
    # log of the exact integer C(M, k) keeps an ulp; a difference of lgammas
    # near M log M does not
    lc = math.log(k * rate) + math.log(math.comb(M, k))

    def logpdf(t: np.ndarray) -> np.ndarray:
        q = -np.expm1(-rate * np.maximum(t, 0.0))  # parent CDF, 0 at t <= 0
        if q.min() > 0.0:  # all live, as at the nodes of a gated integral, above 0
            return lc - k * rate * t + (M - k) * np.log(q)
        dead = q <= 0.0  # t <= 0; a nan t stays nan
        return np.where(dead, -np.inf, lc - k * rate * t + (M - k) * np.log(np.where(dead, 1.0, q)))

    def cdf(t: float) -> float:
        return _kth_best_cdf(-math.expm1(-rate * t), M, k) if t > 0.0 else 0.0

    return RankedLaw(logpdf, cdf, math.log(max(M / k, 2.0)) / rate, rate, (M, k))


# seed panels of the gated integral at its two scales: the ranked law's width
# 1/rate about its peak, and the gate's c r/Pt above lo
_LAW_STEPS = (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
_GATE_STEPS = tuple(4.0 ** j for j in range(-1, 6))


def _gated_integral(law: RankedLaw, gates: list[tuple[float, float, float]],
                    cr_over_pt: float, slope: float = 0.0) -> float:
    """Sum over gates (lo, hi, shift) of P(t <= lo) + int_lo^hi f(t) [1 -
    e^(-E(t))] dt in one kernel call, with f the law's density and E(t) =
    shift - slope t + cr_over_pt/(t - lo), 0 <= lo and slope 0 or 1: every
    ranked scheme's outage (module docstring).  The law keeps about e^-40 of
    its mass or less beyond peak + 40, so each integral stops there, on the
    peak however far hi is.  A constant gate (cr_over_pt = 0 at slope 0,
    where hi = inf: EBS and IBS at Pt = inf) needs no integral.
    """
    mass = sum(law.cdf(lo) for lo, _, _ in gates)
    if cr_over_pt == 0.0 and not slope:
        return mass + sum((1.0 - law.cdf(lo)) * -math.expm1(-shift) for lo, _, shift in gates)
    gates = [(lo, top, shift) for lo, hi, shift in gates if (top := min(hi, law.peak + 40.0)) > lo]
    if not gates:
        return mass
    edges = [sorted({lo, top, *(c for c in law.cuts if lo < c < top),
                     *(c for g in _GATE_STEPS if lo < (c := lo + cr_over_pt * g) < top)})
             for lo, top, _ in gates]
    if len(gates) == 1:
        (lo, _, shift), = gates
    else:
        lo, shift = (np.array([gate[i] for gate in gates])[:, None] for i in (0, 2))

    def f(t: np.ndarray, piece: np.ndarray) -> np.ndarray:
        # the nodes lie above lo >= 0, so slope t - shift is the scalar
        # 0 - shift at slope 0 and t - shift at slope 1, bit for bit
        lo_t, shift_t = (lo, shift) if len(gates) == 1 else (lo[piece], shift[piece])
        e = t - lo_t
        np.divide(cr_over_pt, e, out=e)
        np.subtract(t - shift_t if slope else 0.0 - shift_t, e, out=e)
        np.negative(np.expm1(e, out=e), out=e)
        density = law.logpdf(t)
        return np.multiply(np.exp(density, out=density), e, out=density)

    return mass + integrate_panels(f, edges)[0]


# ---------------------------------------------------------------------------
# RS and SBS
# ---------------------------------------------------------------------------

@_evaluator(Method.ANALYTIC, SchemeSpec, Scheme.RS)
def outage_rs(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Outage of a uniformly selected device: the parent CDF itself."""
    return parent_cdf(x, params, spec.model)


@_evaluator(Method.ANALYTIC, SchemeSpec, Scheme.SBS)
def outage_sbs(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Outage of the device with the k-th best end-to-end SNR."""
    psi = parent_cdf(x, params, spec.model)
    return _kth_best_cdf(psi, params.num_devices, spec.k)


# ---------------------------------------------------------------------------
# EBS and IBS: one gate on a ranked unit-rate gain
# ---------------------------------------------------------------------------

def _k1_term(s: float, a: float, delta: int) -> float:
    """e^(-s) 2 sqrt(a/delta) K1(2 sqrt(a delta)) at a = c r/Pt: the integral
    int_lo^inf e^(-delta t - shift - a/(t - lo)) dt of the gate (lo, inf,
    shift) against e^(-delta t), with s = delta lo + shift.  At a = 0 (Pt =
    inf) it is the limit e^(-s)/delta, since 2 sqrt(a/delta) K1(2 sqrt(a
    delta)) -> 1/delta."""
    if a == 0.0:
        return math.exp(-s) / delta
    return math.exp(-s) * 2.0 * math.sqrt(a / delta) * bessel_k1(2.0 * math.sqrt(a * delta))


def _one_gate(r: float, cr_over_pt: float, law: RankedLaw, uplink: bool) -> float:
    """EBS outage (uplink False) or IBS outage (uplink True) for a ranked
    unit-rate gain t with the given law.  A downlink t fails when the uplink
    falls below r + cr_over_pt/t: gate (0, inf, r).  An uplink t fails
    outright below r and above it when the downlink falls below
    cr_over_pt/(t - r): gate (r, inf, 0).  The linear harvester has r = 0,
    where the two are one.

    For a finite order statistic of M <= MAX_SUM_DEVICES = 10 and c r/Pt >
    0, the closed form 1 - k C(M,k) sum_m (-1)^m C(M-k, m) _k1_term(k + m),
    under a cancellation monitor; otherwise, or when the monitor trips, the
    gated integral.  At M = 5 the sum takes about 7 us against 52 us for a
    lone integral; past M = 10 it loses digits the monitor does not see
    (3.3e-8 at M = 20).  The leading 1 is part of the monitored total, so
    losing the answer to the final subtraction trips the fallback too, not
    just losing it inside the alternating sum.
    """
    if law.order is not None and law.order[0] <= MAX_SUM_DEVICES and cr_over_pt != 0.0:
        M, k = law.order
        prefactor = k * math.comb(M, k)
        terms = [1.0]
        for m in range(M - k + 1):
            delta = k + m
            s = delta * r if uplink else r  # delta lo + shift of the gate below
            t = prefactor * math.comb(M - k, m) * _k1_term(s, cr_over_pt, delta)
            terms.append(t if m % 2 else -t)
        total = math.fsum(terms)
        if abs(total) >= max(map(abs, terms)) * sys.float_info.epsilon / _CANCELLATION_LIMIT:
            return total
    gate = (r, math.inf, 0.0) if uplink else (0.0, math.inf, r)
    return _gated_integral(law, [gate], cr_over_pt)


@_evaluator(Method.ANALYTIC, SchemeSpec, Scheme.EBS)
def outage_ebs(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Outage of the device harvesting the k-th most energy."""
    law = order_stat_law(params.num_devices, spec.k, 1.0)
    return _one_gate(*_scales(x, params, spec.model), law, uplink=False)


@_evaluator(Method.ANALYTIC, SchemeSpec, Scheme.IBS)
def outage_ibs(x: float, spec: SchemeSpec, params: SystemParams) -> float:
    """Outage of the device with the k-th best uplink gain."""
    law = order_stat_law(params.num_devices, spec.k, 1.0)
    return _one_gate(*_scales(x, params, spec.model), law, uplink=True)


def ibs_phi_closed(x: float, params: SystemParams, delta: int) -> float:
    """Tail integral int_r^inf exp(-delta z - c r/(Pt (z - r))) dz in closed form."""
    r, cr_over_pt = _scales(x, params, EhModel.NON_LINEAR)
    return _k1_term(delta * r, cr_over_pt, delta)


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
    law = order_stat_law(params.num_devices, spec.k, 2.0)
    return _mms_integral(*_scales(x, params, spec.model), law)


# ---------------------------------------------------------------------------
# pair selection: k-th and j-th best transmit together, single-user detection
# ---------------------------------------------------------------------------

def pair_marginal_primary(
    x: float, k: int, j: int, M: int, params: SystemParams, model: EhModel
) -> float:
    """P(Y <= x (Z + 1)) for Y, Z the k-th and j-th largest parent SNRs, at
    0 < x < 1: the stronger member's SINR outage under single-user
    detection, with the weaker member as interference.  Given Z = z below
    z* = x/(1-x), fewer than k of the j-1 stronger devices exceed x (z+1).

    One kernel call over w = sqrt(z) in [0, sqrt(z*)], with the density f_Z
    = j C(M,j) F^(M-j) S^(j-1) f of the j-th largest summed in logs.  The
    parent survival reaches j/M near w = loc, where its log falls like
    rho w^2 + 2 sqrt(a) w, by one per width.  The panels are seeded about
    loc at that width and graded toward both ends: to 4^-8 widths at 0,
    where the density's log singularity at z = 0 leaves w log w when j = M,
    and to 4^-6 at the top, where the beta factor closes under a steep F^(M-j).
    The top is at most 40 widths past loc, where f_Z has fallen by about e^-40j.

    The linear harvester at Pt = inf has both scales 0.  Both members' SNRs
    grow with Pt, so the stronger member's SINR tends to Y'/Z' >= 1 > x, and
    the outage is 0, as on the single-device linear route.
    """
    rho, a = _scales(1.0, params, model)
    if rho == a == 0.0:
        return 0.0
    spread = math.log(max(M / j, 2.0))
    loc = spread / (math.sqrt(a) + math.sqrt(a + rho * spread))
    width = 0.5 / (math.sqrt(a) + rho * loc)
    hi = min(math.sqrt(x / (1.0 - x)), loc + 40.0 * width)
    cuts = [loc + step * width for step in _LAW_STEPS]
    cuts += [width * 4.0 ** i for i in range(-8, 2)]
    cuts += [hi - width * 4.0 ** i for i in range(-6, 2)]
    edges = [sorted({0.0, hi}.union(c for c in cuts if 0.0 < c < hi))]
    lc = math.log(2 * j) + math.log(math.comb(M, j))

    def f(w: np.ndarray, piece: np.ndarray) -> np.ndarray:
        z = w * w
        log_sf, log_pdf = _parent_logs(z, rho, a)
        log_fz = (lc + np.log(w) + log_pdf + (j - 1) * log_sf
                  + special._special.xlogy(M - j, -np.expm1(log_sf)))
        # 1 - S(x(z+1))/S(z) as expm1 of the log gap keeps its digits where
        # the ratio is near 1, and its betainc is accurate where betaincc at
        # the ratio is noise; the gap is < 0 but for rounding
        gap = np.minimum(_parent_logs(x * (z + 1.0), rho, a, density=False) - log_sf, 0.0)
        return np.exp(log_fz) * special._special.betainc(j - k, k, -np.expm1(gap))

    return integrate_panels(f, edges, _PAIR_QUADRATURE)[0]


@_evaluator(Method.ANALYTIC, PairSpec, Scheme.RS, Scheme.SBS)
def outage_pair(x: float, pair: PairSpec, params: SystemParams) -> float:
    """Outage of a two-device transmission under single-user detection."""
    # the stronger member failing implies the weaker one fails, so the pair's
    # outage is the primary marginal; a random pair is the best and second
    # best of two iid devices
    if pair.scheme is Scheme.RS:
        return pair_marginal_primary(x, 1, 2, 2, params, pair.model)
    return pair_marginal_primary(x, pair.k, pair.j, params.num_devices, params, pair.model)


# ---------------------------------------------------------------------------
# high-SNR floor: the exact outage at Pt = inf
# ---------------------------------------------------------------------------

_EXACT = {Scheme.RS: outage_rs, Scheme.SBS: outage_sbs, Scheme.EBS: outage_ebs,
          Scheme.IBS: outage_ibs, Scheme.MMS: outage_mms}


def outage_high_snr(x: float, spec: SchemeSpec | PairSpec, params: SystemParams) -> OutageEstimate:
    """Transmit-power-independent outage floor of any selection.  The
    nonlinear harvester saturates, so the floor is the exact outage at
    Pt = inf; the linear one never saturates and has none."""
    if type(spec) not in (SchemeSpec, PairSpec):
        raise ValueError(f"outage_high_snr cannot evaluate {spec!r}")
    if spec.model is not EhModel.NON_LINEAR:
        raise ValueError("the highsnr route is stated for the nonlinear harvester")
    exact = outage_pair if type(spec) is PairSpec else _EXACT[spec.scheme]
    floor = exact(x, spec, params.replace(transmit_power=math.inf))
    return OutageEstimate(floor.value, Method.HIGH_SNR)
