"""Checks for the exact outage evaluators.

Every closed form is cross-checked against an independent restatement:
direct quadrature of the defining integral, literal k = 1 expansions written
out with scipy Bessel calls, the binomial-tail identity for order-statistic
CDFs, and a conditional-on-the-minimum oracle for the min-link scheme.
Frozen constants were produced by those oracles at tighter tolerances than
asserted here.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k1 as scipy_k1
from scipy.special import k1e as scipy_k1e

from wpcn_select import analytic
from wpcn_select.analytic import (
    Method,
    OutageEstimate,
    PairSpec,
    Scheme,
    SchemeSpec,
    _finalize,
    _parent_logs,
    _scales,
    ibs_phi_closed,
    outage_ebs,
    outage_high_snr,
    outage_ibs,
    outage_mms,
    outage_pair,
    outage_rs,
    outage_sbs,
    parent_cdf,
    parent_log_sf,
    r_scale,
)
from wpcn_select.model import (
    EhModel,
    db_to_linear,
    dbm_to_watts,
    default_params,
    threshold_x,
)
from wpcn_select.special import (
    AccuracyError,
    DomainError,
    QuadratureSpec,
    integrate_panels,
    reg_inc_beta,
)

from oracles import ibs_phi_quadrature

X = 3.0  # threshold at the default operating point (Q = 0 dB, t1 = 0.5)
P = default_params()

# Q = -4 dB, Pt = -40 dBm, M = 10: the pair-selection operating point
P_PAIR = default_params(
    num_devices=10,
    transmit_power=dbm_to_watts(-40.0),
    rate_threshold_q=db_to_linear(-4.0),
)
X_PAIR = 0.7365384334381356

# (harvester, params) of each per-device parent law; the saturation law is
# the nonlinear harvester at Pt = inf, where S(x) = e^(-r)
PARENTS = {
    "Parent.NON_LINEAR": (EhModel.NON_LINEAR, P),
    "Parent.LINEAR": (EhModel.LINEAR, P),
    "Parent.SATURATION": (EhModel.NON_LINEAR, P.replace(transmit_power=math.inf)),
}


def _beta_scale(x, params):
    t1 = params.harvest_fraction
    return params.noise_variance * (1.0 - t1) * x / (params.transmit_power * t1)


def _ranked_density(t, M, k, rate):
    # k-th largest of M iid Exp(rate)
    if t <= 0.0:
        return 0.0
    lc = math.lgamma(M + 1) - math.lgamma(k) - math.lgamma(M - k + 1)
    return rate * math.exp(lc - rate * k * t) * (-math.expm1(-rate * t)) ** (M - k)


# ---------------------------------------------------------------------------
# scale constants and parent laws
# ---------------------------------------------------------------------------

def test_r_scale_frozen_and_power_independent():
    assert r_scale(X, P) == pytest.approx(6.203716221290918e-08, rel=1e-14)
    assert r_scale(X, P.replace(transmit_power=1.0)) == r_scale(X, P)


def test_parent_cdf_nonlinear_literal():
    r = r_scale(X, P)
    z = 2.0 * math.sqrt(P.rectenna.c * r / P.transmit_power)
    literal = 1.0 - math.exp(-r) * z * float(scipy_k1(z))
    assert parent_cdf(X, P, EhModel.NON_LINEAR) == pytest.approx(literal, rel=1e-12)


def test_parent_cdf_linear_literal():
    u = 2.0 * math.sqrt(_beta_scale(X, P))
    literal = 1.0 - u * float(scipy_k1(u))
    assert parent_cdf(X, P, EhModel.LINEAR) == pytest.approx(literal, rel=1e-12)


def test_parent_cdf_saturation_literal():
    r = r_scale(X, P)
    model, saturated = PARENTS["Parent.SATURATION"]
    assert parent_cdf(X, saturated, model) == pytest.approx(-math.expm1(-r), rel=1e-15)


def test_parent_cdf_edges():
    for model, params in PARENTS.values():
        assert parent_cdf(0.0, params, model) == 0.0
        assert parent_cdf(-1.0, params, model) == 0.0
        assert parent_cdf(math.inf, params, model) == 1.0


def test_parent_survival_keeps_far_tail():
    for model, params in PARENTS.values():
        sf = math.exp(parent_log_sf(X, params, model))
        assert sf == pytest.approx(1.0 - parent_cdf(X, params, model), rel=1e-12)
        assert parent_log_sf(0.0, params, model) == 0.0
        assert parent_log_sf(math.inf, params, model) == -math.inf
    # at x = 1e7 the survival is ~1e-35 (nonlinear) and ~1e-27 (linear):
    # 1 - F is 0 there, the direct survival matches a scaled-K1 restatement
    x = 1e7
    r = r_scale(x, P)
    z = 2.0 * math.sqrt(P.rectenna.c * r / P.transmit_power)
    u = 2.0 * math.sqrt(_beta_scale(x, P))
    literal = {
        EhModel.NON_LINEAR: -r + math.log(z * float(scipy_k1e(z))) - z,
        EhModel.LINEAR: math.log(u * float(scipy_k1e(u))) - u,
    }
    for model, want in literal.items():
        assert parent_cdf(x, P, model) == 1.0
        assert parent_log_sf(x, P, model) == pytest.approx(want, rel=1e-12)
    model, saturated = PARENTS["Parent.SATURATION"]
    assert parent_log_sf(x, saturated, model) == -r
    # the array-valued survival the pair quadratures use agrees, there and at X
    for model, params in PARENTS.values():
        for t in (X, x):
            log_sf, _ = _parent_logs(t, *_scales(1.0, params, model))
            assert float(log_sf) == pytest.approx(parent_log_sf(t, params, model), rel=1e-12)


@pytest.mark.parametrize("parent", list(PARENTS))
def test_parent_log_sf_alone_is_the_first_of_the_logs(parent):
    # the pair factors' survival-only call is the same arithmetic, bit for bit
    model, params = PARENTS[parent]
    rates = _scales(1.0, params, model)
    t = np.exp(np.random.default_rng(5).uniform(-20.0, 8.0, (40, 21)))
    assert np.array_equal(_parent_logs(t, *rates, density=False), _parent_logs(t, *rates)[0])


@pytest.mark.parametrize("parent", list(PARENTS))
@pytest.mark.parametrize("x", [1.0, 3.0])
def test_parent_pdf_integrates_to_cdf(parent, x):
    model, params = PARENTS[parent]
    rates = _scales(1.0, params, model)
    val, _ = quad(lambda t: math.exp(_parent_logs(t, *rates)[1]), 0.0, x, limit=300)
    assert val == pytest.approx(parent_cdf(x, params, model), rel=1e-9)


def test_parent_cdf_monotone():
    grid = [0.1 * i for i in range(1, 80)]
    for model in (EhModel.NON_LINEAR, EhModel.LINEAR):
        vals = [parent_cdf(x, P, model) for x in grid]
        assert all(lo < hi for lo, hi in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# RS and SBS
# ---------------------------------------------------------------------------

def test_rs_frozen():
    assert outage_rs(X, SchemeSpec(Scheme.RS), P).value == pytest.approx(
        0.0038044257130998463, rel=1e-12
    )
    linear = SchemeSpec(Scheme.RS, model=EhModel.LINEAR)
    assert outage_rs(X, linear, P).value == pytest.approx(
        0.0023876146275598753, rel=1e-12
    )
    assert outage_rs(0.0, SchemeSpec(Scheme.RS), P).value == 0.0


def test_rs_floor_frozen():
    est = outage_high_snr(X, SchemeSpec(Scheme.RS), P)
    assert est.method is Method.HIGH_SNR
    assert est.value == pytest.approx(6.203716028860447e-08, rel=1e-12)


@pytest.mark.parametrize("model", [EhModel.NON_LINEAR, EhModel.LINEAR])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_sbs_matches_binomial_tail(model, k):
    M = P.num_devices
    psi = parent_cdf(X, P, model)
    tail = sum(
        math.comb(M, i) * psi**i * (1.0 - psi) ** (M - i)
        for i in range(M - k + 1, M + 1)
    )
    got = outage_sbs(X, SchemeSpec(Scheme.SBS, k=k, model=model), P).value
    assert got == pytest.approx(tail, rel=1e-10)


def test_sbs_frozen():
    assert outage_sbs(X, SchemeSpec(Scheme.SBS, k=1), P).value == pytest.approx(
        7.969765471236178e-13, rel=1e-10
    )
    assert outage_sbs(X, SchemeSpec(Scheme.SBS, k=2), P).value == pytest.approx(
        1.044245540046734e-09, rel=1e-10
    )


def test_sbs_k1_is_parent_cdf_to_the_m():
    got = outage_sbs(X, SchemeSpec(Scheme.SBS, k=1), P).value
    assert got == pytest.approx(parent_cdf(X, P, EhModel.NON_LINEAR) ** 5, rel=1e-10)


@pytest.mark.parametrize("model", [EhModel.NON_LINEAR, EhModel.LINEAR])
def test_sbs_closure_recovers_rs(model):
    # averaging the k-th best outage over k = 1..M returns a uniformly
    # random device
    M = P.num_devices
    for x in (0.3, 1.0, 3.0, 7.0, 20.0):
        mean = math.fsum(
            outage_sbs(x, SchemeSpec(Scheme.SBS, k=k, model=model), P).value
            for k in range(1, M + 1)
        ) / M
        rs = outage_rs(x, SchemeSpec(Scheme.RS, model=model), P).value
        assert mean == pytest.approx(rs, abs=1e-9)


def test_sbs_floor_frozen():
    got = outage_high_snr(X, SchemeSpec(Scheme.SBS, k=2), P).value
    assert got == pytest.approx(7.405896237725776e-29, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# EBS
# ---------------------------------------------------------------------------

def test_ebs_k1_literal_sum_nonlinear():
    # 1 - e^-r M sum_m C(M-1,m) (-1)^m 2 sqrt(cr/(Pt d)) K1(2 sqrt(cr d / Pt)),
    # d = m + 1
    M = 5
    r = r_scale(X, P)
    cr = P.rectenna.c * r / P.transmit_power
    acc = 0.0
    for m in range(M):
        d = m + 1
        acc += (
            math.comb(M - 1, m)
            * (-1.0) ** m
            * 2.0
            * math.sqrt(cr / d)
            * float(scipy_k1(2.0 * math.sqrt(cr * d)))
        )
    literal = 1.0 - math.exp(-r) * M * acc
    got = outage_ebs(X, SchemeSpec(Scheme.EBS, k=1), P).value
    assert got == pytest.approx(literal, rel=1e-10)


def test_ebs_k1_literal_sum_linear():
    M = 5
    beta = _beta_scale(X, P)
    acc = 0.0
    for m in range(M):
        d = m + 1
        acc += (
            math.comb(M - 1, m)
            * (-1.0) ** m
            * 2.0
            * math.sqrt(beta / d)
            * float(scipy_k1(2.0 * math.sqrt(beta * d)))
        )
    literal = 1.0 - M * acc
    got = outage_ebs(X, SchemeSpec(Scheme.EBS, k=1, model=EhModel.LINEAR), P).value
    assert got == pytest.approx(literal, rel=1e-10)


def test_ebs_frozen():
    assert outage_ebs(X, SchemeSpec(Scheme.EBS, k=1), P).value == pytest.approx(
        0.00029888341187012113, rel=1e-11
    )
    assert outage_ebs(X, SchemeSpec(Scheme.EBS, k=2), P).value == pytest.approx(
        0.0005455118498542966, rel=1e-11
    )
    assert outage_ebs(
        X, SchemeSpec(Scheme.EBS, k=1, model=EhModel.LINEAR), P
    ).value == pytest.approx(0.00017496011345607965, rel=1e-11)


def test_ebs_matches_quadrature_oracle():
    # integrate the ranked-gain density against the conditional failure law
    M, k = 5, 2
    r = r_scale(X, P)
    cr = P.rectenna.c * r / P.transmit_power

    def f(y):
        return _ranked_density(y, M, k, 1.0) * -math.expm1(-r - cr / y)

    oracle, _ = quad(f, 0.0, 60.0, limit=400, epsabs=1e-16, epsrel=1e-12)
    got = outage_ebs(X, SchemeSpec(Scheme.EBS, k=k), P).value
    assert got == pytest.approx(oracle, rel=1e-9)


def test_ebs_deep_cancellation_point():
    # at -40 dBm the alternating sum loses ~9 digits; the evaluator must
    # hand off to the positive-form integral without a visible seam
    params = P.replace(transmit_power=1e-7)
    got = outage_ebs(X, SchemeSpec(Scheme.EBS, k=2), params).value
    assert got == pytest.approx(0.38813187961074164, rel=1e-9)

    r = r_scale(X, params)
    cr = params.rectenna.c * r / params.transmit_power

    def f(y):
        return _ranked_density(y, 5, 2, 1.0) * -math.expm1(-r - cr / y)

    oracle, _ = quad(f, 0.0, 80.0, limit=400, epsabs=1e-16, epsrel=1e-12)
    assert got == pytest.approx(oracle, rel=1e-9)


def test_ebs_large_population_integral_keeps_relative_digits():
    # M > 10 runs the integral; the oracle is a 40-digit mpmath quadrature
    # of the linear-harvester EBS integral.  The u = e^-t map was 2.4e-7 off
    params = default_params(
        transmit_power=dbm_to_watts(20.0), num_devices=500,
        rate_threshold_q=db_to_linear(-10.0),
    )
    spec = SchemeSpec(Scheme.EBS, k=1, model=EhModel.LINEAR)
    got = outage_ebs(threshold_x(params), spec, params).value
    assert got == pytest.approx(2.260159406029079e-09, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("M", [11, 20, 60])
def test_ebs_ibs_keep_ten_digits_above_the_sum_cap(monkeypatch, M):
    # fig5's points at -40 dBm against the same integral at relative 1e-13
    # and absolute 1e-300 with no K1 sum; a K1 sum at M = 20 is up to 3.3e-8
    # off here, inside its cancellation monitor's limit
    params = default_params(num_devices=M, transmit_power=dbm_to_watts(-40.0))
    schemes = ((Scheme.EBS, outage_ebs), (Scheme.IBS, outage_ibs))
    points = [(f, x, SchemeSpec(s, k=k))
              for s, f in schemes for k in (1, 2) for x in np.geomspace(0.1, 3.0, 30)]
    got = [f(x, spec, params).value for f, x, spec in points]
    tight = functools.partial(integrate_panels, spec=QuadratureSpec(1e-13, 1e-300, 20_000))
    monkeypatch.setattr(analytic, "integrate_panels", tight)
    monkeypatch.setattr(analytic, "MAX_SUM_DEVICES", 0)
    for value, (f, x, spec) in zip(got, points):
        assert value == pytest.approx(f(x, spec, params).value, rel=1e-10, abs=0.0), (spec, x)


def test_ebs_floor_is_rs_floor_exactly():
    assert (
        outage_high_snr(X, SchemeSpec(Scheme.EBS), P).value
        == outage_high_snr(X, SchemeSpec(Scheme.RS), P).value
    )


# ---------------------------------------------------------------------------
# IBS
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [1, 3, 7])
def test_ibs_phi_dual_routes(delta):
    closed = ibs_phi_closed(X, P, delta)
    direct = ibs_phi_quadrature(X, P, delta)
    assert closed == pytest.approx(direct, rel=1e-8)


def test_ibs_phi_dual_routes_low_power():
    params = P.replace(transmit_power=1e-7)
    for delta in (1, 2, 5):
        assert ibs_phi_closed(X, params, delta) == pytest.approx(
            ibs_phi_quadrature(X, params, delta), rel=1e-8
        )


def test_ibs_phi_at_infinite_power_is_the_exact_limit():
    # c r/Pt = 0: 2 sqrt(a/delta) K1(2 sqrt(a delta)) -> 1/delta as a -> 0
    params = P.replace(transmit_power=math.inf)
    for x, delta in itertools.product((1e-6, 0.3, X, 300.0), (1, 2, 5, 20)):
        r, cr_over_pt = _scales(x, params, EhModel.NON_LINEAR)
        assert cr_over_pt == 0.0
        assert ibs_phi_closed(x, params, delta) == math.exp(-delta * r) / delta


def test_ibs_phi_is_continuous_into_infinite_power():
    near = ibs_phi_closed(X, P.replace(transmit_power=1e200), 2)
    limit = ibs_phi_closed(X, P.replace(transmit_power=math.inf), 2)
    assert limit == 0.49999993796284165
    assert near == pytest.approx(limit, rel=2e-16, abs=0)


def test_ibs_k1_matches_quadrature_oracle():
    # ranked uplink below r fails outright; above r the downlink gate fails
    # with probability 1 - e^(-cr/(Pt (z - r)))
    M = 5
    r = r_scale(X, P)
    cr = P.rectenna.c * r / P.transmit_power

    def f(z):
        return _ranked_density(z, M, 1, 1.0) * -math.expm1(-cr / (z - r))

    tail, _ = quad(f, r, 60.0, limit=400, epsabs=1e-16, epsrel=1e-12)
    oracle = (-math.expm1(-r)) ** M + tail
    got = outage_ibs(X, SchemeSpec(Scheme.IBS, k=1), P).value
    assert got == pytest.approx(oracle, rel=1e-9)


def test_ibs_frozen():
    assert outage_ibs(X, SchemeSpec(Scheme.IBS, k=1), P).value == pytest.approx(
        0.0002988214085464236, rel=1e-11
    )
    assert outage_ibs(X, SchemeSpec(Scheme.IBS, k=2), P).value == pytest.approx(
        0.0005454499018320291, rel=1e-11
    )


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("pt_dbm", [-20.0, -10.0, 0.0])
def test_ibs_linear_equals_ebs_linear(k, pt_dbm):
    params = P.replace(transmit_power=dbm_to_watts(pt_dbm))
    a = outage_ibs(X, SchemeSpec(Scheme.IBS, k=k, model=EhModel.LINEAR), params).value
    b = outage_ebs(X, SchemeSpec(Scheme.EBS, k=k, model=EhModel.LINEAR), params).value
    # r = 0 makes the uplink gate (r, inf, 0) the downlink one (0, inf, r)
    assert a == b


def test_ibs_floor_equals_sbs_floor():
    a = outage_high_snr(X, SchemeSpec(Scheme.IBS, k=2), P).value
    b = outage_high_snr(X, SchemeSpec(Scheme.SBS, k=2), P).value
    assert a == pytest.approx(7.405896237725776e-29, rel=1e-10, abs=0.0)
    assert a == b


@pytest.mark.parametrize("M", [5, 60, 61, 1000])
def test_floors_are_the_saturated_closed_forms(M):
    # at Pt = inf the parent survival is e^(-r) and the EBS and IBS gates are
    # constant, so every floor but MMS is a closed form, bit for bit, on
    # both sides of the M = 10 sum/integral cutoff
    for pt_dbm, q_db, t1 in itertools.product((-40.0, 20.0), (-10.0, 0.0, 10.0), (0.2, 0.8)):
        params = default_params(
            num_devices=M, transmit_power=dbm_to_watts(pt_dbm),
            rate_threshold_q=db_to_linear(q_db), harvest_fraction=t1,
        )
        x = threshold_x(params)
        psi = -math.expm1(-r_scale(x, params))
        for k in (1, 2, 4):
            floor = {s: outage_high_snr(x, SchemeSpec(s, k=k), params).value for s in Scheme}
            assert floor[Scheme.RS] == floor[Scheme.EBS] == psi
            assert floor[Scheme.SBS] == floor[Scheme.IBS] == reg_inc_beta(psi, M - k + 1, k)


def test_ibs_monotone_approach_to_floor():
    floor = outage_high_snr(X, SchemeSpec(Scheme.IBS, k=2), P).value
    expected = {
        20.0: 5.456783216395422e-07,
        40.0: 5.456785396088021e-09,
        60.0: 5.45678541873706e-11,
        80.0: 5.456785418963551e-13,
    }
    prev = math.inf
    for pt_dbm, frozen in expected.items():
        params = P.replace(transmit_power=dbm_to_watts(pt_dbm))
        got = outage_ibs(X, SchemeSpec(Scheme.IBS, k=2), params).value
        assert got == pytest.approx(frozen, rel=1e-8)
        assert floor < got < prev
        prev = got


# ---------------------------------------------------------------------------
# MMS
# ---------------------------------------------------------------------------

def _mms_conditional_oracle(x, k, M, params, model):
    """Quadrature over the ranked minimum; the other gain is min + Exp(1).

    Independent of the region-splitting derivation inside the module: uses
    the memorylessness of the gap above the minimum and a fair coin for
    which link attains it.
    """
    if model is EhModel.LINEAR:
        beta = _beta_scale(x, params)
        s = math.sqrt(beta)

        def fail(t):
            if t * t >= beta:
                return 0.0
            return -math.expm1(t - beta / t)

        points = [0.5 * s, s]
        hi = max(10.0, 4.0 * s)
    else:
        r = r_scale(x, params)
        cpt = params.rectenna.c / params.transmit_power
        s = 0.5 * r + math.sqrt(0.25 * r * r + cpt * r)

        def fail(t):
            w = r + cpt * r / t
            pa = -math.expm1(t - w) if w > t else 0.0
            if t <= r:
                pb = 1.0
            else:
                v = cpt * r / (t - r)
                pb = -math.expm1(t - v) if v > t else 0.0
            return 0.5 * (pa + pb)

        points = [r, s, 2.0 * s]
        hi = max(10.0, 4.0 * s)

    val, _ = quad(
        lambda t: _ranked_density(t, M, k, 2.0) * fail(t),
        0.0, hi, points=points, limit=400, epsabs=1e-18, epsrel=1e-11,
    )
    return val


@pytest.mark.parametrize("k", [1, 2])
def test_mms_nonlinear_matches_conditional_oracle(k):
    oracle = _mms_conditional_oracle(X, k, 5, P, EhModel.NON_LINEAR)
    got = outage_mms(X, SchemeSpec(Scheme.MMS, k=k), P).value
    assert got == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("k", [1, 2])
def test_mms_linear_matches_conditional_oracle(k):
    oracle = _mms_conditional_oracle(X, k, 5, P, EhModel.LINEAR)
    got = outage_mms(X, SchemeSpec(Scheme.MMS, k=k, model=EhModel.LINEAR), P).value
    assert got == pytest.approx(oracle, rel=1e-6)


def test_mms_linear_matches_conditional_oracle_low_power():
    # beta = 0.3: the hyperbolic failure boundary carries more than half the
    # mass, a regime where boundary approximations are visibly wrong
    params = P.replace(transmit_power=1e-7)
    for k in (1, 2):
        oracle = _mms_conditional_oracle(X, k, 5, params, EhModel.LINEAR)
        got = outage_mms(X, SchemeSpec(Scheme.MMS, k=k, model=EhModel.LINEAR), params).value
        assert got == pytest.approx(oracle, rel=1e-6)


def test_mms_frozen():
    assert outage_mms(X, SchemeSpec(Scheme.MMS, k=1), P).value == pytest.approx(
        1.6182187803056602e-09, rel=1e-9
    )
    assert outage_mms(X, SchemeSpec(Scheme.MMS, k=2), P).value == pytest.approx(
        2.265626595637782e-07, rel=1e-9
    )
    assert outage_mms(
        X, SchemeSpec(Scheme.MMS, k=1, model=EhModel.LINEAR), P
    ).value == pytest.approx(3.326578592543086e-10, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("k, model, oracle", [
    (1, EhModel.NON_LINEAR, 1.6182187801725890e-09),
    (2, EhModel.NON_LINEAR, 2.2656265969471530e-07),
    (1, EhModel.LINEAR, 3.3265785925102538e-10),
])
def test_mms_matches_mpmath_oracle(k, model, oracle):
    # 40-digit mpmath quadratures of both MMS halves at the default point.
    # abs=0 keeps the check relative: approx's default abs=1e-12 alone
    # would pass any value within 5e-6 relative of 2.3e-7
    got = outage_mms(X, SchemeSpec(Scheme.MMS, k=k, model=model), P).value
    assert got == pytest.approx(oracle, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("model", [EhModel.NON_LINEAR, EhModel.LINEAR])
def test_mms_certain_outage_at_huge_threshold(model):
    # the failure gates close at s ~ sqrt(x), far beyond all of the ranked
    # law's mass; the integral must still find that mass
    params = default_params(num_devices=100)
    spec = SchemeSpec(Scheme.MMS, k=2, model=model)
    assert outage_mms(1e12, spec, params).value == pytest.approx(1.0, abs=1e-9)
    floor = outage_high_snr(1e12, SchemeSpec(Scheme.MMS, k=2), params).value
    assert floor == pytest.approx(1.0, abs=1e-9)


def test_mms_floor_frozen_and_below_value():
    floor = outage_high_snr(X, SchemeSpec(Scheme.MMS, k=2), P).value
    assert floor == pytest.approx(5.924716034731971e-28, rel=1e-10, abs=0.0)
    params = P.replace(transmit_power=dbm_to_watts(80.0))
    assert outage_mms(X, SchemeSpec(Scheme.MMS, k=2), params).value > floor


# ---------------------------------------------------------------------------
# structure shared by all evaluators
# ---------------------------------------------------------------------------

def _single_evaluators(model):
    return [
        lambda x, k: outage_sbs(x, SchemeSpec(Scheme.SBS, k=k, model=model), P).value,
        lambda x, k: outage_ebs(x, SchemeSpec(Scheme.EBS, k=k, model=model), P).value,
        lambda x, k: outage_ibs(x, SchemeSpec(Scheme.IBS, k=k, model=model), P).value,
        lambda x, k: outage_mms(x, SchemeSpec(Scheme.MMS, k=k, model=model), P).value,
    ]


@pytest.mark.parametrize("model", [EhModel.NON_LINEAR, EhModel.LINEAR])
def test_outage_monotone_in_threshold(model):
    for ev in _single_evaluators(model):
        vals = [ev(x, 2) for x in (0.5, 1.5, 3.0, 8.0)]
        assert all(lo < hi for lo, hi in zip(vals, vals[1:]))


@pytest.mark.parametrize("model", [EhModel.NON_LINEAR, EhModel.LINEAR])
def test_outage_monotone_in_order_index(model):
    # selecting a worse-ranked device can only hurt
    for ev in _single_evaluators(model):
        vals = [ev(X, k) for k in (1, 2, 3, 4, 5)]
        assert all(lo < hi for lo, hi in zip(vals, vals[1:]))


def test_scheme_ordering_at_default_point():
    k = 2
    sbs = outage_sbs(X, SchemeSpec(Scheme.SBS, k=k), P).value
    ebs = outage_ebs(X, SchemeSpec(Scheme.EBS, k=k), P).value
    ibs = outage_ibs(X, SchemeSpec(Scheme.IBS, k=k), P).value
    mms = outage_mms(X, SchemeSpec(Scheme.MMS, k=k), P).value
    rs = outage_rs(X, SchemeSpec(Scheme.RS), P).value
    assert sbs <= mms <= ibs <= rs
    assert sbs <= ebs <= rs
    # at k = M every ranking is the worst pick, but energy ranking no longer
    # sees the uplink at all, which now works in its favor
    k = P.num_devices
    assert (
        outage_ebs(X, SchemeSpec(Scheme.EBS, k=k), P).value
        <= outage_sbs(X, SchemeSpec(Scheme.SBS, k=k), P).value
    )


@pytest.mark.parametrize("model", [EhModel.NON_LINEAR, EhModel.LINEAR])
def test_single_device_reduces_to_rs(model):
    params = default_params(num_devices=1)
    rs = outage_rs(X, SchemeSpec(Scheme.RS, model=model), params).value
    for fn, scheme in (
        (outage_sbs, Scheme.SBS),
        (outage_ebs, Scheme.EBS),
        (outage_ibs, Scheme.IBS),
        (outage_mms, Scheme.MMS),
    ):
        got = fn(X, SchemeSpec(scheme, k=1, model=model), params).value
        assert got == pytest.approx(rs, rel=1e-9)


def test_zero_threshold_is_zero_everywhere():
    spec = SchemeSpec(Scheme.MMS, k=2)
    assert outage_mms(0.0, spec, P).value == 0.0
    assert outage_ebs(0.0, SchemeSpec(Scheme.EBS, k=2), P).value == 0.0
    assert outage_ibs(0.0, SchemeSpec(Scheme.IBS, k=2), P).value == 0.0
    assert outage_sbs(0.0, SchemeSpec(Scheme.SBS, k=2), P).value == 0.0


def test_infinite_threshold_is_certain_outage():
    assert outage_ebs(math.inf, SchemeSpec(Scheme.EBS, k=2), P).value == 1.0
    assert outage_ibs(math.inf, SchemeSpec(Scheme.IBS, k=2), P).value == 1.0
    assert outage_mms(math.inf, SchemeSpec(Scheme.MMS, k=2), P).value == 1.0
    assert outage_rs(math.inf, SchemeSpec(Scheme.RS), P).value == 1.0


# ---------------------------------------------------------------------------
# pair selection
# ---------------------------------------------------------------------------

def test_pair_frozen_values():
    got = outage_pair(X_PAIR, PairSpec(Scheme.SBS, 1, 3), P_PAIR)
    assert got.value == pytest.approx(0.00023501526047497304, rel=1e-8)
    got = outage_pair(X_PAIR, PairSpec(Scheme.SBS, 2, 5), P_PAIR)
    assert got.value == pytest.approx(0.0011205004527402086, rel=1e-8)
    got = outage_pair(X_PAIR, PairSpec(Scheme.SBS, 1, 3, model=EhModel.LINEAR), P_PAIR)
    assert got.value == pytest.approx(1.6606152042638465e-05, rel=1e-8, abs=0.0)
    got = outage_pair(X_PAIR, PairSpec(Scheme.RS, 1, 2), P_PAIR)
    assert got.value == pytest.approx(0.1207004453993607, rel=1e-8)


def test_pair_high_snr_floor():
    est = outage_high_snr(X_PAIR, PairSpec(Scheme.SBS, 1, 3), P_PAIR)
    assert est.method is Method.HIGH_SNR
    assert est.value == pytest.approx(2.8941600632933987e-74, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("spec", ["SBS", None, Scheme.SBS], ids=repr)
def test_high_snr_floor_refuses_a_non_spec(spec):
    # like every evaluator, a ValueError rather than an AttributeError
    with pytest.raises(ValueError, match="cannot evaluate"):
        outage_high_snr(X, spec, P)


def test_pair_monotone_in_threshold():
    pair = PairSpec(Scheme.SBS, 1, 3)
    vals = [
        outage_pair(x, pair, P_PAIR).value
        for x in (0.2, 0.45, X_PAIR)
    ]
    assert all(lo < hi for lo, hi in zip(vals, vals[1:]))


def test_pair_zero_threshold():
    pair = PairSpec(Scheme.SBS, 1, 3)
    assert outage_pair(0.0, pair, P_PAIR).value == 0.0


def test_pair_threshold_domain():
    # the SINR change of variables diverges at x = 1
    pair = PairSpec(Scheme.SBS, 1, 3)
    for bad in (1.0, 1.5):
        with pytest.raises(DomainError):
            outage_pair(bad, pair, P_PAIR)


def test_pair_order_index_bounds():
    with pytest.raises(ValueError):
        outage_pair(0.5, PairSpec(Scheme.SBS, 1, 11), P_PAIR)


def test_pair_is_above_sbs_and_nonincreasing_in_j():
    # the weaker member's interference only adds to the stronger member's
    # outage, and a weaker member further down the ranking interferes less:
    # 888 values over powers, both harvesters, M, k and every j > k
    slack = 1e-12
    for pt_dbm, model, M in itertools.product((-40.0, -20.0, 0.0, 20.0), EhModel, (10, 20, 30)):
        params = P_PAIR.replace(num_devices=M, transmit_power=dbm_to_watts(pt_dbm))
        for k in (1, 2):
            sbs = outage_sbs(X_PAIR, SchemeSpec(Scheme.SBS, k=k, model=model), params).value
            pair = [outage_pair(X_PAIR, PairSpec(Scheme.SBS, k, j, model=model), params).value
                    for j in range(k + 1, M + 1)]
            where = f"{pt_dbm} dBm {model.value} M={M} k={k}: {pair}"
            assert all(v >= sbs * (1.0 - slack) for v in pair), f"{where} vs SBS {sbs!r}"
            assert all(b <= a * (1.0 + slack) for a, b in zip(pair, pair[1:])), where


@pytest.mark.parametrize("x", [0.02, 0.5, 0.99])
@pytest.mark.parametrize("pair", [(Scheme.SBS, 1, 3), (Scheme.SBS, 2, 5), (Scheme.RS, 1, 2)],
                         ids=lambda p: f"{p[0].value}-{p[1]}-{p[2]}")
def test_linear_pair_at_infinite_power_is_no_outage(pair, x):
    # both members' SNRs scale with Pt, so the stronger member's SINR tends to
    # Y'/Z' >= 1 > x; the single-device linear route is 0 there as well
    params = P_PAIR.replace(transmit_power=math.inf)
    spec = PairSpec(*pair, model=EhModel.LINEAR)
    assert outage_pair(x, spec, params).value == 0.0
    sbs = SchemeSpec(Scheme.SBS, k=pair[1], model=EhModel.LINEAR)
    assert outage_sbs(x, sbs, params).value == 0.0


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------

def test_scheme_spec_validation():
    with pytest.raises(ValueError):
        SchemeSpec(Scheme.SBS, k=0)
    with pytest.raises(ValueError):
        SchemeSpec(Scheme.SBS, k=1.5)
    with pytest.raises(ValueError):
        SchemeSpec(Scheme.SBS, k=True)  # a bool is an int, but no order index


def test_pair_spec_validation():
    with pytest.raises(ValueError):
        PairSpec(Scheme.EBS, 1, 2)  # pair ranking is RS/SBS only
    with pytest.raises(ValueError):
        PairSpec(Scheme.SBS, 2, 2)
    with pytest.raises(ValueError):
        PairSpec(Scheme.SBS, 3, 1)
    with pytest.raises(ValueError):
        PairSpec(Scheme.SBS, True, 2)  # a bool is an int, but no order index


def test_outage_estimate_validation():
    with pytest.raises(ValueError):
        OutageEstimate(1.2, Method.ANALYTIC)
    with pytest.raises(ValueError):
        OutageEstimate(0.5, Method.ANALYTIC, stderr=0.01)
    with pytest.raises(ValueError):
        OutageEstimate(0.5, Method.MONTE_CARLO)  # MC must carry stderr
    with pytest.raises(ValueError):
        OutageEstimate(0.5, Method.MONTE_CARLO, stderr=-0.01)


def test_finalize_raises_beyond_float_noise():
    # a formula bug must fail loudly, also under python -O
    for bad in (1.5, -1e-6):
        with pytest.raises(AccuracyError) as info:
            _finalize(bad, Method.ANALYTIC)
        assert info.value.estimate == bad
    assert _finalize(1.0 + 1e-12, Method.ANALYTIC).value == 1.0


def test_evaluator_spec_mismatch():
    with pytest.raises(ValueError):
        outage_sbs(X, SchemeSpec(Scheme.EBS, k=1), P)
    with pytest.raises(ValueError):
        outage_ebs(X, SchemeSpec(Scheme.EBS, k=6), P)  # k > M
