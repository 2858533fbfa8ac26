"""Checks for the large-population asymptotics.

The ranked-extreme CDF is verified against its defining sum and recurrence;
normalizing constants against their defining quantile equations; the
energy-ranking limit against an alternating-series restatement that is
only usable at toy population sizes.  Deep convergence sweeps live in the
acceptance suite; here each evaluator gets one mid-size convergence point.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from wpcn_select.analytic import (
    Method,
    PairSpec,
    Scheme,
    SchemeSpec,
    Parent,
    order_stat_law,
    outage_ebs,
    outage_ibs,
    outage_mms,
    outage_pair,
    outage_sbs,
    pair_marginal_primary,
    pair_marginal_secondary,
    parent_cdf,
    r_scale,
)
from wpcn_select.evt import (
    NormalizingConstants,
    gumbel_kth_cdf,
    gumbel_law,
    normalizing_constants,
    outage_evt_ebs,
    outage_evt_ibs,
    outage_evt_mms,
    outage_evt_pair,
    outage_evt_sbs,
)
from wpcn_select.experiments import evaluate_point
from wpcn_select.model import EhModel, db_to_linear, dbm_to_watts, default_params
from wpcn_select.special import AccuracyError, DomainError, bessel_k1

from oracles import gumbel_logpdf, order_stat_logpdf

# asymptotics are exercised in the low-power regime where the outage is
# far from its floor
P40 = default_params(transmit_power=dbm_to_watts(-40.0))

P_PAIR = default_params(
    num_devices=10,
    transmit_power=dbm_to_watts(-40.0),
    rate_threshold_q=db_to_linear(-4.0),
)
X_PAIR = 0.7365384334381356


# ---------------------------------------------------------------------------
# ranked Gumbel CDF
# ---------------------------------------------------------------------------

def test_gumbel_frozen_values():
    assert gumbel_kth_cdf(0.0, 1) == pytest.approx(0.36787944117144233, rel=1e-14)
    assert gumbel_kth_cdf(0.0, 2) == pytest.approx(0.7357588823428847, rel=1e-14)


def test_gumbel_matches_direct_sum():
    for z in (-2.0, -0.5, 0.0, 1.0, 4.0):
        for k in (1, 2, 5):
            direct = math.exp(-math.exp(-z)) * sum(
                math.exp(-j * z) / math.factorial(j) for j in range(k)
            )
            assert gumbel_kth_cdf(z, k) == pytest.approx(direct, rel=1e-12)


def test_gumbel_recurrence():
    # G_(k+1)(z) = G_k(z) + e^(-e^-z) e^(-kz) / k!
    for z in (-1.0, 0.3, 2.0):
        for k in (1, 2, 3):
            step = math.exp(-math.exp(-z)) * math.exp(-k * z) / math.factorial(k)
            assert gumbel_kth_cdf(z, k + 1) == pytest.approx(
                gumbel_kth_cdf(z, k) + step, rel=1e-12
            )


def test_gumbel_limits_and_monotonicity():
    assert gumbel_kth_cdf(-800.0, 1) == 0.0
    assert gumbel_kth_cdf(math.inf, 3) == 1.0
    grid = [-3.0 + 0.25 * i for i in range(40)]
    vals = [gumbel_kth_cdf(z, 2) for z in grid]
    assert all(lo <= hi for lo, hi in zip(vals, vals[1:]))
    # worse rank dominates pointwise
    assert gumbel_kth_cdf(0.7, 3) > gumbel_kth_cdf(0.7, 2) > gumbel_kth_cdf(0.7, 1)


def test_gumbel_domain():
    with pytest.raises(DomainError):
        gumbel_kth_cdf(0.0, 0)
    with pytest.raises(DomainError):
        gumbel_kth_cdf(0.0, 1.5)


# ---------------------------------------------------------------------------
# normalizing constants
# ---------------------------------------------------------------------------

def test_constants_closed_forms():
    c = normalizing_constants(Scheme.EBS, 50, P40)
    assert c.eta == pytest.approx(math.log(50.0), rel=1e-15)
    assert c.xi == 1.0
    assert normalizing_constants(Scheme.IBS, 50, P40) == NormalizingConstants(
        math.log(50.0), 1.0, Scheme.IBS
    )
    c = normalizing_constants(Scheme.MMS, 50, P40)
    assert c.eta == pytest.approx(0.5 * math.log(50.0), rel=1e-15)
    assert c.xi == 0.5


@pytest.mark.parametrize("M", [10, 50, 200])
def test_constants_sbs_satisfy_defining_quantiles(M):
    c = normalizing_constants(Scheme.SBS, M, P40)
    assert c.xi > 0.0
    assert parent_cdf(c.eta, P40, Parent.NON_LINEAR) == pytest.approx(
        1.0 - 1.0 / M, abs=1e-12
    )
    assert parent_cdf(c.eta + c.xi, P40, Parent.NON_LINEAR) == pytest.approx(
        1.0 - 1.0 / (math.e * M), abs=1e-12
    )


def test_constants_domain():
    with pytest.raises(DomainError):
        normalizing_constants(Scheme.EBS, 1, P40)
    with pytest.raises(ValueError):
        normalizing_constants(Scheme.RS, 50, P40)


# ---------------------------------------------------------------------------
# ranked laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("law_of", [order_stat_law, gumbel_law])
@pytest.mark.parametrize("M, k, rate", [(20, 2, 1.0), (5, 1, 2.0), (200, 1, 1.0)])
@pytest.mark.parametrize("lo", [0.0, 0.7])
def test_ranked_law_cdf_and_density_agree(law_of, M, k, rate, lo):
    # the mass below lo plus the density integrated up to where the ranked
    # integrals stop is the whole law; Gumbel keeps Q(k, M) below 0
    law = law_of(M, k, rate)
    points = [law.peak] if law.peak > lo else None
    mass, _ = quad(lambda t: math.exp(law.logpdf(t)), lo, law.peak + 40.0,
                   points=points, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert law.cdf(lo) + mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("law_of, scalar", [(order_stat_law, order_stat_logpdf),
                                            (gumbel_law, gumbel_logpdf)])
@pytest.mark.parametrize("M, k, rate", [(20, 2, 1.0), (5, 1, 2.0), (200, 1, 1.0), (5, 5, 2.0)])
def test_ranked_law_logpdf_is_the_scalar_formula(law_of, scalar, M, k, rate):
    # one array call equals the pointwise formula, -inf at t <= 0 included;
    # numpy's exp and log may round differently from math's in the last ulp
    t = np.array([[-3.0, -0.5, 0.0, 1e-3, 0.1], [0.7, 1.0, 5.0, 30.0, 200.0]])
    got = law_of(M, k, rate).logpdf(t)
    want = np.array([[scalar(float(v), M, k, rate) for v in row] for row in t])
    assert got.shape == t.shape
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.all(np.isfinite(got[finite]))
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13)


# ---------------------------------------------------------------------------
# asymptotic evaluators
# ---------------------------------------------------------------------------

def _series_check_ebs(x, k, M, params, num_terms=60):
    """Alternating-series expansion of the EBS limit.

    Terms grow like M^n/n! before decaying, so this is only trustworthy for
    toy populations (M <= 5); it restates the integral form independently.
    """
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


@pytest.mark.parametrize("M", [2, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_ebs_limit_matches_series_restatement(M, k):
    params = P40.replace(num_devices=M)
    series = _series_check_ebs(3.0, k, M, params)
    integral = outage_evt_ebs(3.0, SchemeSpec(Scheme.EBS, k=k), params).value
    assert integral == pytest.approx(series, rel=1e-8)


def test_ebs_limit_keeps_relative_digits_deep_in_the_tail():
    # 40-digit mpmath quadrature of Q(1, M) + int_0^inf f(t) (1 - e^(-r - cr/(Pt t))) dt;
    # the 1 - e^(-r) int form lost 2e-5 relative here to cancellation
    params = default_params(transmit_power=dbm_to_watts(10.0), num_devices=100)
    got = outage_evt_ebs(1e-3, SchemeSpec(Scheme.EBS), params).value
    assert got == pytest.approx(3.6892661841601692e-10, rel=1e-8)


def test_mms_limit_is_one_at_certain_outage():
    # t1 = 0.9795 leaves t2 = 0.0205, so x is about 2^48.8: no device can
    # carry it.  The Gumbel law's mass Q(k, M) below 0 is outage too
    params = default_params(num_devices=5, harvest_fraction=0.9795)
    est = evaluate_point(SchemeSpec(Scheme.MMS, k=1), params, Method.EVT)
    assert est.value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("fn, scheme, M, k, x, oracle", [
    (outage_ebs, Scheme.EBS, 200, 1, 0.5808021765376579, 1.7450289301834143e-02),
    (outage_ibs, Scheme.IBS, 200, 2, 0.5808021765376579, 2.0640015888448469e-02),
    (outage_mms, Scheme.MMS, 10, 2, 0.5808021765376579, 5.7162868276672611e-04),
    (outage_evt_ebs, Scheme.EBS, 20, 2, 1.668957111127365, 1.1443065851561866e-01),
    (outage_evt_ibs, Scheme.IBS, 20, 2, 1.668957111127365, 1.1443062968818407e-01),
    (outage_evt_mms, Scheme.MMS, 20, 1, 0.20212093289983746, 8.6102809278932771e-08),
    (outage_evt_mms, Scheme.MMS, 20, 2, 0.17975297148130592, 1.0535361032031219e-06),
])
def test_fig5_points_match_mpmath_oracle(fn, scheme, M, k, x, oracle):
    # fig5 grid points (-40 dBm, x from geomspace(0.1, 3, 30)) against
    # 40-digit mpmath quadratures of the same integrals to infinity, in
    # relative terms only
    got = fn(x, SchemeSpec(scheme, k=k), P40.replace(num_devices=M)).value
    assert got == pytest.approx(oracle, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("fn, body", [
    (outage_evt_ebs, "_ebs_integral"),
    (outage_evt_ibs, "_ibs_integral"),
    (outage_evt_mms, "_mms_integral"),
])
def test_evt_overshoot_raises(monkeypatch, fn, body):
    # every limit is a probability under a proper law: no clamp hides a bug
    import wpcn_select.evt as evt

    monkeypatch.setattr(evt, body, lambda *a: 1.01)
    scheme = {outage_evt_ebs: Scheme.EBS, outage_evt_ibs: Scheme.IBS, outage_evt_mms: Scheme.MMS}
    with pytest.raises(AccuracyError):
        fn(1.0, SchemeSpec(scheme[fn]), P40.replace(num_devices=20))


def test_evt_values_stay_clamped():
    # every limit is a probability under its law, and no clamp makes it one
    for x in (1e-3, 0.5, 10.0, 100.0, 1000.0):
        for scheme, fn in ((Scheme.SBS, outage_evt_sbs), (Scheme.EBS, outage_evt_ebs),
                           (Scheme.IBS, outage_evt_ibs), (Scheme.MMS, outage_evt_mms)):
            v = fn(x, SchemeSpec(scheme), P40.replace(num_devices=2)).value
            assert 0.0 <= v <= 1.0


def test_evt_zero_threshold():
    p20 = P40.replace(num_devices=20)
    assert outage_evt_ibs(0.0, SchemeSpec(Scheme.IBS), p20).value == 0.0
    assert outage_evt_mms(0.0, SchemeSpec(Scheme.MMS), p20).value == 0.0
    # the limit laws keep mass Q(k, M) below a zero gain; a zero threshold is
    # still no outage, on every ranked route alike
    assert outage_evt_ebs(0.0, SchemeSpec(Scheme.EBS), p20).value <= 1e-6
    # the Gumbel law of the SBS limit has mass below zero too, and it is no outage
    assert outage_evt_sbs(0.0, SchemeSpec(Scheme.SBS), p20).value == 0.0
    zero_q = P40.replace(num_devices=10, rate_threshold_q=0.0)
    assert evaluate_point(SchemeSpec(Scheme.SBS), zero_q, Method.EVT).value == 0.0


def test_evt_infinite_threshold():
    p20 = P40.replace(num_devices=20)
    assert outage_evt_ibs(math.inf, SchemeSpec(Scheme.IBS), p20).value == 1.0
    assert outage_evt_mms(math.inf, SchemeSpec(Scheme.MMS), p20).value == 1.0
    assert outage_evt_sbs(math.inf, SchemeSpec(Scheme.SBS), p20).value == 1.0


def test_ebs_limit_single_convergence_point():
    M = 200
    params = P40.replace(num_devices=M)
    exact = outage_ebs(1.0, SchemeSpec(Scheme.EBS, k=1), params).value
    limit = outage_evt_ebs(1.0, SchemeSpec(Scheme.EBS, k=1), params).value
    assert exact == pytest.approx(0.029848180684150127, rel=1e-9)
    assert abs(limit - exact) < 1e-4


def test_ibs_limit_tracks_exact_ibs():
    from wpcn_select.analytic import outage_ibs

    M = 200
    params = P40.replace(num_devices=M)
    exact = outage_ibs(1.0, SchemeSpec(Scheme.IBS, k=1), params).value
    limit = outage_evt_ibs(1.0, SchemeSpec(Scheme.IBS, k=1), params).value
    assert abs(limit - exact) < 1e-4


def test_sbs_limit_single_convergence_point():
    M = 200
    params = P40.replace(num_devices=M)
    consts = normalizing_constants(Scheme.SBS, M, params)
    x = consts.eta  # center of the limiting law, outage ~ 1/e
    exact = outage_sbs(x, SchemeSpec(Scheme.SBS, k=1), params).value
    limit = outage_evt_sbs(x, SchemeSpec(Scheme.SBS, k=1), params).value
    assert abs(limit - exact) < 5e-3


def test_mms_limit_tracks_exact_in_low_threshold_regime():
    M = 50
    params = P40.replace(num_devices=M)
    sup_gap = 0.0
    for i in range(10):
        x = 0.1 * (3.0 / 0.1) ** (i / 9.0)
        exact = outage_mms(x, SchemeSpec(Scheme.MMS, k=1), params).value
        limit = outage_evt_mms(x, SchemeSpec(Scheme.MMS, k=1), params).value
        sup_gap = max(sup_gap, abs(limit - exact))
    assert sup_gap < 1e-5


@pytest.mark.parametrize("M", [50, 200])
def test_mms_limit_tracks_exact_at_high_thresholds(M):
    params = P40.replace(num_devices=M)
    for x in (30.0, 100.0, 300.0):
        exact = outage_mms(x, SchemeSpec(Scheme.MMS, k=1), params).value
        limit = outage_evt_mms(x, SchemeSpec(Scheme.MMS, k=1), params).value
        assert abs(limit - exact) < 1e-2, f"x={x}: exact {exact!r}, limit {limit!r}"


def test_mms_limit_keeps_deep_tail_mass():
    # ~2e-17: the ranked mass below r must stay a nonnegative probability,
    # not a cancelled sum that the clamp turns into 0
    spec = SchemeSpec(Scheme.MMS, k=2)
    assert outage_evt_mms(0.1, spec, P40.replace(num_devices=50)).value > 0.0


def test_mms_limit_in_unit_interval_before_clamping():
    # the fig5 grid, checked on the raw integral so the clamp hides nothing
    from wpcn_select.analytic import _mms_integral, _r_and_cr

    for M in (10, 20, 50, 100, 200, 500, 1000):
        for k in (1, 2):
            for i in range(30):
                r, cr_over_pt = _r_and_cr(0.1 * 30.0 ** (i / 29), P40)
                raw = _mms_integral(r, cr_over_pt, gumbel_law(M, k, 2.0))
                assert 0.0 <= raw <= 1.0, f"M={M} k={k} i={i}: {raw!r}"


# ---------------------------------------------------------------------------
# asymptotic pair law
# ---------------------------------------------------------------------------

def test_evt_pair_is_product_of_marginals():
    prod = outage_evt_pair(X_PAIR, PairSpec(Scheme.SBS, 1, 3), P_PAIR).value
    a = pair_marginal_primary(X_PAIR, 1, 3, 10, P_PAIR, Parent.NON_LINEAR)
    b = pair_marginal_secondary(X_PAIR, 1, 3, 10, P_PAIR, Parent.NON_LINEAR)
    assert prod == pytest.approx(a * b, rel=1e-12)
    assert prod == pytest.approx(0.00022656698639170796, rel=1e-8)


def test_evt_pair_never_exceeds_exact_joint():
    # the stronger SINR failing implies the weaker one fails, so the exact
    # joint equals the primary marginal and the product can only sit below it
    from wpcn_select.model import EhModel

    for M in (10, 30):
        params = P_PAIR.replace(num_devices=M)
        joint = outage_pair(X_PAIR, PairSpec(Scheme.SBS, 1, 3), params).value
        prod = outage_evt_pair(X_PAIR, PairSpec(Scheme.SBS, 1, 3), params).value
        assert prod <= joint
        assert prod == pytest.approx(joint, rel=0.15)


def test_evt_pair_frozen_large_population():
    params = P_PAIR.replace(num_devices=30)
    got = outage_evt_pair(X_PAIR, PairSpec(Scheme.SBS, 1, 3), params).value
    assert got == pytest.approx(8.5457771133614e-10, rel=1e-8)


def test_evt_pair_refuses_linear_harvester():
    # the pair limit is stated for the nonlinear harvester, as the ranked ones are
    linear = PairSpec(Scheme.SBS, 1, 3, model=EhModel.LINEAR)
    with pytest.raises(ValueError, match="nonlinear harvester"):
        evaluate_point(linear, P_PAIR, Method.EVT)
    with pytest.raises(ValueError, match="nonlinear harvester"):
        outage_evt_pair(X_PAIR, linear, P_PAIR)


def test_evt_pair_domain():
    with pytest.raises(ValueError):
        outage_evt_pair(X_PAIR, PairSpec(Scheme.RS, 1, 3), P_PAIR)
    with pytest.raises(DomainError):
        outage_evt_pair(1.1, PairSpec(Scheme.SBS, 1, 3), P_PAIR)
    with pytest.raises(ValueError):
        outage_evt_pair(X_PAIR, PairSpec(Scheme.SBS, 1, 12), P_PAIR)
    assert outage_evt_pair(0.0, PairSpec(Scheme.SBS, 1, 3), P_PAIR).value == 0.0


def test_evt_pair_overshoot_raises(monkeypatch):
    # the product of two probabilities cannot leave [0, 1]: no clamp hides it
    import wpcn_select.evt as evt

    monkeypatch.setattr(evt, "pair_marginal_primary", lambda *a: 1.01)
    monkeypatch.setattr(evt, "pair_marginal_secondary", lambda *a: 1.01)
    with pytest.raises(AccuracyError):
        outage_evt_pair(X_PAIR, PairSpec(Scheme.SBS, 1, 3), P_PAIR)


@pytest.mark.parametrize("pt_dbm", [-30.0, -20.0])
def test_evt_pair_converges_at_moderate_power(pt_dbm):
    # the secondary's tail falls like e^(-k a wy) with a = 0.26 and 0.08 here;
    # a unit-rate map of it was singular and quadpack gave up
    params = P_PAIR.replace(transmit_power=dbm_to_watts(pt_dbm))
    est = evaluate_point(PairSpec(Scheme.SBS, 1, 2), params, Method.EVT)
    assert 0.0 <= est.value <= 1.0


# ---------------------------------------------------------------------------
# pair marginals
# ---------------------------------------------------------------------------

def test_pair_marginals_stay_probabilities():
    # the fig4 grid plus one M = 100 point; the nested quadrature read
    # 1.0000112 at M=30 (2, 18) and 1.0119 at the M=100 point
    cases = [
        (X_PAIR, M, k, j) for M in (10, 20, 30) for k in (1, 2) for j in range(3, M + 1)
    ]
    cases.append((0.5, 100, 2, 50))
    for x, M, k, j in cases:
        params = P_PAIR.replace(num_devices=M)
        for marginal in (pair_marginal_primary, pair_marginal_secondary):
            v = marginal(x, k, j, M, params, Parent.NON_LINEAR)
            assert 0.0 <= v <= 1.0 + 1e-12, f"{marginal.__name__} M={M} ({k}, {j}): {v!r}"


# (marginal, Pt in dBm, M, k, j) -> value at X_PAIR, frozen from a 30-digit
# mpmath quadrature of the conditional forms.  A nested scipy quadrature at
# tolerances 1e-13/1e-19 inside 1e-12/1e-17 agrees within 2e-13 at -40 dBm,
# except at M=30 (2, 18), where it reads 0.99999999295
PAIR_ORACLE = [
    ("primary", -40.0, 10, 1, 3, 0.00023501526047497347),
    ("primary", -40.0, 10, 2, 5, 0.0011205004527401837),
    ("secondary", -40.0, 10, 1, 3, 0.96405223190199057),
    ("secondary", -40.0, 10, 2, 5, 0.99615842005078533),
    ("secondary", -40.0, 30, 1, 3, 0.87827806909186292),
    ("secondary", -40.0, 30, 2, 18, 0.99999999999999797),
    # quadpack gave up here (-30 dBm), or returned 1.07e-13 (-10 dBm)
    ("secondary", -30.0, 10, 1, 2, 0.68645145190272591),
    ("secondary", -10.0, 10, 1, 2, 0.67944056632044839),
]


@pytest.mark.parametrize("which, pt_dbm, M, k, j, want", PAIR_ORACLE)
def test_pair_marginals_match_tight_oracle(which, pt_dbm, M, k, j, want):
    marginal = pair_marginal_primary if which == "primary" else pair_marginal_secondary
    params = P_PAIR.replace(num_devices=M, transmit_power=dbm_to_watts(pt_dbm))
    got = marginal(X_PAIR, k, j, M, params, Parent.NON_LINEAR)
    assert got == pytest.approx(want, rel=1e-8)


def test_pair_secondary_is_stated_for_nonlinear_parent():
    for parent in (Parent.LINEAR, Parent.SATURATION):
        with pytest.raises(ValueError):
            pair_marginal_secondary(X_PAIR, 1, 3, 10, P_PAIR, parent)


def test_pair_marginals_are_one_quadrature_each(monkeypatch):
    import wpcn_select.special as special

    calls = []
    quad = special._integrate.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(special._integrate, "quad", counted)
    for marginal in (pair_marginal_primary, pair_marginal_secondary):
        calls.clear()
        marginal(X_PAIR, 2, 5, 10, P_PAIR, Parent.NON_LINEAR)
        assert len(calls) == 1, f"{marginal.__name__}: {calls}"
