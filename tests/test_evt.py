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
    order_stat_law,
    outage_ebs,
    outage_ibs,
    outage_mms,
    outage_pair,
    outage_sbs,
    pair_marginal_primary,
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
    outage_evt_sbs,
)
from wpcn_select.experiments import evaluate_point
from wpcn_select.model import EhModel, db_to_linear, dbm_to_watts, default_params
from wpcn_select.special import AccuracyError, DomainError, bessel_k1

from oracles import (
    gated_integrand_reference,
    gumbel_logpdf,
    order_stat_logpdf,
    order_stat_logpdf_array,
)

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
    assert parent_cdf(c.eta, P40, EhModel.NON_LINEAR) == pytest.approx(
        1.0 - 1.0 / M, abs=1e-12
    )
    assert parent_cdf(c.eta + c.xi, P40, EhModel.NON_LINEAR) == pytest.approx(
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


@pytest.mark.parametrize("M, k, rate", [(20, 2, 1.0), (5, 5, 2.0), (1000, 1, 1.0)])
def test_order_stat_logpdf_is_the_guarded_array_formula(M, k, rate):
    # bit for bit, on nodes that all lie above 0 and on a mix with t <= 0
    rng = np.random.default_rng(M + k)
    t = np.exp(rng.uniform(-12.0, 5.0, (30, 21)))
    mixed = t - 3.0
    law = order_stat_law(M, k, rate)
    for nodes in (t, mixed):
        assert np.array_equal(law.logpdf(nodes), order_stat_logpdf_array(nodes, M, k, rate))


# route -> (body, its r, c r/Pt, the gates it passes, slope, its uplink flag if any)
GATED_ROUTES = {
    "ebs": ("_one_gate", 0.8, 0.35, [(0.0, math.inf, 0.8)], 0.0, (False,)),
    "ebs-linear": ("_one_gate", 0.0, 0.35, [(0.0, math.inf, 0.0)], 0.0, (False,)),
    "ibs": ("_one_gate", 0.8, 0.35, [(0.8, math.inf, 0.0)], 0.0, (True,)),
    "mms": ("_mms_integral", 0.8, 0.35, [(0.0, 1.0, 0.8), (0.8, 1.0, 0.0)], 1.0, ()),
    # at the floor both gates close at s = r, so the uplink half is empty
    "mms-floor": ("_mms_integral", 0.8, 0.0, [(0.0, 1.0, 0.8)], 1.0, ()),
}


@pytest.mark.parametrize("route", list(GATED_ROUTES))
@pytest.mark.parametrize("law_of", [order_stat_law, gumbel_law])
def test_gated_integrand_is_the_indexed_expression(monkeypatch, route, law_of):
    # the integrand the kernel sees equals the one-expression form with gate
    # columns indexed per panel, bit for bit, at random nodes above each lo
    import wpcn_select.analytic as analytic

    name, first, cr_over_pt, gates, slope, uplink = GATED_ROUTES[route]
    rate = 2.0 if route.startswith("mms") else 1.0
    law = law_of(100, 2, rate)
    calls = []
    monkeypatch.setattr(analytic, "integrate_panels",
                        lambda f, edges, spec=None: calls.append((f, edges)) or (0.0, 0.0))
    getattr(analytic, name)(first, cr_over_pt, law, *uplink)
    (f, edges), = calls
    assert len(edges) == len(gates)
    logpdf = law.logpdf if law_of is gumbel_law else (
        lambda t: order_stat_logpdf_array(t, 100, 2, rate))
    want = gated_integrand_reference(logpdf, gates, cr_over_pt, slope)
    rng = np.random.default_rng(7)
    piece = rng.integers(0, len(gates), 40)
    lo = np.array([gate[0] for gate in gates])[piece, None]
    t = lo + np.exp(rng.uniform(-14.0, 3.5, (40, 21)))
    assert np.array_equal(f(t, piece), want(t, piece))


@pytest.mark.parametrize("law_of", [order_stat_law, gumbel_law])
def test_constant_gate_makes_no_kernel_call(monkeypatch, law_of):
    # at c r/Pt = 0 (Pt = inf) the EBS and IBS gates are the constant
    # 1 - e^(-shift) above lo: P(t <= lo) + P(t > lo) (1 - e^(-shift)), closed
    import wpcn_select.analytic as analytic

    law = law_of(100, 2, 1.0)
    calls = []
    monkeypatch.setattr(analytic, "integrate_panels",
                        lambda f, edges, spec=None: calls.append(edges) or (0.0, 0.0))
    r = 0.8
    ebs = law.cdf(0.0) + (1.0 - law.cdf(0.0)) * -math.expm1(-r)
    assert analytic._one_gate(r, 0.0, law, uplink=False) == ebs
    assert analytic._one_gate(r, 0.0, law, uplink=True) == law.cdf(r)
    assert calls == []


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


@pytest.mark.parametrize("law_of", [order_stat_law, gumbel_law])
def test_ranked_law_logpdf_propagates_nan(law_of):
    # a nan gain is no gain at or below 0: its log density is nan, not the
    # -inf of a zero density, and the live node beside it keeps its bits
    law = law_of(20, 2, 1.0)
    got = law.logpdf(np.array([math.nan, 1.0]))
    assert math.isnan(got[0])
    assert got[1] == law.logpdf(np.array([1.0]))[0]
    assert math.isfinite(got[1])


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
    assert got == pytest.approx(3.6892661841601692e-10, rel=1e-8, abs=0.0)


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
    # the order statistic's normalizer as a difference of lgammas was 1.3e-12 off
    (outage_ibs, Scheme.IBS, 1000, 2, 0.5808021765376579, 1.5398848013057224e-02),
])
def test_fig5_points_match_mpmath_oracle(fn, scheme, M, k, x, oracle):
    # fig5 grid points (-40 dBm, x from geomspace(0.1, 3, 30)) against
    # 40-digit mpmath quadratures of the same integrals to infinity, in
    # relative terms only
    got = fn(x, SchemeSpec(scheme, k=k), P40.replace(num_devices=M)).value
    assert got == pytest.approx(oracle, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("fn, body", [
    (outage_evt_ebs, "_one_gate"),
    (outage_evt_ibs, "_one_gate"),
    (outage_evt_mms, "_mms_integral"),
])
def test_evt_overshoot_raises(monkeypatch, fn, body):
    # every limit is a probability under a proper law: no clamp hides a bug
    import wpcn_select.evt as evt

    monkeypatch.setattr(evt, body, lambda *a, **kw: 1.01)
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
    from wpcn_select.analytic import _mms_integral, _scales

    for M in (10, 20, 50, 100, 200, 500, 1000):
        for k in (1, 2):
            for i in range(30):
                r, cr_over_pt = _scales(0.1 * 30.0 ** (i / 29), P40, EhModel.NON_LINEAR)
                raw = _mms_integral(r, cr_over_pt, gumbel_law(M, k, 2.0))
                assert 0.0 <= raw <= 1.0, f"M={M} k={k} i={i}: {raw!r}"


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
        v = pair_marginal_primary(x, k, j, M, params, EhModel.NON_LINEAR)
        assert 0.0 <= v <= 1.0 + 1e-12, f"pair_marginal_primary M={M} ({k}, {j}): {v!r}"


# (marginal, Pt in dBm, M, k, j) -> value at X_PAIR, frozen from a 30-digit
# mpmath quadrature of the conditional form.  A nested scipy quadrature at
# tolerances 1e-13/1e-19 inside 1e-12/1e-17 agrees within 2e-13.  The
# primary is the one marginal; its name stays in the column, and so in the
# case names
PAIR_ORACLE = [
    ("primary", -40.0, 10, 1, 3, 0.00023501526047497347),
    ("primary", -40.0, 10, 2, 5, 0.0011205004527401837),
    # fig4 points with j = M; scipy quad under a 1e-13 absolute floor was
    # 1.6e-6 and 6.5e-5 off
    ("primary", -40.0, 20, 2, 20, 2.7095599729395283e-10),
    ("primary", -40.0, 30, 1, 30, 9.5800388839987953e-18),
]


@pytest.mark.parametrize("which, pt_dbm, M, k, j, want", PAIR_ORACLE)
def test_pair_marginals_match_tight_oracle(which, pt_dbm, M, k, j, want):
    params = P_PAIR.replace(num_devices=M, transmit_power=dbm_to_watts(pt_dbm))
    got = pair_marginal_primary(X_PAIR, k, j, M, params, EhModel.NON_LINEAR)
    assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def test_pair_marginals_are_one_quadrature_each(monkeypatch):
    import wpcn_select.analytic as analytic

    calls = []
    kernel = analytic.integrate_panels

    def counted(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(analytic, "integrate_panels", counted)
    pair_marginal_primary(X_PAIR, 2, 5, 10, P_PAIR, EhModel.NON_LINEAR)
    assert len(calls) == 1, f"pair_marginal_primary: {calls}"
    for pair in (PairSpec(Scheme.SBS, 2, 5), PairSpec(Scheme.RS, 1, 2)):
        calls.clear()
        outage_pair(X_PAIR, pair, P_PAIR)
        assert len(calls) == 1, f"{pair}: {calls}"
