"""Acceptance gate: eleven release criteria checked end to end.

One test per criterion; conftest.py prints a PASS/FAIL line for each in
the terminal summary.  Criterion 1 dominates the runtime: the full
scheme x order x harvester-model x power grid is simulated at a million
trials per point, and the whole suite is run twice (worker counts 1 and
8) so criterion 11 can compare the serialized bytes.  Everything else
completes in seconds.
"""

import math
import os

import numpy as np
import pytest
from scipy import integrate
from scipy.special import bdtr, bdtrc

from wpcn_select.analytic import (
    Method,
    PairSpec,
    Scheme,
    SchemeSpec,
    ibs_phi_closed,
    outage_ebs,
    outage_ibs,
    outage_mms,
    outage_rs,
    outage_sbs,
)
from wpcn_select.evt import (
    outage_evt_ebs,
    outage_evt_ibs,
    outage_evt_mms,
    outage_evt_sbs,
)
from wpcn_select.experiments import (
    SweepSpec,
    SweptParameter,
    evaluate_point,
    find_optimal_t1,
    rows_to_csv,
    run_sweep,
)
from wpcn_select.model import (
    EhModel,
    db_to_linear,
    dbm_to_watts,
    default_params,
    threshold_x,
)
from wpcn_select.montecarlo import THREADS_ENV
from wpcn_select.special import bessel_k1

from oracles import ibs_phi_quadrature

DEFAULTS = default_params()  # -10 dBm, -50 dBm noise, t1=0.5, Q=0 dB (x=3), M=5
SCHEMES = (Scheme.RS, Scheme.SBS, Scheme.EBS, Scheme.IBS, Scheme.MMS)
MODELS = (EhModel.NON_LINEAR, EhModel.LINEAR)
ORDER_INDICES = (1, 2, 4)
POWER_GRID_DBM = (-20.0, -10.0, 0.0)
GRID_TRIALS = 1_000_000
GRID_SEED = 2024
#: per-point level of the exact binomial test, Bonferroni over the 90 grid points
GRID_ALPHA = 1e-3 / 90


# ---------------------------------------------------------------------------
# shared heavy fixture: the criterion-1 grid at two worker counts
# ---------------------------------------------------------------------------

def _run_grid():
    rows = []
    for scheme in SCHEMES:
        for k in ORDER_INDICES:
            for model in MODELS:
                res = run_sweep(
                    SweepSpec(
                        SchemeSpec(scheme, k=k, model=model),
                        SweptParameter.TRANSMIT_POWER_DBM,
                        POWER_GRID_DBM,
                        DEFAULTS,
                        methods=(Method.ANALYTIC, Method.MONTE_CARLO),
                        mc_trials=GRID_TRIALS,
                        base_seed=GRID_SEED,
                    )
                )
                assert res.errors == []
                rows.extend(res.rows)
    return rows


@pytest.fixture(scope="module")
def grid_runs():
    """{worker count: (rows, csv text)} for the full criterion-1 grid."""
    runs = {}
    saved = os.environ.get(THREADS_ENV)
    try:
        for workers in ("1", "8"):
            os.environ[THREADS_ENV] = workers
            rows = _run_grid()
            runs[workers] = (rows, rows_to_csv(rows))
    finally:
        if saved is None:
            os.environ.pop(THREADS_ENV, None)
        else:
            os.environ[THREADS_ENV] = saved
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_analytic_matches_monte_carlo_on_full_grid(grid_runs):
    rows, _ = grid_runs["8"]
    by_point = {}
    for row in rows:
        key = (row["scheme"], row["k"], row["model"], row["pt_dbm"])
        by_point.setdefault(key, {})[row["method"]] = row
    assert len(by_point) == 90
    for key, methods in sorted(by_point.items()):
        analytic = methods["analytic"]["outage"]
        mc = methods["mc"]
        gap = abs(analytic - mc["outage"])
        tol = max(3.0 * mc["stderr"], 5e-3)
        assert gap <= tol, f"{key}: |analytic - mc| = {gap:.3e} > {tol:.3e}"


def _grid_p_values(rows, scale):
    """{point: two-sided exact binomial p-value of its Monte Carlo failure
    count against its exact outage times scale.get(scheme, 1)}, as twice
    the smaller tail, at most 1 (Clopper & Pearson, Biometrika 26, 1934)."""
    by_point = {}
    for row in rows:
        key = (row["scheme"], row["k"], row["model"], row["pt_dbm"])
        by_point.setdefault(key, {})[row["method"]] = row["outage"]
    p_values = {}
    for key, methods in by_point.items():
        failures = round(methods["mc"] * GRID_TRIALS)
        p = methods["analytic"] * scale.get(key[0], 1.0)
        lower = bdtr(failures, GRID_TRIALS, p)
        upper = bdtrc(failures - 1, GRID_TRIALS, p)  # 1 at no failures
        p_values[key] = min(1.0, 2.0 * min(lower, upper))
    return p_values


def test_grid_points_pass_an_exact_binomial_test(grid_runs):
    # criterion 1 admits a gap of 5e-3 at every point, 500% of an outage of
    # 1e-3; this test on the same runs sees a few percent
    rows, _ = grid_runs["8"]
    p_values = _grid_p_values(rows, {})
    assert len(p_values) == 90
    worst = min(p_values, key=p_values.get)
    assert p_values[worst] >= GRID_ALPHA, (worst, p_values[worst])
    # and it has the power: 5% off in any one scheme fails some point
    for scheme in SCHEMES:
        scaled = _grid_p_values(rows, {scheme.value: 1.05})
        assert min(scaled.values()) < GRID_ALPHA, scheme


def test_criterion_02_pair_selection_matches_monte_carlo():
    params = default_params(
        transmit_power=dbm_to_watts(-40.0),
        rate_threshold_q=db_to_linear(-4.0),
        num_devices=10,
    )
    for k, j in ((1, 3), (2, 5)):
        spec = PairSpec(Scheme.SBS, k=k, j=j)
        analytic = evaluate_point(spec, params, Method.ANALYTIC).value
        mc = evaluate_point(
            spec, params, Method.MONTE_CARLO, mc_trials=1_000_000, base_seed=11
        )
        gap = abs(analytic - mc.value)
        assert gap <= 3.0 * mc.stderr, f"({k},{j}): gap {gap:.3e}"


def test_criterion_03_optimal_harvest_fraction_is_scheme_independent():
    stars = []
    for scheme in (Scheme.SBS, Scheme.EBS, Scheme.IBS, Scheme.MMS):
        t_star = find_optimal_t1(scheme, 2, DEFAULTS).t1
        assert abs(t_star - 0.5256) < 0.02, f"{scheme}: t* = {t_star:.4f}"
        stars.append(t_star)
    for i, a in enumerate(stars):
        for b in stars[i + 1:]:
            assert abs(a - b) < 0.02


def test_criterion_04_high_power_floors():
    p60 = DEFAULTS.replace(transmit_power=dbm_to_watts(60.0))
    for scheme in (Scheme.RS, Scheme.EBS, Scheme.SBS, Scheme.MMS):
        spec = SchemeSpec(scheme, k=2)
        exact = evaluate_point(spec, p60, Method.ANALYTIC).value
        floor = evaluate_point(spec, p60, Method.HIGH_SNR).value
        assert abs(exact - floor) <= 1e-3, f"{scheme}: gap {abs(exact - floor):.3e}"
    # saturation wipes out the energy ranking: the EBS floor is the RS floor
    rs_floor = evaluate_point(SchemeSpec(Scheme.RS, k=2), p60, Method.HIGH_SNR).value
    ebs_floor = evaluate_point(SchemeSpec(Scheme.EBS, k=2), p60, Method.HIGH_SNR).value
    assert ebs_floor == rs_floor
    # the uplink ranking keeps improving with power, sliding down to the
    # end-to-end floor from above
    sbs_floor = evaluate_point(SchemeSpec(Scheme.SBS, k=2), p60, Method.HIGH_SNR).value
    gaps = []
    for dbm in (20.0, 40.0, 60.0, 80.0):
        value = evaluate_point(
            SchemeSpec(Scheme.IBS, k=2),
            DEFAULTS.replace(transmit_power=dbm_to_watts(dbm)),
            Method.ANALYTIC,
        ).value
        gaps.append(value - sbs_floor)
    assert all(g > 0.0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_criterion_05_ranked_selection_averages_to_random():
    rng = np.random.default_rng(42)
    xs = 10.0 ** rng.uniform(-2.0, 1.5, size=20)
    M = DEFAULTS.num_devices
    for model in MODELS:
        for x in xs:
            x = float(x)
            rs = outage_rs(x, SchemeSpec(Scheme.RS, model=model), DEFAULTS).value
            mean = (
                sum(
                    outage_sbs(x, SchemeSpec(Scheme.SBS, k=k, model=model), DEFAULTS).value
                    for k in range(1, M + 1)
                )
                / M
            )
            assert abs(mean - rs) <= 1e-9, f"x={x:.4g} {model}: {abs(mean - rs):.2e}"


def test_criterion_06_linear_harvester_collapses_energy_and_gain_ranking():
    for k in ORDER_INDICES:
        for dbm in POWER_GRID_DBM:
            p = DEFAULTS.replace(transmit_power=dbm_to_watts(dbm))
            x = threshold_x(p)
            ebs = outage_ebs(x, SchemeSpec(Scheme.EBS, k=k, model=EhModel.LINEAR), p).value
            ibs = outage_ibs(x, SchemeSpec(Scheme.IBS, k=k, model=EhModel.LINEAR), p).value
            assert abs(ebs - ibs) <= 1e-12, f"k={k} {dbm} dBm: {abs(ebs - ibs):.2e}"


def test_criterion_07_extreme_value_limits_converge_with_population():
    # mid-range outage values so the sup-gap is informative, not saturated
    p40 = default_params(transmit_power=dbm_to_watts(-40.0))
    grid = np.geomspace(0.1, 3.0, 30)
    cases = (
        (Scheme.SBS, outage_sbs, outage_evt_sbs, 0.02),
        (Scheme.EBS, outage_ebs, outage_evt_ebs, 0.02),
        (Scheme.IBS, outage_ibs, outage_evt_ibs, 0.02),
        (Scheme.MMS, outage_mms, outage_evt_mms, 0.05),
    )
    for scheme, exact, limit, bound in cases:
        sups = []
        for M in (10, 50, 200):
            pm = p40.replace(num_devices=M)
            spec = SchemeSpec(scheme, k=1)
            sup = max(
                abs(limit(float(x), spec, pm).value - exact(float(x), spec, pm).value)
                for x in grid
            )
            sups.append(sup)
        assert sups[1] <= sups[0] and sups[2] <= sups[1], f"{scheme}: {sups}"
        assert sups[-1] <= bound, f"{scheme}: sup-gap {sups[-1]:.3e} at M=200"


def test_criterion_08_special_function_kernel():
    for x in (0.01, 0.1, 1.0, 5.0, 20.0):
        # x cosh(40) > 1e15 for every x here, so the tail past 40 is nil
        oracle, _ = integrate.quad(
            lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t), 0.0, 40.0,
            epsabs=1e-12, epsrel=1e-10, limit=2000,
        )
        assert abs(bessel_k1(x) - oracle) <= 1e-9 * oracle
    x = threshold_x(DEFAULTS)
    for delta in (1, 2, 3, 4, 5):
        closed = ibs_phi_closed(x, DEFAULTS, delta)
        quad = ibs_phi_quadrature(x, DEFAULTS, delta)
        assert abs(closed - quad) <= 1e-8 * abs(quad), f"delta={delta}"


def test_criterion_09_scheme_orderings():
    p = default_params(transmit_power=dbm_to_watts(-10.0))

    def value(scheme, k):
        return evaluate_point(SchemeSpec(scheme, k=k), p, Method.ANALYTIC).value

    sbs, ebs, ibs, mms, rs = (
        value(s, 2) for s in (Scheme.SBS, Scheme.EBS, Scheme.IBS, Scheme.MMS, Scheme.RS)
    )
    assert sbs <= ibs <= rs
    assert sbs <= mms <= rs
    assert sbs <= ebs <= rs
    # picking the weakest device flips the energy/SNR ranking advantage
    M = p.num_devices
    assert value(Scheme.EBS, M) <= value(Scheme.SBS, M)


def test_criterion_10_estimation_error_degrades_outage():
    p = default_params(transmit_power=dbm_to_watts(-20.0))
    spec = SchemeSpec(Scheme.SBS, k=1)
    perfect = evaluate_point(
        spec, p, Method.MONTE_CARLO, mc_trials=1_000_000, base_seed=7
    )
    noisy = evaluate_point(
        spec, p, Method.MONTE_CARLO, mc_trials=1_000_000, base_seed=7, sigma_e2=0.3
    )
    assert noisy.value - 3.0 * noisy.stderr > perfect.value + 3.0 * perfect.stderr


def test_criterion_11_results_identical_across_worker_counts(grid_runs):
    csv_serial = grid_runs["1"][1]
    csv_parallel = grid_runs["8"][1]
    assert csv_serial.encode("utf-8") == csv_parallel.encode("utf-8")
