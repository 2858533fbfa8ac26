"""Checks for the simulation engine.

Selection logic is verified on crafted draws against hand-ranked answers,
the channel generator against its moments, and full runs against the exact
evaluators with three-sigma gates.  Reproducibility must be bitwise: same
seed, same counts, regardless of worker count.
"""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from wpcn_select import montecarlo
from wpcn_select.analytic import (
    DomainError,
    Method,
    PairSpec,
    Scheme,
    SchemeSpec,
    _scales,
    outage_ebs,
    outage_high_snr,
    outage_pair,
    outage_rs,
    outage_sbs,
    r_scale,
)
from wpcn_select.experiments import evaluate_point
from wpcn_select.model import (
    EhModel,
    db_to_linear,
    dbm_to_watts,
    default_params,
    harvested_energy,
    snr,
    threshold_x,
)
from wpcn_select.montecarlo import (
    _BLOCK,
    _ELEMENT_BUDGET,
    THREADS_ENV,
    TrialConfig,
    _block_key,
    _count_block,
    _draw_block,
    _gains,
    _kth_index,
    _ranking_stat,
    _select,
    _stream_at,
    _true_gains,
    _worker_count,
    simulate_outage,
)

from oracles import block_generator, imperfect_csi_outage, whole_block_count

P = default_params()


# ---------------------------------------------------------------------------
# channel generation
# ---------------------------------------------------------------------------

def test_draws_have_unit_mean():
    rng = np.random.default_rng(1)
    g, h = (_gains(u, 0.0) for u in _draw_block(rng, rng, *np.empty((2, 4000, 8))))
    assert float(np.mean(g)) == pytest.approx(1.0, abs=0.02)
    assert float(np.mean(h)) == pytest.approx(1.0, abs=0.02)


def test_imperfect_csi_split_preserves_truth_mean():
    # estimate carries 1 - sigma_e2 of the power, the error the rest
    rng = np.random.default_rng(2)
    est = _gains(_draw_block(rng, rng, *np.empty((2, 6000, 8)))[0], 0.3)
    true = _true_gains(est.copy(), 0.3, rng.random((2, 6000, 8)))
    assert float(np.mean(est)) == pytest.approx(0.7, abs=0.02)
    assert float(np.mean(true)) == pytest.approx(1.0, abs=0.02)


def _chunk_offsets(monkeypatch, spec, sigma_e2):
    """The stream offsets a chunk of trials 30 .. 49 of a 70-trial block at
    M = 5 positions its generators at."""
    seen = []
    real = montecarlo._stream_at
    monkeypatch.setattr(montecarlo, "_stream_at", lambda key, at: seen.append(at) or real(key, at))
    cfg = TrialConfig(spec, P, num_trials=70, estimation_error_var=sigma_e2)
    _count_block(cfg, threshold_x(P), _block_key(0, 0), 20, 30, 70)
    return seen


# (spec, w, m_g, m_h): a chunk draws m doubles per trial on each link, M on
# a link the scheme ranks on and w (1, or 2 for a pair) on one it does not
OFFSET_SPECS = [
    (SchemeSpec(Scheme.MMS, k=2), 1, 5, 5),
    (SchemeSpec(Scheme.EBS, k=2), 1, 5, 1),
    (SchemeSpec(Scheme.IBS, k=2), 1, 1, 5),
    (SchemeSpec(Scheme.RS), 1, 1, 1),
    (PairSpec(Scheme.RS, 1, 2), 2, 2, 2),
]


def test_perfect_csi_has_no_estimate_arrays(monkeypatch):
    # selection ranks on the drawn gains and the outage reads the same ones:
    # a chunk reads its g and h rows only, and the gains are the unit-mean ones
    for spec, _, m_g, m_h in OFFSET_SPECS:
        assert _chunk_offsets(monkeypatch, spec, 0.0) == [30 * m_g, 70 * m_g + 30 * m_h], spec
    rng = np.random.default_rng(0)
    ug, uh = _draw_block(rng, rng, *np.empty((2, 1, 4)))
    u = np.random.default_rng(0).random((2, 1, 4))
    assert np.array_equal(ug, u[0]) and np.array_equal(uh, u[1])
    g, h = _gains(ug, 0.0), _gains(uh, 0.0)
    assert np.array_equal(g, -np.log1p(-u[0])) and np.array_equal(h, -np.log1p(-u[1]))


def test_imperfect_csi_ranks_on_estimates(monkeypatch):
    # the ranked gains are estimates with power 1 - sigma_e2, and the chosen
    # devices' true gains come from error uniforms drawn after the block's
    # fading rows: w per trial for the g links' moduli, w for their phases,
    # then the same for the h links
    for spec, w, m_g, m_h in OFFSET_SPECS:
        fading = [30 * m_g, 70 * m_g + 30 * m_h]
        errors = [70 * (m_g + m_h + 2 * link * w) + w * (part * 70 + 30)
                  for link in (0, 1) for part in (0, 1)]
        assert _chunk_offsets(monkeypatch, spec, 0.4) == fading + errors, spec
    rng, rng2 = np.random.default_rng(0), np.random.default_rng(0)
    est = [_gains(u, 0.4) for u in _draw_block(rng, rng, *np.empty((2, 1, 4)))]
    gains = [_gains(u, 0.0) for u in _draw_block(rng2, rng2, *np.empty((2, 1, 4)))]
    for e, g in zip(est, gains):
        assert np.allclose(e, 0.6 * g, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("M", [5, 100])
def test_unranked_link_draws_only_the_picks(monkeypatch, M):
    # EBS draws h, IBS g and random selection both only for its picks; SBS
    # and MMS draw both whole links, and under imperfect CSI every scheme
    # then draws w moduli and w phases per trial and link
    sizes = []
    real = montecarlo._draw_block
    monkeypatch.setattr(montecarlo, "_draw_block", lambda rg, rh, ug, uh: (
        sizes.append((ug.size, uh.size)) or real(rg, rh, ug, uh)))
    params = default_params(num_devices=M, transmit_power=dbm_to_watts(-40.0))
    n, expected = 20, {}
    for scheme, (m_g, m_h) in {Scheme.SBS: (M, M), Scheme.MMS: (M, M), Scheme.EBS: (M, 1),
                               Scheme.IBS: (1, M), Scheme.RS: (1, 1)}.items():
        expected[SchemeSpec(scheme, k=2)] = (n * m_g, n * m_h)
    expected[PairSpec(Scheme.SBS, 1, 2)] = (n * M, n * M)
    expected[PairSpec(Scheme.RS, 1, 2)] = (2 * n, 2 * n)
    for spec, fading in expected.items():
        w = 2 if isinstance(spec, PairSpec) else 1
        for sigma_e2 in (0.0, 0.3):
            sizes.clear()
            cfg = TrialConfig(spec, params, num_trials=70, estimation_error_var=sigma_e2)
            _count_block(cfg, threshold_x(params), _block_key(0, 0), n, 30, 70)
            errors = [(n * w, n * w)] * 2 if sigma_e2 else []
            assert sizes == [fading, *errors], (spec, sigma_e2)


def test_draw_channels_deterministic():
    rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
    a = _draw_block(rng_a, rng_a, *np.empty((2, 1, 5)))
    b = _draw_block(rng_b, rng_b, *np.empty((2, 1, 5)))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_draw_channels_validation():
    # the population and the error variance are checked where a run is set up
    with pytest.raises(ValueError):
        default_params(num_devices=0)
    for bad in (1.0, -0.1):
        with pytest.raises(ValueError):
            TrialConfig(SchemeSpec(Scheme.SBS), P, estimation_error_var=bad)


def test_conditional_true_gain_is_unit_exponential():
    # the true gain given its (1 - sigma_e2)-power estimate must be Exp(1)
    # again: mean 1, second moment 2; a million draws put both within 5 sigma
    rng = np.random.default_rng(12)
    est = _gains(_draw_block(rng, rng, *np.empty((2, 100_000, 10)))[0], 0.3)
    true = _true_gains(est.copy(), 0.3, np.random.default_rng(13).random((2, 100_000, 10)))
    assert float(est.mean()) == pytest.approx(0.7, abs=5e-3)
    assert float(true.mean()) == pytest.approx(1.0, abs=5e-3)
    assert float((true**2).mean()) == pytest.approx(2.0, abs=2.5e-2)


@pytest.mark.parametrize("scheme", [Scheme.SBS, Scheme.MMS])
@pytest.mark.parametrize("M, pt_dbm, trials", [(5, -40.0, 100_000), (100, -45.0, 30_000)])
def test_imperfect_csi_matches_eight_normal_oracle(scheme, M, pt_dbm, trials):
    params = default_params(num_devices=M, transmit_power=dbm_to_watts(pt_dbm))
    spec = SchemeSpec(scheme, k=1)
    ref, ref_se = imperfect_csi_outage(spec, params, 0.3, trials, seed=4)
    est = simulate_outage(
        TrialConfig(spec, params, num_trials=trials, base_seed=4, estimation_error_var=0.3)
    )
    assert 0.05 < ref < 0.95
    assert abs(est.value - ref) <= 3.0 * math.hypot(est.stderr, ref_se)


# ---------------------------------------------------------------------------
# the k-th index helper and the count path
# ---------------------------------------------------------------------------

def _stable_kth(stat, k):
    return np.argsort(-stat, axis=1, kind="stable")[:, k - 1]


# every k up to M = 20, on both sides of the column-pass cutoff (M = 10);
# at M = 100 both knock-out walks and the partition
@pytest.mark.parametrize("M", [2, 3, 5, 7, 10, 11, 20, 100])
def test_kth_index_matches_stable_sort(M):
    rng = np.random.default_rng(M)
    smooth = rng.random((3000, M))
    tied = rng.integers(0, 3, size=(3000, M)).astype(float)  # ties in most rows
    ranks = (1, 2, 3, 49, 50, 98, 99, 100) if M == 100 else range(1, M + 1)
    # the column passes read either layout; the statistic comes transposed
    for stat in (smooth, tied, np.asfortranarray(smooth), np.asfortranarray(tied)):
        before = stat.copy()
        for k in ranks:
            got = _kth_index(stat, k, np.empty((3000, M)))
            assert np.array_equal(got, _stable_kth(stat, k)), k
            # a knocked out entry is written back
            assert np.array_equal(stat, before), k


def test_kth_index_on_crafted_ties():
    stat = np.array([
        [1.0, 1.0, 1.0, 1.0, 1.0],
        [2.0, 1.0, 2.0, 1.0, 2.0],
        [0.0, 3.0, 3.0, 0.0, 3.0],
        [5.0, 4.0, 4.0, 4.0, 1.0],
        [0.5, 0.5, 9.0, 0.1, 0.1],
        [0.3, 0.2, 0.9, 0.4, 0.7],
    ])
    for k in range(1, 6):
        assert np.array_equal(_kth_index(stat, k, np.empty_like(stat)), _stable_kth(stat, k))


def _threshold_on(values, params):
    """An x whose r = r_scale(x) is exactly one of the given s values, the
    first that some x reaches: the count compares each s with that r."""
    for s in values:
        x = float(s) / r_scale(1.0, params)
        for y in x + np.arange(-4, 5) * np.spacing(x):
            if r_scale(float(y), params) == s:
                return float(y)
    raise AssertionError("no x puts r on a drawn s")


# every k at M = 10 and 11, either side of the column-pass cutoff
@pytest.mark.parametrize("k", range(1, 12))
def test_sbs_count_path_matches_select_path(k):
    params = P.replace(transmit_power=dbm_to_watts(-40.0))
    for M in (m for m in (5, 10, 11) if k <= m and (m > 5 or k <= 2)):
        params = params.replace(num_devices=M)
        cfg = TrialConfig(SchemeSpec(Scheme.SBS, k=k), params, num_trials=50_000, base_seed=6)
        # the block, through the k-th index and the picked statistic s
        rng = block_generator(6, 2)
        ug, uh, s1, s2, knock = np.empty((5, 50_000, M))
        _draw_block(rng, rng, ug, uh)
        stat = _ranking_stat(Scheme.SBS, ug, uh, params, EhModel.NON_LINEAR, 0.0, (s1, s2))
        s_sel = stat[np.arange(50_000), _kth_index(stat, k, knock)]
        # at -40 dBm and M = 5 the default threshold splits the block; at
        # M = 10 and 11 r is a drawn s, so one trial sits on it
        if M == 5:
            x = threshold_x(params)
        else:
            x = _threshold_on(np.sort(s_sel)[25_000:], params)
            assert np.count_nonzero(s_sel == r_scale(x, params)) >= 1
        counted = _count_block(cfg, x, _block_key(6, 2), 50_000, 0, 50_000)
        assert 1_000 < counted < 49_000
        assert counted == int((s_sel <= r_scale(x, params)).sum()), M


def test_sbs_count_holds_more_than_127_devices_above():
    # an int8 row sum wraps past 127: at k >= 128 such a row would count as
    # a failure
    M, n, k = 200, 3000, 150
    params = P.replace(num_devices=M)
    rng = block_generator(3, 0)
    ug, uh, s1, s2, knock = np.empty((5, n, M))
    _draw_block(rng, rng, ug, uh)
    stat = _ranking_stat(Scheme.SBS, ug, uh, params, EhModel.NON_LINEAR, 0.0, (s1, s2))
    s_sel = stat[np.arange(n), _kth_index(stat, k, knock)]
    x = _threshold_on(np.sort(s_sel)[n // 2:], params)
    cfg = TrialConfig(SchemeSpec(Scheme.SBS, k=k), params, num_trials=n, base_seed=3)
    counted = _count_block(cfg, x, _block_key(3, 0), n, 0, n)
    assert np.count_nonzero((stat > r_scale(x, params)).sum(axis=1) > 127) > n // 4
    assert 1_000 < counted < 2_000
    assert counted == int((s_sel <= r_scale(x, params)).sum())


def _old_map_band(e, params, model):
    """Half-width of the rounding band, relative to the SNR, of
    snr(h, harvested_energy(g)) and the s > r test together, given the
    energies e.  The nonlinear map subtracts b/c from a value near it, so
    it loses t1 b/(c e) ulps; against 40-digit mpmath on 3,000 gains at
    -40, -10 and +20 dBm (a third of them below 1e-4) its error was at most
    1.32 eps (1 + t1 b/(c e)); the statistic and r add a few eps."""
    rc = params.rectenna
    lost = 0.0 if model is EhModel.LINEAR else params.harvest_fraction * rc.b / (rc.c * e)
    return 8.0 * np.finfo(float).eps * (1.0 + lost)


STAT_CASES = [
    (model, pt_dbm)
    for model in (EhModel.NON_LINEAR, EhModel.LINEAR)
    for pt_dbm in (-40.0, -10.0, 20.0, math.inf)
    if not (model is EhModel.LINEAR and pt_dbm == math.inf)  # every SNR is inf
]


@pytest.mark.parametrize("model, pt_dbm", STAT_CASES)
def test_sbs_statistic_is_the_snr_up_to_rounding(model, pt_dbm):
    # 10^5 drawn devices: s orders them as their SNRs do, and s > r (beta
    # for the linear harvester) holds where SNR > x, except where the SNR
    # lies within the rounding band of the other side
    params = P.replace(transmit_power=dbm_to_watts(pt_dbm), num_devices=100)
    rng = np.random.default_rng(8)
    ug, uh, s1, s2 = np.empty((4, 1000, 100))
    _draw_block(rng, rng, ug, uh)
    s = _ranking_stat(Scheme.SBS, ug, uh, params, model, 0.0, (s1, s2)).ravel()
    e = harvested_energy(_gains(ug, 0.0), params, model).ravel()
    x_all = snr(_gains(uh, 0.0).ravel(), e, params)
    band = _old_map_band(e, params, model) * x_all
    order = np.argsort(s, kind="stable")
    v, w = x_all[order], band[order]
    drops = np.flatnonzero(v[:-1] > v[1:])
    assert np.all(v[drops] - v[drops + 1] <= w[drops] + w[drops + 1])
    # the default threshold, and a drawn SNR that splits the devices in half
    for x in (threshold_x(params), float(np.partition(x_all, 50_000)[50_000])):
        r, beta = _scales(x, params, model)
        edge = beta if model is EhModel.LINEAR else r
        differ = (s > edge) != (x_all > x)
        assert np.all(np.abs(x_all[differ] - x) <= band[differ])


# the three weakest of 10^4 downlink gains drawn at -40 dBm
# (default_rng(12).random((2, 10_000)), smallest u_g first), as (u_g, u_h),
# with the SNR to 40 digits from a 50-digit mpmath evaluation of
# h t1 ((a p + b)/(p + c) - b/c)/(t2 sigma_n^2), p = Pt g, g = -log1p(-u_g)
WEAKEST = [
    ("0x1.20a4df9e00000p-20", "0x1.9d535d2769762p-2",
     "0.000003254059139306983414052980083014184874214"),
    ("0x1.861a03f99c000p-15", "0x1.932e5fc27db97p-1",
     "0.0004216360372784110928340472271599537219526"),
    ("0x1.2ddc0dccc4000p-14", "0x1.9e4b492347234p-2",
     "0.000218471409744299756488585285952868150519"),
]


def test_sbs_statistic_keeps_the_weakest_snr_digits():
    # the SNR implied by s, s t1 (a c - b)/(c t2 sigma_n^2) in exact
    # rationals, is within 1e-15 relative of the oracle; the harvester
    # map itself loses digits to b/c there (1.8e-3 relative on the first)
    params = P.replace(transmit_power=dbm_to_watts(-40.0), num_devices=11)
    rc = params.rectenna
    t1 = Fraction(params.harvest_fraction)
    to_snr = t1 * (Fraction(rc.a) * Fraction(rc.c) - Fraction(rc.b)) / (
        Fraction(rc.c) * (1 - t1) * Fraction(params.noise_variance))
    for u_g, u_h, oracle in WEAKEST:
        ug, uh = (np.full((1, 11), float.fromhex(u)) for u in (u_g, u_h))
        s = _ranking_stat(Scheme.SBS, ug, uh, params, EhModel.NON_LINEAR, 0.0,
                          np.empty((2, 1, 11)))
        implied, exact = Fraction(float(s[0, 0])) * to_snr, Fraction(oracle)
        assert abs(implied / exact - 1) < Fraction(1, 10**15)


# ---------------------------------------------------------------------------
# selection on crafted draws
# ---------------------------------------------------------------------------

CRAFTED = (np.array([0.1, 5.0, 2.0]), np.array([4.0, 0.1, 3.0]))  # (g, h)


def select_device(spec, draw, params):
    """The index, or index pair, _select picks on a one-row block of the
    given gains, passed as the uniforms they are made from."""
    ug, uh = (-np.expm1(-a[None, :]) for a in draw)
    sel = _select(spec, ug, uh, params, 0.0, np.empty((2, *ug.shape)))[0]
    return (int(sel[0]), int(sel[1])) if isinstance(spec, PairSpec) else int(sel[0])


def test_select_crafted_ranks():
    assert select_device(SchemeSpec(Scheme.EBS, k=1), CRAFTED, P) == 1
    assert select_device(SchemeSpec(Scheme.EBS, k=3), CRAFTED, P) == 0
    assert select_device(SchemeSpec(Scheme.IBS, k=1), CRAFTED, P) == 0
    assert select_device(SchemeSpec(Scheme.IBS, k=2), CRAFTED, P) == 2
    # mins are (0.1, 0.1, 2.0); the tie breaks to the lowest index
    assert select_device(SchemeSpec(Scheme.MMS, k=1), CRAFTED, P) == 2
    assert select_device(SchemeSpec(Scheme.MMS, k=2), CRAFTED, P) == 0
    assert select_device(SchemeSpec(Scheme.MMS, k=3), CRAFTED, P) == 1
    # e2e SNR is monotone in g*h here: products (0.4, 0.5, 6.0)
    assert select_device(SchemeSpec(Scheme.SBS, k=1), CRAFTED, P) == 2
    assert select_device(SchemeSpec(Scheme.SBS, k=2), CRAFTED, P) == 1


def test_select_tie_breaks_to_lowest_index():
    draw = (np.array([2.0, 2.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    assert select_device(SchemeSpec(Scheme.EBS, k=1), draw, P) == 0
    assert select_device(SchemeSpec(Scheme.EBS, k=2), draw, P) == 1


def test_select_matches_brute_force_energy_ranking():
    rng = np.random.default_rng(9)
    for _ in range(200):
        g, h = (_gains(u, 0.0)[0] for u in _draw_block(rng, rng, *np.empty((2, 1, 6))))
        energies = [harvested_energy(float(v), P, EhModel.NON_LINEAR) for v in g]
        ranked = sorted(range(6), key=lambda i: (-energies[i], i))
        for k in (1, 3, 6):
            assert select_device(SchemeSpec(Scheme.EBS, k=k), (g, h), P) == ranked[k - 1]


def test_select_pair_returns_both_ranks():
    got = select_device(PairSpec(Scheme.SBS, 1, 3), CRAFTED, P)
    assert got == (2, 0)


# ---------------------------------------------------------------------------
# full simulations against the exact evaluators
# ---------------------------------------------------------------------------

def _within_three_sigma(est, truth):
    assert est.stderr is not None
    return abs(est.value - truth) <= max(3.0 * est.stderr, 1e-4)


def test_simulate_rs_matches_analytic():
    truth = outage_rs(3.0, SchemeSpec(Scheme.RS), P).value
    est = simulate_outage(TrialConfig(SchemeSpec(Scheme.RS, k=1), P, num_trials=200_000))
    assert _within_three_sigma(est, truth)


def test_simulate_sbs_matches_analytic():
    params = P.replace(transmit_power=dbm_to_watts(-40.0))
    truth = outage_sbs(3.0, SchemeSpec(Scheme.SBS, k=2), params).value
    est = simulate_outage(
        TrialConfig(SchemeSpec(Scheme.SBS, k=2), params, num_trials=200_000, base_seed=3)
    )
    assert _within_three_sigma(est, truth)


def test_simulate_ebs_linear_matches_analytic():
    spec = SchemeSpec(Scheme.EBS, k=2, model=EhModel.LINEAR)
    params = P.replace(transmit_power=dbm_to_watts(-30.0))
    truth = outage_ebs(3.0, spec, params).value
    est = simulate_outage(TrialConfig(spec, params, num_trials=200_000, base_seed=8))
    assert _within_three_sigma(est, truth)


def test_simulate_pair_matches_analytic():
    params = default_params(
        num_devices=10,
        transmit_power=dbm_to_watts(-40.0),
        rate_threshold_q=db_to_linear(-4.0),
    )
    pair = PairSpec(Scheme.SBS, 1, 3)
    truth = outage_pair(0.7365384334381356, pair, params).value
    est = simulate_outage(TrialConfig(pair, params, num_trials=400_000, base_seed=11))
    assert _within_three_sigma(est, truth)


# the first point is compare --scheme rs --k 1 --j 2 --q-db -4 --pt-dbm -40
@pytest.mark.parametrize("M, pt_dbm, q_db, exact",
                         [(5, -40.0, -4.0, 0.1207), (10, -40.0, -6.0, 0.0462)])
def test_simulate_rs_pair_matches_analytic(M, pt_dbm, q_db, exact):
    # a random pair's primary is the stronger of its two devices
    params = default_params(num_devices=M, transmit_power=dbm_to_watts(pt_dbm),
                            rate_threshold_q=db_to_linear(q_db))
    pair = PairSpec(Scheme.RS, 1, 2)
    truth = outage_pair(threshold_x(params), pair, params).value
    assert truth == pytest.approx(exact, abs=1e-4)
    trials = 200_000
    est = simulate_outage(TrialConfig(pair, params, num_trials=trials, base_seed=3))
    assert abs(est.value - truth) <= 4.0 * math.sqrt(truth * (1.0 - truth) / trials)


def test_simulate_at_infinite_power_matches_the_floor():
    # the harvester saturates at Pt = inf; Q = 11 dB puts every floor at k = 2
    # between 0.2 and 0.6
    params = default_params(transmit_power=math.inf, rate_threshold_q=db_to_linear(11.0))
    x, trials = threshold_x(params), 100_000
    for scheme in Scheme:
        spec = SchemeSpec(scheme, k=2)
        truth = outage_high_snr(x, spec, params).value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = simulate_outage(TrialConfig(spec, params, num_trials=trials, base_seed=2))
        assert 0.2 < truth < 0.6
        assert abs(est.value - truth) <= 4.0 * math.sqrt(truth * (1.0 - truth) / trials), scheme


def test_simulate_zero_threshold_short_circuits():
    params = P.replace(rate_threshold_q=0.0)
    est = simulate_outage(TrialConfig(SchemeSpec(Scheme.SBS, k=1), params, num_trials=100))
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_simulate_same_seed_is_bitwise_identical():
    cfg = TrialConfig(SchemeSpec(Scheme.MMS, k=2), P, num_trials=150_000, base_seed=21)
    a = simulate_outage(cfg)
    b = simulate_outage(cfg)
    assert a.value == b.value
    assert a.stderr == b.stderr


def test_simulate_invariant_to_worker_count(monkeypatch):
    cfg = TrialConfig(
        SchemeSpec(Scheme.SBS, k=2),
        P.replace(transmit_power=dbm_to_watts(-40.0)),
        num_trials=300_000,
        base_seed=13,
    )
    monkeypatch.setenv(THREADS_ENV, "1")
    serial = simulate_outage(cfg)
    monkeypatch.setenv(THREADS_ENV, "8")
    threaded = simulate_outage(cfg)
    assert serial.value == threaded.value
    assert serial.stderr == threaded.stderr


# ---------------------------------------------------------------------------
# chunks: positioned streams, the whole-block reference, memory, workers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("offset", [*range(10), 2 * 4_465, 7 * 33_333, 100 * 20_971])
def test_stream_at_reproduces_the_sequential_stream(offset):
    expected = block_generator(9, 3).random(offset + 9)[offset:]
    assert np.array_equal(_stream_at(_block_key(9, 3), offset).random(9), expected)


@pytest.mark.parametrize("M, n", [(2, 4_465), (7, 33_333), (100, 20_971)])
def test_tail_draws_continue_the_sequential_stream(M, n):
    # a pair's h-link error phases for trials 7 .. 105, which come after the
    # fading rows, the g links' moduli and phases and the h links' moduli,
    # n w doubles each, w = 2
    rng = block_generator(9, 3)
    want = rng.random(2 * n * M + 6 * n + 2 * 106)[-2 * 99:].reshape(99, 2)
    got = _stream_at(_block_key(9, 3), 2 * n * M + 6 * n + 2 * 7).random((99, 2))
    assert np.array_equal(got, want)


def _block_sizes(config):
    size = min(_BLOCK, max(1, _ELEMENT_BUDGET // config.params.num_devices))
    full, rest = divmod(config.num_trials, size)
    return [size] * full + ([rest] if rest else [])


def _oracle_outage(config):
    x = threshold_x(config.params)
    sizes = enumerate(_block_sizes(config))
    return sum(whole_block_count(config, x, b, n) for b, n in sizes) / config.num_trials


def _reference_specs(M):
    # SBS takes the count path, MMS the k-th index, EBS and IBS share it
    ranks = sorted({1, 2, M})
    specs = []
    for model in EhModel:
        specs += [
            SchemeSpec(Scheme.RS, k=1, model=model),
            PairSpec(Scheme.RS, 1, 2, model=model),
            PairSpec(Scheme.SBS, 1, 2, model=model),
            SchemeSpec(Scheme.EBS, k=2, model=model),
            SchemeSpec(Scheme.IBS, k=1, model=model),
        ]
        specs += [SchemeSpec(s, k=k, model=model) for s in (Scheme.SBS, Scheme.MMS) for k in ranks]
    return specs


# M = 2 and 7 run two blocks, the second of 4,465 trials, whose g rows end
# off a multiple of four doubles; M = 100 and 1000 cut one block in 7 and 8
@pytest.mark.parametrize("sigma_e2", [0.0, 0.3])
@pytest.mark.parametrize("M, trials, pt_dbm", [
    (2, 70_001, -40.0), (7, 70_001, -40.0), (100, 8_001, -51.0), (1000, 1_001, -55.0),
])
def test_simulate_matches_whole_block_oracle(M, trials, pt_dbm, sigma_e2):
    params = default_params(num_devices=M, transmit_power=dbm_to_watts(pt_dbm))
    values = []
    for spec in _reference_specs(M):
        cfg = TrialConfig(spec, params, num_trials=trials, base_seed=M,
                          estimation_error_var=sigma_e2)
        values.append(simulate_outage(cfg).value)
        assert values[-1] == _oracle_outage(cfg), spec
    assert sum(0.0 < v < 1.0 for v in values) >= len(values) // 2


def test_tiny_chunks_survive_many_threads(monkeypatch):
    # hundred-row chunks, each drawing its own error uniforms; with more
    # threads than cores, switching often, each must still read its own rows
    monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 700)
    monkeypatch.setenv(THREADS_ENV, "8")
    cfg = TrialConfig(PairSpec(Scheme.RS, 1, 2), P.replace(num_devices=7), num_trials=30_001,
                      base_seed=5, estimation_error_var=0.3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        value = simulate_outage(cfg).value
    finally:
        sys.setswitchinterval(interval)
    assert value == _oracle_outage(cfg)


def test_simulate_memory_is_bounded_by_the_chunk(monkeypatch):
    # four workers, the default cap, hold four chunks at once; whole-block
    # arrays at M = 100 take 16 MB each and peaked at 130-160 MB here
    monkeypatch.setenv(THREADS_ENV, "4")
    p100 = default_params(num_devices=100, transmit_power=dbm_to_watts(-51.0))
    p1000 = default_params(num_devices=1000, transmit_power=dbm_to_watts(-55.0))
    configs = [
        TrialConfig(SchemeSpec(Scheme.SBS, k=1), p100, num_trials=50_000),
        TrialConfig(PairSpec(Scheme.SBS, 1, 2), p100, num_trials=50_000),
        TrialConfig(SchemeSpec(Scheme.MMS, k=1), p100, num_trials=50_000,
                    estimation_error_var=0.3),
        TrialConfig(SchemeSpec(Scheme.SBS, k=1), p1000, num_trials=10_000),
    ]
    for cfg in configs:
        tracemalloc.start()
        try:
            simulate_outage(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, (cfg.spec, cfg.params.num_devices, peak)


def test_worker_count_sizes_the_pool_by_chunks(monkeypatch):
    seen = []
    real = montecarlo._worker_count
    monkeypatch.setattr(montecarlo, "_worker_count", lambda n: seen.append(n) or real(n))
    params = default_params(num_devices=100)
    simulate_outage(TrialConfig(SchemeSpec(Scheme.SBS, k=1), params, num_trials=20_000))
    # one block of 20,000 x 100 doubles, which needs ceil(doubles / _CHUNK_ELEMENTS) chunks
    assert seen == [-(-20_000 * 100 // montecarlo._CHUNK_ELEMENTS)]


@pytest.mark.parametrize("cap, M, trials, chunks", [
    # blocks of 65,536 and 34,464 trials need 3 and 2 chunks of 2^17 doubles
    ("1", 5, 100_000, [21_845, 21_845, 21_846, 17_232, 17_232]),
    ("2", 5, 100_000, [16_384] * 4 + [17_232] * 2),
    ("4", 5, 100_000, [13_107, 13_107, 13_107, 13_107, 13_108, 11_488, 11_488, 11_488]),
    # one block of 65,536 trials and one of 1: the small block keeps its one chunk
    ("2", 5, 65_537, [21_845, 21_845, 21_846, 1]),
    # blocks of 20,971, 20,971 and 8,058 trials need 16, 16 and 7 chunks,
    # and take 17, 16 and 7
    ("2", 100, 50_000,
     [1_233] * 7 + [1_234] * 10 + [1_310] * 5 + [1_311] * 11 + [1_151] * 6 + [1_152]),
])
def test_run_is_whole_rounds_of_the_pool(monkeypatch, cap, M, trials, chunks):
    # the chunk count is a multiple of the worker count, so no worker waits
    # alone on the last chunk; the counts do not depend on the cuts
    seen = []
    real = montecarlo._count_block
    monkeypatch.setattr(montecarlo, "_count_block", lambda cfg, x, key, n, *rest: (
        seen.append(n) or real(cfg, x, key, n, *rest)))
    monkeypatch.setenv(THREADS_ENV, cap)
    params = default_params(num_devices=M, transmit_power=dbm_to_watts(-40.0))
    cfg = TrialConfig(SchemeSpec(Scheme.EBS, k=2), params, num_trials=trials, base_seed=7)
    value = simulate_outage(cfg).value
    assert sorted(seen) == sorted(chunks) and sum(seen) == trials
    assert value == _oracle_outage(cfg)


def test_worker_count_defaults_to_usable_cpus(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _worker_count(100) == 3
    assert _worker_count(2) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
    assert _worker_count(100) == 4
    monkeypatch.setenv(THREADS_ENV, "0")
    assert _worker_count(100) == 4
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _worker_count(100) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(100) == 1


# ---------------------------------------------------------------------------
# the persistent pool and the per-worker chunk buffers
# ---------------------------------------------------------------------------

def test_import_starts_no_thread():
    src = os.path.dirname(os.path.dirname(os.path.abspath(montecarlo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = "import threading, wpcn_select; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "1"


def test_pool_starts_no_thread_after_warm_up(monkeypatch):
    # 60,000 trials at M = 5 make four chunks at a cap of 2, so both workers
    # of the pool run
    monkeypatch.setenv(THREADS_ENV, "2")
    cfg = TrialConfig(SchemeSpec(Scheme.EBS, k=2), P, num_trials=60_000, base_seed=3)
    first = [simulate_outage(cfg).value for _ in range(3)]
    threads = threading.active_count()
    pool = montecarlo._pool
    later = [simulate_outage(cfg).value for _ in range(20)]
    assert threading.active_count() == threads
    assert montecarlo._pool is pool
    assert set(first + later) == {first[0]}


def test_thread_setting_applies_at_the_next_call(monkeypatch):
    used = []
    real = montecarlo._pool_map
    monkeypatch.setattr(montecarlo, "_pool_map",
                        lambda fn, items, cap: used.append(cap) or real(fn, items, cap))
    # eight chunks, so up to eight workers could take part
    params = default_params(num_devices=100, transmit_power=dbm_to_watts(-51.0))
    cfg = TrialConfig(PairSpec(Scheme.SBS, 1, 2), params, num_trials=10_000, base_seed=5)
    values, pools = [], []
    for threads in ("1", "2", "4", "1"):
        monkeypatch.setenv(THREADS_ENV, threads)
        values.append(simulate_outage(cfg).value)
        pools.append(montecarlo._pool)
    assert used == [1, 2, 4, 1]
    assert len(set(map(id, pools))) == 4  # each change of the cap made a new pool
    assert len(set(values)) == 1 and 0.0 < values[0] < 1.0


def _worker_threads() -> int:
    return sum(t.name.startswith("wpcn-mc") for t in threading.enumerate())


def test_runs_keep_at_most_the_cap_of_threads(monkeypatch):
    # 1, 4 and 8 chunks at a cap of 2: the one pool holds no more than 2
    # threads, and a run of one chunk keeps one busy
    seen = []
    real = montecarlo._worker_count
    monkeypatch.setattr(montecarlo, "_worker_count", lambda n: seen.append(real(n)) or seen[-1])
    monkeypatch.setenv(THREADS_ENV, "2")
    p100 = default_params(num_devices=100, transmit_power=dbm_to_watts(-51.0))
    configs = [
        TrialConfig(SchemeSpec(Scheme.EBS, k=2), P, num_trials=20_000, base_seed=3),
        TrialConfig(SchemeSpec(Scheme.EBS, k=2), P, num_trials=60_000, base_seed=3),
        TrialConfig(PairSpec(Scheme.SBS, 1, 2), p100, num_trials=10_000, base_seed=5),
    ]
    for cfg in configs:
        simulate_outage(cfg)
        assert _worker_threads() <= 2
    assert seen == [1, 2, 2]


def test_concurrent_callers_share_the_pool(monkeypatch):
    # three callers at once on one pool of four workers, more than there are
    # cores, switching often: each must still get its own sequential value
    monkeypatch.setenv(THREADS_ENV, "4")
    p100 = default_params(num_devices=100, transmit_power=dbm_to_watts(-51.0))
    configs = [
        TrialConfig(PairSpec(Scheme.SBS, 1, 2), p100, num_trials=10_000, base_seed=1),
        TrialConfig(SchemeSpec(Scheme.MMS, k=2), P, num_trials=60_000, base_seed=2,
                    estimation_error_var=0.3),
        TrialConfig(SchemeSpec(Scheme.SBS, k=1), P.replace(transmit_power=dbm_to_watts(-40.0)),
                    num_trials=60_000, base_seed=2),
    ]
    sequential = [simulate_outage(cfg).value for cfg in configs]
    start = threading.Barrier(len(configs))
    results = {}

    def caller(i):
        start.wait()
        try:
            results[i] = [simulate_outage(configs[i]).value for _ in range(2)]
        except Exception as exc:  # reported by the assertion below
            results[i] = exc

    callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == {i: [v] * 2 for i, v in enumerate(sequential)}


def test_worker_buffers_carry_nothing_between_runs(monkeypatch):
    # one worker runs every config: its buffers grow for M = 1000, and the
    # runs at M = 5 and 100 then use their fronts with other shapes
    monkeypatch.setenv(THREADS_ENV, "1")
    specs = [(SchemeSpec(Scheme.SBS, k=1), 0.0), (SchemeSpec(Scheme.SBS, k=1), 0.3),
             (SchemeSpec(Scheme.MMS, k=2), 0.3), (PairSpec(Scheme.SBS, 1, 2), 0.0),
             (SchemeSpec(Scheme.EBS, k=2), 0.0), (PairSpec(Scheme.RS, 1, 2), 0.3)]
    for M, trials, pt_dbm in ((1000, 1_001, -55.0), (5, 30_001, -40.0), (100, 8_001, -51.0)):
        params = default_params(num_devices=M, transmit_power=dbm_to_watts(pt_dbm))
        for spec, sigma_e2 in specs:
            cfg = TrialConfig(spec, params, num_trials=trials, base_seed=M,
                              estimation_error_var=sigma_e2)
            assert simulate_outage(cfg).value == _oracle_outage(cfg), (M, spec, sigma_e2)


ALLOC_SPECS = {
    "sbs": (SchemeSpec(Scheme.SBS, k=1), 0.0),
    "sbs-imperfect": (SchemeSpec(Scheme.SBS, k=1), 0.3),
    "sbs-pair": (PairSpec(Scheme.SBS, 1, 2), 0.0),
    "ebs-k2": (SchemeSpec(Scheme.EBS, k=2), 0.0),
    "mms-k4": (SchemeSpec(Scheme.MMS, k=4), 0.0),
    "ibs-k5": (SchemeSpec(Scheme.IBS, k=5), 0.0),
    "ebs-k50": (SchemeSpec(Scheme.EBS, k=50), 0.0),
    "rs-pair": (PairSpec(Scheme.RS, 1, 2), 0.3),
}


# at M = 5, 20,000 trials are one chunk of 800 kB per array, and at M = 10
# 13,107 trials one chunk of 1 MiB; at M = 100 a full block is 16 chunks of
# about 1 MiB per array.  Mid ranks at M = 100 take a partition in a
# scratch array, and its (n, M) bool comparison is an eighth of a chunk.
@pytest.mark.parametrize("name, M, trials", [
    *((name, M, trials) for M, trials in ((5, 20_000), (100, _ELEMENT_BUDGET // 100))
      for name in ("sbs", "sbs-imperfect", "sbs-pair", "ebs-k2")),
    ("mms-k4", 5, 20_000),
    ("rs-pair", 5, 20_000),
    ("ibs-k5", 10, 13_107),
    *((name, 100, _ELEMENT_BUDGET // 100) for name in ("mms-k4", "ibs-k5", "ebs-k50")),
])
def test_repeated_run_allocates_less_than_one_chunk_array(monkeypatch, name, M, trials):
    spec, sigma_e2 = ALLOC_SPECS[name]
    # one worker, whose buffers the first run sizes; the second run may make
    # only row-sized arrays: the error uniforms go to the chunk's buffers
    monkeypatch.setenv(THREADS_ENV, "1")
    params = default_params(num_devices=M, transmit_power=dbm_to_watts(-40.0))
    cfg = TrialConfig(spec, params, num_trials=trials, base_seed=4, estimation_error_var=sigma_e2)
    simulate_outage(cfg)
    tracemalloc.start()
    try:
        simulate_outage(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**17, peak  # one chunk array: 2^17 doubles, 1 MiB


def _simulate_in_child(cfg, conn):
    conn.send(simulate_outage(cfg).value)
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_forked_child_makes_its_own_pool():
    # the child inherits the parent's pool but none of its threads; a submit
    # to it would wait forever
    cfg = TrialConfig(SchemeSpec(Scheme.MMS, k=2), P, num_trials=60_000, base_seed=9)
    value = simulate_outage(cfg).value
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_simulate_in_child, args=(cfg, send))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child's simulation did not finish"
        assert recv.recv() == value
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()


@pytest.mark.parametrize("raw", ["two", "2.5", "4 threads"])
def test_worker_count_rejects_a_non_integer(monkeypatch, raw):
    monkeypatch.setenv(THREADS_ENV, raw)
    with pytest.raises(ValueError, match=THREADS_ENV):
        simulate_outage(TrialConfig(SchemeSpec(Scheme.SBS, k=1), P, num_trials=100))


def test_estimation_error_degrades_outage():
    # at -20 dBm the perfect-CSI best pick essentially never fails, while a
    # 0.3 error variance produces a solidly measurable failure rate
    params = P.replace(transmit_power=dbm_to_watts(-20.0))
    spec = SchemeSpec(Scheme.SBS, k=1)
    perfect = simulate_outage(TrialConfig(spec, params, num_trials=200_000, base_seed=5))
    noisy = simulate_outage(
        TrialConfig(spec, params, num_trials=200_000, base_seed=5, estimation_error_var=0.3)
    )
    assert noisy.value == pytest.approx(0.003715, abs=5e-4)
    assert noisy.value - 3.0 * noisy.stderr > perfect.value + 3.0 * perfect.stderr


# simulate_outage values with perfect CSI at seed 17, pinned from the
# whole-block oracle summed over the blocks; any change to the random stream
# shows here.  Each lies within 4 binomial sigma of its exact outage, except
# the pairs: x = 3 here, and pair outage needs x < 1
_M5 = default_params(transmit_power=dbm_to_watts(-40.0))
_M100 = default_params(num_devices=100, transmit_power=dbm_to_watts(-51.0))
_M100_MID = default_params(num_devices=100, transmit_power=dbm_to_watts(-40.0))
FROZEN = [
    (SchemeSpec(Scheme.RS, k=1), _M5, 70_000, 0.5629),
    (SchemeSpec(Scheme.SBS, k=1), _M5, 70_000, 0.05461428571428571),
    (SchemeSpec(Scheme.SBS, k=2), _M5, 70_000, 0.2732857142857143),
    (SchemeSpec(Scheme.EBS, k=1), _M5, 70_000, 0.24618571428571429),
    (SchemeSpec(Scheme.EBS, k=2), _M5, 70_000, 0.3886857142857143),
    (SchemeSpec(Scheme.EBS, k=5), _M5, 70_000, 0.8987714285714286),
    (SchemeSpec(Scheme.IBS, k=1), _M5, 70_000, 0.2495),
    (SchemeSpec(Scheme.IBS, k=2), _M5, 70_000, 0.38884285714285716),
    (SchemeSpec(Scheme.MMS, k=1), _M5, 70_000, 0.0917),
    (SchemeSpec(Scheme.MMS, k=2), _M5, 70_000, 0.3244),
    (PairSpec(Scheme.SBS, 1, 2), _M5, 70_000, 0.7550285714285714),
    (SchemeSpec(Scheme.RS, k=1), _M100, 30_000, 0.9814666666666667),
    (PairSpec(Scheme.RS, 1, 2), _M100, 30_000, 0.9778),
    (SchemeSpec(Scheme.SBS, k=1), _M100, 30_000, 0.15056666666666665),
    (SchemeSpec(Scheme.SBS, k=2), _M100, 30_000, 0.43896666666666667),
    (SchemeSpec(Scheme.EBS, k=1), _M100, 30_000, 0.7205),
    (SchemeSpec(Scheme.EBS, k=2), _M100, 30_000, 0.7898666666666667),
    (SchemeSpec(Scheme.EBS, k=50), _M100_MID, 30_000, 0.5155333333333333),
    (SchemeSpec(Scheme.IBS, k=1), _M100, 30_000, 0.7182666666666667),
    (SchemeSpec(Scheme.IBS, k=2), _M100, 30_000, 0.7880666666666667),
    (SchemeSpec(Scheme.MMS, k=1), _M100, 30_000, 0.2850666666666667),
    (SchemeSpec(Scheme.MMS, k=2), _M100, 30_000, 0.573),
    (SchemeSpec(Scheme.MMS, k=50), _M100_MID, 30_000, 0.6694333333333333),
    (PairSpec(Scheme.SBS, 1, 2), _M100, 30_000, 0.9924666666666667),
]


def _frozen_id(case):
    spec, params = case[0], case[1]
    ranks = f"{spec.k},{spec.j}" if isinstance(spec, PairSpec) else str(spec.k)
    return f"M{params.num_devices}-{spec.scheme.value}-{ranks}"


@pytest.mark.parametrize("spec, params, trials, frozen", FROZEN, ids=map(_frozen_id, FROZEN))
def test_perfect_csi_stream_is_frozen(spec, params, trials, frozen):
    est = simulate_outage(TrialConfig(spec, params, num_trials=trials, base_seed=17))
    assert est.value == frozen
    if isinstance(spec, PairSpec):
        with pytest.raises(DomainError, match="x < 1"):
            evaluate_point(spec, params, Method.ANALYTIC)
        return
    exact = evaluate_point(spec, params, Method.ANALYTIC).value
    assert abs(frozen - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / trials)


def test_trial_config_validation():
    spec = SchemeSpec(Scheme.SBS, k=1)
    with pytest.raises(ValueError):
        TrialConfig(spec, P, num_trials=0)
    with pytest.raises(ValueError):
        TrialConfig(spec, P, base_seed=-1)
    with pytest.raises(ValueError):
        TrialConfig(spec, P, estimation_error_var=1.0)
    with pytest.raises(ValueError):
        TrialConfig(SchemeSpec(Scheme.SBS, k=6), P)
    with pytest.raises(ValueError):
        TrialConfig(PairSpec(Scheme.SBS, 1, 6), P)


def test_simulate_reports_binomial_stderr():
    cfg = TrialConfig(SchemeSpec(Scheme.RS, k=1), P, num_trials=50_000, base_seed=2)
    est = simulate_outage(cfg)
    expected = math.sqrt(est.value * (1.0 - est.value) / 50_000)
    assert est.stderr == pytest.approx(expected, rel=1e-12)
