"""Checks for the experiment layer: sweeps, comparisons, datasets, CLI.

Serialization must be byte-deterministic (repr floats, fixed header, no
timestamps); sweeps must capture per-point failures instead of aborting;
the optimal harvest fraction must match a 60-digit root, be the same for
every scheme and k, and give no more outage than any other t1.
"""

import argparse
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import wpcn_select.experiments as experiments
from wpcn_select.analytic import (
    Method,
    OutageEstimate,
    PairSpec,
    Scheme,
    SchemeSpec,
    order_stat_law,
)
from wpcn_select.cli import build_parser
from wpcn_select.cli import main as cli_main
from wpcn_select.evt import gumbel_kth_cdf, gumbel_law
from wpcn_select.experiments import (
    CSV_COLUMNS,
    ComparisonConfig,
    SweepSpec,
    SweptParameter,
    compare_methods,
    evaluate_point,
    find_optimal_t1,
    format_comparison,
    make_row,
    read_csv,
    reproduce_figure,
    rows_to_csv,
    run_sweep,
    write_csv,
    write_json,
)
from wpcn_select.model import (
    EhModel,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    default_params,
    threshold_x,
)
from wpcn_select.montecarlo import TrialConfig
from wpcn_select.special import DomainError, binomial_p_value, clopper_pearson

P = default_params()

# Q = -4 dB keeps the pair threshold below 1, where the pair routes are defined
P_PAIR = default_params(
    num_devices=10,
    transmit_power=dbm_to_watts(-40.0),
    rate_threshold_q=db_to_linear(-4.0),
)


# ---------------------------------------------------------------------------
# evaluate_point dispatch
# ---------------------------------------------------------------------------

def test_evaluate_point_analytic_matches_direct_call():
    from wpcn_select.analytic import outage_ebs

    sel = SchemeSpec(Scheme.EBS, k=2)
    got = evaluate_point(sel, P, Method.ANALYTIC)
    assert got.value == outage_ebs(3.0, sel, P).value
    assert got.stderr is None


def test_evaluate_point_mc_carries_stderr():
    got = evaluate_point(
        SchemeSpec(Scheme.RS, k=1), P, Method.MONTE_CARLO, mc_trials=20_000
    )
    assert got.method is Method.MONTE_CARLO
    assert got.stderr is not None and got.stderr > 0.0


def test_evaluate_point_high_snr_and_evt():
    sel = SchemeSpec(Scheme.SBS, k=2)
    assert evaluate_point(sel, P, Method.HIGH_SNR).method is Method.HIGH_SNR
    params = P.replace(num_devices=20, transmit_power=dbm_to_watts(-40.0))
    got = evaluate_point(SchemeSpec(Scheme.SBS, k=2), params, Method.EVT)
    assert got.method is Method.EVT


def test_evaluate_point_pair_routes():
    params = default_params(
        num_devices=10,
        transmit_power=dbm_to_watts(-40.0),
        rate_threshold_q=db_to_linear(-4.0),
    )
    pair = PairSpec(Scheme.SBS, 1, 3)
    a = evaluate_point(pair, params, Method.ANALYTIC)
    assert a.value == pytest.approx(0.00023501526047497304, rel=1e-8)
    assert evaluate_point(pair, params, Method.HIGH_SNR).method is Method.HIGH_SNR
    # the paper states no pair limit, so there is no extreme-value route
    with pytest.raises(ValueError, match="pair selection has no extreme-value limit"):
        evaluate_point(pair, params, Method.EVT)


def test_evaluate_point_rejects_impossible_requests():
    with pytest.raises(ValueError):
        evaluate_point(SchemeSpec(Scheme.SBS, k=1), P, Method.ANALYTIC, sigma_e2=0.2)
    with pytest.raises(ValueError):
        evaluate_point(SchemeSpec(Scheme.RS, k=1), P, Method.EVT)
    with pytest.raises(ValueError):
        evaluate_point(
            SchemeSpec(Scheme.SBS, k=1, model=EhModel.LINEAR), P, Method.EVT
        )


# selection name -> (the (M + 1)-th best, its system)
BEYOND_POPULATION = {
    **{s.value: (SchemeSpec(s, k=P.num_devices + 1), P) for s in Scheme},
    "pair": (PairSpec(Scheme.SBS, 1, P_PAIR.num_devices + 1), P_PAIR),
}


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize("case", list(BEYOND_POPULATION))
def test_evaluate_point_rejects_order_index_beyond_population(method, case):
    # every route refuses the (M + 1)-th best; RS and pairs have no
    # extreme-value route at all
    selection, params = BEYOND_POPULATION[case]
    with pytest.raises(ValueError, match="exceeds|extreme-value"):
        evaluate_point(selection, params, method, mc_trials=1_000)


# a bool is an int, but no count: M = True was written to CSV as "True",
# which read_csv could not parse back
BOOL_COUNTS = {
    "num_devices": lambda: SystemParams(num_devices=True),
    "num_trials": lambda: TrialConfig(SchemeSpec(Scheme.SBS), P, num_trials=True),
    "base_seed": lambda: TrialConfig(SchemeSpec(Scheme.SBS), P, base_seed=True),
    "gumbel_k": lambda: gumbel_kth_cdf(0.0, True),
}


@pytest.mark.parametrize("case", list(BOOL_COUNTS))
def test_bool_is_refused_as_a_count(case):
    with pytest.raises(ValueError, match="integer"):
        BOOL_COUNTS[case]()


@pytest.mark.parametrize("route", sorted(experiments._ROUTES), ids="-".join)
def test_nan_threshold_is_refused_on_every_route(route):
    # a nan x passed every gate of the MMS integral and came out as outage 0;
    # the other routes raised, but each its own way.  The HIGH_SNR routes are
    # outage_high_snr, for every scheme and the pair
    module, name = experiments._ROUTES[route]
    key = route[1]
    selection = PairSpec(Scheme.SBS, 1, 3) if key == "pair" else SchemeSpec(Scheme[key])
    with pytest.raises(DomainError, match="threshold x must be a number, got nan"):
        getattr(module, name)(math.nan, selection, P_PAIR)


@pytest.mark.parametrize("scheme", list(Scheme) + ["pair"], ids=str)
def test_high_snr_floor_refuses_linear_harvester(scheme):
    # the linear harvester never saturates, so it has no floor to report
    if scheme == "pair":
        selection, params = PairSpec(Scheme.SBS, 1, 3, model=EhModel.LINEAR), P_PAIR
    else:
        selection, params = SchemeSpec(scheme, k=2, model=EhModel.LINEAR), P
    with pytest.raises(ValueError, match="nonlinear harvester"):
        evaluate_point(selection, params, Method.HIGH_SNR)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_power_sweep_shape_and_order():
    sweep = SweepSpec(
        selection=SchemeSpec(Scheme.EBS, k=2),
        swept=SweptParameter.TRANSMIT_POWER_DBM,
        grid=(-20.0, -10.0, 0.0),
        params=P,
    )
    res = run_sweep(sweep)
    assert res.errors == []
    assert len(res.rows) == 3
    assert [row["pt_dbm"] for row in res.rows] == [-20.0, -10.0, 0.0]
    assert all(tuple(row) == CSV_COLUMNS for row in res.rows)
    assert all(row["stderr"] is None for row in res.rows)
    assert res.metadata["swept"] == "pt_dbm"
    assert res.metadata["methods"] == ["analytic"]
    assert "version" in res.metadata


def test_sweep_each_parameter_lands_in_rows():
    cases = [
        (SweptParameter.ORDER_INDEX, (1, 2), "k", [1, 2]),
        (SweptParameter.POPULATION_SIZE, (5, 8), "M", [5, 8]),
        (SweptParameter.HARVEST_FRACTION, (0.3, 0.6), "t1", [0.3, 0.6]),
    ]
    for swept, grid, column, expected in cases:
        res = run_sweep(
            SweepSpec(SchemeSpec(Scheme.SBS, k=1), swept, grid, P)
        )
        assert res.errors == []
        assert [row[column] for row in res.rows] == expected


def test_estimation_error_sweep_runs_through_mc():
    res = run_sweep(
        SweepSpec(
            SchemeSpec(Scheme.SBS, k=1),
            SweptParameter.ESTIMATION_ERROR,
            (0.0, 0.3),
            P.replace(transmit_power=dbm_to_watts(-20.0)),
            methods=(Method.MONTE_CARLO,),
            mc_trials=20_000,
        )
    )
    assert res.errors == []
    assert [row["sigma_e2"] for row in res.rows] == [0.0, 0.3]
    assert all(row["stderr"] is not None for row in res.rows)


def test_sweep_records_errors_instead_of_aborting():
    # RS has no extreme-value limit: every grid point must fail, softly
    res = run_sweep(
        SweepSpec(
            SchemeSpec(Scheme.RS, k=1),
            SweptParameter.TRANSMIT_POWER_DBM,
            (-10.0, 0.0),
            P,
            methods=(Method.EVT,),
        )
    )
    assert res.rows == []
    assert len(res.errors) == 2
    assert all(err["method"] == "evt" for err in res.errors)
    assert all("extreme-value" in err["message"] for err in res.errors)


def test_sweep_mixes_good_and_bad_points():
    # k = 6 exceeds the five-device population; its row fails, the rest pass
    res = run_sweep(
        SweepSpec(
            SchemeSpec(Scheme.SBS, k=1),
            SweptParameter.ORDER_INDEX,
            (1, 6, 2),
            P,
        )
    )
    assert len(res.rows) == 2
    assert len(res.errors) == 1
    assert res.errors[0]["index"] == 1


# ---------------------------------------------------------------------------
# harvest-fraction optimizer
# ---------------------------------------------------------------------------

def test_find_optimal_t1_lands_on_interior_optimum():
    best = find_optimal_t1(Scheme.SBS, 2, P)
    assert abs(best.t1 - 0.5256) < 0.02
    for endpoint in (0.05, 0.95):
        endpoint_outage = evaluate_point(
            SchemeSpec(Scheme.SBS, k=2),
            P.replace(harvest_fraction=endpoint),
            Method.ANALYTIC,
        ).value
        assert best.outage.value < endpoint_outage


def test_find_optimal_t1_agrees_across_schemes():
    # t1* depends on Q alone, so every scheme and order index gets the same bits
    for params in (P, P_PAIR, default_params(num_devices=100, transmit_power=dbm_to_watts(20.0))):
        got = {find_optimal_t1(s, k, params).t1 for s in Scheme for k in (1, 2, 3)}
        assert len(got) == 1


# t1* = u/(c + u), u + expm1(-(c + u)) = 0, c = Q ln 2: a 60-digit bisection of
# that equation at each double Q (mpmath, 260 halvings of [0, 1]), which
# agrees with the Lambert W form 1 - c/w, w = 1 + c + W0(-e^-(1+c)), to 1e-47
# or better wherever mpmath's lambertw returns
OPTIMAL_T1_ORACLE = {
    1e-30: "0.9999999999999994112949887",
    1e-12: "0.9999994112951042667927537",
    1e-6: "0.999411410513271466002286",
    1e-3: "0.9814990365767444802719276",
    0.25: "0.73446415428991889786886",
    1.0: "0.5256270778632690210721085",
    4.0: "0.2604553781747435472436322",
    20.0: "0.06728140124369773083762087",
    100.0: "0.01422177358662888271637991",
    1e3: "0.001440616670362809012293436",
    1e5: "0.00001442674227499427089963299",
    1e16: "1.442695040888963199223027e-16",
    1e100: "1.442695040888963384416903e-100",
}


@pytest.mark.parametrize("q", sorted(OPTIMAL_T1_ORACLE))
def test_optimal_t1_matches_a_60_digit_root(q):
    got = find_optimal_t1(Scheme.RS, 1, P.replace(rate_threshold_q=q)).t1
    assert got == pytest.approx(float(OPTIMAL_T1_ORACLE[q]), rel=1e-15, abs=0)


def test_optimal_t1_solve_holds_over_the_double_range():
    # the root converges from the smallest subnormal Q to the largest double,
    # and t1* falls as the rate requirement rises
    stars = [find_optimal_t1(Scheme.RS, 1, P.replace(rate_threshold_q=float(q))).t1
             for q in np.geomspace(5e-324, 1.7e308, 400)]
    assert all(0.0 < t < 1.0 for t in stars)
    assert all(a >= b for a, b in zip(stars, stars[1:]))
    assert stars[-1] < 1e-307


def test_optimal_t1_at_the_edges_of_q():
    # Q = 0 and Q = inf leave every t1 with the same outage: no optimum
    for q in (0.0, math.inf):
        with pytest.raises(DomainError, match="no unique optimum"):
            find_optimal_t1(Scheme.SBS, 1, P.replace(rate_threshold_q=q))
    # below Q ~ 1e-32 t1* = 1 - sqrt(Q ln 2 / 2) + ... rounds to 1; the
    # largest double below 1 is within one ulp of it
    for q in (1e-33, 1e-100, 5e-324):
        assert find_optimal_t1(Scheme.SBS, 1, P.replace(rate_threshold_q=q)).t1 == \
            math.nextafter(1.0, 0.0)


T1_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
RANKED = (Scheme.SBS, Scheme.EBS, Scheme.IBS, Scheme.MMS)


def test_outage_at_optimal_t1_is_below_every_grid_t1():
    # the outage rises with theta(t1), so no grid point beats t1*, on either
    # harvester, wherever it does not underflow to the same 0 or saturate at 1
    runs = 0
    for scheme, k, M, pt in itertools.product(RANKED, (1, 2), (5, 20, 100),
                                              (-50.0, -40.0, -30.0, -10.0, 10.0)):
        params = default_params(num_devices=M, transmit_power=dbm_to_watts(pt))
        best = find_optimal_t1(scheme, k, params)
        for model in EhModel:
            spec = SchemeSpec(scheme, k, model)
            at_star = evaluate_point(spec, params.replace(harvest_fraction=best.t1),
                                     Method.ANALYTIC).value
            if model is EhModel.NON_LINEAR:
                assert at_star == best.outage.value
            for t1 in T1_GRID:
                other = evaluate_point(spec, params.replace(harvest_fraction=t1),
                                       Method.ANALYTIC).value
                assert at_star <= other, (scheme, k, M, pt, model, t1)
        runs += 1
    assert runs == 120


def _same_theta(params: SystemParams, t1: float) -> SystemParams:
    """params moved to harvest fraction t1, with Q chosen so that the scaled
    threshold theta = (2^(Q/t2) - 1) t2/t1 stays the same."""
    theta = threshold_x(params) * params.comm_fraction / params.harvest_fraction
    t2 = 1.0 - t1
    return params.replace(harvest_fraction=t1,
                          rate_threshold_q=t2 * math.log1p(theta * t1 / t2) / math.log(2.0))


@pytest.mark.parametrize("M, pt", [(5, -40.0), (20, -10.0), (100, -30.0)])
def test_outage_depends_on_t1_only_through_theta(M, pt):
    a = default_params(num_devices=M, transmit_power=dbm_to_watts(pt),
                       harvest_fraction=0.3, rate_threshold_q=0.5)
    b = _same_theta(a, 0.7)
    assert threshold_x(b) > 5.0 * threshold_x(a)  # a different x, the same theta
    for scheme, k, model in itertools.product(Scheme, (1, 2), EhModel):
        spec = SchemeSpec(scheme, k, model)
        va, vb = (evaluate_point(spec, p, Method.ANALYTIC).value for p in (a, b))
        assert vb == pytest.approx(va, rel=1e-10, abs=1e-12), (scheme, k, model)
    # a pair's SINR Y/(Z + 1) carries the noise beside the interference: in
    # theta's units the stronger member fails when Y' < x Z' + theta, so the
    # outage still moves with x, and find_optimal_t1 takes no pair
    pa = a.replace(rate_threshold_q=0.2)
    pb = _same_theta(pa, 0.6)
    assert threshold_x(pb) < 1.0
    for model in EhModel:
        spec = PairSpec(Scheme.SBS, 1, 2, model)
        va, vb = (evaluate_point(spec, p, Method.ANALYTIC).value for p in (pa, pb))
        assert vb > 2.0 * va, model


# ---------------------------------------------------------------------------
# method comparison
# ---------------------------------------------------------------------------

def test_compare_methods_analytic_vs_mc_passes():
    report = compare_methods(
        ComparisonConfig(
            selection=SchemeSpec(Scheme.RS, k=1),
            params=P,
            mc_trials=100_000,
        )
    )
    assert report["all_match"] is True
    (pair,) = report["pairs"]
    assert pair["passed"] is True
    assert abs(pair["z_score"]) < 3.0
    # the exact binomial test of the same count, and the interval around it
    mc = report["estimates"]["mc"]["outage"]
    assert pair["p_value"] == binomial_p_value(round(mc * 100_000), 100_000,
                                               report["estimates"]["analytic"]["outage"])
    assert 0.01 < pair["p_value"] <= 1.0
    lo, hi = pair["interval_95"]
    assert lo < mc < hi and (lo, hi) == clopper_pearson(round(mc * 100_000), 100_000)


def test_compare_methods_flags_disagreement():
    report = compare_methods(
        ComparisonConfig(
            selection=SchemeSpec(Scheme.EBS, k=2),
            params=P,
            methods=(Method.ANALYTIC, Method.HIGH_SNR),
            abs_tolerance=1e-12,
        )
    )
    # at -10 dBm the floor is orders below the exact value
    assert report["all_match"] is False


def test_format_comparison_is_readable():
    report = compare_methods(
        ComparisonConfig(
            selection=SchemeSpec(Scheme.SBS, k=2),
            params=P.replace(transmit_power=dbm_to_watts(60.0)),
            methods=(Method.ANALYTIC, Method.HIGH_SNR),
        )
    )
    text = format_comparison(report)
    assert "analytic" in text and "highsnr" in text
    assert "ok" in text
    # a pair of exact routes has no binomial test
    assert report["pairs"][0]["p_value"] is None and "p=" not in text
    assert "all methods agree" in text
    assert report["all_match"] is True


def test_format_comparison_header_names_the_pair_and_the_harvester():
    pair = P.replace(rate_threshold_q=db_to_linear(-4.0), transmit_power=dbm_to_watts(-40.0))
    header = {
        name: format_comparison(compare_methods(
            ComparisonConfig(selection=selection, params=pair, mc_trials=2_000)
        )).splitlines()[0]
        for name, selection in (
            ("single", SchemeSpec(Scheme.SBS, k=1)),
            ("pair", PairSpec(Scheme.SBS, 1, 2)),
            ("linear", SchemeSpec(Scheme.SBS, k=1, model=EhModel.LINEAR)),
        )
    }
    x = f"{threshold_x(pair):.6g}"
    assert header["single"] == f"point: scheme=SBS k=1 M=5 model=nonlinear x={x}"
    assert header["pair"] == f"point: scheme=SBS k=1 j=2 M=5 model=nonlinear x={x}"
    assert header["linear"] == f"point: scheme=SBS k=1 M=5 model=linear x={x}"


def test_comparison_config_needs_two_methods():
    with pytest.raises(ValueError):
        ComparisonConfig(SchemeSpec(Scheme.SBS, k=1), P, methods=(Method.ANALYTIC,))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _sample_rows():
    res = run_sweep(
        SweepSpec(
            SchemeSpec(Scheme.EBS, k=2),
            SweptParameter.TRANSMIT_POWER_DBM,
            (-20.0, -10.0),
            P,
            methods=(Method.ANALYTIC, Method.HIGH_SNR),
        )
    )
    return res.rows


def test_csv_round_trip_is_lossless(tmp_path):
    rows = _sample_rows()
    path = write_csv(rows, tmp_path / "sample.csv")
    back = read_csv(path)
    assert back == rows


def test_csv_is_byte_deterministic(tmp_path):
    rows = _sample_rows()
    a = write_csv(rows, tmp_path / "a.csv").read_bytes()
    b = write_csv(rows, tmp_path / "b.csv").read_bytes()
    assert a == b
    assert a.decode().splitlines()[0] == ",".join(CSV_COLUMNS)
    # repr floats survive the trip exactly
    assert rows_to_csv(rows).encode() == a


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_bool_order_index_never_reaches_a_csv_cell(tmp_path):
    # k=True once evaluated as k = 1 and wrote a `True` cell read_csv cannot parse
    with pytest.raises(ValueError):
        SchemeSpec(Scheme.SBS, k=True)
    with pytest.raises(ValueError):
        PairSpec(Scheme.SBS, k=True, j=2)
    p = P.replace(rate_threshold_q=db_to_linear(-4.0))  # x < 1, so the pair is defined
    rows = [make_row(sel, p, 0.0, Method.ANALYTIC, evaluate_point(sel, p, Method.ANALYTIC))
            for sel in (SchemeSpec(Scheme.SBS, k=1), PairSpec(Scheme.SBS, k=1, j=2))]
    back = read_csv(write_csv(rows, tmp_path / "k.csv"))
    assert [(row["k"], row["j"]) for row in back] == [(1, None), (1, 2)]
    assert back == rows


def test_csv_none_and_int_round_trip(tmp_path):
    rows = _sample_rows()
    assert rows[0]["j"] is None
    assert rows[0]["stderr"] is None
    back = read_csv(write_csv(rows, tmp_path / "t.csv"))
    assert back[0]["j"] is None
    assert isinstance(back[0]["k"], int) and isinstance(back[0]["M"], int)
    assert isinstance(back[0]["outage"], float)


def test_write_json_is_deterministic(tmp_path):
    obj = {"b": 2.0, "a": [1, 2], "nested": {"z": 1, "y": 2}}
    a = write_json(obj, tmp_path / "a.json").read_text()
    b = write_json(obj, tmp_path / "b.json").read_text()
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == obj
    assert a.index('"a"') < a.index('"b"')  # sorted keys


# ---------------------------------------------------------------------------
# figure datasets
# ---------------------------------------------------------------------------

def test_reproduce_power_figure_analytic_only(tmp_path):
    csv_path, meta_path = reproduce_figure("fig2a", out_dir=tmp_path, trials=0)
    rows = read_csv(csv_path)
    # 13 power points x 5 schemes x 2 harvester models, no MC overlay
    assert len(rows) == 130
    assert {row["method"] for row in rows} == {"analytic"}
    assert {row["model"] for row in rows} == {"nonlinear", "linear"}
    meta = json.loads(meta_path.read_text())
    assert meta["figure"] == "fig2a"
    assert meta["trials"] == 0


def test_reproduce_harvest_time_figure_with_mc(tmp_path):
    csv_path, _ = reproduce_figure("fig6", out_dir=tmp_path, trials=2_000, seed=1)
    rows = read_csv(csv_path)
    sigmas = {row["sigma_e2"] for row in rows if row["method"] == "mc"}
    assert sigmas == {0.0, 0.2, 0.5}
    assert any(row["method"] == "analytic" for row in rows)


def test_reproduce_figure_is_byte_identical(tmp_path):
    a, _ = reproduce_figure("fig3a", out_dir=tmp_path / "one", trials=0)
    b, _ = reproduce_figure("fig3a", out_dir=tmp_path / "two", trials=0)
    assert a.read_bytes() == b.read_bytes()


def test_fig5_bytes_do_not_depend_on_the_law_caches(tmp_path):
    # the ranked laws are memoized and pure: two runs in one process and a
    # third after clearing both caches write the same bytes
    runs = []
    for name in ("one", "two", "cleared"):
        if name == "cleared":
            order_stat_law.cache_clear()
            gumbel_law.cache_clear()
        csv_path, meta_path = reproduce_figure("fig5", out_dir=tmp_path / name, trials=0)
        runs.append((csv_path.read_bytes(), meta_path.read_bytes()))
    assert runs[0] == runs[1] == runs[2]


FIGURE_ROWS = {
    "fig2a": 130, "fig2b": 130, "fig3a": 40, "fig3b": 80, "fig4": 108, "fig5": 3360, "fig6": 76,
}


@pytest.mark.parametrize("figure", sorted(FIGURE_ROWS))
def test_reproduce_figure_row_counts(tmp_path, figure):
    csv_path, meta_path = reproduce_figure(figure, out_dir=tmp_path, trials=0)
    assert len(read_csv(csv_path)) == FIGURE_ROWS[figure]
    assert json.loads(meta_path.read_text())["figure"] == figure


@pytest.mark.parametrize("figure, mc_rows", [("fig2a", 130), ("fig6", 76 * 3)])
def test_reproduce_figure_seeds_mc_rows_in_row_order(tmp_path, monkeypatch, figure, mc_rows):
    def fake_simulation(cfg):
        # the seed comes back as the stderr, so each row names its own seed
        return OutageEstimate(0.5, Method.MONTE_CARLO, float(cfg.base_seed))

    monkeypatch.setattr(experiments, "simulate_outage", fake_simulation)
    csv_path, _ = reproduce_figure(figure, out_dir=tmp_path, trials=100, seed=7)
    seeds = [row["stderr"] for row in read_csv(csv_path) if row["method"] == "mc"]
    assert seeds == [float(s) for s in range(7, 7 + mc_rows)]


def test_reproduce_figure_unknown_id(tmp_path):
    with pytest.raises(ValueError):
        reproduce_figure("fig99", out_dir=tmp_path)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_compute_text(capsys):
    rc = cli_main(["compute", "--scheme", "ebs", "--k", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "outage 5.455118e-04" in out
    assert "scheme EBS" in out


def test_cli_compute_json(capsys):
    rc = cli_main(["compute", "--scheme", "sbs", "--k", "2", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outage"] == pytest.approx(1.044245540046734e-09)
    assert payload["scheme"] == "SBS"


def test_cli_compute_csv_single_method_only(capsys):
    rc = cli_main(["compute", "--scheme", "sbs", "--k", "2", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    # compute evaluates one route; comma lists belong to sweep and compare
    rc = cli_main(["compute", "--scheme", "sbs", "--method", "analytic,highsnr"])
    assert rc == 2


def test_cli_bad_point_exits_2(capsys):
    rc = cli_main(["compute", "--scheme", "sbs", "--k", "7"])  # k > default M
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_high_snr_linear_exits_2(capsys):
    rc = cli_main(["compute", "--scheme", "sbs", "--model", "linear", "--method", "highsnr"])
    assert rc == 2
    assert "nonlinear harvester" in capsys.readouterr().err


def test_cli_linear_pair_at_infinite_power_is_no_outage(capsys):
    # both scales of the linear pair are 0 at Pt = inf, which divided by zero
    rc = cli_main(["compute", "--scheme", "sbs", "--k", "1", "--j", "3", "--model", "linear",
                   "--pt-dbm", "inf", "--q-db", "-4", "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["outage"] == 0.0


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli_main(

        ["sweep", "--scheme", "ibs", "--k", "1", "--sweep-param", "pt-dbm",
         "--grid=-20,-10,0", "--out", str(out), "--format", "csv"]
    )
    assert rc == 0
    rows = read_csv(out)
    assert [row["pt_dbm"] for row in rows] == [-20.0, -10.0, 0.0]


def test_cli_simulate_is_mc(capsys):
    rc = cli_main(
        ["simulate", "--scheme", "rs", "--trials", "20000", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "mc"
    assert payload["stderr"] is not None


def test_cli_compare_pass_and_fail(capsys):
    rc = cli_main(
        ["compare", "--scheme", "rs", "--method", "analytic,mc",
         "--trials", "50000"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "all methods agree" in out and " p=" in out and "95% CI [" in out
    rc = cli_main(
        ["compare", "--scheme", "ebs", "--k", "2", "--method", "analytic,highsnr",
         "--abs-tol", "1e-12"]
    )
    assert rc == 1


def test_cli_find_t1(capsys):
    rc = cli_main(["find-t1", "--scheme", "sbs", "--k", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    t1 = float(out.split("t1 ")[1].split()[0])
    assert abs(t1 - 0.5256) < 0.02


def test_cli_reproduce_figure(tmp_path, capsys):
    rc = cli_main(
        ["reproduce-figure", "fig4", "--out", str(tmp_path), "--trials", "0"]
    )
    assert rc == 0
    assert (tmp_path / "fig4.csv").exists()
    assert (tmp_path / "fig4.meta.json").exists()


def test_cli_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[system]\npt_dbm = -20\n\n[scheme]\nscheme = ebs\nk = 2\n"
    )
    # file sets the scheme and power; the explicit flag overrides k
    rc = cli_main(
        ["compute", "--config", str(cfg), "--k", "1", "--format", "json"]
    )
    assert rc == 0
    row = json.loads(capsys.readouterr().out)
    assert row["scheme"] == "EBS"
    assert row["k"] == 1
    assert row["pt_dbm"] == -20.0



# each command's settings, by group, and its --format choices, the default first
SYSTEM_FLAGS = {"--pt-dbm", "--t1", "--q-db", "--noise-dbm", "--m"}
SELECTION_FLAGS = {"--scheme", "--k", "--j", "--model"}
RUN_FLAGS = {"--method", "--sigma-e2", "--trials", "--seed"}
OUTPUT_FLAGS = {"--format", "--out", "--config"}
ALL_FLAGS = SYSTEM_FLAGS | SELECTION_FLAGS | RUN_FLAGS | OUTPUT_FLAGS
COMMAND_SETTINGS = {
    "compute": (ALL_FLAGS, ["text", "csv", "json"]),
    "sweep": (ALL_FLAGS, ["csv", "json"]),
    "simulate": (ALL_FLAGS - {"--method"}, ["text", "csv", "json"]),
    "compare": (ALL_FLAGS, ["text", "json"]),
    "find-t1": ({"--scheme", "--k", "--pt-dbm", "--noise-dbm", "--q-db", "--m"} | OUTPUT_FLAGS,
                ["text", "json"]),
    "reproduce-figure": ({"--trials", "--seed", "--out", "--config"}, None),
}
COMMAND_OPTIONS = {"sweep": {"--sweep-param", "--grid"}, "compare": {"--abs-tol", "--sigma-tol"}}
FLAG_VALUES = {"--scheme": "ebs", "--model": "linear", "--method": "mc", "--format": "json",
               "--t1": "0.5", "--pt-dbm": "30", "--noise-dbm": "-60", "--q-db": "3",
               "--sigma-e2": "0.1"}
REMOVED_FLAGS = [(command, flag) for command, (flags, _) in COMMAND_SETTINGS.items()
                 for flag in sorted(ALL_FLAGS - flags)]
COMMAND_ARGS = {"reproduce-figure": ["fig4"]}


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_cli_commands_take_only_the_settings_they_read():
    subcommands = _subcommands()
    assert set(subcommands) == set(COMMAND_SETTINGS)
    for command, (flags, formats) in COMMAND_SETTINGS.items():
        actions = {s: a for a in subcommands[command]._actions for s in a.option_strings}
        assert set(actions) - {"-h", "--help"} == flags | COMMAND_OPTIONS.get(command, set())
        fmt = actions.get("--format")
        assert formats == (None if fmt is None else list(fmt.choices))
        assert fmt is None or fmt.default == formats[0]
    assert sum(len(flags) for flags, _ in COMMAND_SETTINGS.values()) == 76
    assert len(REMOVED_FLAGS) == 20


# command -> what its --out help must say: reproduce-figure writes into a
# directory, and a csv sweep writes a metadata file beside its --out
OUT_HELP = {
    "reproduce-figure": "--out OUT directory for <figure>.csv and .meta.json (default: .)",
    "sweep": "--out OUT output file (default: stdout); --format csv also writes <out>.meta.json",
    "compute": "--out OUT output file (default: stdout) --config",
}


@pytest.mark.parametrize("command", list(OUT_HELP))
def test_cli_out_help_says_what_out_names(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "-h"])
    assert exc.value.code == 0
    assert OUT_HELP[command] in " ".join(capsys.readouterr().out.split())

@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_cli_refuses_a_setting_the_command_does_not_read(command, flag, capsys):
    argv = [command, *COMMAND_ARGS.get(command, []), flag, FLAG_VALUES.get(flag, "1")]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command, fmt", [("find-t1", "csv"), ("compare", "csv"),
                                          ("sweep", "text")])
def test_cli_refuses_a_format_the_command_does_not_write(command, fmt, capsys):
    sweep_args = ["--sweep-param", "k", "--grid", "1"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        cli_main([command, *sweep_args, "--format", fmt])
    assert exc.value.code == 2
    assert f"invalid choice: {fmt!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, offenders", [
    pytest.param("compute", "[system]\npt-dbm = -20\n\n[scheme]\nschem = ebs\n\n[bogus]\nx = 1\n",
                 ["'schem'", "[bogus]"], id="typo-file"),
    pytest.param("compute", "[scheme]\nschem = ebs\n", ["'schem'"], id="unknown-key"),
    pytest.param("compute", "[bogus]\n", ["[bogus]"], id="unknown-section"),
    pytest.param("compute", "[DEFAULT]\nk = 2\n", ["[DEFAULT]"], id="default-section"),
    pytest.param("compute", "[system]\nk = 2\n", ["[system] has no key 'k'"],
                 id="key-in-another-section"),
    pytest.param("compute", "[output]\nout = run.csv\n", ["'out'"], id="flag-only-key"),
    pytest.param("find-t1", "[scheme]\nmodel = linear\n", ["find-t1 does not take 'model'"],
                 id="find-t1-model"),
    pytest.param("find-t1", "[system]\nt1 = 0.3\n", ["find-t1 does not take 't1'"],
                 id="find-t1-t1"),
    pytest.param("simulate", "[run]\nmethod = analytic\n", ["simulate does not take 'method'"],
                 id="simulate-method"),
    pytest.param("reproduce-figure", "[system]\npt_dbm = 30\n",
                 ["reproduce-figure does not take 'pt-dbm'"], id="reproduce-figure-power"),
])
def test_cli_config_file_refuses_what_the_command_does_not_take(
        tmp_path, capsys, command, text, offenders):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    rc = cli_main([command, *COMMAND_ARGS.get(command, []), "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for offender in offenders:
        assert offender in err


def test_cli_config_file_takes_flag_names_and_checks_values(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\npt-dbm = -20\n[output]\nformat = json\n")
    assert cli_main(["compute", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["pt_dbm"] == -20.0
    # a value goes through its flag's own checks
    cfg.write_text("[output]\nformat = text\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--config", str(cfg), "--sweep-param", "k", "--grid", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'text'" in capsys.readouterr().err
    missing = tmp_path / "missing.ini"
    assert cli_main(["compute", "--config", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_cli_find_t1_names_the_model(capsys):
    assert cli_main(["find-t1", "--scheme", "ebs"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("[scheme EBS k 1 model nonlinear]")
    assert cli_main(["find-t1", "--scheme", "ebs", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "nonlinear"
    linear = evaluate_point(SchemeSpec(Scheme.EBS, model=EhModel.LINEAR),
                            P.replace(harvest_fraction=payload["t1"]), Method.ANALYTIC)
    assert payload["outage"] == find_optimal_t1(Scheme.EBS, 1, P).outage.value
    assert payload["outage"] != linear.value

# a fresh interpreter evaluates one point on every route, then the two that run
# the root finder: the SBS extreme-value constants and the optimal t1
COLD_PROBE = """
import json, sys
import wpcn_select, wpcn_select.cli
def loaded():
    return sorted(m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules)
after_import = loaded()
from wpcn_select.analytic import Method, PairSpec, Scheme, SchemeSpec
from wpcn_select.experiments import evaluate_point, find_optimal_t1
from wpcn_select.model import db_to_linear, dbm_to_watts, default_params
p = default_params(num_devices=10, transmit_power=dbm_to_watts(-40.0),
                   rate_threshold_q=db_to_linear(-4.0))
ranked = [Scheme.SBS, Scheme.EBS, Scheme.IBS, Scheme.MMS]
for scheme in [Scheme.RS] + ranked:
    evaluate_point(SchemeSpec(scheme), p, Method.ANALYTIC)
    evaluate_point(SchemeSpec(scheme), p, Method.HIGH_SNR)
for scheme in ranked[1:]:
    evaluate_point(SchemeSpec(scheme), p, Method.EVT)
evaluate_point(PairSpec(Scheme.SBS, 1, 2), p, Method.ANALYTIC)
evaluate_point(SchemeSpec(Scheme.RS), p, Method.MONTE_CARLO, mc_trials=1000)
after_points = loaded()
evt_sbs = evaluate_point(SchemeSpec(Scheme.SBS, k=2), p, Method.EVT).value
after_evt_sbs = loaded()
t1 = find_optimal_t1(Scheme.MMS, 1, default_params())
after_t1 = loaded()
print(json.dumps([after_import, after_points, after_evt_sbs, after_t1,
                  evt_sbs, t1.t1, t1.outage.value]))
"""


def test_no_route_loads_scipy_integrate_or_optimize():
    # every quadrature runs on the package's own panel kernel, and the one
    # root finder is the package's own port of Brent's method, which solves
    # for the SBS extreme-value quantiles and the optimal t1; so neither the
    # command line nor any route, those two included, loads scipy's
    # integrators or optimizers, and the two give the in-process values exactly
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", COLD_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    *loaded, evt_sbs, t1, t1_outage = json.loads(out.stdout)
    assert loaded == [[], [], [], []]  # after import, points, SBS EVT, optimal t1
    assert evt_sbs == evaluate_point(SchemeSpec(Scheme.SBS, k=2), P_PAIR, Method.EVT).value
    best = find_optimal_t1(Scheme.MMS, 1, P)
    assert (t1, t1_outage) == (best.t1, best.outage.value)


# a fresh interpreter builds the command line's parser, then runs Monte Carlo
# points of every scheme, an SBS pair and imperfect CSI, then one
# deterministic point of the route named in argv
SPECIAL_PROBE = """
import json, sys
import wpcn_select, wpcn_select.cli
from wpcn_select.analytic import Method, PairSpec, Scheme, SchemeSpec
from wpcn_select.experiments import evaluate_point
from wpcn_select.model import db_to_linear, dbm_to_watts, default_params
def loaded():
    return "scipy.special" in sys.modules
wpcn_select.cli.build_parser().format_help()
after_import = loaded()
p = default_params(num_devices=10, transmit_power=dbm_to_watts(-40.0),
                   rate_threshold_q=db_to_linear(-4.0))
run = dict(mc_trials=2000, base_seed=7)
mc = [evaluate_point(SchemeSpec(s), p, Method.MONTE_CARLO, **run).value for s in Scheme]
mc.append(evaluate_point(PairSpec(Scheme.SBS, 1, 3), p, Method.MONTE_CARLO, **run).value)
mc.append(evaluate_point(SchemeSpec(Scheme.EBS), p, Method.MONTE_CARLO, sigma_e2=0.3, **run).value)
after_mc = loaded()
exact = evaluate_point(SchemeSpec(Scheme.SBS, k=2), p, Method[sys.argv[1]]).value
print(json.dumps([after_import, after_mc, loaded(), mc, exact]))
"""


@pytest.mark.parametrize("method", [Method.ANALYTIC, Method.HIGH_SNR, Method.EVT],
                         ids=lambda m: m.value)
def test_only_a_special_function_loads_scipy_special(method):
    # importing scipy.special costs more than the rest of the package, and
    # neither the command line's parsing nor a Monte Carlo run evaluates a
    # special function; the first deterministic value loads it, and every
    # value equals the in-process one
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", SPECIAL_PROBE, method.name], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    *loaded, mc, exact = json.loads(out.stdout)
    assert loaded == [False, False, True]  # after the parser, Monte Carlo, one value
    run = dict(mc_trials=2000, base_seed=7)
    assert mc == [
        *(evaluate_point(SchemeSpec(s), P_PAIR, Method.MONTE_CARLO, **run).value for s in Scheme),
        evaluate_point(PairSpec(Scheme.SBS, 1, 3), P_PAIR, Method.MONTE_CARLO, **run).value,
        evaluate_point(SchemeSpec(Scheme.EBS), P_PAIR, Method.MONTE_CARLO, sigma_e2=0.3,
                       **run).value,
    ]
    assert exact == evaluate_point(SchemeSpec(Scheme.SBS, k=2), P_PAIR, method).value
