"""Checks for the experiment layer: sweeps, comparisons, datasets, CLI.

Serialization must be byte-deterministic (repr floats, fixed header, no
timestamps); sweeps must capture per-point failures instead of aborting;
the harvest-fraction optimizer must land on the known interior optimum.
"""

import json
import math

import pytest

import wpcn_select.experiments as experiments
from wpcn_select.analytic import Method, OutageEstimate, PairSpec, Scheme, SchemeSpec
from wpcn_select.cli import main as cli_main
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
from wpcn_select.model import EhModel, db_to_linear, dbm_to_watts, default_params

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
    assert evaluate_point(pair, params, Method.EVT).value <= a.value


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
    # every route refuses the (M + 1)-th best; RS has no extreme-value route at all
    selection, params = BEYOND_POPULATION[case]
    with pytest.raises(ValueError, match="exceeds|extreme-value"):
        evaluate_point(selection, params, method, mc_trials=1_000)


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
    got = [find_optimal_t1(s, 2, P).t1 for s in (Scheme.SBS, Scheme.MMS)]
    assert abs(got[0] - got[1]) < 0.02


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
    assert "all methods agree" in text
    assert report["all_match"] is True


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
    assert "all methods agree" in capsys.readouterr().out
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
