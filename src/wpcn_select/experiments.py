"""Sweep orchestration: grids, method comparisons, and figure datasets.

Everything here funnels through ``evaluate_point`` so the analytic,
high-SNR, asymptotic, and Monte Carlo routes stay interchangeable row by
row.  Output rows follow one fixed CSV schema; floats are written with
repr() so a rerun of the same config is byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Union

import numpy as np

from . import analytic, evt
from .analytic import Method, OutageEstimate, PairSpec, Scheme, SchemeSpec
from .model import (
    EhModel,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    threshold_x,
    watts_to_dbm,
)
from .montecarlo import TrialConfig, simulate_outage
from .special import DomainError, binomial_p_value, brent_root, clopper_pearson

__all__ = [
    "CSV_COLUMNS",
    "ComparisonConfig",
    "OptimalT1",
    "SweepResult",
    "SweepSpec",
    "SweptParameter",
    "compare_methods",
    "evaluate_point",
    "find_optimal_t1",
    "make_row",
    "read_csv",
    "reproduce_figure",
    "rows_to_csv",
    "run_sweep",
    "write_csv",
    "write_json",
]

Selection = Union[SchemeSpec, PairSpec]

#: fixed output schema; j and stderr are empty when not applicable
CSV_COLUMNS = (
    "scheme", "k", "j", "M", "pt_dbm", "t1", "q_db", "sigma_n_dbm",
    "sigma_e2", "model", "method", "x_threshold", "outage", "stderr",
)


def _package_version() -> str:
    from . import __version__  # deferred: this module is imported by __init__

    return __version__


# ---------------------------------------------------------------------------
# single-point dispatch
# ---------------------------------------------------------------------------

#: (method name, scheme name or "pair") -> (module, evaluator name), for each
#: evaluator that exists.  Every one takes (x, spec, params).  Random and pair
#: selection have no extreme-value limit, so (EVT, RS) and (EVT, pair) are
#: absent.  The keys are the members' names, not the members, because an Enum
#: hashes through Python code and a str in C.  The evaluator is looked up on
#: its module at each call, so a rebound module attribute (a wrapper, a test
#: double) takes effect here as well.
_ROUTES = {
    (method.name, key): (module, template.format(key.lower()))
    for key in [s.name for s in Scheme] + ["pair"]
    for method, module, template in (
        (Method.ANALYTIC, analytic, "outage_{}"),
        (Method.HIGH_SNR, analytic, "outage_high_snr"),
        (Method.EVT, evt, "outage_evt_{}"),
    )
    if hasattr(module, template.format(key.lower()))
}


def evaluate_point(
    selection: Selection,
    params: SystemParams,
    method: Method,
    *,
    sigma_e2: float = 0.0,
    mc_trials: int = 1_000_000,
    base_seed: int = 0,
) -> OutageEstimate:
    """Outage of one (selection, system) point through the requested route."""
    if method is Method.MONTE_CARLO:
        cfg = TrialConfig(selection, params, mc_trials, base_seed, sigma_e2)
        return simulate_outage(cfg)
    if sigma_e2 != 0.0:
        raise ValueError("imperfect CSI is only modeled by the Monte Carlo route")
    key = "pair" if isinstance(selection, PairSpec) else selection.scheme._name_
    route = _ROUTES.get((method._name_, key))
    if route is None:
        kind = "pair" if key == "pair" else "random"
        raise ValueError(f"{kind} selection has no extreme-value limit")
    module, name = route
    return getattr(module, name)(threshold_x(params), selection, params)


def make_row(
    selection: Selection,
    params: SystemParams,
    sigma_e2: float,
    method: Method,
    est: OutageEstimate,
) -> dict:
    """One output row, keyed by CSV_COLUMNS, for an estimate at a point."""
    q = params.rate_threshold_q
    return {
        "scheme": selection.scheme.value,
        "k": selection.k,
        "j": selection.j if isinstance(selection, PairSpec) else None,
        "M": params.num_devices,
        "pt_dbm": watts_to_dbm(params.transmit_power),
        "t1": params.harvest_fraction,
        "q_db": linear_to_db(q) if q > 0.0 else float("-inf"),
        "sigma_n_dbm": watts_to_dbm(params.noise_variance),
        "sigma_e2": sigma_e2,
        "model": selection.model.value,
        "method": method.value,
        "x_threshold": threshold_x(params),
        "outage": est.value,
        "stderr": est.stderr,
    }


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class SweptParameter(Enum):
    TRANSMIT_POWER_DBM = "pt_dbm"
    ORDER_INDEX = "k"
    POPULATION_SIZE = "m"
    HARVEST_FRACTION = "t1"
    ESTIMATION_ERROR = "sigma_e2"


@dataclass(frozen=True)
class SweepSpec:
    """One selection rule evaluated along a grid of a single parameter."""

    selection: Selection
    swept: SweptParameter
    grid: tuple
    params: SystemParams
    methods: tuple = (Method.ANALYTIC,)
    mc_trials: int = 200_000
    base_seed: int = 0
    sigma_e2: float = 0.0

    def __post_init__(self) -> None:
        if len(self.grid) == 0:
            raise ValueError("sweep grid is empty")
        if len(self.methods) == 0:
            raise ValueError("no evaluation methods requested")


@dataclass
class SweepResult:
    rows: list
    errors: list
    metadata: dict


def _apply_swept(
    selection: Selection, params: SystemParams, swept: SweptParameter, value, sigma_e2: float
):
    if swept is SweptParameter.TRANSMIT_POWER_DBM:
        return selection, params.replace(transmit_power=dbm_to_watts(float(value))), sigma_e2
    if swept is SweptParameter.POPULATION_SIZE:
        return selection, params.replace(num_devices=int(value)), sigma_e2
    if swept is SweptParameter.HARVEST_FRACTION:
        return selection, params.replace(harvest_fraction=float(value)), sigma_e2
    if swept is SweptParameter.ESTIMATION_ERROR:
        return selection, params, float(value)
    return dataclasses.replace(selection, k=int(value)), params, sigma_e2


def run_sweep(sweep: SweepSpec) -> SweepResult:
    """Evaluate every (grid value, method) pair, recording failures per row
    instead of aborting the grid."""
    rows, errors = [], []
    for i, value in enumerate(sweep.grid):
        try:
            sel, params, sig = _apply_swept(
                sweep.selection, sweep.params, sweep.swept, value, sweep.sigma_e2
            )
        except (ValueError, ArithmeticError) as exc:
            errors.append({"index": i, "value": value, "method": None, "message": str(exc)})
            continue
        for method in sweep.methods:
            try:
                est = evaluate_point(
                    sel, params, method,
                    sigma_e2=sig, mc_trials=sweep.mc_trials, base_seed=sweep.base_seed + i,
                )
            except (ValueError, ArithmeticError) as exc:
                errors.append(
                    {"index": i, "value": value, "method": method.value, "message": str(exc)}
                )
            else:
                rows.append(make_row(sel, params, sig, method, est))
    metadata = {
        "swept": sweep.swept.value,
        "grid": [float(v) for v in sweep.grid],
        "methods": [m.value for m in sweep.methods],
        "mc_trials": sweep.mc_trials,
        "base_seed": sweep.base_seed,
        "sigma_e2": sweep.sigma_e2,
        "selection": _selection_meta(sweep.selection),
        "fixed": _params_meta(sweep.params),
        "version": _package_version(),
    }
    return SweepResult(rows, errors, metadata)


def _selection_meta(selection: Selection) -> dict:
    meta = {"scheme": selection.scheme.value, "k": selection.k, "model": selection.model.value}
    if isinstance(selection, PairSpec):
        meta["j"] = selection.j
    return meta


def _params_meta(params: SystemParams) -> dict:
    return {
        "pt_dbm": watts_to_dbm(params.transmit_power),
        "sigma_n_dbm": watts_to_dbm(params.noise_variance),
        "t1": params.harvest_fraction,
        "q": params.rate_threshold_q,
        "M": params.num_devices,
        "rectenna": [params.rectenna.a, params.rectenna.b, params.rectenna.c],
    }


# ---------------------------------------------------------------------------
# optimal harvesting time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimalT1:
    t1: float
    outage: OutageEstimate


def find_optimal_t1(scheme: Scheme, k: int, params: SystemParams) -> OptimalT1:
    """Harvest fraction t1* minimizing the outage, and the analytic outage there.

    t1 reaches the outage only through the threshold: a device fails when
    h phi(Pt g) < sigma_n^2 theta(t1), theta = (2^(Q/t2) - 1) t2/t1, for
    either harvester phi.  No selection rule depends on t1 (SBS ranks SNRs
    that t1 scales by one common factor), so every scheme's outage is
    nondecreasing in theta, and t1* = argmin theta is the same for every
    scheme, k, M, Pt, sigma_n^2 and rectenna: it depends on Q alone.  A
    pair's SINR adds the noise to the interference, so it is not a function
    of theta, and pairs are not taken here.

    With c = Q ln 2 and u = c/t2 - c, stationarity is u = 1 - e^(-(c + u)),
    one root in [0, 1] (w = c + u is a Lambert W form: Corless et al., Adv.
    Comput. Math. 5, 1996), found by special.brent_root; t1* = u/(c + u).
    Solving for u rather than w keeps the digits that w - c would cancel:
    t1* is within 1e-15 relative of a 60-digit root from Q = 1e-30 to 1e100.
    Below about Q = 1e-32, t1* rounds to 1, which SystemParams rejects; the
    largest double below 1 is returned, within one ulp of t1*.  Q = 0 makes
    theta vanish and Q = inf makes it infinite, so every t1 gives the same
    outage and there is no unique optimum: DomainError.
    """
    q = params.rate_threshold_q
    if not 0.0 < q < math.inf:
        raise DomainError(f"every t1 gives the same outage at Q = {q!r}: no unique optimum")
    c = q * math.log(2.0)
    u = brent_root(lambda u: u + math.expm1(-(c + u)), 0.0, 1.0, 1e-300, 8.9e-16, 200)
    t_star = min(u / (c + u), math.nextafter(1.0, 0.0))
    best = evaluate_point(SchemeSpec(scheme, k=k), params.replace(harvest_fraction=t_star),
                          Method.ANALYTIC)
    return OptimalT1(t_star, best)


# ---------------------------------------------------------------------------
# method comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonConfig:
    selection: Selection
    params: SystemParams
    methods: tuple = (Method.ANALYTIC, Method.MONTE_CARLO)
    mc_trials: int = 1_000_000
    base_seed: int = 0
    sigma_e2: float = 0.0
    abs_tolerance: float = 5e-3
    sigma_tolerance: float = 3.0

    def __post_init__(self) -> None:
        if len(self.methods) < 2:
            raise ValueError("comparison needs at least two methods")


def compare_methods(config: ComparisonConfig) -> dict:
    """Pairwise agreement report between evaluation routes at one point.

    A pair passes when the gap is within sigma_tolerance Monte Carlo standard
    errors or within abs_tolerance, whichever is larger; deterministic pairs
    use abs_tolerance alone.  A Monte Carlo value against another route also
    reports the two-sided exact binomial p-value of its failure count at the
    other route's outage and its 95% Clopper-Pearson interval; neither
    changes the verdict.
    """
    estimates = {}
    for method in config.methods:
        estimates[method] = evaluate_point(
            config.selection, config.params, method,
            sigma_e2=config.sigma_e2, mc_trials=config.mc_trials,
            base_seed=config.base_seed,
        )
    pairs = []
    for m1, m2 in itertools.combinations(config.methods, 2):
        e1, e2 = estimates[m1], estimates[m2]
        gap = abs(e1.value - e2.value)
        var = sum(e.stderr ** 2 for e in (e1, e2) if e.stderr is not None)
        se = math.sqrt(var)
        z = gap / se if se > 0.0 else None
        limit = max(config.sigma_tolerance * se, config.abs_tolerance)
        p_value = interval = None
        if (m1 is Method.MONTE_CARLO) != (m2 is Method.MONTE_CARLO):
            # the failure count against the other route's outage, exactly
            mc, other = (e1, e2) if m1 is Method.MONTE_CARLO else (e2, e1)
            failures = round(mc.value * config.mc_trials)
            p_value = binomial_p_value(failures, config.mc_trials, other.value)
            interval = list(clopper_pearson(failures, config.mc_trials))
        pairs.append({
            "methods": [m1.value, m2.value],
            "gap": gap,
            "z_score": z,
            "limit": limit,
            "passed": gap <= limit,
            "p_value": p_value,
            "interval_95": interval,
        })
    return {
        "selection": _selection_meta(config.selection),
        "fixed": _params_meta(config.params),
        "sigma_e2": config.sigma_e2,
        "x_threshold": threshold_x(config.params),
        "estimates": {
            m.value: {"outage": e.value, "stderr": e.stderr} for m, e in estimates.items()
        },
        "pairs": pairs,
        "all_match": all(p["passed"] for p in pairs),
    }


def format_comparison(report: dict) -> str:
    sel = report["selection"]
    j = f" j={sel['j']}" if "j" in sel else ""
    lines = [
        f"point: scheme={sel['scheme']} k={sel['k']}{j} M={report['fixed']['M']}"
        f" model={sel['model']} x={report['x_threshold']:.6g}"
    ]
    for name, est in report["estimates"].items():
        se = "" if est["stderr"] is None else f"  (stderr {est['stderr']:.3e})"
        lines.append(f"  {name:10s} {est['outage']:.6e}{se}")
    for p in report["pairs"]:
        verdict = "ok" if p["passed"] else "MISMATCH"
        z = "" if p["z_score"] is None else f"  z={p['z_score']:.2f}"
        exact = "" if p["p_value"] is None else (
            "  p={:.3g}  95% CI [{:.4e}, {:.4e}]".format(p["p_value"], *p["interval_95"]))
        lines.append(
            f"  {p['methods'][0]} vs {p['methods'][1]}: gap {p['gap']:.3e}"
            f" (limit {p['limit']:.3e}){z}{exact}  {verdict}"
        )
    lines.append("result: " + ("all methods agree" if report["all_match"] else "disagreement"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(row[col]) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_csv(rows, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(rows_to_csv(rows))
    return path


_INT_COLUMNS = {"k", "j", "M"}
_STR_COLUMNS = {"scheme", "model", "method"}


def read_csv(path) -> list:
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {reader.fieldnames!r}")
        for raw in reader:
            row = {}
            for col in CSV_COLUMNS:
                text = raw[col]
                if text == "":
                    row[col] = None
                elif col in _STR_COLUMNS:
                    row[col] = text
                elif col in _INT_COLUMNS:
                    row[col] = int(text)
                else:
                    row[col] = float(text)
            rows.append(row)
    return rows


def write_json(obj, path) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# figure datasets
# ---------------------------------------------------------------------------

_ALL_SCHEMES = (Scheme.RS, Scheme.SBS, Scheme.EBS, Scheme.IBS, Scheme.MMS)
_RANKED_SCHEMES = (Scheme.SBS, Scheme.EBS, Scheme.IBS, Scheme.MMS)


def _params_for_x(params: SystemParams, x: float) -> SystemParams:
    # invert x = 2^(q/t2) - 1 so the threshold column matches the grid value
    q = params.comm_fraction * math.log2(1.0 + x)
    return params.replace(rate_threshold_q=q)


class _FigurePoint(NamedTuple):
    """A figure point: its deterministic rows, then one Monte Carlo row per sigma_e2."""

    selection: Selection
    params: SystemParams
    methods: tuple = (Method.ANALYTIC,)
    mc_sigma_e2: tuple = (0.0,)


def _figure_rows(points, trials: int, seed: int) -> list:
    """Every point's rows in order; the n-th Monte Carlo row is seeded seed + n."""
    rows = []
    n = 0
    for sel, p, methods, sigmas in points:
        for method in methods:
            rows.append(make_row(sel, p, 0.0, method, evaluate_point(sel, p, method)))
        if trials > 0:
            for sig in sigmas:
                est = evaluate_point(
                    sel, p, Method.MONTE_CARLO,
                    sigma_e2=sig, mc_trials=trials, base_seed=seed + n,
                )
                rows.append(make_row(sel, p, sig, Method.MONTE_CARLO, est))
                n += 1
    return rows


def _fig_outage_vs_power(params: SystemParams, k: int):
    grid = list(range(-40, 25, 5))
    points = [
        _FigurePoint(SchemeSpec(scheme, k=k, model=model),
                     params.replace(transmit_power=dbm_to_watts(pt)))
        for scheme, model, pt in itertools.product(
            _ALL_SCHEMES, (EhModel.NON_LINEAR, EhModel.LINEAR), grid
        )
    ]
    meta = {"pt_dbm_grid": grid, "k": k, "schemes": [s.value for s in _ALL_SCHEMES],
            "models": ["nonlinear", "linear"]}
    return points, meta


def _fig_outage_vs_k(params: SystemParams, M: int):
    p0 = params.replace(num_devices=M, transmit_power=dbm_to_watts(-10.0))
    points = [
        _FigurePoint(SchemeSpec(scheme, k=k), p0)
        for scheme, k in itertools.product(_RANKED_SCHEMES, range(1, M + 1))
    ]
    meta = {"M": M, "k_grid": list(range(1, M + 1)), "pt_dbm": -10.0,
            "schemes": [s.value for s in _RANKED_SCHEMES]}
    return points, meta


def _fig_pair(params: SystemParams):
    p0 = params.replace(
        transmit_power=dbm_to_watts(-40.0), rate_threshold_q=db_to_linear(-4.0)
    )
    points = [
        _FigurePoint(PairSpec(Scheme.SBS, k=k, j=j), p0.replace(num_devices=M), mc_sigma_e2=())
        for M in (10, 20, 30) for k in (1, 2) for j in range(3, M + 1)
    ]
    meta = {"M_grid": [10, 20, 30], "k_grid": [1, 2], "j": "3..M",
            "q_db": -4.0, "pt_dbm": -40.0}
    return points, meta


def _fig_evt(params: SystemParams):
    p0 = params.replace(transmit_power=dbm_to_watts(-40.0))
    x_grid = np.geomspace(0.1, 3.0, 30)
    points = [
        _FigurePoint(SchemeSpec(scheme, k=k), _params_for_x(p0.replace(num_devices=M), float(x)),
                     (Method.ANALYTIC, Method.EVT), mc_sigma_e2=())
        for scheme, k, M in itertools.product(
            _RANKED_SCHEMES, (1, 2), (10, 20, 50, 100, 200, 500, 1000)
        )
        for x in x_grid
    ]
    meta = {"M_grid": [10, 20, 50, 100, 200, 500, 1000], "k_grid": [1, 2],
            "x_grid": [float(x) for x in x_grid], "pt_dbm": -40.0,
            "schemes": [s.value for s in _RANKED_SCHEMES]}
    return points, meta


def _fig_harvest_time(params: SystemParams):
    p0 = params.replace(transmit_power=dbm_to_watts(-10.0))
    t1_grid = [round(0.05 * i, 2) for i in range(1, 20)]
    sigma_grid = (0.0, 0.2, 0.5)
    points = [
        _FigurePoint(SchemeSpec(scheme, k=2), p0.replace(harvest_fraction=t1),
                     mc_sigma_e2=sigma_grid)
        for scheme, t1 in itertools.product(_RANKED_SCHEMES, t1_grid)
    ]
    meta = {"t1_grid": t1_grid, "sigma_e2_grid": list(sigma_grid), "k": 2,
            "pt_dbm": -10.0, "schemes": [s.value for s in _RANKED_SCHEMES]}
    return points, meta


_FIGURES = {
    "fig2a": lambda p: _fig_outage_vs_power(p, 2),
    "fig2b": lambda p: _fig_outage_vs_power(p, 4),
    "fig3a": lambda p: _fig_outage_vs_k(p, 10),
    "fig3b": lambda p: _fig_outage_vs_k(p, 20),
    "fig4": _fig_pair,
    "fig5": _fig_evt,
    "fig6": _fig_harvest_time,
}


def reproduce_figure(
    figure_id: str,
    out_dir=".",
    trials: int = 100_000,
    seed: int = 0,
):
    """Regenerate one figure's dataset as <id>.csv plus a .meta.json sidecar.

    trials=0 skips the Monte Carlo overlays.  Output carries no timestamps,
    so identical inputs give byte-identical files.
    """
    key = figure_id.lower().replace("-", "").replace("_", "")
    if key not in _FIGURES:
        raise ValueError(f"unknown figure {figure_id!r}; pick from {sorted(_FIGURES)}")
    points, meta = _FIGURES[key](SystemParams())
    rows = _figure_rows(points, trials, seed)
    meta.update({
        "figure": key,
        "trials": trials,
        "base_seed": seed,
        "version": _package_version(),
    })
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = write_csv(rows, out_dir / f"{key}.csv")
    meta_path = write_json(meta, out_dir / f"{key}.meta.json")
    return csv_path, meta_path
