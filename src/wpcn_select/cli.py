"""Command line front end.

Power and noise are taken in dBm and the rate threshold in dB here, at the
boundary; everything past argument parsing works in SI units.  Settings
resolve as: command line flag, then INI config file (sections [system],
[scheme], [run]), then the built-in defaults.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

from .analytic import Method, PairSpec, Scheme, SchemeSpec
from .experiments import (
    ComparisonConfig,
    SweepSpec,
    SweptParameter,
    compare_methods,
    evaluate_point,
    find_optimal_t1,
    format_comparison,
    make_row,
    reproduce_figure,
    rows_to_csv,
    run_sweep,
    write_csv,
    write_json,
)
from .model import EhModel, SystemParams, db_to_linear, dbm_to_watts

_SWEEP_PARAMS = {
    "pt-dbm": SweptParameter.TRANSMIT_POWER_DBM,
    "k": SweptParameter.ORDER_INDEX,
    "m": SweptParameter.POPULATION_SIZE,
    "t1": SweptParameter.HARVEST_FRACTION,
    "sigma-e2": SweptParameter.ESTIMATION_ERROR,
}

_DEFAULTS = {
    "pt_dbm": -10.0,
    "noise_dbm": -50.0,
    "t1": 0.5,
    "q_db": 0.0,
    "m": 5,
    "scheme": "sbs",
    "k": 1,
    "j": None,
    "model": "nonlinear",
    "method": "analytic",
    "trials": 1_000_000,
    "seed": 0,
    "sigma_e2": 0.0,
    "format": "text",
}


def _load_config(path: str) -> dict:
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    flat = {}
    for section in ("system", "scheme", "run"):
        if cp.has_section(section):
            flat.update(dict(cp.items(section)))
    return flat


class _Settings:
    """flag > config file > default, with the file's strings cast lazily."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = _load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, cast):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        raw = self.cfg.get(name, "")
        if raw != "":
            return cast(raw)
        default = _DEFAULTS[name]
        return default

    def params(self) -> SystemParams:
        return SystemParams(
            transmit_power=dbm_to_watts(self.get("pt_dbm", float)),
            noise_variance=dbm_to_watts(self.get("noise_dbm", float)),
            harvest_fraction=self.get("t1", float),
            rate_threshold_q=db_to_linear(self.get("q_db", float)),
            num_devices=self.get("m", int),
        )

    def selection(self):
        scheme = Scheme[self.get("scheme", str).upper()]
        model = EhModel(self.get("model", str).lower())
        k = self.get("k", int)
        j = getattr(self.args, "j", None)
        if j is None and self.cfg.get("j", "") != "":
            j = int(self.cfg["j"])
        if j is not None:
            return PairSpec(scheme, k=k, j=int(j), model=model)
        return SchemeSpec(scheme, k=k, model=model)

    def method(self) -> Method:
        return Method(self.get("method", str).lower())


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_grid(text: str) -> tuple:
    """Comma list ("1,2,5") or inclusive range ("start:stop:step")."""
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        if step <= 0:
            raise ValueError("grid step must be positive")
        values, v = [], start
        while v <= stop + 1e-12 * max(1.0, abs(step)):
            values.append(round(v, 12))
            v += step
        return tuple(values)
    return tuple(float(p) for p in text.split(","))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_compute(args) -> int:
    st = _Settings(args)
    params, sel, method = st.params(), st.selection(), st.method()
    est = evaluate_point(
        sel, params, method,
        sigma_e2=st.get("sigma_e2", float),
        mc_trials=st.get("trials", int),
        base_seed=st.get("seed", int),
    )
    row = make_row(sel, params, st.get("sigma_e2", float), method, est)
    fmt = st.get("format", str)
    if fmt == "json":
        _emit(json.dumps(row, indent=2, sort_keys=True), args.out)
    elif fmt == "csv":
        _emit(rows_to_csv([row]), args.out)
    else:
        se = "" if est.stderr is None else f" +- {est.stderr:.3e}"
        _emit(
            f"outage {est.value:.6e}{se}  "
            f"[scheme {row['scheme']} k {row['k']} M {row['M']} "
            f"x {row['x_threshold']:.6g} method {row['method']}]",
            args.out,
        )
    return 0


def _cmd_sweep(args) -> int:
    st = _Settings(args)
    methods = tuple(Method(m.strip().lower()) for m in st.get("method", str).split(","))
    sweep = SweepSpec(
        selection=st.selection(),
        swept=_SWEEP_PARAMS[args.sweep_param],
        grid=_parse_grid(args.grid),
        params=st.params(),
        methods=methods,
        mc_trials=st.get("trials", int),
        base_seed=st.get("seed", int),
        sigma_e2=st.get("sigma_e2", float),
    )
    result = run_sweep(sweep)
    for err in result.errors:
        print(
            f"warning: grid point {err['value']!r} ({err['method']}): {err['message']}",
            file=sys.stderr,
        )
    fmt = st.get("format", str)
    if fmt == "json":
        payload = {"rows": result.rows, "errors": result.errors, "metadata": result.metadata}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        if args.out:
            write_csv(result.rows, args.out)
            write_json(result.metadata, str(args.out) + ".meta.json")
        else:
            _emit(rows_to_csv(result.rows), None)
    return 0


def _cmd_simulate(args) -> int:
    args.method = "mc"  # this subcommand is the Monte Carlo route by definition
    return _cmd_compute(args)


def _cmd_compare(args) -> int:
    st = _Settings(args)
    methods = tuple(Method(m.strip().lower()) for m in st.get("method", str).split(","))
    report = compare_methods(ComparisonConfig(
        selection=st.selection(),
        params=st.params(),
        methods=methods,
        mc_trials=st.get("trials", int),
        base_seed=st.get("seed", int),
        sigma_e2=st.get("sigma_e2", float),
        abs_tolerance=args.abs_tol,
        sigma_tolerance=args.sigma_tol,
    ))
    if st.get("format", str) == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    else:
        _emit(format_comparison(report), args.out)
    return 0 if report["all_match"] else 1


def _cmd_reproduce(args) -> int:
    st = _Settings(args)
    csv_path, meta_path = reproduce_figure(
        args.figure,
        out_dir=args.out or ".",
        trials=st.get("trials", int),
        seed=st.get("seed", int),
    )
    print(f"wrote {csv_path}")
    print(f"wrote {meta_path}")
    return 0


def _cmd_find_t1(args) -> int:
    st = _Settings(args)
    scheme = Scheme[st.get("scheme", str).upper()]
    res = find_optimal_t1(scheme, st.get("k", int), st.params())
    if st.get("format", str) == "json":
        payload = {
            "scheme": scheme.value,
            "k": st.get("k", int),
            "t1": res.t1,
            "outage": res.outage.value,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit(
            f"optimal t1 {res.t1:.6f}  outage {res.outage.value:.6e}  "
            f"[scheme {scheme.value} k {st.get('k', int)}]",
            args.out,
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scheme", choices=["rs", "sbs", "ebs", "ibs", "mms"],
                     type=str.lower, help="selection rule")
    sub.add_argument("--k", type=int, help="order index: pick the k-th best")
    sub.add_argument("--j", type=int, help="second order index (pair selection)")
    sub.add_argument("--model", choices=["nonlinear", "linear"], type=str.lower,
                     help="energy harvester model")
    sub.add_argument("--method", help="evaluation route(s): analytic, highsnr, evt, mc "
                                      "(comma list where multiple make sense)")
    sub.add_argument("--pt-dbm", type=float, dest="pt_dbm", help="transmit power [dBm]")
    sub.add_argument("--t1", type=float, help="harvesting fraction of the slot")
    sub.add_argument("--q-db", type=float, dest="q_db", help="rate threshold [dB]")
    sub.add_argument("--noise-dbm", type=float, dest="noise_dbm", help="noise power [dBm]")
    sub.add_argument("--m", type=int, help="number of devices")
    sub.add_argument("--sigma-e2", type=float, dest="sigma_e2",
                     help="channel estimation error variance (Monte Carlo only)")
    sub.add_argument("--trials", type=int, help="Monte Carlo trials")
    sub.add_argument("--seed", type=int, help="Monte Carlo base seed")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--format", choices=["text", "csv", "json"], type=str.lower,
                     help="output format")
    sub.add_argument("--config", help="INI file with [system]/[scheme]/[run] sections")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpcn-select",
        description="Outage analysis of device selection in wireless powered networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate one outage point")
    _add_common(p)
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("sweep", help="evaluate along a parameter grid")
    _add_common(p)
    p.add_argument("--sweep-param", required=True, choices=sorted(_SWEEP_PARAMS),
                   dest="sweep_param", help="which parameter the grid runs over")
    p.add_argument("--grid", required=True,
                   help='grid values: "a,b,c" or "start:stop:step"')
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of one point")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("compare", help="cross-check evaluation routes at one point")
    _add_common(p)
    p.add_argument("--abs-tol", type=float, default=5e-3, dest="abs_tol",
                   help="absolute gap allowed between deterministic routes")
    p.add_argument("--sigma-tol", type=float, default=3.0, dest="sigma_tol",
                   help="allowed gap in Monte Carlo standard errors")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("reproduce-figure", help="regenerate a figure dataset")
    _add_common(p)
    p.add_argument("figure", help="figure id: fig2a fig2b fig3a fig3b fig4 fig5 fig6")
    p.set_defaults(handler=_cmd_reproduce)

    p = sub.add_parser("find-t1", help="optimal harvesting fraction for a scheme")
    _add_common(p)
    p.set_defaults(handler=_cmd_find_t1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
