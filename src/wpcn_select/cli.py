"""Command line front end.

Power and noise are taken in dBm and the rate threshold in dB here, at the
boundary; everything past argument parsing works in SI units.  Each command
takes only the settings its handler reads (_COMMANDS); any other flag is an
error.  Settings resolve as: command line flag, then INI config file, then
the built-in defaults, where an unset system setting keeps the SystemParams
default.  The file's sections are the groups of _SETTINGS and its keys are
the command's flag names; any other section or key is an error.
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


def dbm(text: str) -> float:
    """A power given in dBm, in watts."""
    return dbm_to_watts(float(text))


def db(text: str) -> float:
    """A ratio given in dB, on the linear scale."""
    return db_to_linear(float(text))


# Every setting, by group; each group is one INI section.  A system setting's
# dest is its SystemParams field, and it has no default of its own.
_SETTINGS = {
    "system": {
        "pt-dbm": dict(type=dbm, dest="transmit_power", metavar="DBM", help="transmit power"),
        "t1": dict(type=float, dest="harvest_fraction", metavar="T1",
                   help="harvesting fraction of the slot"),
        "q-db": dict(type=db, dest="rate_threshold_q", metavar="DB", help="rate threshold"),
        "noise-dbm": dict(type=dbm, dest="noise_variance", metavar="DBM", help="noise power"),
        "m": dict(type=int, dest="num_devices", metavar="M", help="number of devices"),
    },
    "scheme": {
        "scheme": dict(choices=["rs", "sbs", "ebs", "ibs", "mms"], type=str.lower,
                       default="sbs", help="selection rule"),
        "k": dict(type=int, default=1, help="order index: pick the k-th best"),
        "j": dict(type=int, help="second order index (pair selection)"),
        "model": dict(choices=["nonlinear", "linear"], type=str.lower, default="nonlinear",
                      help="energy harvester model"),
    },
    "run": {
        "method": dict(default="analytic", help="evaluation route(s): analytic, highsnr, evt, "
                                                "mc (comma list where multiple make sense)"),
        "sigma-e2": dict(type=float, default=0.0,
                         help="channel estimation error variance (Monte Carlo only)"),
        "trials": dict(type=int, default=1_000_000, help="Monte Carlo trials"),
        "seed": dict(type=int, default=0, help="Monte Carlo base seed"),
    },
    "output": {
        "format": dict(type=str.lower, help="output format"),
        "out": dict(help="output file (default: stdout)"),
        "config": dict(help="INI file with [system], [scheme], [run] and [output] sections"),
    },
}
_FLAG_ONLY = ("out", "config")  # where the output and the file itself are
# --out help where --out is not a single output file
_OUT_HELP = {"sweep": "output file (default: stdout); --format csv also writes <out>.meta.json",
             "reproduce-figure": "directory for <figure>.csv and .meta.json (default: .)"}
_ALL = [name for group in _SETTINGS.values() for name in group]


def _config_flags(args: argparse.Namespace) -> list:
    """The INI file's settings as flags, once every section and key in it is
    one of the command's settings."""
    cp = configparser.ConfigParser(default_section="")  # [DEFAULT] is one more section
    cp.optionxform = lambda key: key.lower().replace("_", "-")
    with open(args.config) as fh:
        cp.read_file(fh)
    taken = _COMMANDS[args.command][2]
    flags, bad = [], []
    for section in cp.sections():
        if section not in _SETTINGS:
            bad.append(f"unknown section [{section}]")
            continue
        for key, value in cp.items(section):
            if key not in _SETTINGS[section] or key in _FLAG_ONLY:
                bad.append(f"[{section}] has no key {key!r}")
            elif key not in taken:
                bad.append(f"{args.command} does not take {key!r}")
            else:
                flags.append(f"--{key}={value}")
    if bad:
        raise ValueError(f"{args.config}: " + "; ".join(bad))
    return flags


def _params(args) -> SystemParams:
    fields = [spec["dest"] for spec in _SETTINGS["system"].values()]
    given = {f: getattr(args, f, None) for f in fields}
    return SystemParams(**{f: v for f, v in given.items() if v is not None})


def _selection(args) -> SchemeSpec | PairSpec:
    scheme, model = Scheme[args.scheme.upper()], EhModel(args.model)
    if args.j is not None:
        return PairSpec(scheme, k=args.k, j=args.j, model=model)
    return SchemeSpec(scheme, k=args.k, model=model)


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
    params, sel, method = _params(args), _selection(args), Method(args.method.lower())
    est = evaluate_point(
        sel, params, method,
        sigma_e2=args.sigma_e2,
        mc_trials=args.trials,
        base_seed=args.seed,
    )
    row = make_row(sel, params, args.sigma_e2, method, est)
    if args.format == "json":
        _emit(json.dumps(row, indent=2, sort_keys=True), args.out)
    elif args.format == "csv":
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
    sweep = SweepSpec(
        selection=_selection(args),
        swept=_SWEEP_PARAMS[args.sweep_param],
        grid=_parse_grid(args.grid),
        params=_params(args),
        methods=tuple(Method(m.strip().lower()) for m in args.method.split(",")),
        mc_trials=args.trials,
        base_seed=args.seed,
        sigma_e2=args.sigma_e2,
    )
    result = run_sweep(sweep)
    for err in result.errors:
        print(
            f"warning: grid point {err['value']!r} ({err['method']}): {err['message']}",
            file=sys.stderr,
        )
    if args.format == "json":
        payload = {"rows": result.rows, "errors": result.errors, "metadata": result.metadata}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        if args.out:
            write_csv(result.rows, args.out)
            write_json(result.metadata, str(args.out) + ".meta.json")
        else:
            _emit(rows_to_csv(result.rows), None)
    return 0


def _cmd_compare(args) -> int:
    report = compare_methods(ComparisonConfig(
        selection=_selection(args),
        params=_params(args),
        methods=tuple(Method(m.strip().lower()) for m in args.method.split(",")),
        mc_trials=args.trials,
        base_seed=args.seed,
        sigma_e2=args.sigma_e2,
        abs_tolerance=args.abs_tol,
        sigma_tolerance=args.sigma_tol,
    ))
    if args.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    else:
        _emit(format_comparison(report), args.out)
    return 0 if report["all_match"] else 1


def _cmd_reproduce(args) -> int:
    csv_path, meta_path = reproduce_figure(
        args.figure,
        out_dir=args.out or ".",
        trials=args.trials,
        seed=args.seed,
    )
    print(f"wrote {csv_path}")
    print(f"wrote {meta_path}")
    return 0


def _cmd_find_t1(args) -> int:
    scheme = Scheme[args.scheme.upper()]
    res = find_optimal_t1(scheme, args.k, _params(args))
    model = SchemeSpec(scheme).model.value  # the harvester find_optimal_t1 evaluates
    if args.format == "json":
        payload = {
            "scheme": scheme.value,
            "k": args.k,
            "model": model,
            "t1": res.t1,
            "outage": res.outage.value,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit(
            f"optimal t1 {res.t1:.6f}  outage {res.outage.value:.6e}  "
            f"[scheme {scheme.value} k {args.k} model {model}]",
            args.out,
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# command: (help, handler, settings taken, --format choices with the default first)
_COMMANDS = {
    "compute": ("evaluate one outage point", _cmd_compute, _ALL, ("text", "csv", "json")),
    "sweep": ("evaluate along a parameter grid", _cmd_sweep, _ALL, ("csv", "json")),
    "simulate": ("Monte Carlo estimate of one point", _cmd_compute,
                 [name for name in _ALL if name != "method"], ("text", "csv", "json")),
    "compare": ("cross-check evaluation routes at one point", _cmd_compare, _ALL,
                ("text", "json")),
    "reproduce-figure": ("regenerate a figure dataset", _cmd_reproduce,
                         ["trials", "seed", "out", "config"], ()),
    "find-t1": ("optimal harvesting fraction for a scheme", _cmd_find_t1,
                ["scheme", "k", "pt-dbm", "noise-dbm", "q-db", "m", "format", "out", "config"],
                ("text", "json")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpcn-select",
        description="Outage analysis of device selection in wireless powered networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, handler, taken, formats) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.set_defaults(handler=handler)
        for group in _SETTINGS.values():
            for name, spec in group.items():
                if name in taken:
                    fmt = dict(choices=formats, default=formats[0]) if name == "format" else {}
                    if name == "out":
                        spec = dict(spec, help=_OUT_HELP.get(command, spec["help"]))
                    p.add_argument(f"--{name}", **spec, **fmt)

    # this subcommand is the Monte Carlo route by definition
    sub.choices["simulate"].set_defaults(method="mc")

    p = sub.choices["sweep"]
    p.add_argument("--sweep-param", required=True, choices=sorted(_SWEEP_PARAMS),
                   dest="sweep_param", help="which parameter the grid runs over")
    p.add_argument("--grid", required=True,
                   help='grid values: "a,b,c" or "start:stop:step"')

    p = sub.choices["compare"]
    p.add_argument("--abs-tol", type=float, default=5e-3, dest="abs_tol",
                   help="absolute gap allowed between deterministic routes")
    p.add_argument("--sigma-tol", type=float, default=3.0, dest="sigma_tol",
                   help="allowed gap in Monte Carlo standard errors")

    sub.choices["reproduce-figure"].add_argument(
        "figure", help="figure id: fig2a fig2b fig3a fig3b fig4 fig5 fig6")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's settings go in as flags ahead of the given ones, so
            # argparse checks their values and a given flag wins
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
