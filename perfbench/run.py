"""Benchmark command for the wpcn_select package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  One
process is the only caller: it issues each evaluation after the previous one
returned, in passes over the workload's item list, until --seconds have gone
by (the pass in flight is finished).  Monte Carlo runs use the library's own
thread pool with WPCN_SELECT_THREADS set to the number of usable CPUs.

--trace 0 measures the end-to-end figures with no instrumentation.
--trace 1 times some passes untraced and some traced, derives the per-layer
figures from the traced spans, and writes the spans to
.perfbench/spans-<workload>.jsonl.  Both print a readable report and end
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
SPEEDUP_REPEATS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "analytic_points_per_s": "1/s",
    "analytic_point_ms_p50": "ms",
    "analytic_point_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_ms") or leaf == "ms_per_call":
        return "ms"
    if leaf.endswith("_s") and leaf != "trials_per_s":
        return "s"
    if leaf == "trials_per_s":
        return "1/s"
    if leaf.endswith("frac") or leaf.endswith("speedup"):
        return "ratio"
    if leaf == "bytes_per_trial":
        return "B"
    return "count"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_record(args, threads_env: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        threads_env: os.environ.get(threads_env),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Passes:
    """Timings and outcomes of complete passes over a workload.

    The host's speed drifts by tens of percent over seconds, so the timings
    derived here use each distinct item's fastest latency over all its
    evaluations in the run (`best`); an item listed twice in a pass is
    sampled twice as often.
    """

    def __init__(self, items) -> None:
        self.items = items
        self.latencies = {item: [] for item in items}
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.outcomes = []

    def best(self, which=lambda item: True) -> dict:
        return {item: min(lat) for item, lat in self.latencies.items() if which(item)}

    def pass_s(self) -> float:
        """One pass with every item at its fastest."""
        best = self.best()
        return math.fsum(best[item] for item in self.items)


def run_passes(wl, passes: Passes, seconds: float, tracer=None, first_pass: int = 0) -> int:
    items = passes.items
    deadline = time.perf_counter() + seconds
    pass_no = first_pass
    while pass_no == first_pass or time.perf_counter() < deadline:
        outcomes = []
        for idx, item in enumerate(items):
            if tracer is not None:
                tracer.point = (pass_no, idx)
            t0 = time.perf_counter()
            try:
                out = wl.evaluate(item)
            except (ValueError, ArithmeticError) as exc:
                out = wl.Outcome(error=f"{type(exc).__name__}: {exc}")
            passes.latencies[item].append(time.perf_counter() - t0)
            outcomes.append(out)
        bad = wl.check(items, outcomes)
        passes.count += 1
        passes.attempted += len(items)
        passes.failed += len(bad)
        passes.outcomes = outcomes
        for i in sorted(bad)[:5]:
            print(f"check failed: item {i} {items[i]} -> {outcomes[i]}", file=sys.stderr)
        pass_no += 1
    return pass_no


# ---------------------------------------------------------------------------
# fresh-interpreter measurements
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(args) -> list:
    """Seconds from starting a fresh interpreter to its first result."""
    cmd = [sys.executable, str(HERE / "first_result.py"), args.workload, str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=child_env()) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=170)
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up probe exited with {code}")
        times.append(dt)
    return times


def parse_importtime(text: str) -> tuple[float, float]:
    """(package import seconds, scipy share) from -X importtime output.

    Lines come children first, indented two spaces per level.
    """
    stack = []  # (level, name, cumulative us, children)
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        level = (len(raw) - len(raw.lstrip())) // 2
        kids = []
        while stack and stack[-1][0] > level:
            kids.append(stack.pop())
        stack.append((level, raw.strip(), int(parts[1]), kids))

    def scipy_us(node, inside: bool) -> int:
        is_scipy = node[1].split(".")[0] == "scipy"
        if is_scipy and not inside:
            return node[2]
        return sum(scipy_us(k, inside or is_scipy) for k in node[3])

    ours = [n for n in stack if n[1].split(".")[0] == "wpcn_select"]
    total = sum(n[2] for n in ours)
    return total * 1e-6, sum(scipy_us(n, False) for n in ours) * 1e-6


def measure_imports(repeats: int) -> tuple[float, float]:
    totals, scipys = [], []
    for _ in range(repeats):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import wpcn_select.cli"],
            capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=170,
        )
        if res.returncode != 0:
            raise RuntimeError(f"import probe failed: {res.stderr[-500:]}")
        total, scipy_s = parse_importtime(res.stderr)
        totals.append(total)
        scipys.append(scipy_s)
    return statistics.median(totals), statistics.median(scipys)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced_run(args, wl, items):
    setup = measure_setup(args)
    passes = Passes(items)
    run_passes(wl, passes, args.seconds)
    det = list(passes.best(lambda item: item.deterministic).values())
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": passes.pass_s(),
        "analytic_points_per_s": len(det) / math.fsum(det),
        "analytic_point_ms_p50": 1e3 * statistics.median(det),
        "analytic_point_ms_p99": 1e3 * percentile(det, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "passes": (passes.count, "count"),
        "failed_frac": (passes.failed / passes.attempted, "ratio"),
    }
    mc_best = passes.best(lambda item: not item.deterministic)
    if mc_best:
        trials = sum(item.trials for item in mc_best)
        extra["mc_trials_per_s"] = (trials / math.fsum(mc_best.values()), "1/s")
    tail = wl.tail_rel_errors(items, passes.outcomes)
    if tail:
        extra["mc_tail_rel_err"] = (statistics.median(tail), "ratio")
        extra["mc_tail_points"] = (len(tail), "count")
    return metrics, extra, passes.attempted, passes.failed


def traced_run(args, wl, items, tracing, threads_env: str):
    import_s, scipy_s = measure_imports(1 if args.smoke else IMPORT_REPEATS)
    plain = Passes(items)
    next_pass = run_passes(wl, plain, args.seconds / 2)

    tracer = tracing.Tracer()
    tracer.install()
    traced = Passes(items)
    first_traced = next_pass
    next_pass = run_passes(wl, traced, args.seconds / 2, tracer, first_traced)

    # the probe reaches every layer, for the figures of layers this
    # workload's passes never call
    probe = wl.probe_items(args.seed, args.smoke)
    outcomes = []
    for idx, item in enumerate(probe):
        tracer.point = (tracing.PROBE_PASS, idx)
        outcomes.append(wl.evaluate(item))
    probe_failed = sum(not (math.isfinite(o.value) and 0.0 <= o.value <= 1.0) for o in outcomes)

    # single-thread baseline for one mc-large-m point, untraced
    tracer.enabled = False
    item = wl.speedup_item(args.seed, args.smoke)
    times = {1: [], nproc(): []}
    values = set()
    saved = os.environ.get(threads_env)
    try:
        for _ in range(SPEEDUP_REPEATS):
            for threads in times:
                os.environ[threads_env] = str(threads)
                t0 = time.perf_counter()
                values.add(wl.evaluate(item).value)
                times[threads].append(time.perf_counter() - t0)
    finally:
        os.environ[threads_env] = saved
    tracer.uninstall()
    # Monte Carlo results must not depend on the worker count
    probe_failed += len(values) != 1

    metrics = {"cli.import_s": import_s, "cli.import_scipy_s": scipy_s}
    layers, sources = tracing.layer_metrics(tracer, set(range(first_traced, next_pass)))
    metrics.update(layers)
    metrics["montecarlo.thread_speedup"] = (
        statistics.median(times[1]) / statistics.median(times[nproc()])
    )
    metrics["trace.overhead_s"] = traced.pass_s() - plain.pass_s()

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.jsonl",
                 {"workload": args.workload, "seed": args.seed, "metrics": metrics})
    extra = {
        "untraced_wall_s": (plain.pass_s(), "s"),
        "traced_wall_s": (traced.pass_s(), "s"),
        "traced_passes": (traced.count, "count"),
        "spans": (len(tracer.spans), "count"),
    }
    attempted = plain.attempted + traced.attempted + len(probe) + 1
    failed = plain.failed + traced.failed + probe_failed
    probe_only = sorted(k for k, v in sources.items() if v == "probe")
    return metrics, extra, attempted, failed, probe_only


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids and single repeats, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wpcn_select" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from wpcn_select.montecarlo import THREADS_ENV

    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from {wl.WORKLOADS}",
              file=sys.stderr)
        return 2
    os.environ[THREADS_ENV] = str(nproc())
    items = wl.build(args.workload, args.seed, small=args.smoke)
    env = env_record(args, THREADS_ENV)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(items)} items per pass, closed loop, 1 caller")

    if args.trace:
        metrics, extra, attempted, failed, probe_only = traced_run(
            args, wl, items, tracing, THREADS_ENV)
        units = {name: layer_unit(name) for name in metrics}
        if probe_only:
            print("measured on the probe (not reached by this workload): "
                  + ", ".join(probe_only))
    else:
        metrics, extra, attempted, failed = untraced_run(args, wl, items)
        units = END_TO_END_UNITS

    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:52s} {value:14.6g} {unit}  (report only)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
