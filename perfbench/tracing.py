"""Spans and counts recorded around the library's layer entry points.

Nothing in the library is edited: `Tracer.install` rebinds each entry point,
in every ``wpcn_select`` module that holds a reference to it, to a wrapper
that records a span (name, start, end, parent, point id) or bumps a count.
Spans are kept in memory and written once, when the run ends.
`layer_metrics` turns them into the per-layer figures; a layer's self time
is its span's duration minus the part of that interval its children cover.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

#: the alternating-sum branches run up to this population size
SUM_BRANCH_MAX_M = 60

SCHEMES = ("sbs", "ebs", "ibs", "mms")
ANALYTIC_KEYS = [f"analytic.{s}.{b}" for s in SCHEMES + ("pair",) for b in ("m_le_60", "m_gt_60")]

# pass number given to the probe that closes every traced run
PROBE_PASS = -1


class Tracer:
    def __init__(self) -> None:
        self.spans = []        # [name, start, end, parent span or None, point, extra]
        self.counts = Counter()  # (name, pass) -> count
        self.notes = []        # (name, point, value)
        self.point = (0, 0)    # (pass, item index) of the evaluation in flight
        self.enabled = True
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def _open(self, name: str, extra=None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # pool threads start empty: their work belongs to the span the
            # single caller is blocked in
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        rec = [name, time.perf_counter(), None, parent, self.point, extra]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(name, self.point[0])] += n

    def note(self, name: str, value) -> None:
        self.notes.append((name, self.point, value))

    def wrap(self, name_of, extra_of=None, after=None):
        """Decorator factory: span named name_of(args) around each call."""

        def decorate(fn):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                rec = self._open(name_of(args), extra_of(args) if extra_of else None)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close(rec)
                if after is not None:
                    after(rec, out)
                return out

            return wrapper

        return decorate

    def counted(self, name: str):
        def decorate(fn):
            def wrapper(*args, **kwargs):
                if self.enabled:
                    self.count(name)
                return fn(*args, **kwargs)

            return wrapper

        return decorate

    # -- installation ------------------------------------------------------

    def _rebind(self, module, attr: str, decorate) -> None:
        orig = getattr(module, attr, None)
        if orig is None:  # layer renamed or removed: its metrics read 0
            return
        wrapper = decorate(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wpcn_select" or mod_name.startswith("wpcn_select.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def install(self) -> None:
        from wpcn_select import analytic, evt, experiments, montecarlo, special

        def branch(params) -> str:
            return "m_le_60" if params.num_devices <= SUM_BRANCH_MAX_M else "m_gt_60"

        self._rebind(experiments, "evaluate_point", self.wrap(lambda a: "experiments.evaluate_point"))
        self._rebind(experiments, "find_optimal_t1", self.wrap(lambda a: "experiments.find_optimal_t1"))
        for s in SCHEMES:
            self._rebind(analytic, f"outage_{s}",
                         self.wrap(lambda a, s=s: f"analytic.{s}.{branch(a[2])}"))
            self._rebind(analytic, f"outage_{s}_high_snr", self.wrap(lambda a, s=s: f"highsnr.{s}"))
            self._rebind(evt, f"outage_evt_{s}", self.wrap(lambda a, s=s: f"evt.{s}"))
        self._rebind(analytic, "outage_pair", self.wrap(lambda a: f"analytic.pair.{branch(a[2])}"))
        self._rebind(analytic, "outage_rs", self.wrap(lambda a: "analytic.rs"))
        self._rebind(analytic, "outage_rs_high_snr", self.wrap(lambda a: "highsnr.rs"))
        self._rebind(analytic, "outage_pair_high_snr", self.wrap(lambda a: "highsnr.pair"))
        self._rebind(evt, "outage_evt_pair", self.wrap(lambda a: "evt.pair"))

        def constants(fn):
            inner = self.wrap(lambda a: "evt.normalizing_constants")(fn)

            def wrapper(scheme, M, params):
                if self.enabled:
                    # the constants are quantiles of the parent SNR law, which
                    # does not involve the rate threshold: inputs that differ
                    # only there are repeats
                    self.note("evt.normalizing_constants.key",
                              (scheme, M, params.replace(rate_threshold_q=0.0)))
                return inner(scheme, M, params)

            return wrapper

        self._rebind(evt, "normalizing_constants", constants)

        def quad(fn):
            def wrapper(f, *args, **kwargs):
                if not self.enabled:
                    return fn(f, *args, **kwargs)
                evals = [0]

                def counted_f(t):
                    evals[0] += 1
                    return f(t)

                rec = self._open("special.quad")
                try:
                    return fn(counted_f, *args, **kwargs)
                finally:
                    self._close(rec)
                    self.count("special.quad.integrand_evals", evals[0])

            return wrapper

        self._rebind(special, "integrate_finite", quad)
        self._rebind(special, "bessel_k1", self.counted("special.bessel_k1.calls"))
        self._rebind(special, "reg_inc_beta", self.counted("special.reg_inc_beta.calls"))

        def nbytes(rec, out):
            arrays = out if isinstance(out, tuple) else (out,)
            rec[5] = sum({id(a): a.nbytes for a in arrays}.values())

        self._rebind(montecarlo, "simulate_outage",
                     self.wrap(lambda a: "montecarlo.simulate_outage", lambda a: a[0].num_trials))
        self._rebind(montecarlo, "_count_block",
                     self.wrap(lambda a: "montecarlo.block", lambda a: a[3]))
        self._rebind(montecarlo, "_draw_block", self.wrap(lambda a: "montecarlo.draw", after=nbytes))
        self._rebind(montecarlo, "_ranking_stat",
                     self.wrap(lambda a: "montecarlo.rank_stat", after=nbytes))

        def workers(fn):
            def wrapper(*args, **kwargs):
                n = fn(*args, **kwargs)
                if self.enabled:
                    self.note("montecarlo.workers", n)
                return n

            return wrapper

        self._rebind(montecarlo, "_worker_count", workers)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, point, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name,
                    "start": round(start - t0, 7), "end": round(end - t0, 7),
                    "parent": None if parent is None else index[id(parent)],
                    "point": list(point),
                }) + "\n")


# ---------------------------------------------------------------------------
# per-layer figures
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class _Section:
    """Spans, counts and notes of one set of passes."""

    def __init__(self, tracer: Tracer, passes: set) -> None:
        self.passes = max(len(passes), 1)
        self.by_name = defaultdict(list)
        children = defaultdict(list)
        for rec in tracer.spans:
            if rec[4][0] in passes:
                self.by_name[rec[0]].append(rec)
                if rec[3] is not None:
                    children[id(rec[3])].append(rec)
        self.children = children
        self.counts = Counter()
        for (name, p), n in tracer.counts.items():
            if p in passes:
                self.counts[name] += n
        self.notes = defaultdict(list)
        for name, point, value in tracer.notes:
            if point[0] in passes:
                self.notes[name].append((point, value))

    def self_time(self, rec) -> float:
        kids = self.children.get(id(rec), ())
        return (rec[2] - rec[1]) - _union_length((k[1], k[2]) for k in kids)

    def descendants(self, rec, name: str) -> int:
        n = 0
        for kid in self.children.get(id(rec), ()):
            n += (kid[0] == name) + self.descendants(kid, name)
        return n

    def has(self, names) -> bool:
        return any(self.by_name.get(n) or self.counts.get(n) or self.notes.get(n) for n in names)


def layer_metrics(tracer: Tracer, workload_passes: set) -> tuple[dict, dict]:
    """Per-layer figures, and for each the section it was measured on.

    A layer the workload's passes never reach is measured on the probe
    that closes the traced run, so every figure is present on every
    workload; `sources` says which figures came from the probe.
    """
    work = _Section(tracer, workload_passes)
    probe = _Section(tracer, {PROBE_PASS})
    metrics, sources = {}, {}

    def pick(*names) -> _Section:
        return work if work.has(names) else probe

    def put(name, value, sec):
        metrics[name] = value
        sources[name] = "workload" if sec is work else "probe"

    sec = pick("experiments.evaluate_point")
    ev = sec.by_name["experiments.evaluate_point"]
    put("experiments.evaluate_point.calls", len(ev) / sec.passes, sec)
    put("experiments.evaluate_point.self_ms",
        1e3 * sum(sec.self_time(r) for r in ev) / sec.passes, sec)
    sec = pick("experiments.find_optimal_t1")
    searches = sec.by_name["experiments.find_optimal_t1"]
    evals = sum(sec.descendants(r, "experiments.evaluate_point") for r in searches)
    put("experiments.find_optimal_t1.evals_per_search", evals / max(len(searches), 1), sec)

    for key in ANALYTIC_KEYS:
        sec = pick(key)
        recs = sec.by_name[key]
        put(f"{key}.ms_per_call", 1e3 * _median([r[2] - r[1] for r in recs]), sec)
        quads = sum(sec.descendants(r, "special.quad") for r in recs)
        put(f"{key}.quad_calls_per_point", quads / max(len(recs), 1), sec)

    sec = pick("special.quad")
    quads = sec.by_name["special.quad"]
    put("special.quad.calls", len(quads) / sec.passes, sec)
    put("special.quad.self_ms", 1e3 * sum(sec.self_time(r) for r in quads) / sec.passes, sec)
    put("special.quad.integrand_evals", sec.counts["special.quad.integrand_evals"] / sec.passes, sec)
    for name in ("special.bessel_k1.calls", "special.reg_inc_beta.calls"):
        sec = pick(name)
        put(name, sec.counts[name] / sec.passes, sec)

    for s in SCHEMES:
        sec = pick(f"evt.{s}")
        put(f"evt.{s}.ms_per_call",
            1e3 * _median([r[2] - r[1] for r in sec.by_name[f"evt.{s}"]]), sec)
    sec = pick("evt.normalizing_constants.key")
    keys = sec.notes["evt.normalizing_constants.key"]
    put("evt.normalizing_constants.calls", len(keys) / sec.passes, sec)
    distinct = len({(point[0], key) for point, key in keys})
    put("evt.normalizing_constants.distinct_frac", distinct / max(len(keys), 1), sec)

    sec = pick("montecarlo.block")
    blocks = sec.by_name["montecarlo.block"]
    sims = sec.by_name["montecarlo.simulate_outage"]
    workers = dict(sec.notes["montecarlo.workers"])  # point -> pool size
    put("montecarlo.blocks", len(blocks) / sec.passes, sec)
    put("montecarlo.workers", _median(list(workers.values())), sec)
    busy = sum(r[2] - r[1] for r in blocks)
    capacity = sum((r[2] - r[1]) * workers.get(r[4], 1) for r in sims)
    put("montecarlo.pool_busy_frac", busy / capacity if capacity else 0.0, sec)
    trials = sum(r[5] for r in sims)
    put("montecarlo.trials_per_s", trials / sum(r[2] - r[1] for r in sims) if sims else 0.0, sec)
    stage = {"draw": [], "rank_stat": [], "select_count": []}
    per_trial = []
    for b in blocks:
        kids = sec.children.get(id(b), ())
        stage["select_count"].append(sec.self_time(b))
        moved = 0
        for kid in kids:
            label = kid[0].removeprefix("montecarlo.")
            if label in stage:
                stage[label].append(kid[2] - kid[1])
                moved += kid[5] or 0
        per_trial.append(moved / b[5])
    for label, durations in stage.items():
        put(f"montecarlo.{label}_ms", 1e3 * _median(durations), sec)
    put("montecarlo.bytes_per_trial", _median(per_trial), sec)
    return metrics, sources
