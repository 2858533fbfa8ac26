"""Workload definitions: seeded point lists and the output checks.

Every workload is a fixed list of items that one caller evaluates in order,
each only after the previous one returned (a closed loop with one client).
The seed jitters the real-valued grid values by a fraction of a dB or a
percent and sets the Monte Carlo base seeds, so the library only ever sees
generated inputs while the grid shape, and with it the mix of code branches,
stays the same for every seed.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass

from wpcn_select import experiments
from wpcn_select.analytic import Method, PairSpec, Scheme, SchemeSpec
from wpcn_select.model import EhModel, SystemParams, db_to_linear, dbm_to_watts

WORKLOADS = ("analytic-figures", "mc-small-m", "mc-large-m")

RANKED = (Scheme.SBS, Scheme.EBS, Scheme.IBS, Scheme.MMS)
ALL_SCHEMES = (Scheme.RS,) + RANKED
MODELS = (EhModel.NON_LINEAR, EhModel.LINEAR)

#: criterion-1 agreement rule of the acceptance suite: gap <= max(3 sigma, 5e-3)
MC_SIGMAS = 3.0
MC_ABS_TOLERANCE = 5e-3
#: tolerances for the deterministic checks: the quadrature target is 1e-10
#: relative, and closure gaps on the fig3b grid measure below 4e-13
MONOTONE_SLACK = 1e-8
CLOSURE_TOLERANCE = 1e-10
#: exact outages in this band are the Monte Carlo tail of ROADMAP item 4
TAIL_BAND = (1e-9, 1e-3)


@dataclass(frozen=True)
class Item:
    """One evaluation the closed loop issues: a point or a t1 search."""

    group: str
    selection: SchemeSpec | PairSpec
    params: SystemParams
    method: Method
    trials: int = 0
    base_seed: int = 0
    sigma_e2: float = 0.0
    search: bool = False

    @property
    def deterministic(self) -> bool:
        return self.method is not Method.MONTE_CARLO


@dataclass
class Outcome:
    value: float = math.nan
    stderr: float | None = None
    error: str | None = None


def evaluate(item: Item) -> Outcome:
    """Issue one item through the library's public entry points."""
    if item.search:
        with warnings.catch_warnings():
            # a non-unimodal coarse scan only changes how t1 is refined
            warnings.simplefilter("ignore", RuntimeWarning)
            best = experiments.find_optimal_t1(item.selection.scheme, item.selection.k,
                                               item.params)
        return Outcome(best.outage.value)
    est = experiments.evaluate_point(
        item.selection, item.params, item.method,
        sigma_e2=item.sigma_e2, mc_trials=max(item.trials, 1), base_seed=item.base_seed,
    )
    return Outcome(est.value, est.stderr)


# ---------------------------------------------------------------------------
# workload construction
# ---------------------------------------------------------------------------

class _Jitter:
    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def db(self, value_db: float, width: float = 0.1) -> float:
        return value_db + self._rng.uniform(-width, width)

    def rel(self, value: float, width: float = 0.01) -> float:
        return value * (1.0 + self._rng.uniform(-width, width))

    def seed(self) -> int:
        return self._rng.randrange(2**31)


def _params_for_x(params: SystemParams, x: float) -> SystemParams:
    # invert x = 2^(q/t2) - 1, as the figure-5 dataset does
    return params.replace(rate_threshold_q=params.comm_fraction * math.log2(1.0 + x))


def _analytic_figures(j: _Jitter, small: bool) -> list:
    items = []
    base = SystemParams()

    # figure 5: exact and extreme-value routes against the threshold x;
    # M <= 60 takes the alternating-sum branches, M > 60 the integrals
    p40 = base.replace(transmit_power=dbm_to_watts(j.db(-40.0)))
    m_grid = (10, 100) if small else (10, 20, 50, 100, 200, 500, 1000)
    n_x = 3 if small else 30
    x_grid = [j.rel(0.1 * 30.0 ** (i / (n_x - 1))) for i in range(n_x)]
    for scheme, k, M in itertools.product(RANKED, (1, 2), m_grid):
        pm = p40.replace(num_devices=M)
        for x in x_grid:
            p = _params_for_x(pm, x)
            for method in (Method.ANALYTIC, Method.EVT):
                items.append(Item("fig5", SchemeSpec(scheme, k=k), p, method))

    # figure 4: SBS pairs under interference, nested quadrature
    p_pair = base.replace(transmit_power=dbm_to_watts(j.db(-40.0)),
                          rate_threshold_q=db_to_linear(j.db(-4.0)))
    for M in ((10,) if small else (10, 20, 30)):
        p = p_pair.replace(num_devices=M)
        for k in (1, 2):
            for jj in (range(3, 5) if small else range(3, M + 1)):
                items.append(Item("fig4", PairSpec(Scheme.SBS, k=k, j=jj), p, Method.ANALYTIC))

    # figure 3b: every order index at M = 20, plus RS for the closure check
    p20 = base.replace(num_devices=20, transmit_power=dbm_to_watts(j.db(-10.0)))
    for scheme, k in itertools.product(RANKED, range(1, 21)):
        items.append(Item("fig3b", SchemeSpec(scheme, k=k), p20, Method.ANALYTIC))
    items.append(Item("fig3b", SchemeSpec(Scheme.RS), p20, Method.ANALYTIC))

    # figure 2a: outage against transmit power, exact and high-SNR floor
    powers = [j.db(float(pt)) for pt in range(-40, 25, 5)][:: 6 if small else 1]
    for scheme, model, pt in itertools.product(ALL_SCHEMES, MODELS, powers):
        p = base.replace(transmit_power=dbm_to_watts(pt))
        sel = SchemeSpec(scheme, k=2, model=model)
        items.append(Item("fig2a", sel, p, Method.ANALYTIC))
        if model is EhModel.NON_LINEAR:
            items.append(Item("fig2a", sel, p, Method.HIGH_SNR))

    # optimal harvest fraction, one bounded search per ranked scheme and k
    p_t1 = base.replace(transmit_power=dbm_to_watts(j.db(-10.0)))
    for scheme, k in itertools.product(RANKED[:1] if small else RANKED, (1, 2)):
        items.append(Item("find_t1", SchemeSpec(scheme, k=k), p_t1, Method.ANALYTIC,
                          search=True))
    return items


def _mc_small_m(j: _Jitter, small: bool, trials: int) -> list:
    # the criterion-1 release grid at M = 5, perfect CSI
    items = []
    base = SystemParams()
    powers = [j.db(pt) for pt in (-20.0, -10.0, 0.0)]
    for scheme, k, model, pt in itertools.product(
        ALL_SCHEMES, (1, 2, 4), MODELS, powers[1:2] if small else powers
    ):
        sel = SchemeSpec(scheme, k=k, model=model)
        p = base.replace(transmit_power=dbm_to_watts(pt))
        items.append(Item("crit1", sel, p, Method.MONTE_CARLO, trials, j.seed()))
    return _with_exact_twins(items, copies=5)


def _with_exact_twins(mc_items: list, copies: int) -> list:
    """The Monte Carlo items, with the block of their exact twins inserted
    `copies` times at even spacing.

    The exact block is a few percent of a pass.  Repeating it through the
    pass gives each exact item several latency samples spread over the run,
    which the best-of-passes timing needs to be steady.
    """
    twins = [Item(it.group, it.selection, it.params, Method.ANALYTIC)
             for it in mc_items if it.sigma_e2 == 0.0]
    items = []
    step = len(mc_items) / copies
    for c in range(copies):
        items += mc_items[round(c * step):round((c + 1) * step)] + twins
    return items


def _mc_large_m(j: _Jitter, small: bool, trials: int) -> list:
    items = []
    p = SystemParams(num_devices=100, transmit_power=dbm_to_watts(j.db(-30.0)))
    specs = [(SchemeSpec(s, k=k), 0.0) for s in RANKED for k in (1, 2)]
    specs += [(SchemeSpec(Scheme.SBS), 0.3), (SchemeSpec(Scheme.MMS), 0.3)]
    if small:
        specs = specs[:1] + specs[-1:]
    for sel, sig in specs:
        items.append(Item("m100", sel, p, Method.MONTE_CARLO, trials, j.seed(), sig))
    p_pair = p.replace(rate_threshold_q=db_to_linear(j.db(-4.0)))
    pair = PairSpec(Scheme.SBS, k=1, j=2)
    items.append(Item("m100", pair, p_pair, Method.MONTE_CARLO, trials, j.seed()))
    # the exact block is a few percent of an M = 100 Monte Carlo item, and its
    # slowest member (the pair) sets p99, so it runs three times per item
    return _with_exact_twins(items, copies=3 * len(items))


#: Monte Carlo trials per point: large enough that the 5e-3 floor of the
#: agreement rule sits at 10 standard errors or more for every point
MC_SMALL_M_TRIALS = 100_000
MC_LARGE_M_TRIALS = 50_000


def _trials(full: int, small: bool) -> int:
    return full // 10 if small else full


def build(name: str, seed: int, small: bool = False) -> list:
    """The workload's items in pass order; `small` shrinks it for the smoke test."""
    j = _Jitter(seed)
    if name == "analytic-figures":
        return _analytic_figures(j, small)
    if name == "mc-small-m":
        return _mc_small_m(j, small, _trials(MC_SMALL_M_TRIALS, small))
    if name == "mc-large-m":
        return _mc_large_m(j, small, _trials(MC_LARGE_M_TRIALS, small))
    raise ValueError(f"unknown workload {name!r}; pick from {', '.join(WORKLOADS)}")


def probe_items(seed: int, small: bool = False) -> list:
    """A fixed set reaching every instrumented layer once: each ranked
    scheme on both sides of the M = 60 branch cut, exact and extreme-value,
    a pair on each side, one t1 search, and one M = 100 Monte Carlo point."""
    j = _Jitter(seed + 1)
    items = []
    p40 = SystemParams(transmit_power=dbm_to_watts(j.db(-40.0)))
    for M in (20, 100):
        p = _params_for_x(p40.replace(num_devices=M), j.rel(1.0))
        for scheme in RANKED:
            items.append(Item("probe", SchemeSpec(scheme), p, Method.ANALYTIC))
            items.append(Item("probe", SchemeSpec(scheme), p, Method.EVT))
        p_pair = p.replace(rate_threshold_q=db_to_linear(j.db(-4.0)))
        items.append(Item("probe", PairSpec(Scheme.SBS, 1, 3), p_pair, Method.ANALYTIC))
    items.append(Item("probe", SchemeSpec(Scheme.SBS), p40, Method.ANALYTIC, search=True))
    return items + [speedup_item(seed, small)]


def speedup_item(seed: int, small: bool = False) -> Item:
    """An mc-large-m point, timed at one thread and at nproc threads."""
    j = _Jitter(seed + 2)
    p = SystemParams(num_devices=100, transmit_power=dbm_to_watts(j.db(-30.0)))
    return Item("speedup", SchemeSpec(Scheme.SBS), p, Method.MONTE_CARLO,
                _trials(MC_LARGE_M_TRIALS, small), j.seed())


# ---------------------------------------------------------------------------
# output checks, valid for any seed
# ---------------------------------------------------------------------------

def check(items: list, outcomes: list) -> set:
    """Indices of items whose outcome fails a check."""
    bad = set()
    for i, out in enumerate(outcomes):
        if out.error is not None or not (math.isfinite(out.value) and 0.0 <= out.value <= 1.0):
            bad.add(i)
    bad |= _check_monotone_in_k(items, outcomes)
    bad |= _check_closure(items, outcomes)
    bad |= _check_mc_agreement(items, outcomes)
    return bad


def _point_key(item: Item):
    sel = item.selection
    return (item.group, sel.scheme, sel.model, item.params, item.sigma_e2)


def _check_monotone_in_k(items, outcomes) -> set:
    # ranked exact outage cannot fall when a worse-ranked device is chosen;
    # extreme-value values are left out (EVT MMS at M <= 60 is a known defect)
    series = {}
    for i, item in enumerate(items):
        if (item.method is Method.ANALYTIC and not item.search
                and isinstance(item.selection, SchemeSpec) and item.selection.scheme in RANKED):
            series.setdefault(_point_key(item), []).append((item.selection.k, i))
    bad = set()
    for members in series.values():
        members.sort()
        for (_, a), (_, b) in zip(members, members[1:]):
            va, vb = outcomes[a].value, outcomes[b].value
            if vb < va - MONOTONE_SLACK * max(va, 1e-300):
                bad.update((a, b))
    return bad


def _check_closure(items, outcomes) -> set:
    # averaging any ranking over all M ranks gives random selection
    rs = {}
    ranked = {}
    for i, item in enumerate(items):
        if item.group != "fig3b" or item.method is not Method.ANALYTIC:
            continue
        p = item.params
        if item.selection.scheme is Scheme.RS:
            rs[p] = i
        else:
            ranked.setdefault((p, item.selection.scheme), []).append(i)
    bad = set()
    for (p, _), members in ranked.items():
        if p not in rs or len(members) != p.num_devices:
            continue
        mean = math.fsum(outcomes[i].value for i in members) / len(members)
        if abs(mean - outcomes[rs[p]].value) > CLOSURE_TOLERANCE:
            bad.update(members)
            bad.add(rs[p])
    return bad


def _pairs_mc_exact(items, outcomes):
    """(mc index, exact index) for every MC item with an exact twin."""
    exact = {}
    for i, item in enumerate(items):
        if item.method is Method.ANALYTIC and not item.search:
            exact[(item.selection, item.params)] = i
    for i, item in enumerate(items):
        if item.method is Method.MONTE_CARLO and item.sigma_e2 == 0.0:
            e = exact.get((item.selection, item.params))
            if e is not None:
                yield i, e


def _check_mc_agreement(items, outcomes) -> set:
    bad = set()
    for m, e in _pairs_mc_exact(items, outcomes):
        mc, ex = outcomes[m], outcomes[e]
        if mc.error is not None or ex.error is not None:
            continue
        if abs(mc.value - ex.value) > max(MC_SIGMAS * (mc.stderr or 0.0), MC_ABS_TOLERANCE):
            bad.update((m, e))
    return bad


def tail_rel_errors(items, outcomes) -> list:
    """|MC - exact| / exact at points whose exact outage is in TAIL_BAND."""
    errs = []
    for m, e in _pairs_mc_exact(items, outcomes):
        ex = outcomes[e].value
        if TAIL_BAND[0] <= ex <= TAIL_BAND[1]:
            errs.append(abs(outcomes[m].value - ex) / ex)
    return errs
