"""Monte Carlo estimation of the outage probabilities.

Trials are split into fixed-size blocks, each seeded independently through
SeedSequence(entropy=base_seed, spawn_key=(block,)).  Block RNG state depends
only on (base_seed, block index), and per-block failure counts are integers,
so the estimate is bit-identical for a given config no matter how many
worker threads execute the blocks.

A block needs only the chosen device of each trial.  SBS with perfect CSI
counts the trials in which fewer than k SNRs exceed the threshold; the other
ranked picks take the k-th index by argmax (k = 1) or a partition, ties to
the lowest index.  Under imperfect CSI the estimates are (1 - sigma_e2) Exp(1)
and only the chosen devices draw a true gain, |sqrt(est) + CN(0, sigma_e2)|^2.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import Method, OutageEstimate, PairSpec, Scheme, SchemeSpec
from .model import SystemParams, harvested_energy, snr, threshold_x

__all__ = [
    "ChannelDraw",
    "TrialConfig",
    "draw_channels",
    "select_device",
    "simulate_outage",
]

#: trials per RNG block; smaller for large M to bound the (n, M) arrays
_BLOCK = 1 << 16
_ELEMENT_BUDGET = 1 << 21

#: env var capping the worker thread count (estimates do not depend on it)
THREADS_ENV = "WPCN_SELECT_THREADS"


@dataclass(frozen=True)
class TrialConfig:
    """One simulation run: what to select, under which system, how long."""

    spec: SchemeSpec | PairSpec
    params: SystemParams
    num_trials: int = 1_000_000
    base_seed: int = 0
    estimation_error_var: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.num_trials, int) and self.num_trials >= 1):
            raise ValueError(f"num_trials must be a positive integer, got {self.num_trials!r}")
        if not (isinstance(self.base_seed, int) and self.base_seed >= 0):
            raise ValueError(f"base_seed must be a non-negative integer, got {self.base_seed!r}")
        if not 0.0 <= self.estimation_error_var < 1.0:
            raise ValueError(
                f"estimation error variance must lie in [0, 1), got {self.estimation_error_var!r}"
            )
        top = self.spec.j if isinstance(self.spec, PairSpec) else self.spec.k
        if top > self.params.num_devices:
            raise ValueError(
                f"order index {top} exceeds the population size {self.params.num_devices}"
            )


@dataclass(frozen=True)
class ChannelDraw:
    """Squared gains for one slot; estimated gains present only under
    imperfect CSI (selection ranks on estimates, outage uses the truth)."""

    gains_g: np.ndarray
    gains_h: np.ndarray
    est_g: np.ndarray | None = None
    est_h: np.ndarray | None = None

    @property
    def ranking_g(self) -> np.ndarray:
        return self.gains_g if self.est_g is None else self.est_g

    @property
    def ranking_h(self) -> np.ndarray:
        return self.gains_h if self.est_h is None else self.est_h


def _draw_block(M: int, n: int, sigma_e2: float, rng: np.random.Generator):
    """(rank_g, rank_h), each shaped (n, M): the squared gains selection
    ranks on.  Under imperfect CSI these are the estimates, whose power is
    1 - sigma_e2; the true gains are drawn later, for the chosen devices only."""
    g = -np.log1p(-rng.random((n, M)))
    h = -np.log1p(-rng.random((n, M)))
    return (g, h) if sigma_e2 == 0.0 else ((1.0 - sigma_e2) * g, (1.0 - sigma_e2) * h)


def _true_gains(est: np.ndarray, sigma_e2: float, rng: np.random.Generator) -> np.ndarray:
    """True squared gains given their estimates.  The error is CN(0, sigma_e2)
    and circularly symmetric, so turning the estimate onto the real axis
    leaves |estimate + error|^2 unchanged in law."""
    s = math.sqrt(sigma_e2 / 2.0)
    z = rng.standard_normal((2, *est.shape))
    return (np.sqrt(est) + s * z[0]) ** 2 + (s * z[1]) ** 2


def draw_channels(M: int, sigma_e2: float, rng: np.random.Generator) -> ChannelDraw:
    """One slot of i.i.d. unit-mean squared gains for M devices.

    Under imperfect CSI the estimate carries variance 1 - sigma_e2 and the
    independent error carries sigma_e2, so the true gain keeps unit mean.
    """
    if not (isinstance(M, int) and M >= 1):
        raise ValueError(f"population size must be a positive integer, got {M!r}")
    if not 0.0 <= sigma_e2 < 1.0:
        raise ValueError(f"estimation error variance must lie in [0, 1), got {sigma_e2!r}")
    g, h = (a[0] for a in _draw_block(M, 1, sigma_e2, rng))
    if sigma_e2 == 0.0:
        return ChannelDraw(g, h)
    return ChannelDraw(_true_gains(g, sigma_e2, rng), _true_gains(h, sigma_e2, rng), g, h)


def _ranking_stat(
    scheme: Scheme, g: np.ndarray, h: np.ndarray, params: SystemParams, model
) -> np.ndarray:
    if scheme is Scheme.SBS:
        return snr(h, harvested_energy(g, params, model), params)
    if scheme is Scheme.EBS:
        return harvested_energy(g, params, model)
    if scheme is Scheme.IBS:
        return h
    if scheme is Scheme.MMS:
        return np.minimum(g, h)
    raise ValueError(f"no ranking statistic for {scheme!r}")


def _kth_index(stat: np.ndarray, k: int) -> np.ndarray:
    """Column of each row's k-th largest entry, ties to the lowest index:
    position k - 1 of a stable descending sort."""
    if k == 1:
        return np.argmax(stat, axis=1)
    M = stat.shape[1]
    idx = np.argpartition(stat, M - k, axis=1)[:, M - k]
    v = np.take_along_axis(stat, idx[:, None], axis=1)
    eq = stat == v
    if np.count_nonzero(eq) > len(idx):  # some row ties at its k-th value
        t = np.flatnonzero(eq.sum(axis=1) > 1)
        # the pick is the (k - #greater)-th of the tied entries in index order
        need = k - (stat[t] > v[t]).sum(axis=1)
        idx[t] = np.argmax(np.cumsum(eq[t], axis=1) >= need[:, None], axis=1)
    return idx


def _select(spec: SchemeSpec | PairSpec, g, h, params: SystemParams, rng) -> np.ndarray:
    """(n, 1) indices, or (n, 2) for a pair, picked in each row of (n, M)
    ranking gains.  Random selection consumes rng."""
    n, M = g.shape
    pair = isinstance(spec, PairSpec)
    if spec.scheme is Scheme.RS:
        if rng is None:
            raise ValueError("random selection needs an rng")
        a = rng.integers(M, size=n)
        return np.stack([a, (a + rng.integers(1, M, size=n)) % M], axis=1) if pair else a[:, None]
    stat = _ranking_stat(spec.scheme, g, h, params, spec.model)
    ranks = (spec.k, spec.j) if pair else (spec.k,)
    return np.stack([_kth_index(stat, r) for r in ranks], axis=1)


def select_device(
    spec: SchemeSpec | PairSpec,
    draw: ChannelDraw,
    params: SystemParams,
    rng: np.random.Generator | None = None,
):
    """Index (or index pair) picked on one draw, the n = 1 case of the block
    selection.  Ranking uses estimated gains when present, ties break to the
    lowest index, and random selection consumes rng."""
    sel = _select(spec, draw.ranking_g[None, :], draw.ranking_h[None, :], params, rng)[0]
    return (int(sel[0]), int(sel[1])) if isinstance(spec, PairSpec) else int(sel[0])


def _count_block(config: TrialConfig, x: float, block: int, n: int) -> int:
    """Failures among the n trials of one block (exact integer)."""
    spec, params, sigma_e2 = config.spec, config.params, config.estimation_error_var
    seq = np.random.SeedSequence(entropy=config.base_seed, spawn_key=(block,))
    rng = np.random.Generator(np.random.Philox(seq))
    g, h = _draw_block(params.num_devices, n, sigma_e2, rng)
    if spec.scheme is Scheme.SBS and sigma_e2 == 0.0 and isinstance(spec, SchemeSpec):
        # the k-th best SNR is <= x exactly when fewer than k devices exceed x
        stat = _ranking_stat(spec.scheme, g, h, params, spec.model)
        return int(((stat > x).sum(axis=1) < spec.k).sum())
    # selection indices are drawn after the fading block so the gain stream
    # is identical across schemes under one seed
    sel = _select(spec, g, h, params, rng)
    g, h = np.take_along_axis(g, sel, axis=1), np.take_along_axis(h, sel, axis=1)
    if sigma_e2 > 0.0:
        g, h = _true_gains(g, sigma_e2, rng), _true_gains(h, sigma_e2, rng)
    x_sel = snr(h, harvested_energy(g, params, spec.model), params)
    if isinstance(spec, PairSpec):
        return int((x_sel[:, 0] / (x_sel[:, 1] + 1.0) <= x).sum())
    return int((x_sel[:, 0] <= x).sum())


def _worker_count(num_blocks: int) -> int:
    raw = os.environ.get(THREADS_ENV, "")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        cap = min(4, os.cpu_count() or 1)
    return max(1, min(cap, num_blocks))


def simulate_outage(config: TrialConfig) -> OutageEstimate:
    """Monte Carlo outage estimate with a binomial standard error."""
    x = threshold_x(config.params)
    if x == 0.0:
        # zero rate threshold never fails: gains are positive a.s.
        return OutageEstimate(0.0, Method.MONTE_CARLO, stderr=0.0)

    block_size = min(_BLOCK, max(1, _ELEMENT_BUDGET // config.params.num_devices))
    total = config.num_trials
    sizes = [block_size] * (total // block_size)
    if total % block_size:
        sizes.append(total % block_size)

    with ThreadPoolExecutor(max_workers=_worker_count(len(sizes))) as pool:
        counts = list(
            pool.map(lambda ib: _count_block(config, x, ib[0], ib[1]), enumerate(sizes))
        )
    failures = sum(counts)
    p_hat = failures / total
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / total)
    return OutageEstimate(p_hat, Method.MONTE_CARLO, stderr=stderr)
