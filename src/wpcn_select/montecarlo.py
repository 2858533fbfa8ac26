"""Monte Carlo estimation of the outage probabilities.

A run has one random stream, seeded by SeedSequence(entropy=base_seed,
spawn_key=(0,)), and a run of n trials at population M reads it in a fixed
order: n m_g doubles for the g gains, then n m_h for the h gains, then,
under imperfect CSI, the chosen devices' estimation errors: n w uniforms for
the g links' error moduli, n w for their phases, then the same for the h
links.  Here w = 1, or 2 for a pair, and a link has m = M if the scheme
ranks on it and m = w if not: SBS and MMS rank on both links, EBS on g
alone, IBS on h alone and random selection (RS) on neither.

Chunks are the unit of work.  The stream is PCG64 (O'Neill,
HMC-CS-2014-0905), whose advance jumps to any position without drawing,
and every draw takes one 64-bit output per double, so a chunk of rows
draws each of its parts from a generator positioned inside the run's
stream: a chunk depends only on the run's seed and trial count, its first
trial and its length.  A chunk holds about 2^17 doubles (1 MiB) per array at
any M.  Failure counts are integers summed in any order, so the estimate is
bit-identical for a given config no matter how many worker threads run the
chunks, or how the run is cut into chunks.

Workers and their memory outlive a run.  The process keeps one thread pool
of at most the thread cap (THREADS_ENV, or the usable CPUs up to 4), made
on the first run; THREADS_ENV is read on every run, and a run under a new
cap shuts the pool down, joins its threads and makes a new one.  A run of n
chunks keeps min(n, cap) workers busy, each taking the next chunk until
none is left, and the pool starts a thread only when a task finds none
idle.  A run is cut into a whole number of chunks per worker, so that no
worker is left alone on a last chunk, but never into more chunks than it
has trials.  Each worker thread keeps four float64 buffers, u_g, u_h and
two scratch arrays of at least 2^17 doubles each (about 4 MiB in all), from
its first chunk on, growing them only for a larger chunk, and every
chunk-sized array of a chunk is made in them.  A child of os.fork drops the
inherited pool, whose threads did not survive the fork, and the buffers,
and makes its own on its first run.

A chunk does only what its count needs.  It draws uniforms u, and a gain is
-log1p(-u).  That map, the (1 - sigma_e2) scale of an estimate and the
harvester map all increase strictly, so ranking the uniforms ranks the gains
and the energies: EBS ranks on u_g, IBS on u_h and MMS on min(u_g, u_h),
ties to the lowest index, and only the picked entries are turned into
gains.  The picks are independent of a link the scheme does not rank on,
so the picked devices' gains on it are iid Exp(1) like any device's, and
that link draws only w uniforms per trial, which go straight to the gains.
For the same reason RS takes device 0, and an RS pair devices 0 and 1, the
one with the higher SNR as the primary.  The uniforms stay as drawn until
the picks are gathered from them.  SBS needs every SNR, and builds from the
whole chunk a constant multiple of it: the harvester map factors as
t1 (a c - b)/c p/(p + c) at input power p = Pt g, so the SNR is
s = h p/(p + c) times a constant, and SNR > x exactly when s > r, the
threshold scale of analytic._scales (with h g and beta for the linear
harvester, h at Pt = inf).  With perfect CSI it counts the trials in which
fewer than k devices have s above r.  Up to M = _COLUMNS_MAX_M the
statistic is built transposed, one contiguous row of n trials per device,
and the k-th index and the SBS count take passes over whole columns: a
numpy call per device, where a reduction along each row makes one per
trial.  Above it, the two ranks at either end of the order take an argmax
(or argmin), after one knock-out round for the second, and other ranks a
partition.  Under imperfect CSI the estimates are (1 - sigma_e2) Exp(1)
and only the chosen devices draw a true gain, |sqrt(est) + CN(0,
sigma_e2)|^2, with the error in polar form from its two uniforms.

The uniform ranking is the exact-arithmetic order of the energies.  The
energies in doubles can differ from it: at low transmit power (-40 dBm)
t1 ((a P g + b)/(P g + c) - b/c) loses a P g to cancellation against b and
c, so gains within about 1e-9 of each other can round to one energy, or to
energies in the reverse order, where an energy ranking would pick another
device.  Only the picks' energies go through that map (model.harvested_energy,
which loses about t1 b/(c E) ulps at energy E: 1.8e-3 relative on the
weakest of 10^4 gains at -40 dBm).  The SBS statistic has no b/c term: it
was within 4.6e-16 relative of 40-digit mpmath on 9,000 devices at -40,
-10 and +20 dBm.
"""

from __future__ import annotations

import collections
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import (
    Method, OutageEstimate, PairSpec, Scheme, SchemeSpec, _check_order_index, _scales,
)
from .model import EhModel, SystemParams, harvested_energy, snr, threshold_x

__all__ = [
    "TrialConfig",
    "simulate_outage",
]

#: doubles per (rows, M) array of one chunk, the unit of work
_CHUNK_ELEMENTS = 1 << 17
#: doubles per chunk row its arrays have room for at least: under imperfect
#: CSI a pair draws four error uniforms per row and link, into u_g and u_h
_MIN_ROW = 4
#: populations up to this size rank and count in passes over whole columns
#: (_kth_by_columns), larger ones with a numpy reduction along each row.
#: Whole 2^17-double chunks with columns took 0.68-0.93 of the time with
#: rows at M = 10, for EBS and MMS at k = 1, 2, 3, ceil(M/2), M - 1, M and
#: the SBS count; 0.78-1.02 at M = 20, with the mid rank even; 0.97-2.0 at
#: M = 50 and 1.03-4.3 at M = 100 (2-vCPU Xeon, numpy 2.4)
_COLUMNS_MAX_M = 10

#: whether each scheme ranks on the g link and on the h link; a link it
#: does not rank on draws only the picks' uniforms
_RANKED_LINKS = {
    Scheme.RS: (False, False),
    Scheme.SBS: (True, True),
    Scheme.EBS: (True, False),
    Scheme.IBS: (False, True),
    Scheme.MMS: (True, True),
}

#: env var capping the worker thread count (estimates do not depend on it)
THREADS_ENV = "WPCN_SELECT_THREADS"

#: the process's one worker pool, and the thread cap it was made for
_pool: ThreadPoolExecutor | None = None
_pool_cap = 0
_pool_lock = threading.Lock()
#: per-thread chunk buffers, see _workspace
_local = threading.local()


@dataclass(frozen=True)
class TrialConfig:
    """One simulation run: what to select, under which system, how long."""

    spec: SchemeSpec | PairSpec
    params: SystemParams
    num_trials: int = 1_000_000
    base_seed: int = 0
    estimation_error_var: float = 0.0

    def __post_init__(self) -> None:
        if not (type(self.num_trials) is int and self.num_trials >= 1):
            raise ValueError(f"num_trials must be a positive integer, got {self.num_trials!r}")
        if not (type(self.base_seed) is int and self.base_seed >= 0):
            raise ValueError(f"base_seed must be a non-negative integer, got {self.base_seed!r}")
        if not 0.0 <= self.estimation_error_var < 1.0:
            raise ValueError(
                f"estimation error variance must lie in [0, 1), got {self.estimation_error_var!r}"
            )
        _check_order_index(self.spec, self.params.num_devices)


def _stream_at(key: np.random.SeedSequence, offset: int) -> np.random.Generator:
    """Generator whose next double is double number `offset` of the stream
    PCG64 seeded by key draws: each double takes one 64-bit PCG64 output,
    and advance skips `offset` of them in O(log offset) steps."""
    return np.random.Generator(np.random.PCG64(key).advance(offset))


def _draw_block(rng_g: np.random.Generator, rng_h: np.random.Generator, ug, uh):
    """(ug, uh), filled in place with uniforms on [0, 1), ug from rng_g, then
    uh from rng_h: the fading draws the g and h gains are made from, or the
    chosen devices' error draws on the g and h links."""
    rng_g.random(out=ug)
    rng_h.random(out=uh)
    return ug, uh


def _gains(u: np.ndarray, sigma_e2: float, out=None) -> np.ndarray:
    """The squared gains -log1p(-u), Exp(1) draws, scaled by 1 - sigma_e2 to
    the power of an estimate; a new array unless `out` (which may be u) is
    given."""
    g = np.negative(u, out=out)
    np.log1p(g, out=g)
    np.negative(g, out=g)
    if sigma_e2 != 0.0:
        g *= 1.0 - sigma_e2
    return g


def _true_gains(est: np.ndarray, sigma_e2: float, u: np.ndarray) -> np.ndarray:
    """True squared gains given their estimates and two uniforms on [0, 1)
    per estimate, u shaped (2, *est.shape).  The error is CN(0, sigma_e2):
    its squared modulus |e|^2 = -sigma_e2 log1p(-u[0]) is sigma_e2 Exp(1),
    and its phase 2 pi u[1] is uniform and independent of it.  It is circularly
    symmetric, so turning the estimate onto the real axis leaves
    |estimate + error|^2 unchanged in law: (sqrt(est) + |e| cos)^2 +
    |e|^2 (1 - cos^2).  The last term is formed as |e|^2 - (|e| cos)^2,
    which |cos| <= 1 keeps from rounding below 0.  In place: est becomes
    the true gains, and u is overwritten on the way."""
    r, t = u
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -sigma_e2
    np.sqrt(r, out=r)  # |e|
    t *= 2.0 * math.pi
    np.cos(t, out=t)
    t *= r  # |e| cos
    a = np.sqrt(est, out=est)
    a += t
    np.square(a, out=a)
    np.square(r, out=r)
    r -= np.square(t, out=t)
    a += r
    return a


def _ranking_stat(
    scheme: Scheme, ug: np.ndarray, uh: np.ndarray, params: SystemParams, model,
    sigma_e2: float, scratch,
) -> np.ndarray:
    """What each row is ranked on, given the drawn uniforms.  The maps from
    u to the gain, to the estimate and to the harvested energy all increase
    strictly, so EBS ranks as u_g does, IBS as u_h and MMS as min(u_g, u_h)
    (the exact-arithmetic order; see the module notes on rounding).  SBS
    ranks on the SNR up to a constant factor (see the module notes): on
    s = h p/(p + c), p = Pt g, made from the whole chunk as
    log1p(-u_h) log1p(-u_g)/(c/(Pt (1 - sigma_e2)) - log1p(-u_g)), since
    log1p(-u) is minus the gain; the linear harvester on h g, and the
    nonlinear one at Pt = inf on h.  Under imperfect CSI these are the
    estimates' values up to a factor of 1 - sigma_e2.  A link the scheme
    does not rank on is not read, and may hold only the picks' uniforms.
    ug and uh are left as drawn.  `scratch` holds two (n, M) arrays: MMS
    and SBS build the statistic in the first, SBS with the second as work
    space.  At M <= _COLUMNS_MAX_M the statistic of every scheme ends up
    transposed, as (M, n) in the first array, and comes back as its (n, M)
    transpose, so that the column passes read contiguous columns: SBS
    builds it that way, and the others copy it there, EBS and IBS from
    their uniforms and MMS from minima taken in the second array."""
    s1, s2 = scratch
    n, M = s1.shape
    columns = M <= _COLUMNS_MAX_M
    if scheme is Scheme.SBS:
        if columns:
            ug, uh, s1, s2 = ug.T, uh.T, s1.reshape(M, n), s2.reshape(M, n)
        stat = np.log1p(np.negative(ug, out=s1), out=s1)  # -g
        if model is EhModel.NON_LINEAR and params.transmit_power == math.inf:
            stat.fill(-1.0)  # p/(p + c) = 1
        elif model is EhModel.NON_LINEAR:
            c_over_p = params.rectenna.c / (params.transmit_power * (1.0 - sigma_e2))
            stat /= np.subtract(c_over_p, stat, out=s2)  # -p/(p + c)
        stat *= np.log1p(np.negative(uh, out=s2), out=s2)  # times -h
        return stat.T if columns else stat
    if scheme is Scheme.EBS:
        stat = ug
    elif scheme is Scheme.IBS:
        stat = uh
    elif scheme is Scheme.MMS:
        stat = np.minimum(ug, uh, out=s2 if columns else s1)
    else:
        raise ValueError(f"no ranking statistic for {scheme!r}")
    if not columns:
        return stat
    cols = s1.reshape(M, n)
    np.copyto(cols, stat.T)
    return cols.T


def _kth_index(stat: np.ndarray, k: int, scratch: np.ndarray) -> np.ndarray:
    """Column of each row's k-th largest entry, ties to the lowest index:
    position k - 1 of a stable descending sort.  The entries must be finite.
    `scratch`, another array shaped like stat, is the work space.

    At M <= _COLUMNS_MAX_M every rank takes _kth_by_columns.  Above it,
    the two ranks at either end take an argmax, after knocking out the
    largest entry for k = 2 in stat itself and writing it back after
    (argmax takes the first of equal maxima, which is the stable order), or
    the mirror walk up from the smallest with argmin over reversed columns,
    for k = M - 1 in a reversed copy in scratch; deeper ranks take a
    partition of a copy in scratch and repair its ties.  stat comes back as
    it was passed."""
    n, M = stat.shape
    if M <= _COLUMNS_MAX_M:
        return _kth_by_columns(stat.T, k, scratch.reshape(M, n))
    # one knock-out round costs about one argmax: at 2^17 doubles 0.04-0.08
    # ms at M = 100, a partition 0.8-1.7 ms
    if k <= 2 and k <= M - 1:
        top = np.argmax(stat, axis=1)
        if k == 1:
            return top
        rows = np.arange(n)
        kept = stat[rows, top]
        stat[rows, top] = -np.inf
        second = np.argmax(stat, axis=1)
        stat[rows, top] = kept
        return second
    if k >= M - 1:
        # reversed, equal values run from the highest index: stable ascending.
        # The copy pays for itself: argmin over the reversed view takes about
        # 3 times as long, and indexing through it 10 times
        rev = stat[:, ::-1]
        if k == M - 1:
            np.copyto(scratch, rev)
            rev = scratch
            rev[np.arange(n), np.argmin(rev, axis=1)] = np.inf
        return M - 1 - np.argmin(rev, axis=1)
    np.copyto(scratch, stat)
    scratch.partition(M - k, axis=1)
    v = scratch[:, M - k, None]  # each row's k-th largest value
    eq = stat == v
    idx = np.argmax(eq, axis=1)  # its first column
    if np.count_nonzero(eq) > n:  # some row ties at its k-th value
        t = np.flatnonzero(eq.sum(axis=1) > 1)
        # the pick is the (k - #greater)-th of the tied entries in index order
        need = k - (stat[t] > v[t]).sum(axis=1)
        idx[t] = np.argmax(np.cumsum(eq[t], axis=1) >= need[:, None], axis=1)
    return idx


def _kth_by_columns(cols: np.ndarray, k: int, work: np.ndarray) -> np.ndarray:
    """_kth_index over the columns cols, shaped (M, n), by whole-column
    passes: a numpy call per column instead of one per row.  A running
    top r of the columns, kept by min/max insertion, ends with each row's
    r-th largest value v; a count pass then takes the need-th column equal
    to v, where need = r - #(entries > v), which is the stable order's tie
    rule.  For ranks in the lower half, r = M + 1 - k and the passes run
    mirrored: the r-th smallest, ties to the highest index, over reversed
    columns.  So r <= ceil(M/2), and `work`, shaped like cols, holds the r
    running rows and two spare ones."""
    M, n = cols.shape
    r, hi, lo, beats = k, np.maximum, np.minimum, np.greater
    if 2 * k > M + 1:
        cols, r, hi, lo, beats = cols[::-1], M + 1 - k, np.minimum, np.maximum, np.less
    top, spare = work[:r], work[r : r + 2]
    np.copyto(top[0], cols[0])
    for c in range(1, M):
        v = cols[c]
        for j in range(min(c, r - 1)):
            lo(top[j], v, out=spare[j % 2])
            hi(top[j], v, out=top[j])
            v = spare[j % 2]
        if c < r:
            np.copyto(top[c], v)
        else:
            hi(top[r - 1], v, out=top[r - 1])
    v, hit = top[r - 1], np.empty(n, np.bool_)
    left = np.full(n, r, np.int8)  # need, then the equal entries still to pass
    for j in range(r - 1):
        left -= beats(top[j], v, out=hit)
    pos = np.zeros(n, np.int8)
    for c in range(M - 1):  # the pick is at or before the last column
        left -= np.equal(cols[c], v, out=hit)
        pos += np.greater(left, 0, out=hit)
    return pos.astype(np.intp) if r == k else np.subtract(M - 1, pos, dtype=np.intp)


def _select(spec: SchemeSpec | PairSpec, ug, uh, params: SystemParams,
            sigma_e2: float, scratch) -> np.ndarray:
    """(n, 1) indices, or (n, 2) for a pair, ranked in each row of the (n, M)
    uniforms of the links the scheme ranks on.  scratch, two (n, M) arrays,
    holds the ranking statistic and the work space of _kth_index."""
    pair = isinstance(spec, PairSpec)
    stat = _ranking_stat(spec.scheme, ug, uh, params, spec.model, sigma_e2, scratch)
    ranks = (spec.k, spec.j) if pair else (spec.k,)
    cols = [_kth_index(stat, r, scratch[1]) for r in ranks]
    return np.stack(cols, axis=1) if pair else cols[0][:, None]


def _workspace(n: int, M: int):
    """This thread's four flat chunk arrays, u_g, u_h and two scratch
    arrays, each with room for n rows of max(M, _MIN_ROW) doubles.  They
    are views of buffers the thread keeps from chunk to chunk; the buffers
    grow only when a larger chunk needs it."""
    need = n * max(M, _MIN_ROW)
    buf = getattr(_local, "buf", None)
    if buf is None or buf.shape[1] < need:
        _local.buf = None  # free the old buffers before the new ones are made
        buf = _local.buf = np.empty((4, max(need, _CHUNK_ELEMENTS)))
    return [b[:need] for b in buf]


def _lead(a: np.ndarray, shape) -> np.ndarray:
    """A C-ordered array of the given shape over the first entries of a."""
    return a.reshape(-1)[: math.prod(shape)].reshape(shape)


def _count_block(config: TrialConfig, x: float, key: np.random.SeedSequence, n: int,
                 start: int, size: int) -> int:
    """Failures among trials start .. start + n - 1 of the run of `size`
    trials whose stream is seeded by key (exact integer).  Every
    chunk-sized array lives in the calling thread's workspace."""
    spec, params, sigma_e2 = config.spec, config.params, config.estimation_error_var
    M, w = params.num_devices, 2 if isinstance(spec, PairSpec) else 1
    ranked = _RANKED_LINKS[spec.scheme]
    m_g, m_h = (M if r else w for r in ranked)
    bufs = _workspace(n, M)
    ug, uh = _lead(bufs[0], (n, m_g)), _lead(bufs[1], (n, m_h))
    s1, s2 = (_lead(b, (n, M)) for b in bufs[2:])
    _draw_block(_stream_at(key, start * m_g), _stream_at(key, size * m_g + start * m_h), ug, uh)
    if spec.scheme is Scheme.SBS and sigma_e2 == 0.0 and isinstance(spec, SchemeSpec):
        # the k-th best SNR is <= x exactly when fewer than k devices exceed
        # x, that is have s above r (beta for the linear harvester); rows are
        # counted without a matmul, whose OpenBLAS gemv would start its own
        # threads beside the pool's, in a type that holds M
        r, beta = _scales(x, params, spec.model)
        edge = beta if spec.model is EhModel.LINEAR else r
        stat = _ranking_stat(spec.scheme, ug, uh, params, spec.model, sigma_e2, (s1, s2))
        if M > _COLUMNS_MAX_M:
            above = (stat > edge).sum(axis=1, dtype=np.min_scalar_type(M))
        else:
            above, hit = np.zeros(n, np.int8), np.empty(n, np.bool_)
            for col in stat.T:
                above += np.greater(col, edge, out=hit)
        return int(np.count_nonzero(above < spec.k))
    if spec.scheme is not Scheme.RS:
        flat = _select(spec, ug, uh, params, sigma_e2, (s1, s2))
        flat += np.arange(0, n * M, M)[:, None]  # into the flattened rows
    # the picks' gains go to the fronts of the scratch arrays, gathered from
    # a ranked link and made straight from the uniforms of an unranked one;
    # then the uniforms' own arrays take the error uniforms, then the energies
    g, h = _lead(s1, (n, w)), _lead(s2, (n, w))
    for u, r, out in ((ug, ranked[0], g), (uh, ranked[1], h)):
        _gains(np.take(u, flat, out=out, mode="clip") if r else u, sigma_e2, out=out)
    if sigma_e2 > 0.0:
        base = size * (m_g + m_h)
        for est, buf in ((g, bufs[0]), (h, bufs[1])):
            u = _lead(buf, (2, n, w))  # moduli, then phases
            _draw_block(_stream_at(key, base + start * w),
                        _stream_at(key, base + (size + start) * w), *u)
            _true_gains(est, sigma_e2, u)
            base += 2 * size * w
    e = harvested_energy(g, params, spec.model, out=_lead(bufs[0], g.shape))
    x_sel = snr(h, e, params, out=h)
    if isinstance(spec, PairSpec):
        p, q = x_sel[:, 0], x_sel[:, 1]
        if spec.scheme is Scheme.RS:  # the stronger of the two is the primary
            p, q = np.maximum(p, q), np.minimum(p, q)
        return int((p / (q + 1.0) <= x).sum())
    return int((x_sel[:, 0] <= x).sum())


def _pool_map(fn, items, cap: int):
    """fn over items on the process's one pool, made on first use and
    replaced when the thread cap differs from the one it was made for.  It
    holds at most cap threads and starts one only when a submitted task
    finds none idle.  A replaced pool is shut down and its threads joined,
    under the lock the submits take too, so no run submits to it after."""
    global _pool, _pool_cap
    with _pool_lock:
        if cap != _pool_cap:
            if _pool is not None:
                _pool.shutdown()
            _pool, _pool_cap = ThreadPoolExecutor(cap, thread_name_prefix="wpcn-mc"), cap
        return _pool.map(fn, items)


def _forget_pool() -> None:
    """In a forked child: the parent's pool has no threads here, so a
    submit would wait forever; drop it, and the workspaces, and let the
    next run make its own."""
    global _pool, _pool_cap, _pool_lock, _local
    _pool, _pool_cap = None, 0
    _pool_lock = threading.Lock()
    _local = threading.local()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _thread_cap() -> int:
    """The most worker threads a run may use: THREADS_ENV when set above 0,
    else the CPUs this process may run on, at most 4."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    try:
        cap = int(raw) if raw else 0
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if cap <= 0:
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            usable = os.cpu_count() or 1
        cap = min(4, usable)
    return cap


def _worker_count(num_chunks: int) -> int:
    """The threads a run of num_chunks chunks keeps busy: one per chunk, up
    to the cap."""
    return max(1, min(_thread_cap(), num_chunks))


def simulate_outage(config: TrialConfig) -> OutageEstimate:
    """Monte Carlo outage estimate with a binomial standard error."""
    x = threshold_x(config.params)
    if x == 0.0:
        # zero rate threshold never fails: gains are positive a.s.
        return OutageEstimate(0.0, Method.MONTE_CARLO, stderr=0.0)

    total = config.num_trials
    # the chunks that keep each within _CHUNK_ELEMENTS doubles, rounded up
    # to a whole number per worker but at most one per trial, cut near-equal
    least = -(-total * max(config.params.num_devices, _MIN_ROW) // _CHUNK_ELEMENTS)
    workers = _worker_count(least)
    chunks = min(-(-least // workers) * workers, total)
    key = np.random.SeedSequence(entropy=config.base_seed, spawn_key=(0,))
    cuts = [total * i // chunks for i in range(chunks + 1)]
    todo = collections.deque(zip(cuts, cuts[1:]))  # (first, end) trials, taken by popleft
    todo.extend([None] * workers)  # each worker stops at the None it takes

    def drain(_) -> int:
        return sum(_count_block(config, x, key, hi - lo, lo, total)
                   for lo, hi in iter(todo.popleft, None))

    failures = sum(_pool_map(drain, range(workers), _thread_cap()))
    p_hat = failures / total
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / total)
    return OutageEstimate(p_hat, Method.MONTE_CARLO, stderr=stderr)
