"""Independent restatements the test modules check closed forms against."""

import math

import numpy as np

from wpcn_select.analytic import PairSpec, Scheme, SchemeSpec, r_scale
from wpcn_select.model import harvested_energy, snr, threshold_x
from wpcn_select.montecarlo import _draw_block, _ranking_stat, _select, _true_gains
from wpcn_select.special import integrate_semi_infinite


def ibs_phi_quadrature(x, params, delta):
    """int_r^inf exp(-delta z - c r/(Pt (z - r))) dz by direct quadrature,
    the cross-check route for analytic.ibs_phi_closed."""
    r = r_scale(x, params)
    cr_over_pt = params.rectenna.c * r / params.transmit_power

    def f(z):
        u = z - r
        if u <= 0.0:
            return 0.0
        e = -delta * z - cr_over_pt / u
        return math.exp(e) if e > -745.0 else 0.0

    val, _ = integrate_semi_infinite(f, r)
    return val


def order_stat_logpdf(t, M, k, rate):
    """Log density of the k-th largest of M iid exponentials at one point,
    the scalar reference the array-valued RankedLaw.logpdf is checked against."""
    if t <= 0.0:
        return -math.inf
    e = math.exp(-rate * t)
    if e >= 1.0:
        return -math.inf
    lc = math.log(k * rate) + math.lgamma(M + 1) - math.lgamma(k + 1) - math.lgamma(M - k + 1)
    return lc - k * rate * t + (M - k) * math.log1p(-e)


def gumbel_logpdf(t, M, k, rate):
    """Log density of the Gumbel limit of that order statistic at one point."""
    lc = math.log(rate) + k * math.log(M) - math.lgamma(k)
    return lc - k * rate * t - M * math.exp(-rate * t)


def eight_normal_gains(M, n, sigma_e2, rng):
    """(true_g, true_h, est_g, est_h), each (n, M), built from eight real
    normals per device: the estimate is CN(0, 1 - sigma_e2), the error an
    independent CN(0, sigma_e2), and each gain a squared modulus.  The
    reference the conditional draw of the simulator is checked against."""
    z = rng.standard_normal((8, n, M))
    s_est = math.sqrt((1.0 - sigma_e2) / 2.0)
    s_err = math.sqrt(sigma_e2 / 2.0)
    est_g = (s_est * z[0]) ** 2 + (s_est * z[1]) ** 2
    g = (s_est * z[0] + s_err * z[2]) ** 2 + (s_est * z[1] + s_err * z[3]) ** 2
    est_h = (s_est * z[4]) ** 2 + (s_est * z[5]) ** 2
    h = (s_est * z[4] + s_err * z[6]) ** 2 + (s_est * z[5] + s_err * z[7]) ** 2
    return g, h, est_g, est_h


def imperfect_csi_outage(spec, params, sigma_e2, num_trials, seed, chunk=10_000):
    """(outage fraction, binomial stderr) of SBS or MMS selection:
    rank on eight-normal estimates by a stable descending sort, fail on the
    true SNR of the k-th pick."""
    rng = np.random.default_rng(seed)
    M, x = params.num_devices, threshold_x(params)
    fails = 0
    for start in range(0, num_trials, chunk):
        n = min(chunk, num_trials - start)
        g, h, est_g, est_h = eight_normal_gains(M, n, sigma_e2, rng)
        if spec.scheme is Scheme.SBS:
            stat = snr(est_h, harvested_energy(est_g, params, spec.model), params)
        elif spec.scheme is Scheme.MMS:
            stat = np.minimum(est_g, est_h)
        else:
            raise ValueError(f"no oracle ranking for {spec.scheme!r}")
        sel = np.argsort(-stat, axis=1, kind="stable")[:, spec.k - 1]
        rows = np.arange(n)
        x_sel = snr(h[rows, sel], harvested_energy(g[rows, sel], params, spec.model), params)
        fails += int((x_sel <= x).sum())
    p = fails / num_trials
    return p, math.sqrt(p * (1.0 - p) / num_trials)


def whole_block_count(config, x, block, n):
    """Failures among the n trials of one block (exact integer), drawing the
    whole (n, M) block from one sequential generator: the reference the
    chunked simulator must match count for count."""
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
