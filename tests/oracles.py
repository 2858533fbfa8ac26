"""Independent restatements the test modules check closed forms against."""

import math

import numpy as np
from scipy import special as sp
from scipy.integrate import quad

from wpcn_select.analytic import PairSpec, Scheme, r_scale
from wpcn_select.model import harvested_energy, snr, threshold_x
from wpcn_select.montecarlo import _true_gains
from wpcn_select.special import _EPS, _NODES, _RULES, _TINY, _beta_args


def qk21_reference(f, a, b, piece):
    """Kronrod value and QUADPACK error estimate of each panel [a, b] in plain
    expressions, with no scratch arrays: the arithmetic special._qk21 must
    match bit for bit."""
    h = 0.5 * (b - a)
    fx = f(a[:, None] + h[:, None] * _NODES, piece)
    resk, resg = (fx @ _RULES).T
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _RULES[:, 0]
    err = 200.0 * np.abs(resk - resg)
    err = resasc * (err / np.maximum(resasc, err + _TINY)) ** 1.5
    return resk * h, np.maximum(err, 50.0 * _EPS * (np.abs(fx) @ _RULES[:, 0])) * h


def order_stat_logpdf_array(t, M, k, rate):
    """Log density of the k-th largest of M iid exponentials, array-valued,
    with both where-guards: the arithmetic analytic.order_stat_law's logpdf
    must match bit for bit, -inf at t <= 0 and nan at a nan t included."""
    lc = math.log(k * rate) + math.log(math.comb(M, k))
    q = -np.expm1(-rate * np.maximum(t, 0.0))
    dead = q <= 0.0
    return np.where(dead, -np.inf, lc - k * rate * t + (M - k) * np.log(np.where(dead, 1.0, q)))


def gated_integrand_reference(logpdf, gates, cr_over_pt, slope=0.0):
    """f(t, piece) = e^logpdf(t) [1 - e^(-E(t))], E(t) = shift - slope t +
    cr_over_pt/(t - lo), for gates (lo, hi, shift) indexed by piece, in one
    expression: the arithmetic of analytic._gated_integral's integrand."""
    lo, _, shift = (np.array(column)[:, None] for column in zip(*gates))

    def f(t, piece):
        e = slope * t - shift[piece] - cr_over_pt / (t - lo[piece])
        return np.exp(logpdf(t)) * -np.expm1(e)

    return f


def reg_inc_beta_complement(psi, p, q):
    """1 - I_psi(p, q), computed directly so it keeps its digits near 0."""
    psi, p, q = _beta_args("reg_inc_beta_complement", psi, p, q)
    return float(sp.betaincc(p, q, psi))


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

    val, _ = quad(f, r, math.inf, epsabs=1e-12, epsrel=1e-10, limit=2000)
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


def run_key(base_seed):
    """The seed of a run's one stream, as the simulator defines it."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(0,))


def whole_run_outage(config):
    """Failure fraction of the whole run, by the definition: draw every
    trial from one sequential generator, make every gain, rank each row on
    the scheme's own statistic (harvested energy, uplink gain, min gain or
    e2e SNR) by a stable descending sort and test the picks.  A link the
    scheme ranks on draws all M gains of a trial, one it does not rank on
    (h for EBS, g for IBS, both for random selection) only the w picks'
    gains, w = 1, or 2 for a pair: every trial's g first, then every
    trial's h.  Random selection takes device 0, and a pair devices 0 and 1
    with the higher SNR as the primary.  Under imperfect CSI the chosen
    gains' error uniforms follow: the g links' moduli, then their phases,
    then the same for the h links.  The reference the chunked simulator,
    which ranks on the uniforms and transforms only its picks, must match
    bit for bit."""
    spec, params, sigma_e2 = config.spec, config.params, config.estimation_error_var
    M, scheme = params.num_devices, spec.scheme
    pair = isinstance(spec, PairSpec)
    n, w = config.num_trials, 2 if pair else 1
    rng = np.random.default_rng(run_key(config.base_seed))
    ranks_g = scheme in (Scheme.SBS, Scheme.EBS, Scheme.MMS)
    ranks_h = scheme in (Scheme.SBS, Scheme.IBS, Scheme.MMS)
    g = -np.log1p(-rng.random((n, M if ranks_g else w)))
    h = -np.log1p(-rng.random((n, M if ranks_h else w)))
    if sigma_e2 != 0.0:  # the estimates selection ranks on
        g, h = (1.0 - sigma_e2) * g, (1.0 - sigma_e2) * h
    if scheme is not Scheme.RS:
        if scheme is Scheme.SBS:
            stat = snr(h, harvested_energy(g, params, spec.model), params)
        elif scheme is Scheme.EBS:
            stat = harvested_energy(g, params, spec.model)
        elif scheme is Scheme.IBS:
            stat = h
        else:
            stat = np.minimum(g, h)
        ranks = [spec.k - 1, spec.j - 1] if pair else [spec.k - 1]
        sel = np.argsort(-stat, axis=1, kind="stable")[:, ranks]
        if ranks_g:
            g = np.take_along_axis(g, sel, axis=1)
        if ranks_h:
            h = np.take_along_axis(h, sel, axis=1)
    if sigma_e2 > 0.0:
        g = _true_gains(g, sigma_e2, rng.random((2, *g.shape)))
        h = _true_gains(h, sigma_e2, rng.random((2, *h.shape)))
    x_sel = snr(h, harvested_energy(g, params, spec.model), params)
    if pair and scheme is Scheme.RS:
        x_sel = np.sort(x_sel, axis=1)[:, ::-1]
    sinr = x_sel[:, 0] / (x_sel[:, 1] + 1.0) if pair else x_sel[:, 0]
    return int((sinr <= threshold_x(params)).sum()) / n
