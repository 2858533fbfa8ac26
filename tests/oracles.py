"""Independent restatements the test modules check closed forms against."""

import math

import numpy as np

from wpcn_select.analytic import Scheme, r_scale
from wpcn_select.model import harvested_energy, snr, threshold_x
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
