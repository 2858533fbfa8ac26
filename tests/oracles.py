"""Independent restatements the test modules check closed forms against."""

import math

from wpcn_select.analytic import r_scale
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
