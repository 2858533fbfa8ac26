"""Exact identities that hold at every point, checked with no oracle.

A uniformly random rank picks a uniformly random device, so the mean over
k = 1..M of the k-th best outage is the RS outage, for every ranked scheme
and either harvester.  SBS ranks on the SNR itself, so its best device is
the least likely to fail and its worst the most.  More transmit power never
raises an outage, and none falls below its Pt = inf floor.  Each bound
below is the measured worst case on its grid with some margin, and says
what sets it.
"""

import functools
import math

import pytest

from wpcn_select.analytic import (
    Scheme,
    SchemeSpec,
    outage_ebs,
    outage_high_snr,
    outage_ibs,
    outage_mms,
    outage_rs,
    outage_sbs,
)
from wpcn_select.model import EhModel, dbm_to_watts, default_params

RANKED = {Scheme.SBS: outage_sbs, Scheme.EBS: outage_ebs, Scheme.IBS: outage_ibs,
          Scheme.MMS: outage_mms}
EXACT = {Scheme.RS: outage_rs, **RANKED}
X_GRID = (0.05, 0.5, 3.0)
# both sides of the K1-sum cap and of M = 60, the cap before it
M_GRID = (5, 10, 11, 20, 60, 61, 100)
PT_DBM = (-40.0, -10.0, 20.0)

# RS forms F as 1 - z K1(z) e^(-r), which keeps F only to about 1e-16
# absolute: at -10 dBm, linear harvester, x = 0.05, RS = 6.0e-5 is 1.17e-12
# relative off a 40-digit F, while every scheme's mean is within 4e-16 of it
RS_ABS = 1e-16


def _relative_bound(scheme: Scheme, M: int, pt_dbm: float) -> float:
    """|mean over k - RS| <= bound RS + RS_ABS; measured worst case in the
    comment of each branch."""
    if pt_dbm == 20.0:
        # 4.1e-8 (EBS, M = 61, x = 0.05, RS = 1.6e-7): single values near
        # 1e-7 lose digits to the quadrature's absolute floor of 1e-12, and
        # RS itself is 5.4e-10 off there
        return 1e-7
    if scheme in (Scheme.EBS, Scheme.IBS) and M <= 10 and pt_dbm == -10.0:
        # 6.5e-11 (M = 10, linear, x = 0.5) on the K1 sum, which runs at
        # M <= 10: the cancellation monitor admits tail errors up to its limit
        return 1e-10
    # 6.1e-15 on the integrals and 5.4e-13 on the K1 sums at -40 dBm, and
    # within RS_ABS on the integrals at -10 dBm; K1 sums at M = 20 and 60
    # miss by up to 4.0e-10 here
    return 1e-12


@functools.lru_cache(maxsize=None)
def _outages(M: int, pt_dbm: float) -> dict:
    """(model, x) -> (RS, {scheme: [outage at k = 1..M]}) on one (M, Pt)."""
    params = default_params(num_devices=M, transmit_power=dbm_to_watts(pt_dbm))
    table = {}
    for model in EhModel:
        for x in X_GRID:
            rs = outage_rs(x, SchemeSpec(Scheme.RS, model=model), params).value
            table[model, x] = rs, {
                s: [f(x, SchemeSpec(s, k=k, model=model), params).value for k in range(1, M + 1)]
                for s, f in RANKED.items()
            }
    return table


@pytest.mark.parametrize("pt_dbm", PT_DBM)
@pytest.mark.parametrize("M", M_GRID)
def test_mean_over_ranks_is_random_selection(M, pt_dbm):
    for (model, x), (rs, by_scheme) in _outages(M, pt_dbm).items():
        for scheme, values in by_scheme.items():
            mean = math.fsum(values) / M
            bound = _relative_bound(scheme, M, pt_dbm) * rs + RS_ABS
            assert abs(mean - rs) <= bound, (scheme, model, x, mean, rs)


@pytest.mark.parametrize("pt_dbm", PT_DBM)
@pytest.mark.parametrize("M", M_GRID)
def test_sbs_is_the_best_first_and_the_worst_last(M, pt_dbm):
    # no slack: no violation was measured on this grid
    for (model, x), (_, by_scheme) in _outages(M, pt_dbm).items():
        sbs = by_scheme[Scheme.SBS]
        for scheme, values in by_scheme.items():
            assert sbs[0] <= values[0], (scheme, model, x)
            assert sbs[-1] >= values[-1], (scheme, model, x)


@pytest.mark.parametrize("M", [5, 20, 100])
def test_outage_falls_with_power_to_its_floor(M):
    # -40 to +80 dBm in 10 dB steps, 3,510 values in all: no rise and no
    # value under the floor was measured, so neither has slack
    powers = [default_params(num_devices=M, transmit_power=dbm_to_watts(dbm))
              for dbm in range(-40, 81, 10)]
    for scheme, f in EXACT.items():
        for k in sorted({1, 2, M}):
            for model in EhModel:
                spec = SchemeSpec(scheme, k=k, model=model)
                for x in X_GRID:
                    values = [f(x, spec, p).value for p in powers]
                    assert all(b <= a for a, b in zip(values, values[1:])), (spec, x, values)
                    if model is EhModel.NON_LINEAR:
                        floor = outage_high_snr(x, spec, powers[0]).value
                        assert min(values) >= floor, (spec, x, values, floor)
