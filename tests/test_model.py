"""Checks for the physical-layer primitives.

Harvester values are compared against direct arithmetic restatements of the
transfer map; the saturation level and slope constant are frozen from exact
evaluation of the default rectenna fit.
"""

import math

import numpy as np
import pytest

from wpcn_select.model import (
    DEFAULT_RECTENNA,
    EhModel,
    RectennaParams,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    default_params,
    harvested_energy,
    linear_to_db,
    snr,
    threshold_x,
    watts_to_dbm,
)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def test_default_rectenna_constants():
    assert DEFAULT_RECTENNA.a == 2.463
    assert DEFAULT_RECTENNA.b == 1.635
    assert DEFAULT_RECTENNA.c == 0.826
    assert DEFAULT_RECTENNA.saturation_slope == pytest.approx(
        0.39943799999999974, rel=1e-15
    )


def test_rectenna_validation():
    with pytest.raises(ValueError):
        RectennaParams(a=-1.0, b=1.0, c=1.0)
    with pytest.raises(ValueError):
        RectennaParams(a=1.0, b=2.0, c=1.0)  # a*c - b <= 0


def test_default_params_values():
    p = default_params()
    assert p.transmit_power == pytest.approx(1e-4)
    assert p.noise_variance == pytest.approx(1e-8)
    assert p.harvest_fraction == 0.5
    assert p.rate_threshold_q == 1.0
    assert p.num_devices == 5
    assert p.comm_fraction == 0.5


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(transmit_power=0.0)
    with pytest.raises(ValueError):
        SystemParams(noise_variance=-1e-8)
    with pytest.raises(ValueError):
        SystemParams(harvest_fraction=1.0)
    with pytest.raises(ValueError):
        SystemParams(harvest_fraction=0.0)
    with pytest.raises(ValueError):
        SystemParams(rate_threshold_q=-0.5)
    with pytest.raises(ValueError):
        SystemParams(num_devices=0)


def test_replace_returns_new_frozen_instance():
    p = default_params()
    q = p.replace(transmit_power=1e-2)
    assert q.transmit_power == 1e-2
    assert p.transmit_power == 1e-4
    with pytest.raises(Exception):
        p.transmit_power = 1.0  # frozen


# ---------------------------------------------------------------------------
# harvester
# ---------------------------------------------------------------------------

def test_harvested_energy_matches_direct_arithmetic():
    p = default_params()
    g = 1.7
    a, b, c = p.rectenna.a, p.rectenna.b, p.rectenna.c
    pin = p.transmit_power * g
    direct = p.harvest_fraction * ((a * pin + b) / (pin + c) - b / c)
    assert harvested_energy(g, p, EhModel.NON_LINEAR) == pytest.approx(
        direct, rel=1e-15
    )


def test_harvested_energy_linear_is_exact():
    p = default_params()
    assert harvested_energy(3.0, p, EhModel.LINEAR) == 0.5 * 1e-4 * 3.0


def test_harvested_energy_zero_gain():
    p = default_params()
    assert harvested_energy(0.0, p, EhModel.NON_LINEAR) == pytest.approx(0.0, abs=1e-18)
    assert harvested_energy(0.0, p, EhModel.LINEAR) == 0.0


def test_harvested_energy_on_array_matches_scalars_and_leaves_it():
    # the array form updates its own temporaries in place, never the gains
    p = default_params(transmit_power=dbm_to_watts(-40.0))
    gains = np.array([0.0, 1e-9, 0.37, 1.0, 5.5, 1e6])
    before = gains.copy()
    for model in EhModel:
        energies = harvested_energy(gains, p, model)
        assert np.array_equal(gains, before)
        assert [float(e) for e in energies] == [
            harvested_energy(float(g), p, model) for g in gains
        ]


def test_harvester_saturates():
    # limit g -> inf is t1 * (a - b/c); frozen from exact arithmetic
    p = default_params()
    ceiling = 0.5 * (p.rectenna.a - p.rectenna.b / p.rectenna.c)
    assert ceiling == pytest.approx(0.24179055690072637, rel=1e-15)
    assert harvested_energy(1e12, p, EhModel.NON_LINEAR) == pytest.approx(
        ceiling, rel=1e-6
    )
    assert harvested_energy(1e12, p, EhModel.NON_LINEAR) < ceiling
    # at Pt = inf every gain harvests the ceiling, where the map is inf/inf
    inf = p.replace(transmit_power=math.inf)
    gains, out = np.array([0.5, 2.0]), np.empty(2)
    assert harvested_energy(2.0, inf, EhModel.NON_LINEAR) == ceiling
    assert np.array_equal(harvested_energy(gains, inf, EhModel.NON_LINEAR), [ceiling] * 2)
    assert harvested_energy(gains, inf, EhModel.NON_LINEAR, out=out) is out
    assert np.array_equal(out, [ceiling] * 2)


def test_harvester_monotone_in_gain():
    p = default_params(transmit_power=1.0)
    gains = [0.1 * i for i in range(1, 60)]
    vals = [harvested_energy(g, p, EhModel.NON_LINEAR) for g in gains]
    assert all(lo < hi for lo, hi in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# snr and threshold
# ---------------------------------------------------------------------------

def test_snr_is_plain_ratio():
    p = default_params()
    assert snr(2.0, 3e-5, p) == pytest.approx(2.0 * 3e-5 / (0.5 * 1e-8), rel=1e-15)


def test_threshold_default_is_three():
    # Q = 1, t2 = 0.5: x = 2^2 - 1
    assert threshold_x(default_params()) == pytest.approx(3.0, rel=1e-15)


def test_threshold_low_rate_point():
    p = default_params(rate_threshold_q=db_to_linear(-4.0))
    assert threshold_x(p) == pytest.approx(0.7365384334381356, rel=1e-13)


def test_threshold_zero_rate_is_exact_zero():
    assert threshold_x(default_params(rate_threshold_q=0.0)) == 0.0


def test_threshold_tiny_rate_uses_expm1_precision():
    p = default_params(rate_threshold_q=1e-12)
    # x ~= (Q/t2) ln 2 for tiny Q; naive 2**(Q/t2) - 1 loses most digits here
    assert threshold_x(p) == pytest.approx(2e-12 * math.log(2.0), rel=1e-9)


def test_threshold_vanishing_comm_phase_is_certain_outage():
    p = default_params(harvest_fraction=1.0 - 1e-4)
    assert math.isinf(threshold_x(p))


# ---------------------------------------------------------------------------
# unit conversions
# ---------------------------------------------------------------------------

def test_dbm_round_trip():
    assert dbm_to_watts(-10.0) == pytest.approx(1e-4, rel=1e-15)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert watts_to_dbm(dbm_to_watts(-23.7)) == pytest.approx(-23.7, rel=1e-12)


def test_db_round_trip():
    assert db_to_linear(0.0) == 1.0
    assert linear_to_db(db_to_linear(-4.0)) == pytest.approx(-4.0, rel=1e-12)


def test_conversion_domains():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-2.0)
