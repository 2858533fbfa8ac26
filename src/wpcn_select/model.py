"""Physical-layer primitives: parameters, units, harvester, SNR, threshold.

All quantities inside the library are SI / linear scale (watts, unit slot
time, dimensionless gains).  dBm and dB appear only at the CLI and config
boundary through the conversion helpers at the bottom.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "EhModel",
    "RectennaParams",
    "SystemParams",
    "db_to_linear",
    "dbm_to_watts",
    "default_params",
    "harvested_energy",
    "linear_to_db",
    "snr",
    "threshold_x",
    "watts_to_dbm",
]


class EhModel(Enum):
    """Energy-harvesting transfer characteristic of the rectenna."""

    NON_LINEAR = "nonlinear"
    LINEAR = "linear"


@dataclass(frozen=True)
class RectennaParams:
    """Curve-fit constants (a, b, c) of the rectifier energy transfer map.

    The map is t1 * ((a*P + b)/(P + c) - b/c) for input power P; it needs
    a*c - b > 0 to produce positive energy for positive input.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and self.b > 0.0 and self.c > 0.0):
            raise ValueError("rectenna constants a, b, c must all be positive")
        if not self.a * self.c - self.b > 0.0:
            raise ValueError(
                "rectenna constants must satisfy a*c - b > 0, got "
                f"a*c - b = {self.a * self.c - self.b!r}"
            )

    @property
    def saturation_slope(self) -> float:
        """a*c - b, the numerator constant of the harvested-energy map."""
        return self.a * self.c - self.b


#: Measurement-fit rectenna constants used by all default experiments.
DEFAULT_RECTENNA = RectennaParams(a=2.463, b=1.635, c=0.826)


@dataclass(frozen=True)
class SystemParams:
    """Full experiment parameterization, SI units throughout.

    transmit_power and noise_variance are in watts, harvest_fraction is
    t1 in (0, 1) with t2 = 1 - t1, rate_threshold_q is the linear-scale
    spectral-efficiency threshold (bits/s/Hz).  Slot duration is normalized
    to 1 and not configurable; t1 carries all timing freedom.
    """

    rectenna: RectennaParams = DEFAULT_RECTENNA
    transmit_power: float = 1e-4       # -10 dBm
    noise_variance: float = 1e-8       # -50 dBm
    harvest_fraction: float = 0.5      # t1
    rate_threshold_q: float = 1.0      # 0 dB
    num_devices: int = 5

    def __post_init__(self) -> None:
        if not self.transmit_power > 0.0:
            raise ValueError("transmit_power must be positive")
        if not self.noise_variance > 0.0:
            raise ValueError("noise_variance must be positive")
        if not 0.0 < self.harvest_fraction < 1.0:
            raise ValueError("harvest_fraction t1 must lie strictly in (0, 1)")
        if not self.rate_threshold_q >= 0.0:
            raise ValueError("rate_threshold_q must be nonnegative")
        if not (type(self.num_devices) is int and self.num_devices >= 1):
            raise ValueError("num_devices must be an integer >= 1")

    @property
    def comm_fraction(self) -> float:
        """t2 = 1 - t1, the information-transmission share of the slot."""
        return 1.0 - self.harvest_fraction

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)


def default_params(**overrides) -> SystemParams:
    """SystemParams preset used by the reference experiments."""
    return SystemParams().replace(**overrides) if overrides else SystemParams()


# ---------------------------------------------------------------------------
# physical primitives
# ---------------------------------------------------------------------------

def harvested_energy(gain_g: float, params: SystemParams, model: EhModel, out=None) -> float:
    """Energy collected during the harvesting phase for squared gain |g|^2 >= 0.

    NonLinear saturates at t1*(a - b/c) as the gain grows; Linear is the
    unbounded benchmark t1*Pt*|g|^2.  Takes a float or an array of gains;
    an array is left as it is, unless an output array `out` is given: the
    energies are then written there and the gains are overwritten on the
    way, so that no array is allocated.  At Pt = inf NonLinear is the
    saturation for every gain, where the map itself would take inf/inf.
    """
    t1 = params.harvest_fraction
    if model is EhModel.LINEAR:
        if out is None:
            return t1 * params.transmit_power * gain_g
        return np.multiply(gain_g, t1 * params.transmit_power, out=out)
    rc = params.rectenna
    if params.transmit_power == math.inf:
        saturation = t1 * (rc.a - rc.b / rc.c)
        if out is None:
            return np.full(np.shape(gain_g), saturation) if np.ndim(gain_g) else saturation
        out.fill(saturation)
        return out
    # t1 * ((a p + b)/(p + c) - b/c), updating two arrays in place: a Monte
    # Carlo chunk passes a megabyte of gains per call
    if out is None:
        p_in = params.transmit_power * gain_g
        e = rc.a * p_in
    else:
        p_in = np.multiply(gain_g, params.transmit_power, out=gain_g)
        e = np.multiply(p_in, rc.a, out=out)
    e += rc.b
    p_in += rc.c
    e /= p_in
    e -= rc.b / rc.c
    e *= t1
    return e


def snr(gain_h: float, energy: float, params: SystemParams, out=None) -> float:
    """Uplink SNR for squared gain |h|^2 and harvested energy E; with an
    output array `out` (which may be gain_h) it is written there."""
    if out is None:
        return gain_h * energy / (params.comm_fraction * params.noise_variance)
    np.multiply(gain_h, energy, out=out)
    return np.divide(out, params.comm_fraction * params.noise_variance, out=out)


def threshold_x(params: SystemParams) -> float:
    """SNR threshold x = 2^(Q/t2) - 1 equivalent to the rate threshold Q."""
    arg = params.rate_threshold_q / params.comm_fraction * math.log(2.0)
    if arg > 709.0:  # t2 -> 0: the threshold leaves double range, outage is certain
        return math.inf
    # expm1 keeps precision when Q/t2 is tiny
    return math.expm1(arg)


# ---------------------------------------------------------------------------
# unit conversions (CLI/config boundary only)
# ---------------------------------------------------------------------------

def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    if not p_watts > 0.0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(p_watts) + 30.0


def db_to_linear(v_db: float) -> float:
    return 10.0 ** (v_db / 10.0)


def linear_to_db(v: float) -> float:
    if not v > 0.0:
        raise ValueError("value must be positive to express in dB")
    return 10.0 * math.log10(v)
