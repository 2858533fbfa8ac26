"""Special-function and quadrature kernel shared by all evaluators.

Wraps scipy's K1 / incomplete beta behind explicit domain
checks, and provides one-dimensional adaptive quadrature with an error
contract: results that cannot meet the requested tolerance raise
AccuracyError carrying the best available estimate instead of returning
silently degraded numbers.  integrate_finite wraps scipy quad.
integrate_panels gives all seed panels of a vectorized integrand QUADPACK's
qk21 value and error in one call; while the summed error exceeds max(absolute,
relative |total|), one more call evaluates the halves of every panel whose
error exceeds that over the panel count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _special

__all__ = [
    "AccuracyError",
    "DEFAULT_QUADRATURE",
    "DomainError",
    "QuadratureSpec",
    "bessel_k1",
    "integrate_finite",
    "integrate_panels",
    "integrate_semi_infinite",
    "reg_inc_beta",
    "reg_inc_beta_complement",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of a kernel function."""


class AccuracyError(ArithmeticError):
    """Tolerance target missed; carries the best available estimate."""

    def __init__(self, message: str, estimate: float = math.nan,
                 error_estimate: float = math.inf) -> None:
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for the adaptive integrators.

    Defaults are one to two orders tighter than any downstream acceptance
    tolerance, so quadrature is never the accuracy bottleneck.
    """

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (self.relative_tolerance > 0.0 and self.absolute_tolerance > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


# ---------------------------------------------------------------------------
# classical special functions
# ---------------------------------------------------------------------------

def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order one, K1(x).

    Valid for x > 0.  Underflows to exactly 0.0 for very large arguments
    (x beyond ~700), which downstream code treats as the correct limit.
    """
    x = float(x)
    if not x > 0.0:  # also rejects nan
        raise DomainError(f"bessel_k1 requires x > 0, got {x!r}")
    return float(_special.k1(x))


def _beta_args(name: str, psi: float, p: float, q: float) -> tuple[float, float, float]:
    psi, p, q = float(psi), float(p), float(q)
    if not 0.0 <= psi <= 1.0:
        raise DomainError(f"{name} requires 0 <= psi <= 1, got {psi!r}")
    if not (p > 0.0 and q > 0.0):
        raise DomainError(f"{name} requires p, q > 0, got p={p!r}, q={q!r}")
    return psi, p, q


def reg_inc_beta(psi: float, p: float, q: float) -> float:
    """Regularized incomplete beta function I_psi(p, q) on psi in [0, 1]."""
    psi, p, q = _beta_args("reg_inc_beta", psi, p, q)
    return float(_special.betainc(p, q, psi))


def reg_inc_beta_complement(psi: float, p: float, q: float) -> float:
    """1 - I_psi(p, q), computed directly so it keeps its digits near 0."""
    psi, p, q = _beta_args("reg_inc_beta_complement", psi, p, q)
    return float(_special.betaincc(p, q, psi))


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Adaptive quadrature of f on [a, b].

    Returns (value, error_estimate).  Raises AccuracyError, carrying the best
    estimate, when the integrator cannot converge within the subdivision
    budget.
    """
    a, b = float(a), float(b)
    if not a <= b:
        raise DomainError(f"integrate_finite requires a <= b, got a={a!r}, b={b!r}")
    if a == b:
        return 0.0, 0.0
    out = _integrate.quad(
        f, a, b,
        epsabs=spec.absolute_tolerance,
        epsrel=spec.relative_tolerance,
        limit=spec.max_subdivisions,
        full_output=True,
    )
    value, error_estimate = float(out[0]), float(out[1])
    if len(out) > 3:  # quadpack ier != 0: subdivision budget or roundoff failure
        raise AccuracyError(
            f"quadrature did not converge on [{a}, {b}]: {out[3]}",
            estimate=value, error_estimate=error_estimate,
        )
    return value, error_estimate


def integrate_semi_infinite(
    f: Callable[[float], float],
    lower: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Adaptive quadrature of f on [lower, inf) for exponentially decaying f.

    Substitutes u = exp(-(z - lower)), mapping the half line to (0, 1], and
    delegates to integrate_finite.
    """
    lower = float(lower)

    def g(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return f(lower - math.log(u)) / u

    return integrate_finite(g, 0.0, 1.0, spec)


# QUADPACK qk21 on [-1, 1] as doubles: Kronrod nodes from the right end to 0
# (every other one from the second is a Gauss node), their weights, Gauss weights
_XK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                0.2943928627014602, 0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764, 0.12349197626206584,
                0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_WG = [0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287]
_NODES = 1.0 + np.concatenate((-_XK, _XK[-2::-1]))  # a panel's nodes are a + h _NODES
_RULES = np.zeros((21, 2))  # columns: Kronrod weights, Gauss weights
_RULES[:, 0] = np.concatenate((_WK, _WK[-2::-1]))
_RULES[1:10:2, 1] = _RULES[19:10:-2, 1] = _WG
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


def _qk21(f, a, b, piece):
    """Kronrod value and QUADPACK error estimate of each panel [a, b]."""
    h = 0.5 * (b - a)
    fx = f(a[:, None] + h[:, None] * _NODES, piece)
    resk, resg = (fx @ _RULES).T
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _RULES[:, 0]
    # resasc min(1, (200 err / resasc)^1.5), with no 0/0 on an all-zero panel
    err = 200.0 * np.abs(resk - resg)
    err = resasc * (err / np.maximum(resasc, err + _TINY)) ** 1.5
    return resk * h, np.maximum(err, 50.0 * _EPS * (np.abs(fx) @ _RULES[:, 0])) * h


def integrate_panels(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     edges: Sequence[Sequence[float]],
                     spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Adaptive G10/K21 quadrature of a vectorized integrand over panels.

    edges holds one increasing edge sequence per piece, bounding its seed
    panels; f(t, piece) maps the (n, 21) nodes of n panels and the piece of
    each to the integrand values.  Returns (value, error_estimate) summed over
    all pieces, or raises AccuracyError carrying both past max_subdivisions.
    """
    a, b, piece = (np.array(v) for v in zip(
        *((lo, hi, i) for i, e in enumerate(edges) for lo, hi in zip(e[:-1], e[1:]))))
    if not np.all(a < b):
        raise DomainError("integrate_panels requires increasing edges")
    value, err = _qk21(f, a, b, piece)
    while True:
        total, error = float(value.sum()), float(err.sum())
        tol = max(spec.absolute_tolerance, spec.relative_tolerance * abs(total))
        if error <= tol:
            return total, error
        split = err > tol / err.size  # can be empty, as where f gave nan
        if not 0 < np.count_nonzero(split) <= spec.max_subdivisions - err.size:
            raise AccuracyError(f"panel quadrature missed its tolerance in {err.size} panels",
                                estimate=total, error_estimate=error)
        mid = 0.5 * (a[split] + b[split])
        halves = (np.hstack((a[split], mid)), np.hstack((mid, b[split])), np.tile(piece[split], 2))
        halves += _qk21(f, *halves)
        a, b, piece, value, err = (np.hstack((old[~split], new)) for old, new
                                   in zip((a, b, piece, value, err), halves))
