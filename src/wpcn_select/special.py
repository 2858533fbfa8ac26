"""Special-function and quadrature kernel shared by all evaluators.

Wraps scipy's K1 / incomplete beta behind explicit domain
checks, and provides one-dimensional adaptive quadrature with an error
contract: results that cannot meet the requested tolerance raise
AccuracyError carrying the best available estimate instead of returning
silently degraded numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from scipy import integrate as _integrate
from scipy import special as _special

__all__ = [
    "AccuracyError",
    "DEFAULT_QUADRATURE",
    "DomainError",
    "QuadratureSpec",
    "bessel_k1",
    "integrate_finite",
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
    points: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Adaptive quadrature of f on [a, b].

    Returns (value, error_estimate).  `points` marks interior features
    (peaks, derivative breaks) the subdivision should start from.  Raises
    AccuracyError, carrying the best estimate, when the integrator cannot
    converge within the subdivision budget.
    """
    a, b = float(a), float(b)
    if not a <= b:
        raise DomainError(f"integrate_finite requires a <= b, got a={a!r}, b={b!r}")
    if a == b:
        return 0.0, 0.0
    if points is not None:
        # quadpack rejects break points outside the open interval
        points = [p for p in points if a < p < b] or None
    out = _integrate.quad(
        f, a, b,
        epsabs=spec.absolute_tolerance,
        epsrel=spec.relative_tolerance,
        limit=spec.max_subdivisions,
        points=points,
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
    points: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Adaptive quadrature of f on [lower, inf) for exponentially decaying f.

    Substitutes u = exp(-(z - lower)), mapping the half line to (0, 1], and
    delegates to integrate_finite.  `points` are given on the z axis and are
    mapped through the same substitution.
    """
    lower = float(lower)

    def g(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return f(lower - math.log(u)) / u

    mapped = None
    if points is not None:
        mapped = [math.exp(-(p - lower)) for p in points if p > lower]
    return integrate_finite(g, 0.0, 1.0, spec, points=mapped)
