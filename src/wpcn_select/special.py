"""Special-function, quadrature and root-finding kernel shared by all evaluators.

Checks the domain of K1 and the regularized incomplete beta before calling
scipy's, gives the exact binomial test and interval that compare reports
beside a Monte Carlo value, and provides the one adaptive quadrature every
evaluator uses and the one scalar root finder, with an error contract:
results that cannot meet the requested tolerance raise AccuracyError
carrying the best available estimate instead of returning silently
degraded numbers.

This is the one module that imports scipy, and only scipy.special, at the
first special-function call: importing it costs more than the rest of the
package, and no Monte Carlo run or command-line parse needs it.  Every
caller, here and in analytic and evt, reads the module global _special at
call time.  It starts as a stand-in whose first attribute read imports
scipy.special and rebinds _special to the module itself, so from then on a
call reaches scipy's ufunc through no Python layer, at the cost of one
attribute read.  Python's import lock makes a first call from two threads
safe: both get the fully imported module.  sys.modules never holds the
stand-in.

brent_root is Brent's method (Algorithms for Minimization without
Derivatives, 1973, ch. 4), scipy's brentq C loop ported statement for
statement so that scipy.optimize never loads; the same iterates give the
same bits as scipy's.  It solves for the SBS extreme-value quantiles and for
the optimal harvest fraction.

integrate_panels gives all seed panels of a
vectorized integrand QUADPACK's qk21 value and error in one call; while the
summed error exceeds max(absolute, relative |total|), one more call
evaluates the halves of every panel whose error exceeds that over the panel
count.

A round's cost is mostly a fixed number of numpy calls, not nodes: one
product of the (n, 21) values with the Kronrod and Gauss columns, one pass
each for QUADPACK's resasc and resabs, a few in-place passes over the n
panel errors, and one product that scales value and error by the
half-widths.  The arithmetic is QUADPACK's, rounded the same way bit for bit
as its one-expression form (tests/oracles.py, qk21_reference).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AccuracyError",
    "DEFAULT_QUADRATURE",
    "DomainError",
    "QuadratureSpec",
    "bessel_k1",
    "binomial_p_value",
    "brent_root",
    "clopper_pearson",
    "integrate_panels",
    "reg_inc_beta",
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

class _DeferredSpecial:
    """scipy.special until first used; see the module docstring."""

    def __getattr__(self, name: str):
        global _special
        from scipy import special

        _special = special
        return getattr(special, name)


_special = _DeferredSpecial()


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


def _binomial_args(name: str, failures: int, trials: int) -> None:
    if not (type(trials) is int and trials >= 1 and type(failures) is int
            and 0 <= failures <= trials):
        raise DomainError(f"{name} requires integers 0 <= failures <= trials, trials >= 1, "
                          f"got {failures!r} of {trials!r}")


def binomial_p_value(failures: int, trials: int, p: float) -> float:
    """Two-sided exact binomial p-value of `failures` in `trials` draws at
    failure probability p: twice the smaller tail, at most 1."""
    _binomial_args("binomial_p_value", failures, trials)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binomial_p_value requires 0 <= p <= 1, got {p!r}")
    lower = _special.bdtr(failures, trials, p)  # P(X <= failures)
    upper = _special.bdtrc(failures - 1, trials, p)  # P(X >= failures), 1 at none
    return float(min(1.0, 2.0 * min(lower, upper)))


def clopper_pearson(failures: int, trials: int) -> tuple[float, float]:
    """Exact two-sided 95% interval for a failure probability from
    `failures` in `trials` draws (Clopper & Pearson, Biometrika 26, 1934):
    the beta quantiles at 0.025 and 0.975, closed at 0 when there are no
    failures and at 1 when every draw failed."""
    _binomial_args("clopper_pearson", failures, trials)
    lo = 0.0 if failures == 0 else _special.betaincinv(failures, trials - failures + 1, 0.025)
    hi = 1.0 if failures == trials else _special.betaincinv(failures + 1, trials - failures, 0.975)
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

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
# the Kronrod column as a strided view: numpy's matmul rounds a contiguous copy
# differently, and the error estimate would move in its last bits
_KRONROD = _RULES[:, 0]
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


def _qk21(f, a, b, piece):
    """Kronrod value and QUADPACK error estimate of each panel [a, b]."""
    h = 0.5 * (b - a)
    fx = f(a[:, None] + h[:, None] * _NODES, piece)
    rules = fx @ _RULES
    resk, resg = rules.T  # views: the error overwrites resg, and one product scales both
    work = fx - (0.5 * resk)[:, None]
    resasc = np.abs(work, out=work) @ _KRONROD
    floor = np.abs(fx, out=work) @ _KRONROD
    floor *= 50.0 * _EPS
    # resasc min(1, (200 err / resasc)^1.5), with no 0/0 on an all-zero panel
    err = resk - resg
    np.abs(err, out=err)
    err *= 200.0
    scale = err + _TINY
    np.maximum(resasc, scale, out=scale)
    np.divide(err, scale, out=err)
    err **= 1.5
    err *= resasc
    np.maximum(err, floor, out=resg)
    rules *= h[:, None]
    return resk, resg


def integrate_panels(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     edges: Sequence[Sequence[float]],
                     spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Adaptive G10/K21 quadrature of a vectorized integrand over panels.

    edges holds one increasing edge sequence per piece, bounding its seed
    panels; f(t, piece) maps the (n, 21) nodes of n panels and the piece of
    each to the integrand values.  Returns (value, error_estimate) summed over
    all pieces, or raises AccuracyError carrying both past max_subdivisions.
    """
    a, b, starts = [], [], []
    for e in edges:
        starts.append(len(a))
        a += e[:-1]
        b += e[1:]
    if not (a and all(map(operator.lt, a, b))):
        raise DomainError("integrate_panels requires increasing edges")
    piece = np.zeros(len(a), int)
    for i, start in enumerate(starts[1:], 1):
        piece[start:] = i  # each piece's panels follow the previous piece's
    a, b = np.array(a), np.array(b)
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


# ---------------------------------------------------------------------------
# scalar root finder
# ---------------------------------------------------------------------------

def _checked(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if fx != fx:
        raise AccuracyError(f"solver objective is nan at x={x!r}", estimate=x)
    return fx


def brent_root(f: Callable[[float], float], a: float, b: float,
               xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign: scipy's brentq.

    Stops when half the bracket is below (xtol + rtol |x|)/2 or f(x) = 0.
    Raises DomainError for an unsigned bracket, and AccuracyError carrying the
    last iterate after maxiter steps or where f is nan.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _checked(f, xpre), _checked(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError("brent_root needs f(a) and f(b) of different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _checked(f, xcur)
    raise AccuracyError(f"brent_root did not converge in {maxiter} steps", estimate=xcur)
