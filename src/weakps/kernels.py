"""Numpy array kernels: grid evaluation of postselected-value curves, their
information content, the non-contextuality functional, and batched bisection
of a vectorised curve.

Each quantity has one closed form in ``(theta, kappa, sign)``, evaluated
vectorized over an angle array; the bisection takes the curve as a callable.

Kernels are deliberately unvalidated: callers in :mod:`weakps.weak`,
:mod:`weakps.contextuality`, :mod:`weakps.estimation` and :mod:`weakps.cli`
enforce the preconditions (``0 < kappa <= 1``, ``sign`` is +-1) and map
non-finite outputs back to typed errors.

Conventions: ``sign`` is ``-1.0`` for ``<-|`` postselection and ``+1.0`` for
``<+|``; it enters all formulas through the postselection denominator
``1 + sign * sqrt(1-kappa^2) * sin(4*theta)``.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

__all__ = [
    "weak_value_curve",
    "weak_value_slope",
    "postselect_probability",
    "fisher_curve",
    "pusey_curves",
    "invert_sigma",
]

_PHI_FLOOR = 1e-30


def weak_value_curve(theta: np.ndarray, kappa: float, sign: float) -> np.ndarray:
    """Rescaled postselected value cos(4t) / (1 + sign*r*sin(4t)), r = sqrt(1-k^2)."""
    theta = np.asarray(theta, dtype=np.float64)
    r = math.sqrt(1.0 - kappa * kappa)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.cos(4.0 * theta) / (1.0 + sign * r * np.sin(4.0 * theta))


def weak_value_slope(theta: np.ndarray, kappa: float, sign: float) -> np.ndarray:
    """d(sigma)/d(theta) of the curve above: -4(sin(4t) + sign*r) / den^2."""
    theta = np.asarray(theta, dtype=np.float64)
    r = math.sqrt(1.0 - kappa * kappa)
    s4 = np.sin(4.0 * theta)
    den = 1.0 + sign * r * s4
    with np.errstate(divide="ignore", invalid="ignore"):
        return -4.0 * (s4 + sign * r) / (den * den)


def postselect_probability(theta: np.ndarray, kappa: float, sign: float) -> np.ndarray:
    """Success probability of the postselection: (1 + sign*r*sin(4t)) / 2."""
    theta = np.asarray(theta, dtype=np.float64)
    r = math.sqrt(1.0 - kappa * kappa)
    return (1.0 + sign * r * np.sin(4.0 * theta)) / 2.0


def fisher_curve(theta: np.ndarray, kappa: float, sign: float) -> np.ndarray:
    """Postselected Fisher information 16 k^2 / den^2 (per squared radian).

    Algebraically identical to k^2 (d sigma)^2 / (1 - k^2 sigma^2) wherever
    the latter is defined, and is its continuous extension across the
    isolated points where a conditional probability vanishes.
    """
    theta = np.asarray(theta, dtype=np.float64)
    r = math.sqrt(1.0 - kappa * kappa)
    den = 1.0 + sign * r * np.sin(4.0 * theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 16.0 * kappa * kappa / (den * den)


def pusey_curves(
    theta: np.ndarray, kappa: float, sign: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-contextuality functionals (i0, i1) and the overlap p_phi per grid
    point.  Points with p_phi at the numerical floor yield NaN functionals.
    """
    theta = np.asarray(theta, dtype=np.float64)
    r = math.sqrt(1.0 - kappa * kappa)
    s4 = np.sin(4.0 * theta)
    c4 = np.cos(4.0 * theta)
    p_post = (1.0 + sign * r * s4) / 2.0
    half_diff = kappa * c4 / 2.0
    p0 = (p_post + half_diff) / 2.0
    p1 = (p_post - half_diff) / 2.0
    p_phi = (1.0 + sign * s4) / 2.0
    p_d = 1.0 - r
    with np.errstate(divide="ignore", invalid="ignore"):
        i0 = p0 / p_phi - (1.0 + kappa) / 2.0 - p_d / p_phi
        i1 = p1 / p_phi - (1.0 + kappa) / 2.0 - p_d / p_phi
    bad = p_phi <= _PHI_FLOOR
    i0 = np.where(bad, np.nan, i0)
    i1 = np.where(bad, np.nan, i1)
    return i0, i1, p_phi


def invert_sigma(
    targets: np.ndarray,
    curve: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    xtol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Batched bisection of a vectorised curve on a monotone bracket.

    ``curve`` maps an angle array to the curve's values at those angles.
    Returns the angle solving curve(theta) = target for each target, NaN for
    targets not bracketed by [curve(lo), curve(hi)].
    """
    targets = np.asarray(targets, dtype=np.float64)
    c_lo, c_hi = curve(np.array([lo, hi]))
    f_lo = c_lo - targets
    f_hi = c_hi - targets
    out = np.full(targets.shape, np.nan)
    out[f_lo == 0.0] = lo
    out[f_hi == 0.0] = hi
    bracketed = f_lo * f_hi < 0.0  # excludes the exact endpoint hits above
    active = bracketed
    a = np.full(targets.shape, lo)
    b = np.full(targets.shape, hi)
    fa = f_lo.copy()
    for _ in range(max_iter):
        if not np.any(active):
            break
        mid = 0.5 * (a + b)
        fm = curve(mid) - targets
        left = (fa * fm <= 0.0) & active
        b = np.where(left, mid, b)
        a = np.where(left | ~active, a, mid)
        fa = np.where(left | ~active, fa, fm)
        active = active & ((b - a) > xtol)
    out[bracketed] = 0.5 * (a + b)[bracketed]
    return out
