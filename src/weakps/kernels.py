"""Numpy array kernels: the one place each closed form of the model is
written (the four channel probabilities, postselection probability,
postselected value and its slope,
postselected Fisher information, also in terms of any model's postselected
value and slope, Pusey's functional), evaluated vectorized over an angle or
probability array, plus batched bisection of any vectorised curve.

Kernels are deliberately unvalidated.  The functions that validate and then
call them are :func:`weakps.weak.postselect_probability`,
``weak_value_curve[_grid]``, ``weak_value_slope[_grid]``,
``fisher_curve_grid`` and ``fisher_ps_closed_form`` in :mod:`weakps.weak`,
:func:`weakps.states.ideal_probability_record`, and
:func:`weakps.contextuality.pusey_from_probabilities`; they enforce
``0 < kappa <= 1`` and the sign label, and map non-finite outputs to typed
errors.  :mod:`weakps.estimation` and :mod:`weakps.cli` call the kernels on
whole batches and grids.

``sign`` is ``-1.0`` for ``<-|`` postselection and ``+1.0`` for ``<+|``; it
enters every curve through the postselection probability ``p_ps``, whose
double ``1 + sign * sqrt(1-kappa^2) * sin(4t)`` is the curves' denominator.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .states import PROB_FLOOR, Strength

__all__ = [
    "channel_probabilities",
    "weak_value_curve",
    "weak_value_slope",
    "postselect_probability",
    "fisher_curve",
    "fisher_from_weak_value",
    "pusey_probabilities",
    "pusey_functional",
    "pusey_curves",
    "invert_sigma",
]


def channel_probabilities(theta: np.ndarray, kappa: float) -> np.ndarray:
    """Joint probabilities of the four coincidence channels, rows
    ``(p_mp, p_mm, p_pp, p_pm)`` over the angle array: ``(a c -+ b s)^2 / 2``
    and ``(b c -+ a s)^2 / 2`` with a, b = sqrt((1 +- k) / 2) and
    c, s = cos(2t), sin(2t).  Squares go through ``pow`` as Python's ``**``
    does, so the scalar record keeps its values bit for bit."""
    theta = np.asarray(theta, dtype=np.float64)
    a = math.sqrt((1.0 + kappa) / 2.0)
    b = math.sqrt((1.0 - kappa) / 2.0)
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    amplitudes = np.stack([a * c - b * s, b * c - a * s, a * c + b * s, b * c + a * s])
    return np.float_power(amplitudes, 2.0) / 2.0


def weak_value_curve(theta: np.ndarray, kappa: float, sign: float) -> np.ndarray:
    """Rescaled postselected value cos(4t) / (1 + sign*r*sin(4t)), r = sqrt(1-k^2)."""
    theta = np.asarray(theta, dtype=np.float64)
    den = 2.0 * postselect_probability(theta, kappa, sign)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.cos(4.0 * theta) / den


def weak_value_slope(theta: np.ndarray, kappa: float, sign: float) -> np.ndarray:
    """d(sigma)/d(theta) of the curve above: -4(sin(4t) + sign*r) / den^2."""
    theta = np.asarray(theta, dtype=np.float64)
    den = 2.0 * postselect_probability(theta, kappa, sign)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -4.0 * (np.sin(4.0 * theta) + sign * math.sqrt(1.0 - kappa * kappa)) / (den * den)


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
    den = 2.0 * postselect_probability(theta, kappa, sign)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 16.0 * kappa * kappa / (den * den)


def fisher_from_weak_value(sigma: np.ndarray, slope: np.ndarray, kappa: float) -> np.ndarray:
    """Fisher information of a binary postselected distribution with
    conditionals (1 +- k sigma) / 2, in terms of its rescaled value and the
    value's slope: k^2 slope^2 / (1 - k^2 sigma^2), for any model of them."""
    ks = kappa * np.asarray(sigma, dtype=np.float64)
    slope = np.asarray(slope, dtype=np.float64)
    return kappa * kappa * slope * slope / (1.0 - ks * ks)


def pusey_probabilities(
    theta: np.ndarray, kappa: float, sign: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact joint probabilities (p0, p1) of each outcome with successful
    postselection, and the overlap p_phi = (1 + sign*sin(4t)) / 2."""
    theta = np.asarray(theta, dtype=np.float64)
    p_post = postselect_probability(theta, kappa, sign)
    half_diff = kappa * np.cos(4.0 * theta) / 2.0
    p_phi = (1.0 + sign * np.sin(4.0 * theta)) / 2.0
    return (p_post + half_diff) / 2.0, (p_post - half_diff) / 2.0, p_phi


def pusey_functional(p_x: np.ndarray, p_phi: np.ndarray, kappa: float) -> np.ndarray:
    """Non-contextuality functional p_x/p_phi - (1+k)/2 - p_d/p_phi, with
    p_d the dephasing weight of the strength.  NaN where p_phi is at or below
    the probability floor (or NaN)."""
    p_x = np.asarray(p_x, dtype=np.float64)
    p_phi = np.asarray(p_phi, dtype=np.float64)
    p_d = Strength(kappa).dephasing_weight
    with np.errstate(divide="ignore", invalid="ignore"):
        value = p_x / p_phi - (1.0 + kappa) / 2.0 - p_d / p_phi
    return np.where(p_phi <= PROB_FLOOR, np.nan, value)


def pusey_curves(
    theta: np.ndarray, kappa: float, sign: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-contextuality functionals (i0, i1) and the overlap p_phi per grid
    point.  Points with p_phi at the numerical floor yield NaN functionals.
    """
    p0, p1, p_phi = pusey_probabilities(theta, kappa, sign)
    i0, i1 = pusey_functional(np.stack([p0, p1]), p_phi, kappa)
    return i0, i1, p_phi


def invert_sigma(
    targets: np.ndarray,
    curve: Callable[[np.ndarray], np.ndarray],
    lo: "float | np.ndarray",
    hi: "float | np.ndarray",
    xtol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Batched bisection of a vectorised curve on monotone brackets.

    ``curve`` maps a one-dimensional angle array to the curve's values at
    those angles.  ``lo`` and ``hi`` are one bracket for every target, or
    per-target arrays; they broadcast against ``targets``.  Returns the angle
    solving curve(theta) = target for each target, NaN for targets not
    bracketed by [curve(lo), curve(hi)].  Each target's iterates depend on
    its own bracket only, never on the rest of the batch.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    ends = curve(np.concatenate([lo.ravel(), hi.ravel()]))
    c_lo, c_hi = ends[:lo.size].reshape(lo.shape), ends[lo.size:].reshape(hi.shape)
    targets, a, b, c_lo, c_hi = np.broadcast_arrays(
        np.asarray(targets, dtype=np.float64), lo, hi, c_lo, c_hi)
    f_lo = c_lo - targets
    f_hi = c_hi - targets
    out = np.where(f_hi == 0.0, b, np.where(f_lo == 0.0, a, np.nan))
    bracketed = f_lo * f_hi < 0.0  # excludes the exact endpoint hits above
    active = bracketed
    fa = f_lo
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
