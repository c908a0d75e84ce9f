"""Reference routes the tests compare the library against, kept out of the
library: each computes a quantity the library computes another way.

Import from a test module as ``from oracles import ...``.
"""

import math
from collections.abc import Callable

import numpy as np

from weakps.errors import DegenerateConditional, ZeroPostselection
from weakps.states import PROB_FLOOR, sign_factor
from weakps.weak import SATURATION_TOL


def ideal_postselect_probability(theta, kappa: float, sign: float) -> np.ndarray:
    """Success probability of the ideal postselection ``(1 + sign r sin 4t) / 2``,
    ``r = sqrt(1 - kappa^2)``, ``sign`` -1 for ``<-|`` and +1 for ``<+|``."""
    theta = np.asarray(theta, dtype=np.float64)
    return (1.0 + sign * math.sqrt(1.0 - kappa * kappa) * np.sin(4.0 * theta)) / 2.0


def ideal_sigma(theta, kappa: float, sign: float) -> np.ndarray:
    """The ideal postselected value ``cos 4t / (1 + sign r sin 4t)``: the
    reference for :meth:`weakps.ModelParams.sigma_array` on the ideal model."""
    theta = np.asarray(theta, dtype=np.float64)
    den = 2.0 * ideal_postselect_probability(theta, kappa, sign)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.cos(4.0 * theta) / den


def ideal_slope(theta, kappa: float, sign: float) -> np.ndarray:
    """d(sigma)/d(theta) of :func:`ideal_sigma`, ``-4 (sin 4t + sign r) / den^2``:
    the reference for :meth:`weakps.ModelParams.sigma_slope`."""
    theta = np.asarray(theta, dtype=np.float64)
    den = 2.0 * ideal_postselect_probability(theta, kappa, sign)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -4.0 * (np.sin(4.0 * theta) + sign * math.sqrt(1.0 - kappa * kappa)) / (den * den)


def fisher_ps_definition(theta: float, kappa: float, postselect_sign: str) -> float:
    """Fisher information of the ideal postselected conditional distribution,
    ``(d pc0)^2/pc0 + (d pc1)^2/pc1``, with analytic derivatives: the
    reference for :meth:`weakps.ModelParams.information`.

    Units: per squared radian.  Zero at ``kappa = 0``, where the conditional
    distribution does not depend on the angle (ZeroPostselection where the
    postselection starves); raises DegenerateConditional when either
    conditional probability vanishes (the saturated points).
    """
    sign = sign_factor(postselect_sign)
    if kappa == 0.0:
        if ideal_postselect_probability(theta, 0.0, sign) <= PROB_FLOOR:
            raise ZeroPostselection("postselection probability vanishes at this angle")
        return 0.0
    sigma = float(ideal_sigma(theta, kappa, sign))
    if 1.0 - abs(kappa * sigma) < SATURATION_TOL:
        raise DegenerateConditional(f"a conditional probability vanishes at theta = {theta!r}")
    pc0 = (1.0 + kappa * sigma) / 2.0
    pc1 = 1.0 - pc0
    dpc = kappa * float(ideal_slope(theta, kappa, sign)) / 2.0
    return dpc * dpc * (1.0 / pc0 + 1.0 / pc1)


# invert_sigma halves each bracket until it is this narrow, in at most this many steps.
_BISECT_XTOL = 1e-12
_BISECT_MAX_ITER = 200


def invert_sigma(
    targets: np.ndarray,
    curve: Callable[[np.ndarray], np.ndarray],
    lo: "float | np.ndarray",
    hi: "float | np.ndarray",
) -> np.ndarray:
    """Batched bisection of a vectorised curve on monotone brackets: the
    reference for :func:`weakps.kernels.invert_trig`.

    ``curve`` maps a one-dimensional angle array to the curve's values at
    those angles.  ``lo`` and ``hi`` are one bracket for every target, or
    per-target arrays; they broadcast against ``targets``.  Returns the angle
    solving curve(theta) = target for each target, NaN for targets not
    bracketed by [curve(lo), curve(hi)].  Each target's iterates depend on
    its own bracket only, never on the rest of the batch; each bracket is
    halved to 1e-12, in at most 200 steps.
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
    for _ in range(_BISECT_MAX_ITER):
        if not np.any(active):
            break
        mid = 0.5 * (a + b)
        fm = curve(mid) - targets
        left = (fa * fm <= 0.0) & active
        b = np.where(left, mid, b)
        a = np.where(left | ~active, a, mid)
        fa = np.where(left | ~active, fa, fm)
        active = active & ((b - a) > _BISECT_XTOL)
    out[bracketed] = 0.5 * (a + b)[bracketed]
    return out


def draw_counts(probs, seeds: np.ndarray, config) -> np.ndarray:
    """One ``np.random.default_rng(seed)`` per row, drawing the four channels
    in order with scalar ``poisson`` calls: the reference for
    :func:`weakps.counting.draw_counts`, with the same arguments."""
    means = config.expected_total * np.maximum(np.atleast_2d(np.asarray(probs, dtype=np.float64)),
                                               0.0)
    rows = np.broadcast_to(means, (len(seeds), 4)).tolist()
    counts = [[rng.poisson(m) for m in row]
              for rng, row in zip(map(np.random.default_rng, seeds.tolist()), rows, strict=True)]
    return np.array(counts, dtype=np.int64).reshape(len(seeds), 4)
