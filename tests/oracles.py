"""Reference routes the tests compare the library against, kept out of the
library: each computes a quantity the library computes another way.

Import from a test module as ``from oracles import ...``.
"""

from collections.abc import Callable

import numpy as np

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
