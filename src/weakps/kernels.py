"""Numpy array kernels: the closed forms of the model (postselected Fisher
information in terms of any model's postselected value and slope, Pusey's
functional), evaluated vectorized over an angle or probability array; the
ideal model's postselected Fisher information ``16 k^2 / (2 p_ps)^2`` is
written in :meth:`weakps.estimation.ModelParams.evaluate`.  The ``trig_*``
kernels and :func:`invert_trig` hold the form every channel of either model
takes, ``c.B`` with ``B = (1, cos 4t, sin 4t)``: a channel probability is
``trig_form`` of its row of :func:`weakps.imperfections.channel_matrix`, and
a postselected pair's ``p0 -+ p1`` are the forms of the difference and the
sum of its two rows.  Of that pair they hold the value (the postselection
probability is ``trig_form(d)``), slope and turning points, and the
closed-form inverse on a monotone branch.  The form, the curve and the slope
take the angles' basis ``(cos 4t, sin 4t)`` from :func:`trig_basis`, so that
one basis serves every column of the same angles.

Kernels are deliberately unvalidated.  The functions that validate and then
call them are :meth:`weakps.estimation.ModelParams.checked` and the CLI's
argument checks; they enforce ``0 <= kappa <= 1`` and the sign label, and
map non-finite outputs to typed errors or NaN.  :mod:`weakps.estimation` and
:mod:`weakps.cli` call the kernels on whole batches and grids.
"""

from __future__ import annotations

import math

import numpy as np

from .states import PROB_FLOOR, Strength

__all__ = [
    "fisher_from_weak_value",
    "pusey_functional",
    "trig_basis",
    "trig_form",
    "trig_curve",
    "trig_slope",
    "trig_turning_points",
    "invert_trig",
]

# A trig form c.B sums terms up to |c|_1 in size: within a few roundings of that, it is zero
_ROUNDING = 4.0 * np.finfo(np.float64).eps


def fisher_from_weak_value(sigma: np.ndarray, slope: np.ndarray, kappa: float) -> np.ndarray:
    """Fisher information of a binary postselected distribution with
    conditionals (1 +- k sigma) / 2, in terms of its rescaled value and the
    value's slope: k^2 slope^2 / (1 - k^2 sigma^2), for any model of them."""
    ks = kappa * np.asarray(sigma, dtype=np.float64)
    slope = np.asarray(slope, dtype=np.float64)
    return kappa * kappa * slope * slope / (1.0 - ks * ks)


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


def trig_basis(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(cos 4t, sin 4t)`` over the angle array: the basis ``B = (1, cos 4t,
    sin 4t)`` of :func:`trig_form` without its constant."""
    x = 4.0 * np.asarray(theta, dtype=np.float64)
    return np.cos(x), np.sin(x)


def trig_form(coeffs: np.ndarray, basis: tuple) -> np.ndarray:
    """``coeffs.B`` with ``B = (1, cos 4t, sin 4t)``, from the angles'
    :func:`trig_basis`: a channel probability is the form of its row of
    :func:`weakps.imperfections.channel_matrix`, either model's postselected
    pair has ``p0 - p1 = n.B`` and ``p0 + p1 = d.B``, and the ``trig_*``
    kernels take ``(n, d)`` (:attr:`weakps.estimation.ModelParams.coefficients`)."""
    return coeffs[0] + coeffs[1] * basis[0] + coeffs[2] * basis[1]


def trig_curve(n: np.ndarray, d: np.ndarray, kappa: float, basis: tuple) -> np.ndarray:
    """Rescaled postselected value ``n.B / (kappa d.B)``, as ``m.B / e.B`` with
    ``m, e = n / (kappa d0), d / d0``: for the ideal pair ``(0, 1, 0)`` and
    ``(1, 0, sign r)`` exactly, so that it rounds as the ideal closed form
    ``cos 4t / (1 + sign r sin 4t)`` does (and :func:`trig_slope` as that
    form's slope): the values are equal, though a zero may differ in sign."""
    with np.errstate(divide="ignore", invalid="ignore"):
        m, e = n / (kappa * d[0]), d / d[0]
        return trig_form(m, basis) / trig_form(e, basis)


def _slope_numerator(n: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``g`` with ``d(n.B / d.B)/dx = g.B / (d.B)^2`` at ``x = 4t``."""
    return np.array([n[2] * d[1] - n[1] * d[2], n[2] * d[0] - n[0] * d[2],
                     n[0] * d[1] - n[1] * d[0]])


def trig_slope(n: np.ndarray, d: np.ndarray, kappa: float, basis: tuple) -> np.ndarray:
    """d(sigma)/d(theta) of :func:`trig_curve`: ``4 g.B / (kappa (d.B)^2)``,
    with ``(n, d)`` scaled as there."""
    with np.errstate(divide="ignore", invalid="ignore"):
        m, e = n / (kappa * d[0]), d / d[0]
        den = trig_form(e, basis)
        return 4.0 * trig_form(_slope_numerator(m, e), basis) / (den * den)


def _trig_roots(a, b, g) -> tuple[np.ndarray, np.ndarray]:
    """``(phi, alpha)``: ``a cos x + b sin x`` rises through g at ``phi - alpha``
    and falls at ``phi + alpha``; a ``|g|`` past ``hypot(a, b)`` is a double root."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.arctan2(b, a), np.arccos(np.clip(g / np.hypot(a, b), -1.0, 1.0))


def trig_turning_points(n: np.ndarray, d: np.ndarray,
                        lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Angles strictly inside (lo, hi), in order, where the slope of
    :func:`trig_curve` vanishes, none where the curve is flat; and each
    one's kind, -1 at a valley and +1 at a peak: the slope's numerator rises
    through zero at one root per period and falls at the other."""
    g = _slope_numerator(n, d)
    phi, alpha = _trig_roots(g[1], g[2], -g[0])
    roots = phi + np.array([-alpha, alpha])
    first = roots + 2.0 * math.pi * np.ceil((4.0 * lo - roots) / (2.0 * math.pi))
    periods = 2.0 * math.pi * np.arange(math.ceil(2.0 * (hi - lo) / math.pi) + 1)
    thetas = (first[:, None] + periods) / 4.0
    kinds = np.broadcast_to(np.array([[-1.0], [1.0]]), thetas.shape)
    inside = (thetas > lo) & (thetas < hi)
    order = np.argsort(thetas[inside], kind="stable")
    return thetas[inside][order], kinds[inside][order]


def invert_trig(n: np.ndarray, d: np.ndarray, kappa: float, targets: np.ndarray,
                lo: "float | np.ndarray", hi: "float | np.ndarray") -> np.ndarray:
    """Invert :func:`trig_curve` in closed form on the bracket [lo, hi],
    which holds no turning point (arrays ``lo`` and ``hi`` broadcast against
    ``targets``: a bracket per target, or per row).  Returns the angle solving
    curve(theta) = target for each target, NaN for targets not bracketed by
    [curve(lo), curve(hi)], and an end whose value is the target to rounding.

    A target solves ``(n - kappa target d).B = 0``; as ``d.B > 0``, the curve
    rises through it at one root per period and falls at the other, so the
    bracket's direction picks the root and its middle the period.
    """
    targets = np.asarray(targets, dtype=np.float64)
    b_lo, b_hi = trig_basis(lo), trig_basis(hi)
    c_lo, c_hi = trig_curve(n, d, kappa, b_lo), trig_curve(n, d, kappa, b_hi)
    ks = kappa * targets
    phi, alpha = _trig_roots(n[1] - ks * d[1], n[2] - ks * d[2], ks * d[0] - n[0])
    x = phi + np.where(c_hi > c_lo, -1.0, 1.0) * alpha  # -alpha on a rising bracket, exactly
    x += 2.0 * math.pi * np.round((2.0 * (lo + hi) - x) / (2.0 * math.pi))
    f_lo, f_hi = c_lo - targets, c_hi - targets
    # kappa f d.B is (n - kappa target d).B, a trig form within rounding of zero at a hit
    slack = _ROUNDING * (np.abs(n).sum() + np.abs(ks) * np.abs(d).sum())
    out = np.where(np.abs(kappa * f_hi) * trig_form(d, b_hi) <= slack, hi,
                   np.where(np.abs(kappa * f_lo) * trig_form(d, b_lo) <= slack, lo, np.nan))
    bracketed = f_lo * f_hi < 0.0  # strictly inside: the closed form's root, not an end
    out[bracketed] = np.clip(x / 4.0, lo, hi)[bracketed]
    return out
