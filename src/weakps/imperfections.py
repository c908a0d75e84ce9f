"""Parametric model of the gate nonidealities: two-photon interference
visibility and polarization-dependent beamsplitter transmissions.

The lossy gate is modeled in three stages acting on the signal (x) meter
density operator, followed by renormalization on coincidence detection:

1. *Central splitter*: per-photon amplitude transmissions ``sqrt(t_h)`` on
   ``|0>`` and ``sqrt(t_v)`` on ``|1>``, with the doubly-reflected ``|11>``
   two-photon amplitude interfering against double transmission
   (coincidence amplitude ``2*t_v - 1``, the sign flip of the gate).
   Reflected ``|0>`` light leaves the interferometer and never reaches the
   detectors, so it contributes loss, not interference.
2. *Visibility*: imperfect two-photon interference is modeled as a mixture
   of the coherent gate output (weight ``v``) with its computational-basis
   dephased version (weight ``1 - v``).
3. *Loss balancing*: one rotated compensating splitter per arm equalizes the
   net ``|0>``/``|1>`` transmission (per-photon factors ``sqrt(t_v)`` on
   ``|0>`` and ``sqrt(t_h)`` on ``|1>``); the residual global attenuation
   drops out on renormalization.

Every stage operator is diagonal and the input is pure, so the model has a
closed form (:func:`coincidence_probabilities`).  With ``c, s = cos 2t,
sin 2t`` and ``c_mu, s_mu = cos 2mu, sin 2mu``, the balanced coherent
amplitude is

    b = t_h * (t_v c c_mu, t_v c s_mu, t_v s c_mu, (2 t_v - 1) s s_mu),

and the channel with signal sign ``s_sig`` and meter sign ``m`` (each +-1)
has per-attempt probability ``[v (u.b)^2 + (1 - v) |b|^2] / 4`` with
``u = (1, m, s_sig, s_sig m)``.  The four sum to the coincidence probability
``|b|^2``.  ``t_h`` multiplies every amplitude, so it cancels from every
renormalized probability: it changes only whether the gate is starved
(``t_h = 0``) and the per-attempt probabilities.  The test suite walks the
three stages on 4x4 density matrices and compares the closed form against
them.

``t_h`` and ``t_v`` are intensity transmissions (amplitudes are their square
roots); this convention is recorded in CLI output metadata.  Residual
polarization rotations of the physical setup are not modeled.

With the textbook parameters ``(v, t_h, t_v) = (1, 1, 1/3)`` the pipeline
reproduces the ideal controlled-sign circuit exactly after renormalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GateStarved, angle_text
from .states import PROB_FLOOR

__all__ = [
    "ImperfectionParams",
    "IDEAL_GATE",
    "VISIBILITY_MODEL",
    "coincidence_probabilities",
    "renormalized_probabilities",
    "postselected_coefficients",
]

# Identifier written into CLI metadata so downstream consumers know which
# visibility model produced the numbers.
VISIBILITY_MODEL = "coherent-dephased-mixture-v1"


@dataclass(frozen=True)
class ImperfectionParams:
    """Gate nonideality parameters, all dimensionless in [0, 1]."""

    visibility: float
    t_h: float
    t_v: float

    def __post_init__(self) -> None:
        for name in ("visibility", "t_h", "t_v"):
            v = getattr(self, name)
            if not math.isfinite(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")


IDEAL_GATE = ImperfectionParams(visibility=1.0, t_h=1.0, t_v=1.0 / 3.0)

# Signs (s_sig, m) of the four channels in row order: mp, mm, pp, pm.
_CHANNEL_VECTORS = np.array([(1.0, m, s_sig, s_sig * m)
                             for s_sig, m in ((-1.0, 1.0), (-1.0, -1.0), (1.0, 1.0), (1.0, -1.0))])


def coincidence_probabilities(thetas, mu: float, params: ImperfectionParams) -> np.ndarray:
    """Per-attempt probabilities of the four coincidence channels, rows
    ``(p_mp, p_mm, p_pp, p_pm)``, over a one-dimensional array of angles
    (the closed form in the module docstring).

    The rows sum to the coincidence probability; raises GateStarved where
    that is numerically zero.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    c, s = np.cos(2.0 * thetas), np.sin(2.0 * thetas)
    c_mu, s_mu = math.cos(2.0 * mu), math.sin(2.0 * mu)
    t_v = params.t_v
    b = params.t_h * np.stack([t_v * c * c_mu, t_v * c * s_mu, t_v * s * c_mu,
                               (2.0 * t_v - 1.0) * s * s_mu])
    # the sign columns summed elementwise: a matmul rounds otherwise as a call
    # holds one angle or several, and a batch must give each angle's bits
    ub = sum(signs[:, None] * row for signs, row in zip(_CHANNEL_VECTORS.T, b))
    v = params.visibility
    probs = (v * ub * ub + (1.0 - v) * np.sum(b * b, axis=0)) / 4.0
    starved = probs.sum(axis=0) <= PROB_FLOOR
    if np.any(starved):
        bad = float(thetas[starved][0])
        raise GateStarved(f"coincidence probability vanishes at theta = {angle_text(bad)}")
    return probs


def renormalized_probabilities(thetas, mu: float, params: ImperfectionParams) -> np.ndarray:
    """The four channel probabilities given a coincidence:
    :func:`coincidence_probabilities` divided by their sum at each angle."""
    probs = coincidence_probabilities(thetas, mu, params)
    return probs / probs.sum(axis=0)


def postselected_coefficients(mu: float, params: ImperfectionParams,
                              sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(n, d)`` of the postselected pair's per-attempt
    probabilities, ``p0 - p1 = n.B`` and ``p0 + p1 = d.B`` with
    ``B = (1, cos 4t, sin 4t)``, for postselection ``sign`` (-1 or +1).

    With ``b = (b1 c, b2 c, b3 s, b4 s)`` above, ``p0 - p1 = v (b1 b2 c^2 +
    b3 b4 s^2 + sign (b1 b4 + b2 b3) c s)`` and ``p0 + p1 = (b1^2 + b2^2) c^2
    / 2 + (b3^2 + b4^2) s^2 / 2 + sign v (b1 b3 + b2 b4) c s``, linear in B
    through ``c^2, s^2, c s = (1 + cos 4t) / 2, (1 - cos 4t) / 2, sin(4t) / 2``.
    """
    c_mu, s_mu, t_v, v = math.cos(2.0 * mu), math.sin(2.0 * mu), params.t_v, params.visibility
    b1, b2, b3, b4 = params.t_h * np.array([t_v * c_mu, t_v * s_mu, t_v * c_mu,
                                            (2.0 * t_v - 1.0) * s_mu])
    cc, ss = b1 * b1 + b2 * b2, b3 * b3 + b4 * b4
    return (v * np.array([b1 * b2 + b3 * b4, b1 * b2 - b3 * b4, sign * (b1 * b4 + b2 * b3)]) / 2.0,
            np.array([(cc + ss) / 4.0, (cc - ss) / 4.0, sign * v * (b1 * b3 + b2 * b4) / 2.0]))
