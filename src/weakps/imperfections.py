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
closed form.  With ``c, s = cos 2t, sin 2t`` and ``c_mu, s_mu = cos 2mu,
sin 2mu``, the balanced coherent amplitude is

    b = t_h * (t_v c c_mu, t_v c s_mu, t_v s c_mu, (2 t_v - 1) s s_mu),

and the channel with signal sign ``s_sig`` and meter sign ``m`` (each +-1)
has per-attempt probability ``[v (u.b)^2 + (1 - v) |b|^2] / 4`` with
``u = (1, m, s_sig, s_sig m)``.  The four sum to the coincidence probability
``|b|^2``.  Through ``c^2, s^2, c s = (1 + cos 4t) / 2, (1 - cos 4t) / 2,
sin(4t) / 2`` each channel is a trig form ``c_i.B`` in ``B = (1, cos 4t,
sin 4t)``: :func:`channel_matrix` holds the four rows ``c_i``, and of the
ideal gate too, whose rows are ``(1, m kappa, s_sig r) / 4`` per coincidence
with ``r = sqrt(1 - kappa^2)``.  Every channel probability the library draws
from (:func:`weakps.estimation.channel_probabilities`) and every postselected
pair it inverts (:attr:`weakps.estimation.ModelParams.coefficients`) is read
off that one matrix.  ``t_h`` multiplies every amplitude, so its square is
one factor of the whole matrix: it changes only whether the gate is starved
(``t_h = 0``) and the per-attempt probabilities, not the renormalized ones.
The test suite walks the three stages on 4x4 density matrices and compares
the closed form against them.

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

__all__ = [
    "ImperfectionParams",
    "IDEAL_GATE",
    "VISIBILITY_MODEL",
    "channel_matrix",
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

# The signal and meter signs (s_sig, m) of the four channels, in row order mp, mm, pp, pm
_SIGNS = ((-1.0, 1.0), (-1.0, -1.0), (1.0, 1.0), (1.0, -1.0))


def channel_matrix(kappa: float, imperfections: ImperfectionParams | None) -> np.ndarray:
    """The 4x3 matrix ``C`` whose rows, in order ``(mp, mm, pp, pm)``, give the
    four channel probabilities as trig forms ``C.B``, ``B = (1, cos 4t,
    sin 4t)``, at strength ``kappa``: through the ideal gate (``imperfections``
    None) per coincidence, through the lossy gate per attempt, at meter angle
    ``asin(kappa) / 4`` (the module docstring).

    The lossy gate's rows are built at ``t_h = 1``, ``[v (u.b)^2 + (1 - v)
    |b|^2] / 4`` with ``b = (b1 c, b2 c, b3 s, b4 s)`` and ``u.b = a c + e s``,
    ``a, e = b1 + m b2, s_sig (b3 + m b4)``: with ``p, q = v a^2 + (1 - v)
    (b1^2 + b2^2), v e^2 + (1 - v) (b3^2 + b4^2)`` a row is ``(p + q, p - q,
    2 v a e) / 8``; then ``t_h^2`` scales them all.  Python floats: a model
    builds its matrix once, and a few numpy calls cost more than the arithmetic.
    """
    if imperfections is None:
        r = math.sqrt(1.0 - kappa * kappa)
        return np.array([(1.0, m * kappa, s_sig * r) for s_sig, m in _SIGNS]) / 4.0
    mu = math.asin(kappa) / 4.0
    c_mu, s_mu = math.cos(2.0 * mu), math.sin(2.0 * mu)
    t_v, v = imperfections.t_v, imperfections.visibility
    b1, b2, b3, b4 = t_v * c_mu, t_v * s_mu, t_v * c_mu, (2.0 * t_v - 1.0) * s_mu
    cc, ss = b1 * b1 + b2 * b2, b3 * b3 + b4 * b4
    rows = []
    for s_sig, m in _SIGNS:
        a, e = b1 + m * b2, s_sig * (b3 + m * b4)
        p, q = v * a * a + (1.0 - v) * cc, v * e * e + (1.0 - v) * ss
        rows.append((p + q, p - q, 2.0 * v * a * e))
    return imperfections.t_h * imperfections.t_h * np.array(rows) / 8.0
