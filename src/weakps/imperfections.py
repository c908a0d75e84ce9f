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
(``t_h = 0``) and the per-attempt probabilities.  :func:`imperfect_joint_probs`
walks the three stages on 4x4 density matrices; it is the reference route
that tests compare the closed form against.

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
from .states import (
    MINUS,
    PLUS,
    PROB_FLOOR,
    ProbabilityRecord,
    TwoQubitDensity,
    make_meter_state,
    make_signal_state,
)

__all__ = [
    "ImperfectionParams",
    "IDEAL_GATE",
    "VISIBILITY_MODEL",
    "central_splitter_operator",
    "balance_operator",
    "dephase_computational",
    "imperfect_joint_probs",
    "coincidence_probabilities",
    "renormalized_probabilities",
    "postselected_coefficients",
    "effective_kappa",
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

# Angle step (degrees) of the grid effective_kappa fits the strength on.
_CALIBRATION_STEP_DEG = 1.0


def central_splitter_operator(params: ImperfectionParams) -> np.ndarray:
    """Coincidence-postselected amplitude operator of the central splitter."""
    root_hv = math.sqrt(params.t_h * params.t_v)
    return np.diag([params.t_h, root_hv, root_hv, 2.0 * params.t_v - 1.0]).astype(complex)


def balance_operator(params: ImperfectionParams) -> np.ndarray:
    """Per-photon compensating splitters equalizing net H/V transmission."""
    per_photon = np.diag([math.sqrt(params.t_v), math.sqrt(params.t_h)])
    return np.kron(per_photon, per_photon).astype(complex)


def dephase_computational(rho: np.ndarray) -> np.ndarray:
    """Remove all coherences in the two-qubit computational basis."""
    return np.diag(np.diag(rho))


def imperfect_joint_probs(theta: float, mu: float, params: ImperfectionParams) -> ProbabilityRecord:
    """Coincidence outcome probabilities of the imperfect gate, renormalized,
    from 4x4 density matrices stage by stage: the reference route for
    :func:`renormalized_probabilities`, which the library uses.

    Raises GateStarved when the total coincidence probability is numerically
    zero.  The record's ``kappa`` is the nominal ``sin(4*mu)``; see
    :func:`effective_kappa` for what a calibration would report.
    """
    rho_in = TwoQubitDensity.from_product(make_signal_state(theta), make_meter_state(mu))

    gate = central_splitter_operator(params)
    rho_gate = gate @ rho_in.rho @ gate.conj().T
    if rho_gate.trace().real <= PROB_FLOOR:
        raise GateStarved("coincidence probability is numerically zero")
    rho_gate = TwoQubitDensity(rho_gate).rho

    v = params.visibility
    rho_mixed = TwoQubitDensity(v * rho_gate + (1.0 - v) * dephase_computational(rho_gate)).rho

    balance = balance_operator(params)
    rho_balanced = balance @ rho_mixed @ balance.conj().T
    total = rho_balanced.trace().real
    if total <= PROB_FLOOR:
        raise GateStarved("coincidence probability is numerically zero")
    rho_out = TwoQubitDensity(rho_balanced / total).rho

    channels = {}
    for s_label, s_state in (("m", MINUS), ("p", PLUS)):
        for m_label, m_state in (("m", MINUS), ("p", PLUS)):
            proj = np.kron(s_state.projector(), m_state.projector())
            channels[s_label + m_label] = max(float(np.trace(proj @ rho_out).real), 0.0)
    return ProbabilityRecord(
        p_mp=channels["mp"],
        p_mm=channels["mm"],
        p_pp=channels["pp"],
        p_pm=channels["pm"],
        kappa=math.sin(4.0 * mu),
    )


# Signs (s_sig, m) of the four channels in ProbabilityRecord order: mp, mm, pp, pm.
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
    ub = _CHANNEL_VECTORS @ b
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


def effective_kappa(params: ImperfectionParams, mu: float) -> float:
    """Strength a calibration of the imperfect gate would report.

    Least-squares fit of the postselection-free meter marginals
    ``p(+|theta) - p(-|theta)`` against the ideal model ``kappa * cos(4t)``
    over [0, 90) degrees in steps of ``_CALIBRATION_STEP_DEG``.  Equals
    ``sin(4*mu)`` for ideal parameters.
    """
    thetas = np.deg2rad(np.arange(0.0, 90.0, _CALIBRATION_STEP_DEG))
    p_mp, p_mm, p_pp, p_pm = renormalized_probabilities(thetas, mu, params)
    diffs = (p_pp + p_mp) - (p_pm + p_mm)
    cos4 = np.cos(4.0 * thetas)
    return float(np.dot(cos4, diffs) / np.dot(cos4, cos4))
