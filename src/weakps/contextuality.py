"""The consolidated postselection operator, which fixes the disturbance
weight of Pusey's non-contextuality functional
(:func:`weakps.kernels.pusey_functional` evaluates it on joint (outcome,
postselection) probabilities), and the overlap recovered from a measured
postselection probability.

A non-contextual ontic model for the strength-kappa measurement requires

    I_x = p_x / p_phi - (1 + kappa)/2 - p_d / p_phi < 0,

where ``p_x`` is the *joint* probability of outcome ``x`` and successful
postselection, ``p_phi = |<phi|psi>|^2``, and ``p_d`` is the weight of the
disturbing part of the measurement.  A positive value witnesses that no such
model reproduces the statistics.

On the weight ``p_d``: the inequality (Pusey, PRL 113, 200401, 2014) takes it
from the measurement's consolidated *channel*, its action with the outcome
ignored, split into the identity with weight ``1 - p_d`` and another channel:
transformation non-contextuality constrains that split, which holds for every
input state.  For the Kraus operators ``diag(a, b)`` and ``diag(b, a)``,
``a, b = sqrt((1 +- kappa)/2)``,

    sum_x M_x rho M_x^T = r rho + (1 - r) Delta(rho),   r = sqrt(1 - kappa^2),

with ``Delta`` the dephasing in the computational basis, and the functional
takes ``p_d = 1 - r`` (:attr:`weakps.states.Strength.dephasing_weight`).  On a
real postselection state the channel's dual gives the consolidated operator

    S = r |phi><phi| + p_d E_d,   E_d = Delta(|phi><phi|) = diag(phi_0^2, phi_1^2).

A split of ``S`` alone as ``(1 - p)|phi><phi| + p E``, ``E`` a valid effect,
does not fix the weight: for ``phi`` minus, ``p = (1 - r)/2`` with
``E = |+><+|`` is one too.  Nor is the channel's split unique: the channel is
also ``(1 + r)/2 rho + (1 - r)/2 Z rho Z``.  A weight
``1 - 2 sqrt(1 - kappa^2)`` is sometimes quoted; it is negative for
``kappa < sqrt(3)/2`` and its ``E`` has an eigenvalue outside [0, 1], so it
cannot be a probability weight.  The tests pin these facts against the Kraus
route.
"""

from __future__ import annotations

import math

import numpy as np

from .states import Strength, as_strength

__all__ = [
    "p_phi_from_postselection",
    "decompose_consolidated",
]


def p_phi_from_postselection(p_total: float, s: "Strength | float") -> float:
    """Model-based recovery of the overlap from a measured postselection
    probability ``p_total = p0 + p1``, using the calibrated strength.

    Inverts ``p_total = (1 + sign * r * sin(4t))/2`` and
    ``p_phi = (1 + sign * sin(4t))/2`` jointly; the postselection sign drops
    out.  Requires ``kappa < 1``.  Count noise can push the result outside
    [0, 1]; callers decide how to treat such points.
    """
    kappa = as_strength(s).kappa
    r = math.sqrt(1.0 - kappa * kappa)
    if r == 0.0:
        raise ValueError("overlap recovery needs kappa < 1")
    return (1.0 + (2.0 * p_total - 1.0) / r) / 2.0


def decompose_consolidated(phi: "tuple[float, float, float]", s: "Strength | float"
                           ) -> tuple[float, np.ndarray, np.ndarray]:
    """``(p_d, S, E_d)`` of a real postselection state given by its projector
    entries ``(phi_0^2, phi_1^2, phi_0 phi_1)``, in closed form: ``S`` has the
    diagonal ``(phi_0^2, phi_1^2)`` and the off-diagonal ``r phi_0 phi_1``,
    and ``E_d = diag(phi_0^2, phi_1^2)`` at every strength."""
    p00, p11, p01 = phi
    strength = as_strength(s)
    off = math.sqrt(1.0 - strength.kappa * strength.kappa) * p01 + 0.0  # + 0.0: no -0 at r = 0
    return (strength.dephasing_weight, np.array([[p00, off], [off, p11]]),
            np.array([[p00, 0.0], [0.0, p11]]))
