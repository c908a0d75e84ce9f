"""Postselected (weak) values from the probability pipeline, the constants of
their Fisher information, and the Bloch-vector geometry of the combined
measurement-plus-postselection.

The measured observable is ``Z = |0><0| - |1><1|`` with spectrum [-1, 1];
rescaled postselected values outside that interval are called *anomalous*.
Either model's curve, its slope, the postselection probability and the
postselected Fisher information are evaluated, validated, by
:class:`weakps.estimation.ModelParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroStrength
from .states import (
    MINUS,
    PLUS,
    Strength,
    as_strength,
    conditional_probabilities,
    csign_matrix,
    ideal_probability_record,
    make_meter_state,
    sign_factor,
)

__all__ = [
    "QUANTUM_FISHER_INFORMATION",
    "SATURATION_TOL",
    "WeakValueResult",
    "weak_value",
    "evaluate_weak_value",
    "four_outcome_bloch_angles",
]

# Constant information ceiling of the signal family cos(2t)|0> + sin(2t)|1>:
# the state moves on a great circle at Bloch speed 4, so the ceiling is 16
# per squared radian independently of theta.
QUANTUM_FISHER_INFORMATION = 16.0

# |kappa * sigma_w| within this distance of 1 counts as saturated: the
# closed-form information expression has its pole there and one conditional
# probability underflows.
SATURATION_TOL = 1e-9


@dataclass(frozen=True)
class WeakValueResult:
    """A rescaled postselected value with its conditional distribution."""

    sigma_w: float
    pc0: float
    pc1: float
    postselect_sign: str

    def __post_init__(self) -> None:
        sign_factor(self.postselect_sign)
        if abs(self.pc0 + self.pc1 - 1.0) > 1e-9:
            raise ValueError("conditional probabilities must sum to 1")

    @property
    def anomalous(self) -> bool:
        """True when the value falls outside the observable's spectrum."""
        return abs(self.sigma_w) > 1.0


def weak_value(pc0: float, pc1: float, s: "Strength | float") -> float:
    """Rescaled postselected value ``(pc0 - pc1) / kappa``.

    May lie outside [-1, 1]; callers flag ``|value| > 1`` as anomalous.
    Raises ZeroStrength at ``kappa = 0`` where the rescaling is undefined.
    """
    kappa = as_strength(s).kappa
    if kappa == 0.0:
        raise ZeroStrength("weak value undefined at kappa = 0")
    if abs(pc0 + pc1 - 1.0) > 1e-9:
        raise ValueError(f"conditional probabilities must sum to 1, got {pc0 + pc1!r}")
    return (pc0 - pc1) / kappa


def evaluate_weak_value(theta: float, s: "Strength | float", postselect_sign: str) -> WeakValueResult:
    """Weak value at ``theta`` via the full probability pipeline
    (joint probabilities -> conditioning -> rescaling)."""
    strength = as_strength(s)
    record = ideal_probability_record(theta, strength)
    p0, p1 = record.postselected(postselect_sign)
    pc0, pc1 = conditional_probabilities(p0, p1)
    return WeakValueResult(
        sigma_w=weak_value(pc0, pc1, strength),
        pc0=pc0,
        pc1=pc1,
        postselect_sign=postselect_sign,
    )


def four_outcome_bloch_angles(mu: float) -> dict[str, float]:
    """Bloch-vector polar angles of the four coincidence-outcome effects.

    The combined circuit (gate, meter readout, signal readout) is a single
    four-outcome measurement on the signal.  Each effect is rank one with its
    Bloch vector in the XZ plane; this returns the signed angle from the +Z
    axis (positive toward +X) per channel, keyed like
    :class:`~weakps.states.ProbabilityRecord` (``pp``, ``mp``, ``pm``,
    ``mm``).  The four angles form the set {+-(pi/2 - 4mu), +-(pi/2 + 4mu)}.
    """
    if not 0.0 <= 4.0 * mu <= math.pi / 2.0:
        raise ValueError("meter angle must satisfy 0 <= 4*mu <= pi/2")
    meter = make_meter_state(mu).amplitudes()
    cz = csign_matrix()
    # columns of (CZ |j>_s |meter>) reshaped to [signal_i, meter_i, signal_j]
    gate_cols = (cz @ np.kron(np.eye(2, dtype=complex), meter.reshape(2, 1))).reshape(2, 2, 2)
    meter_ops = {
        "p": np.einsum("m,imj->ij", PLUS.amplitudes().conj(), gate_cols),
        "m": np.einsum("m,imj->ij", MINUS.amplitudes().conj(), gate_cols),
    }
    signal_projs = {"p": PLUS.projector(), "m": MINUS.projector()}
    angles: dict[str, float] = {}
    total = np.zeros((2, 2), dtype=complex)
    for s_label, proj in signal_projs.items():
        for m_label, n_op in meter_ops.items():
            effect = n_op.conj().T @ proj @ n_op
            total += effect
            v_x = float((effect[0, 1] + effect[1, 0]).real)
            v_y = float(-2.0 * effect[0, 1].imag)
            v_z = float((effect[0, 0] - effect[1, 1]).real)
            if abs(v_y) > 1e-12:
                raise ValueError("effect unexpectedly leaves the XZ plane")
            angles[s_label + m_label] = math.atan2(v_x, v_z)
    if np.max(np.abs(total - np.eye(2))) > 1e-12:
        raise ValueError("four-outcome effects do not resolve the identity")
    return angles
