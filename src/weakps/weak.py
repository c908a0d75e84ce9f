"""Postselected (weak) values, their Fisher information, and the Bloch-vector
geometry of the combined measurement-plus-postselection.

The measured observable is ``Z = |0><0| - |1><1|`` with spectrum [-1, 1];
rescaled postselected values outside that interval are called *anomalous*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateConditional, ZeroPostselection, ZeroStrength
from .errors import angle_text
from .states import (
    MINUS,
    PLUS,
    PROB_FLOOR,
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
    "weak_value_curve",
    "weak_value_curve_grid",
    "weak_value_slope",
    "weak_value_slope_grid",
    "postselect_probability",
    "fisher_ps_definition",
    "fisher_curve_grid",
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


def postselect_probability(theta: float, s: "Strength | float", postselect_sign: str) -> float:
    """Closed-form success probability of the postselection at ``theta``
    (:func:`weakps.kernels.postselect_probability` at one angle)."""
    kappa = as_strength(s).kappa
    return float(kernels.postselect_probability(theta, kappa, sign_factor(postselect_sign)))


def _curve_kernel(kernel, thetas, s: "Strength | float", postselect_sign: str) -> np.ndarray:
    """``kernel`` over ``thetas`` after the checks the rescaled curve needs:
    ZeroStrength at ``kappa = 0``, ZeroPostselection where the postselection
    probability is at the floor."""
    kappa = as_strength(s).kappa
    if kappa == 0.0:
        raise ZeroStrength("weak value undefined at kappa = 0")
    sgn = sign_factor(postselect_sign)
    thetas = np.asarray(thetas, dtype=np.float64)
    starved = kernels.postselect_probability(thetas, kappa, sgn) <= PROB_FLOOR
    if np.any(starved):
        bad = float(thetas[starved][0])
        raise ZeroPostselection(f"postselection probability vanishes at theta = {angle_text(bad)}")
    return kernel(thetas, kappa, sgn)


def weak_value_curve_grid(
    thetas: np.ndarray, s: "Strength | float", postselect_sign: str
) -> np.ndarray:
    """Closed-form weak value ``cos(4t) / (1 + sign * sqrt(1-k^2) sin(4t))``
    over an angle array (:func:`weakps.kernels.weak_value_curve`).

    Agrees with :func:`evaluate_weak_value` wherever the pipeline is defined.
    """
    return _curve_kernel(kernels.weak_value_curve, thetas, s, postselect_sign)


def weak_value_slope_grid(
    thetas: np.ndarray, s: "Strength | float", postselect_sign: str
) -> np.ndarray:
    """Analytic angle-derivative of the weak-value curve over an angle array
    (:func:`weakps.kernels.weak_value_slope`)."""
    return _curve_kernel(kernels.weak_value_slope, thetas, s, postselect_sign)


def weak_value_curve(theta: float, s: "Strength | float", postselect_sign: str) -> float:
    """Closed-form weak value at ``theta``: :func:`weak_value_curve_grid` at
    one angle."""
    return float(weak_value_curve_grid(theta, s, postselect_sign))


def weak_value_slope(theta: float, s: "Strength | float", postselect_sign: str) -> float:
    """Analytic angle-derivative of :func:`weak_value_curve`:
    :func:`weak_value_slope_grid` at one angle."""
    return float(weak_value_slope_grid(theta, s, postselect_sign))


def fisher_ps_definition(theta: float, s: "Strength | float", postselect_sign: str) -> float:
    """Fisher information of the postselected conditional distribution,
    ``(d pc0)^2/pc0 + (d pc1)^2/pc1``, with analytic derivatives.

    Units: per squared radian.  Raises DegenerateConditional when either
    conditional probability vanishes (the saturated points).
    """
    kappa = as_strength(s).kappa
    if kappa == 0.0:
        # conditional distribution is theta-independent: no information
        if postselect_probability(theta, 0.0, postselect_sign) <= PROB_FLOOR:
            raise ZeroPostselection("postselection probability vanishes at this angle")
        return 0.0
    sigma = weak_value_curve(theta, kappa, postselect_sign)
    if 1.0 - abs(kappa * sigma) < SATURATION_TOL:
        raise DegenerateConditional(
            f"a conditional probability vanishes at theta = {angle_text(theta)}"
        )
    dsigma = weak_value_slope(theta, kappa, postselect_sign)
    pc0 = (1.0 + kappa * sigma) / 2.0
    pc1 = 1.0 - pc0
    dpc = kappa * dsigma / 2.0
    return dpc * dpc * (1.0 / pc0 + 1.0 / pc1)


def fisher_curve_grid(
    thetas: np.ndarray, s: "Strength | float", postselect_sign: str
) -> np.ndarray:
    """Vectorized postselected Fisher information over an angle grid.

    NaN at saturated grid points, where a conditional probability vanishes
    and the information is undefined (as :func:`fisher_ps_definition` raises
    DegenerateConditional there).
    """
    kappa = as_strength(s).kappa
    if kappa == 0.0:
        return np.zeros(np.asarray(thetas).shape)
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    sgn = sign_factor(postselect_sign)
    sigma = kernels.weak_value_curve(thetas, kappa, sgn)
    sat = 1.0 - np.abs(kappa * sigma) < SATURATION_TOL
    return np.where(sat, np.nan, kernels.fisher_curve(thetas, kappa, sgn))


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
