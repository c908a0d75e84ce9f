"""Non-contextuality functional for joint (outcome, postselection)
probabilities, and the decomposition of the consolidated postselection
operator that fixes its disturbance weight.

A non-contextual ontic model for the strength-kappa measurement requires

    I_x = p_x / p_phi - (1 + kappa)/2 - p_d / p_phi < 0,

where ``p_x`` is the *joint* probability of outcome ``x`` and successful
postselection, ``p_phi = |<phi|psi>|^2``, and ``p_d = 1 - sqrt(1 - kappa^2)``
is the weight of the disturbed part of the consolidated operator.  A positive
value witnesses that no such model reproduces the statistics.

On the weight ``p_d``: decomposing ``S = sum_x M_x |phi><phi| M_x^T`` as
``(1 - p_d)|phi><phi| + p_d E_d`` with ``E_d`` a valid effect forces
``p_d = 1 - sqrt(1 - kappa^2)`` (the off-diagonal of S shrinks by exactly
``sqrt(1 - kappa^2)``).  A value ``1 - 2 sqrt(1 - kappa^2)`` is sometimes
quoted for this weight; it is negative for ``kappa < sqrt(3)/2`` and its
``E_d`` has an eigenvalue outside [0, 1], so it cannot be a probability
weight.  The brute-force test suite pins this down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EmptyGrid, OrthogonalPostselection
from .states import (
    PROB_FLOOR,
    PureQubit,
    Strength,
    as_strength,
    joint_probability,
    kraus_operators,
    sign_factor,
)

__all__ = [
    "SDecomposition",
    "ViolationScan",
    "pusey_functional",
    "pusey_from_probabilities",
    "p_phi_from_postselection",
    "consolidated_S",
    "decompose_consolidated",
    "scan_violation",
]

# Largest entry of S minus its recomposition that SDecomposition.validate accepts.
_RECOMPOSE_TOL = 1e-12


@dataclass(frozen=True)
class SDecomposition:
    """Consolidated postselection operator split into kept and disturbed parts:
    ``S = (1 - p_d) |phi><phi| + p_d E_d``."""

    s_matrix: np.ndarray
    p_d: float
    e_d: np.ndarray

    def validate(self, phi: PureQubit) -> None:
        recomposed = (1.0 - self.p_d) * phi.projector() + self.p_d * self.e_d
        if np.max(np.abs(self.s_matrix - recomposed)) > _RECOMPOSE_TOL:
            raise ValueError("decomposition identity violated")
        eigs = np.linalg.eigvalsh(self.e_d)
        if eigs.min() < -1e-10 or eigs.max() > 1.0 + 1e-10:
            raise ValueError(f"disturbed part is not a valid effect: eigenvalues {eigs}")


def pusey_from_probabilities(p_x: float, p_phi: float, s: "Strength | float") -> float:
    """Functional evaluated from raw numbers (e.g. count-estimated
    probabilities): ``p_x/p_phi - (1+kappa)/2 - p_d/p_phi``
    (:func:`weakps.kernels.pusey_functional` at one point)."""
    if p_phi <= PROB_FLOOR:
        raise OrthogonalPostselection(f"p_phi = {p_phi!r} is numerically zero")
    return float(kernels.pusey_functional(p_x, p_phi, as_strength(s).kappa))


def pusey_functional(psi: PureQubit, phi: PureQubit, s: "Strength | float", x: int) -> float:
    """State-level evaluation of the functional for outcome ``x``.

    Positive return witnesses failure of non-contextual models.
    """
    p_phi = abs(phi.overlap(psi)) ** 2
    if p_phi <= PROB_FLOOR:
        raise OrthogonalPostselection("preparation and postselection are orthogonal")
    return pusey_from_probabilities(joint_probability(psi, phi, s, x), p_phi, s)


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


def consolidated_S(phi: PureQubit, s: "Strength | float") -> np.ndarray:
    """Postselection operator with the measurement outcome ignored:
    ``sum_x M_x |phi><phi| M_x^T``.  Hermitian, positive, trace one."""
    pair = kraus_operators(s)
    proj = phi.projector()
    return pair.m0 @ proj @ pair.m0.conj().T + pair.m1 @ proj @ pair.m1.conj().T


def decompose_consolidated(phi: PureQubit, s: "Strength | float") -> SDecomposition:
    """Split the consolidated operator into kept and disturbed parts.

    ``p_d = 1 - sqrt(1 - kappa^2)`` and
    ``E_d = (S - (1 - p_d)|phi><phi|) / p_d``; at ``p_d = 0`` the disturbed
    part is ``diag(|phi_0|^2, |phi_1|^2)`` by continuity.
    """
    strength = as_strength(s)
    s_matrix = consolidated_S(phi, strength)
    p_d = strength.dephasing_weight
    if p_d > 1e-14:
        e_d = (s_matrix - (1.0 - p_d) * phi.projector()) / p_d
    else:
        e_d = np.diag([abs(phi.a0) ** 2, abs(phi.a1) ** 2]).astype(complex)
    result = SDecomposition(s_matrix=s_matrix, p_d=p_d, e_d=e_d)
    result.validate(phi)
    return result


@dataclass(frozen=True)
class ViolationScan:
    """Result of a grid scan for non-contextuality violations."""

    max_value: float
    argmax_theta: float
    skipped: tuple[float, ...]

    @property
    def violated(self) -> bool:
        return self.max_value > 0.0


def scan_violation(
    s: "Strength | float", postselect_sign: str, theta_grid: np.ndarray
) -> ViolationScan:
    """Maximum of max(I0, I1) over an angle grid, with its location.

    Grid points with numerically zero overlap are skipped and reported in
    ``skipped``.  Deterministic reduction: ties resolve to the lowest index.
    """
    thetas = np.ascontiguousarray(theta_grid, dtype=np.float64)
    if thetas.size == 0:
        raise EmptyGrid("empty angle grid")
    kappa = as_strength(s).kappa
    i0, i1, _ = kernels.pusey_curves(thetas, kappa, sign_factor(postselect_sign))
    both = np.maximum(i0, i1)
    valid = np.isfinite(both)
    if not np.any(valid):
        raise EmptyGrid("every grid point was skipped (orthogonal postselection)")
    masked = np.where(valid, both, -np.inf)
    idx = int(np.argmax(masked))
    return ViolationScan(
        max_value=float(both[idx]),
        argmax_theta=float(thetas[idx]),
        skipped=tuple(float(t) for t in thetas[~valid]),
    )
