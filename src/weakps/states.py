"""Qubit states and the variable-strength measurement operators.

Conventions (fixed once, used everywhere):

* ``|0>`` is horizontal, ``|1>`` vertical polarization; ``|+->`` are the
  diagonal states ``(|0> +- |1>)/sqrt(2)``.
* Signal preparations are ``cos(2*theta)|0> + sin(2*theta)|1>`` and the meter
  is the same family in ``mu``; the controlled-sign circuit then acts as a
  strength ``kappa = sin(4*mu)`` measurement.
* The *meter* outcome ``+`` corresponds to the first measurement operator
  (outcome index 0), ``-`` to the second.  This labeling is anchored by
  requiring the rescaled postselected value to equal +1 at ``theta = 0``
  with ``<-|`` postselection.
* All angles are radians.  Degree conversion happens only at the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PROB_FLOOR",
    "PureQubit",
    "Strength",
    "KrausPair",
    "ZERO",
    "ONE",
    "PLUS",
    "MINUS",
    "sign_factor",
    "as_strength",
    "make_signal_state",
    "kraus_operators",
]

# Probabilities at or below this are treated as numerically zero.
PROB_FLOOR = 1e-30

_NORM_TOL = 1e-12


def sign_factor(postselect_sign: str) -> float:
    """Map a postselection label to the sign it carries in closed forms.

    ``<-|`` postselection contributes ``-1``, ``<+|`` contributes ``+1``
    (the factor multiplying ``sin(4*theta)`` in postselection probabilities).
    """
    if postselect_sign == "minus":
        return -1.0
    if postselect_sign == "plus":
        return 1.0
    raise ValueError(f"postselect_sign must be 'plus' or 'minus', got {postselect_sign!r}")


@dataclass(frozen=True)
class PureQubit:
    """Normalized two-component amplitude vector.

    ``a0`` and ``a1`` are the amplitudes on ``|0>`` and ``|1>``.  Complex
    amplitudes are accepted; everything this library is tested against lives
    on the real (linear-polarization) manifold.
    """

    a0: complex
    a1: complex

    def __post_init__(self) -> None:
        norm = abs(self.a0) ** 2 + abs(self.a1) ** 2
        if not math.isfinite(norm) or abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: |a0|^2+|a1|^2 = {norm!r}")

    def amplitudes(self) -> np.ndarray:
        return np.array([self.a0, self.a1], dtype=complex)

    def projector(self) -> np.ndarray:
        v = self.amplitudes()
        return np.outer(v, v.conj())


ZERO = PureQubit(1.0, 0.0)
ONE = PureQubit(0.0, 1.0)
PLUS = PureQubit(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
MINUS = PureQubit(1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class Strength:
    """Measurement strength ``kappa`` in [0, 1].

    ``kappa = 0`` is the identity-limit (infinitely gentle) measurement,
    ``kappa = 1`` the projective limit.
    """

    kappa: float

    def __post_init__(self) -> None:
        k = self.kappa
        if not math.isfinite(k) or not 0.0 <= k <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {k!r}")

    @property
    def dephasing_weight(self) -> float:
        """The probability weight 1 - sqrt(1 - kappa^2) of the disturbed part
        of the consolidated postselection operator."""
        return 1.0 - math.sqrt(1.0 - self.kappa * self.kappa)


def as_strength(s: "Strength | float") -> Strength:
    return s if isinstance(s, Strength) else Strength(float(s))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class KrausPair:
    """The two measurement operators of a strength-kappa qubit measurement.

    Both are diagonal in the computational basis with entries
    ``sqrt((1 +- kappa)/2)`` and satisfy ``m0^T m0 + m1^T m1 = I``.
    """

    m0: np.ndarray
    m1: np.ndarray

    def __post_init__(self) -> None:
        ident = self.m0.conj().T @ self.m0 + self.m1.conj().T @ self.m1
        if np.max(np.abs(ident - np.eye(2))) > _NORM_TOL:
            raise ValueError("Kraus pair does not satisfy completeness")
        _frozen(self.m0)
        _frozen(self.m1)


def make_signal_state(theta: float) -> PureQubit:
    """Signal preparation ``cos(2*theta)|0> + sin(2*theta)|1>``."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return PureQubit(math.cos(2.0 * theta), math.sin(2.0 * theta))


def kraus_operators(s: "Strength | float") -> KrausPair:
    """Measurement operator pair ``diag(a, b)`` and ``diag(b, a)`` with
    ``a = sqrt((1+kappa)/2)``, ``b = sqrt((1-kappa)/2)``."""
    kappa = as_strength(s).kappa
    a = math.sqrt((1.0 + kappa) / 2.0)
    b = math.sqrt((1.0 - kappa) / 2.0)
    return KrausPair(np.diag([a, b]), np.diag([b, a]))
