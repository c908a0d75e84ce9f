"""The measurement strength, the postselection sign labels, and the
conventions every module keeps.

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

__all__ = [
    "PROB_FLOOR",
    "Strength",
    "sign_factor",
    "as_strength",
]

# Probabilities at or below this are treated as numerically zero.
PROB_FLOOR = 1e-30


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
        """The weight ``p_d = 1 - r`` of the dephasing in the consolidated
        channel ``r rho + p_d Delta(rho)``, ``r = sqrt(1 - kappa^2)``; written
        ``kappa^2 / (1 + r)``, which does not cancel at small kappa."""
        k2 = self.kappa * self.kappa
        return k2 / (1.0 + math.sqrt(1.0 - k2))


def as_strength(s: "Strength | float") -> Strength:
    return s if isinstance(s, Strength) else Strength(float(s))
