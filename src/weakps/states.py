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

__all__ = [
    "PROB_FLOOR",
    "Strength",
    "sign_factor",
    "postselected_channels",
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


def postselected_channels(postselect_sign: str) -> slice:
    """The channels of a row ``(mp, mm, pp, pm)`` that a postselection reads,
    outcome 0 first: ``(mp, mm)`` for ``<-|``, ``(pp, pm)`` for ``<+|``."""
    return slice(0, 2) if sign_factor(postselect_sign) < 0 else slice(2, 4)


class _Record:
    """A frozen record of the fields ``_fields`` names in order, which its
    class's ``__init__`` sets in the instance ``__dict__``, with a
    dataclass's repr (less the fields in ``_hidden``), equality and hash:
    not a ``@dataclass``, whose methods Python 3.11 compiles with ``exec``."""

    _hidden: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields
                          if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def replace(self, **changes):
        """A new record, validated, of this one's fields but for ``changes``."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class Strength(_Record):
    """Measurement strength ``kappa`` in [0, 1].

    ``kappa = 0`` is the identity-limit (infinitely gentle) measurement,
    ``kappa = 1`` the projective limit.
    """

    _fields = ("kappa",)

    def __init__(self, kappa: float) -> None:
        if not math.isfinite(kappa) or not 0.0 <= kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {kappa!r}")
        self.__dict__["kappa"] = kappa

    @property
    def dephasing_weight(self) -> float:
        """The weight ``p_d = 1 - r`` of the dephasing in the consolidated
        channel ``r rho + p_d Delta(rho)``, ``r = sqrt(1 - kappa^2)``; written
        ``kappa^2 / (1 + r)``, which does not cancel at small kappa."""
        k2 = self.kappa * self.kappa
        return k2 / (1.0 + math.sqrt(1.0 - k2))


def as_strength(s: "Strength | float") -> Strength:
    return s if isinstance(s, Strength) else Strength(float(s))
