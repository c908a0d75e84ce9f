"""The conventions every module keeps, the postselection sign labels, and one
check per kind of number (``real_number``; ``unit_interval`` for [0, 1]).

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
* Angles are radians in every computation; what a caller reads is in
  degrees: the CLI, ``TABLE1_THETAS_DEG``, ``Table1Row``, ``EstimateBatch``
  and the angles of every error text.
"""

from __future__ import annotations

import numbers

__all__ = [
    "PROB_FLOOR",
    "real_number",
    "unit_interval",
    "sign_factor",
    "postselected_channels",
]

# Probabilities at or below this are treated as numerically zero.
PROB_FLOOR = 1e-30


def real_number(name: str, value) -> float:
    """``float(value)``; raises ValueError naming ``name`` unless ``value`` is
    a real number that fits in a float and no bool, read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} must be a finite number, got an integer "
                         f"too large for a float") from None


def unit_interval(name: str, value) -> float:
    """:func:`real_number` of ``value``, which must also lie in [0, 1]."""
    number = real_number(name, value)
    if not 0.0 <= number <= 1.0:  # NaN too
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return number


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
