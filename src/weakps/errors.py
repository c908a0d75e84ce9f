"""Exception types raised by the weakps library.

Each class marks one well-defined failure mode of the numerical pipeline,
so callers (and the CLI) can distinguish "your input is outside the model"
from genuine bugs.  Messages give angles in degrees, as the CLI does.
"""

import math


def angle_text(theta: float) -> str:
    """An angle in radians as plain degrees, for error messages."""
    return f"{math.degrees(theta):.12g} deg"


class WeakpsError(Exception):
    """Base class for all weakps errors."""


class ZeroStrength(WeakpsError):
    """Measurement strength is zero; the rescaled value is undefined."""


class ZeroPostselection(WeakpsError):
    """Postselection probability is numerically zero; conditioning impossible."""


class DegenerateConditional(WeakpsError):
    """A conditional outcome probability vanishes; Fisher information undefined."""


class OrthogonalPostselection(WeakpsError):
    """Preparation and postselection states are orthogonal (p_phi = 0)."""


class EmptyGrid(WeakpsError):
    """A scan grid is empty, or every point was skipped."""


class GateStarved(WeakpsError):
    """Coincidence probability through the lossy gate is numerically zero."""


class EmptyChannel(WeakpsError):
    """Both counts of a postselection channel pair are zero."""


class OutOfRange(WeakpsError):
    """Measured value lies outside the calibration branch's range."""


class AmbiguousBranch(WeakpsError):
    """Requested inversion branch spans a turning point of the curve."""


class FlatCurve(WeakpsError):
    """Calibration curve slope vanishes; variance propagation is singular."""


class ConfigError(WeakpsError):
    """Invalid CLI flags or configuration file contents."""
