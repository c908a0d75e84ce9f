"""Constants of the postselected (weak) values' Fisher information.

The measured observable is ``Z = |0><0| - |1><1|`` with spectrum [-1, 1];
rescaled postselected values outside that interval are called *anomalous*.
Either model's curve, its slope, the postselection probability and the
postselected Fisher information are evaluated from one trig basis by
:meth:`weakps.estimation.ModelParams.evaluate`, and validated by
:meth:`~weakps.estimation.ModelParams.checked`.
"""

__all__ = [
    "QUANTUM_FISHER_INFORMATION",
    "SATURATION_TOL",
]

# Constant information ceiling of the signal family cos(2t)|0> + sin(2t)|1>:
# the state moves on a great circle at Bloch speed 4, so the ceiling is 16
# per squared radian independently of theta.
QUANTUM_FISHER_INFORMATION = 16.0

# |kappa * sigma_w| within this distance of 1 counts as saturated: the
# closed-form information expression has its pole there and one conditional
# probability underflows.
SATURATION_TOL = 1e-9
