"""weakps: variable-strength qubit measurements with postselection.

Simulates generalized (variable-strength) measurements on a qubit followed
by projective postselection, and everything the combination supports:
rescaled postselected values and their anomalies, postselected and maximal
Fisher information, a non-contextuality functional on the joint outcome
probabilities, a parametric gate-imperfection model, Poissonian coincidence
counting, and angle estimation with Cramér-Rao comparison.
"""

__version__ = "0.1.0"

from . import errors
from .contextuality import decompose_consolidated, p_phi_from_postselection
from .counting import (
    AcquisitionConfig,
    derive_seeds,
    draw_counts,
    weak_values_from_counts,
)
from .estimation import (
    EstimateBatch,
    ModelParams,
    Table1Row,
    assess_estimates,
    invert_branch,
    load_baseline,
    table1_pipeline,
)
from .imperfections import IDEAL_GATE, ImperfectionParams
from .states import Strength

__all__ = [name for name in dir() if not name.startswith("_")]
