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
from .contextuality import (
    PuseyRecord,
    SDecomposition,
    ViolationScan,
    consolidated_S,
    decompose_consolidated,
    p_phi_from_postselection,
    pusey_from_probabilities,
    pusey_functional,
    pusey_record_from_states,
    scan_violation,
)
from .counting import (
    AcquisitionConfig,
    CountRecord,
    derive_seeds,
    simulate_batch,
    simulate_counts,
    weak_value_from_counts,
)
from .estimation import (
    CalibrationCurve,
    EstimateResult,
    ModelParams,
    Table1Row,
    build_calibration,
    cramer_rao_variance,
    estimate_theta,
    load_baseline,
    propagate_variance,
    table1_pipeline,
)
from .imperfections import (
    IDEAL_GATE,
    ImperfectionParams,
    effective_kappa,
    imperfect_joint_probs,
)
from .states import (
    MINUS,
    ONE,
    PLUS,
    ZERO,
    KrausPair,
    ProbabilityRecord,
    PureQubit,
    QubitPovm,
    Strength,
    TwoQubitDensity,
    circuit_joint_probability,
    circuit_probability_record,
    conditional_probabilities,
    csign_apply,
    ideal_probability_record,
    joint_probability,
    joint_probability_record,
    kraus_operators,
    make_meter_state,
    make_signal_state,
    povm_elements,
)
from .weak import (
    FisherReport,
    WeakValueResult,
    evaluate_weak_value,
    fisher_ps_closed_form,
    fisher_ps_definition,
    fisher_report,
    four_outcome_bloch_angles,
    quantum_fisher_information,
    weak_value,
    weak_value_curve,
    weak_value_curve_grid,
    weak_value_slope,
)

__all__ = [name for name in dir() if not name.startswith("_")]
