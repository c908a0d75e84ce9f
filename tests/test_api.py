"""The public API: the names ``weakps`` exports, and that each submodule's
``__all__`` names only what the submodule defines."""

import importlib

import weakps

PUBLIC = [
    "AcquisitionConfig", "CalibrationCurve", "EstimateBatch", "IDEAL_GATE",
    "ImperfectionParams", "KrausPair", "MINUS", "ModelParams", "ONE", "PLUS",
    "ProbabilityRecord", "PureQubit", "QubitPovm", "SDecomposition", "Strength", "Table1Row",
    "TwoQubitDensity", "ViolationScan", "WeakValueResult", "ZERO", "assess_estimates",
    "build_calibration", "circuit_joint_probability", "circuit_probability_record",
    "conditional_probabilities", "consolidated_S", "contextuality", "counting", "csign_apply",
    "decompose_consolidated", "derive_seeds", "draw_counts", "effective_kappa", "errors",
    "estimation", "evaluate_weak_value", "four_outcome_bloch_angles",
    "ideal_probability_record", "imperfect_joint_probs", "imperfections", "invert_branch",
    "joint_probability", "joint_probability_record", "kernels", "kraus_operators",
    "load_baseline", "make_meter_state", "make_signal_state", "p_phi_from_postselection",
    "povm_elements", "pusey_from_probabilities", "pusey_functional", "scan_violation", "states",
    "table1_pipeline", "weak", "weak_value", "weak_values_from_counts",
]

SUBMODULES = ("contextuality", "counting", "estimation", "imperfections", "kernels", "states",
              "weak")


def test_package_exports():
    assert sorted(weakps.__all__) == PUBLIC
    for name in weakps.__all__:
        assert hasattr(weakps, name), name


def test_every_submodule_export_resolves():
    for module_name in SUBMODULES:
        module = importlib.import_module(f"weakps.{module_name}")
        stale = [name for name in module.__all__ if not hasattr(module, name)]
        assert stale == [], f"weakps.{module_name}.__all__ names {stale}"
        assert len(set(module.__all__)) == len(module.__all__), module_name
