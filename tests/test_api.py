"""The public API: the names ``weakps`` and each submodule export, and that
each submodule's ``__all__`` names only what the submodule defines.  The
reference routes live in ``tests/oracles.py``, not in these lists."""

import importlib

import weakps

PUBLIC = [
    "AcquisitionConfig", "CalibrationCurve", "EstimateBatch", "IDEAL_GATE",
    "ImperfectionParams", "KrausPair", "MINUS", "ModelParams", "ONE", "PLUS", "PureQubit",
    "SDecomposition", "Strength", "Table1Row", "ZERO", "assess_estimates", "build_calibration",
    "consolidated_S", "contextuality", "counting", "decompose_consolidated", "derive_seeds",
    "draw_counts", "errors", "estimation", "imperfections", "invert_branch", "kernels",
    "kraus_operators", "load_baseline", "make_signal_state", "p_phi_from_postselection",
    "states", "table1_pipeline", "weak", "weak_values_from_counts",
]

SUBMODULE_ALL = {
    "contextuality": ["SDecomposition", "consolidated_S", "decompose_consolidated",
                      "p_phi_from_postselection"],
    "counting": ["AcquisitionConfig", "COUNT_COLUMNS", "MAX_EXPECTED_TOTAL", "derive_seeds",
                 "draw_counts", "postselected_counts", "weak_values_from_counts"],
    "estimation": ["CalibrationCurve", "EstimateBatch", "ModelParams", "RAD2_TO_DEG2",
                   "TABLE1_THETAS_DEG", "Table1Row", "assess_estimates", "build_calibration",
                   "invert_branch", "load_baseline", "table1_pipeline"],
    "imperfections": ["IDEAL_GATE", "ImperfectionParams", "VISIBILITY_MODEL",
                      "coincidence_probabilities", "postselected_coefficients",
                      "renormalized_probabilities"],
    "kernels": ["channel_probabilities", "fisher_from_weak_value", "invert_trig",
                "pusey_functional", "trig_curve", "trig_form", "trig_slope",
                "trig_turning_points"],
    "states": ["KrausPair", "MINUS", "ONE", "PLUS", "PROB_FLOOR", "PureQubit", "Strength", "ZERO",
               "as_strength", "kraus_operators", "make_signal_state", "sign_factor"],
    "weak": ["QUANTUM_FISHER_INFORMATION", "SATURATION_TOL"],
}


def test_package_exports():
    assert sorted(weakps.__all__) == PUBLIC
    for name in weakps.__all__:
        assert hasattr(weakps, name), name


def test_submodule_exports():
    for module_name, names in SUBMODULE_ALL.items():
        module = importlib.import_module(f"weakps.{module_name}")
        assert sorted(module.__all__) == names, module_name


def test_every_submodule_export_resolves():
    for module_name in SUBMODULE_ALL:
        module = importlib.import_module(f"weakps.{module_name}")
        stale = [name for name in module.__all__ if not hasattr(module, name)]
        assert stale == [], f"weakps.{module_name}.__all__ names {stale}"
        assert len(set(module.__all__)) == len(module.__all__), module_name
