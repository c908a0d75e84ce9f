"""The public API: the names ``weakps`` and each submodule export, and that
each submodule's ``__all__`` names only what the submodule defines.  The
reference routes live in ``tests/oracles.py``, not in these lists, and the
library holds no definition that the CLI does not reach."""

import ast
import importlib
from pathlib import Path

import weakps

PUBLIC = [
    "AcquisitionConfig", "EstimateBatch", "IDEAL_GATE", "ImperfectionParams", "ModelParams",
    "Strength", "Table1Row", "assess_estimates", "contextuality", "counting",
    "decompose_consolidated", "derive_seeds", "draw_counts", "errors", "estimation",
    "imperfections", "invert_branch", "kernels", "load_baseline", "p_phi_from_postselection",
    "states", "table1_batch", "weak", "weak_values_from_counts",
]

SUBMODULE_ALL = {
    "contextuality": ["decompose_consolidated", "p_phi_from_postselection"],
    "counting": ["AcquisitionConfig", "COUNT_COLUMNS", "MAX_EXPECTED_TOTAL", "derive_seeds",
                 "draw_counts", "postselected_counts", "weak_values_from_counts"],
    "estimation": ["EstimateBatch", "ModelParams", "RAD2_TO_DEG2", "TABLE1_THETAS_DEG",
                   "Table1Row", "assess_estimates", "channel_probabilities", "invert_branch",
                   "load_baseline", "table1_batch"],
    "imperfections": ["IDEAL_GATE", "ImperfectionParams", "VISIBILITY_MODEL", "channel_matrix"],
    "kernels": ["fisher_from_weak_value", "invert_trig",
                "pusey_functional", "trig_basis", "trig_curve", "trig_form", "trig_slope",
                "trig_turning_points"],
    "states": ["PROB_FLOOR", "Strength", "as_strength", "sign_factor"],
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


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute name used inside ``node``."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_definition_is_reached_from_the_cli():
    # a name-based walk from cli.main and the subcommand registry: a
    # definition is reached when a reached definition uses its name
    definitions: dict[str, list[ast.AST]] = {}
    for path in sorted(Path(weakps.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        definitions.setdefault(target.id, []).append(node)
    # the package's __getattr__ is a root too: the import system calls it
    roots = ("main", "_SUBCOMMANDS", "__getattr__")
    reached = set(roots)
    todo = [node for name in roots for node in definitions[name]]
    while todo:
        names = set().union(*map(_names, todo)) & definitions.keys()
        todo = [node for name in names - reached for node in definitions[name]]
        reached |= names
    assert sorted(definitions.keys() - reached) == []
