"""weakps: variable-strength qubit measurements with postselection.

Simulates generalized (variable-strength) measurements on a qubit followed
by projective postselection, and everything the combination supports:
rescaled postselected values and their anomalies, postselected and maximal
Fisher information, a non-contextuality functional on the joint outcome
probabilities, a parametric gate-imperfection model, Poissonian coincidence
counting, and angle estimation with Cramér-Rao comparison.

``import weakps`` loads no submodule and so no numpy: each name of
``__all__`` is imported on first use (PEP 562).  The package changes
nothing in the process.  ``weakps.cli`` alone does, each time once at its
import (see its comments): it defaults ``OPENBLAS_NUM_THREADS`` to 1, a value
already set winning; it keeps the garbage collector off while its imports
load and then freezes the objects they built (``gc.freeze()``), leaving the
collector enabled or disabled as it was, also when an import fails.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, and the submodule that defines it
_EXPORTS = {
    "decompose_consolidated": "contextuality", "p_phi_from_postselection": "contextuality",
    "AcquisitionConfig": "counting", "derive_seeds": "counting", "draw_counts": "counting",
    "weak_values_from_counts": "counting",
    "EstimateBatch": "estimation", "ModelParams": "estimation", "Table1Row": "estimation",
    "assess_estimates": "estimation", "invert_branch": "estimation",
    "load_baseline": "estimation", "table1_batch": "estimation",
    "IDEAL_GATE": "imperfections", "ImperfectionParams": "imperfections",
}
_SUBMODULES = ("contextuality", "counting", "errors", "estimation", "imperfections",
               "kernels", "states", "weak")

__all__ = [*_SUBMODULES, *_EXPORTS]


def __getattr__(name: str):
    """Import a submodule, or the submodule that defines ``name``, on first use."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
