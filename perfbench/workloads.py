"""The benchmark's workloads: which weakps CLI calls one pass makes.

A pass is a fixed list of CLI calls, run one after another.  Every pass of a
run repeats the same calls with the same arguments, so passes can be
compared byte for byte (the determinism check) and their timings pooled.

The run's ``--seed`` picks one of ``POOL`` input sets.  The pool is finite
because ``table1``, ``estimate`` and simulated sweeps are checked against
reference records kept in ``reference/``, one entry per pool index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

POOL = 12

IMPERFECT_FLAGS = ["--visibility", "0.78", "--t-h", "0.98", "--t-v", "0.34"]

# Columns the imperfect-model reference must not pin: today they come from
# the ideal model, and the closed-form imperfect model is meant to change them.
IMPERFECT_EXCLUDED = ("sigma_cr_deg2", "variance_theta_deg2", "f_ps")


@dataclass(frozen=True)
class Call:
    """One CLI call: its arguments, the file it writes, and how to check it.

    ``kind`` names the check; ``params`` holds the generated inputs the
    check recomputes values from (never read back from the output).
    """

    argv: tuple[str, ...]
    output: str
    kind: str
    params: dict = field(default_factory=dict)
    input: str | None = None
    # reference columns not compared for this call
    excluded: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """``calls(pool_index, quick)`` builds one pass."""

    name: str
    why: str
    calls: Callable[[int, bool], list[Call]]


def _table1(index: int, reps: int, extra: list[str], name: str,
            excluded: tuple[str, ...] = ()) -> Call:
    argv = ["table1", "--kappa", "0.335", "--postselect", "both",
            "--repetitions", str(reps), "--seed", str(index), *extra,
            "--output", f"{name}.csv"]
    return Call(tuple(argv), f"{name}.csv", "table1", {"repetitions": reps},
                excluded=excluded)


def _monte_carlo(index: int, quick: bool) -> list[Call]:
    return [
        _table1(index, 20 if quick else 500, [], "ideal"),
        _table1(index, 1 if quick else 2, IMPERFECT_FLAGS, "imperfect", IMPERFECT_EXCLUDED),
    ]


def _count_pipeline(index: int, quick: bool) -> list[Call]:
    counts, estimate = f"counts-{index}.json", f"estimate-{index}.json"
    pusey, fisher = f"pusey-sim-{index}.csv", f"fisher-{index}.csv"
    kappa = f"{0.335 + 0.01 * index:.3f}"
    step = "1" if quick else "0.05"
    params = {"kappa": float(kappa), "theta_step": float(step)}
    return [
        Call(("simulate-counts", "--kappa", "0.335", "--theta-start", "20",
              "--theta-end", "26.5", "--theta-step", "0.5", "--seed", str(index),
              "--format", "json", "--output", counts), counts, "counts"),
        Call(("estimate", "--input", counts, "--branch", "18,27",
              "--format", "json", "--output", estimate), estimate, "estimate",
             input=counts),
        Call(("sweep-pusey", "--kappa", "0.335", "--simulate", "--p-phi", "counts",
              "--theta-step", step, "--seed", str(index),
              "--output", pusey), pusey, "sweep-pusey-simulated"),
        Call(("sweep-fisher", "--kappa", "0.335", "--output", fisher), fisher,
             "sweep-fisher", {"kappa": 0.335, "theta_step": 0.5}),
        Call(("sweep-weak-value", "--kappa", kappa, "--theta-step", step,
              "--postselect", "both", "--output", "weak-value.csv"),
             "weak-value.csv", "sweep-weak-value", params),
        Call(("sweep-pusey", "--kappa", kappa, "--theta-step", step,
              "--postselect", "both", "--format", "json", "--output", "pusey.json"),
             "pusey.json", "sweep-pusey", params),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        "monte-carlo",
        "table1 ideal at 500 repetitions and under gate imperfections at 2: estimation, "
        "weak, states, counting and the 4x4 density-matrix model; little output",
        _monte_carlo),
    Workload(
        "count-pipeline",
        "simulate-counts, estimate, the sweeps to CSV and JSON: set-up bound, reads "
        "files, the cli output path, kernels and contextuality; no imperfections",
        _count_pipeline),
)}
