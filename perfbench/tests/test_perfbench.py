"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_synthetic_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock)
    for key, layer in [("cli.main", "cli"), ("estimation.f", "estimation"),
                       ("states.g", "states"), ("weak.h", "weak")]:
        tracer.register(key, layer)

    def at(t, action, *args):
        clock.now = t
        action(*args)

    at(0.0, tracer.enter, "cli.main")
    at(1.0, tracer.enter, "estimation.f")
    at(2.0, tracer.enter, "states.g")
    error = ValueError("raised in g, caught in f")
    at(3.0, tracer.exit, error)
    at(3.5, tracer.enter, "states.g")
    at(4.0, tracer.exit)
    at(4.0, tracer.exit)
    at(5.0, tracer.enter, "weak.h")
    at(6.0, tracer.exit)
    at(10.0, tracer.exit)

    stats = tracer.stats
    assert stats["cli.main"][2] == pytest.approx(10.0 - 3.0 - 1.0)
    assert stats["estimation.f"][2] == pytest.approx(3.0 - 1.5)
    assert stats["states.g"][1:4] == [2, pytest.approx(1.5), pytest.approx(1.5)]
    assert stats["weak.h"][2] == pytest.approx(1.0)
    assert sum(v[2] for v in stats.values()) == pytest.approx(stats["cli.main"][3])
    assert tracer.raised == {("states.g", "ValueError"): 1}
    assert tracer.spans == 5


def test_exception_counted_once_at_its_origin():
    clock = FakeClock()
    tracer = Tracer(clock)
    for key in ("cli.main", "estimation.outer", "estimation.inner"):
        tracer.register(key, key.split(".")[0])
    error = KeyError("x")
    tracer.enter("cli.main")
    tracer.enter("estimation.outer")
    tracer.enter("estimation.inner")
    tracer.exit(error)  # propagates through outer ...
    tracer.exit(error)
    tracer.exit()  # ... and main catches it
    assert tracer.raised == {("estimation.inner", "KeyError"): 1}


def _table1_csv(path: Path, n_failed: list[int], reps: int) -> None:
    lines = ["# command = table1", "# generated_at = now",
             "postselect,theta_deg,n_ok,n_failed"]
    thetas = [("minus", 20), ("minus", 22.5), ("minus", 25), ("minus", 27.5),
              ("plus", 67.5), ("plus", 70), ("plus", 72.5), ("plus", 75)]
    for (sign, theta), failed in zip(thetas, n_failed):
        lines.append(f"{sign},{theta},{reps - failed},{failed}")
    path.write_text("\n".join(lines) + "\n")


def test_fail_ratio_is_the_n_failed_sum():
    tmp_path = run.OUT / "test-work"
    tmp_path.mkdir(parents=True, exist_ok=True)
    reps, n_failed = 50, [0, 3, 0, 31, 0, 0, 2, 1]
    _table1_csv(tmp_path / "t.csv", n_failed, reps)
    call = Call(("table1",), "t.csv", "table1", {"repetitions": reps})
    _, stats = run.check_outputs(WORKLOADS["monte-carlo"], [call], tmp_path, 0, quick=True)
    assert stats["n_failed"] == sum(n_failed)
    attempted = 8 * reps + 1  # every repetition, plus the CLI call itself
    assert stats["ops"] == attempted
    fake_call = {"wall_s": 1.0, "cpu_s": 1.0, "rss_mib": 1.0, "rc": 0, "main_s": 0.5,
                 "setup_s": 0.5, "speed": 2.0}
    metrics, raw = run.end_to_end([{"calls": [fake_call]}], [], stats)
    assert 1.0 - metrics["ok_ratio"]["value"] == pytest.approx(sum(n_failed) / attempted)
    assert raw["items_per_s"]["value"] == pytest.approx(8 * reps / 0.5)
    # a call that ran at half the reference speed: times halve, rates double
    assert metrics["items_per_s"]["value"] == pytest.approx(2 * 8 * reps / 0.5)
    assert metrics["wall_s"]["value"] == pytest.approx(0.5)
    assert metrics["peak_rss_mib"]["value"] == raw["peak_rss_mib"]["value"]


def test_gate_rejects_a_perturbed_record():
    refs = json.loads((BENCH / "reference" / "monte-carlo.quick.json").read_text())
    ref = refs["0"]["ideal.csv"]
    assert gate.compare(ref, json.loads(json.dumps(ref))) == []

    for field, delta in [("n_failed", 1), ("n_ok", -1), ("mean_theta_hat_deg", 1e-4),
                         ("mean_m_ps", 1e-3)]:
        got = json.loads(json.dumps(ref))
        got["rows"][1][field] += delta
        assert gate.compare(ref, got), field

    within = json.loads(json.dumps(ref))
    within["rows"][0]["mean_theta_hat_deg"] += 1e-9
    assert gate.compare(ref, within) == []
    excluded = json.loads(json.dumps(ref))
    excluded["rows"][0]["sigma_cr_deg2"] *= 2
    assert gate.compare(ref, excluded, excluded=("sigma_cr_deg2",)) == []


def test_gate_rejects_a_perturbed_sweep_value():
    kappa, step = 0.4, 0.5
    theta = np.deg2rad(gate.theta_grid_deg(0.0, 90.0, step))
    r = math.sqrt(1 - kappa**2)
    cols = {"theta_deg": list(np.rad2deg(theta))}
    for name, sgn in (("minus", -1.0), ("plus", 1.0)):
        sigma = np.cos(4 * theta) / (1 + sgn * r * np.sin(4 * theta))
        cols[f"sigma_w_{name}"] = list(sigma)
        cols[f"anomalous_{name}"] = list((np.abs(sigma) > 1).astype(int))
    params = {"kappa": kappa, "theta_step": step}
    assert gate.check_sweep_weak_value(cols, params) == []
    cols["sigma_w_plus"][17] *= 1 + 1e-6
    assert gate.check_sweep_weak_value(cols, params)

    cols = {"theta_deg": list(np.rad2deg(theta))}
    for name, sgn in (("minus", -1.0), ("plus", 1.0)):
        i0, i1, _ = gate.pusey_closed_form(theta, kappa, sgn)
        cols[f"i0_{name}"], cols[f"i1_{name}"] = list(i0), list(i1)
    assert gate.check_sweep_pusey(cols, params) == []
    cols["i1_minus"][40] += 1e-6
    assert gate.check_sweep_pusey(cols, params)

    cols = {"theta_deg": list(np.rad2deg(theta)), "q": [16.0] * len(theta)}
    for name, sgn in (("minus", -1.0), ("plus", 1.0)):
        den = 1 + sgn * r * np.sin(4 * theta)
        cols[f"f_ps_{name}"] = list(16 * kappa**2 / den**2)
        cols[f"budget_lhs_{name}"] = list(8 * kappa**2 / den)
    assert gate.check_sweep_fisher(cols, params) == []
    cols["f_ps_plus"][17] *= 1 + 1e-6
    assert gate.check_sweep_fisher(cols, params)


def test_importtime_split():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |     140000 |   numpy",
        "import time:       300 |     550000 |     scipy.optimize",
        "import time:      2000 |       2000 |     weakps.errors",
        "import time:      5000 |     700000 | weakps",
    ])
    split = run.importtime_split(text)
    assert split == {"setup.numpy_s": 0.14, "setup.scipy_optimize_s": 0.55,
                     "setup.weakps_s": pytest.approx(0.007)}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode_runs_every_workload(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--quick",
         "--seconds", "0", "--seed", "5", "--trace", trace],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = run.END_TO_END if trace == "0" else run.PER_LAYER
    for workload in WORKLOADS:
        for name in names:
            assert f"{workload}.{name}" in result["metrics"]
    if trace == "1":
        assert result["metrics"]["monte-carlo.estimation.failed.OutOfRange"]["value"] > 0
        assert result["metrics"]["count-pipeline.kernels.points"]["value"] > 0
        assert result["metrics"]["count-pipeline.contextuality.calls"]["value"] > 0
        assert result["metrics"]["monte-carlo.imperfections.calls"]["value"] > 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
