#!/usr/bin/env python3
"""weakps benchmark: whole CLI calls, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--profile] [--quick]

Closed loop, one client: a single driver process runs the workload's CLI
calls one at a time, each in a fresh interpreter (``child.py``), for at
least ``--seconds`` and at least two passes.  The CLI sees only the
generated arguments.

* ``--trace 0`` reports the end-to-end metrics (``END_TO_END``).
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics (``PER_LAYER``); ``trace.overhead_s`` is the difference.
* ``--profile`` makes one pass under cProfile and writes the top 10
  functions by self time to ``out/<workload>.profile.json``.
* ``--quick`` shrinks every workload to a smoke-test size.

End-to-end times are reported at a fixed host speed: each call's times are
divided by its ``speed``, the time of the child's reference task over
``REF_NOMINAL_S``.  The times as measured go to the details file as
``raw_metrics`` and are printed too.

Every run checks its outputs (see ``gate.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (CLI
calls, and those that exited non-zero) and ``metrics``.  Details, the
environment record and pass timings go to ``out/<workload>.<mode>.json``.
The exit code is 1 when a check fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

sys.path.insert(0, str(BENCH))

MIN_PASSES = 2
SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
# A hung CLI call is killed after this long and counts as a failed call.
CALL_TIMEOUT_S = 150.0
# The layer self times must cover cli.main up to this share (plus 5 ms).
RESIDUE_SHARE = 0.01
# End-to-end times are reported at the host speed at which the child's
# reference task (child.reference) takes this long.
REF_NOMINAL_S = 0.035

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}

_LAYER_UNITS = {"self_s": "s", "calls": "count"}
PER_LAYER = {
    "setup.numpy_s": "s", "setup.scipy_optimize_s": "s", "setup.weakps_s": "s",
    "estimation.self_s": "s", "estimation.calls": "count",
    "estimation.calibration_s": "s", "estimation.invert_s": "s",
    "estimation.attempts": "count", "estimation.model_evals": "count",
    "estimation.model_evals_per_attempt": "count", "estimation.ok_ratio": "ratio",
    "estimation.failed.OutOfRange": "count", "estimation.failed.AmbiguousBranch": "count",
    "estimation.failed.FlatCurve": "count",
    "imperfections.self_s": "s", "imperfections.calls": "count",
    "imperfections.us_per_call": "us",
    "states.self_s": "s", "states.calls": "count",
    "weak.self_s": "s", "weak.calls": "count",
    "counting.self_s": "s", "counting.calls": "count", "counting.draws": "count",
    "counting.seeds_s": "s",
    "kernels.self_s": "s", "kernels.calls": "count", "kernels.points": "count",
    "kernels.ns_per_point": "ns", "kernels.bytes_computed": "bytes",
    "cli.self_s": "s", "cli.rows_out": "count", "cli.bytes_out": "bytes",
    "cli.bytes_in": "bytes",
    "contextuality.self_s": "s", "contextuality.calls": "count",
    "trace.overhead_s": "s", "trace.spans": "count", "trace.residue_s": "s",
}

# Bytes a kernel reads and writes per grid point, float64 in and out
# (computed from array sizes, not measured).
KERNEL_BYTES_PER_POINT = {"pusey_curves": 32}
DEFAULT_KERNEL_BYTES = 16


from gate import CLOSED_FORM_CHECKS, compare, digest, read_output, summarize  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import POOL, WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("WEAKPS_OUTPUT_DIR", None)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weakps").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, mode: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "mode": mode,
        "loop": "closed, 1 client, 1 CLI process at a time",
    }


# ---------------------------------------------------------------------------
# running CLI processes
# ---------------------------------------------------------------------------

def spawn(mode: str, argv: tuple, cwd: Path, tag: str, python_flags: tuple = ()) -> dict:
    """Run one child and return its timings; wall and rusage come from the
    parent, import, main and reference times from the child's report.  The
    times exclude the child's reference task; ``speed`` is its time over
    REF_NOMINAL_S (above 1 on a slow host)."""
    report = cwd / f".{tag}.report.json"
    errpath = cwd / f".{tag}.stderr"
    report.unlink(missing_ok=True)
    cmd = [sys.executable, *python_flags, str(CHILD), str(report), mode, *argv]
    with open(errpath, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=ENV, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.monotonic()
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {
        "argv": list(argv),
        "rc": proc.returncode,
        "wall_s": t_exit - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,
        "stderr": str(errpath),
    }
    if report.exists():
        rep = json.loads(report.read_text())
        before, after = rep["ref_wall_s"]
        out["wall_s"] -= before + after
        out["cpu_s"] -= rep["ref_cpu_s"]
        out["speed"] = (before + after) / (2 * REF_NOMINAL_S)
        out["setup_s"] = rep["t_imported"] - t_spawn - before
        out["weakps_file"] = os.path.relpath(rep["weakps_file"], ROOT)
        if "t_main_end" in rep:
            out["main_s"] = rep["t_main_end"] - rep["t_main_start"]
        out["trace"] = rep.get("trace")
    return out


def run_pass(calls, workdir: Path, mode: str, index: int) -> dict:
    results = [spawn(mode, c.argv, workdir, f"p{index}c{i}") for i, c in enumerate(calls)]
    digests = {c.output: digest(str(workdir / c.output))
               for c in calls if (workdir / c.output).exists()}
    return {"mode": mode, "calls": results, "digests": digests}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_outputs(workload, calls, workdir: Path, index: int, quick: bool) -> tuple[list, dict]:
    """Gate the final outputs; also return what they contain (items, operations)."""
    ref_path = BENCH / "reference" / f"{workload.name}{'.quick' if quick else ''}.json"
    reference = json.loads(ref_path.read_text()).get(str(index), {}) if ref_path.exists() else {}
    errors: list[str] = []
    stats = {"items": 0, "ops": 0, "ops_failed": 0, "n_failed": 0, "rows_out": 0,
             "bytes_out": 0, "bytes_in": 0}
    for call in calls:
        path = workdir / call.output
        if not path.exists():
            errors.append(f"{call.output}: missing")
            continue
        meta, cols = read_output(str(path))
        rows = len(next(iter(cols.values()))) if cols else 0
        stats["rows_out"] += rows
        stats["bytes_out"] += path.stat().st_size
        if call.input:
            stats["bytes_in"] += (workdir / call.input).stat().st_size
        stats["ops"] += 1
        if call.kind == "table1":
            n_ok = sum(int(v) for v in cols["n_ok"])
            n_failed = sum(int(v) for v in cols["n_failed"])
            stats["items"] += n_ok + n_failed
            stats["ops"] += n_ok + n_failed
            stats["ops_failed"] += n_failed
            stats["n_failed"] += n_failed
            if n_ok + n_failed != 8 * call.params["repetitions"]:
                errors.append(f"{call.output}: {n_ok + n_failed} repetitions reported")
        else:
            stats["items"] += rows
            if call.kind == "estimate":
                stats["ops"] += rows
        if call.kind in CLOSED_FORM_CHECKS:
            errors += CLOSED_FORM_CHECKS[call.kind](cols, call.params)
            continue
        summary = summarize(call.kind, meta, cols)
        if call.output not in reference:
            errors.append(f"{call.output}: no reference record for pool index {index}")
            continue
        errors += compare(reference[call.output], json.loads(json.dumps(summary)),
                          call.excluded, call.output)
    return errors, stats


def check_passes(passes: list, calls) -> list[str]:
    errors = []
    for p in passes:
        for c in p["calls"]:
            if c["rc"] != 0:
                tail = Path(c["stderr"]).read_text(errors="replace")[-400:]
                errors.append(f"exit code {c['rc']}: {' '.join(c['argv'])}: {tail.strip()}")
            elif "main_s" not in c:
                errors.append(f"no timing report: {' '.join(c['argv'])}")
            elif not c["weakps_file"].startswith("src" + os.sep):
                errors.append(f"weakps imported from {c['weakps_file']}, not from src/")
    first = passes[0]["digests"]
    if len(first) != len(calls):
        errors.append("some outputs were not written")
    for p in passes[1:]:
        if p["digests"] != first:
            errors.append(f"records differ between passes ({passes[0]['mode']} vs {p['mode']})"
                          " with one seed")
    return errors


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _time(call: dict, key: str, at_ref: bool) -> float:
    """A call's time, as measured or at the reference host speed."""
    return call.get(key, 0.0) / (call.get("speed", 1.0) if at_ref else 1.0)


def _call_medians(passes: list, key: str, at_ref: bool) -> list[float]:
    """``key`` of each call of the pass, taken at its median over the passes,
    so a few calls on a slow host move neither a pass total nor the typical
    call."""
    return [_median([_time(p["calls"][i], key, at_ref) for p in passes])
            for i in range(len(passes[0]["calls"]))]


def _end_to_end(passes: list, probes: list, stats: dict, at_ref: bool) -> dict:
    calls = [c for p in passes for c in p["calls"]]
    setups = [_time(c, "setup_s", at_ref) for c in probes + calls if "setup_s" in c]
    main_s = sum(_call_medians(passes, "main_s", at_ref))
    ok_ratios = [1.0 - (stats["ops_failed"] + sum(c["rc"] != 0 for c in p["calls"]))
                 / max(stats["ops"], 1) for p in passes]
    values = {
        "wall_s": (sum(_call_medians(passes, "wall_s", at_ref)), len(calls)),
        "setup_s": (_median(setups), len(setups)),
        "items_per_s": (stats["items"] / main_s if main_s > 0 else 0.0, len(calls)),
        "call_p50_s": (_median(_call_medians(passes, "wall_s", at_ref)), len(calls)),
        "cpu_s": (sum(_call_medians(passes, "cpu_s", at_ref)), len(calls)),
        "peak_rss_mib": (_median([max(c["rss_mib"] for c in p["calls"]) for p in passes]),
                         len(passes)),
        "ok_ratio": (_median(ok_ratios), stats["ops"]),
    }
    return {name: {"value": v, "unit": END_TO_END[name], "n": n}
            for name, (v, n) in values.items()}


def end_to_end(passes: list, probes: list, stats: dict) -> tuple[dict, dict]:
    """The end-to-end metrics with every call's times at the reference host
    speed, and the same metrics as measured, with the median ``speed``."""
    raw = _end_to_end(passes, probes, stats, at_ref=False)
    calls = probes + [c for p in passes for c in p["calls"]]
    speeds = [c["speed"] for c in calls if "speed" in c]
    raw["host.speed"] = {"value": _median(speeds), "unit": "ratio", "n": len(speeds)}
    return _end_to_end(passes, probes, stats, at_ref=True), raw


def _layer_pass(p: dict, stats: dict) -> dict:
    """Per-layer numbers of one traced pass, summed over its calls."""
    m = {f"{layer}.{k}": 0.0 if k == "self_s" else 0 for layer in LAYERS for k in _LAYER_UNITS}
    incl: dict[str, float] = {}
    calls_of: dict[str, int] = {}
    points = kbytes = 0
    failed: dict[str, int] = {}
    spans = 0
    residue = 0.0
    for c in p["calls"]:
        trace = c.get("trace") or {"functions": {}, "raised": [], "spans": 0}
        spans += trace["spans"]
        covered = 0.0
        for key, (layer, n, self_s, incl_s, pts) in trace["functions"].items():
            m[f"{layer}.self_s"] += self_s
            m[f"{layer}.calls"] += n
            covered += self_s
            incl[key] = incl.get(key, 0.0) + incl_s
            calls_of[key] = calls_of.get(key, 0) + n
            if layer == "kernels":
                points += pts
                short = key.split(".", 1)[1].removeprefix("np_")
                kbytes += pts * KERNEL_BYTES_PER_POINT.get(short, DEFAULT_KERNEL_BYTES)
        residue += c.get("main_s", 0.0) - covered
        for key, exc_type, n in trace["raised"]:
            if key.startswith("estimation."):
                failed[exc_type] = failed.get(exc_type, 0) + n
    attempts = calls_of.get("estimation.estimate_theta", 0)
    evals = calls_of.get("estimation.ModelParams.sigma", 0)
    n_imp = m["imperfections.calls"]
    m.update({
        "estimation.calibration_s": incl.get("estimation.build_calibration", 0.0),
        "estimation.invert_s": incl.get("estimation.estimate_theta", 0.0),
        "estimation.attempts": attempts,
        "estimation.model_evals": evals,
        "estimation.model_evals_per_attempt": evals / attempts if attempts else 0.0,
        "estimation.ok_ratio": 1.0 - sum(failed.values()) / attempts if attempts else 1.0,
        "imperfections.us_per_call": 1e6 * m["imperfections.self_s"] / n_imp if n_imp else 0.0,
        "counting.draws": 4 * calls_of.get("counting.simulate_counts", 0),
        "counting.seeds_s": incl.get("counting.derive_seeds", 0.0),
        "kernels.points": points,
        "kernels.ns_per_point": 1e9 * m["kernels.self_s"] / points if points else 0.0,
        "kernels.bytes_computed": kbytes,
        "cli.rows_out": stats["rows_out"],
        "cli.bytes_out": stats["bytes_out"],
        "cli.bytes_in": stats["bytes_in"],
        "trace.spans": spans,
        "trace.residue_s": residue,
        "wall_s": sum(c["wall_s"] for c in p["calls"]),
        "main_s": sum(c.get("main_s", 0.0) for c in p["calls"]),
    })
    for exc_type in ("OutOfRange", "AmbiguousBranch", "FlatCurve"):
        m[f"estimation.failed.{exc_type}"] = failed.get(exc_type, 0)
    m["failed_by_type"] = failed
    return m


IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def importtime_split(text: str) -> dict:
    """numpy and scipy.optimize cumulative import time, and the self time of
    weakps's own modules, from ``python -X importtime`` output (seconds)."""
    out = {"setup.numpy_s": 0.0, "setup.scipy_optimize_s": 0.0, "setup.weakps_s": 0.0}
    for self_us, cum_us, name in IMPORT_LINE.findall(text):
        if name == "numpy":
            out["setup.numpy_s"] = int(cum_us) / 1e6
        elif name == "scipy.optimize":
            out["setup.scipy_optimize_s"] = int(cum_us) / 1e6
        elif name == "weakps" or name.startswith("weakps."):
            out["setup.weakps_s"] += int(self_us) / 1e6
    return out


def per_layer(passes: list, stats: dict, workdir: Path) -> tuple[dict, dict, list]:
    traced = [_layer_pass(p, stats) for p in passes if p["mode"] == "trace"]
    plain = [sum(c["wall_s"] for c in p["calls"]) for p in passes if p["mode"] == "plain"]
    errors = []
    for t in traced:
        if abs(t["trace.residue_s"]) > RESIDUE_SHARE * t["main_s"] + 0.005:
            errors.append(f"layer self times miss cli.main by {t['trace.residue_s']:.4f} s")
    splits = []
    for i in range(IMPORTTIME_PROBES):
        probe = spawn("import", (), workdir, f"importtime{i}", ("-X", "importtime"))
        splits.append(importtime_split(Path(probe["stderr"]).read_text()))
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.startswith("setup."):
            values = [s[name] for s in splits]
        elif name == "trace.overhead_s":
            values = [_median([t["wall_s"] for t in traced]) - _median(plain)]
        else:
            values = [t[name] for t in traced]
        metrics[name] = {"value": _median(values), "unit": unit, "n": len(values)}
    failed_by_type: dict[str, list] = {}
    for t in traced:
        for k, n in t["failed_by_type"].items():
            failed_by_type.setdefault(k, []).append(n)
    return metrics, {k: _median(v) for k, v in failed_by_type.items()}, errors


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def profile_top(pass_: dict, workdir: Path, top: int = 10) -> list[dict]:
    import pstats

    files = [str(workdir / f".p0c{i}.report.json.pstats") for i in range(len(pass_["calls"]))]
    stats = pstats.Stats(files[0])
    for f in files[1:]:
        stats.add(f)
    total = sum(v[2] for v in stats.stats.values())
    rows = sorted(stats.stats.items(), key=lambda kv: -kv[1][2])[:top]
    out = []
    for (path, line, func), (_, ncalls, tottime, cumtime, _) in rows:
        try:
            path = str(Path(path).resolve().relative_to(ROOT))
        except ValueError:
            path = Path(path).name
        out.append({"function": f"{path}:{line}({func})", "calls": ncalls,
                    "self_s": tottime, "self_share": tottime / total if total else 0.0,
                    "cumulative_s": cumtime})
    return out


def measure(name: str, seed: int, seconds: float, mode: str, quick: bool) -> dict:
    workload = WORKLOADS[name]
    index = seed % POOL
    calls = workload.calls(index, quick)
    workdir = OUT / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    spawn("import", (), workdir, "warmup")  # byte-compiles src/ once; not timed
    probes = []
    if mode == "untraced":
        for i in range(SETUP_PROBES):
            probes.append(spawn("import", (), workdir, f"probe{i}"))

    pass_modes = {"untraced": ["plain"], "traced": ["plain", "trace"], "profile": ["profile"]}[mode]
    min_passes = 1 if mode == "profile" else MIN_PASSES
    passes = []
    deadline = time.monotonic() + seconds
    last = 0.0
    # Start another pass only while half of the previous one still fits, so a
    # run lasts about --seconds whatever the pass length.
    while len(passes) < min_passes or (
            mode != "profile" and time.monotonic() + last / 2 < deadline):
        started = time.monotonic()
        passes.append(run_pass(calls, workdir, pass_modes[len(passes) % len(pass_modes)],
                               len(passes)))
        last = time.monotonic() - started

    errors = check_passes(passes, calls)
    out_errors, stats = check_outputs(workload, calls, workdir, index, quick)
    errors += out_errors
    result = {"workload": name, "why": workload.why, "pool_index": index,
              "calls": [" ".join(c.argv) for c in calls], "stats": stats,
              "passes": [{"mode": p["mode"], "calls": [
                  {k: v for k, v in c.items() if k not in ("trace", "stderr")}
                  for c in p["calls"]]} for p in passes]}
    if mode == "untraced":
        result["metrics"], result["raw_metrics"] = end_to_end(passes, probes, stats)
    elif mode == "traced":
        result["metrics"], result["estimation_failed_by_type"], layer_errors = per_layer(
            passes, stats, workdir)
        errors += layer_errors
        result["note"] = ("single-threaded, no queues: no layer waits, so no wait "
                          "times are recorded")
    else:
        result["metrics"] = {}
        result["profile_top10_by_self_time"] = [] if errors else profile_top(passes[0], workdir)
    result["errors"] = errors
    result["correct"] = not errors
    result["attempted"] = sum(len(p["calls"]) for p in passes)
    result["failed"] = sum(c["rc"] != 0 for p in passes for c in p["calls"])
    return result


def report_lines(result: dict) -> list[str]:
    lines = [f"[{result['workload']}] {result['why']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:36s} {m['value']:.6g} {m['unit']} (n={m['n']})")
    for name, m in result.get("raw_metrics", {}).items():
        if name == "host.speed":
            lines.append(f"  {name:36s} {m['value']:.6g} (reference task time / "
                         f"{REF_NOMINAL_S} s)")
        elif m["unit"] in ("s", "1/s"):
            lines.append(f"  {name + ' as measured':36s} {m['value']:.6g} {m['unit']}")
    if "ok_ratio" in result["metrics"]:
        s = result["stats"]
        lines.append(f"  {'fail_ratio':36s} {1.0 - result['metrics']['ok_ratio']['value']:.6g}"
                     f" ratio (n={s['ops']}; n_failed={s['n_failed']})")
    for row in result.get("profile_top10_by_self_time", []):
        lines.append(f"  {row['self_share']:6.1%} {row['self_s']:8.3f} s  {row['function']}")
    for err in result["errors"]:
        lines.append(f"  CHECK FAILED: {err}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--profile", action="store_true",
                        help="one pass under cProfile; writes the top 10 by self time")
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weakps" / "cli.py").is_file():
        print(f"error: no weakps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    mode = "profile" if args.profile else ("traced" if args.trace else "untraced")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed, mode)
    print("environment: " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)

    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, mode, args.quick)
        result["environment"] = env
        (OUT / f"{name}.{mode}.json").write_text(json.dumps(result, indent=2) + "\n")
        print("\n".join(report_lines(result)), flush=True)
        results.append(result)

    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": m["value"],
                                                               "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


ENV = child_env()

if __name__ == "__main__":
    raise SystemExit(main())
