"""One weakps CLI process, as the benchmark runs it.

    python child.py REPORT MODE [CLI ARGS...]

Imports ``weakps.cli``, calls ``weakps.cli.main`` with the CLI arguments and
exits with its return code, so the program sees only those arguments.  The
timings the parent cannot see from outside (when the import finished, how
long ``main`` ran) go to the JSON file REPORT, on the shared monotonic clock.

MODE is ``import`` (stop after the import: a set-up probe), ``plain``,
``trace`` (wrap the layers with :mod:`tracer` after the import, so set-up is
not charged for it) or ``profile`` (run ``main`` under cProfile and dump the
stats next to REPORT).

The host's speed changes from second to second, and from process to process,
by up to twofold.  So the child also times a fixed pure-Python task, once
before the import and once after ``main``, and reports both timings.  The
parent subtracts them from the call's times and reports each call's times at
a fixed host speed as well as measured (see ``run.py``).
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

REFERENCE_LOOPS = 200_000


def _step(i: int) -> float:
    return (i * i) % 1009 * 0.5


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed task that imports nothing."""
    wall, cpu = time.perf_counter(), time.process_time()
    acc = 0.0
    for i in range(REFERENCE_LOOPS):
        acc += _step(i)
    return time.perf_counter() - wall, time.process_time() - cpu


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    before = reference()
    import weakps.cli

    report = {"t_start": T_START, "t_imported": time.monotonic(),
              "weakps_file": sys.modules["weakps"].__file__}
    rc = 0
    if mode != "import":
        tracer = profiler = None
        if mode == "trace":
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
        elif mode == "profile":
            import cProfile

            profiler = cProfile.Profile()
        entry = weakps.cli.main
        report["t_main_start"] = time.monotonic()
        rc = profiler.runcall(entry, argv) if profiler else entry(argv)
        report["t_main_end"] = time.monotonic()
        if tracer is not None:
            report["trace"] = tracer.summary()
        if profiler is not None:
            profiler.dump_stats(report_path + ".pstats")
    after = reference()
    report["ref_wall_s"] = [before[0], after[0]]
    report["ref_cpu_s"] = before[1] + after[1]
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
