#!/usr/bin/env python3
"""Regenerate the reference records the correctness gate compares with.

    python3 perfbench/make_reference.py [--quick] [WORKLOAD ...]

Runs every pool index of each workload once, untimed, and writes what
``gate.summarize`` keeps of each output to ``reference/<workload>.json``
(``.quick.json`` for the smoke-test sizes).  Regenerate only for a change
that is meant to alter records, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil

from run import BENCH, OUT, WORKLOADS, read_output, spawn, summarize
from workloads import POOL


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    for name in args.workloads:
        workload = WORKLOADS[name]
        refs = {}
        for index in range(POOL):
            workdir = OUT / "reference-work" / name
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            entry = {}
            for i, call in enumerate(workload.calls(index, args.quick)):
                result = spawn("plain", call.argv, workdir, f"c{i}")
                if result["rc"] != 0:
                    raise SystemExit(f"{name} {index}: {' '.join(call.argv)} exited {result['rc']}")
                summary = summarize(call.kind, *read_output(str(workdir / call.output)))
                if summary is not None:
                    entry[call.output] = summary
            if entry:
                refs[str(index)] = entry
            print(f"{name} pool index {index}: {len(entry)} outputs", flush=True)
        if refs:
            path = BENCH / "reference" / f"{name}{'.quick' if args.quick else ''}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
