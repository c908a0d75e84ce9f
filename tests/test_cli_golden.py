"""Golden-output regression test: every command's CSV and JSON output, byte
for byte, apart from the ``generated_at`` timestamp; and the CLI's help,
usage and error text with its exit codes, at an 80-column terminal.

The fixtures in ``tests/data/golden/`` hold outputs with the timestamp
masked, and ``tests/data/golden/text/`` the text as Python 3.11's argparse
lays it out.  Rewrite them only for an intended change of the records or of
the text, with

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change log why they changed.
"""

import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from weakps import cli
from weakps.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

_TIMESTAMP = re.compile(r'(generated_at(?: = |": "))[^"\n]*')

IMPERFECT = ["--visibility", "0.78", "--t-h", "0.98", "--t-v", "0.34"]

# name -> CLI arguments without --format and --output; every case is written
# in both formats.  "{golden}" stands for the fixture directory.
CASES = {
    "sweep-weak-value": ["sweep-weak-value", "--kappa", "0.335", "--theta-step", "5"],
    # NaN where the postselection starves (22.5 deg minus, 67.5 deg plus)
    "sweep-weak-value-starved": ["sweep-weak-value", "--kappa", "1e-9", "--theta-step", "22.5"],
    "sweep-weak-value-imperfect": ["sweep-weak-value", "--kappa", "0.335",
                                   "--theta-step", "7.5", *IMPERFECT],
    # NaN where the overlap vanishes (22.5 deg minus, 67.5 deg plus)
    "sweep-pusey": ["sweep-pusey", "--kappa", "0.2", "--theta-step", "7.5"],
    "sweep-pusey-simulated": ["sweep-pusey", "--kappa", "0.335", "--theta-step", "7.5",
                              "--simulate", "--p-phi", "counts", "--seed", "3"],
    # NaN where no coincidence was counted
    "sweep-pusey-low-rate": ["sweep-pusey", "--kappa", "0.335", "--theta-step", "7.5",
                             "--simulate", "--rate", "2", "--duration", "1", "--seed", "2"],
    # NaN at the saturated points
    "sweep-fisher": ["sweep-fisher", "--kappa", "1", "--theta-step", "7.5"],
    # zero information at kappa = 0, also where the postselection starves
    # (22.5 deg minus, 67.5 deg plus)
    "sweep-fisher-zero": ["sweep-fisher", "--kappa", "0", "--theta-step", "22.5"],
    "simulate-counts": ["simulate-counts", "--kappa", "0.335", "--theta-start", "20",
                        "--theta-end", "26.5", "--theta-step", "0.5", "--seed", "2"],
    "simulate-counts-imperfect": ["simulate-counts", "--kappa", "0.335", "--theta-start", "20",
                                  "--theta-end", "26", "--theta-step", "1", "--seed", "5",
                                  "--kappa-uncertainty", "0.01", *IMPERFECT],
    "estimate": ["estimate", "--input", "{golden}/simulate-counts.json", "--branch", "18,27"],
    "estimate-imperfect": ["estimate", "--input", "{golden}/simulate-counts-imperfect.json",
                           "--branch", "18,27", *IMPERFECT],
    "table1": ["table1", "--kappa", "0.335", "--repetitions", "5", "--seed", "1"],
    "table1-imperfect": ["table1", "--kappa", "0.335", "--repetitions", "3", "--seed", "2",
                         *IMPERFECT],
    # the minus and plus rows of one draw: a minus row draws only its pair
    "table1-both": ["table1", "--kappa", "0.335", "--postselect", "both", "--repetitions", "40",
                    "--seed", "7"],
    "table1-both-imperfect": ["table1", "--kappa", "0.335", "--postselect", "both",
                              "--repetitions", "25", "--seed", "8", *IMPERFECT],
    # EmptyChannel and OutOfRange repetitions
    "table1-low-rate": ["table1", "--kappa", "0.335", "--repetitions", "8", "--seed", "4",
                        "--rate", "40", "--duration", "1"],
    # AmbiguousBranch at the turning-point rows (27.5 deg minus, 72.5 deg plus)
    "table1-mu5": ["table1", "--mu", "5", "--repetitions", "6", "--seed", "1"],
    "decompose": ["decompose", "--kappa", "0.335", "--phi", "minus"],
}

# estimate reads the simulate-counts fixtures, so those are written first
FILES = [(name, fmt) for name in CASES for fmt in ("json", "csv")]

COMMANDS = ["sweep-weak-value", "sweep-pusey", "sweep-fisher", "simulate-counts",
            "estimate", "table1", "decompose"]

# name -> CLI arguments whose help, usage or error text is pinned
TEXT_CASES = {
    "help": ["--help"],
    **{f"help-{command}": [command, "--help"] for command in COMMANDS},
    "no-arguments": [],
    "unknown-command": ["bogus"],
    "unknown-flag": ["sweep-fisher", "--bogus", "1"],
    "extra-argument": ["table1", "table1"],
    "invalid-value": ["table1", "--kappa", "x"],
    "version": ["--version"],
}


def _masked(text: str) -> str:
    return _TIMESTAMP.sub(r"\1<masked>", text)


def _run(name: str, fmt: str, path: Path) -> str:
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in CASES[name]]
    assert main(argv + ["--format", fmt, "--output", str(path)]) == 0
    return _masked(path.read_text(encoding="utf-8"))


def _text(name: str) -> str:
    """Exit code, stdout and stderr of the CLI run on ``TEXT_CASES[name]``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(TEXT_CASES[name])
        except SystemExit as exc:  # argparse exits after help, version and usage errors
            code = exc.code
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("name, fmt", FILES, ids=[f"{n}.{f}" for n, f in FILES])
def test_output_matches_golden(tmp_path, name, fmt):
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert _run(name, fmt, tmp_path / f"out.{fmt}") == expected


# the cases whose JSON output holds records (decompose writes one object)
RECORD_CASES = [name for name in CASES if name != "decompose"]


@pytest.mark.parametrize("name", RECORD_CASES)
def test_json_golden_records_are_the_values_at_12_digits(tmp_path, monkeypatch, name):
    # each record float of the fixture is its column's value, as the records'
    # json.dumps wrote it at schema_version 1, to 12 significant digits and a
    # float still; every other value is the column's own
    written, write = [], cli._write
    monkeypatch.setattr(cli, "_write", lambda *args: written.append(args[-1]) or write(*args))
    _run(name, "json", tmp_path / "out.json")
    (data,) = written
    records = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))["records"]
    typed = lambda v: (type(v), repr(v))
    for key, column in data.items():
        values = column.tolist() if isinstance(column, np.ndarray) else column
        assert [typed(rec[key]) for rec in records] == [
            typed(float(f"{v:.12g}") if isinstance(v, float) else v) for v in values]


@pytest.mark.parametrize("name", list(TEXT_CASES))
def test_cli_text_matches_golden(name):
    expected = (GOLDEN / "text" / f"{name}.txt").read_text(encoding="utf-8")
    assert _text(name) == expected


if __name__ == "__main__":
    (GOLDEN / "text").mkdir(parents=True, exist_ok=True)
    for name, fmt in FILES:
        target = GOLDEN / f"{name}.{fmt}"
        target.write_text(_run(name, fmt, target), encoding="utf-8")
        print(target, file=sys.stderr)
    for name in TEXT_CASES:
        target = GOLDEN / "text" / f"{name}.txt"
        target.write_text(_text(name), encoding="utf-8")
        print(target, file=sys.stderr)
