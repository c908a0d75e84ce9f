import argparse
import ast
import compileall
import contextlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import test_cli_golden
from oracles import ideal_sigma
import weakps
from weakps import cli, draw_counts, kernels
from weakps.cli import main

D2R = math.pi / 180.0


def _read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_sweep_weak_value_schema_and_values(tmp_path):
    out = tmp_path / "weak.csv"
    rc = main([
        "sweep-weak-value", "--kappa", "0.335", "--theta-start", "0",
        "--theta-end", "90", "--theta-step", "0.5", "--postselect", "both",
        "--format", "csv", "--output", str(out),
    ])
    assert rc == 0
    meta, header, rows = _read_csv(out)
    assert header == [
        "theta_deg", "sigma_w_minus", "sigma_w_plus", "anomalous_minus", "anomalous_plus"
    ]
    assert len(rows) == 180
    assert meta["kappa"] == "0.335"
    assert meta["schema_version"] == "2"
    first = rows[0]
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
    assert first[3] == "0"
    # spot-check a row against the library
    row20 = rows[40]  # theta = 20 deg
    assert float(row20[0]) == 20.0
    assert float(row20[1]) == pytest.approx(ideal_sigma(20 * D2R, 0.335, -1.0), rel=1e-10)
    assert row20[3] == "1"


def test_sweep_weak_value_single_sign_schema(tmp_path):
    out = tmp_path / "weak.csv"
    assert main(["sweep-weak-value", "--kappa", "0.335", "--postselect", "minus",
                 "--output", str(out)]) == 0
    _, header, _ = _read_csv(out)
    assert header == ["theta_deg", "sigma_w_minus", "anomalous_minus"]


def test_sweep_pusey_schema(tmp_path):
    out = tmp_path / "pusey.csv"
    assert main(["sweep-pusey", "--kappa", "0.335", "--postselect", "both",
                 "--output", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert header == ["theta_deg", "i0_minus", "i1_minus", "i0_plus", "i1_plus"]
    assert meta["p_phi_convention"] == "model"
    assert meta["skipped_minus"] == "1"  # exactly the orthogonal point 22.5
    values = [float(r[1]) for r in rows if r[1] != "nan"]
    assert max(values) < 0.0  # no violation at this strength


def test_table1_both_seeds_once_and_probes_each_branch_once(tmp_path, monkeypatch):
    # both postselections are drawn in one batch from the same seeds, each
    # seeded once, and each model's branches are built from one
    # turning-point solve over its tabulated range, with no probe per
    # branch, working point or inversion
    calls = {"trig_turning_points": 0, "_pcg64_states": 0}
    for module, name in ((weakps.kernels, "trig_turning_points"),
                         (weakps.counting, "_pcg64_states")):
        def counted(*args, _function=getattr(module, name), _name=name):
            calls[_name] += 1
            return _function(*args)
        monkeypatch.setattr(module, name, counted)
    for gate in ([], ["--visibility", "0.78", "--t-h", "0.98", "--t-v", "0.34"]):
        calls.update(dict.fromkeys(calls, 0))
        assert main(["table1", "--kappa", "0.335", "--postselect", "both", "--repetitions", "500",
                     "--seed", "3", *gate, "--output", str(tmp_path / "table1.csv")]) == 0
        assert calls == {"trig_turning_points": 2, "_pcg64_states": 1}



def test_table1_frees_the_minus_rows_before_the_plus_model_is_assessed(tmp_path, monkeypatch):
    # a Table1Row's arrays are views of its model's assessed columns: once
    # the minus rows are read, none may keep those columns alive while the
    # plus model's are assessed, the run's peak
    minus_columns, real = [], weakps.estimation._assess_parts

    def assess(model, *args):
        if model.postselect_sign == "plus":
            assert minus_columns and [ref() for ref in minus_columns] == [None] * 5
        parts = real(model, *args)
        if model.postselect_sign == "minus":
            minus_columns.extend(weakref.ref(column.base) for column in parts[-1][0])
        return parts
    monkeypatch.setattr(weakps.estimation, "_assess_parts", assess)
    assert main(["table1", "--kappa", "0.335", "--postselect", "both", "--repetitions", "50",
                 "--seed", "3", "--output", str(tmp_path / "table1.csv")]) == 0

def test_sweep_pusey_simulated_counts(tmp_path):
    out = tmp_path / "pusey.json"
    assert main(["sweep-pusey", "--kappa", "0.335", "--postselect", "minus",
                 "--theta-step", "5", "--simulate", "--seed", "7",
                 "--p-phi", "counts", "--format", "json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["p_phi_convention"] == "counts"
    assert payload["metadata"]["simulated_counts"] is True
    assert len(payload["records"]) == 18


def test_simulated_pusey_draws_each_point_once(tmp_path, monkeypatch):
    # both postselections are read off one draw per grid point, so the minus
    # columns equal those of a minus-only sweep
    draws = []

    def counted(probs, seeds, config):
        draws.extend(seeds)
        return draw_counts(probs, seeds, config)

    monkeypatch.setattr(cli, "draw_counts", counted)
    args = ["sweep-pusey", "--kappa", "0.335", "--theta-step", "5", "--simulate", "--seed", "7",
            "--p-phi", "counts"]
    assert main(args + ["--postselect", "both", "--output", str(tmp_path / "both.csv")]) == 0
    assert len(draws) == len(set(draws)) == 18
    assert main(args + ["--postselect", "minus", "--output", str(tmp_path / "minus.csv")]) == 0
    _, header, both = _read_csv(tmp_path / "both.csv")
    _, _, minus = _read_csv(tmp_path / "minus.csv")
    assert [row[:3] for row in both] == minus
    assert header == ["theta_deg", "i0_minus", "i1_minus", "i0_plus", "i1_plus"]


_WRITE_CASES = {
    "numbers": {
        "x": np.array([0.0, -0.0, 1 / 3, 1e-300, 1e300, np.nan, np.inf, -np.inf]),
        "n": np.arange(8, dtype=np.int64) - 3,
        "seed": [0, 1, 2**64 - 1, 7, 8, 9, 10, 11],
        "flag": [1.5, 2, -3, 4.25, 0, 1, 2, 3],
    },
    "strings": {
        "label": ["plain", 'a, "quoted", b', "caf\u00e9 \u2192", "{brace}", "tab\tnew\nline"],
        'key {with} "quotes", commas': np.array([1.0, 2.0, np.nan, 4.0, 5.0]),
        # the row template is filled by %: a key or a cell may hold its markers
        '100% {0} "%s" %%': ['%s {1} "%d"', "%", "%%", "{}", '"'],
    },
    "empty-columns": {"x": np.array([]), "label": []},
    "no-columns": {},
}


def _block_columns(rows):
    """Columns of ``rows`` rows: floats cycling NaN, +-inf, -0.0 and a
    subnormal, int64s, strings holding commas and quotes, and mixed numbers."""
    edge = np.resize([1 / 3, np.nan, np.inf, -np.inf, -0.0, 1e300, 2.5e-310], rows)
    return {"x": edge * np.arange(1, rows + 1), "n": np.arange(rows, dtype=np.int64) * 7 - 3,
            "label": [f'row {k}, "{k % 3}"' for k in range(rows)],
            "mixed": [k / 4 if k % 2 else k for k in range(rows)]}


# row counts on both sides of the writer's block boundaries
_WRITE_CASES.update({name: _block_columns(rows) for name, rows in (
    ("one-row", 1), ("block-1", cli._BLOCK_ROWS - 1), ("block", cli._BLOCK_ROWS),
    ("block+1", cli._BLOCK_ROWS + 1), ("two-blocks+1", 2 * cli._BLOCK_ROWS + 1))})


def _rows(data):
    """The records of columns ``data``, one dict of plain values per row."""
    return [dict(zip(data, values)) for values in zip(*(
        col.tolist() if isinstance(col, np.ndarray) else col for col in data.values()))]


def _csv_value_by_value(meta, columns, data):
    """CSV text of ``_write``, built one value at a time as ``_fmt`` formats:
    floats with 12 significant digits, everything else with str."""
    fmt = lambda v: f"{v:.12g}" if isinstance(v, float) else str(v)
    lines = [f"# {k} = {fmt(v)}" for k, v in meta.items()] + [",".join(columns)]
    lines += [",".join(fmt(row[c]) for c in columns) for row in _rows(data)]
    return "\n".join(lines) + "\n"


_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cell(value):
    """One record cell as JSON text: a float to 12 significant digits, as CSV
    writes it, with JSON's spelling of NaN and the infinities and a point in a
    whole value; any other value as json.dumps writes it."""
    if not isinstance(value, float):
        return json.dumps(value)
    text = f"{value:.12g}"
    if not math.isfinite(value):
        return _JSON_SPELLING[text]
    return text if "." in text or "e" in text else text + ".0"


def _json_value_by_value(meta, data):
    """JSON text of ``_write``: json.dumps(..., indent=2) of the metadata and
    the records, each record cell replaced by its ``_json_cell`` text."""
    cells = []

    def mark(value):
        cells.append(_json_cell(value))
        return f"\0{len(cells) - 1}\0"

    records = [{key: mark(value) for key, value in row.items()} for row in _rows(data)]
    text = json.dumps({"metadata": meta, "records": records}, indent=2) + "\n"
    return re.sub(r'"\\u0000(\d+)\\u0000"', lambda m: cells[int(m[1])], text)


@pytest.mark.parametrize("case", list(_WRITE_CASES))
def test_write_matches_row_by_row_formatting(tmp_path, monkeypatch, case):
    # JSON as _json_value_by_value, CSV as _csv_value_by_value
    monkeypatch.setattr(cli, "_stamp", lambda metadata: metadata)
    data = _WRITE_CASES[case]
    meta = {"command": "test", "kappa": 0.335, "note": "a, b"}
    columns = list(data)[::-1]

    cli._write(str(tmp_path / "out.json"), "json", meta, columns, data)
    expected = _json_value_by_value(meta, data)
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == expected

    cli._write(str(tmp_path / "out.csv"), "csv", meta, columns, data)
    expected = _csv_value_by_value(meta, columns, data)
    assert (tmp_path / "out.csv").read_text(encoding="utf-8") == expected


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.5e-310, 1e-300, 1e300, -1e300]
_TEXT = st.text(st.sampled_from("ab1.%s,{}\"' "), max_size=6)
_CELLS = {  # one column kind -> (cell strategy, array dtype or None for a list)
    "float": (st.floats() | st.sampled_from(_EDGE_FLOATS), np.float64),
    "int": (st.integers(-2**63, 2**63 - 1), np.int64),
    "bool": (st.booleans(), np.bool_),
    "list": (st.floats() | st.integers() | _TEXT | st.sampled_from(["%", "%s", "a,b", "%%,"]),
             None),
}


@st.composite
def _write_columns(draw):
    rows = draw(st.integers(0, 5))
    data = {}
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(list(_CELLS)))
        cells, dtype = _CELLS[kind]
        values = draw(st.lists(cells, min_size=rows, max_size=rows))
        data[f"{kind}{i}"] = values if dtype is None else np.array(values, dtype=dtype)
    return data


@settings(derandomize=True, database=None, deadline=None)
@given(data=_write_columns())
def test_write_csv_rows_match_value_by_value_formatting(data):
    # each row's one template formats its cells as they are formatted one by one
    meta = {"command": "test"}
    stdout = io.StringIO()
    with mock.patch.object(cli, "_stamp", lambda metadata: metadata), \
            contextlib.redirect_stdout(stdout):
        cli._write("-", "csv", meta, list(data), data)
    written = [stdout.getvalue()]
    assert written == [_csv_value_by_value(meta, list(data), data)]


@settings(derandomize=True, database=None, deadline=None)
@given(data=_write_columns())
@example(data={"float0": np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300,
                                   20.0, -7.0, 123456789012.3, 0.9999999999999, 1e15]),
               "list1": [math.nan, -math.inf, -0.0, 5e-324, 1e300, 20.0, 1 / 3, 2, "2.0",
                         True, 0.15000000000000002, 1e-5]})
def test_write_json_rows_match_value_by_value_formatting(data):
    # each record float is written as CSV writes it, and reads back as the
    # float of that text; the metadata keeps every digit
    meta = {"command": "test", "kappa": 0.1 + 0.2}
    stdout = io.StringIO()
    with mock.patch.object(cli, "_stamp", lambda metadata: metadata), \
            contextlib.redirect_stdout(stdout):
        cli._write("-", "json", meta, list(data), data)
    assert stdout.getvalue() == _json_value_by_value(meta, data)
    payload = json.loads(stdout.getvalue())
    assert payload["metadata"] == meta
    typed = lambda v: (type(v), repr(v))
    assert [{key: typed(value) for key, value in row.items()} for row in payload["records"]] == [
        {key: typed(float(f"{value:.12g}") if isinstance(value, float) else value)
         for key, value in row.items()} for row in _rows(data)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_holds_less_than_half_its_output_in_memory(tmp_path, fmt):
    # rows are formatted and written a block at a time: the text of the whole
    # table is never held
    data = {name: np.random.default_rng(seed).standard_normal(50_000)
            for seed, name in enumerate(["a", "b", "c"])}
    out = tmp_path / f"out.{fmt}"
    tracemalloc.start()
    try:
        cli._write(str(out), fmt, {"command": "test"}, list(data), data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 2


def _subcommands(parser):
    """The names of the subparsers ``parser`` holds, in order."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_parser_builds_only_the_subparsers_a_call_needs(monkeypatch):
    # a well-formed call builds no ArgumentParser: it is read from the flags
    # its table declares; any other call builds the full parser, every
    # subparser, once
    everything = ["weakps", *(f"weakps {name}" for name in cli._SUBCOMMANDS)]
    assert _subcommands(cli.build_parser()) == list(cli._SUBCOMMANDS)
    parsers = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: parsers.append(kwargs.get("prog"))
                        or init(self, *args, **kwargs))
    for name, (help_text, flags, _) in list(cli._SUBCOMMANDS.items()):
        monkeypatch.setitem(cli._SUBCOMMANDS, name, (help_text, flags, lambda args: None))
    for name in cli._SUBCOMMANDS:
        required = ["--input", "in.json", "--branch", "1,2"] if name == "estimate" else []
        # --kap also abbreviates --kappa-uncertainty where there is one: an error
        ambiguous = "--kappa-uncertainty" in _declared(name)
        for strength, built, code in ((["--kappa", "0.3"], [], 0),
                                      (["--kappa=0.3"], everything, 0),
                                      (["--kap", "0.3"], everything, 2 * ambiguous)):
            parsers.clear()
            assert _outcome(main, [name, *strength, *required])[0] == code
            assert parsers == built
        parsers.clear()
        assert _outcome(main, [name, "--help"])[0] == 0
        assert parsers == everything
        parsers.clear()
        assert _outcome(main, [name, *required, "--bogus", "1"])[0] == 2
        assert parsers == everything
    parsers.clear()
    assert _outcome(main, ["--help"])[0] == 0
    assert parsers == everything


def _declared(name):
    """The flags the table of subcommand ``name`` declares: name -> the
    keywords argparse's add_argument takes."""
    return cli._SUBCOMMANDS[name][1]


def _parsed(name, tokens):
    """``vars()`` of what the full parser makes of subcommand ``name`` called
    with ``tokens``, and the tokens it leaves over; None where it exits
    (help, usage and errors)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extra = cli.build_parser().parse_known_args([name, *tokens])
        except SystemExit:
            return None
    return vars(args), extra


def test_no_table_declares_what_the_direct_read_misreads():
    # _read_call follows only long names, these keywords, store_true switches
    # and untyped str defaults; it reads every table with its required flags
    keywords = {"type", "default", "choices", "required", "help", "action"}
    for name in cli._SUBCOMMANDS:
        required = ["--input", "in.json", "--branch", "1,2"] if name == "estimate" else []
        assert cli._read_call(name, required) is not None, name
        for flag, spec in _declared(name).items():
            assert isinstance(flag, str) and flag.startswith("--"), (name, flag)
            assert spec.keys() <= keywords, (name, flag)
            assert spec.get("action", "store_true") == "store_true", (name, flag)
            assert not (isinstance(spec.get("default"), str) and "type" in spec), (name, flag)
            assert spec.get("type") in (None, float, int), (name, flag)
            # so that argparse reads every prefix of --config from --c on as --config
            assert flag == "--config" or not flag.startswith("--c"), (name, flag)


# Values a flag of each type converts, none starting with '-' but '-' itself;
# and values that do not convert, start with '-' or lie outside choices
_GOOD_VALUES = {float: ["0.3", "1e-3", "90", " 2 ", "1_0", "inf"], int: ["7", "0", "1_000"],
                None: ["out.csv", "-", "1,2", ""]}
_BAD_VALUES = ["abc", "1.5", "0x10", "-1", "-1e1", "-10", "-", "--", "-x", "bogus", "--kappa"]


@st.composite
def _calls(draw, name, well_formed):
    flags = _declared(name)
    tokens = []
    for _ in range(draw(st.integers(0, 8))):
        flag = draw(st.sampled_from(sorted(flags)))
        spec = flags[flag]
        good = [str(c) for c in spec.get("choices", _GOOD_VALUES[spec.get("type")])]
        value = draw(st.sampled_from(good if well_formed else good + _BAD_VALUES))
        form = "exact" if well_formed else draw(st.sampled_from(
            ["exact", "exact", "exact", "equals", "abbreviated", "bare", "-h", "stray", "--"]))
        if form == "abbreviated":
            flag, form = flag[:draw(st.integers(3, len(flag) - 1))], "exact"
        tokens += {"exact": [flag] if "action" in spec else [flag, value],
                   "equals": [f"{flag}={value}"], "bare": [flag], "-h": ["-h"],
                   "stray": [value], "--": ["--", value]}[form]
    if name == "estimate" and (well_formed or draw(st.booleans())):
        tokens = ["--input", "in.json", "--branch", "1,2", *tokens]
    return tokens


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_direct_read_gives_argparse_namespace_or_leaves_the_call(name, data):
    # every spelling: the read gives what argparse gives, with nothing left
    # over, or nothing; a well-formed call it always reads
    tokens = data.draw(_calls(name, well_formed=False))
    read = cli._read_call(name, tokens)
    assert read is None or _parsed(name, tokens) == (vars(read), [])
    tokens = data.draw(_calls(name, well_formed=True))
    read = cli._read_call(name, tokens)
    assert read is not None and _parsed(name, tokens) == (vars(read), [])


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
def test_direct_read_of_no_flags_is_argparse(name):
    # the defaults alone; estimate's --input and --branch are required
    read = cli._read_call(name, [])
    assert (None if read is None else (vars(read), [])) == _parsed(name, [])
    assert (read is None) == (name == "estimate")


def _readme_calls():
    """The ``weakps`` examples of the README's shell blocks, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```bash\n")[1:]
    lines = "\n".join(block.split("```")[0] for block in blocks).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in lines.splitlines() if line.startswith("weakps ")]


_COMMON_CALLS = [*([*argv, "--format", fmt, "--output", "out"] for argv in
                   test_cli_golden.CASES.values() for fmt in ("csv", "json")), *_readme_calls()]


@pytest.mark.parametrize("argv", _COMMON_CALLS, ids=" ".join)
def test_the_direct_read_takes_the_golden_and_readme_calls(argv):
    # the calls the tests and the README make are read without argparse
    read = cli._read_call(argv[0], argv[1:])
    assert read is not None and _parsed(argv[0], argv[1:]) == (vars(read), [])


def _outcome(call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``, which may exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, code, tail", [
    (["table1", "--bogus", "1"], 2, "weakps: error: unrecognized arguments: --bogus 1"),
    (["table1", "--kappa", "0.3", "extra"], 2, "weakps: error: unrecognized arguments: extra"),
    (["table1", "--ver"], 2, "weakps: error: unrecognized arguments: --ver"),
    (["--ver"], 0, ""),
    (["table1", "--help"], 0, ""),
    (["estimate", "-h"], 0, ""),
    (["--help"], 0, ""),
    (["bogus"], 2, "weakps: error: argument command: invalid choice: 'bogus' (choose from "),
    ([], 2, "weakps: error: the following arguments are required: command"),
    (["table1", "--kappa", "abc"], 2, "weakps table1: error: argument --kappa: invalid float "),
    (["estimate"], 2, "weakps estimate: error: the following arguments are required: "),
    (["decompose", "--config", "{config}"], 2, "weakps: error: unrecognized arguments: --bogus 1"),
    (["--config", "{config}", "sweep-fisher"], 2,
     "weakps: error: unrecognized arguments: --bogus 1"),
])
def test_usage_help_and_errors_are_the_full_parsers(tmp_path, argv, code, tail):
    # every call the direct read leaves is the full parser's: its help,
    # usage and error text, and its exit code
    config = tmp_path / "weakps.cfg"
    config.write_text("kappa = 0.3\nbogus = 1\n")
    argv = [str(config) if a == "{config}" else a for a in argv]
    outcome = _outcome(main, argv)
    full = _outcome(lambda a: cli.build_parser().parse_args(a), cli._apply_config(argv))
    assert outcome == full
    assert outcome[0] == code
    assert tail in outcome[2].splitlines()[-1] if tail else outcome[2] == ""
    assert (outcome[1] != "") == (code == 0)  # help and the version go to stdout


def test_main_dispatches_every_registered_subcommand(monkeypatch):
    ran = []
    for name, (help_text, flags, handler) in list(cli._SUBCOMMANDS.items()):
        # each name is paired with its own handler, and its table with the output flags
        assert flags.items() >= cli._OUTPUT.items()
        assert handler.__name__ == f"_cmd_{name.replace('-', '_')}"
        monkeypatch.setitem(cli._SUBCOMMANDS, name,
                            (help_text, flags, lambda args: ran.append(args.command)))
    for name in cli._SUBCOMMANDS:
        required = ["--input", "in.json", "--branch", "1,2"] if name == "estimate" else []
        assert main([name, *required]) == 0
    assert ran == list(cli._SUBCOMMANDS)


def test_sweep_fisher_schema_and_budget(tmp_path):
    out = tmp_path / "fisher.csv"
    assert main(["sweep-fisher", "--kappa", "0.335", "--postselect", "both",
                 "--theta-step", "1", "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == [
        "theta_deg", "f_ps_minus", "f_ps_plus", "q", "budget_lhs_minus", "budget_lhs_plus"
    ]
    for row in rows:
        assert float(row[3]) == 16.0
        assert float(row[4]) <= 16.0 + 1e-9
        assert float(row[5]) <= 16.0 + 1e-9
    assert any(float(row[1]) > 16.0 for row in rows)


def test_sweep_fisher_skips_saturated_points(tmp_path):
    # the grid starts on the peak of the minus curve, where a conditional
    # probability vanishes: that point is written as nan and counted
    peak_deg = math.degrees(math.asin(math.sqrt(1 - 0.335**2)) / 4)
    out = tmp_path / "fisher.csv"
    assert main(["sweep-fisher", "--kappa", "0.335", "--theta-start", repr(peak_deg),
                 "--theta-end", repr(peak_deg + 3), "--theta-step", "1",
                 "--output", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert (meta["skipped_minus"], meta["skipped_plus"]) == ("1", "0")
    assert rows[0][header.index("f_ps_minus")] == "nan"
    assert rows[0][header.index("budget_lhs_minus")] == "nan"
    assert all("nan" not in row for row in rows[1:])


@pytest.mark.parametrize("command", [["sweep-weak-value"], ["sweep-pusey", "--simulate"],
                                     ["sweep-fisher"], ["simulate-counts"]],
                         ids=["sweep-weak-value", "sweep-pusey-simulated", "sweep-fisher",
                              "simulate-counts"])
def test_a_grid_within_rounding_of_its_start_holds_the_start(tmp_path, command):
    # a span of at most 1e-12 steps holds the start, as a span under one step does
    records = []
    for end in ("21", "20.000000000001"):
        out = tmp_path / f"{end}.json"
        assert main([*command, "--kappa", "0.335", "--theta-start", "20", "--theta-end", end,
                     "--theta-step", "10", "--format", "json", "--output", str(out)]) == 0
        records.append(json.loads(out.read_text())["records"])
    assert records[0] == records[1] and [r["theta_deg"] for r in records[0]] == [20.0]
    if command == ["simulate-counts"]:  # and estimate reads the narrow grid's file
        assert main(["estimate", "--input", str(out), "--branch", "18,27",
                     "--output", str(tmp_path / "estimates.csv")]) == 0


def test_simulate_counts_then_estimate_round_trip(tmp_path):
    counts_path = tmp_path / "counts.json"
    assert main(["simulate-counts", "--kappa", "0.335", "--theta-start", "20",
                 "--theta-end", "20.5", "--theta-step", "1", "--seed", "99",
                 "--rate", "20000", "--format", "json", "--output", str(counts_path)]) == 0
    payload = json.loads(counts_path.read_text())
    assert len(payload["records"]) == 1
    rec = payload["records"][0]
    assert set(rec) == {"theta_deg", "n_mp", "n_mm", "n_pp", "n_pm", "seed"}

    est_path = tmp_path / "est.csv"
    assert main(["estimate", "--input", str(counts_path), "--postselect", "minus",
                 "--branch", "17.8,27.3", "--output", str(est_path)]) == 0
    _, header, rows = _read_csv(est_path)
    assert header == ["theta_deg", "sigma_hat", "sigma_variance", "theta_hat_deg",
                      "variance_theta_deg2", "f_ps", "m_ps", "sigma_cr_deg2"]
    assert len(rows) == 1
    theta_hat = float(rows[0][3])
    assert theta_hat == pytest.approx(20.0, abs=1.0)


def test_estimate_reads_counts_at_12_digits_as_at_full_precision(tmp_path, monkeypatch):
    # a grid of angles that 12 digits round (20 + 0.01 * 224 is written 22.24)
    # and of whole angles (20.0, 21.0, 22.0)
    counts, full = tmp_path / "counts.json", tmp_path / "full.json"
    assert main(["simulate-counts", "--kappa", "0.335", "--theta-start", "20", "--theta-end",
                 "22.3", "--theta-step", "0.01", "--seed", "4", "--format", "json",
                 "--output", str(counts)]) == 0
    text = counts.read_text()
    assert '"theta_deg": 22.24,' in text and '"theta_deg": 21.0,' in text
    payload = json.loads(text)
    grid = (20.0 + 0.01 * np.arange(230)).tolist()
    assert 22.240000000000002 in grid and 21.0 in grid
    rounded = [rec["theta_deg"] for rec in payload["records"]]
    assert rounded == [float(f"{t:.12g}") for t in grid] != grid
    full.write_text(json.dumps({**payload, "records": [
        {**rec, "theta_deg": t} for rec, t in zip(payload["records"], grid)]}))

    written, write = [], cli._write
    monkeypatch.setattr(cli, "_write", lambda *args: written.append(args[-1]) or write(*args))
    for path in (counts, full):
        assert main(["estimate", "--input", str(path), "--branch", "18,27", "--format", "json",
                     "--output", str(tmp_path / "estimates.json")]) == 0
    from_rounded, from_full = written
    # every column but the echoed angle, bit for bit
    assert from_rounded.pop("theta_deg") == rounded and from_full.pop("theta_deg") == grid
    assert list(from_rounded) == list(from_full)
    for key, column in from_rounded.items():
        assert column.dtype == from_full[key].dtype
        assert column.tobytes() == from_full[key].tobytes()


def test_estimate_surfaces_branch_errors(tmp_path, capsys):
    counts_path = tmp_path / "counts.json"
    assert main(["simulate-counts", "--kappa", "0.335", "--theta-start", "20",
                 "--theta-end", "20.5", "--theta-step", "1", "--seed", "99",
                 "--format", "json", "--output", str(counts_path)]) == 0
    rc = main(["estimate", "--input", str(counts_path), "--postselect", "minus",
               "--branch", "0,45", "--output", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "AmbiguousBranch" in err and "np.float64" not in err
    # the 20 deg record's value lies above the range of the rising branch
    rc = main(["estimate", "--input", str(counts_path), "--postselect", "minus",
               "--branch", "0,10", "--output", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "OutOfRange" in err and "[0 deg, 10 deg]" in err and "np.float64" not in err


def _counts_file(*records, **metadata):
    """An estimate input file holding ``records`` under ``metadata``
    (kappa 0.335 unless given)."""
    return "--input", {"metadata": {"kappa": 0.335, **metadata}, "records": list(records)}


_RECORD = {"n_mp": 900, "n_mm": 100, "n_pp": 500, "n_pm": 400}


@pytest.mark.parametrize("argv, payload", [
    (["table1", "--kappa", "0.335", "--repetitions", "0"], None),
    (["table1", "--kappa", "0.335", "--repetitions", "1000001"], None),
    (["simulate-counts", "--kappa", "0.335", "--rate", "-5"], None),
    (["simulate-counts", "--kappa", "0.335", "--seed", "-1"], None),
    (["sweep-weak-value", "--kappa", "0.335", "--visibility", "1.5"], None),
    (["estimate", "--branch", "18,27"], _counts_file({"n_mp": 900, "n_mm": 100, "n_pp": 500})),
    (["estimate", "--branch", "18,27"], _counts_file({**_RECORD, "n_mm": -1})),
    (["sweep-pusey", "--kappa", "1", "--simulate", "--p-phi", "counts"], None),
    (["sweep-pusey", "--kappa", "0.335", "--p-phi", "counts"], None),
    (["sweep-weak-value", "--kappa", "0.3", "--theta-start", "nan"], None),
    (["sweep-weak-value", "--kappa", "0.3", "--theta-end", "inf"], None),
    (["sweep-fisher", "--kappa", "0.3", "--theta-step", "nan"], None),
    (["sweep-weak-value", "--kappa", "0.3", "--theta-step", "1e-300", "--theta-end", "1e-290"],
     None),
    *[([*command, "--rate", rate, "--duration", duration], None)
      for command in (["simulate-counts", "--kappa", "0.335"],
                      ["table1", "--kappa", "0.335", "--repetitions", "2"],
                      ["sweep-pusey", "--kappa", "0.335", "--simulate"])
      for rate, duration in (("1e18", "100"), ("1e300", "1e10"))],
    *[(["estimate", "--branch", "18,27"], _counts_file(_RECORD, kappa=kappa))
      for kappa in (2.0, "x", -0.5)],
    (["estimate", "--branch", "18,27"], ("--input", [_RECORD])),
    (["estimate", "--branch", "18,27"], _counts_file({**_RECORD, "n_pm": True})),
    *[(["estimate", "--branch", branch], _counts_file(_RECORD))
      for branch in ("27,18", "nan,27", "18,inf")],
    *[(["estimate", "--branch", "18,27"], _counts_file(_RECORD, **{key: True}))
      for key in ("kappa_uncertainty", "rate", "duration")],
    (["estimate", "--branch", "18,27"], _counts_file({**_RECORD, "theta_deg": "x"})),
    *[(["decompose", "--kappa", "0.335", "--phi-angle", angle], None) for angle in ("nan", "inf")],
    *[(["table1", "--kappa", "0.335", "--repetitions", "2"], ("--baseline", text))
      for text in ("minus,22.5,0.036\n", "minus,22.5,x,0.33\n")],
], ids=["repetitions-0", "repetitions-above-cap", "negative-rate", "negative-seed", "visibility-above-1",
        "record-without-n_pm", "record-with-negative-count", "projective-p-phi-counts",
        "p-phi-counts-without-simulate",
        "nan-theta-start", "infinite-theta-end", "nan-theta-step", "grid-above-cap",
        *[f"{command}-poisson-mean-{size}" for command in ("simulate-counts", "table1",
                                                          "sweep-pusey-simulated")
          for size in ("above-limit", "infinite")],
        "metadata-kappa-above-1", "metadata-kappa-not-a-number", "metadata-kappa-negative",
        "top-level-json-array", "count-true", "branch-reversed", "branch-nan", "branch-inf",
        "metadata-kappa_uncertainty-true", "metadata-rate-true", "metadata-duration-true",
        "theta_deg-not-a-number",
        "phi-angle-nan", "phi-angle-inf", "baseline-3-fields", "baseline-not-a-number"])
def test_input_errors_exit_2_with_one_line(tmp_path, capsys, argv, payload):
    if payload is not None:  # (flag, content): the file the flag names
        flag, content = payload
        path = tmp_path / "payload"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        argv = argv + [flag, str(path)]
    assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("records, rc, message", [
    # an empty minus pair before an invalid record: the empty pair stops the run
    ([{"n_mp": 0, "n_mm": 0, "n_pp": 5, "n_pm": 5}, {"n_mp": -1}], 1,
     "error: EmptyChannel: no counts in the minus postselection channels"),
    ([{"n_mp": 900, "n_mm": 100, "n_pp": 5, "n_pm": 5, "seed": -3},
      {"n_mp": 0, "n_mm": 0, "n_pp": 5, "n_pm": 5}], 2,
     "error: input record 0: missing or invalid count: seed must be a nonnegative integer"),
    ([{"n_mp": 900, "n_mm": 100, "n_pp": 5, "n_pm": 5}, {"n_mp": "x"}], 2,
     "error: input record 1: missing or invalid count: n_mp must be a number, got 'x'\n"),
    ([{"n_mp": 900, "n_mm": 100, "n_pp": 5, "n_pm": math.inf}], 2,
     "error: input record 0: missing or invalid count: n_pm must be a nonnegative integer, "
     "got inf\n"),
    # a record that is not an object, and a count past int64, each stop the run too
    ([5], 2, "error: input record 0: must be an object, got int\n"),
    ([{"n_mp": 2**64, "n_mm": 100, "n_pp": 5, "n_pm": 5}], 2,
     "error: input record 0: missing or invalid count: n_mp must be at most "
     "9223372036854775807, got 18446744073709551616\n"),
    ([{"n_mp": 900, "n_mm": 100, "n_pp": 5, "n_pm": 2**63}], 2,
     "error: input record 0: missing or invalid count: n_pm must be at most "
     "9223372036854775807, got 9223372036854775808\n"),
    ([{"n_mp": 900.7, "n_mm": 100, "n_pp": 5, "n_pm": 5}], 2,
     "error: input record 0: missing or invalid count: n_mp must be a nonnegative integer, "
     "got 900.7"),
    # each count fits in int64, the postselected pair's sum does not
    ([{"n_mp": 900, "n_mm": 100, "n_pp": 5, "n_pm": 5},
      {"n_mp": 5 * 10**18, "n_mm": 5 * 10**18, "n_pp": 5, "n_pm": 5}], 2,
     "error: input record 1: postselected counts sum to 10000000000000000000, above the int64"),
], ids=["empty-pair-first", "negative-seed-first", "bad-count-second", "infinite-count",
        "record-not-an-object", "count-above-int64", "count-one-above-int64",
        "fractional-count", "postselected-sum-above-int64"])
def test_estimate_stops_at_the_first_failing_record(tmp_path, capsys, records, rc, message):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"metadata": {"kappa": 0.335}, "records": records}))
    assert main(["estimate", "--input", str(counts), "--branch", "18,27",
                 "--output", str(tmp_path / "out.csv")]) == rc
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_estimate_reads_a_postselected_pair_summing_to_int64_max(tmp_path):
    # the largest sum the bound lets through (postselected-sum-above-int64 is one more)
    record = {"theta_deg": 22.5, "n_mp": 2**62, "n_mm": 2**62 - 1, "n_pp": 5, "n_pm": 5}
    counts, out = tmp_path / "counts.json", tmp_path / "out.csv"
    counts.write_text(json.dumps({"metadata": {"kappa": 0.335}, "records": [record]}))
    assert main(["estimate", "--input", str(counts), "--branch", "18,27",
                 "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert rows[0][header.index("m_ps")] == str(2**63 - 1)


@pytest.mark.parametrize("command", [
    ["simulate-counts", "--kappa", "0.335"],
    ["table1", "--kappa", "0.335", "--repetitions", "2"],
    ["sweep-pusey", "--kappa", "0.335", "--simulate"],
], ids=["simulate-counts", "table1", "sweep-pusey-simulated"])
def test_a_negative_seed_is_refused_before_any_is_derived(tmp_path, capsys, command):
    assert main([*command, "--seed", "-1", "--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize("payload, message", [
    ({"metadata": {"kappa": 0.335}, "records": 5},
     "error: counts JSON: records must be a list, got int\n"),
    ({"metadata": {"kappa": 0.335, "rate": "2000"}, "records": [_RECORD]},
     "error: input metadata: rate must be a number, got '2000'\n"),
    *[({"metadata": {"kappa": 0.335, key: 10**400}, "records": [_RECORD]},
       f"error: input metadata: {key} must be a finite number, got an integer too large for a "
       f"float\n") for key in ("rate", "kappa_uncertainty")],
    ({"metadata": {"kappa": 0.335}, "records": [{**_RECORD, "theta_deg": 10**400}]},
     "error: input record 0: theta_deg must be a finite number, got an integer too large for "
     "a float\n"),
], ids=["records-not-a-list", "metadata-rate-a-string", "metadata-rate-too-large",
        "metadata-kappa_uncertainty-too-large", "record-theta_deg-too-large"])
def test_estimate_refuses_a_malformed_input_file(tmp_path, capsys, payload, message):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(payload))
    assert main(["estimate", "--input", str(counts), "--branch", "18,27",
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == message


_GATE = {"visibility": 0.78, "t_h": 0.98, "t_v": 0.34,
         "visibility_model": "coherent-dephased-mixture-v1"}


@pytest.mark.parametrize("metadata, message", [
    ({**_GATE, "visibility_model": "other"},
     "visibility_model must be 'coherent-dephased-mixture-v1', got 'other'"),
    ({key: value for key, value in _GATE.items() if key != "visibility_model"},
     "visibility_model must be 'coherent-dephased-mixture-v1', got None"),
    ({**_GATE, "visibility": "0.78"}, "visibility must be a number, got '0.78'"),
    ({**_GATE, "t_v": True}, "t_v must be a number, got True"),
    ({**_GATE, "t_h": 1.5}, "t_h must lie in [0, 1], got 1.5"),
    ({**_GATE, "visibility": 10**400},
     "visibility must be a finite number, got an integer too large for a float"),
], ids=["other-model", "no-model", "visibility-a-string", "t_v-true", "t_h-above-1",
        "visibility-too-large"])
def test_estimate_refuses_an_invalid_recorded_gate(tmp_path, capsys, metadata, message):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"metadata": {"kappa": 0.335, **metadata},
                                  "records": [_RECORD]}))
    assert main(["estimate", "--input", str(counts), "--branch", "18,27",
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: input metadata: {message}\n"


@pytest.mark.parametrize("metadata, message", [
    ({}, "no --kappa/--mu given and none recorded in the input file"),
    ({"kappa": None}, "no --kappa/--mu given and none recorded in the input file"),
    ({"kappa": "0.335"}, "input metadata: kappa must be a number, got '0.335'"),
    ({"kappa": True}, "input metadata: kappa must be a number, got True"),
    ({"kappa": 1.5}, "input metadata: kappa must lie in [0, 1], got 1.5"),
], ids=["none", "null", "a-string", "true", "above-1"])
def test_estimate_takes_its_strength_from_a_flag_else_the_metadata(tmp_path, capsys, metadata,
                                                                    message):
    counts = tmp_path / "counts.json"
    call = ["estimate", "--input", str(counts), "--branch", "18,27", "--output", "-"]
    counts.write_text(json.dumps({"metadata": metadata, "records": [_RECORD]}))
    assert main(call) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main([*call, "--kappa", "0.335"]) == 0  # a flag needs no recorded strength
    from_flag = _strip_timestamp(capsys.readouterr().out)
    counts.write_text(json.dumps({"metadata": {"kappa": 0.335}, "records": [_RECORD]}))
    assert main(call) == 0
    assert _strip_timestamp(capsys.readouterr().out) == from_flag


def test_estimate_takes_the_gate_its_counts_were_simulated_with(tmp_path):
    # estimate inverts the gate the file records, not the ideal model; a gate
    # flag replaces only its own field of it
    flags = ["--visibility", "0.78", "--t-h", "0.98", "--t-v", "0.34"]
    counts = tmp_path / "counts.json"
    assert main(["simulate-counts", "--kappa", "0.335", "--theta-start", "20", "--theta-end",
                 "21", *flags, "--seed", "1", "--format", "json", "--output", str(counts)]) == 0
    outputs = []
    for given in ([], flags[:2], flags, ["--t-v", "0.3"]):
        out = tmp_path / f"estimate-{len(outputs)}.csv"
        assert main(["estimate", "--input", str(counts), "--branch", "18,27", *given,
                     "--output", str(out)]) == 0
        outputs.append(_strip_timestamp(out.read_text()))
    assert outputs[0] == outputs[1] == outputs[2] and "# visibility = 0.78" in outputs[0]
    assert outputs[3] != outputs[0]
    assert "# visibility = 0.78" in outputs[3] and "# t_v = 0.3" in outputs[3]
    # a field that a flag replaces is not read from the file
    payload = json.loads(counts.read_text())
    counts.write_text(json.dumps({**payload, "metadata": {**payload["metadata"], "t_v": "bad"}}))
    out = tmp_path / "estimate-replaced.csv"
    assert main(["estimate", "--input", str(counts), "--branch", "18,27", "--t-v", "0.34",
                 "--output", str(out)]) == 0
    assert _strip_timestamp(out.read_text()) == outputs[0]


def test_estimate_at_kappa_0_stops_at_the_count_rescaling(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"metadata": {"kappa": 0.0}, "records": [_RECORD]}))
    assert main(["estimate", "--input", str(counts), "--branch", "18,27",
                 "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: ZeroStrength: count rescaling undefined at kappa = 0\n")


def test_estimate_reads_only_the_model_on_its_branch(tmp_path):
    # without a controlled phase to within 3e-8, this gate starves the minus
    # postselection at 22.5 deg, outside the branch; the record holds the
    # model's channel probabilities at 30 deg times 1e16, and inverts there
    model = weakps.ModelParams(0.335, "minus", weakps.ImperfectionParams(1.0, 1.0, 0.99999997))
    assert model.evaluate(np.radians([22.5]))["starved"].all()
    probs = weakps.estimation.channel_probabilities(np.radians([30.0]), model.kappa,
                                                    model.imperfections)[:, 0]
    record = {"theta_deg": 30.0, **dict(zip(weakps.counting.COUNT_COLUMNS,
                                            np.round(probs * 1e16).astype(np.int64).tolist()))}
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"metadata": {"kappa": 0.335}, "records": [record]}))
    out = tmp_path / "out.csv"
    assert main(["estimate", "--input", str(counts), "--branch", "23,40", "--visibility", "1",
                 "--t-v", "0.99999997", "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert float(rows[0][header.index("theta_hat_deg")]) == pytest.approx(30.0, abs=1e-6)


def test_table1_at_kappa_0_stops_before_any_draw(tmp_path, capsys):
    # the model curve is tabulated before the counts are drawn: its
    # starved postselection, not the count rescaling, stops the run
    assert main(["table1", "--kappa", "0", "--repetitions", "2",
                 "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: ZeroPostselection: postselection probability vanishes at theta = 22.5 deg\n")


@pytest.mark.parametrize("kappa", ["1e-9", "0.335"])
def test_spectrum_edges_are_not_anomalous(tmp_path, kappa):
    # sigma is 1 at 0 deg and -1 at 45 deg under either postselection, the
    # latter to within rounding; 10 deg minus lies beyond the spectrum
    out = tmp_path / "weak.csv"
    assert main(["sweep-weak-value", "--kappa", kappa, "--theta-end", "50", "--theta-step", "5",
                 "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    flags = {float(row[0]): (row[header.index("anomalous_minus")],
                             row[header.index("anomalous_plus")]) for row in rows}
    assert flags[0.0] == flags[45.0] == ("0", "0")
    assert flags[10.0][0] == "1"


def test_table1_unreadable_baseline_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["table1", "--kappa", "0.335", "--repetitions", "2", "--baseline", str(missing),
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: --baseline {missing}: [Errno 2] No such file or directory: '{missing}'\n")


def test_table1_schema_and_baseline(tmp_path):
    out = tmp_path / "table1.csv"
    assert main(["table1", "--kappa", "0.335", "--repetitions", "5", "--seed", "3",
                 "--output", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert header[:2] == ["postselect", "theta_deg"]
    assert "baseline_variance_deg2" in header
    assert len(rows) == 8
    by_key = {(r[0], float(r[1])): r for r in rows}
    row = by_key[("minus", 22.5)]
    assert float(row[header.index("baseline_variance_deg2")]) == 0.036
    assert float(row[header.index("baseline_cramer_rao_deg2")]) == 0.33
    assert meta["baseline_note"].startswith("baseline columns are published reference")


def test_table1_records_a_turning_point_per_row(tmp_path):
    # at --mu 5, 27.5 deg sits within a calibration grid cell of the curve
    # minimum: that row fails every repetition, the others are still written
    out = tmp_path / "table1.csv"
    assert main(["table1", "--mu", "5", "--postselect", "minus", "--repetitions", "3",
                 "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    by_theta = {float(r[1]): dict(zip(header, r)) for r in rows}
    assert (by_theta[27.5]["n_ok"], by_theta[27.5]["n_failed"]) == ("0", "3")
    assert by_theta[22.5]["n_ok"] == "3"


def test_sweep_weak_value_writes_nan_where_nothing_is_postselected(tmp_path, capsys):
    # a starved gate (t_h = 0) passes no coincidence at any angle
    out = tmp_path / "starved.csv"
    assert main(["sweep-weak-value", "--kappa", "0.335", "--t-h", "0", "--theta-step", "22.5",
                 "--output", str(out)]) == 0
    _, _, rows = _read_csv(out)
    assert [row[1:] for row in rows] == [["nan", "nan", "0", "0"]] * 4
    # kappa = 0 has no rescaled value anywhere, also where the gate starves every angle
    for gate in ([], ["--t-h", "0"]):
        assert main(["sweep-weak-value", "--kappa", "0", *gate, "--theta-step", "22.5",
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ZeroStrength:")


@pytest.mark.parametrize("sweep", [["sweep-weak-value"], ["sweep-pusey"],
                                   ["sweep-pusey", "--simulate", "--p-phi", "counts"],
                                   ["sweep-fisher"]],
                         ids=["sweep-weak-value", "sweep-pusey", "sweep-pusey-simulated",
                              "sweep-fisher"])
def test_a_sweep_takes_one_trig_basis_per_postselection(tmp_path, monkeypatch, sweep):
    # sweep-pusey takes one for its draw and every postselection
    calls = []
    real = kernels.trig_basis
    monkeypatch.setattr(kernels, "trig_basis", lambda thetas: calls.append(1) or real(thetas))
    for postselect, bases in (("minus", 1), ("both", 1 if sweep[0] == "sweep-pusey" else 2)):
        calls.clear()
        assert main([*sweep, "--kappa", "0.335", "--postselect", postselect,
                     "--output", str(tmp_path / "sweep.csv")]) == 0
        assert len(calls) == bases


def test_imperfect_runs_never_use_the_density_matrix_route(tmp_path, monkeypatch):
    # the density-matrix model is a test oracle, in no weakps module:
    # production goes through the closed form in weakps.imperfections
    def refuse(*args, **kwargs):
        raise AssertionError("imperfect_joint_probs called outside the tests")

    for name, module in list(sys.modules.items()):
        assert name.split(".")[0] != "weakps" or not hasattr(module, "imperfect_joint_probs")
    monkeypatch.setattr(oracles, "imperfect_joint_probs", refuse)
    gate = ["--visibility", "0.78", "--t-h", "0.98", "--t-v", "0.34"]
    assert main(["table1", "--kappa", "0.335", "--repetitions", "2", *gate,
                 "--output", str(tmp_path / "t.csv")]) == 0
    assert main(["simulate-counts", "--kappa", "0.335", "--theta-step", "5", *gate,
                 "--output", str(tmp_path / "c.csv")]) == 0


def test_decompose_json(tmp_path):
    out = tmp_path / "decomp.json"
    assert main(["decompose", "--kappa", "0", "--phi", "minus",
                 "--format", "json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["p_d"] == 0.0
    assert np.allclose(payload["s_matrix"], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
    assert np.allclose(payload["e_d"], [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
    # every strength, down to where 1 - r cancels, gives E_d = diag(S_00, S_11)
    # exactly, and no -0 where r = 0
    for phi in (["--phi", "minus"], ["--phi", "one"], ["--phi-angle", "1"], ["--phi-angle", "-17.3"]):
        for kappa in ("0", "1e-8", "2e-7", "1e-3", "0.335", "1"):
            assert main(["decompose", "--kappa", kappa, *phi, "--format", "json",
                         "--output", str(out)]) == 0
            payload = json.loads(out.read_text())
            (s00, s01), (s10, s11) = payload["s_matrix"]
            assert payload["e_d"] == [[s00, 0.0], [0.0, s11]] and s01 == s10
            assert "-0.0" not in out.read_text()


def test_decompose_csv_flattened(tmp_path):
    out = tmp_path / "decomp.csv"
    assert main(["decompose", "--kappa", "0.335", "--phi", "minus",
                 "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header[0] == "p_d"
    assert float(rows[0][0]) == pytest.approx(0.05778187238835186, rel=1e-12)
    for argv, expected in [
        (["--kappa", "1e-3", "--phi-angle", "30"], {"e_d_01": "0", "e_d_11": "0.75"}),
        (["--kappa", "1e-7", "--phi", "minus"], {"p_d": "5e-15", "e_d_00": "0.5"}),
        (["--kappa", "1", "--phi", "minus"], {"p_d": "1", "s_01": "0", "s_10": "0"}),
    ]:
        assert main(["decompose", *argv, "--output", str(out)]) == 0
        _, header, rows = _read_csv(out)
        assert {c: v for c, v in zip(header, rows[0]) if c in expected} == expected


def test_strength_flags_are_exclusive(capsys):
    assert main(["sweep-weak-value", "--kappa", "0.3", "--mu", "5"]) == 2
    assert main(["sweep-weak-value"]) == 2
    err = capsys.readouterr().err
    assert "exactly one of --kappa or --mu" in err


def test_mu_outside_the_model_range_exits_2(tmp_path, capsys):
    # the models take the meter angle asin(kappa) / 4, in [0, 22.5] deg: at
    # 30 deg a gate would draw from one channel and estimate invert another
    counts = tmp_path / "counts.json"
    assert main(["simulate-counts", "--kappa", "0.335", "--theta-start", "20", "--theta-end", "21",
                 "--format", "json", "--output", str(counts)]) == 0
    required = {"estimate": ["--input", str(counts), "--branch", "18,27"],
                "decompose": ["--phi", "minus"]}
    out = str(tmp_path / "out")
    for command in cli._SUBCOMMANDS:
        for mu in ("30", "91", "-1", "nan"):
            assert main([command, "--mu", mu, *required.get(command, []), "--output", out]) == 2
            assert capsys.readouterr().err == (
                f"error: --mu must lie in [0, 22.5] deg, got {float(mu)!r}\n"), (command, mu)
    for mu in ("0", "22.5"):
        assert main(["sweep-fisher", "--mu", mu, "--theta-step", "45", "--output", out]) == 0


def test_mu_flag_matches_kappa(tmp_path):
    mu_deg = math.degrees(math.asin(0.335) / 4.0)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep-weak-value", "--kappa", "0.335", "--theta-end", "10",
                 "--output", str(out_a)]) == 0
    assert main(["sweep-weak-value", "--mu", f"{mu_deg:.15f}", "--theta-end", "10",
                 "--output", str(out_b)]) == 0
    _, _, rows_a = _read_csv(out_a)
    _, _, rows_b = _read_csv(out_b)
    for ra, rb in zip(rows_a, rows_b):
        assert float(ra[1]) == pytest.approx(float(rb[1]), rel=1e-9)


def _strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# generated_at")
    )


def test_byte_identical_apart_from_timestamp(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["sweep-weak-value", "--kappa", "0.335", "--postselect", "both"]
    assert main(args + ["--output", str(out_a)]) == 0
    assert main(args + ["--output", str(out_b)]) == 0
    assert _strip_timestamp(out_a.read_text()) == _strip_timestamp(out_b.read_text())


def test_simulated_outputs_deterministic(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["simulate-counts", "--kappa", "0.335", "--seed", "5", "--theta-end", "10",
            "--format", "json"]
    assert main(args + ["--output", str(out_a)]) == 0
    assert main(args + ["--output", str(out_b)]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["records"] == b["records"]
    # byte identical apart from the timestamp line
    strip = lambda text: "\n".join(l for l in text.splitlines() if "generated_at" not in l)
    assert strip(out_a.read_text()) == strip(out_b.read_text())


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa = 0.2\ntheta_end = 10\npostselect = minus\n")
    out = tmp_path / "o.csv"
    assert main(["sweep-weak-value", "--config", str(cfg), "--kappa", "0.335",
                 "--output", str(out)]) == 0
    meta, header, _ = _read_csv(out)
    assert meta["kappa"] == "0.335"  # flag beats config
    assert meta["theta_end"] == "10"
    assert header == ["theta_deg", "sigma_w_minus", "anomalous_minus"]


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["sweep-weak-value", "--kappa", "0.3", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("kappa 0.3\n")
    assert main(["sweep-weak-value", "--config", str(bad)]) == 2
    # a config file naming another, in full or abbreviated, is refused, not ignored
    nested = tmp_path / "nested.cfg"
    for key in ("config", "conf"):
        nested.write_text(f"kappa = 0.3\n{key} = {missing}\n")
        code, out, err = _outcome(main, ["sweep-weak-value", "--theta-step", "45",
                                         "--config", str(nested)])
        assert (code, out) == (2, "")
        assert err == (f"error: {nested}:2: a config file cannot name another, "
                       f"got {key + ' = ' + str(missing)!r}\n")
    # a second file, in full or abbreviated, is refused, not read in place of the first
    strength, grid = tmp_path / "k.cfg", tmp_path / "b.cfg"
    strength.write_text("kappa = 0.3\n")
    grid.write_text("theta_end = 5\n")
    for second in (["--config", str(grid)], [f"--conf={grid}"]):
        code, out, err = _outcome(main, ["sweep-fisher", "--config", str(strength), *second,
                                         "--theta-step", "45"])
        assert (code, out, err) == (2, "", "error: --config may be given only once\n")


def test_config_is_read_under_each_spelling_argparse_takes(tmp_path):
    cfg, out = tmp_path / "b.cfg", tmp_path / "out.csv"
    cfg.write_text("theta_end = 5\n")
    for spelling in (["--config", str(cfg)], ["--conf", str(cfg)], ["--c", str(cfg)],
                     [f"--con={cfg}"]):
        assert main(["sweep-fisher", "--kappa", "0.3", "--theta-step", "45", *spelling,
                     "--output", str(out)]) == 0
        assert [row[0] for row in _read_csv(out)[2]] == ["0"], spelling


def test_a_config_value_spelled_false_drops_only_a_switch(tmp_path):
    # true/false spellings give or drop a store_true flag; any other flag
    # takes them as its value, which argparse then judges
    cfg, out = tmp_path / "run.cfg", str(tmp_path / "out.csv")
    for value in ("off", "on"):
        cfg.write_text(f"seed = {value}\n")
        code, _, err = _outcome(main, ["simulate-counts", "--kappa", "0.335",
                                       "--config", str(cfg), "--output", out])
        assert code == 2
        assert err.endswith(f"error: argument --seed: invalid int value: '{value}'\n")
    for value, simulated in (("true", "True"), ("false", "False")):
        cfg.write_text(f"simulate = {value}\n")
        assert main(["sweep-pusey", "--kappa", "0.335", "--theta-step", "45",
                     "--config", str(cfg), "--output", out]) == 0
        assert _read_csv(Path(out))[0]["simulated_counts"] == simulated


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("WEAKPS_OUTPUT_DIR", str(tmp_path))
    assert main(["sweep-weak-value", "--kappa", "0.335", "--theta-end", "5",
                 "--output", "env_out.csv"]) == 0
    assert (tmp_path / "env_out.csv").exists()


def test_stdout_output(capsys):
    assert main(["sweep-weak-value", "--kappa", "0.335", "--theta-end", "1",
                 "--theta-step", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "theta_deg,sigma_w_minus" in out


def test_unwritable_output_path(tmp_path, capsys):
    rc = main(["sweep-weak-value", "--kappa", "0.335",
               "--output", str(tmp_path / "no" / "such" / "dir.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("step", ["0.001", "5"], ids=["90k-rows", "18-rows"])
def test_a_closed_pipe_ends_the_output_quietly(step, unbuffered):
    # a reader that stops early, as `weakps ... | head -1` does, ends the
    # output: no error line and exit status 141, as SIGPIPE would give,
    # whether the pipe is found closed by a write in main or by the flush
    # that would otherwise come at exit
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(weakps.__file__)),
           "PYTHONUNBUFFERED": unbuffered}
    try:
        run = subprocess.run([sys.executable, "-m", "weakps.cli", "sweep-weak-value", "--kappa",
                              "0.335", "--theta-step", step],
                             env={k: v for k, v in env.items() if v is not None}, stdout=write,
                             stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (141, b"")


def _python(code: str, *args: str, **env: "str | None") -> str:
    """Stripped stdout of ``code`` run by a fresh interpreter that imports
    weakps from this tree, with ``env`` set over the environment (None
    unsets a variable)."""
    full_env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(weakps.__file__)),
                **env}
    full_env = {name: value for name, value in full_env.items() if value is not None}
    run = subprocess.run([sys.executable, "-c", code, *args], env=full_env, capture_output=True,
                         text=True, timeout=120, check=True)
    return run.stdout.strip()


def test_cli_import_loads_neither_scipy_nor_numba():
    # the CLI's set-up time is numpy's and weakps' alone
    code = ("import sys\n"
            "import weakps.cli\n"
            "print(sorted({'scipy', 'numba'} & {m.split('.')[0] for m in sys.modules}))\n")
    assert _python(code) == "[]"


def test_well_formed_call_loads_no_argparse(tmp_path):
    # a well-formed call is read without argparse (nor the gettext and locale
    # it brings); another spelling loads it, and writes the same records
    code = ("import sys\n"
            "import weakps.cli\n"
            "argv = ['sweep-fisher', '--theta-step', '5', '--output']\n"
            "for path, kappa in zip(sys.argv[1:], (['--kappa', '0.3'], ['--kappa=0.3'])):\n"
            "    weakps.cli.main([*argv, path, *kappa])\n"
            "    print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    paths = [tmp_path / "read.csv", tmp_path / "parsed.csv"]
    read, parsed = _python(code, *map(str, paths)).splitlines()
    assert read == "[]" and "'argparse'" in parsed
    strip = lambda path: [l for l in path.read_bytes().splitlines() if b"generated_at" not in l]
    assert strip(paths[0]) == strip(paths[1]) and len(strip(paths[0])) > 18


def test_cli_import_loads_every_traced_layer():
    # the benchmark's traced mode looks each of its layer modules up in
    # sys.modules after importing the CLI
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    layers = next(ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS")
    code = ("import sys\n"
            "import weakps.cli\n"
            f"loaded = {{m.removeprefix('weakps.') for m in sys.modules}}\n"
            f"print(sorted(set({layers!r}) - loaded))\n")
    assert len(layers) == 8 and _python(code) == "[]"


def test_cli_import_defaults_openblas_to_one_thread():
    # numpy's OpenBLAS starts no worker thread in a CLI process, unless the
    # user asks for threads
    code = ("import os\n"
            "import weakps.cli\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))\n")
    assert _python(code, OPENBLAS_NUM_THREADS=None) == "1 1"
    assert _python(code, OPENBLAS_NUM_THREADS="2").split()[0] == "2"


def test_cli_import_freezes_the_import_heap_once():
    # what the imports built lives until the process exits: the CLI moves it
    # out of the collector's walks once, at import, not in main, and leaves
    # the collector on or off as the caller had it; the package alone does not
    code = ("import gc, os, sys\n"
            "if sys.argv[1] == 'off':\n"
            "    gc.disable()\n"
            "import weakps\n"
            "package = gc.get_freeze_count()\n"
            "import weakps.cli\n"
            "frozen = gc.get_freeze_count()\n"
            "weakps.cli.main(['decompose', '--kappa', '0.3', '--phi', 'plus',\n"
            "                 '--output', os.devnull])\n"
            "print(package, frozen > 0, gc.get_freeze_count() == frozen, gc.isenabled())\n")
    assert _python(code, "on") == "0 True True True"
    assert _python(code, "off") == "0 True True False"


def _bare_python(code: str, tmp_path: Path, *args: str) -> str:
    """Stripped stdout of ``code`` run by ``python -S``, so that no site hook
    loads a module first, with numpy's install directory on its path and
    weakps imported from a copy in ``tmp_path`` compiled ahead: compiling
    ``cli.py`` from source builds ~1,250 objects before its first statement
    can stop the collector."""
    package = tmp_path / "weakps"
    if not package.exists():
        shutil.copytree(os.path.dirname(weakps.__file__), package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert compileall.compile_dir(package, quiet=1)
    path = os.pathsep.join([str(tmp_path), os.path.dirname(os.path.dirname(np.__file__))])
    run = subprocess.run([sys.executable, "-S", "-c", code, *args],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=120, check=True)
    return run.stdout.strip()


def test_cli_import_adds_only_json_and_runs_no_collection(tmp_path):
    # after numpy, the CLI's import loads weakps, json and __future__ alone
    # (no importlib.resources, no dataclasses) and runs no collection; the
    # count of allocations that starts one is reset first, so that a
    # collection seen is one that the import's own allocations start
    code = ("import gc, sys\n"
            "import numpy\n"
            "gc.collect()\n"
            "before, phases = set(sys.modules), []\n"
            "gc.callbacks.append(lambda phase, info: phases.append(phase))\n"
            "import weakps.cli\n"
            "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(added - {'weakps', 'json', '_json', '__future__', 'gc'}),\n"
            "      phases.count('start'), gc.isenabled())\n")
    assert _bare_python(code, tmp_path) == "[] 0 True"


def test_cli_import_stops_the_collector_while_numpy_loads(tmp_path):
    # the collector is off when the CLI asks for numpy, and an import that
    # fails there leaves the collector on or off as the caller had it
    code = ("import gc, sys\n"
            "if sys.argv[1] == 'off':\n"
            "    gc.disable()\n"
            "seen = []\n"
            "class Refuse:\n"
            "    @staticmethod\n"
            "    def find_spec(name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            seen.append(gc.isenabled())\n"
            "            raise ImportError('numpy refused')\n"
            "sys.meta_path.insert(0, Refuse)\n"
            "try:\n"
            "    import weakps.cli\n"
            "except ImportError as exc:\n"
            "    print(exc, seen, gc.isenabled())\n")
    assert _bare_python(code, tmp_path, "on") == "numpy refused [False] True"
    assert _bare_python(code, tmp_path, "off") == "numpy refused [False] False"


def test_package_import_loads_no_numpy():
    # the library loads its submodules on first use and leaves the
    # environment alone; only the CLI sets the BLAS default
    code = ("import os, sys\n"
            "import weakps\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'weakps')),\n"
            "      os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    assert _python(code, OPENBLAS_NUM_THREADS=None) == "['weakps'] None"


def test_runtime_loads_no_third_party_package_but_numpy(tmp_path):
    # numpy is the only runtime dependency: neither importing the CLI nor
    # running a command may load any other installed package; and the import
    # loads every module a command runs, so main loads no numpy or weakps
    # module.  The one exception is numpy.random, which only a draw within a
    # few ulps of a threshold loads (numpy's own sampler decides it), so
    # neither the import nor these runs load it, nor the secrets and hashlib
    # it would bring
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import weakps.cli\n"
        "imported = set(sys.modules)\n"
        "weakps.cli.main(sys.argv[1:])\n"
        "ran = set(sys.modules) - imported\n"
        "from importlib.metadata import packages_distributions\n"
        "others = set(packages_distributions()) - {'numpy', 'weakps'}\n"
        "tops = [{m.split('.')[0] for m in new} for new in (imported - before, ran)]\n"
        "print([sorted(top & others) for top in tops],\n"
        "      sorted(m for m in ran if m.split('.')[0] in ('numpy', 'weakps')),\n"
        "      sorted({'numpy.random', 'secrets', 'hashlib'} & set(sys.modules)))\n"
    )
    for argv in (["table1", "--kappa", "0.335", "--repetitions", "2"],
                 ["sweep-pusey", "--kappa", "0.335", "--theta-step", "5", "--simulate",
                  "--seed", "7"]):
        out = _python(code, *argv, "--output", str(tmp_path / f"{argv[0]}.csv"))
        assert out == "[[], []] [] []", argv
