import argparse
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakps
from weakps import cli, draw_counts, weak_value_curve
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
    assert meta["schema_version"] == "1"
    first = rows[0]
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
    assert first[3] == "0"
    # spot-check a row against the library
    row20 = rows[40]  # theta = 20 deg
    assert float(row20[0]) == 20.0
    assert float(row20[1]) == pytest.approx(weak_value_curve(20 * D2R, 0.335, "minus"), rel=1e-10)
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
    },
    "empty-columns": {"x": np.array([]), "label": []},
    "no-columns": {},
}


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


@pytest.mark.parametrize("case", list(_WRITE_CASES))
def test_write_matches_row_by_row_formatting(tmp_path, monkeypatch, case):
    # JSON is exactly json.dumps(..., indent=2); CSV as _csv_value_by_value
    monkeypatch.setattr(cli, "_stamp", lambda metadata: metadata)
    data = _WRITE_CASES[case]
    meta = {"command": "test", "kappa": 0.335, "note": "a, b"}
    columns = list(data)[::-1]

    cli._write(str(tmp_path / "out.json"), "json", meta, columns, data)
    expected = json.dumps({"metadata": meta, "records": _rows(data)}, indent=2) + "\n"
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
    written = []
    with mock.patch.object(cli, "_stamp", lambda metadata: metadata), \
            mock.patch.object(cli, "_emit", lambda output, text: written.append(text)):
        cli._write("-", "csv", meta, list(data), data)
    assert written == [_csv_value_by_value(meta, list(data), data)]


def _subcommands(parser):
    """The names of the subparsers ``parser`` holds, in order."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_parser_builds_only_the_subparsers_a_call_needs():
    assert _subcommands(cli.build_parser("table1")) == ["table1"]
    assert _subcommands(cli.build_parser()) == list(cli._SUBCOMMANDS)


def test_main_dispatches_every_registered_subcommand(monkeypatch):
    ran = []
    for name, (help_text, add_flags, handler) in list(cli._SUBCOMMANDS.items()):
        # each name is paired with its own flag adder and handler
        assert add_flags.__name__ == f"_{name.replace('-', '_')}_flags"
        assert handler.__name__ == f"_cmd_{name.replace('-', '_')}"
        monkeypatch.setitem(cli._SUBCOMMANDS, name,
                            (help_text, add_flags, lambda args: ran.append(args.command)))
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
    *[(["decompose", "--kappa", "0.335", "--phi-angle", angle], None) for angle in ("nan", "inf")],
    *[(["table1", "--kappa", "0.335", "--repetitions", "2"], ("--baseline", text))
      for text in ("minus,22.5,0.036\n", "minus,22.5,x,0.33\n")],
], ids=["repetitions-0", "repetitions-above-cap", "negative-rate", "negative-seed", "visibility-above-1",
        "record-without-n_pm", "record-with-negative-count", "projective-p-phi-counts",
        "nan-theta-start", "infinite-theta-end", "nan-theta-step", "grid-above-cap",
        *[f"{command}-poisson-mean-{size}" for command in ("simulate-counts", "table1",
                                                          "sweep-pusey-simulated")
          for size in ("above-limit", "infinite")],
        "metadata-kappa-above-1", "metadata-kappa-not-a-number", "metadata-kappa-negative",
        "top-level-json-array", "count-true", "branch-reversed", "branch-nan", "branch-inf",
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
     "error: input record 1: missing or invalid count: invalid literal"),
    ([{"n_mp": 900, "n_mm": 100, "n_pp": 5, "n_pm": math.inf}], 2,
     "error: input record 0: missing or invalid count: cannot convert float infinity"),
    ([{"n_mp": 900.7, "n_mm": 100, "n_pp": 5, "n_pm": 5}], 2,
     "error: input record 0: missing or invalid count: n_mp must be a nonnegative integer, "
     "got 900.7"),
    # each count fits in int64, the postselected pair's sum does not
    ([{"n_mp": 900, "n_mm": 100, "n_pp": 5, "n_pm": 5},
      {"n_mp": 5 * 10**18, "n_mm": 5 * 10**18, "n_pp": 5, "n_pm": 5}], 2,
     "error: input record 1: postselected counts sum to 10000000000000000000, above the int64"),
], ids=["empty-pair-first", "negative-seed-first", "bad-count-second", "infinite-count",
        "fractional-count", "postselected-sum-above-int64"])
def test_estimate_stops_at_the_first_failing_record(tmp_path, capsys, records, rc, message):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"metadata": {"kappa": 0.335}, "records": records}))
    assert main(["estimate", "--input", str(counts), "--branch", "18,27",
                 "--output", str(tmp_path / "out.csv")]) == rc
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


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


def test_imperfect_runs_never_use_the_density_matrix_route(tmp_path, monkeypatch):
    # the density-matrix model is a test oracle: production goes through the
    # closed form in weakps.imperfections
    def refuse(*args, **kwargs):
        raise AssertionError("imperfect_joint_probs called outside the tests")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "weakps" and hasattr(module, "imperfect_joint_probs"):
            monkeypatch.setattr(module, "imperfect_joint_probs", refuse)
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


def test_decompose_csv_flattened(tmp_path):
    out = tmp_path / "decomp.csv"
    assert main(["decompose", "--kappa", "0.335", "--phi", "minus",
                 "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header[0] == "p_d"
    assert float(rows[0][0]) == pytest.approx(0.05778187238835186, rel=1e-12)


def test_strength_flags_are_exclusive(capsys):
    assert main(["sweep-weak-value", "--kappa", "0.3", "--mu", "5"]) == 2
    assert main(["sweep-weak-value"]) == 2
    err = capsys.readouterr().err
    assert "exactly one of --kappa or --mu" in err


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


def test_cli_import_loads_neither_scipy_nor_numba():
    # the CLI's set-up time is numpy's and weakps' alone
    code = ("import sys\n"
            "import weakps.cli\n"
            "print(sorted({'scipy', 'numba'} & {m.split('.')[0] for m in sys.modules}))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(weakps.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert run.stdout.strip() == "[]"


def test_runtime_loads_no_third_party_package_but_numpy(tmp_path):
    # numpy is the only runtime dependency: neither importing the CLI nor
    # running the estimation pipeline may load any other installed package
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import weakps.cli\n"
        "loaded = [set(sys.modules) - before]\n"
        "weakps.cli.main(['table1', '--kappa', '0.335', '--repetitions', '2',\n"
        "                 '--output', sys.argv[1]])\n"
        "loaded.append(set(sys.modules) - before)\n"
        "from importlib.metadata import packages_distributions\n"
        "others = set(packages_distributions()) - {'numpy', 'weakps'}\n"
        "print([sorted({m.split('.')[0] for m in new} & others) for new in loaded])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(weakps.__file__)))
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "t.csv")], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.strip() == "[[], []]"
