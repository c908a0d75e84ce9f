"""Command-line front end: parameter sweeps, Monte Carlo count generation,
estimation, and decomposition dumps in stable CSV/JSON schemas.

Angle flags are degrees; everything internal is radians.  Output schemas are
versioned; records are deterministic given the seed, with only the
``generated_at`` metadata field varying between runs.

A config file (``--config``) holds ``key = value`` lines using the long flag
names (``-`` or ``_`` spelling); explicit flags win over config values.
Relative output paths are resolved against ``WEAKPS_OUTPUT_DIR`` when set.
"""

from __future__ import annotations

import gc

# What the imports build (numpy and weakps, ~22,000 objects) lives until the
# process exits, so a collection that walks it finds nothing to free: none runs
# while they load (~30 would), and gc.freeze() then moves it to the permanent
# generation, once per process, where neither the collections in main nor those
# at interpreter exit walk it again.  The collector is left on or off as the
# caller had it, also when an import fails.
_collecting = gc.isenabled()
gc.disable()
try:
    import contextlib
    import json
    import math
    import os
    import sys
    from datetime import datetime, timezone
    from itertools import chain
    from types import SimpleNamespace
    from typing import TYPE_CHECKING
    if TYPE_CHECKING:  # argparse is imported on first use: help, usage, errors (see main)
        import argparse

    # numpy's bundled OpenBLAS starts a worker thread when numpy is imported, at
    # 60-110 ms of CPU per process on 2 cores, whether or not weakps makes a BLAS
    # call (it makes none).  Set before numpy loads; a value the user has set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    import numpy as np

    from . import __version__, kernels
    from .contextuality import decompose_consolidated, p_phi_from_postselection
    from .counting import (
        COUNT_COLUMNS,
        AcquisitionConfig,
        derive_seeds,
        draw_counts,
        empty_channel,
        nonnegative_integer,
        weak_values_from_counts,
    )
    from .errors import ConfigError, WeakpsError, ZeroStrength
    from .estimation import (
        TABLE1_THETAS_DEG,
        ModelParams,
        assess_estimates,
        channel_probabilities,
        invert_branch,
        load_baseline,
        table1_batch,
    )
    from .imperfections import IDEAL_GATE, VISIBILITY_MODEL, ImperfectionParams
    from .states import postselected_channels, real_number, unit_interval
    from .weak import QUANTUM_FISHER_INFORMATION
    gc.freeze()
finally:
    if _collecting:
        gc.enable()

SCHEMA_VERSION = 2

# How a JSON record spells what '%.12g' writes as nan, inf and -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Most points an angle grid, and most repetitions a working point, may hold; a
# larger grid or count is refused before it is built.
MAX_GRID_POINTS = 1_000_000

# Rows _write formats and writes at a time, so its peak memory is the columns
# plus one block's text.  Of 128 to 16,384 rows, 256 gave the lowest peak RSS
# on 1,800- and 90,000-row JSON sweeps; the time did not tell them apart.
_BLOCK_ROWS = 256

# Largest count, and postselected count total, an `estimate` record may hold: counts are int64.
_INT64_MAX = int(np.iinfo(np.int64).max)

# The named postselection states' projector entries (phi_0^2, phi_1^2, phi_0 phi_1), exact
_NAMED_STATES = {"plus": (0.5, 0.5, 0.5), "minus": (0.5, 0.5, -0.5),
                 "zero": (1.0, 0.0, 0.0), "one": (0.0, 1.0, 0.0)}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# Each flag once, as the keywords argparse's add_argument takes, by its name
# (a tuple where it has more than one); a subcommand's table (_SUBCOMMANDS)
# merges these groups and its own flags in the order its --help lists them.
_STRENGTH = {
    "--kappa": dict(type=float, default=None, help="measurement strength in [0, 1]"),
    "--mu": dict(type=float, default=None,
                 help="meter preparation angle in degrees (strength sin(4*mu))"),
}
_GRID = {
    "--theta-start": dict(type=float, default=0.0, help="grid start, degrees"),
    "--theta-end": dict(type=float, default=90.0, help="grid end, degrees (exclusive)"),
    "--theta-step": dict(type=float, default=0.5, help="grid step, degrees"),
}
_POSTSELECT = {"--postselect": dict(choices=["plus", "minus", "both"], default="both")}
_GATE = {
    "--visibility": dict(type=float, default=None,
                         help="two-photon interference visibility in [0, 1]"),
    "--t-h": dict(type=float, default=None, help="H intensity transmission"),
    "--t-v": dict(type=float, default=None, help="V intensity transmission"),
}
_ACQUISITION = {
    "--rate": dict(type=float, default=2000.0,
                   help="total coincidences per second before postselection"),
    "--duration": dict(type=float, default=5.0, help="acquisition window, seconds"),
    "--seed": dict(type=int, default=0, help="root RNG seed"),
}
_UNCERTAINTY = {"--kappa-uncertainty": dict(
    type=float, default=0.0, help="one-sigma calibration error folded into error bars")}
_OUTPUT = {
    "--format": dict(choices=["csv", "json"], default="csv"),
    "--output": dict(default="-", help="output path; '-' writes to stdout"),
    "--config": dict(default=None, help="key = value config file; flags win"),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, with every subcommand's subparser: for every call that
    :func:`_read_call` does not read, help, usage and errors among them."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="weakps",
        description="Variable-strength qubit measurements with postselection: "
                    "sweeps, count simulation, estimation, decompositions.",
    )
    parser.add_argument("--version", action="version", version=f"weakps {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for names, kwargs in flags.items():
            p.add_argument(*(names if isinstance(names, tuple) else [names]), **kwargs)
    return parser


def _read_call(command: str, tokens: list[str]) -> SimpleNamespace | None:
    """The arguments argparse gives a well-formed call of ``command``, else None.
    Well-formed: each token is a flag its table declares, named in full, a switch
    or followed by a value not starting with '-' ('-' may) that its type converts
    into its choices; every required flag is given.  The tables declare only
    what this read follows (tests/test_cli.py checks it): long names, the
    keywords type, default, choices, required, help and action=store_true,
    and no str default beside a type."""
    flags = _SUBCOMMANDS[command][1]
    given, rest = {}, iter(tokens)
    for name in rest:
        spec = flags.get(name)
        if spec is not None and "action" in spec:  # a switch
            given[name] = True
            continue
        value = next(rest, None)
        if spec is None or value is None or value.startswith("-") and value != "-":
            return None  # argparse answers a value that starts with '-' its own way
        try:
            given[name] = spec.get("type", str)(value)
        except ValueError:
            return None
        if given[name] not in spec.get("choices", [given[name]]):
            return None
    if any(spec.get("required") and name not in given for name, spec in flags.items()):
        return None
    return SimpleNamespace(command=command, **{name[2:].replace("-", "_"): given.get(
        name, spec.get("default", False if "action" in spec else None))
        for name, spec in flags.items()})


def _load_config_tokens(path: str, flags: dict) -> list[str]:
    """Turn a key = value config file into CLI tokens (prepended, so explicit
    flags override).  A value spelled true/yes/on or false/no/off gives or
    drops a switch, a flag ``flags`` declares store_true; any other value
    follows its flag."""
    tokens: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        flag = "--" + key.replace("_", "-")
        if _is_config_flag(flag):
            raise ConfigError(f"{path}:{lineno}: a config file cannot name another, "
                              f"got {raw.rstrip()!r}")
        switch = flags.get(flag, {}).get("action") == "store_true"
        if switch and value.lower() in {"true", "yes", "on"}:
            tokens.append(flag)
        elif not (switch and value.lower() in {"false", "no", "off"}):
            tokens.extend([flag, value])
    return tokens


def _is_config_flag(name: str) -> bool:
    """Whether argparse reads ``name`` as ``--config``: a prefix of it from ``--c`` on."""
    return len(name) > 2 and "--config".startswith(name)


def _apply_config(argv: list[str]) -> list[str]:
    """Splice the one config file's tokens right after the subcommand."""
    path, stripped, tokens = None, [], iter(argv)
    for tok in tokens:
        name, eq, value = tok.partition("=")
        if not _is_config_flag(name):
            stripped.append(tok)
            continue
        if path is not None:
            raise ConfigError("--config may be given only once")
        path = value if eq else next(tokens, None)
        if path is None:
            raise ConfigError("--config needs a file path")
    if path is None:
        return argv
    if not stripped:
        raise ConfigError("--config given without a subcommand")
    flags = _SUBCOMMANDS[stripped[0]][1] if stripped[0] in _SUBCOMMANDS else {}
    return [stripped[0]] + _load_config_tokens(path, flags) + stripped[1:]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _resolve_strength(args: argparse.Namespace,
                      meta: dict | None = None) -> tuple[float, float]:
    """(kappa, mu_radians) from exactly one of --kappa / --mu; with neither,
    from ``meta``, an input file's metadata, when that is given."""
    if meta is not None and args.kappa is None and args.mu is None:
        kappa, source = meta.get("kappa"), "input metadata: "
        if kappa is None:
            raise ConfigError("no --kappa/--mu given and none recorded in the input file")
    elif (args.kappa is None) == (args.mu is None):
        raise ConfigError("provide exactly one of --kappa or --mu")
    elif args.mu is not None:
        # the models' meter angle is asin(kappa) / 4: past 22.5 deg, a gate at mu is another channel
        if not 0.0 <= args.mu <= 22.5:
            raise ConfigError(f"--mu must lie in [0, 22.5] deg, got {args.mu!r}")
        mu = math.radians(args.mu)
        return math.sin(4.0 * mu), mu
    else:
        kappa, source = args.kappa, "--"  # the message then names the flag
    try:
        return kappa, math.asin(unit_interval("kappa", kappa)) / 4.0
    except ValueError as exc:
        raise ConfigError(f"{source}{exc}") from None


def _resolve_imperfections(args: argparse.Namespace,
                           meta: dict | None = None) -> ImperfectionParams | None:
    """The gate the flags give.  A field without its flag comes from
    ``meta``, an input file's metadata as simulate-counts writes it, when
    that records it, else from the ideal gate; None where neither gives any
    field, as for a subcommand without gate flags."""
    meta = meta or {}
    given = {key: getattr(args, key) for key in ("visibility", "t_h", "t_v")
             if getattr(args, key, None) is not None}
    recorded = {key: meta[key] for key in ("visibility", "t_h", "t_v")
                if key in meta and key not in given}
    if recorded and meta.get("visibility_model") != VISIBILITY_MODEL:
        raise ConfigError(f"input metadata: visibility_model must be {VISIBILITY_MODEL!r}, "
                          f"got {meta.get('visibility_model')!r}")
    if not given and not recorded:
        return None
    try:
        for key, value in recorded.items():  # a recorded field's type before any range
            real_number(key, value)
        return IDEAL_GATE.replace(**recorded, **given)
    except ValueError as exc:
        # the message names its field first: a flag's, or one read from the file
        source = "" if str(exc).split(" ", 1)[0] in given else "input metadata: "
        raise ConfigError(f"{source}{exc}") from exc


def _theta_grid_deg(args: argparse.Namespace) -> np.ndarray:
    for flag, value in (("--theta-start", args.theta_start), ("--theta-end", args.theta_end),
                        ("--theta-step", args.theta_step)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value!r}")
    if args.theta_step <= 0.0:
        raise ConfigError("--theta-step must be positive")
    if args.theta_start >= args.theta_end:
        raise ConfigError("--theta-start must be below --theta-end")
    points = (args.theta_end - args.theta_start) / args.theta_step - 1e-12
    if points > MAX_GRID_POINTS:
        raise ConfigError(f"the angle grid would hold {points:.6g} points; "
                          f"at most {MAX_GRID_POINTS} are allowed")
    # the start alone where the span is at most 1e-12 of a step
    return args.theta_start + args.theta_step * np.arange(max(1, math.ceil(points)))


def _signs(postselect: str) -> list[str]:
    return ["minus", "plus"] if postselect == "both" else [postselect]


def _acquisition(args: argparse.Namespace) -> AcquisitionConfig:
    try:  # sweep-pusey has no --kappa-uncertainty
        return AcquisitionConfig(seed=args.seed, rate=args.rate, duration=args.duration,
                                 kappa_uncertainty=getattr(args, "kappa_uncertainty", 0.0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value: object) -> str:
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _stamp(metadata: dict) -> dict:
    """Copy of ``metadata`` with the schema version and the generation time."""
    return {**metadata, "schema_version": SCHEMA_VERSION,
            "generated_at": datetime.now(timezone.utc).isoformat()}


def _open_output(output: str) -> contextlib.AbstractContextManager:
    """``output`` opened for writing text ('-' is stdout, left open on exit);
    relative paths resolve against ``WEAKPS_OUTPUT_DIR`` when it is set."""
    if output == "-":
        return contextlib.nullcontext(sys.stdout)
    base = os.environ.get("WEAKPS_OUTPUT_DIR", "")
    if base and not os.path.isabs(output):
        output = os.path.join(base, output)
    return open(output, "w", encoding="utf-8")


def _json_float(text: str) -> str:
    """A float's ``'%.12g'`` text as a JSON record writes it: NaN and the
    infinities spelled as ``json.dumps`` spells them, a whole value with a
    ``.0``, so that it reads back as a float."""
    if text.lstrip("-").isdigit():
        return text + ".0"
    return _JSON_NONFINITE.get(text, text)


def _json_column(values: "np.ndarray | list") -> list[str]:
    """Each value of a block of a column as a JSON record writes it: a float
    to 12 significant digits, as CSV writes it (:func:`_json_float`), a float
    array by one ``'%.12g'`` block; an int or bool array by one ``json.dumps``;
    any other value of a list by ``json.dumps`` (a string may hold ", ")."""
    if not isinstance(values, np.ndarray):
        return [_json_float("%.12g" % v) if isinstance(v, float) else json.dumps(v)
                for v in values]
    if values.dtype.kind != "f":
        return json.dumps(values.tolist())[1:-1].split(", ")
    cells = ("%.12g," * values.size % tuple(values.tolist())).split(",")[:-1]
    # the cells '%.12g' can write without a point: those within 12 digits of a
    # whole value, and NaN and the infinities, which compare false
    with np.errstate(invalid="ignore"):  # inf - inf
        near_whole = ~(np.abs(values - np.rint(values)) > 1e-11 * np.maximum(np.abs(values), 1.0))
    for i in np.flatnonzero(near_whole).tolist():
        cells[i] = _json_float(cells[i])
    return cells


def _write(output: str, fmt: str, metadata: dict, columns: list[str],
           data: "dict[str, np.ndarray | list]") -> None:
    """Write the columns of ``data`` under ``metadata``: as CSV with the
    header ``columns``, or as ``json.dumps({"metadata": ..., "records": ...},
    indent=2)`` would write one record per row, keys in ``data``'s order, but
    for the records' floats, written to 12 digits as in CSV (:func:`_json_column`).
    Each format sets a head, row template, separator, cell rule and tail; one
    loop writes the rows ``_BLOCK_ROWS`` at a time, a block by one ``%``."""
    metadata = _stamp(metadata)
    columns = list(data) if fmt == "json" else columns
    rows = min((len(data[c]) for c in columns), default=0)
    if fmt == "json":  # json.dumps's own text, the rows in place of its placeholder record
        text = json.dumps({"metadata": metadata, "records": [0] if rows else []}, indent=2) + "\n"
        head, tail = text.rsplit("    0", 1) if rows else ("", text)
        keys = [json.dumps(key).replace("%", "%%") for key in columns]
        record = "    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
        sep, cells = ",\n", _json_column
    else:  # array floats to 12 digits, all else by str (lists by _fmt)
        head = "".join(f"# {key} = {_fmt(val)}\n" for key, val in metadata.items())
        head += ",".join(columns) + "\n"
        record = ",".join("%.12g" if isinstance(data[c], np.ndarray) and data[c].dtype.kind == "f"
                          else "%s" for c in columns) + "\n"
        sep = tail = ""
        cells = lambda col: col.tolist() if isinstance(col, np.ndarray) else list(map(_fmt, col))
    with _open_output(output) as fh:
        fh.write(head)
        for start in range(0, rows, _BLOCK_ROWS):
            block = [cells(data[c][start : start + _BLOCK_ROWS]) for c in columns]
            template = sep.join([record] * min(_BLOCK_ROWS, rows - start))
            fh.write((sep if start else "") + template % tuple(chain.from_iterable(zip(*block))))
        fh.write(tail)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _model_metadata(args, kappa: float, mu: float, gate: ImperfectionParams | None) -> dict:
    meta = {"command": args.command, "kappa": kappa, "mu_deg": math.degrees(mu)}
    if gate is not None:
        meta.update(visibility=gate.visibility, t_h=gate.t_h, t_v=gate.t_v,
                    visibility_model=VISIBILITY_MODEL, transmission_convention="intensity")
    return meta


def _sweep(args, **meta_fields) -> tuple[np.ndarray, np.ndarray, dict[str, ModelParams], dict]:
    """What a sweep starts from: its grid in degrees and in radians, a model
    per postselection sign, and its metadata, with ``meta_fields`` after the
    postselection and before the grid."""
    kappa, mu = _resolve_strength(args)
    imperfections = _resolve_imperfections(args)
    grid_deg = _theta_grid_deg(args)
    models = {sign: ModelParams(kappa, sign, imperfections) for sign in _signs(args.postselect)}
    meta = _model_metadata(args, kappa, mu, imperfections)
    meta.update(postselect=args.postselect, **meta_fields, theta_start=args.theta_start,
                theta_end=args.theta_end, theta_step=args.theta_step)
    return grid_deg, np.deg2rad(grid_deg), models, meta


def _cmd_sweep_weak_value(args) -> None:
    grid_deg, grid, models, meta = _sweep(args)
    if meta["kappa"] == 0.0:
        raise ZeroStrength("weak value undefined at kappa = 0")
    data = {"theta_deg": grid_deg}
    for sign, model in models.items():
        columns = model.evaluate(grid)
        # no postselected value where starved: written as nan
        sigma = np.where(columns["starved"], np.nan, columns["sigma"])
        data[f"sigma_w_{sign}"] = sigma
        # beyond the spectrum [-1, 1] by more than rounding: 45 deg rounds to -1 - 2e-16
        data[f"anomalous_{sign}"] = (np.abs(sigma) > 1.0 + kernels._ROUNDING).astype(np.int64)
    columns = ["theta_deg", *(f"sigma_w_{s}" for s in models), *(f"anomalous_{s}" for s in models)]
    _write(args.output, args.format, meta, columns, data)


def _cmd_sweep_pusey(args) -> None:
    if args.p_phi == "counts" and not (_resolve_strength(args)[0] < 1.0 and args.simulate):
        raise ConfigError("--p-phi counts needs --simulate and kappa < 1: the overlap is "
                          "recovered from the simulated counts of a non-projective measurement")
    grid_deg, grid, models, meta = _sweep(args, p_phi_convention=args.p_phi,
                                          simulated_counts=args.simulate)
    kappa = meta["kappa"]
    basis = kernels.trig_basis(grid)  # the draw's and every postselection's
    if args.simulate:  # one draw per grid point, read for every postselection
        acquisition = _acquisition(args)  # checks the seed before any is derived from it
        counts = draw_counts(channel_probabilities(grid, kappa, None, basis).T,
                             derive_seeds(args.seed, grid.size), acquisition)
        totals = counts.sum(axis=1).astype(np.float64)
        meta.update(seed=args.seed, rate=args.rate, duration=args.duration)

    data = {"theta_deg": grid_deg}
    for sign, model in models.items():
        p0, p1, p_phi = model.joint_pair(grid, basis)
        if args.simulate:  # frequencies; NaN where no coincidence was counted
            with np.errstate(divide="ignore", invalid="ignore"):
                p0, p1 = counts[:, postselected_channels(sign)].T / totals
            if args.p_phi == "counts":
                p_phi = p_phi_from_postselection(p0 + p1, kappa)
        i0, i1 = kernels.pusey_functional(np.stack([p0, p1]), p_phi, kappa)
        data[f"i0_{sign}"], data[f"i1_{sign}"] = i0, i1
        meta[f"skipped_{sign}"] = int(np.isnan(i0).sum())
    _write(args.output, args.format, meta, list(data), data)


def _cmd_sweep_fisher(args) -> None:
    grid_deg, grid, models, meta = _sweep(args)
    data = {"theta_deg": grid_deg, "q": np.full(grid.size, QUANTUM_FISHER_INFORMATION)}
    for sign, model in models.items():
        columns = model.evaluate(grid)
        data[f"f_ps_{sign}"] = columns["f_ps"]
        data[f"budget_lhs_{sign}"] = columns["f_ps"] * columns["p_ps"]
        # saturated points: no Fisher information, written as nan
        meta[f"skipped_{sign}"] = int(np.isnan(columns["f_ps"]).sum())
    columns = ["theta_deg", *(f"f_ps_{s}" for s in models), "q",
               *(f"budget_lhs_{s}" for s in models)]
    _write(args.output, args.format, meta, columns, data)


def _cmd_simulate_counts(args) -> None:
    kappa, mu = _resolve_strength(args)
    imperfections = _resolve_imperfections(args)
    grid_deg = _theta_grid_deg(args)
    grid = np.deg2rad(grid_deg)
    acquisition = _acquisition(args)
    seeds = derive_seeds(args.seed, grid_deg.size)

    probs = channel_probabilities(grid, kappa, imperfections)
    data = {"theta_deg": grid_deg, "seed": seeds}
    data.update(zip(COUNT_COLUMNS, draw_counts(probs.T, seeds, acquisition).T))

    meta = _model_metadata(args, kappa, mu, imperfections)
    meta.update(theta_start=args.theta_start, theta_end=args.theta_end,
                theta_step=args.theta_step, rate=args.rate, duration=args.duration,
                seed=args.seed, kappa_uncertainty=args.kappa_uncertainty)
    _write(args.output, args.format, meta, ["theta_deg", *COUNT_COLUMNS, "seed"], data)


def _read_counts(records: list, sign: str) -> tuple[np.ndarray, list[float]]:
    """Count rows ``(n_mp, n_mm, n_pp, n_pm)`` of simulate-counts records, and
    their ``theta_deg`` (NaN where absent), checked in file order: the first
    invalid record (not an object, or a count missing, not a nonnegative
    integer or past int64), or one whose postselected pair sums past int64,
    stops the run with a ConfigError, the first without postselected counts
    with EmptyChannel."""
    counts = np.empty((len(records), 4), dtype=np.int64)
    thetas, pair = [], postselected_channels(sign)
    for index, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ConfigError(f"input record {index}: must be an object, "
                              f"got {type(rec).__name__}")
        try:
            row = [nonnegative_integer(name, rec[name]) for name in COUNT_COLUMNS]
            for name, n in zip(COUNT_COLUMNS, row):
                if n > _INT64_MAX:
                    raise ValueError(f"{name} must be at most {_INT64_MAX}, got {n}")
            nonnegative_integer("seed", rec.get("seed", 0))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"input record {index}: missing or invalid count: {exc}") from exc
        counts[index] = row
        try:
            thetas.append(real_number("theta_deg", rec.get("theta_deg", math.nan)))
        except ValueError as exc:
            raise ConfigError(f"input record {index}: {exc}") from None
        m_ps = sum(row[pair])
        if m_ps > _INT64_MAX:
            raise ConfigError(f"input record {index}: postselected counts sum to {m_ps}, "
                              f"above the int64 limit {_INT64_MAX}")
        if m_ps == 0:
            raise empty_channel(sign)
    return counts, thetas


def _cmd_estimate(args) -> None:
    try:
        with open(args.input, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read counts JSON {args.input!r}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("metadata", {}), dict):
        raise ConfigError("counts JSON must be an object whose metadata is an object")
    in_meta = payload.get("metadata", {})
    in_records = payload.get("records", [])
    if not isinstance(in_records, list):
        raise ConfigError(f"counts JSON: records must be a list, got {type(in_records).__name__}")
    if not in_records:
        raise ConfigError("input file holds no count records")

    # the strength, and each gate field, without its flag from the input's metadata
    kappa, mu = _resolve_strength(args, in_meta)
    imperfections = _resolve_imperfections(args, in_meta)
    sign = args.postselect

    try:
        lo_deg, hi_deg = (float(x) for x in args.branch.split(","))
    except ValueError as exc:
        raise ConfigError("--branch must be 'LO,HI' in degrees") from exc
    if not (math.isfinite(lo_deg) and math.isfinite(hi_deg) and lo_deg < hi_deg):
        raise ConfigError(f"--branch must be 'LO,HI' in degrees, finite, with LO < HI, "
                          f"got {args.branch!r}")

    model = ModelParams(kappa=kappa, postselect_sign=sign, imperfections=imperfections)
    branch = (math.radians(lo_deg), math.radians(hi_deg))

    try:
        acquisition = AcquisitionConfig(
            seed=0,
            rate=in_meta.get("rate", 2000.0),
            duration=in_meta.get("duration", 5.0),
            kappa_uncertainty=in_meta.get("kappa_uncertainty", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"input metadata: {exc}") from exc

    counts, thetas = _read_counts(in_records, sign)
    sigmas, variances = weak_values_from_counts(counts, kappa, sign,
                                                acquisition.kappa_uncertainty)
    m_ps = counts[:, postselected_channels(sign)].sum(axis=1)
    batch = assess_estimates(model, invert_branch(model, sigmas, branch), variances, m_ps)
    failed = np.flatnonzero(batch.status)
    if failed.size:  # the first failing record, in file order, stops the run
        raise batch.error(int(failed[0]), model, branch, sigmas[failed[0]])
    data = {
        "theta_deg": thetas,
        "sigma_hat": sigmas,
        "sigma_variance": variances,
        "theta_hat_deg": batch.theta_hat_deg,
        "variance_theta_deg2": batch.variance_theta_deg2,
        "f_ps": batch.f_ps,
        "m_ps": m_ps,
        "sigma_cr_deg2": batch.sigma_cr_deg2,
    }

    meta = _model_metadata(args, kappa, mu, imperfections)
    meta.update(postselect=sign, branch_lo_deg=lo_deg, branch_hi_deg=hi_deg,
                input=os.path.basename(args.input))
    _write(args.output, args.format, meta, list(data), data)


def _cmd_table1(args) -> None:
    kappa, mu = _resolve_strength(args)
    imperfections = _resolve_imperfections(args)
    acquisition = _acquisition(args)
    if args.repetitions <= 0:
        raise ConfigError(f"--repetitions must be positive, got {args.repetitions}")
    if args.repetitions > MAX_GRID_POINTS:  # refused before any seed is derived
        raise ConfigError(f"--repetitions must be at most {MAX_GRID_POINTS}, "
                          f"got {args.repetitions}")
    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--baseline {args.baseline}: {exc}") from exc

    signs = _signs(args.postselect)
    models = [ModelParams(kappa, sign, imperfections) for sign in signs]
    batch = table1_batch([TABLE1_THETAS_DEG[sign] for sign in signs], models, acquisition,
                         args.repetitions)
    rows = []  # one tuple of the columns below per working point
    for sign in signs:  # one postselection's rows at a time; the generator's `row` ends with
        # it, so no row, whose arrays are views of its model's assessed columns, outlives it
        rows.extend((sign, row.theta_deg, row.mean_theta_hat_deg, row.mean_variance_deg2,
                     row.mean_sigma_cr_deg2, row.empirical_variance_deg2, row.mean_m_ps,
                     row.n_ok, row.n_failed,
                     *baseline.get((sign, row.theta_deg), (math.nan, math.nan)))
                    for row in next(batch))
    columns = [
        "postselect", "theta_deg", "mean_theta_hat_deg", "variance_theta_deg2",
        "sigma_cr_deg2", "empirical_variance_deg2", "mean_m_ps", "n_ok", "n_failed",
        "baseline_variance_deg2", "baseline_cramer_rao_deg2",
    ]

    meta = _model_metadata(args, kappa, mu, imperfections)
    meta.update(postselect=args.postselect, repetitions=args.repetitions, rate=args.rate,
                duration=args.duration, seed=args.seed, kappa_uncertainty=args.kappa_uncertainty,
                baseline_source=args.baseline or "packaged",
                baseline_note="baseline columns are published reference labels, not targets")
    _write(args.output, args.format, meta, columns, dict(zip(columns, zip(*rows))))


def _cmd_decompose(args) -> None:
    kappa, mu = _resolve_strength(args)
    if (args.phi is None) == (args.phi_angle is None):
        raise ConfigError("provide exactly one of --phi or --phi-angle")
    if args.phi is not None:
        phi = _NAMED_STATES[args.phi]
        phi_label = args.phi
    else:
        if not math.isfinite(args.phi_angle):
            raise ConfigError(f"--phi-angle must be finite, got {args.phi_angle!r}")
        a = 2.0 * math.radians(args.phi_angle)
        c, s = math.cos(a), math.sin(a)
        phi = (c * c, s * s, c * s)
        phi_label = f"angle:{args.phi_angle}"
    p_d, s_matrix, e_d = decompose_consolidated(phi, kappa)

    meta = _model_metadata(args, kappa, mu, None)
    meta["phi"] = phi_label
    if args.format == "json":
        payload = {
            "metadata": _stamp(meta),
            "p_d": p_d,
            "s_matrix": s_matrix.tolist(),
            "e_d": e_d.tolist(),
        }
        with _open_output(args.output) as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        return
    columns = ["p_d", "s_00", "s_01", "s_10", "s_11", "e_d_00", "e_d_01", "e_d_10", "e_d_11"]
    values = [p_d, *s_matrix.ravel().tolist(), *e_d.ravel().tolist()]
    _write(args.output, args.format, meta, columns, {c: [v] for c, v in zip(columns, values)})


# subcommand -> (help text, flags, handler), in the order --help lists them
_SUBCOMMANDS = {
    "sweep-weak-value": ("postselected-value curve over an angle grid",
                         {**_STRENGTH, **_GRID, **_POSTSELECT, **_GATE, **_OUTPUT},
                         _cmd_sweep_weak_value),
    "sweep-pusey": ("non-contextuality functionals over an angle grid", {
        **_STRENGTH, **_GRID, **_POSTSELECT,
        "--p-phi": dict(choices=["model", "counts"], default="model",
                        help="overlap from the exact states, or re-derived from the "
                             "postselection probability and the calibrated strength"),
        "--simulate": dict(action="store_true", help="evaluate from simulated coincidence "
                                                     "counts instead of exact values"),
        **_ACQUISITION, **_OUTPUT}, _cmd_sweep_pusey),
    "sweep-fisher": ("postselected Fisher information over an angle grid",
                     {**_STRENGTH, **_GRID, **_POSTSELECT, **_OUTPUT}, _cmd_sweep_fisher),
    "simulate-counts": ("Poissonian coincidence counts over an angle grid", {
        **_STRENGTH, **_GRID, **_GATE, **_ACQUISITION, **_UNCERTAINTY, **_OUTPUT},
        _cmd_simulate_counts),
    "estimate": ("invert measured values from a simulate-counts JSON file", {
        "--input": dict(required=True, help="JSON file produced by simulate-counts"),
        **_STRENGTH,
        "--postselect": dict(choices=["plus", "minus"], default="minus"),
        "--branch": dict(required=True,
                         help="monotone branch 'LO,HI' in degrees for the inversion"),
        **_GATE, **_OUTPUT}, _cmd_estimate),
    "table1": ("estimation pipeline at the standard working points", {
        **_STRENGTH, **_POSTSELECT,
        "--repetitions": dict(type=int, default=100),
        "--baseline": dict(default=None, help="override the packaged baseline CSV"),
        **_GATE, **_ACQUISITION, **_UNCERTAINTY, **_OUTPUT}, _cmd_table1),
    "decompose": ("consolidated postselection operator decomposition", {
        **_STRENGTH,
        "--phi": dict(choices=sorted(_NAMED_STATES), default=None,
                      help="named postselection state"),
        "--phi-angle": dict(type=float, default=None,
                            help="postselection angle in degrees: cos(2a)|0> + sin(2a)|1>"),
        **_OUTPUT}, _cmd_decompose),
}


def main(argv: "list[str] | None" = None) -> int:
    """Run the CLI on ``argv``: a well-formed call is read from its flags'
    declarations (:func:`_read_call`); :func:`build_parser` parses any other."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = _read_call(argv[0], argv[1:]) if argv and argv[0] in _SUBCOMMANDS else None
        if args is None:  # other spellings, help, usage and errors
            args = build_parser().parse_args(argv)
        _SUBCOMMANDS[args.command][2](args)
        sys.stdout.flush()  # here, not at exit, so that a closed pipe is seen below
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeakpsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader stopped: the end of the output, as at SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # a quiet exit flush
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
