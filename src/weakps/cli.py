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

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, kernels
from .contextuality import (
    decompose_consolidated,
    p_phi_from_postselection,
    pusey_from_probabilities,
)
from .counting import (
    AcquisitionConfig,
    CountRecord,
    derive_seeds,
    simulate_counts,
    weak_value_from_counts,
)
from .errors import ConfigError, WeakpsError
from .estimation import (
    TABLE1_THETAS_DEG,
    ModelParams,
    build_calibration,
    cramer_rao_variance,
    estimate_theta,
    load_baseline,
    propagate_variance,
    table1_pipeline,
)
from .imperfections import VISIBILITY_MODEL, ImperfectionParams, imperfect_joint_probs
from .states import (
    MINUS,
    ONE,
    PLUS,
    PROB_FLOOR,
    ZERO,
    ideal_probability_record,
    make_signal_state,
    sign_factor,
)
from .weak import (
    QUANTUM_FISHER_INFORMATION,
    fisher_curve_grid,
    fisher_ps_definition,
    weak_value_curve_grid,
)

SCHEMA_VERSION = 1

_NAMED_STATES = {"plus": PLUS, "minus": MINUS, "zero": ZERO, "one": ONE}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta-start", type=float, default=0.0, help="grid start, degrees")
    p.add_argument("--theta-end", type=float, default=90.0, help="grid end, degrees (exclusive)")
    p.add_argument("--theta-step", type=float, default=0.5, help="grid step, degrees")


def _add_strength_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", type=float, default=None, help="measurement strength in [0, 1]")
    p.add_argument("--mu", type=float, default=None,
                   help="meter preparation angle in degrees (strength sin(4*mu))")


def _add_postselect_flag(p: argparse.ArgumentParser, with_both: bool = True) -> None:
    choices = ["plus", "minus"] + (["both"] if with_both else [])
    p.add_argument("--postselect", choices=choices, default="both" if with_both else "minus")


def _add_imperfection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--visibility", type=float, default=None,
                   help="two-photon interference visibility in [0, 1]")
    p.add_argument("--t-h", type=float, default=None, help="H intensity transmission")
    p.add_argument("--t-v", type=float, default=None, help="V intensity transmission")


def _add_acquisition_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rate", type=float, default=2000.0,
                   help="total coincidences per second before postselection")
    p.add_argument("--duration", type=float, default=5.0, help="acquisition window, seconds")
    p.add_argument("--seed", type=int, default=0, help="root RNG seed")
    p.add_argument("--kappa-uncertainty", type=float, default=0.0,
                   help="one-sigma calibration error folded into error bars")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default="-", help="output path; '-' writes to stdout")
    p.add_argument("--config", default=None, help="key = value config file; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakps",
        description="Variable-strength qubit measurements with postselection: "
                    "sweeps, count simulation, estimation, decompositions.",
    )
    parser.add_argument("--version", action="version", version=f"weakps {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-weak-value", help="postselected-value curve over an angle grid")
    _add_strength_flags(p)
    _add_grid_flags(p)
    _add_postselect_flag(p)
    _add_imperfection_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("sweep-pusey", help="non-contextuality functionals over an angle grid")
    _add_strength_flags(p)
    _add_grid_flags(p)
    _add_postselect_flag(p)
    p.add_argument("--p-phi", choices=["model", "counts"], default="model",
                   help="overlap from the exact states, or re-derived from the "
                        "postselection probability and the calibrated strength")
    p.add_argument("--simulate", action="store_true",
                   help="evaluate from simulated coincidence counts instead of exact values")
    _add_acquisition_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("sweep-fisher", help="postselected Fisher information over an angle grid")
    _add_strength_flags(p)
    _add_grid_flags(p)
    _add_postselect_flag(p)
    _add_output_flags(p)

    p = sub.add_parser("simulate-counts", help="Poissonian coincidence counts over an angle grid")
    _add_strength_flags(p)
    _add_grid_flags(p)
    _add_imperfection_flags(p)
    _add_acquisition_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("estimate", help="invert measured values from a simulate-counts JSON file")
    p.add_argument("--input", required=True, help="JSON file produced by simulate-counts")
    _add_strength_flags(p)
    _add_postselect_flag(p, with_both=False)
    p.add_argument("--branch", required=True,
                   help="monotone branch 'LO,HI' in degrees for the inversion")
    _add_imperfection_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("table1", help="estimation pipeline at the standard working points")
    _add_strength_flags(p)
    _add_postselect_flag(p)
    p.add_argument("--repetitions", type=int, default=100)
    p.add_argument("--baseline", default=None, help="override the packaged baseline CSV")
    _add_imperfection_flags(p)
    _add_acquisition_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("decompose", help="consolidated postselection operator decomposition")
    _add_strength_flags(p)
    p.add_argument("--phi", choices=sorted(_NAMED_STATES), default=None,
                   help="named postselection state")
    p.add_argument("--phi-angle", type=float, default=None,
                   help="postselection angle in degrees: cos(2a)|0> + sin(2a)|1>")
    _add_output_flags(p)

    return parser


def _load_config_tokens(path: str) -> list[str]:
    """Turn a key = value config file into CLI tokens (prepended, so explicit
    flags override)."""
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
        if value.lower() in {"true", "yes", "on"}:
            tokens.append(flag)
        elif value.lower() in {"false", "no", "off"}:
            continue
        else:
            tokens.extend([flag, value])
    return tokens


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens right after the subcommand."""
    path = None
    stripped: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config needs a file path")
            path = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
            continue
        stripped.append(tok)
        i += 1
    if path is None:
        return argv
    if not stripped:
        raise ConfigError("--config given without a subcommand")
    return [stripped[0]] + _load_config_tokens(path) + stripped[1:]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _resolve_strength(args: argparse.Namespace) -> tuple[float, float]:
    """(kappa, mu_radians) from exactly one of --kappa / --mu."""
    if (args.kappa is None) == (args.mu is None):
        raise ConfigError("provide exactly one of --kappa or --mu")
    if args.kappa is not None:
        kappa = args.kappa
        if not 0.0 <= kappa <= 1.0:
            raise ConfigError(f"--kappa must lie in [0, 1], got {kappa!r}")
        return kappa, math.asin(kappa) / 4.0
    mu = math.radians(args.mu)
    kappa = math.sin(4.0 * mu)
    if not 0.0 <= kappa <= 1.0:
        raise ConfigError(f"--mu = {args.mu!r} deg gives strength {kappa!r} outside [0, 1]")
    return kappa, mu


def _resolve_imperfections(args: argparse.Namespace) -> ImperfectionParams | None:
    given = [args.visibility, args.t_h, args.t_v]
    if all(v is None for v in given):
        return None
    return ImperfectionParams(
        visibility=1.0 if args.visibility is None else args.visibility,
        t_h=1.0 if args.t_h is None else args.t_h,
        t_v=1.0 / 3.0 if args.t_v is None else args.t_v,
    )


def _theta_grid_deg(args: argparse.Namespace) -> np.ndarray:
    if args.theta_step <= 0.0:
        raise ConfigError("--theta-step must be positive")
    if args.theta_start >= args.theta_end:
        raise ConfigError("--theta-start must be below --theta-end")
    n = int(math.ceil((args.theta_end - args.theta_start) / args.theta_step - 1e-12))
    return args.theta_start + args.theta_step * np.arange(n)


def _signs(postselect: str) -> list[str]:
    return ["minus", "plus"] if postselect == "both" else [postselect]


def _acquisition(args: argparse.Namespace) -> AcquisitionConfig:
    return AcquisitionConfig(
        seed=args.seed,
        rate=args.rate,
        duration=args.duration,
        kappa_uncertainty=args.kappa_uncertainty,
    )


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _resolve_output_path(output: str) -> str:
    if output == "-":
        return output
    base = os.environ.get("WEAKPS_OUTPUT_DIR", "")
    if base and not os.path.isabs(output):
        return os.path.join(base, output)
    return output


def _write(output: str, fmt: str, metadata: dict, columns: list[str], records: list[dict]) -> None:
    metadata = dict(metadata)
    metadata["schema_version"] = SCHEMA_VERSION
    metadata["generated_at"] = datetime.now(timezone.utc).isoformat()
    if fmt == "json":
        payload = json.dumps({"metadata": metadata, "records": records}, indent=2)
        text = payload + "\n"
    else:
        lines = [f"# {key} = {_fmt(val)}" for key, val in metadata.items()]
        lines.append(",".join(columns))
        for rec in records:
            lines.append(",".join(_fmt(rec[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    path = _resolve_output_path(output)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _model_metadata(args, kappa: float, mu: float, imperfections: ImperfectionParams | None) -> dict:
    meta = {
        "command": args.command,
        "kappa": kappa,
        "mu_deg": math.degrees(mu),
    }
    if imperfections is not None:
        meta.update(
            visibility=imperfections.visibility,
            t_h=imperfections.t_h,
            t_v=imperfections.t_v,
            visibility_model=VISIBILITY_MODEL,
            transmission_convention="intensity",
        )
    return meta


def _cmd_sweep_weak_value(args) -> None:
    kappa, mu = _resolve_strength(args)
    imperfections = _resolve_imperfections(args)
    grid_deg = _theta_grid_deg(args)
    grid = np.deg2rad(grid_deg)
    signs = _signs(args.postselect)

    series: dict[str, np.ndarray] = {}
    for sign in signs:
        if imperfections is None:
            series[sign] = weak_value_curve_grid(grid, kappa, sign)
        else:
            model = ModelParams(kappa=kappa, postselect_sign=sign, imperfections=imperfections)
            series[sign] = np.array([model.sigma(float(t)) for t in grid])

    columns = ["theta_deg"]
    for sign in signs:
        columns.append(f"sigma_w_{sign}")
    for sign in signs:
        columns.append(f"anomalous_{sign}")
    records = []
    for i, theta_deg in enumerate(grid_deg):
        rec: dict[str, object] = {"theta_deg": float(theta_deg)}
        for sign in signs:
            rec[f"sigma_w_{sign}"] = float(series[sign][i])
            rec[f"anomalous_{sign}"] = int(abs(series[sign][i]) > 1.0)
        records.append(rec)

    meta = _model_metadata(args, kappa, mu, imperfections)
    meta.update(postselect=args.postselect, theta_start=args.theta_start,
                theta_end=args.theta_end, theta_step=args.theta_step)
    _write(args.output, args.format, meta, columns, records)


def _cmd_sweep_pusey(args) -> None:
    kappa, mu = _resolve_strength(args)
    grid_deg = _theta_grid_deg(args)
    grid = np.deg2rad(grid_deg)
    signs = _signs(args.postselect)
    acquisition = _acquisition(args) if args.simulate else None
    seeds = derive_seeds(args.seed, grid.size) if args.simulate else None

    columns = ["theta_deg"]
    for sign in signs:
        columns.extend([f"i0_{sign}", f"i1_{sign}"])
    records: list[dict] = [{"theta_deg": float(t)} for t in grid_deg]
    skipped = {sign: 0 for sign in signs}

    for sign in signs:
        sgn = sign_factor(sign)
        if not args.simulate:
            i0, i1, _ = kernels.pusey_curves(grid, kappa, sgn)
            for i in range(grid.size):
                records[i][f"i0_{sign}"] = float(i0[i])
                records[i][f"i1_{sign}"] = float(i1[i])
                if not math.isfinite(i0[i]):
                    skipped[sign] += 1
            continue
        for i, theta in enumerate(grid):
            probs = ideal_probability_record(float(theta), kappa)
            config = replace(acquisition, seed=seeds[i])
            counts = simulate_counts(probs, config)
            total = counts.total
            if total == 0:
                records[i][f"i0_{sign}"] = math.nan
                records[i][f"i1_{sign}"] = math.nan
                skipped[sign] += 1
                continue
            n0, n1 = counts.postselected(sign)
            p0_hat, p1_hat = n0 / total, n1 / total
            if args.p_phi == "model":
                phi = MINUS if sgn < 0 else PLUS
                p_phi = abs(phi.overlap(make_signal_state(float(theta)))) ** 2
            else:
                p_phi = p_phi_from_postselection(p0_hat + p1_hat, kappa)
            if p_phi <= PROB_FLOOR:
                records[i][f"i0_{sign}"] = math.nan
                records[i][f"i1_{sign}"] = math.nan
                skipped[sign] += 1
                continue
            records[i][f"i0_{sign}"] = pusey_from_probabilities(p0_hat, p_phi, kappa)
            records[i][f"i1_{sign}"] = pusey_from_probabilities(p1_hat, p_phi, kappa)

    meta = {
        "command": args.command,
        "kappa": kappa,
        "mu_deg": math.degrees(mu),
        "postselect": args.postselect,
        "p_phi_convention": args.p_phi,
        "simulated_counts": args.simulate,
        "theta_start": args.theta_start,
        "theta_end": args.theta_end,
        "theta_step": args.theta_step,
    }
    if args.simulate:
        meta.update(seed=args.seed, rate=args.rate, duration=args.duration)
    for sign in signs:
        meta[f"skipped_{sign}"] = skipped[sign]
    _write(args.output, args.format, meta, columns, records)


def _cmd_sweep_fisher(args) -> None:
    kappa, mu = _resolve_strength(args)
    grid_deg = _theta_grid_deg(args)
    grid = np.deg2rad(grid_deg)
    signs = _signs(args.postselect)

    columns = ["theta_deg"]
    for sign in signs:
        columns.append(f"f_ps_{sign}")
    columns.append("q")
    for sign in signs:
        columns.append(f"budget_lhs_{sign}")
    f_series = {sign: fisher_curve_grid(grid, kappa, sign) for sign in signs}
    budget_series = {
        sign: f_series[sign] * kernels.postselect_probability(grid, kappa, sign_factor(sign))
        for sign in signs
    }
    records = []
    for i, theta_deg in enumerate(grid_deg):
        rec: dict[str, object] = {"theta_deg": float(theta_deg), "q": QUANTUM_FISHER_INFORMATION}
        for sign in signs:
            rec[f"f_ps_{sign}"] = float(f_series[sign][i])
            rec[f"budget_lhs_{sign}"] = float(budget_series[sign][i])
        records.append(rec)

    meta = {
        "command": args.command,
        "kappa": kappa,
        "mu_deg": math.degrees(mu),
        "postselect": args.postselect,
        "theta_start": args.theta_start,
        "theta_end": args.theta_end,
        "theta_step": args.theta_step,
    }
    _write(args.output, args.format, meta, columns, records)


def _cmd_simulate_counts(args) -> None:
    kappa, mu = _resolve_strength(args)
    imperfections = _resolve_imperfections(args)
    grid_deg = _theta_grid_deg(args)
    acquisition = _acquisition(args)
    seeds = derive_seeds(args.seed, grid_deg.size)

    columns = ["theta_deg", "n_mp", "n_mm", "n_pp", "n_pm", "seed"]
    records = []
    for i, theta_deg in enumerate(grid_deg):
        theta = math.radians(float(theta_deg))
        if imperfections is None:
            probs = ideal_probability_record(theta, kappa)
        else:
            probs = imperfect_joint_probs(theta, mu, imperfections)
        counts = simulate_counts(probs, replace(acquisition, seed=seeds[i]))
        rec = {"theta_deg": float(theta_deg), "seed": seeds[i]}
        rec.update(counts.as_dict())
        records.append(rec)

    meta = _model_metadata(args, kappa, mu, imperfections)
    meta.update(
        theta_start=args.theta_start,
        theta_end=args.theta_end,
        theta_step=args.theta_step,
        rate=args.rate,
        duration=args.duration,
        seed=args.seed,
        kappa_uncertainty=args.kappa_uncertainty,
    )
    _write(args.output, args.format, meta, columns, records)


def _cmd_estimate(args) -> None:
    try:
        with open(args.input, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read counts JSON {args.input!r}: {exc}") from exc
    in_meta = payload.get("metadata", {})
    in_records = payload.get("records", [])
    if not in_records:
        raise ConfigError("input file holds no count records")

    if args.kappa is None and args.mu is None:
        kappa = in_meta.get("kappa")
        if kappa is None:
            raise ConfigError("no --kappa/--mu given and none recorded in the input file")
        mu = math.asin(kappa) / 4.0
    else:
        kappa, mu = _resolve_strength(args)
    imperfections = _resolve_imperfections(args)
    sign = args.postselect

    try:
        lo_deg, hi_deg = (float(x) for x in args.branch.split(","))
    except ValueError as exc:
        raise ConfigError("--branch must be 'LO,HI' in degrees") from exc

    model = ModelParams(kappa=kappa, postselect_sign=sign, imperfections=imperfections)
    curve = build_calibration(model, 0.0, math.pi / 2.0, math.radians(0.05))
    branch = (math.radians(lo_deg), math.radians(hi_deg))

    acquisition = AcquisitionConfig(
        seed=0,
        rate=in_meta.get("rate", 2000.0),
        duration=in_meta.get("duration", 5.0),
        kappa_uncertainty=in_meta.get("kappa_uncertainty", 0.0),
    )

    columns = [
        "theta_deg", "sigma_hat", "sigma_variance", "theta_hat_deg",
        "variance_theta_deg2", "f_ps", "m_ps", "sigma_cr_deg2",
    ]
    records = []
    for rec_in in in_records:
        config = replace(acquisition, seed=int(rec_in.get("seed", 0)))
        counts = CountRecord(
            n_mp=int(rec_in["n_mp"]),
            n_mm=int(rec_in["n_mm"]),
            n_pp=int(rec_in["n_pp"]),
            n_pm=int(rec_in["n_pm"]),
            config=config,
        )
        sigma_hat, var_sigma = weak_value_from_counts(counts, kappa, sign)
        theta_hat = estimate_theta(curve, sigma_hat, branch)
        var_theta = propagate_variance(curve, theta_hat, var_sigma)
        n_a, n_b = counts.postselected(sign)
        m_ps = n_a + n_b
        sigma_cr = cramer_rao_variance(theta_hat, kappa, sign, m_ps)
        records.append({
            "theta_deg": float(rec_in.get("theta_deg", math.nan)),
            "sigma_hat": sigma_hat,
            "sigma_variance": var_sigma,
            "theta_hat_deg": math.degrees(theta_hat),
            "variance_theta_deg2": var_theta,
            "f_ps": fisher_ps_definition(theta_hat, kappa, sign),
            "m_ps": m_ps,
            "sigma_cr_deg2": sigma_cr,
        })

    meta = _model_metadata(args, kappa, mu, imperfections)
    meta.update(postselect=sign, branch_lo_deg=lo_deg, branch_hi_deg=hi_deg,
                input=os.path.basename(args.input))
    _write(args.output, args.format, meta, columns, records)


def _cmd_table1(args) -> None:
    kappa, mu = _resolve_strength(args)
    imperfections = _resolve_imperfections(args)
    acquisition = _acquisition(args)
    baseline = load_baseline(args.baseline)
    signs = _signs(args.postselect)

    columns = [
        "postselect", "theta_deg", "mean_theta_hat_deg", "variance_theta_deg2",
        "sigma_cr_deg2", "empirical_variance_deg2", "mean_m_ps", "n_ok", "n_failed",
        "baseline_variance_deg2", "baseline_cramer_rao_deg2",
    ]
    records = []
    for sign in signs:
        model = ModelParams(kappa=kappa, postselect_sign=sign, imperfections=imperfections)
        rows = table1_pipeline(TABLE1_THETAS_DEG[sign], model, acquisition, args.repetitions)
        for row in rows:
            base = baseline.get((sign, row.theta_deg), (math.nan, math.nan))
            records.append({
                "postselect": sign,
                "theta_deg": row.theta_deg,
                "mean_theta_hat_deg": row.mean_theta_hat_deg,
                "variance_theta_deg2": row.mean_variance_deg2,
                "sigma_cr_deg2": row.mean_sigma_cr_deg2,
                "empirical_variance_deg2": row.empirical_variance_deg2,
                "mean_m_ps": row.mean_m_ps,
                "n_ok": row.n_ok,
                "n_failed": len(row.failures),
                "baseline_variance_deg2": base[0],
                "baseline_cramer_rao_deg2": base[1],
            })

    meta = _model_metadata(args, kappa, mu, imperfections)
    meta.update(
        postselect=args.postselect,
        repetitions=args.repetitions,
        rate=args.rate,
        duration=args.duration,
        seed=args.seed,
        kappa_uncertainty=args.kappa_uncertainty,
        baseline_source=args.baseline or "packaged",
        baseline_note="baseline columns are published reference labels, not targets",
    )
    _write(args.output, args.format, meta, columns, records)


def _cmd_decompose(args) -> None:
    kappa, mu = _resolve_strength(args)
    if (args.phi is None) == (args.phi_angle is None):
        raise ConfigError("provide exactly one of --phi or --phi-angle")
    if args.phi is not None:
        phi = _NAMED_STATES[args.phi]
        phi_label = args.phi
    else:
        phi = make_signal_state(math.radians(args.phi_angle))
        phi_label = f"angle:{args.phi_angle}"
    result = decompose_consolidated(phi, kappa)

    meta = {
        "command": args.command,
        "kappa": kappa,
        "mu_deg": math.degrees(mu),
        "phi": phi_label,
    }
    if args.format == "json":
        metadata = dict(meta)
        metadata["schema_version"] = SCHEMA_VERSION
        metadata["generated_at"] = datetime.now(timezone.utc).isoformat()
        payload = {
            "metadata": metadata,
            "p_d": result.p_d,
            "s_matrix": [[float(x.real) for x in row] for row in result.s_matrix],
            "e_d": [[float(x.real) for x in row] for row in result.e_d],
        }
        text = json.dumps(payload, indent=2) + "\n"
        path = _resolve_output_path(args.output)
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return
    columns = ["p_d", "s_00", "s_01", "s_10", "s_11", "e_d_00", "e_d_01", "e_d_10", "e_d_11"]
    s = result.s_matrix
    e = result.e_d
    record = {
        "p_d": result.p_d,
        "s_00": float(s[0, 0].real), "s_01": float(s[0, 1].real),
        "s_10": float(s[1, 0].real), "s_11": float(s[1, 1].real),
        "e_d_00": float(e[0, 0].real), "e_d_01": float(e[0, 1].real),
        "e_d_10": float(e[1, 0].real), "e_d_11": float(e[1, 1].real),
    }
    _write(args.output, args.format, meta, columns, [record])


_COMMANDS = {
    "sweep-weak-value": _cmd_sweep_weak_value,
    "sweep-pusey": _cmd_sweep_pusey,
    "sweep-fisher": _cmd_sweep_fisher,
    "simulate-counts": _cmd_simulate_counts,
    "estimate": _cmd_estimate,
    "table1": _cmd_table1,
    "decompose": _cmd_decompose,
}


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeakpsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
