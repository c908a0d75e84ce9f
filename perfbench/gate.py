"""Correctness gate: every output the benchmark times is also checked.

* Sweeps are compared with closed forms computed here with numpy from the
  generated inputs: the postselected value ``cos4t / (1 + s r sin4t)``, the
  Pusey functional from the measurement operators' amplitudes, and the
  postselected Fisher information ``16 k^2 / (1 + s r sin4t)^2``.
* ``table1``, ``estimate``, ``simulate-counts`` and simulated sweeps are
  compared with reference records kept in ``reference/``: counts, ``n_ok``,
  ``n_failed`` and other integers exactly, angles within ``ANGLE_TOL_DEG``,
  other reals within ``REL_TOL``.
* Determinism: ``digest`` hashes an output without its ``generated_at``
  line, so passes with one seed must give equal digests.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

ANGLE_TOL_DEG = 1e-6
REL_TOL = 1e-6
ABS_TOL = 1e-12
# Closed-form sweep checks: CSV carries 12 significant digits.
SWEEP_RTOL = 1e-9
SWEEP_ATOL = 1e-9
# The Pusey check's tolerance grows by 1 + PUSEY_WIDEN / p_phi: near a zero of
# p_phi, rounding of a few ulps of 1 is large relative to p_phi.  This admits
# about 45 ulps (1e-9 * 1e-5 / 2.2e-16).
PUSEY_WIDEN = 1e-5

_ANGLE_FIELDS = {"mean_theta_hat_deg", "theta_hat_deg", "theta_deg"}
_EXACT_FIELDS = {"n_ok", "n_failed", "n_mp", "n_mm", "n_pp", "n_pm", "seed", "m_ps",
                 "postselect", "skipped_minus", "skipped_plus", "finite", "rows"}


def digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if b"generated_at" not in line:
                h.update(line)
    return h.hexdigest()


def read_output(path: str) -> tuple[dict, dict]:
    """(metadata, columns) of a CSV or JSON output; column values are raw
    (strings for CSV, JSON scalars for JSON)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        payload = json.loads(text)
        records = payload["records"]
        names = list(records[0]) if records else []
        return payload["metadata"], {n: [r[n] for r in records] for n in names}
    meta: dict = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(" = ")
        meta[key] = value
        i += 1
    names = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1:]]
    return meta, {n: [r[j] for r in rows] for j, n in enumerate(names)}


def numeric(values: list) -> np.ndarray:
    return np.asarray([float(v) for v in values], dtype=np.float64)


def theta_grid_deg(start: float, end: float, step: float) -> np.ndarray:
    n = int(math.ceil((end - start) / step - 1e-12))
    return start + step * np.arange(n)


def _close(got: np.ndarray, want: np.ndarray, rtol=SWEEP_RTOL, atol=SWEEP_ATOL) -> bool:
    if got.shape != want.shape:
        return False
    nan_got, nan_want = np.isnan(got), np.isnan(want)
    if not np.array_equal(nan_got, nan_want):
        return False
    ok = ~nan_want
    return bool(np.all(np.abs(got[ok] - want[ok]) <= atol + rtol * np.abs(want[ok])))


# Every sweep the benchmark runs uses --postselect both.
_SIGNS = (("minus", -1.0), ("plus", 1.0))


def check_sweep_weak_value(cols: dict, params: dict) -> list[str]:
    kappa, step = params["kappa"], params["theta_step"]
    theta = np.deg2rad(theta_grid_deg(0.0, 90.0, step))
    errors = []
    if not _close(numeric(cols["theta_deg"]), np.rad2deg(theta)):
        return ["sweep-weak-value: theta grid differs"]
    r = math.sqrt(1.0 - kappa * kappa)
    for name, sgn in _SIGNS:
        want = np.cos(4 * theta) / (1.0 + sgn * r * np.sin(4 * theta))
        got = numeric(cols[f"sigma_w_{name}"])
        if not _close(got, want):
            errors.append(f"sweep-weak-value: sigma_w_{name} differs from the closed form")
        flags = numeric(cols[f"anomalous_{name}"])
        decided = np.abs(np.abs(want) - 1.0) > 1e-9
        if not np.array_equal(flags[decided], (np.abs(want) > 1.0)[decided]):
            errors.append(f"sweep-weak-value: anomalous_{name} flags wrong")
    return errors


def pusey_closed_form(theta: np.ndarray, kappa: float, sgn: float):
    """(I_0, I_1, p_phi): I_x = p_x/p_phi - (1+k)/2 - p_d/p_phi with
    p_x = |<phi|M_x|psi>|^2, M_0 = diag(a, b), M_1 = diag(b, a),
    a, b = sqrt((1 +- k)/2), psi = (cos 2t, sin 2t), phi = (1, s)/sqrt 2."""
    a, b = math.sqrt((1 + kappa) / 2), math.sqrt((1 - kappa) / 2)
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    p0 = (a * c + sgn * b * s) ** 2 / 2
    p1 = (b * c + sgn * a * s) ** 2 / 2
    p_phi = (c + sgn * s) ** 2 / 2
    p_d = 1.0 - math.sqrt(1.0 - kappa * kappa)
    with np.errstate(divide="ignore", invalid="ignore"):
        i0 = np.where(p_phi > 1e-30, (p0 - p_d) / p_phi - (1 + kappa) / 2, np.nan)
        i1 = np.where(p_phi > 1e-30, (p1 - p_d) / p_phi - (1 + kappa) / 2, np.nan)
    return i0, i1, p_phi


def check_sweep_pusey(cols: dict, params: dict) -> list[str]:
    kappa, step = params["kappa"], params["theta_step"]
    theta = np.deg2rad(theta_grid_deg(0.0, 90.0, step))
    if not _close(numeric(cols["theta_deg"]), np.rad2deg(theta)):
        return ["sweep-pusey: theta grid differs"]
    errors = []
    for name, sgn in _SIGNS:
        want0, want1, p_phi = pusey_closed_form(theta, kappa, sgn)
        with np.errstate(divide="ignore"):
            widen = 1.0 + PUSEY_WIDEN / p_phi
        for col, want in ((f"i0_{name}", want0), (f"i1_{name}", want1)):
            got = numeric(cols[col])
            if not np.array_equal(np.isnan(got), np.isnan(want)):
                errors.append(f"sweep-pusey: {col} skipped points differ")
                continue
            ok = ~np.isnan(want)
            tol = SWEEP_ATOL * (1.0 + np.abs(want[ok])) * widen[ok]
            if np.any(np.abs(got[ok] - want[ok]) > tol):
                errors.append(f"sweep-pusey: {col} differs from the Pusey functional")
    return errors


def check_sweep_fisher(cols: dict, params: dict) -> list[str]:
    kappa, step = params["kappa"], params["theta_step"]
    theta = np.deg2rad(theta_grid_deg(0.0, 90.0, step))
    if not _close(numeric(cols["theta_deg"]), np.rad2deg(theta)):
        return ["sweep-fisher: theta grid differs"]
    r = math.sqrt(1.0 - kappa * kappa)
    errors = []
    if not np.all(numeric(cols["q"]) == 16.0):
        errors.append("sweep-fisher: q is not 16")
    for name, sgn in _SIGNS:
        den = 1.0 + sgn * r * np.sin(4 * theta)
        f = 16.0 * kappa * kappa / den**2
        if not _close(numeric(cols[f"f_ps_{name}"]), f):
            errors.append(f"sweep-fisher: f_ps_{name} differs from 16 k^2 / den^2")
        budget = numeric(cols[f"budget_lhs_{name}"])
        if not _close(budget, f * den / 2) or np.any(budget > 16.0 + 1e-9):
            errors.append(f"sweep-fisher: budget_lhs_{name} wrong or above 16")
    return errors


CLOSED_FORM_CHECKS = {
    "sweep-weak-value": check_sweep_weak_value,
    "sweep-pusey": check_sweep_pusey,
    "sweep-fisher": check_sweep_fisher,
}


def summarize(kind: str, meta: dict, cols: dict) -> dict | None:
    """The part of an output that the reference pins; None for outputs that
    have a closed-form check instead."""
    if kind in ("table1", "estimate", "counts"):
        names = [n for n in cols if not n.startswith("baseline_")]
        rows = len(next(iter(cols.values()))) if cols else 0
        return {"rows": [{n: _scalar(cols[n][i]) for n in names} for i in range(rows)]}
    if kind == "sweep-pusey-simulated":
        out = {"skipped_minus": int(meta["skipped_minus"]),
               "skipped_plus": int(meta["skipped_plus"]),
               "rows": len(cols["theta_deg"])}
        for n in cols:
            if n == "theta_deg":
                continue
            v = numeric(cols[n])
            out[n] = {"finite": int(np.isfinite(v).sum()),
                      "sum": float(np.nansum(v)),
                      "sample": [_scalar(x) for x in v[::90]]}
        return out
    return None


def _scalar(v):
    """JSON-able value of one output cell; NaN becomes the string "nan"."""
    if isinstance(v, str):
        try:
            f = float(v)
        except ValueError:
            return v
        v = int(f) if v.lstrip("-").isdigit() else f
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return v


def compare(ref, got, excluded=(), path="") -> list[str]:
    """Field-by-field comparison with the tolerance each field name implies."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected a mapping"]
        errors = []
        for key, want in ref.items():
            if key in excluded:
                continue
            if key not in got:
                errors.append(f"{path}.{key}: missing")
                continue
            errors += compare(want, got[key], excluded, f"{path}.{key}")
        return errors
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected {len(ref)} entries"]
        errors = []
        for i, (a, b) in enumerate(zip(ref, got)):
            errors += compare(a, b, excluded, f"{path}[{i}]")
        return errors
    field = path.rsplit(".", 1)[-1].split("[")[0]
    if field in _EXACT_FIELDS or isinstance(ref, str):
        return [] if ref == got else [f"{path}: {got!r} != reference {ref!r}"]
    if isinstance(got, str):
        return [f"{path}: {got!r} != reference {ref!r}"]
    tol = ANGLE_TOL_DEG if field in _ANGLE_FIELDS else ABS_TOL + REL_TOL * abs(ref)
    return [] if abs(ref - got) <= tol else [f"{path}: {got!r} != reference {ref!r}"]
