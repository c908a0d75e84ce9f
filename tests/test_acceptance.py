"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from oracles import (MINUS, PLUS, circuit_channels, consolidated_channel, fisher_ps_definition,
                     four_outcome_bloch_angles, ideal_postselect_probability, ideal_sigma,
                     imperfect_joint_probs, joint_probability, postselected_value, projector,
                     pusey_functional, pusey_sweep, signal)
import weakps as w
from weakps import kernels
from weakps.errors import DegenerateConditional
from weakps.estimation import OK, TABLE1_THETAS_DEG
from weakps.states import sign_factor
from weakps.weak import QUANTUM_FISHER_INFORMATION

D2R = math.pi / 180.0
KAPPAS = (0.1, 0.335, 0.7, 0.95)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def test_criterion_01_circuit_matches_measurement_operators():
    t0 = time.perf_counter()
    worst = 0.0
    for theta_deg in range(0, 91):
        theta = theta_deg * D2R
        psi = signal(theta)
        for k10 in range(0, 11):
            kappa = k10 / 10.0
            mu = math.asin(kappa) / 4.0
            expected = (
                joint_probability(psi, MINUS, kappa, 0),
                joint_probability(psi, MINUS, kappa, 1),
                joint_probability(psi, PLUS, kappa, 0),
                joint_probability(psi, PLUS, kappa, 1),
            )
            got = circuit_channels(theta, mu).tolist()
            worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "circuit-equivalence",
        worst < 1e-12 and elapsed < 1.0,
        f"max |diff| = {worst:.2e} over 91x11 grid, {elapsed:.2f} s",
    )


def test_criterion_02_weak_value_laws():
    ok = True
    details = []
    for kappa in KAPPAS:
        model = w.ModelParams(kappa, "minus")
        ok &= model.checked(0.0)["sigma"] == 1.0
        ok &= abs(model.checked(22.5 * D2R)["sigma"]) < 1e-12
        r = math.sqrt(1 - kappa**2)
        theta_star = math.asin(r) / 4.0
        peak = float(model.checked(theta_star)["sigma"])
        ok &= abs(peak - 1.0 / kappa) < 1e-9
        grid = np.arange(0.0, 90.0, 0.02) * D2R
        values = model.checked(grid)["sigma"]
        ok &= float(np.max(np.abs(values))) <= 1.0 / kappa + 1e-9
        ok &= bool(np.any(np.abs(values) > 1.0))  # anomalies exist below kappa=1
        details.append(f"k={kappa}: max={peak:.6f}")
    projective = w.ModelParams(1.0, "minus").checked(np.arange(0.0, 90.0, 0.02) * D2R)["sigma"]
    ok &= bool(np.all(np.abs(projective) <= 1.0 + 1e-15))
    _report(2, "weak-value-laws", ok, "; ".join(details))


def test_criterion_03_fisher_consistency():
    ok = True
    h = 1e-6
    worst_pair = 0.0
    worst_fd = 0.0
    for kappa in KAPPAS:
        model = w.ModelParams(kappa, "minus")
        for theta_deg in np.arange(0.5, 90.0, 0.5):
            theta = float(theta_deg) * D2R
            sigma = float(model.checked(theta)["sigma"])
            if 1.0 - abs(kappa * sigma) < 1e-6:
                continue
            f_def = fisher_ps_definition(theta, kappa, "minus")
            f_closed = float(kernels.fisher_from_weak_value(
                sigma, model.checked(theta)["slope"], kappa
            ))
            worst_pair = max(worst_pair, abs(f_def / f_closed - 1.0))

    def _pcs(theta, kappa):
        p0, p1 = kernels.channel_probabilities(theta, kappa)[:2].tolist()
        pc0 = p0 / (p0 + p1)
        return pc0, 1.0 - pc0

    for kappa in KAPPAS:
        for theta_deg in (5.0, 20.0, 22.5, 40.0, 70.0):
            theta = theta_deg * D2R
            pc0p, pc1p = _pcs(theta + h, kappa)
            pc0m, pc1m = _pcs(theta - h, kappa)
            pc0, pc1 = _pcs(theta, kappa)
            fd = ((pc0p - pc0m) / (2 * h)) ** 2 / pc0 + ((pc1p - pc1m) / (2 * h)) ** 2 / pc1
            f_def = fisher_ps_definition(theta, kappa, "minus")
            worst_fd = max(worst_fd, abs(f_def / fd - 1.0))
    ok &= worst_pair < 1e-9
    ok &= worst_fd < 1e-6

    kappa = 0.335
    expected = 16 * kappa**2 / (1 - math.sqrt(1 - kappa**2)) ** 2
    got = fisher_ps_definition(22.5 * D2R, kappa, "minus")
    ok &= abs(got / expected - 1.0) < 1e-6

    delta = 1e-4
    worst_q = 0.0
    for theta in (0.0, 30 * D2R, 61 * D2R):
        a, b = signal(theta), signal(theta + delta)
        oracle = 8 * (1 - abs(np.vdot(a, b))) / delta**2
        worst_q = max(worst_q, abs(QUANTUM_FISHER_INFORMATION / oracle - 1.0))
    ok &= worst_q < 1e-4
    _report(
        3,
        "fisher-consistency",
        ok,
        f"def/closed rel = {worst_pair:.2e}, fd rel = {worst_fd:.2e}, "
        f"F(22.5deg) = {got:.1f}, Q rel = {worst_q:.2e}",
    )


def test_criterion_04_information_budget():
    rng = np.random.default_rng(20260810)
    checked = 0
    exceeds = False
    worst = -math.inf
    while checked < 10_000:
        kappa = float(rng.uniform(0.01, 1.0))
        theta = float(rng.uniform(0.0, math.pi / 2))
        sign = "minus" if rng.random() < 0.5 else "plus"
        try:
            f = fisher_ps_definition(theta, kappa, sign)
        except DegenerateConditional:
            continue
        budget = f * ideal_postselect_probability(theta, kappa, sign_factor(sign))
        worst = max(worst, budget)
        exceeds = exceeds or f > QUANTUM_FISHER_INFORMATION
        if budget > QUANTUM_FISHER_INFORMATION + 1e-9:
            _report(4, "information-budget", False, f"budget {budget!r} at k={kappa}")
        checked += 1
    # a grid point with information above the ceiling
    exceeds = exceeds or fisher_ps_definition(22.5 * D2R, 0.335, "minus") > 16.0
    _report(
        4,
        "information-budget",
        worst <= 16.0 + 1e-9 and exceeds,
        f"max budget = {worst:.6f} over 1e4 draws; super-ceiling point found = {exceeds}",
    )


def test_criterion_05_consolidated_decomposition():
    rng = np.random.default_rng(424242)
    worst_resid = 0.0
    eigs_ok = True
    for _ in range(1000):
        kappa = float(rng.uniform(0.0, 1.0))
        ang = float(rng.uniform(0.0, 2 * math.pi))
        phi = np.array([math.cos(ang), math.sin(ang)])
        p_d, s_matrix, e_d = w.decompose_consolidated((phi[0] ** 2, phi[1] ** 2, phi[0] * phi[1]),
                                                      kappa)
        oracle = consolidated_channel(projector(phi), kappa)
        recomposed = (1 - p_d) * projector(phi) + p_d * e_d
        worst_resid = max(worst_resid, float(np.max(np.abs(s_matrix - oracle))),
                          float(np.max(np.abs(recomposed - oracle))))
        eigs = np.linalg.eigvalsh(e_d)
        eigs_ok &= eigs.min() >= -1e-10 and eigs.max() <= 1 + 1e-10
        if p_d != pytest.approx(1 - math.sqrt(1 - kappa**2), abs=1e-12):
            eigs_ok = False
    # the alternative printed weight fails positivity below sqrt(3)/2
    alt_fails = all(1 - 2 * math.sqrt(1 - k**2) < 0 for k in (0.1, 0.335, 0.7, 0.86))
    s = consolidated_channel(projector(MINUS), 0.335)
    p_alt = 1 - 2 * math.sqrt(1 - 0.335**2)
    e_alt = (s - (1 - p_alt) * projector(MINUS)) / p_alt
    alt_eigs = np.linalg.eigvalsh(e_alt)
    alt_fails &= alt_eigs.min() < -1e-3 or alt_eigs.max() > 1 + 1e-3
    _report(
        5,
        "consolidated-decomposition",
        worst_resid < 1e-12 and eigs_ok and alt_fails,
        f"max residual = {worst_resid:.2e}; alternative weight invalid = {alt_fails}",
    )


def test_criterion_06_noncontextuality_functional():
    t0 = time.perf_counter()
    grid = np.arange(0.0, 90.0, 0.25) * D2R
    i0, i1, p_phi = pusey_sweep(grid, 0.0, "minus")
    keep = p_phi > 1e-30
    zero_ok = bool(np.all(i0[keep] == 0.0) and np.all(i1[keep] == 0.0))

    def scan_maximum(kappa):  # of max(I0, I1) on sweep-pusey's values, NaN skipped
        i0, i1, _ = pusey_sweep(scan_grid, kappa, "minus")
        return float(np.nanmax(np.maximum(i0, i1)))

    scan_grid = np.arange(0.0, 90.0, 0.1) * D2R
    max_value = scan_maximum(0.335)
    value_ok = abs(max_value - (-0.078)) <= 1e-3
    # closed-form stationary point of the functional over t = tan(2 theta)
    kappa = 0.335
    a = math.sqrt((1 + kappa) / 2)
    b = math.sqrt((1 - kappa) / 2)
    p_d = 1 - math.sqrt(1 - kappa**2)
    t_star = (a * b + 2 * p_d - a * a) / (b * b - a * b - 2 * p_d)
    stationary_ok = abs(t_star - 0.318) < 1e-3
    peak = pusey_functional(signal(math.atan(t_star) / 2), MINUS, kappa, 0)
    value_ok &= max_value <= peak + 1e-12 and abs(max_value - peak) < 1e-5

    i0_weak, _, _ = pusey_sweep(scan_grid, 0.01, "minus")
    sigma_weak = w.ModelParams(0.01, "minus").checked(scan_grid)["sigma"]
    positive = np.isfinite(i0_weak) & (i0_weak > 0)
    weak_ok = scan_maximum(0.01) > 0.0 and bool(np.any(positive))
    weak_ok &= bool(np.all(np.abs(sigma_weak[positive]) > 1.0))
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "noncontextuality-functional",
        zero_ok and value_ok and stationary_ok and weak_ok and elapsed < 5.0,
        f"max at k=0.335: {max_value:.6f} (stationary {peak:.6f}); "
        f"k=0.01 violations anomalous = {weak_ok}; {elapsed:.2f} s",
    )


def test_criterion_07_four_outcome_bloch_angles():
    worst = 0.0
    for four_mu in (0.1, 0.3417, 0.7):
        angles = sorted(four_outcome_bloch_angles(four_mu / 4.0).values())
        expected = sorted(
            [math.pi / 2 - four_mu, math.pi / 2 + four_mu,
             -math.pi / 2 + four_mu, -math.pi / 2 - four_mu]
        )
        worst = max(worst, max(abs(g - e) for g, e in zip(angles, expected)))
    _report(7, "four-outcome-bloch-angles", worst < 1e-9, f"max |diff| = {worst:.2e}")


def test_criterion_08_imperfection_model():
    worst = 0.0
    for kappa in KAPPAS:
        mu = math.asin(kappa) / 4.0
        for theta_deg in range(0, 91, 3):
            theta = theta_deg * D2R
            imperfect = imperfect_joint_probs(theta, mu, w.IDEAL_GATE)
            worst = max(worst, float(np.max(np.abs(imperfect - circuit_channels(theta, mu)))))
    regression_ok = worst < 1e-12

    kappa = 0.335
    mu = math.asin(kappa) / 4.0
    params = w.ImperfectionParams(visibility=0.78, t_h=0.98, t_v=0.34)
    thetas = np.arange(0.0, 45.0, 0.05) * D2R
    values = np.abs([postselected_value(imperfect_joint_probs(float(theta), mu, params),
                                        kappa, "minus") for theta in thetas])
    peak = float(values.max())
    window = float(np.sum(values > 1.0) * 0.05)
    realistic_ok = 1.0 < peak < 1.0 / kappa and window > 0.0
    _report(
        8,
        "imperfection-model",
        regression_ok and realistic_ok,
        f"ideal regression max |diff| = {worst:.2e}; degraded peak = {peak:.4f} "
        f"in (1, {1/kappa:.3f}), anomalous window = {window:.2f} deg",
    )


def test_criterion_09_monte_carlo_statistics():
    t0 = time.perf_counter()
    kappa = 0.335
    theta = 20 * D2R
    row = kernels.channel_probabilities(theta, kappa).tolist()

    config = w.AcquisitionConfig(seed=11, rate=2000.0, duration=5.0)
    first = w.draw_counts(row, np.array([config.seed], dtype=np.uint64), config)
    second = w.draw_counts(row, np.array([config.seed], dtype=np.uint64), config)
    determinism_ok = first.tolist() == second.tolist()

    def batch(seed):  # independent repetitions, seeded as table1 seeds them
        config = w.AcquisitionConfig(seed=seed)
        return w.draw_counts(row, w.derive_seeds(seed, reps), config)

    sigma_ideal = float(ideal_sigma(theta, kappa, -1.0))
    reps = 1000
    sigma_hats, variances = w.weak_values_from_counts(batch(515151), kappa, "minus")
    coverage = int(np.sum(np.abs(sigma_hats - sigma_ideal) <= np.sqrt(variances))) / reps
    coverage_ok = 0.62 <= coverage <= 0.74

    model = w.ModelParams(kappa=kappa, postselect_sign="minus")
    branch = model.branch_containing(theta)
    counts = batch(424243)
    sigma_hats, var_sigmas = w.weak_values_from_counts(counts, kappa, "minus")
    theta_hats = w.invert_branch(model, sigma_hats, branch)
    batch = w.assess_estimates(model, theta_hats, var_sigmas, counts[:, :2].sum(axis=1))
    assert np.all(batch.status == OK)
    propagated = batch.variance_theta_deg2
    se = theta_hats.std(ddof=1) / math.sqrt(reps)
    bias_ok = abs(theta_hats.mean() - theta) < 3 * se
    empirical_deg2 = float(np.var(np.degrees(theta_hats), ddof=1))
    variance_ok = abs(empirical_deg2 / float(np.mean(propagated)) - 1.0) <= 0.2
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "monte-carlo-statistics",
        determinism_ok and coverage_ok and bias_ok and variance_ok and elapsed < 60.0,
        f"coverage = {coverage:.3f}; bias = {abs(theta_hats.mean() - theta) / se:.2f} se; "
        f"emp/prop = {empirical_deg2 / float(np.mean(propagated)):.3f}; {elapsed:.1f} s",
    )


def test_criterion_10_estimation_table():
    config = w.AcquisitionConfig(seed=90210, rate=2000.0, duration=5.0)
    baseline = w.load_baseline()
    rows_total = 0
    audits_ok = True
    baseline_ok = True
    for sign in ("minus", "plus"):
        model = w.ModelParams(kappa=0.335, postselect_sign=sign)
        rows = next(w.table1_batch([TABLE1_THETAS_DEG[sign]], [model], config, repetitions=25))
        rows_total += len(rows)
        for row in rows:
            baseline_ok &= (sign, row.theta_deg) in baseline
            audits_ok &= row.n_ok + row.n_failed == 25
            for f_ps, theta_hat_deg, variance, cramer_rao in zip(
                    row.f_ps, row.theta_hat_deg, row.variance_theta_deg2, row.sigma_cr_deg2):
                budget = f_ps * ideal_postselect_probability(math.radians(theta_hat_deg), 0.335,
                                                             sign_factor(sign))
                audits_ok &= budget <= 16.0 + 1e-9
                audits_ok &= variance >= 0.0 and cramer_rao > 0.0
    baseline_ok &= baseline[("minus", 22.5)] == (0.036, 0.33)
    _report(
        10,
        "estimation-table",
        rows_total == 8 and audits_ok and baseline_ok,
        f"{rows_total} working points, budget audited on every estimate, "
        "published values ingested as labels only",
    )
