import math

import numpy as np
import pytest

from weakps import (
    MINUS,
    PLUS,
    PureQubit,
    consolidated_S,
    decompose_consolidated,
    ideal_probability_record,
    make_signal_state,
    p_phi_from_postselection,
    pusey_from_probabilities,
    pusey_functional,
    scan_violation,
    weak_value_curve_grid,
)
from weakps.errors import EmptyGrid, OrthogonalPostselection

D2R = math.pi / 180.0


# ---------------------------------------------------------------------------
# the functional itself
# ---------------------------------------------------------------------------

def test_unperturbed_limit_is_exactly_zero():
    # the closed-form evaluation cancels exactly at zero strength
    from weakps.kernels import pusey_curves

    grid = np.arange(0.0, 90.0, 0.25) * D2R
    for sign in (-1.0, 1.0):
        i0, i1, p_phi = pusey_curves(grid, 0.0, sign)
        keep = p_phi > 1e-30
        assert np.all(i0[keep] == 0.0)
        assert np.all(i1[keep] == 0.0)
    # the matrix route agrees to rounding (sqrt(1/2) squared is 1/2 + 1 ulp)
    for theta_deg in (0.0, 5.0, 20.0, 40.0, 70.0):
        psi = make_signal_state(theta_deg * D2R)
        for phi in (MINUS, PLUS):
            if abs(phi.overlap(psi)) ** 2 <= 1e-30:
                continue
            assert abs(pusey_functional(psi, phi, 0.0, 0)) <= 5e-15
            assert abs(pusey_functional(psi, phi, 0.0, 1)) <= 5e-15


def test_functional_oracle_value():
    # frozen from explicit matrix evaluation of the joint probability and overlap
    got = pusey_functional(make_signal_state(20 * D2R), MINUS, 0.335, 0)
    assert got == pytest.approx(-3.9869255996703523, abs=1e-12)


def test_orthogonal_postselection_raises():
    with pytest.raises(OrthogonalPostselection):
        pusey_functional(make_signal_state(22.5 * D2R), MINUS, 0.335, 0)


def test_record_consistency_between_routes():
    # state-level route vs probability-record arithmetic
    for theta_deg in (3.0, 11.0, 33.0, 57.0, 88.0):
        theta = theta_deg * D2R
        psi = make_signal_state(theta)
        rec = ideal_probability_record(theta, 0.335)
        p_phi = (1.0 - math.sin(4 * theta)) / 2.0
        p0, p1 = rec.postselected("minus")
        assert pusey_from_probabilities(p0, p_phi, 0.335) == pytest.approx(
            pusey_functional(psi, MINUS, 0.335, 0), abs=1e-12
        )
        assert pusey_from_probabilities(p1, p_phi, 0.335) == pytest.approx(
            pusey_functional(psi, MINUS, 0.335, 1), abs=1e-12
        )


def test_outcome_swap_mirror_symmetry():
    # swapping the outcome index mirrors the preparation angle about 22.5 deg
    kappa = 0.4
    for theta_deg in (4.0, 12.0, 31.0, 41.0):
        a = pusey_functional(make_signal_state(theta_deg * D2R), MINUS, kappa, 1)
        b = pusey_functional(make_signal_state((45.0 - theta_deg) * D2R), MINUS, kappa, 0)
        assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

def _stationary_maximum(kappa):
    """Closed-form stationary point of the outcome-0 functional over
    t = tan(2 theta) for the minus postselection."""
    a = math.sqrt((1 + kappa) / 2)
    b = math.sqrt((1 - kappa) / 2)
    p_d = 1 - math.sqrt(1 - kappa**2)
    t_star = (a * b + 2 * p_d - a * a) / (b * b - a * b - 2 * p_d)
    theta_star = math.atan(t_star) / 2
    value = pusey_functional(make_signal_state(theta_star), MINUS, kappa, 0)
    return t_star, theta_star, value


def test_scan_no_violation_at_calibrated_strength():
    grid = np.arange(0.0, 90.0, 0.1) * D2R
    scan = scan_violation(0.335, "minus", grid)
    assert not scan.violated
    assert scan.max_value == pytest.approx(-0.078, abs=1e-3)
    t_star, theta_star, peak = _stationary_maximum(0.335)
    assert t_star == pytest.approx(0.318, abs=1e-3)
    # grid maximum sits just under the stationary value
    assert scan.max_value <= peak + 1e-12
    assert scan.max_value == pytest.approx(peak, abs=1e-5)
    assert scan.argmax_theta == pytest.approx(theta_star, abs=0.1 * D2R)


def test_scan_projective_strength_has_wide_margin():
    grid = np.arange(0.0, 90.0, 0.1) * D2R
    for sign in ("minus", "plus"):
        scan = scan_violation(1.0, sign, grid)
        # at full strength the disturbed weight is 1, pushing the functional
        # at least one unit below zero
        assert scan.max_value <= -1.0 + 1e-12


def test_scan_weak_regime_finds_violation():
    grid = np.arange(0.0, 90.0, 0.1) * D2R
    scan = scan_violation(0.01, "minus", grid)
    assert scan.violated and scan.max_value > 0.0


def test_weak_regime_violations_cooccur_with_anomalies():
    for kappa in (0.005, 0.01, 0.02):
        grid = np.arange(0.05, 90.0, 0.1) * D2R
        from weakps.kernels import pusey_curves

        i0, _, p_phi = pusey_curves(grid, kappa, -1.0)
        sigma = weak_value_curve_grid(grid, kappa, "minus")
        positive = np.isfinite(i0) & (i0 > 0.0)
        assert np.any(positive)
        assert np.all(np.abs(sigma[positive]) > 1.0)
        # first-order shape of the functional in the weak regime; the
        # truncation error of the expansion is itself first order in kappa
        approx = (kappa / 2.0) * (sigma - 1.0) - kappa**2 / (2.0 * p_phi)
        meaningful = (p_phi > 0.01) & (np.abs(i0) > 1e-3)
        rel = np.abs(i0[meaningful] - approx[meaningful]) / np.abs(i0[meaningful])
        assert np.max(rel) < 8.0 * kappa


def test_scan_reports_skipped_points():
    grid = np.array([10.0, 22.5, 40.0]) * D2R
    scan = scan_violation(0.335, "minus", grid)
    assert len(scan.skipped) == 1
    assert scan.skipped[0] == pytest.approx(22.5 * D2R, abs=1e-15)


def test_scan_empty_grid():
    with pytest.raises(EmptyGrid):
        scan_violation(0.335, "minus", np.array([]))
    with pytest.raises(EmptyGrid):
        scan_violation(0.335, "minus", np.array([22.5 * D2R]))


# ---------------------------------------------------------------------------
# consolidated-operator decomposition
# ---------------------------------------------------------------------------

def test_consolidated_limits():
    assert np.allclose(consolidated_S(MINUS, 0.0), MINUS.projector(), atol=1e-15)
    phi = make_signal_state(0.2)
    s_full = consolidated_S(phi, 1.0)
    assert np.allclose(s_full, np.diag([abs(phi.a0) ** 2, abs(phi.a1) ** 2]), atol=1e-15)


def test_consolidated_off_diagonal_shrinkage():
    kappa = 0.335
    s = consolidated_S(MINUS, kappa)
    proj = MINUS.projector()
    ratio = s[0, 1] / proj[0, 1]
    assert ratio == pytest.approx(math.sqrt(1 - kappa**2), abs=1e-15)
    assert np.trace(s).real == pytest.approx(1.0, abs=1e-12)


def test_decomposition_fixed_point():
    result = decompose_consolidated(MINUS, 0.335)
    assert result.p_d == pytest.approx(0.05778187238835186, abs=1e-15)
    assert np.allclose(result.e_d, np.eye(2) / 2, atol=1e-12)
    result = decompose_consolidated(MINUS, 0.0)
    assert result.p_d == 0.0
    assert np.allclose(result.s_matrix, MINUS.projector(), atol=1e-15)
    phi = make_signal_state(0.2)
    result = decompose_consolidated(phi, 1.0)
    assert result.p_d == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(result.e_d, np.diag([abs(phi.a0) ** 2, abs(phi.a1) ** 2]), atol=1e-12)


def test_decomposition_random_states_and_strengths():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        kappa = float(rng.uniform(0.0, 1.0))
        ang = float(rng.uniform(0.0, 2 * math.pi))
        phase = float(rng.uniform(0.0, 2 * math.pi))
        phi = PureQubit(math.cos(ang), math.sin(ang) * complex(math.cos(phase), math.sin(phase)))
        result = decompose_consolidated(phi, kappa)
        recomposed = (1 - result.p_d) * phi.projector() + result.p_d * result.e_d
        worst = max(worst, float(np.max(np.abs(result.s_matrix - recomposed))))
        eigs = np.linalg.eigvalsh(result.e_d)
        assert eigs.min() >= -1e-10 and eigs.max() <= 1 + 1e-10
        assert result.p_d == pytest.approx(1 - math.sqrt(1 - kappa**2), abs=1e-15)
    assert worst < 1e-12


def test_alternative_disturbance_weight_is_not_a_probability():
    # the weight 1 - 2 sqrt(1-k^2), sometimes quoted for this decomposition,
    # is negative below kappa = sqrt(3)/2 and its forced effect leaves [0, 1]
    for kappa in (0.1, 0.335, 0.7, 0.86):
        assert 1 - 2 * math.sqrt(1 - kappa**2) < 0.0
    kappa = 0.335
    p_alt = 1 - 2 * math.sqrt(1 - kappa**2)
    s = consolidated_S(MINUS, kappa)
    e_alt = (s - (1 - p_alt) * MINUS.projector()) / p_alt
    eigs = np.linalg.eigvalsh(e_alt)
    assert eigs.min() < -0.03 or eigs.max() > 1.03


def test_p_phi_recovery_from_postselection_probability():
    kappa = 0.335
    r = math.sqrt(1 - kappa**2)
    for theta_deg in (5.0, 20.0, 40.0, 70.0):
        theta = theta_deg * D2R
        for sgn in (-1.0, 1.0):
            p_total = (1 + sgn * r * math.sin(4 * theta)) / 2
            expected = (1 + sgn * math.sin(4 * theta)) / 2
            assert p_phi_from_postselection(p_total, kappa) == pytest.approx(
                expected, abs=1e-12
            )
    with pytest.raises(ValueError):
        p_phi_from_postselection(0.5, 1.0)
