import math

import numpy as np
import pytest

from oracles import (MINUS, PLUS, consolidated_channel, ideal_sigma, projector, pusey_functional,
                     pusey_sweep, signal)
from weakps import ModelParams, decompose_consolidated, kernels, p_phi_from_postselection

D2R = math.pi / 180.0
# projector entries (phi_0^2, phi_1^2, phi_0 phi_1) of minus, as decompose takes them
MINUS_ENTRIES = (0.5, 0.5, -0.5)


# ---------------------------------------------------------------------------
# the functional itself
# ---------------------------------------------------------------------------

def test_unperturbed_limit_is_exactly_zero():
    # the closed-form evaluation cancels exactly at zero strength
    grid = np.arange(0.0, 90.0, 0.25) * D2R
    for sign in ("minus", "plus"):
        i0, i1, p_phi = pusey_sweep(grid, 0.0, sign)
        keep = p_phi > 1e-30
        assert np.all(i0[keep] == 0.0)
        assert np.all(i1[keep] == 0.0)
    # the matrix route agrees to rounding (sqrt(1/2) squared is 1/2 + 1 ulp)
    for theta_deg in (0.0, 5.0, 20.0, 40.0, 70.0):
        psi = signal(theta_deg * D2R)
        for phi in (MINUS, PLUS):
            if abs(np.vdot(phi, psi)) ** 2 <= 1e-30:
                continue
            assert abs(pusey_functional(psi, phi, 0.0, 0)) <= 5e-15
            assert abs(pusey_functional(psi, phi, 0.0, 1)) <= 5e-15


def test_functional_oracle_value():
    # frozen from explicit matrix evaluation of the joint probability and overlap
    got = pusey_functional(signal(20 * D2R), MINUS, 0.335, 0)
    assert got == pytest.approx(-3.9869255996703523, abs=1e-12)


def test_orthogonal_postselection_raises():
    with pytest.raises(ValueError, match="orthogonal"):
        pusey_functional(signal(22.5 * D2R), MINUS, 0.335, 0)


def test_record_consistency_between_routes():
    # state-level route vs the sweep's arithmetic on the model's probabilities
    for theta_deg in (3.0, 11.0, 33.0, 57.0, 88.0):
        theta = theta_deg * D2R
        psi = signal(theta)
        i0, i1, _ = pusey_sweep(np.array([theta]), 0.335, "minus")
        assert i0[0] == pytest.approx(pusey_functional(psi, MINUS, 0.335, 0), abs=1e-12)
        assert i1[0] == pytest.approx(pusey_functional(psi, MINUS, 0.335, 1), abs=1e-12)


def test_outcome_swap_mirror_symmetry():
    # swapping the outcome index mirrors the preparation angle about 22.5 deg
    kappa = 0.4
    for theta_deg in (4.0, 12.0, 31.0, 41.0):
        a = pusey_functional(signal(theta_deg * D2R), MINUS, kappa, 1)
        b = pusey_functional(signal((45.0 - theta_deg) * D2R), MINUS, kappa, 0)
        assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# grid scans: the maximum of max(I0, I1) over sweep-pusey's values, ties to
# the lowest index, NaN (orthogonal postselection) skipped
# ---------------------------------------------------------------------------

def _scan(kappa, sign, grid):
    """(maximum, its angle, the skipped angles) of max(I0, I1) over the grid."""
    i0, i1, _ = pusey_sweep(grid, kappa, sign)
    both = np.maximum(i0, i1)
    idx = int(np.nanargmax(both))
    return float(both[idx]), float(grid[idx]), grid[np.isnan(both)]


def _stationary_maximum(kappa):
    """Closed-form stationary point of the outcome-0 functional over
    t = tan(2 theta) for the minus postselection."""
    a = math.sqrt((1 + kappa) / 2)
    b = math.sqrt((1 - kappa) / 2)
    p_d = 1 - math.sqrt(1 - kappa**2)
    t_star = (a * b + 2 * p_d - a * a) / (b * b - a * b - 2 * p_d)
    theta_star = math.atan(t_star) / 2
    value = pusey_functional(signal(theta_star), MINUS, kappa, 0)
    return t_star, theta_star, value


def test_scan_no_violation_at_calibrated_strength():
    grid = np.arange(0.0, 90.0, 0.1) * D2R
    max_value, argmax_theta, _ = _scan(0.335, "minus", grid)
    assert not max_value > 0.0
    assert max_value == pytest.approx(-0.078, abs=1e-3)
    t_star, theta_star, peak = _stationary_maximum(0.335)
    assert t_star == pytest.approx(0.318, abs=1e-3)
    # grid maximum sits just under the stationary value
    assert max_value <= peak + 1e-12
    assert max_value == pytest.approx(peak, abs=1e-5)
    assert argmax_theta == pytest.approx(theta_star, abs=0.1 * D2R)


def test_scan_projective_strength_has_wide_margin():
    grid = np.arange(0.0, 90.0, 0.1) * D2R
    for sign in ("minus", "plus"):
        # at full strength the disturbed weight is 1, pushing the functional
        # at least one unit below zero
        assert _scan(1.0, sign, grid)[0] <= -1.0 + 1e-12


def test_scan_weak_regime_finds_violation():
    grid = np.arange(0.0, 90.0, 0.1) * D2R
    assert _scan(0.01, "minus", grid)[0] > 0.0


# The contextuality threshold in closed form: the ideal functional's largest
# value is 0 where tan 2mu = c, i.e. at kappa* = 2c / (1 + c^2) = 0.2492032...
_C_STAR = (2.0 * math.sqrt(6.0) - 3.0) / 15.0
KAPPA_STAR = 2.0 * _C_STAR / (1.0 + _C_STAR * _C_STAR)


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_violation_ends_at_the_closed_form_threshold(sign):
    # the library's functional on a fine grid changes sign within a relative
    # 1e-5 of kappa*, where its largest value is about +-2.1e-6
    grid = np.linspace(0.0, math.pi / 2.0, 200_001)
    largest = []
    for kappa in (KAPPA_STAR * (1.0 - 1e-5), KAPPA_STAR * (1.0 + 1e-5)):
        p0, p1, p_phi = ModelParams(kappa, sign).joint_pair(grid)
        largest.append(np.nanmax(kernels.pusey_functional(np.stack([p0, p1]), p_phi, kappa)))
    assert largest[0] > 0.0 > largest[1]


def test_weak_regime_violations_cooccur_with_anomalies():
    for kappa in (0.005, 0.01, 0.02):
        grid = np.arange(0.05, 90.0, 0.1) * D2R
        i0, _, p_phi = pusey_sweep(grid, kappa, "minus")
        sigma = ideal_sigma(grid, kappa, -1.0)
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
    skipped = _scan(0.335, "minus", grid)[2]
    assert len(skipped) == 1
    assert skipped[0] == pytest.approx(22.5 * D2R, abs=1e-15)


# ---------------------------------------------------------------------------
# consolidated-operator decomposition
# ---------------------------------------------------------------------------

def _entries(amplitudes):
    """Projector entries (phi_0^2, phi_1^2, phi_0 phi_1) of real amplitudes."""
    a0, a1 = amplitudes
    return a0 * a0, a1 * a1, a0 * a1


def test_consolidated_limits():
    assert np.allclose(decompose_consolidated(MINUS_ENTRIES, 0.0)[1], projector(MINUS), atol=1e-15)
    phi = _entries(signal(0.2))
    s_full = decompose_consolidated(phi, 1.0)[1]
    assert np.allclose(s_full, np.diag(phi[:2]), atol=1e-15)


def test_consolidated_off_diagonal_shrinkage():
    kappa = 0.335
    s = decompose_consolidated(MINUS_ENTRIES, kappa)[1]
    ratio = s[0, 1] / projector(MINUS)[0, 1]
    assert ratio == pytest.approx(math.sqrt(1 - kappa**2), abs=1e-15)
    assert np.trace(s) == pytest.approx(1.0, abs=1e-12)


def test_decomposition_fixed_point():
    p_d, _, e_d = decompose_consolidated(MINUS_ENTRIES, 0.335)
    assert p_d == pytest.approx(0.05778187238835186, abs=1e-15)
    assert e_d.tolist() == [[0.5, 0.0], [0.0, 0.5]]
    p_d, s_matrix, _ = decompose_consolidated(MINUS_ENTRIES, 0.0)
    assert p_d == 0.0
    assert np.allclose(s_matrix, projector(MINUS), atol=1e-15)
    phi = _entries(signal(0.2))
    p_d, _, e_d = decompose_consolidated(phi, 1.0)
    assert p_d == pytest.approx(1.0, abs=1e-15)
    assert e_d.tolist() == [[phi[0], 0.0], [0.0, phi[1]]]
    # p_d = kappa^2 / (1 + r) keeps its digits where 1 - r cancels
    assert decompose_consolidated(MINUS_ENTRIES, 1e-7)[0] == pytest.approx(5e-15, rel=1e-14)
    assert decompose_consolidated(MINUS_ENTRIES, 1e-8)[0] == pytest.approx(5e-17, rel=1e-14)


def test_decomposition_random_states_and_strengths():
    # the closed form against the Kraus route on a seeded (angle, kappa) grid,
    # with the recomposition identity and 0 <= eig(E_d) <= 1
    rng = np.random.default_rng(12345)
    for ang, kappa in zip(rng.uniform(0.0, 2 * math.pi, 1000), rng.uniform(0.0, 1.0, 1000)):
        amplitudes = np.array([math.cos(ang), math.sin(ang)])
        p_d, s_matrix, e_d = decompose_consolidated(_entries(amplitudes), kappa)
        oracle = consolidated_channel(projector(amplitudes), kappa)
        np.testing.assert_allclose(s_matrix, oracle, rtol=0, atol=1e-15)
        recomposed = (1 - p_d) * projector(amplitudes) + p_d * e_d
        np.testing.assert_allclose(recomposed, oracle, rtol=0, atol=1e-15)
        eigs = np.linalg.eigvalsh(e_d)
        assert eigs.min() >= 0.0 and eigs.max() <= 1.0
        assert p_d == pytest.approx(1 - math.sqrt(1 - kappa**2), abs=1e-15)


def test_consolidated_channel_is_identity_plus_dephasing():
    # what the functional's weight comes from: sum_x M_x rho M_x^T =
    # r rho + p_d Delta(rho) on every rho; the channel is also
    # (1 + r)/2 rho + (1 - r)/2 Z rho Z
    rng = np.random.default_rng(2024)
    z = np.diag([1.0, -1.0])
    for kappa in rng.uniform(0.0, 1.0, 200):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
        r = math.sqrt(1 - kappa**2)
        p_d = decompose_consolidated(MINUS_ENTRIES, kappa)[0]
        channel = consolidated_channel(rho, kappa)
        np.testing.assert_allclose(channel, r * rho + p_d * np.diag(np.diag(rho)),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(channel, (1 + r) / 2 * rho + (1 - r) / 2 * z @ rho @ z,
                                   rtol=0, atol=1e-15)


def test_effect_level_split_does_not_fix_the_weight():
    # S = (1 - p)|-><-| + p |+><+| with p = (1 - r)/2, half the functional's
    # weight, is a split into a valid effect too
    for kappa in (0.05, 0.335, 0.9):
        p = (1 - math.sqrt(1 - kappa**2)) / 2
        s = consolidated_channel(projector(MINUS), kappa)
        np.testing.assert_allclose((1 - p) * projector(MINUS) + p * projector(PLUS), s,
                                   rtol=0, atol=1e-15)
        assert p == pytest.approx(decompose_consolidated(MINUS_ENTRIES, kappa)[0] / 2, rel=1e-12)
        assert np.linalg.eigvalsh(projector(PLUS)).tolist() == pytest.approx([0.0, 1.0], abs=1e-15)


def test_alternative_disturbance_weight_is_not_a_probability():
    # the weight 1 - 2 sqrt(1-k^2), sometimes quoted for this decomposition,
    # is negative below kappa = sqrt(3)/2 and its forced effect leaves [0, 1]
    for kappa in (0.1, 0.335, 0.7, 0.86):
        assert 1 - 2 * math.sqrt(1 - kappa**2) < 0.0
    kappa = 0.335
    p_alt = 1 - 2 * math.sqrt(1 - kappa**2)
    s = decompose_consolidated(MINUS_ENTRIES, kappa)[1]
    e_alt = (s - (1 - p_alt) * projector(MINUS)) / p_alt
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
