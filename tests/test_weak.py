import math

import numpy as np
import pytest

from oracles import (fisher_ps_definition, four_outcome_bloch_angles, ideal_postselect_probability,
                     joint_channels, postselected_value, signal)
from weakps import ModelParams, kernels, weak_values_from_counts
from weakps.errors import DegenerateConditional, ZeroStrength
from weakps.estimation import channel_probabilities
from weakps.kernels import fisher_from_weak_value
from weakps.states import sign_factor
from weakps.weak import QUANTUM_FISHER_INFORMATION

D2R = math.pi / 180.0
KAPPAS = (0.1, 0.335, 0.7, 0.95)


def _sigma(thetas, kappa, sign):
    """The postselected value of the ideal model, as the library evaluates it."""
    return ModelParams(kappa, sign).checked(thetas)["sigma"]


def _pipeline_pcs(theta, kappa, sign):
    """The conditional pair (pc0, pc1) from the four channel probabilities."""
    probs = channel_probabilities(theta, kappa, None)
    p0, p1 = probs[:2] if sign == "minus" else probs[2:]
    pc0 = float(p0 / (p0 + p1))
    return pc0, 1.0 - pc0


# ---------------------------------------------------------------------------
# weak values
# ---------------------------------------------------------------------------

def test_weak_value_arithmetic():
    # the rescaled value (n0 - n1) / (kappa (n0 + n1)) of a counted pair
    def value(n0, n1, kappa):
        return float(weak_values_from_counts(np.array([[n0, n1, 0, 0]]), kappa, "minus")[0][0])

    assert value(1, 0, 0.5) == pytest.approx(2.0, abs=1e-15)
    assert abs(value(1, 0, 0.5)) > 1.0  # anomalous
    for kappa in (0.1, 0.5, 1.0):
        assert value(1, 1, kappa) == 0.0
    assert value(1335, 665, 0.335) == pytest.approx(1.0, abs=1e-12)


def test_weak_value_zero_strength():
    with pytest.raises(ZeroStrength):
        _sigma(0.1, 0.0, "minus")


def test_curve_endpoints():
    for kappa in KAPPAS:
        assert _sigma(0.0, kappa, "minus") == 1.0
        for sign in ("minus", "plus"):
            assert abs(_sigma(22.5 * D2R, kappa, sign)) < 1e-12


def test_curve_matches_pipeline_on_grid():
    # against the Kraus route's joint probabilities, conditioned and rescaled
    thetas = np.arange(0.0, 90.0, 0.5) * D2R
    for kappa in KAPPAS:
        for sign in ("minus", "plus"):
            curve = _sigma(thetas, kappa, sign)
            for i, theta in enumerate(thetas):
                channels = joint_channels(signal(float(theta)), kappa)
                oracle = postselected_value(channels, kappa, sign)
                assert curve[i] == pytest.approx(oracle, abs=1e-12)


def test_result_object_flags_anomaly():
    # anomalous: outside the spectrum [-1, 1] of Z
    sigma = float(_sigma(17.6 * D2R, 0.335, "minus"))
    assert abs(sigma) > 1.0 and sigma > 1.0
    assert abs(float(_sigma(22.5 * D2R, 0.335, "minus"))) <= 1.0


def test_extremum_law():
    for kappa in KAPPAS:
        r = math.sqrt(1 - kappa**2)
        theta_star = math.asin(r) / 4.0
        assert _sigma(theta_star, kappa, "minus") == pytest.approx(1 / kappa, abs=1e-9)
        # the plus postselection peaks where sin(4t) = -r
        theta_star_plus = (2.0 * math.pi - math.asin(r)) / 4.0
        assert abs(_sigma(theta_star_plus, kappa, "plus")) == pytest.approx(
            1 / kappa, abs=1e-9
        )
        # grid maximum does not exceed the closed-form extremum
        grid = np.arange(0.0, 90.0, 0.01) * D2R
        values = _sigma(grid, kappa, "minus")
        assert np.max(np.abs(values)) <= 1 / kappa + 1e-9
        assert np.max(np.abs(values)) >= 1 / kappa - 1e-3


def test_anomaly_exists_iff_not_projective():
    grid = np.arange(0.0, 90.0, 0.05) * D2R
    for kappa in (0.05, 0.335, 0.9, 0.999):
        values = _sigma(grid, kappa, "minus")
        assert np.any(np.abs(values) > 1.0)
    values = _sigma(grid, 1.0, "minus")
    assert np.all(np.abs(values) <= 1.0 + 1e-15)


def test_scale_bound_everywhere():
    grid = np.arange(0.0, 90.0, 0.1) * D2R
    rng = np.random.default_rng(2)
    for kappa in np.concatenate([np.array(KAPPAS), rng.uniform(0.01, 1, 20)]):
        for sign in ("minus", "plus"):
            values = _sigma(grid, float(kappa), sign)
            assert np.max(np.abs(kappa * values)) <= 1.0 + 1e-12


def test_slope_matches_finite_difference():
    h = 1e-6
    rng = np.random.default_rng(4)
    for _ in range(100):
        kappa = float(rng.uniform(0.05, 0.99))
        theta = float(rng.uniform(0.0, math.pi / 2))
        sign = "minus" if rng.random() < 0.5 else "plus"
        fd = (_sigma(theta + h, kappa, sign) - _sigma(theta - h, kappa, sign)) / (2 * h)
        analytic = ModelParams(kappa, sign).checked(theta)["slope"]
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def test_fisher_value_at_zero_crossing():
    kappa = 0.335
    expected = 16 * kappa**2 / (1 - math.sqrt(1 - kappa**2)) ** 2
    got = fisher_ps_definition(22.5 * D2R, kappa, "minus")
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(537.806906514349, rel=1e-9)
    # independent check: central differences of the pipeline conditionals
    h = 1e-6
    pc0p, pc1p = _pipeline_pcs(22.5 * D2R + h, kappa, "minus")
    pc0m, pc1m = _pipeline_pcs(22.5 * D2R - h, kappa, "minus")
    pc0, pc1 = _pipeline_pcs(22.5 * D2R, kappa, "minus")
    fd = ((pc0p - pc0m) / (2 * h)) ** 2 / pc0 + ((pc1p - pc1m) / (2 * h)) ** 2 / pc1
    assert got == pytest.approx(fd, rel=1e-6)


def test_fisher_projective_limit_matches_brute_force():
    # at kappa=1 the conditional distribution is (cos^2, sin^2): information 16
    for theta_deg in (10.0, 30.0, 60.0, 80.0):
        theta = theta_deg * D2R
        got = fisher_ps_definition(theta, 1.0, "minus")
        h = 1e-6
        pc0p, _ = _pipeline_pcs(theta + h, 1.0, "minus")
        pc0m, _ = _pipeline_pcs(theta - h, 1.0, "minus")
        pc0, pc1 = _pipeline_pcs(theta, 1.0, "minus")
        d = (pc0p - pc0m) / (2 * h)
        fd = d * d / pc0 + d * d / pc1
        assert got == pytest.approx(fd, rel=1e-6)
        assert got == pytest.approx(16.0, rel=1e-9)


def test_definition_equals_closed_form():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 500:
        kappa = float(rng.uniform(0.05, 1.0))
        theta = float(rng.uniform(0.0, math.pi / 2))
        sign = "minus" if rng.random() < 0.5 else "plus"
        sigma = float(_sigma(theta, kappa, sign))
        if 1.0 - abs(kappa * sigma) < 1e-6:
            continue  # too close to the pole for a meaningful comparison
        dsigma = float(ModelParams(kappa, sign).checked(theta)["slope"])
        a = fisher_ps_definition(theta, kappa, sign)
        b = float(fisher_from_weak_value(sigma, dsigma, kappa))
        assert a == pytest.approx(b, rel=1e-9)
        checked += 1


def test_closed_form_arithmetic():
    assert fisher_from_weak_value(0.0, 1.0, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert fisher_from_weak_value(0.3, 0.0, 0.5) == 0.0


def test_pole_handling():
    kappa = 0.335
    theta_star = math.asin(math.sqrt(1 - kappa**2)) / 4.0
    assert np.isnan(ModelParams(kappa, "minus").evaluate(np.array([theta_star]))["f_ps"][0])
    with pytest.raises(DegenerateConditional):
        fisher_ps_definition(theta_star, kappa, "minus")


def test_zero_strength_carries_no_information():
    assert fisher_ps_definition(0.3, 0.0, "minus") == 0.0


def test_quantum_fisher_information_fd_oracle():
    # fidelity-susceptibility limit: 8 (1 - |<psi(t)|psi(t+d)>|) / d^2
    delta = 1e-4
    for theta in (0.0, 30 * D2R, 77 * D2R):
        a, b = signal(theta), signal(theta + delta)
        overlap = abs(np.vdot(a, b))
        oracle = 8 * (1 - overlap) / delta**2
        assert QUANTUM_FISHER_INFORMATION == pytest.approx(oracle, rel=1e-4)


def test_budget_holds_and_is_beatable():
    rng = np.random.default_rng(8)
    seen_super = False
    checked = 0
    while checked < 2000:
        kappa = float(rng.uniform(0.01, 1.0))
        theta = float(rng.uniform(0.0, math.pi / 2))
        sign = "minus" if rng.random() < 0.5 else "plus"
        try:
            f_ps = fisher_ps_definition(theta, kappa, sign)
        except DegenerateConditional:
            continue
        assert f_ps >= 0.0
        budget = f_ps * ideal_postselect_probability(theta, kappa, sign_factor(sign))
        assert budget <= QUANTUM_FISHER_INFORMATION + 1e-9
        seen_super = seen_super or f_ps > QUANTUM_FISHER_INFORMATION
        checked += 1
    assert seen_super


# ---------------------------------------------------------------------------
# four-outcome geometry
# ---------------------------------------------------------------------------

def _expected_angle_set(four_mu):
    return sorted(
        [math.pi / 2 - four_mu, math.pi / 2 + four_mu, -math.pi / 2 + four_mu, -math.pi / 2 - four_mu]
    )


@pytest.mark.parametrize("four_mu", [0.1, 0.3417, 0.7])
def test_bloch_angles_match_meter_angle(four_mu):
    angles = four_outcome_bloch_angles(four_mu / 4.0)
    got = sorted(angles.values())
    for g, e in zip(got, _expected_angle_set(four_mu)):
        assert g == pytest.approx(e, abs=1e-9)


def test_bloch_angles_eigendecomposition_oracle():
    # rebuild each effect from scratch and extract its axis via eigh
    mu = 0.3417 / 4.0
    angles = four_outcome_bloch_angles(mu)
    meter = np.array([math.cos(2 * mu), math.sin(2 * mu)])
    z = np.diag([1.0, -1.0])
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    n_ops = {
        "p": np.diag([plus @ meter, plus @ (z @ meter)]),
        "m": np.diag([minus @ meter, minus @ (z @ meter)]),
    }
    for s_label, s_vec in (("p", plus), ("m", minus)):
        for m_label, n in n_ops.items():
            effect = n.T @ np.outer(s_vec, s_vec) @ n
            w, v = np.linalg.eigh(effect)
            axis = v[:, np.argmax(w)]
            bloch = math.atan2(2 * axis[0] * axis[1], axis[0] ** 2 - axis[1] ** 2)
            diff = (bloch - angles[s_label + m_label] + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) < 1e-9


def test_bloch_angles_weak_limit():
    angles = four_outcome_bloch_angles(1e-9)
    got = sorted(abs(a) for a in angles.values())
    for a in got:
        assert a == pytest.approx(math.pi / 2, abs=1e-6)


def test_bloch_angles_projective_limit():
    # sin(4mu) = 1: the pattern collapses to a Z measurement (angles 0 and pi,
    # the latter realized as +-pi depending on rounding of the tiny x part)
    angles = four_outcome_bloch_angles(math.pi / 8)
    magnitudes = sorted(abs(a) for a in angles.values())
    assert magnitudes[0] == pytest.approx(0.0, abs=1e-9)
    assert magnitudes[1] == pytest.approx(0.0, abs=1e-9)
    assert magnitudes[2] == pytest.approx(math.pi, abs=1e-9)
    assert magnitudes[3] == pytest.approx(math.pi, abs=1e-9)


def test_bloch_angles_rejects_out_of_range_meter():
    with pytest.raises(ValueError):
        four_outcome_bloch_angles(-0.1)
    with pytest.raises(ValueError):
        four_outcome_bloch_angles(math.pi)
