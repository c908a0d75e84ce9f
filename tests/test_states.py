import math

import numpy as np
import pytest

from oracles import (CSIGN, MINUS, ONE, PLUS, ZERO, checked_density, circuit_channels,
                     joint_channels, joint_probability, kraus_operators, product_density, signal)
from weakps import ModelParams, Strength, kernels
from weakps.counting import postselected_counts

D2R = math.pi / 180.0


def test_signal_examples():
    assert signal(0.0).tolist() == [1.0, 0.0]
    np.testing.assert_allclose(signal(math.pi / 8.0), [math.sqrt(2) / 2] * 2, rtol=0, atol=1e-15)
    np.testing.assert_allclose(signal(math.pi / 4.0), [0.0, 1.0], rtol=0, atol=1e-15)


def test_states_normalized():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(-10, 10, 200):
        assert abs(np.sum(signal(theta) ** 2) - 1.0) < 1e-12
    for state in (ZERO, ONE, PLUS, MINUS):
        assert abs(np.sum(state ** 2) - 1.0) < 1e-15


def test_strength_bounds():
    Strength(0.0)
    Strength(1.0)
    with pytest.raises(ValueError):
        Strength(-0.1)
    with pytest.raises(ValueError):
        Strength(1.1)


def test_kraus_limits():
    m0, m1 = kraus_operators(0.0)
    assert np.allclose(m0, np.eye(2) / math.sqrt(2), atol=1e-15)
    assert np.allclose(m1, np.eye(2) / math.sqrt(2), atol=1e-15)
    m0, m1 = kraus_operators(1.0)
    assert np.allclose(m0, np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(m1, np.diag([0.0, 1.0]), atol=1e-15)


def test_kraus_at_calibrated_strength():
    m0, m1 = kraus_operators(0.335)
    assert m0[0, 0] == pytest.approx(0.8170067319184096, abs=1e-15)
    assert m0[1, 1] == pytest.approx(0.5766281297335398, abs=1e-15)
    assert np.allclose(m1, m0[::-1, ::-1], atol=1e-15)


def test_kraus_completeness_random():
    rng = np.random.default_rng(7)
    worst = 0.0
    for kappa in rng.uniform(0.0, 1.0, 1000):
        m0, m1 = kraus_operators(float(kappa))
        resid = m0.T @ m0 + m1.T @ m1 - np.eye(2)
        worst = max(worst, float(np.max(np.abs(resid))))
    assert worst < 1e-12


def test_povm_examples():
    # the effects m_x^T m_x: unbiased at kappa = 0, the Z projectors at kappa = 1
    m0, m1 = kraus_operators(0.0)
    assert np.allclose(m0.T @ m0, np.eye(2) / 2, atol=1e-15)
    assert np.allclose(m1.T @ m1, np.eye(2) / 2, atol=1e-15)
    m0, _ = kraus_operators(1.0)
    assert np.allclose(m0.T @ m0, np.diag([1.0, 0.0]), atol=1e-15)


def test_joint_probability_trivial():
    zero, one = ZERO, ONE
    assert joint_probability(zero, zero, 1.0, 0) == pytest.approx(1.0, abs=1e-15)
    for kappa in (0.0, 0.3, 1.0):
        assert joint_probability(zero, one, kappa, 0) == pytest.approx(0.0, abs=1e-15)


def test_joint_probability_oracle_value():
    # frozen from explicit 2x2 matrix-vector evaluation
    p0 = joint_probability(signal(20 * D2R), MINUS, 0.335, 0)
    assert p0 == pytest.approx(0.03256710560445614, abs=1e-15)


def test_joint_probability_monotone_in_strength():
    values = [joint_probability(ZERO, ZERO, k, 0) for k in np.linspace(0, 1, 101)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_joint_probability_rejects_bad_outcome():
    with pytest.raises(ValueError):
        joint_probability(ZERO, ZERO, 0.5, 2)


def _basis_density(i, j):
    vec = np.zeros(4, dtype=complex)
    vec[i] = 1.0
    return checked_density(np.outer(vec, vec.conj()))


def _csign_apply(rho):
    return checked_density(CSIGN @ rho @ CSIGN.conj().T)


def test_csign_on_basis_states():
    rho = _basis_density(0, 0)  # |00><00|
    assert np.allclose(_csign_apply(rho), rho, atol=1e-15)
    rho11 = checked_density(np.diag([0.0, 0, 0, 1]))
    assert np.allclose(_csign_apply(rho11), rho11, atol=1e-15)


def test_csign_flips_meter_superposition():
    rho_in = product_density(ONE, PLUS)
    rho_expected = product_density(ONE, MINUS)
    assert np.allclose(_csign_apply(rho_in), rho_expected, atol=1e-15)


def test_csign_preserves_trace():
    rho = product_density(signal(0.3), signal(0.1))
    assert _csign_apply(rho).trace().real == pytest.approx(rho.trace().real, abs=1e-15)


def test_two_qubit_density_validation():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        checked_density(bad / 4.0)
    with pytest.raises(ValueError):
        checked_density(np.diag([0.5, 0.6, 0.0, -0.1]).astype(complex))


def test_circuit_no_coupling_at_mu_zero():
    # meter outcomes equiprobable given the signal outcome
    for theta in (0.0, 10 * D2R, 40 * D2R):
        p_mp, p_mm, p_pp, p_pm = circuit_channels(theta, 0.0)
        assert p_mp == pytest.approx(p_mm, abs=1e-12)
        assert p_pp == pytest.approx(p_pm, abs=1e-12)


def test_circuit_probabilities_sum_to_one():
    for mu in (0.0, 0.05, math.asin(0.335) / 4, math.pi / 8):
        assert circuit_channels(0.0, mu).sum() == pytest.approx(1.0, abs=1e-12)


def test_circuit_matches_measurement_operators():
    # spot grid; the acceptance suite runs the full 91x11 version
    mu = math.asin(0.335) / 4
    for theta_deg in range(0, 91, 7):
        theta = theta_deg * D2R
        psi, minus, plus = signal(theta), MINUS, PLUS
        p_mp, p_mm, p_pp, p_pm = circuit_channels(theta, mu)
        assert p_mp == pytest.approx(joint_probability(psi, minus, 0.335, 0), abs=1e-12)
        assert p_mm == pytest.approx(joint_probability(psi, minus, 0.335, 1), abs=1e-12)
        assert p_pp == pytest.approx(joint_probability(psi, plus, 0.335, 0), abs=1e-12)
        assert p_pm == pytest.approx(joint_probability(psi, plus, 0.335, 1), abs=1e-12)


def test_circuit_single_outcome_op():
    theta, mu = 20 * D2R, math.asin(0.335) / 4
    # signal minus, meter plus
    assert circuit_channels(theta, mu)[0] == pytest.approx(0.03256710560445614, abs=1e-12)


def test_probability_closure_measurement_route():
    rng = np.random.default_rng(5)
    for _ in range(200):
        theta = float(rng.uniform(0, math.pi / 2))
        kappa = float(rng.uniform(0, 1))
        assert abs(joint_channels(signal(theta), kappa).sum() - 1.0) < 1e-12


def test_ideal_record_matches_matrix_route():
    rng = np.random.default_rng(9)
    for _ in range(200):
        theta = float(rng.uniform(0, math.pi / 2))
        kappa = float(rng.uniform(0, 1))
        fast = kernels.channel_probabilities(theta, kappa)
        slow = joint_channels(signal(theta), kappa)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-14)


def test_record_channel_selection():
    # the count path and the model keep the same pair: (mp, mm) for minus
    probs = kernels.channel_probabilities(np.array([20 * D2R]), 0.335).T
    counts = np.round(probs * 1e6).astype(np.int64)  # rows of counts in the channels' order
    assert postselected_counts(counts, "minus").tolist() == counts[:, :2].tolist()
    assert postselected_counts(counts, "plus").tolist() == counts[:, 2:].tolist()
    p_ps = ModelParams(0.335, "minus").evaluate(np.array([20 * D2R]))["p_ps"]
    assert p_ps[0] == pytest.approx(probs[0, 0] + probs[0, 1], abs=1e-15)
