import inspect
import math

import numpy as np
import pytest

from oracles import (CSIGN, MINUS, ONE, PLUS, ZERO, checked_density, circuit_channels,
                     joint_channels, joint_probability, kraus_operators, product_density, signal)
from weakps import (IDEAL_GATE, AcquisitionConfig, EstimateBatch, ImperfectionParams,
                    ModelParams, Table1Row, decompose_consolidated, kernels,
                    p_phi_from_postselection, weak_values_from_counts)
from weakps.counting import postselected_counts
from weakps.estimation import channel_probabilities

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


# Each numeric parameter of the library: its name, and a call passing it a value
NUMERIC_PARAMETERS = {
    "ModelParams-kappa": ("kappa", lambda v: ModelParams(v, "minus")),
    "weak_values_from_counts-kappa": (
        "kappa", lambda v: weak_values_from_counts(np.array([[3, 1, 0, 0]]), v, "minus")),
    "p_phi_from_postselection-kappa": ("kappa", lambda v: p_phi_from_postselection(0.5, v)),
    "decompose_consolidated-kappa": (
        "kappa", lambda v: decompose_consolidated((0.5, 0.5, -0.5), v)),
    "pusey_functional-kappa": ("kappa", lambda v: kernels.pusey_functional(0.2, 0.5, v)),
    **{name: (name, lambda v, name=name: IDEAL_GATE.replace(**{name: v}))
       for name in ("visibility", "t_h", "t_v")},
    **{name: (name, lambda v, name=name: AcquisitionConfig(0, **{name: v}))
       for name in ("rate", "duration", "kappa_uncertainty")},
}


@pytest.mark.parametrize("value", [True, "0.3", 10**400, math.nan, -0.1],
                         ids=["true", "a-string", "int-past-float", "nan", "negative"])
@pytest.mark.parametrize("name, call", NUMERIC_PARAMETERS.values(), ids=NUMERIC_PARAMETERS)
def test_every_numeric_parameter_refuses_what_is_not_a_number_in_its_range(name, call, value):
    call(0.3)
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(value)


_GATE = ImperfectionParams(0.78, 0.98, 0.34)
_VALUES, _COUNTS, _STATUS = np.array([1.0, 2.0]), np.array([3, 4]), np.array([0, 1], dtype=np.int8)

# Per record class: its parameters in field order, their defaults, one
# record's fields, and that record's repr as written by the dataclasses that
# the classes were before
RECORDS = {
    AcquisitionConfig: (
        ["seed", "rate", "duration", "kappa_uncertainty"],
        {"rate": 2000.0, "duration": 5.0, "kappa_uncertainty": 0.0}, (7, 100.0, 2.0, 0.01),
        "AcquisitionConfig(seed=7, rate=100.0, duration=2.0, kappa_uncertainty=0.01)"),
    ImperfectionParams: (["visibility", "t_h", "t_v"], {}, (0.9, 1.0, 0.3),
                         "ImperfectionParams(visibility=0.9, t_h=1.0, t_v=0.3)"),
    ModelParams: (
        ["kappa", "postselect_sign", "imperfections"], {"imperfections": None},
        (0.3, "plus", _GATE),
        "ModelParams(kappa=0.3, postselect_sign='plus', imperfections=ImperfectionParams("
        "visibility=0.78, t_h=0.98, t_v=0.34))"),
    EstimateBatch: (
        ["theta_hat_deg", "variance_theta_deg2", "sigma_cr_deg2", "f_ps", "m_ps", "status",
         "theta_hats", "slopes"], {}, (*[_VALUES] * 4, _COUNTS, _STATUS, _VALUES, _VALUES),
        "EstimateBatch(theta_hat_deg=array([1., 2.]), variance_theta_deg2=array([1., 2.]), "
        "sigma_cr_deg2=array([1., 2.]), f_ps=array([1., 2.]), m_ps=array([3, 4]), "
        "status=array([0, 1], dtype=int8))"),
    Table1Row: (
        ["theta_deg", "postselect_sign", "theta_hat_deg", "variance_theta_deg2",
         "sigma_cr_deg2", "f_ps", "m_ps", "failures_by_type"], {},
        (20.0, "minus", *[_VALUES] * 4, _COUNTS, {"OutOfRange": 2}),
        "Table1Row(theta_deg=20.0, postselect_sign='minus', theta_hat_deg=array([1., 2.]), "
        "variance_theta_deg2=array([1., 2.]), sigma_cr_deg2=array([1., 2.]), "
        "f_ps=array([1., 2.]), m_ps=array([3, 4]), failures_by_type={'OutOfRange': 2})"),
}
VALUE_TYPES = (AcquisitionConfig, ImperfectionParams, ModelParams)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_keep_their_dataclass_behaviour(cls):
    names, defaults, fields, text = RECORDS[cls]
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == names  # st.builds and positional callers rely on the order
    assert {name: p.default for name, p in parameters.items()
            if p.default is not p.empty} == defaults
    record = cls(*fields)
    assert repr(record) == text
    assert repr(cls(**dict(zip(names, fields)))) == text
    given = len(names) - len(defaults)
    assert repr(cls(*fields[:given])) == repr(cls(*fields[:given], **defaults))
    twin = cls(*fields)
    if cls in VALUE_TYPES:
        assert record == twin and hash(record) == hash(twin)
        assert record != type("Sub", (cls,), {})(*fields)  # nor equal to a subclass's
        if defaults:
            assert record != cls(*fields[:given])
    else:
        assert record != twin and record == record
    for name in (names[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


def test_replace_validates_the_new_record():
    assert _GATE.replace(t_h=1.0) == ImperfectionParams(0.78, 1.0, 0.34)
    with pytest.raises(ValueError, match=r"^t_v must lie in \[0, 1\], got 2.0$"):
        _GATE.replace(t_v=2.0)
    with pytest.raises(TypeError):
        _GATE.replace(kappa=0.3)


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
        fast = channel_probabilities(theta, kappa, None)
        slow = joint_channels(signal(theta), kappa)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-14)


def test_record_channel_selection():
    # the count path and the model keep the same pair: (mp, mm) for minus
    probs = channel_probabilities(np.array([20 * D2R]), 0.335, None).T
    counts = np.round(probs * 1e6).astype(np.int64)  # rows of counts in the channels' order
    assert postselected_counts(counts, "minus").tolist() == counts[:, :2].tolist()
    assert postselected_counts(counts, "plus").tolist() == counts[:, 2:].tolist()
    p_ps = ModelParams(0.335, "minus").evaluate(np.array([20 * D2R]))["p_ps"]
    assert p_ps[0] == pytest.approx(probs[0, 0] + probs[0, 1], abs=1e-15)
