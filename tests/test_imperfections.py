import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (MINUS, PLUS, balance_operator, central_splitter_operator, circuit_channels,
                     dephase_computational, effective_kappa, imperfect_joint_probs,
                     joint_channels, postselected_value, product_density, projector, signal)
from weakps import (
    IDEAL_GATE,
    ImperfectionParams,
    ModelParams,
    assess_estimates,
    invert_branch,
    kernels,
)
from weakps.errors import AmbiguousBranch, GateStarved, ZeroPostselection
from weakps.estimation import OK, channel_probabilities
from weakps.imperfections import channel_matrix

D2R = math.pi / 180.0
KAPPA = 0.335
MU = math.asin(KAPPA) / 4.0
REALISTIC_GATE = ImperfectionParams(visibility=0.78, t_h=0.98, t_v=0.34)

# Deterministic examples and no example database: Tier-1 stays repeatable
# and leaves no .hypothesis/ directory behind.
PROPERTY = settings(derandomize=True, database=None, deadline=None)
GATES = st.builds(ImperfectionParams, visibility=st.floats(0.0, 1.0),
                  t_h=st.floats(0.05, 1.0), t_v=st.floats(0.05, 1.0))
KAPPAS = st.floats(0.01, 0.99)
# gates whose curve is neither flat (v -> 0) nor starved of postselections
# (full visibility with t_v -> 1), at strengths and postselections as Table 1 takes them
FORM_GATES = st.builds(ImperfectionParams, visibility=st.floats(0.3, 1.0),
                       t_h=st.floats(0.05, 1.0), t_v=st.floats(0.05, 0.9))
FORM_KAPPAS = st.floats(0.05, 0.99)
SIGNS = st.sampled_from(("minus", "plus"))


def _sigma(theta, params, sign="minus", kappa=KAPPA):
    return postselected_value(imperfect_joint_probs(theta, MU, params), kappa, sign)


def _per_attempt(thetas, kappa, gate):
    """The four channels' per-attempt probabilities over the angles: the rows
    of the channel matrix as trig forms, not renormalized."""
    basis = kernels.trig_basis(thetas)
    return np.stack([kernels.trig_form(row, basis) for row in channel_matrix(kappa, gate)])


def test_params_validation():
    with pytest.raises(ValueError):
        ImperfectionParams(1.2, 1.0, 0.3)
    with pytest.raises(ValueError):
        ImperfectionParams(1.0, -0.1, 0.3)


def test_ideal_parameters_reproduce_the_circuit():
    worst = 0.0
    for kappa in (0.1, 0.335, 0.7, 0.95):
        mu = math.asin(kappa) / 4.0
        for theta_deg in range(0, 91, 5):
            theta = theta_deg * D2R
            imperfect = imperfect_joint_probs(theta, mu, IDEAL_GATE)
            worst = max(worst, float(np.max(np.abs(imperfect - circuit_channels(theta, mu)))))
    assert worst < 1e-12


def test_probabilities_close_after_renormalization():
    for params in (IDEAL_GATE, REALISTIC_GATE, ImperfectionParams(0.5, 0.7, 0.2)):
        for theta_deg in (0.0, 10.0, 33.0, 60.0, 89.0):
            probs = imperfect_joint_probs(theta_deg * D2R, MU, params)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_gate_operator_values():
    gate = central_splitter_operator(IDEAL_GATE)
    assert np.allclose(np.diag(gate).real, [1.0, 1 / math.sqrt(3), 1 / math.sqrt(3), -1 / 3])
    balanced = balance_operator(IDEAL_GATE) @ gate
    # after balancing: uniform attenuation with the sign flip on |11>
    assert np.allclose(np.diag(balanced).real, [1 / 3, 1 / 3, 1 / 3, -1 / 3], atol=1e-15)


def test_visibility_zero_flattens_the_curve():
    # full dephasing makes every coincidence channel equally likely
    for params in (
        ImperfectionParams(0.0, 1.0, 1 / 3),
        ImperfectionParams(0.0, 0.98, 0.34),
    ):
        for theta_deg in (5.0, 20.0, 40.0):
            probs = imperfect_joint_probs(theta_deg * D2R, MU, params)
            np.testing.assert_allclose(probs, 0.25, rtol=0, atol=1e-12)
            assert abs(_sigma(theta_deg * D2R, params)) < 1e-10


def test_realistic_parameters_keep_an_anomalous_window():
    thetas = np.arange(0.0, 45.0, 0.05) * D2R
    values = np.array([_sigma(float(t), REALISTIC_GATE) for t in thetas])
    peak = float(np.max(np.abs(values)))
    assert 1.0 < peak < 1.0 / KAPPA
    assert peak == pytest.approx(1.1333, abs=2e-3)  # frozen from a dense scan
    assert np.any(np.abs(values) > 1.0)


def test_peak_damage_is_monotone_in_visibility():
    thetas = np.arange(0.0, 45.0, 0.25) * D2R
    peaks = []
    for v in (1.0, 0.9, 0.78, 0.5, 0.0):
        params = ImperfectionParams(v, 0.98, 0.34)
        values = [abs(_sigma(float(t), params)) for t in thetas]
        peaks.append(max(values))
    assert all(a >= b - 1e-12 for a, b in zip(peaks, peaks[1:]))


def test_density_positive_at_every_stage():
    # walk the stages by hand and eigen-check each one
    theta, params = 20 * D2R, REALISTIC_GATE
    rho = product_density(signal(theta), signal(MU))
    gate = central_splitter_operator(params)
    rho_gate = gate @ rho @ gate.conj().T
    v = params.visibility
    rho_mixed = v * rho_gate + (1 - v) * dephase_computational(rho_gate)
    balance = balance_operator(params)
    rho_out = balance @ rho_mixed @ balance.conj().T
    for stage in (rho, rho_gate, rho_mixed, rho_out):
        assert np.min(np.linalg.eigvalsh(stage)) >= -1e-10


def test_effective_kappa_ideal_is_nominal():
    assert effective_kappa(IDEAL_GATE, MU) == pytest.approx(math.sin(4 * MU), abs=1e-12)


def test_effective_kappa_dephasing_scales_linearly():
    got = effective_kappa(ImperfectionParams(0.78, 1.0, 1 / 3), MU)
    assert got < math.sin(4 * MU)
    assert got == pytest.approx(0.78 * math.sin(4 * MU), abs=1e-9)


def test_effective_kappa_splitting_error_is_small():
    got = effective_kappa(ImperfectionParams(1.0, 0.98, 0.34), MU)
    assert abs(got - math.sin(4 * MU)) < 0.02
    assert got == pytest.approx(0.32566863008437824, abs=1e-9)  # frozen fit value


def test_gate_starved():
    with pytest.raises(GateStarved):
        imperfect_joint_probs(0.0, MU, ImperfectionParams(1.0, 0.0, 1 / 3))
    with pytest.raises(GateStarved, match="theta = 0 deg"):
        channel_probabilities([0.0, 0.3], KAPPA, ImperfectionParams(1.0, 0.0, 1 / 3))



@PROPERTY
@given(theta=st.floats(-math.pi, math.pi), kappa=st.floats(0.0, 1.0), gate=GATES, sign=SIGNS)
@example(theta=20 * D2R, kappa=KAPPA, gate=REALISTIC_GATE, sign="minus")
@example(theta=70 * D2R, kappa=1.0, gate=IDEAL_GATE, sign="plus")
def test_channel_matrix_is_each_route_of_the_channels(theta, kappa, gate, sign):
    # C.B against the Kraus route through the ideal gate, and renormalized
    # against the density-matrix route through the lossy one, where the
    # ideal gate's parameters give the ideal rows
    ideal = _per_attempt(theta, kappa, None)
    np.testing.assert_allclose(ideal, joint_channels(signal(theta), kappa), rtol=0, atol=1e-14)
    lossy = _per_attempt(theta, kappa, gate)
    np.testing.assert_allclose(lossy / lossy.sum(), imperfect_joint_probs(
        theta, math.asin(kappa) / 4.0, gate), rtol=0, atol=1e-14)
    textbook = _per_attempt(theta, kappa, IDEAL_GATE)
    np.testing.assert_allclose(textbook / textbook.sum(), ideal, rtol=0, atol=1e-14)
    # a postselected pair's (n, d) are the difference and the sum of its rows:
    # of the ideal rows, bit for bit the closed forms (0, k/2, 0) and (1/2, 0, sign r/2)
    pair = slice(0, 2) if sign == "minus" else slice(2, 4)
    for imperfections in (None, gate):
        (p0, p1), (n, d) = (channel_matrix(kappa, imperfections)[pair],
                            ModelParams(kappa, sign, imperfections).coefficients)
        assert n.tolist() == (p0 - p1).tolist() and d.tolist() == (p0 + p1).tolist()
    r = math.sqrt(1.0 - kappa * kappa)
    n, d = ModelParams(kappa, sign).coefficients
    assert n.tolist() == [0.0, kappa / 2.0, 0.0]
    assert d.tolist() == [0.5, 0.0, (r if sign == "plus" else -r) / 2.0]

@PROPERTY
@given(gate=GATES, kappa=KAPPAS, theta=st.floats(-math.pi, math.pi))
def test_closed_form_matches_density_matrix_route(gate, kappa, theta):
    closed = channel_probabilities([theta], kappa, gate)[:, 0]
    np.testing.assert_allclose(closed, imperfect_joint_probs(theta, math.asin(kappa) / 4.0, gate),
                               rtol=0, atol=1e-14)


@PROPERTY
@given(gate=st.one_of(st.none(), GATES), kappa=KAPPAS,
       thetas=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8))
@example(gate=REALISTIC_GATE, kappa=KAPPA, thetas=[20 * D2R, 22.5 * D2R, 25 * D2R, 27.5 * D2R])
def test_a_batch_gives_each_angle_the_bits_of_its_own_call(gate, kappa, thetas):
    # a simulated count depends on these bits, so they may not depend on
    # which other angles share the call
    alone = [channel_probabilities([theta], kappa, gate)[:, 0] for theta in thetas]
    np.testing.assert_array_equal(channel_probabilities(thetas, kappa, gate),
                                  np.stack(alone, axis=1))


@PROPERTY
@given(gate=GATES, kappa=KAPPAS, t_h=st.floats(0.05, 1.0))
def test_renormalized_channels_sum_to_one_and_ignore_t_h(gate, kappa, t_h):
    thetas = np.linspace(0.0, math.pi, 181)
    probs = channel_probabilities(thetas, kappa, gate)
    np.testing.assert_allclose(probs.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    # t_h scales every amplitude alike, so it cancels on renormalization
    other = ImperfectionParams(gate.visibility, t_h, gate.t_v)
    np.testing.assert_allclose(channel_probabilities(thetas, kappa, other), probs,
                               rtol=0, atol=1e-15)


@PROPERTY
@given(gate=GATES, kappa=st.floats(0.01, 0.99), sign=st.sampled_from(("minus", "plus")))
@example(gate=ImperfectionParams(1.0, 0.5, 1.0), kappa=KAPPA, sign="minus")
@example(gate=ImperfectionParams(1.0, 0.05, math.nextafter(1.0, 0.0)), kappa=0.01, sign="plus")
@example(gate=ImperfectionParams(math.nextafter(1.0, 0.0), 1.0, 1.0), kappa=0.5, sign="minus")
def test_per_attempt_information_budget(gate, kappa, sign):
    # the Fisher information assess_estimates reports under imperfections,
    # times the per-attempt (not renormalized) postselection probability,
    # stays within one attempt's ceiling of 16 at every angle
    model = ModelParams(kappa=kappa, postselect_sign=sign, imperfections=gate)
    step = math.radians(0.25)
    thetas = step * np.arange(361)  # the calibration grid on [0, 90] deg
    pairs = [0, 1] if sign == "minus" else [2, 3]  # the postselected channels
    per_attempt = _per_attempt(thetas, kappa, gate)[pairs].sum(axis=0)
    if np.any(model.evaluate(thetas)["starved"]):
        # at full visibility with t_v at or within rounding of 1 (no
        # controlled phase) the postselection vanishes at a grid angle, to
        # within rounding, and no calibration exists
        with pytest.raises(ZeroPostselection):
            model.checked(thetas)
        return
    batch = assess_estimates(model, thetas, [0.0] * thetas.size, [1000] * thetas.size)
    ok = batch.status == OK
    assert np.all(batch.f_ps[ok] * per_attempt[ok] <= 16.0 + 1e-9)


def _per_attempt_pair(theta, mu, params, sign):
    """The postselected pair (p0, p1) per attempt: the stages of
    imperfect_joint_probs by hand, without its renormalization."""
    rho = product_density(signal(theta), signal(mu))
    gate, balance = central_splitter_operator(params), balance_operator(params)
    rho = gate @ rho @ gate.conj().T
    rho = params.visibility * rho + (1.0 - params.visibility) * dephase_computational(rho)
    rho = balance @ rho @ balance.conj().T
    post = MINUS if sign == "minus" else PLUS
    return [float(np.trace(np.kron(projector(post), projector(meter)) @ rho).real)
            for meter in (PLUS, MINUS)]


@PROPERTY
@given(kappa=FORM_KAPPAS, theta=st.floats(0.0, math.pi / 2), gate=FORM_GATES, sign=SIGNS)
def test_trig_form_matches_density_matrix_route(kappa, theta, gate, sign):
    # sigma and the per-attempt p_ps from (n, d) against the density matrices
    model = ModelParams(kappa, sign, gate)
    n, d = model.coefficients
    oracle = postselected_value(imperfect_joint_probs(theta, model.mu, gate), kappa, sign)
    sigma = model.checked(np.array([theta]))["sigma"][0]
    assert sigma == pytest.approx(oracle, rel=1e-12, abs=1e-12)
    p0, p1 = _per_attempt_pair(theta, model.mu, gate, sign)
    basis = kernels.trig_basis(theta)
    assert kernels.trig_form(d, basis) == pytest.approx(p0 + p1, rel=1e-12, abs=1e-15)
    assert kernels.trig_form(n, basis) == pytest.approx(p0 - p1, rel=1e-12, abs=1e-15)


@PROPERTY
@given(kappa=FORM_KAPPAS, theta=st.floats(0.0, math.pi / 2), gate=FORM_GATES, sign=SIGNS)
def test_analytic_slope_matches_central_difference_of_the_oracle(kappa, theta, gate, sign):
    model = ModelParams(kappa, sign, gate)
    step = 1e-6
    ahead, behind = (postselected_value(imperfect_joint_probs(theta + h, model.mu, gate), kappa,
                                        sign) for h in (step, -step))
    assert model.checked(np.array([theta]))["slope"][0] == pytest.approx(
        (ahead - behind) / (2.0 * step), rel=1e-5, abs=1e-5)


@PROPERTY
@given(kappa=FORM_KAPPAS, gate=FORM_GATES, sign=SIGNS)
def test_turning_points_match_dense_grid_sign_changes(kappa, gate, sign):
    # the closed-form roots of the slope's numerator against where the curve,
    # from the renormalized channel probabilities on a dense grid, turns
    model = ModelParams(kappa, sign, gate)
    grid = np.linspace(0.0, math.pi / 2, 20001)
    p0, p1 = channel_probabilities(grid, kappa, gate)[[0, 1] if sign == "minus" else [2, 3]]
    steps = np.sign(np.diff((p0 - p1) / (p0 + p1)))
    turns = np.flatnonzero(steps[1:] != steps[:-1])  # the curve turns in [grid[i], grid[i+2]]
    inner = (grid[4], grid[-5])
    turns = turns[(grid[turns] >= inner[0]) & (grid[turns + 2] <= inner[1])]
    closed = kernels.trig_turning_points(*model.coefficients, *inner)
    assert closed.size == turns.size
    assert np.all((grid[turns] <= closed) & (closed <= grid[turns + 2]))


@PROPERTY
@given(kappa=FORM_KAPPAS, gate=st.one_of(st.none(), FORM_GATES), sign=SIGNS,
       theta=st.floats(0.0, math.pi / 2),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
# a model value a few roundings beyond the value at the branch's end
@example(kappa=0.826171875, gate=ImperfectionParams(0.5, 1.0, 0.25), sign="plus", theta=1.5,
         fractions=[4.590025172254203e-14])
def test_closed_form_round_trip_property(kappa, gate, sign, theta, fractions):
    # angles on the monotone branch through theta come back from their model
    # values to 1e-12 rad
    model = ModelParams(kappa, sign, gate)
    try:
        lo, hi = model.branch_containing(theta)
        thetas = lo + (hi - lo) * np.array(fractions)
        solved = invert_branch(model, model.checked(thetas)["sigma"], (lo, hi))
    except AmbiguousBranch:
        assume(False)
    np.testing.assert_allclose(solved, thetas, rtol=0, atol=1e-12)
