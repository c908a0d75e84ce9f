import math
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from laws import LAW_Z, within_binomial_bound
from oracles import (fisher_ps_definition, ideal_postselect_probability, ideal_sigma,
                     imperfect_joint_probs, meter_angle, monotone_runs, postselected_value,
                     table1_exact_law, tabulated_branches)
from weakps import (
    AcquisitionConfig,
    counting,
    ImperfectionParams,
    ModelParams,
    Table1Row,
    assess_estimates,
    derive_seeds,
    draw_counts,
    invert_branch,
    kernels,
    load_baseline,
    table1_batch,
    weak_values_from_counts,
)
from weakps.errors import (AmbiguousBranch, DegenerateConditional, FlatCurve, OutOfRange,
                           WeakpsError, ZeroPostselection, ZeroStrength)
from weakps.estimation import (_BRANCH_GRID, BUDGET_COLUMNS, DEGENERATE, FLAT_CURVE, OK,
                               OUT_OF_RANGE, RAD2_TO_DEG2, TABLE1_THETAS_DEG,
                               channel_probabilities)

D2R = math.pi / 180.0
KAPPA = 0.335
R = math.sqrt(1 - KAPPA**2)
MINUS_MODEL = ModelParams(kappa=KAPPA, postselect_sign="minus")


def _rows(thetas_deg, model, config, repetitions):
    """The rows of one model's working points: its batch alone."""
    return next(table1_batch([thetas_deg], [model], config, repetitions))


def test_monotone_runs_of_a_rising_curve():
    values = MINUS_MODEL.checked(0.1 * D2R * np.arange(101))["sigma"]
    assert np.all(np.diff(values) > 0.0)
    assert monotone_runs(values) == [(0, 100)]


def test_monotone_runs_of_the_projective_curve():
    grid = 0.25 * D2R * np.arange(361)
    runs = monotone_runs(ModelParams(kappa=1.0, postselect_sign="minus").checked(grid)["sigma"])
    assert len(runs) == 2  # falling then rising, split at 45 deg
    assert grid[runs[0][1]] == pytest.approx(45 * D2R, abs=0.3 * D2R)


def _monotone_runs_by_loop(values):
    """Reference for ``monotone_runs``: one pass over the steps, where flat
    steps extend the current run and leading flat steps join the first run."""
    diffs = np.sign(np.diff(values))
    runs = []
    start = 0
    current = diffs[0]
    for i in range(1, diffs.size):
        if diffs[i] != current and diffs[i] != 0.0:
            if current == 0.0:
                current = diffs[i]
                continue
            runs.append((start, i))
            start = i
            current = diffs[i]
    runs.append((start, diffs.size))
    return runs


@settings(derandomize=True, database=None, deadline=None)
@given(steps=st.lists(st.sampled_from([-1.0, 0.0, 0.0, 1.0, 0.25, -3.0]), min_size=1,
                      max_size=40))
def test_branches_match_the_loop_on_random_curves(steps):
    # small step alphabet, so flat steps, flat starts and flat ends are common
    values = np.concatenate([[0.0], np.cumsum(steps)])
    runs = monotone_runs(values)
    assert runs == _monotone_runs_by_loop(values)
    assert all(type(i) is int and type(j) is int for i, j in runs)


def test_imperfect_curve_matches_pipeline():
    params = ImperfectionParams(0.78, 0.98, 0.34)
    model = ModelParams(kappa=KAPPA, postselect_sign="minus", imperfections=params)
    grid = 1.0 * D2R * np.arange(46)
    for theta, sigma in zip(grid, model.checked(grid)["sigma"]):
        oracle = postselected_value(imperfect_joint_probs(float(theta), meter_angle(KAPPA), params),
                                    KAPPA, "minus")
        assert sigma == pytest.approx(oracle, abs=1e-12)


def _estimate(model, sigma, branch):
    """The angle inverted from one measured value, NaN out of range."""
    return float(invert_branch(model, [sigma], branch)[0])


def test_estimate_theta_trivial_points():
    theta_hat = _estimate(MINUS_MODEL, 1.0, (-10 * D2R, 10 * D2R))
    assert abs(theta_hat) < 1e-9
    branch = (18 * D2R, 27 * D2R)  # falling branch through 22.5 deg
    theta_hat = _estimate(MINUS_MODEL, 0.0, branch)
    assert theta_hat == pytest.approx(22.5 * D2R, abs=1e-9)


def test_estimate_theta_near_peak():
    theta_peak = math.asin(R) / 4.0
    target = 1.0 / KAPPA - 1e-4
    theta_hat = _estimate(MINUS_MODEL, target, (0.0, theta_peak - 1e-6))
    assert theta_hat < theta_peak
    assert ideal_sigma(theta_hat, KAPPA, -1.0) == pytest.approx(target, abs=1e-9)


def test_estimate_round_trip_grid():
    for theta_deg in (2.0, 9.0, 16.0, 20.0, 25.0, 33.0, 52.0, 80.0):
        theta = theta_deg * D2R
        branch = MINUS_MODEL.branch_containing(theta)
        sigma = float(ideal_sigma(theta, KAPPA, -1.0))
        assert _estimate(MINUS_MODEL, sigma, branch) == pytest.approx(theta, abs=1e-9)


def test_estimate_out_of_range():
    branch = (0.0, 10 * D2R)
    theta_hat = _estimate(MINUS_MODEL, 5.0, branch)
    assert math.isnan(theta_hat)
    batch = assess_estimates(MINUS_MODEL, [theta_hat], [0.0], [1])
    assert isinstance(batch.error(0, MINUS_MODEL, branch, 5.0), OutOfRange)


def test_estimate_ambiguous_branch():
    with pytest.raises(AmbiguousBranch, match=r"\[0 deg, 30 deg\]"):
        _estimate(MINUS_MODEL, 1.5, (0.0, 30 * D2R))  # spans the peak at 17.6 deg


def test_branch_containing_shrinks_at_turning_points():
    lo, hi = MINUS_MODEL.branch_containing(20 * D2R)
    theta_peak = math.asin(R) / 4.0
    theta_valley = (math.pi - math.asin(R)) / 4.0
    assert lo > theta_peak
    assert hi < theta_valley
    with pytest.raises(AmbiguousBranch, match=r"theta = 17\.6\d* deg"):
        # within one grid cell of the peak there is no safe branch
        MINUS_MODEL.branch_containing(theta_peak)


def test_invert_branch_probes_every_bracket():
    # every bracket is probed for turning points at each inversion, a
    # tabulated branch as any other, whether the model is tabulated or not
    bracket = (10 * D2R, 40 * D2R)  # spans the minus curve's turning point near 27.4 deg
    assert kernels.trig_turning_points(*MINUS_MODEL.coefficients, *bracket)[0].size
    for model in (ModelParams(KAPPA, "minus"), MINUS_MODEL):
        with pytest.raises(AmbiguousBranch, match="not monotone"):
            invert_branch(model, [0.5], bracket)
    branch = MINUS_MODEL.branch_containing(20 * D2R)
    with pytest.raises(AmbiguousBranch, match="not monotone"):
        invert_branch(MINUS_MODEL, [0.5], (branch[0], bracket[1]))
    thetas = np.linspace(*branch, 7)
    sigmas = MINUS_MODEL.checked(thetas)["sigma"]
    np.testing.assert_allclose(invert_branch(MINUS_MODEL, sigmas, branch),
                               thetas, rtol=0, atol=1e-10)


def test_branch_containing_pulls_in_a_range_end_only_where_the_curve_turns_there():
    # this imperfect curve turns 0.0066 deg inside the tabulated range's
    # first cell: the branch through 10 deg starts one cell in, and inverts
    gate = ImperfectionParams(0.5836, 0.9941, 0.4407)
    model = ModelParams(kappa=0.9114, postselect_sign="minus", imperfections=gate)
    assert kernels.trig_turning_points(*model.coefficients, 0.0, 0.05 * D2R)[0] == pytest.approx(
        [0.0066 * D2R], abs=1e-4 * D2R)
    lo, hi = model.branch_containing(10 * D2R)
    assert (lo, hi) == (math.radians(0.05), pytest.approx(34.9 * D2R, abs=1e-12))
    thetas = np.linspace(lo, hi, 9)
    np.testing.assert_allclose(invert_branch(model, model.checked(thetas)["sigma"], (lo, hi)),
                               thetas, atol=1e-12, rtol=0)
    # the ideal curve turns at the range's ends themselves, not inside their cells
    assert ModelParams(1.0, "minus").branch_containing(10 * D2R) == (
        0.0, pytest.approx(44.95 * D2R))


def test_branch_containing_refuses_angles_off_its_grid_after_tabulating():
    with pytest.raises(OutOfRange, match="theta = 90.05 deg outside the tabulated range"):
        MINUS_MODEL.branch_containing(90.05 * D2R)
    with pytest.raises(OutOfRange):
        MINUS_MODEL.branch_containing(math.nan)
    # the curve is tabulated first: a model without one fails at any angle
    with pytest.raises(ZeroPostselection, match="theta = 22.5 deg"):
        ModelParams(kappa=0.0, postselect_sign="minus").branch_containing(-1.0)
    # at kappa = sin 20 deg the minus curve turns within a cell of 27.5 deg
    with pytest.raises(AmbiguousBranch, match="within one grid cell"):
        ModelParams(kappa=math.sin(20 * D2R), postselect_sign="minus").branch_containing(
            27.5 * D2R)


def test_one_check_for_both_models():
    # ZeroPostselection where d.B is within rounding of zero, before
    # ZeroStrength: the ideal kappa = 0 postselection starves at 22.5 deg minus
    ideal = ModelParams(kappa=0.0, postselect_sign="minus")
    with pytest.raises(ZeroPostselection, match="theta = 22.5 deg"):
        ideal.checked(np.array([10 * D2R, 22.5 * D2R]))
    with pytest.raises(ZeroStrength):
        ideal.checked(np.array([10 * D2R]))
    # kappa = 0 carries no information, also where the postselection starves
    columns = ideal.evaluate(np.array([10 * D2R, 22.5 * D2R]))
    assert columns["f_ps"].tolist() == [0.0, 0.0] and columns["p_ps"][1] == 0.0


def test_ideal_information_keeps_its_closed_form_near_the_anomaly_peak():
    # the general form k^2 sigma'^2 / (1 - k^2 sigma^2) cancels near the peak
    # of a weak measurement; the ideal model keeps 16 k^2 / (2 p_ps)^2 there
    kappa = 1e-3
    peak = math.asin(math.sqrt(1 - kappa**2)) / 4.0
    thetas = peak + np.array([-1e-4, -5e-5, -2e-5, 2e-5, 5e-5, 1e-4])
    f_ps = ModelParams(kappa=kappa, postselect_sign="minus").evaluate(thetas)["f_ps"]
    closed = 16 * kappa**2 / (2 * ideal_postselect_probability(thetas, kappa, -1.0)) ** 2
    np.testing.assert_allclose(f_ps, closed, rtol=1e-12, atol=0)


def _assess_one(model, theta_hat, var_sigma=0.01, m_ps=1000):
    """The one-element batch of an estimate at ``theta_hat``."""
    return assess_estimates(model, [theta_hat], [var_sigma], [m_ps])


def test_propagate_variance_examples():
    assert _assess_one(MINUS_MODEL, 20 * D2R, 0.0).variance_theta_deg2[0] == 0.0
    # closed-form slope at the zero crossing: -4 / (1 - sqrt(1 - k^2))
    expected = 0.01 * (1 - R) ** 2 / 16.0 * RAD2_TO_DEG2
    got = _assess_one(MINUS_MODEL, 22.5 * D2R, 0.01).variance_theta_deg2[0]
    assert got == pytest.approx(expected, rel=1e-12)
    assert _assess_one(MINUS_MODEL, math.asin(R) / 4.0, 0.01).status.tolist() == [FLAT_CURVE]


def test_propagated_variance_slope_consistency():
    theta = 20 * D2R
    slope = float(MINUS_MODEL.checked(theta)["slope"])
    got = _assess_one(MINUS_MODEL, theta, 0.02).variance_theta_deg2[0]
    assert got == pytest.approx(0.02 / slope**2 * RAD2_TO_DEG2, rel=1e-12)


def test_cramer_rao_values():
    # information 16 per squared radian -> (1/16) rad^2 = 205.18 deg^2
    projective = ModelParams(kappa=1.0, postselect_sign="minus")
    got = _assess_one(projective, 30 * D2R, m_ps=1).sigma_cr_deg2[0]
    assert got == pytest.approx(RAD2_TO_DEG2 / 16.0, rel=1e-12)
    assert got == pytest.approx(205.175, abs=1e-3)
    f = fisher_ps_definition(22.5 * D2R, KAPPA, "minus")
    got = _assess_one(MINUS_MODEL, 22.5 * D2R, m_ps=1000).sigma_cr_deg2[0]
    assert got == pytest.approx(RAD2_TO_DEG2 / (f * 1000), rel=1e-12)
    # doubling the event count halves the limit
    assert _assess_one(MINUS_MODEL, 22.5 * D2R, m_ps=2000).sigma_cr_deg2[0] == pytest.approx(
        got / 2.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        _assess_one(MINUS_MODEL, 22.5 * D2R, m_ps=0)


def test_assess_estimates_keeps_position_and_precedence():
    # one status per estimate, in order: OutOfRange for a missed branch, then
    # FlatCurve before DegenerateConditional at the peak (both apply there),
    # DegenerateConditional alone just beside it
    peak = math.asin(R) / 4.0
    theta_hats = [10 * D2R, math.nan, peak, peak + 1e-6]
    batch = assess_estimates(MINUS_MODEL, theta_hats, [0.01] * 4, [1000] * 4)
    assert batch.status.tolist() == [OK, OUT_OF_RANGE, FLAT_CURVE, DEGENERATE]
    errors = [batch.error(i, MINUS_MODEL, (0.0, peak), sigma_hat)
              for i, sigma_hat in enumerate([0.5, 5.0, 3.0, 3.0])]
    assert [type(error) for error in errors] == [type(None), OutOfRange, FlatCurve,
                                                 DegenerateConditional]
    # each typed error is built on demand, with the message a raised one had
    assert [str(error) for error in errors[1:]] == [
        "sigma = 5 outside [1, 2.98507462687], the range of branch [0 deg, 17.6068655139 deg]",
        "curve slope 0 at theta = 17.6068655139 deg is numerically zero",
        "a conditional probability vanishes at theta = 17.6069228097 deg",
    ]
    # a one-element batch gives each estimate the same budget
    one = _assess_one(MINUS_MODEL, 10 * D2R, 0.01, 1000)
    for name in BUDGET_COLUMNS:
        assert getattr(one, name)[0] == getattr(batch, name)[0]
    assert _assess_one(MINUS_MODEL, peak).status.tolist() == [FLAT_CURVE]
    assert _assess_one(MINUS_MODEL, peak + 1e-6).status.tolist() == [DEGENERATE]


@pytest.mark.parametrize("imperfections", [None, ImperfectionParams(0.78, 0.98, 0.34)],
                         ids=["ideal", "table1-gate"])
def test_assess_estimates_takes_one_trig_basis(monkeypatch, imperfections):
    # every column of the budget comes from one basis of the estimates found
    sizes = []
    real = kernels.trig_basis

    def counted(thetas):
        sizes.append(np.size(thetas))
        return real(thetas)
    monkeypatch.setattr(kernels, "trig_basis", counted)
    model = ModelParams(KAPPA, "minus", imperfections)
    assess_estimates(model, np.radians([20.0, 22.5, math.nan, 25.0]), [0.01] * 4, [1000] * 4)
    assert sizes == [3]


@pytest.mark.parametrize("imperfections", [None, ImperfectionParams(0.78, 0.98, 0.34)],
                         ids=["ideal", "table1-gate"])
@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_joint_pair_is_the_evaluated_model(imperfections, sign):
    # p0, p1 = (p_ps +- n.B) / 2 sum to the evaluated p_ps within the rounding
    # of the halves, and the overlap is the ideal kappa = 0 p_ps, bit for bit
    thetas = np.radians(0.05 * np.arange(1801))
    model = ModelParams(KAPPA, sign, imperfections)
    p0, p1, p_phi = model.joint_pair(thetas)
    p_ps = model.evaluate(thetas)["p_ps"]
    assert np.all(np.abs(p0 + p1 - p_ps) <= 2.0 * np.finfo(np.float64).eps * p_ps)
    np.testing.assert_array_equal(p_phi, ModelParams(0.0, sign).evaluate(thetas)["p_ps"])


def test_assess_estimates_checks_the_budgets_of_ok_estimates(monkeypatch):
    with pytest.raises(ValueError, match="variance must be nonnegative"):
        _assess_one(MINUS_MODEL, 20 * D2R, var_sigma=-0.01)
    # a stopped estimate's budget is not checked
    assert _assess_one(MINUS_MODEL, math.nan, var_sigma=-0.01).status.tolist() == [OUT_OF_RANGE]
    real = ModelParams.evaluate
    monkeypatch.setattr(ModelParams, "evaluate",
                        lambda *args: {**real(*args), "f_ps": -real(*args)["f_ps"]})
    with pytest.raises(ValueError, match="Cramér-Rao variance must be positive"):
        _assess_one(MINUS_MODEL, 20 * D2R)


def test_monte_carlo_round_trip_consistency():
    theta = 20 * D2R
    model = MINUS_MODEL
    branch = model.branch_containing(theta)
    config = AcquisitionConfig(seed=424242, rate=2000.0, duration=5.0)
    counts = draw_counts(channel_probabilities([theta], KAPPA, None)[:, 0],
                         derive_seeds(config.seed, 400), config)
    sigma_hats, var_sigmas = weak_values_from_counts(counts, KAPPA, "minus")
    theta_hats = invert_branch(model, sigma_hats, branch)
    m_ps = counts[:, :2].sum(axis=1)
    batch = assess_estimates(model, theta_hats, var_sigmas, m_ps)
    assert np.all(batch.status == OK)
    propagated = batch.variance_theta_deg2
    se = theta_hats.std(ddof=1) / math.sqrt(theta_hats.size)
    assert abs(theta_hats.mean() - theta) < 3 * se
    empirical_deg2 = float(np.var(np.degrees(theta_hats), ddof=1))
    assert abs(empirical_deg2 / np.mean(propagated) - 1.0) < 0.2
    # sanity of the Cramér-Rao ordering over the same repetitions
    m_ps_mean = ideal_postselect_probability(theta, KAPPA, -1.0) * config.expected_total
    cr = _assess_one(MINUS_MODEL, theta, m_ps=int(m_ps_mean)).sigma_cr_deg2[0]
    assert empirical_deg2 >= cr * 0.85


def test_table1_pipeline_rows_and_audit():
    model = MINUS_MODEL
    config = AcquisitionConfig(seed=90210, rate=2000.0, duration=5.0)
    rows = _rows(TABLE1_THETAS_DEG["minus"], model, config, repetitions=20)
    assert [row.theta_deg for row in rows] == [20.0, 22.5, 25.0, 27.5]
    for row in rows:
        assert row.n_ok + row.n_failed == 20
        assert np.all(row.variance_theta_deg2 >= 0.0)
        assert np.all(row.sigma_cr_deg2 > 0.0)
        for f_ps, theta_hat_deg in zip(row.f_ps, row.theta_hat_deg):
            budget = f_ps * ideal_postselect_probability(math.radians(theta_hat_deg), KAPPA, -1.0)
            assert budget <= 16.0 + 1e-9
    untroubled = {20.0, 22.5, 25.0}
    for row in rows:
        if row.theta_deg in untroubled:
            assert row.n_ok == 20
            assert abs(row.mean_theta_hat_deg - row.theta_deg) < 0.5


def test_table1_plus_postselection():
    model = ModelParams(kappa=KAPPA, postselect_sign="plus")
    config = AcquisitionConfig(seed=31337, rate=2000.0, duration=5.0)
    rows = _rows(TABLE1_THETAS_DEG["plus"], model, config, repetitions=10)
    assert [row.theta_deg for row in rows] == [67.5, 70.0, 72.5, 75.0]
    good = [row for row in rows if row.theta_deg in (67.5, 70.0)]
    for row in good:
        assert row.n_ok == 10


def test_failures_are_reported_not_dropped():
    # 27.5 deg sits one grid cell from the curve minimum: about half the
    # draws land outside the branch range and must be reported
    model = MINUS_MODEL
    config = AcquisitionConfig(seed=777, rate=2000.0, duration=5.0)
    rows = _rows([27.5], model, config, repetitions=30)
    row = rows[0]
    assert row.n_ok + row.n_failed == 30
    assert row.n_failed > 0
    assert set(row.failures_by_type) <= {"OutOfRange", "DegenerateConditional"}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n=st.sampled_from([0, 1, 2, 7, 8, 9, 127, 128, 129, 1000, 4099]),
       seed=st.integers(0, 2**32 - 1), step=st.sampled_from([1, 3]))
def test_row_summaries_are_numpys_mean_and_variance_bit_for_bit(n, seed, step):
    # a row's means and ddof=1 variance take np.mean's and np.var's pairwise
    # sums, on contiguous columns and strided ones, float and int64 alike
    rng = np.random.default_rng(seed)
    theta = rng.normal(22.5, 0.3, n * step)[::step]
    m_ps = rng.integers(1, 2**60, n * step)[::step]
    row = Table1Row(22.5, "minus", theta, theta / 7.0, theta / 9.0, theta, m_ps, {})
    summaries = (row.mean_theta_hat_deg, row.mean_variance_deg2, row.mean_sigma_cr_deg2,
                 row.mean_m_ps)
    if n == 0:
        assert all(math.isnan(value) for value in summaries)
    else:
        assert summaries == (float(np.mean(theta)), float(np.mean(theta / 7.0)),
                             float(np.mean(theta / 9.0)), float(np.mean(m_ps)))
    if n < 2:
        assert math.isnan(row.empirical_variance_deg2)
    else:
        assert row.empirical_variance_deg2 == float(np.var(theta, ddof=1))


def _same_rows(rows, others):
    for row, other in zip(rows, others, strict=True):
        assert row.failures_by_type == other.failures_by_type
        for name in BUDGET_COLUMNS:
            assert getattr(row, name).tobytes() == getattr(other, name).tobytes()


def test_one_bad_working_point_fails_only_its_own_repetitions():
    # at kappa = sin 20 deg (mu = 5 deg) 27.5 deg minus and 72.5 deg plus sit
    # within a calibration grid cell of a turning point.  Each postselection's
    # repetitions are inverted in one batch, yet those rows alone fail, every
    # repetition as AmbiguousBranch, and the rows before them come out as
    # they do without them (a working point's seeds do not depend on later ones)
    config = AcquisitionConfig(seed=1)
    for sign, bad in (("minus", 27.5), ("plus", 72.5)):
        model = ModelParams(kappa=math.sin(20 * D2R), postselect_sign=sign)
        thetas = TABLE1_THETAS_DEG[sign]
        rows = _rows(thetas, model, config, repetitions=40)
        for row in rows:
            if row.theta_deg == bad:
                assert (row.n_ok, row.failures_by_type) == (0, {"AmbiguousBranch": 40})
            else:
                assert row.n_ok + row.n_failed == 40 and row.n_ok > 0
        before = thetas.index(bad)
        _same_rows(rows[:before], _rows(thetas[:before], model, config, 40))


@pytest.mark.parametrize("repetitions", [1, 2, 40])
@pytest.mark.parametrize("kappa", [KAPPA, math.sin(20 * D2R)], ids=["kappa-0.335", "mu-5deg"])
@pytest.mark.parametrize("imperfections", [None, ImperfectionParams(0.78, 0.98, 0.34)],
                         ids=["ideal", "table1-gate"])
def test_one_batch_over_both_postselections_is_each_pipeline(imperfections, kappa, repetitions):
    # both postselections draw from the same seeds in one batch, and each
    # model's rows are those of its own pipeline, array for array; at mu = 5
    # deg a working point of each ideal postselection fails as AmbiguousBranch
    signs = ("minus", "plus")
    for seed in (1, 7, 90210):
        config = AcquisitionConfig(seed=seed)
        batch = table1_batch([TABLE1_THETAS_DEG[sign] for sign in signs],
                             [ModelParams(kappa, sign, imperfections) for sign in signs],
                             config, repetitions)
        for sign, rows in zip(signs, batch, strict=True):
            alone = _rows(TABLE1_THETAS_DEG[sign], ModelParams(kappa, sign, imperfections),
                                    config, repetitions)
            assert [row.theta_deg for row in rows] == [row.theta_deg for row in alone]
            assert {row.postselect_sign for row in rows} == {sign}
            _same_rows(rows, alone)


@pytest.mark.parametrize("seed, correlations", [(1, (0.055, 0.006)), (2, (0.066, 0.018))])
def test_the_postselections_of_one_batch_are_correlated_as_documented(seed, correlations):
    # repetition i of the j-th working point of each model shares one
    # stream: the theta-hat correlations the table1_batch docstring states,
    # the 20-67.5 deg one beyond 3 standard errors of an uncorrelated pair
    repetitions = 20_000
    minus, plus = table1_batch([[20.0, 22.5], [67.5, 70.0]],
                               [ModelParams(KAPPA, "minus"), ModelParams(KAPPA, "plus")],
                               AcquisitionConfig(seed=seed), repetitions)
    assert [row.n_ok for row in minus + plus] == [repetitions] * 4  # aligned by repetition
    found = [np.corrcoef(a.theta_hat_deg, b.theta_hat_deg)[0, 1] for a, b in zip(minus, plus)]
    assert [round(value, 3) for value in found] == list(correlations)
    assert found[0] > 3.0 / math.sqrt(repetitions)


def test_table1_follows_the_estimators_exact_law():
    # the simulated rows of the 8 ideal working points against the exact law
    # of one repetition's estimate (table1_exact_law): the OK count by the
    # binomial bound, the mean and the sample variance of the OK estimates
    # by their z, the variance's from the exact fourth central moment
    repetitions = 20_000
    acquisition = AcquisitionConfig(seed=1)
    models = [ModelParams(KAPPA, sign) for sign in ("minus", "plus")]
    batch = table1_batch([TABLE1_THETAS_DEG[m.postselect_sign] for m in models], models,
                         acquisition, repetitions)
    for model, rows in zip(models, batch):
        for row in rows:
            p_ok, mean, variance, fourth, lost = table1_exact_law(model, row.theta_deg,
                                                                  acquisition)
            n = row.n_ok
            assert lost < 1e-12, (row.theta_deg, lost)
            assert within_binomial_bound(n, repetitions, p_ok), (row.theta_deg, n, p_ok)
            z_mean = (row.mean_theta_hat_deg - mean) / math.sqrt(variance / n)
            # Var of the ddof=1 sample variance of n draws: (m4 - v^2 (n - 3) / (n - 1)) / n
            spread = math.sqrt((fourth - variance**2 * (n - 3) / (n - 1)) / n)
            z_variance = (row.empirical_variance_deg2 - variance) / spread
            assert abs(z_mean) < LAW_Z, (row.theta_deg, z_mean)
            assert abs(z_variance) < LAW_Z, (row.theta_deg, z_variance)


@pytest.mark.parametrize("repetitions, blocks", [(40, (80, 120, 39)), (2, (3, 6)), (1, (1, 2))])
@pytest.mark.parametrize("imperfections", [None, ImperfectionParams(0.78, 0.98, 0.34)],
                         ids=["ideal", "table1-gate"])
def test_inversion_blocks_of_working_points_leave_the_rows_unchanged(imperfections, repetitions,
                                                                     blocks, monkeypatch):
    # a model's working points are inverted in blocks of whole points of at
    # most _SEED_BLOCK lanes, one invert_trig call each: blocks of 1, 2 or 3
    # points (or lanes short of one point) give the one-block rows, array for
    # array, with the ideal model's AmbiguousBranch points at mu = 5 deg among them
    signs, kappa = ("minus", "plus"), math.sin(20 * D2R)
    models = [ModelParams(kappa, sign, imperfections) for sign in signs]
    config = AcquisitionConfig(seed=7)
    whole = list(table1_batch([TABLE1_THETAS_DEG[s] for s in signs], models, config, repetitions))
    inversions = []
    invert_trig = kernels.invert_trig
    monkeypatch.setattr(kernels, "invert_trig",
                        lambda *args: inversions.append(args[3].shape) or invert_trig(*args))
    for block in blocks:
        monkeypatch.setattr(counting, "_SEED_BLOCK", block)
        inversions.clear()
        split = table1_batch([TABLE1_THETAS_DEG[s] for s in signs], models, config, repetitions)
        for rows, alone in zip(split, whole, strict=True):
            _same_rows(rows, alone)
        per_block = max(1, block // repetitions)
        shapes = [(per_block, repetitions)] * (4 // per_block) + (
            [(4 % per_block, repetitions)] if 4 % per_block else [])
        assert len(shapes) > 1 and inversions == shapes * 2  # per model, blocks in order
    ambiguous = sum(row.failures_by_type.get("AmbiguousBranch", 0)
                    for rows in whole for row in rows)
    assert ambiguous == (0 if imperfections else 2 * repetitions)


def test_no_working_points_give_no_rows():
    config = AcquisitionConfig(seed=1)
    assert _rows([], MINUS_MODEL, config, 3) == []
    assert list(table1_batch([[], []], [MINUS_MODEL] * 2, config, 3)) == [[], []]
    assert list(table1_batch([], [], config, 3)) == []  # no model: no list of rows


def _branches_as_tabulated(model):
    """The model's branches equal the tabulated route's, or both raise the same
    error; and no branch holds a turning point strictly inside."""
    tables = []
    for route in (lambda: model._branches, lambda: tabulated_branches(model)):
        try:
            tables.append(route())
        except WeakpsError as exc:
            tables.append(type(exc))
    assert tables[0] == tables[1]
    if isinstance(tables[0], list):
        for lo, hi in tables[0]:
            assert kernels.trig_turning_points(*model.coefficients, lo, hi)[0].size == 0


@pytest.mark.parametrize("kappa", [0.05, KAPPA, math.sin(20 * D2R), 0.9, 1.0])
@pytest.mark.parametrize("imperfections", [None, ImperfectionParams(0.78, 0.98, 0.34)],
                         ids=["ideal", "table1-gate"])
@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_branches_of_the_working_models_are_the_tabulated_runs(kappa, imperfections, sign):
    # the branches from the closed-form turning points, each snapped to its
    # grid cell, are the runs of the tabulated curve pulled in by one cell
    _branches_as_tabulated(ModelParams(kappa, sign, imperfections))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@example(kappa=1.0, imperfections=None, sign="minus")
@example(kappa=0.01, imperfections=ImperfectionParams(0.0, 0.7, 1.0 / 3.0), sign="plus")
@example(kappa=0.02, imperfections=ImperfectionParams(1.0, 1.0, 0.0), sign="minus")
@example(kappa=1.0, imperfections=ImperfectionParams(1.0, 0.5, 1.0), sign="plus")
@given(kappa=st.one_of(st.just(1.0), st.floats(1e-4, 0.05), st.floats(0.05, 1.0)),
       imperfections=st.one_of(st.none(), st.builds(
           ImperfectionParams, visibility=st.one_of(st.sampled_from([0.0, 1.0]),
                                                    st.floats(0.0, 1.0)),
           t_h=st.floats(0.05, 1.0),
           t_v=st.one_of(st.sampled_from([0.0, 1.0 / 3.0, 1.0]), st.floats(0.0, 1.0)))),
       sign=st.sampled_from(["minus", "plus"]))
def test_branches_are_the_tabulated_runs_on_random_models(kappa, imperfections, sign):
    _branches_as_tabulated(ModelParams(kappa, sign, imperfections))


_PEAK_CELL = int(np.searchsorted(_BRANCH_GRID, math.asin(R) / 4.0, side="right")) - 1


class _FlatAcrossThePeak(ModelParams):
    """The ideal minus model, its curve on the branch grid flat across the
    cell that holds its peak, at the larger of the cell's two ends."""

    def checked(self, thetas):
        columns = super().checked(thetas)
        if np.shape(thetas) == _BRANCH_GRID.shape:
            cell = columns["sigma"][_PEAK_CELL:_PEAK_CELL + 2]
            cell[:] = cell.max()
        return columns


def test_a_tie_across_a_turns_cell_is_a_flat_step():
    # the tabulated runs take the tie as a flat step, turning at the cell's
    # far end: the branch after the peak starts one grid angle past that
    model = _FlatAcrossThePeak(KAPPA, "minus")
    _branches_as_tabulated(model)
    assert model._branches[1][0] == _BRANCH_GRID[_PEAK_CELL + 2]


class _SlopeFailsNear25(ModelParams):
    """The ideal model, except that its columns cannot be evaluated within a
    degree of 25 deg once its branches are tabulated (as the ideal model's)."""

    @cached_property
    def _branches(self):
        return ModelParams(self.kappa, self.postselect_sign)._branches

    def checked(self, thetas):
        if np.any(np.abs(np.degrees(thetas) - 25.0) < 1.0):
            raise ZeroPostselection("no slope near 25 deg")
        return super().checked(thetas)


def test_a_model_error_in_the_batch_fails_only_its_working_point():
    # the batched assessment raises; the error is charged to the working
    # point it comes from, and the others keep their estimates bit for bit
    config = AcquisitionConfig(seed=90210)
    failing = _SlopeFailsNear25(kappa=KAPPA, postselect_sign="minus")
    rows = _rows([20.0, 22.5, 25.0], failing, config, repetitions=20)
    assert (rows[2].n_ok, rows[2].failures_by_type) == (0, {"ZeroPostselection": 20})
    _same_rows(rows[:2], _rows([20.0, 22.5, 25.0], MINUS_MODEL, config, 20)[:2])
    assert [row.n_ok for row in rows[:2]] == [20, 20]


def test_model_evaluations_do_not_grow_with_repetitions(monkeypatch):
    # the pipeline evaluates the model once to tabulate its curve and once
    # per assessed batch (every column of the budget from that one call),
    # never per repetition or per iteration of a root search.  A model
    # tabulates its curve once, so each run takes a model of its own
    calls = Counter()
    real = ModelParams.evaluate

    def counted(self, thetas):
        calls["evaluate"] += 1
        return real(self, thetas)
    monkeypatch.setattr(ModelParams, "evaluate", counted)
    gate = ImperfectionParams(0.78, 0.98, 0.34)
    for sign, imperfections in (("minus", None), ("plus", gate)):
        seen = []
        for repetitions in (10, 1000):
            calls.clear()
            _rows(TABLE1_THETAS_DEG[sign], ModelParams(KAPPA, sign, imperfections),
                            AcquisitionConfig(seed=1), repetitions)
            seen.append(dict(calls))
        assert seen[0] == seen[1]
        assert sum(seen[0].values()) <= 3


def _assert_variance_saturates_cramer_rao(model):
    config = AcquisitionConfig(seed=5150, rate=2000.0, duration=5.0)
    rows = _rows([20.0, 22.5, 25.0], model, config, repetitions=10)
    for row in rows:
        assert row.n_ok == 10
        np.testing.assert_allclose(row.variance_theta_deg2, row.sigma_cr_deg2, rtol=1e-9)
    noisy = AcquisitionConfig(seed=5150, rate=2000.0, duration=5.0, kappa_uncertainty=0.008)
    (row,) = _rows([20.0], model, noisy, repetitions=10)
    assert row.n_ok == 10
    assert np.all(row.variance_theta_deg2 > row.sigma_cr_deg2)


def test_propagated_variance_saturates_cramer_rao_without_kappa_noise():
    # delta-method algebra: Var(sigma_hat) = (1 - k^2 sigma^2)/(k^2 N), and
    # dividing by the squared slope reproduces 1/(F(theta_hat) N) exactly,
    # for any model whose information F is the conditional one.
    # The inversion estimator is the conditional-distribution MLE, so its
    # first-order variance sits on the Cramér-Rao limit; the strength
    # uncertainty term is what lifts it above.
    _assert_variance_saturates_cramer_rao(MINUS_MODEL)


def test_imperfect_propagated_variance_saturates_cramer_rao_without_kappa_noise():
    # the same identity holds under the lossy gate, whose information is the
    # conditional one of the imperfect model
    gate = ImperfectionParams(0.78, 0.98, 0.34)
    _assert_variance_saturates_cramer_rao(
        ModelParams(kappa=KAPPA, postselect_sign="minus", imperfections=gate))


def test_imperfect_round_trip_through_batched_inversion():
    params = ImperfectionParams(0.78, 0.98, 0.34)
    model = ModelParams(kappa=KAPPA, postselect_sign="minus", imperfections=params)
    lo, hi = model.branch_containing(22.5 * D2R)
    thetas = np.linspace(lo + 1e-3, hi - 1e-3, 9)
    solved = invert_branch(model, model.checked(thetas)["sigma"], (lo, hi))
    np.testing.assert_allclose(solved, thetas, atol=1e-12, rtol=0)


@settings(derandomize=True, database=None, deadline=None)
@given(kappa=st.floats(0.05, 1.0), sign=st.sampled_from(("minus", "plus")),
       gate=st.sampled_from((None, ImperfectionParams(0.78, 0.98, 0.34))),
       start=st.floats(0.0, math.pi / 2),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
# a model value a few roundings beyond the value at the branch's end
@example(kappa=0.375, sign="minus", gate=None, start=0.0, fractions=[0.9999999999999999])
def test_batched_inversion_round_trip_property(kappa, sign, gate, start, fractions):
    # any angles on a monotone branch come back from their model values,
    # in one batch
    model = ModelParams(kappa=kappa, postselect_sign=sign, imperfections=gate)
    try:
        lo, hi = model.branch_containing(start)
    except AmbiguousBranch:
        assume(False)
    thetas = lo + (hi - lo) * np.array(fractions)
    solved = invert_branch(model, model.checked(thetas)["sigma"], (lo, hi))
    np.testing.assert_allclose(solved, thetas, atol=1e-12, rtol=0)


def test_imperfect_cramer_rao_comes_from_the_generating_model():
    # under imperfections the Cramér-Rao column must use the model that drew
    # the counts: the ideal model's information is ~35x larger under this
    # gate, and its limit would sit far below the empirical variance
    gate = ImperfectionParams(0.78, 0.98, 0.34)
    config = AcquisitionConfig(seed=90210, rate=2000.0, duration=5.0)
    for sign, theta_deg in (("minus", 22.5), ("plus", 70.0)):
        model = ModelParams(kappa=KAPPA, postselect_sign=sign, imperfections=gate)
        (row,) = _rows([theta_deg], model, config, repetitions=200)
        assert row.n_ok == 200
        assert 0.7 <= row.empirical_variance_deg2 / row.mean_sigma_cr_deg2 <= 1.4


def test_load_baseline_packaged():
    base = load_baseline()
    assert base[("minus", 22.5)] == (0.036, 0.33)
    assert base[("plus", 75.0)] == (0.76, 0.3)
    assert len(base) == 8


def test_the_published_baseline_reads_as_the_example_csv():
    # tests/data/table1_baseline.csv, the published values as a --baseline
    # file, is the format's example: it reads as the built-in table, and
    # each call gets a copy of that table
    example = load_baseline(str(Path(__file__).parent / "data" / "table1_baseline.csv"))
    assert list(example.items()) == list(load_baseline().items())
    load_baseline()[("minus", 20.0)] = (0.0, 0.0)
    assert load_baseline() == example
