import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (MINUS, PLUS, circuit_channels, ideal_postselect_probability, ideal_sigma,
                     ideal_slope, invert_sigma, joint_channels, joint_probability,
                     postselected_value, pusey_functional, pusey_sweep, signal)
from weakps import ImperfectionParams, ModelParams, kernels
from weakps.errors import AmbiguousBranch
from weakps.estimation import channel_probabilities

KAPPAS = (0.1, 0.335, 0.7, 0.95)
THETA = np.linspace(0.0, math.pi / 2, 1001)
SIGNS = (("minus", -1.0), ("plus", 1.0))

# Deterministic examples and no example database: Tier-1 stays repeatable
# and leaves no .hypothesis/ directory behind.
PROPERTY = settings(derandomize=True, database=None, deadline=None)
KAPPA = st.floats(0.01, 1.0)


def test_curve_kernels_match_probability_pipeline():
    # the model's closed forms against the Kraus route's joint probabilities
    # of the signal family, and their conditioning and rescaling (whose
    # rounding in p0 - p1 the 1/kappa rescaling amplifies)
    for kappa in KAPPAS:
        records = np.array([joint_channels(signal(t), kappa) for t in THETA.tolist()]).T
        for sign_label, _ in SIGNS:
            pair = records[:2] if sign_label == "minus" else records[2:]
            np.testing.assert_allclose(
                ModelParams(kappa, sign_label).evaluate(THETA)["p_ps"], pair.sum(axis=0),
                rtol=0, atol=1e-15,
            )
            np.testing.assert_allclose(
                ModelParams(kappa, sign_label).checked(THETA)["sigma"],
                postselected_value(records, kappa, sign_label),
                rtol=0, atol=2e-14 / kappa,
            )


@PROPERTY
@given(kappa=KAPPA, offset=st.floats(-math.pi / 4, math.pi / 4), sign=st.sampled_from((-1.0, 1.0)))
def test_information_budget_property(kappa, offset, sign):
    # a period of angles about the one where F_ps * p_ps is largest
    # (sin 4t = -sign, where it equals 8 (1 + sqrt(1 - kappa^2)))
    theta = math.pi / 4 + sign * math.pi / 8 + offset
    sigma = float(ideal_sigma(theta, kappa, sign))
    assume(1.0 - abs(kappa * sigma) > 1e-9)  # away from saturation
    columns = ModelParams(kappa, "minus" if sign < 0 else "plus").evaluate(theta)
    assert columns["f_ps"] * columns["p_ps"] <= 16.0 + 1e-9


@PROPERTY
@given(mu=st.floats(0.0, math.pi / 8, exclude_min=True), theta=st.floats(-math.pi, math.pi))
def test_channel_kernel_matches_circuit_route(mu, theta):
    # the closed form against one gate application and four projections
    np.testing.assert_allclose(channel_probabilities(theta, math.sin(4.0 * mu), None),
                               circuit_channels(theta, mu), rtol=0, atol=1e-14)


@PROPERTY
@given(kappa=st.floats(0.0, 1.0), theta=st.floats(0.0, math.pi / 2), sign=st.sampled_from(SIGNS))
def test_pusey_kernel_matches_kraus_route(kappa, theta, sign):
    label, _ = sign
    i0, i1, p_phi = pusey_sweep(np.array([theta]), kappa, label)
    assume(p_phi[0] > 1e-3)  # the functional divides by p_phi
    psi, phi = signal(theta), MINUS if label == "minus" else PLUS
    overlap = abs(np.vdot(phi, psi)) ** 2
    for x, got in ((0, i0[0]), (1, i1[0])):
        # the functional written out, on the Kraus-operator probabilities
        p_x, p_d = joint_probability(psi, phi, kappa, x), 1 - math.sqrt(1 - kappa**2)
        written_out = p_x / overlap - (1 + kappa) / 2 - p_d / overlap
        assert got == pytest.approx(pusey_functional(psi, phi, kappa, x), rel=1e-12, abs=1e-12)
        assert got == pytest.approx(written_out, rel=1e-12, abs=1e-12)


def test_fisher_kernel_equals_conditional_form():
    # stable form vs literal conditional-information arithmetic, off saturation
    kappa = 0.335
    r = math.sqrt(1 - kappa**2)
    thetas = np.deg2rad(np.linspace(1.0, 89.0, 177))
    f = ModelParams(kappa, "minus").evaluate(thetas)["f_ps"]
    sigma = ideal_sigma(thetas, kappa, -1.0)
    dsigma = ideal_slope(thetas, kappa, -1.0)
    keep = 1.0 - np.abs(kappa * sigma) > 1e-6
    literal = kappa**2 * dsigma[keep] ** 2 / (1 - kappa**2 * sigma[keep] ** 2)
    np.testing.assert_allclose(f[keep], literal, rtol=1e-9)


def test_invert_round_trip():
    kappa = 0.335
    r = math.sqrt(1 - kappa**2)
    peak = math.asin(r) / 4
    thetas = np.linspace(0.0, peak - 1e-3, 200)
    targets = ideal_sigma(thetas, kappa, -1.0)
    curve = lambda t: ideal_sigma(t, kappa, -1.0)
    solved = invert_sigma(targets, curve, 0.0, peak - 1e-6)
    np.testing.assert_allclose(solved, thetas, atol=1e-9, rtol=0)


def test_invert_flags_unbracketed_targets():
    kappa = 0.335
    curve = lambda t: ideal_sigma(t, kappa, -1.0)
    out = invert_sigma(np.array([5.0, 1.5]), curve, 0.0, 0.05)
    assert math.isnan(out[0])


@PROPERTY
@given(kappa=st.floats(0.05, 0.99), sign=st.sampled_from((-1.0, 1.0)),
       cases=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.5, 1.5),
                                st.sampled_from(("inside", "lo", "hi", "nan"))),
                      min_size=1, max_size=12))
def test_bracket_arrays_match_one_call_per_bracket(kappa, sign, cases):
    # per-target brackets on a monotone branch give every target, bit for
    # bit, what a call with its own bracket alone gives: a root, NaN where
    # the target is unbracketed, the endpoint itself on an exact hit
    r = math.sqrt(1.0 - kappa * kappa)
    rising = math.asin(-sign * r) / 4.0  # a turning point of the curve
    start, stop = sorted((rising, rising + math.pi / 4.0 if sign > 0 else rising - math.pi / 4.0))
    curve = lambda t: ideal_sigma(t, kappa, sign)
    lo, hi, targets = [], [], []
    for u, v, w, kind in cases:
        a, b = start + (stop - start) * min(u, v), start + (stop - start) * max(u, v)
        at = {"inside": a + w * (b - a), "lo": a, "hi": b, "nan": math.nan}[kind]
        lo.append(a)
        hi.append(b)
        targets.append(curve(np.array([at]))[0])
    got = invert_sigma(np.array(targets), curve, np.array(lo), np.array(hi))
    alone = [invert_sigma(np.array([t]), curve, a, b)[0]
             for t, a, b in zip(targets, lo, hi)]
    assert got.tobytes() == np.array(alone).tobytes()
    for (_, _, _, kind), x, a, b in zip(cases, got.tolist(), lo, hi):
        if kind in ("lo", "hi"):
            assert x in (a, b)
        elif kind == "nan":
            assert math.isnan(x)


@PROPERTY
@given(kappa=st.floats(0.05, 0.99), sign=st.sampled_from(("minus", "plus")),
       gate=st.sampled_from((None, ImperfectionParams(0.78, 0.98, 0.34))),
       points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                 st.floats(0.0, math.pi / 2)), min_size=1, max_size=6),
       kinds=st.lists(st.tuples(st.sampled_from(("inside", "lo", "hi", "nan", "outside")),
                                st.floats(0.0, 1.0)), min_size=1, max_size=8))
def test_a_bracket_per_row_is_one_call_per_bracket(kappa, sign, gate, points, kinds):
    # targets (working points, repetitions) against a bracket per working
    # point, (points, 1): each row is, bit for bit, the call with its own
    # scalar bracket, the way table1 inverts a block of working points
    model = ModelParams(kappa, sign, gate)
    n, d = model.coefficients
    curve = lambda t: kernels.trig_curve(n, d, kappa, kernels.trig_basis(np.array([t])))[0]
    lo, hi, targets = [], [], []
    for u, v, theta in points:
        try:
            start, stop = model.branch_containing(theta)
        except AmbiguousBranch:
            continue
        a, b = start + (stop - start) * min(u, v), start + (stop - start) * max(u, v)
        c_a, c_b = curve(a), curve(b)
        width = max(abs(c_b - c_a), 1e-3)  # "outside" lies past the range by more than this
        lo.append(a)
        hi.append(b)
        targets.append([{"inside": curve(a + w * (b - a)), "lo": c_a, "hi": c_b, "nan": math.nan,
                         "outside": max(c_a, c_b) + width * (1.0 + w)}[kind]
                        for kind, w in kinds])
    assume(lo)
    got = kernels.invert_trig(n, d, kappa, np.array(targets), np.array(lo)[:, None],
                              np.array(hi)[:, None])
    alone = [kernels.invert_trig(n, d, kappa, np.array(row), a, b)
             for row, a, b in zip(targets, lo, hi)]
    assert got.tobytes() == np.array(alone).tobytes()
    for row, a, b in zip(got.tolist(), lo, hi):
        for x, (kind, _) in zip(row, kinds):
            if kind in ("lo", "hi"):
                assert x in (a, b)
            elif kind in ("nan", "outside"):
                assert math.isnan(x)


def test_model_equals_the_ideal_closed_forms_exactly():
    # on the ideal pair the model's general form rounds as the ideal closed
    # forms do, so an ideal curve value is an exact hit for invert_trig's brackets
    thetas = np.concatenate([THETA, np.random.default_rng(0).uniform(-4.0, 4.0, 20000)])
    for kappa in (*KAPPAS, 1.0):
        for sign_label, sign in SIGNS:
            model = ModelParams(kappa, sign_label)
            # exact equality; a zero may differ in sign
            np.testing.assert_array_equal(model.checked(thetas)["sigma"],
                                          ideal_sigma(thetas, kappa, sign))
            np.testing.assert_array_equal(model.checked(thetas)["slope"],
                                          ideal_slope(thetas, kappa, sign))
            np.testing.assert_array_equal(model.evaluate(thetas)["p_ps"],
                                          ideal_postselect_probability(thetas, kappa, sign))


@PROPERTY
@given(kappa=st.floats(0.05, 0.99), sign=st.sampled_from(("minus", "plus")),
       gate=st.sampled_from((None, ImperfectionParams(0.78, 0.98, 0.34))),
       theta=st.floats(0.0, math.pi / 2),
       cases=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.5, 1.5),
                                st.sampled_from(("inside", "lo", "hi", "nan"))),
                      min_size=1, max_size=12))
def test_closed_form_inverse_matches_bisection(kappa, sign, gate, theta, cases):
    # one bracket per case within a monotone branch of either model: the
    # closed form gives the bisection oracle's root to 1e-12 rad, NaN for
    # the same targets, and the endpoint itself on an exact hit
    model = ModelParams(kappa, sign, gate)
    n, d = model.coefficients
    try:
        start, stop = model.branch_containing(theta)
    except AmbiguousBranch:
        assume(False)
    assume(kernels.trig_turning_points(n, d, start, stop).size == 0)
    curve = lambda t: kernels.trig_curve(n, d, kappa, kernels.trig_basis(t))
    for u, v, w, kind in cases:
        a, b = start + (stop - start) * min(u, v), start + (stop - start) * max(u, v)
        at = {"inside": a + w * (b - a), "lo": a, "hi": b, "nan": math.nan}[kind]
        target = curve(np.array([at]))
        got = kernels.invert_trig(n, d, kappa, target, a, b)
        want = invert_sigma(target, curve, a, b)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        if kind in ("lo", "hi"):
            assert got[0] in (a, b)
        elif kind == "nan":
            assert math.isnan(got[0])


def test_pusey_kernel_skips_orthogonal_point():
    # 22.5 deg is orthogonal to <-|: NaN on sweep-pusey's path
    i0, i1, p_phi = pusey_sweep(np.array([math.pi / 8]), 0.335, "minus")
    assert p_phi[0] <= 1e-30
    assert math.isnan(i0[0]) and math.isnan(i1[0])


@PROPERTY
@given(kappa=st.floats(0.01, 0.99), theta=st.floats(0.0, math.pi / 2), sign=st.sampled_from((-1.0, 1.0)))
def test_anomaly_peak_property(kappa, theta, sign):
    # |sigma_w| peaks at 1/kappa where sin 4t = -sign sqrt(1 - kappa^2): +1/kappa
    # where cos 4t = kappa, -1/kappa where cos 4t = -kappa
    r = math.sqrt(1.0 - kappa * kappa)
    rising = math.asin(-sign * r) / 4.0
    peaks = np.array([rising, math.pi / 4.0 - rising])
    model = ModelParams(kappa, "minus" if sign < 0 else "plus")
    assert model.checked(peaks)["sigma"] == pytest.approx([1.0 / kappa, -1.0 / kappa], rel=1e-9)
    # both are turning points, and nothing on the curve exceeds them
    slope = model.checked(peaks)["slope"]
    assert np.all(np.abs(slope) * kappa**4 <= 1e-12)
    assert abs(model.checked(theta)["sigma"]) <= (1.0 + 1e-12) / kappa
