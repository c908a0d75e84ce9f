import math

import numpy as np
import pytest

from weakps import kernels
from weakps.weak import postselect_probability, weak_value_curve, weak_value_slope

KAPPAS = (0.1, 0.335, 0.7, 0.95)
THETA = np.linspace(0.0, math.pi / 2, 1001)


def test_curve_kernel_matches_scalar_op():
    pairs = (
        (kernels.postselect_probability, postselect_probability, 1e-15),
        (kernels.weak_value_curve, weak_value_curve, 1e-14),
        (kernels.weak_value_slope, weak_value_slope, 1e-11),
    )
    for kappa in KAPPAS:
        for sign_label, sign in (("minus", -1.0), ("plus", 1.0)):
            for kernel, scalar, atol in pairs:
                expected = [scalar(t, kappa, sign_label) for t in THETA.tolist()]
                np.testing.assert_allclose(
                    kernel(THETA, kappa, sign), expected, rtol=0, atol=atol
                )


def test_fisher_kernel_equals_conditional_form():
    # stable form vs literal conditional-information arithmetic, off saturation
    kappa = 0.335
    r = math.sqrt(1 - kappa**2)
    thetas = np.deg2rad(np.linspace(1.0, 89.0, 177))
    f = kernels.fisher_curve(thetas, kappa, -1.0)
    sigma = kernels.weak_value_curve(thetas, kappa, -1.0)
    dsigma = kernels.weak_value_slope(thetas, kappa, -1.0)
    keep = 1.0 - np.abs(kappa * sigma) > 1e-6
    literal = kappa**2 * dsigma[keep] ** 2 / (1 - kappa**2 * sigma[keep] ** 2)
    np.testing.assert_allclose(f[keep], literal, rtol=1e-9)


def test_invert_round_trip():
    kappa = 0.335
    r = math.sqrt(1 - kappa**2)
    peak = math.asin(r) / 4
    thetas = np.linspace(0.0, peak - 1e-3, 200)
    targets = kernels.weak_value_curve(thetas, kappa, -1.0)
    curve = lambda t: kernels.weak_value_curve(t, kappa, -1.0)
    solved = kernels.invert_sigma(targets, curve, 0.0, peak - 1e-6)
    np.testing.assert_allclose(solved, thetas, atol=1e-9, rtol=0)


def test_invert_flags_unbracketed_targets():
    kappa = 0.335
    curve = lambda t: kernels.weak_value_curve(t, kappa, -1.0)
    out = kernels.invert_sigma(np.array([5.0, 1.5]), curve, 0.0, 0.05)
    assert math.isnan(out[0])


def test_pusey_kernel_skips_orthogonal_point():
    i0, i1, p_phi = kernels.pusey_curves(np.array([math.pi / 8]), 0.335, -1.0)
    assert p_phi[0] <= 1e-30
    assert math.isnan(i0[0]) and math.isnan(i1[0])
