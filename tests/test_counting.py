import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakps import (
    AcquisitionConfig,
    CountRecord,
    ProbabilityRecord,
    derive_seeds,
    draw_counts,
    ideal_probability_record,
    simulate_counts,
    weak_value_curve,
    weak_value_from_counts,
    weak_values_from_counts,
)
from weakps import counting
from weakps.counting import MAX_EXPECTED_TOTAL
from weakps.errors import EmptyChannel, ZeroStrength
from weakps.kernels import channel_probabilities

D2R = math.pi / 180.0
KAPPA = 0.335


def test_config_validation():
    with pytest.raises(ValueError):
        AcquisitionConfig(seed=1, rate=0.0)
    with pytest.raises(ValueError):
        AcquisitionConfig(seed=1, duration=-1.0)
    with pytest.raises(ValueError):
        AcquisitionConfig(seed=1, kappa_uncertainty=-0.1)
    with pytest.raises(ValueError):
        AcquisitionConfig(seed=-2)
    # numpy seeds no generator from a float or a bool, integral or not
    for seed in (5.0, np.float64(5.0), True, "5"):
        with pytest.raises(ValueError, match="seed must be an int"):
            AcquisitionConfig(seed=seed)
    assert AcquisitionConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    # numpy's Poisson sampler takes no larger mean
    AcquisitionConfig(seed=1, rate=MAX_EXPECTED_TOTAL, duration=1.0)
    for rate, duration in ((1e18, 100.0), (1e300, 1e10)):
        with pytest.raises(ValueError, match="exceeds the largest Poisson mean"):
            AcquisitionConfig(seed=1, rate=rate, duration=duration)


def _batch(theta, config, repetitions):
    """Count rows of independent repetitions at one angle, seeded from the
    config seed as table1 seeds its working points."""
    probs = channel_probabilities([theta], KAPPA)[:, 0]
    return draw_counts(probs, derive_seeds(config.seed, repetitions), config)


def test_draws_match_one_generator_per_seed():
    # row i is four scalar draws, in channel order, from default_rng(seeds[i])
    config = AcquisitionConfig(seed=0, rate=700.0, duration=3.0)
    seeds = derive_seeds(42, 25) + [0, 1, 2**64 - 1]
    probs = channel_probabilities(np.linspace(0.0, math.pi / 2, len(seeds)), KAPPA).T
    expected = []
    for seed, row in zip(seeds, probs.tolist()):
        rng = np.random.default_rng(seed)
        expected.append([rng.poisson(config.expected_total * p) for p in row])
    counts = draw_counts(probs, seeds, config)
    assert counts.dtype == np.int64 and counts.shape == (len(seeds), 4)
    assert counts.tolist() == expected
    # one row for every seed is that row repeated
    repeated = draw_counts(probs[3], seeds, config)
    assert repeated.tolist() == draw_counts(np.tile(probs[3], (len(seeds), 1)), seeds,
                                            config).tolist()
    # the scalar record is the one-seed batch
    rec = simulate_counts(ProbabilityRecord(*probs[3]), AcquisitionConfig(seed=seeds[3]))
    assert list(rec.as_dict().values()) == draw_counts(probs[3], [seeds[3]],
                                                       AcquisitionConfig(seed=0)).tolist()[0]


# The ends of each 32-bit seed word, and seeds past 2**64, whose generator
# states come from numpy's SeedSequence rather than from the array hashing.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 + 5]


@pytest.mark.parametrize("block", [counting._SEED_BLOCK, 3])
def test_edge_seeds_draw_as_default_rng(monkeypatch, block):
    monkeypatch.setattr(counting, "_SEED_BLOCK", block)  # 3: the seeds span blocks
    config = AcquisitionConfig(seed=0, rate=700.0, duration=3.0)
    probs = channel_probabilities([0.3], KAPPA)[:, 0]
    expected = []
    for seed in EDGE_SEEDS:
        rng = np.random.default_rng(seed)
        expected.append([rng.poisson(config.expected_total * p) for p in probs.tolist()])
    assert draw_counts(probs, EDGE_SEEDS, config).tolist() == expected
    for seed, row in zip(EDGE_SEEDS, expected):
        rec = simulate_counts(ProbabilityRecord(*probs),
                              AcquisitionConfig(seed=seed, rate=700.0, duration=3.0))
        assert list(rec.as_dict().values()) == row


@settings(derandomize=True, database=None, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
def test_generator_states_match_pcg64(seeds):
    expected = [np.random.PCG64(seed).state["state"] for seed in seeds]
    assert list(counting._pcg64_states(seeds)) == [(s["state"], s["inc"]) for s in expected]


def test_draw_rejects_invalid_probabilities():
    config = AcquisitionConfig(seed=1)
    with pytest.raises(ValueError, match="must sum to 1, got 1.2"):
        draw_counts([[0.25] * 4, [0.3] * 4], [1, 2], config)
    with pytest.raises(ValueError, match="p_pp must be a nonnegative probability"):
        draw_counts([0.5, 0.5, -0.1, 0.1], [1], config)
    with pytest.raises(ValueError, match="p_mm must be a nonnegative probability"):
        draw_counts([0.5, math.nan, 0.25, 0.25], [1], config)
    # ProbabilityRecord's tolerance on a negative probability: -1e-13 passes, -1e-11 not
    assert draw_counts([0.5, 0.5, -1e-13, 1e-13], [1], config)[0, 2:].tolist() == [0, 0]
    with pytest.raises(ValueError, match="p_pp must be a nonnegative probability, got -1e-11"):
        draw_counts([0.5, 0.5, -1e-11, 1e-11], [1], config)
    with pytest.raises(ValueError, match="2 probability rows for 3 seeds"):
        draw_counts([[0.25] * 4] * 2, [1, 2, 3], config)


def test_weak_values_match_the_scalar_estimator_bit_for_bit():
    rng = np.random.default_rng(3)
    counts = np.vstack([
        rng.integers(0, 50, size=(200, 4)),
        rng.integers(0, 3_000_000, size=(200, 4)),  # totals whose cube leaves int64
        [[0, 0, 7, 1], [5, 0, 0, 0], [0, 9, 0, 0]],
    ])
    for sign in ("minus", "plus"):
        config = AcquisitionConfig(seed=1, kappa_uncertainty=0.008)
        sigmas, variances = weak_values_from_counts(counts, KAPPA, sign, 0.008)
        for row, sigma, var in zip(counts.tolist(), sigmas.tolist(), variances.tolist()):
            rec = CountRecord(*row, config=config)
            if sum(rec.postselected(sign)) == 0:
                assert math.isnan(sigma) and math.isnan(var)
                with pytest.raises(EmptyChannel):
                    weak_value_from_counts(rec, KAPPA, sign)
                continue
            n_a, n_b = rec.postselected(sign)
            total = n_a + n_b
            sigma_ref = (n_a - n_b) / (KAPPA * total)
            var_ref = (4.0 * n_a * n_b / (KAPPA * KAPPA * total**3)
                       + sigma_ref * sigma_ref * (0.008 / KAPPA) ** 2)
            assert (sigma, var) == (sigma_ref, var_ref)
            assert weak_value_from_counts(rec, KAPPA, sign) == (sigma_ref, var_ref)
    with pytest.raises(ZeroStrength):
        weak_values_from_counts(counts, 0.0, "minus")


def test_seed_determinism():
    probs = ideal_probability_record(20 * D2R, KAPPA)
    a = simulate_counts(probs, AcquisitionConfig(seed=123))
    b = simulate_counts(probs, AcquisitionConfig(seed=123))
    c = simulate_counts(probs, AcquisitionConfig(seed=124))
    assert a.as_dict() == b.as_dict()
    assert a.as_dict() != c.as_dict()


def test_degenerate_distribution():
    probs = ProbabilityRecord(p_mp=1.0, p_mm=0.0, p_pp=0.0, p_pm=0.0, kappa=KAPPA)
    rec = simulate_counts(probs, AcquisitionConfig(seed=5, rate=200.0, duration=5.0))
    assert rec.n_mm == rec.n_pp == rec.n_pm == 0
    assert abs(rec.n_mp - 1000) < 5 * math.sqrt(1000)


def test_law_of_large_numbers():
    probs = ProbabilityRecord(p_mp=0.25, p_mm=0.25, p_pp=0.25, p_pm=0.25, kappa=KAPPA)
    rec = simulate_counts(probs, AcquisitionConfig(seed=11, rate=4e6, duration=1.0))
    for n in rec.as_dict().values():
        assert abs(n - 1e6) < 5 * 1e3


def test_rejects_unnormalized_probabilities():
    probs = ProbabilityRecord(p_mp=0.3, p_mm=0.3, p_pp=0.3, p_pm=0.3, kappa=KAPPA)
    with pytest.raises(ValueError):
        simulate_counts(probs, AcquisitionConfig(seed=1))


def test_estimator_mean_matches_ideal_value():
    theta = 20 * D2R
    sigma_ideal = weak_value_curve(theta, KAPPA, "minus")
    config = AcquisitionConfig(seed=2026, rate=2000.0, duration=5.0)
    values, _ = weak_values_from_counts(_batch(theta, config, 10_000), KAPPA, "minus")
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - sigma_ideal) < 3 * se


def test_symmetric_counts_give_zero_with_poisson_only_variance():
    config = AcquisitionConfig(seed=1, kappa_uncertainty=0.05)
    rec = CountRecord(n_mp=500, n_mm=500, n_pp=0, n_pm=123, config=config)
    sigma_hat, var = weak_value_from_counts(rec, 0.5, "minus")
    assert sigma_hat == 0.0
    # the strength term vanishes with the estimate; Poisson term survives
    assert var == pytest.approx(4 * 500 * 500 / (0.5**2 * 1000**3), abs=1e-18)


def test_empty_partner_channel_pins_the_estimate():
    config = AcquisitionConfig(seed=1)
    rec = CountRecord(n_mp=1000, n_mm=0, n_pp=0, n_pm=0, config=config)
    sigma_hat, var = weak_value_from_counts(rec, 0.5, "minus")
    assert sigma_hat == 2.0
    assert var == 0.0
    # parametric bootstrap around the observed counts agrees: the empty
    # channel resamples to zero, so the estimate never moves
    rng = np.random.default_rng(99)
    resampled = []
    for _ in range(10_000):
        na = rng.poisson(1000)
        nb = rng.poisson(0)
        resampled.append((na - nb) / (0.5 * (na + nb)))
    assert float(np.var(resampled)) == 0.0


def test_strength_uncertainty_term_dominates_near_the_peak():
    config = AcquisitionConfig(seed=1, kappa_uncertainty=0.008)
    # counts tuned so sigma_hat is close to the anomaly peak
    rec = CountRecord(n_mp=560, n_mm=2, n_pp=0, n_pm=0, config=config)
    sigma_hat, var = weak_value_from_counts(rec, KAPPA, "minus")
    assert sigma_hat > 2.9
    var_poisson = 4 * 560 * 2 / (KAPPA**2 * 562**3)
    var_kappa = sigma_hat**2 * (0.008 / KAPPA) ** 2
    assert var == pytest.approx(var_poisson + var_kappa, rel=1e-12)
    assert var_kappa > var_poisson


def test_empty_channel_raises():
    rec = CountRecord(n_mp=0, n_mm=0, n_pp=10, n_pm=3, config=AcquisitionConfig(seed=1))
    with pytest.raises(EmptyChannel):
        weak_value_from_counts(rec, KAPPA, "minus")
    with pytest.raises(ZeroStrength):
        weak_value_from_counts(rec, 0.0, "plus")


def test_derive_seeds_reproducible_and_distinct():
    a = derive_seeds(7, 100)
    b = derive_seeds(7, 100)
    c = derive_seeds(8, 100)
    assert a == b
    assert a != c
    assert len(set(a)) == 100


def test_one_sigma_coverage_window():
    theta = 20 * D2R
    sigma_ideal = weak_value_curve(theta, KAPPA, "minus")
    config = AcquisitionConfig(seed=515151, rate=2000.0, duration=5.0)
    reps = 1000
    sigma_hats, variances = weak_values_from_counts(_batch(theta, config, reps), KAPPA, "minus")
    covered = int(np.sum(np.abs(sigma_hats - sigma_ideal) <= np.sqrt(variances)))
    assert 0.62 <= covered / reps <= 0.74


def test_propagated_variance_tracks_empirical():
    theta = 20 * D2R
    config = AcquisitionConfig(seed=717171, rate=2000.0, duration=5.0)
    sigma_hats, variances = weak_values_from_counts(_batch(theta, config, 1000), KAPPA, "minus")
    empirical = float(np.var(sigma_hats, ddof=1))
    propagated = float(np.mean(variances))
    assert abs(empirical / propagated - 1.0) <= 0.15
