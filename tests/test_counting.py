import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import draw_counts as draw_counts_per_row
from oracles import ideal_sigma

from weakps import (
    AcquisitionConfig,
    derive_seeds,
    draw_counts,
    weak_values_from_counts,
)
from weakps import counting
from weakps.counting import MAX_EXPECTED_TOTAL, postselected_counts
from weakps.errors import ZeroStrength
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


def _seeds(*seeds):
    return np.array(seeds, dtype=np.uint64)


def _draw(probs, config):
    """One count row drawn from ``config.seed``: the one-seed batch of the
    channel probabilities ``(p_mp, p_mm, p_pp, p_pm)``."""
    return draw_counts(probs, _seeds(config.seed), config)[0].tolist()


def _batch(theta, config, repetitions):
    """Count rows of independent repetitions at one angle, seeded from the
    config seed as table1 seeds its working points."""
    probs = channel_probabilities([theta], KAPPA)[:, 0]
    return draw_counts(probs, derive_seeds(config.seed, repetitions), config)


def test_draws_match_one_generator_per_seed():
    # row i is four scalar draws, in channel order, from default_rng(seeds[i])
    config = AcquisitionConfig(seed=0, rate=700.0, duration=3.0)
    seeds = np.concatenate([derive_seeds(42, 25), _seeds(0, 1, 2**64 - 1)])
    probs = channel_probabilities(np.linspace(0.0, math.pi / 2, len(seeds)), KAPPA).T
    expected = draw_counts_per_row(probs, seeds, config).tolist()
    counts = draw_counts(probs, seeds, config)
    assert counts.dtype == np.int64 and counts.shape == (len(seeds), 4)
    assert counts.tolist() == expected
    assert draw_counts(probs[:25], derive_seeds(42, 25), config).tolist() == expected[:25]
    # one row for every seed is that row repeated
    repeated = draw_counts(probs[3], seeds, config)
    assert repeated.tolist() == draw_counts(np.tile(probs[3], (len(seeds), 1)), seeds,
                                            config).tolist()
    # a one-seed batch is that seed's row; the config's own seed is not used
    other = AcquisitionConfig(seed=7, rate=700.0, duration=3.0)
    assert draw_counts(probs[3], seeds[3:4], other).tolist() == [expected[3]]


@pytest.mark.parametrize("seeds", [[1, 2], (1, 2), np.array([1, 2], dtype=np.int64),
                                   np.array([1.0, 2.0])],
                         ids=["list", "tuple", "int64-array", "float-array"])
def test_draw_refuses_seeds_that_are_not_a_uint64_array(seeds):
    with pytest.raises(ValueError, match="seeds must be a uint64 array"):
        draw_counts([0.25] * 4, seeds, AcquisitionConfig(seed=1))


# The ends of each 32-bit seed word.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@pytest.mark.parametrize("block", [counting._SEED_BLOCK, 3])
def test_edge_seeds_draw_as_default_rng(monkeypatch, block):
    monkeypatch.setattr(counting, "_SEED_BLOCK", block)  # 3: the seeds span blocks
    config = AcquisitionConfig(seed=0, rate=700.0, duration=3.0)
    probs = channel_probabilities([0.3], KAPPA)[:, 0]
    expected = draw_counts_per_row(probs, _seeds(*EDGE_SEEDS), config).tolist()
    assert draw_counts(probs, _seeds(*EDGE_SEEDS), config).tolist() == expected
    for seed, row in zip(EDGE_SEEDS, expected):
        assert _draw(probs, AcquisitionConfig(seed=seed, rate=700.0, duration=3.0)) == row


def test_root_seeds_past_2_64_draw_through_derive_seeds():
    # numpy's SeedSequence takes any nonnegative root; the seeds it derives are uint64
    config = AcquisitionConfig(seed=2**128 + 5)
    probs = channel_probabilities([0.3], KAPPA)[:, 0]
    seeds = derive_seeds(config.seed, 3)
    expected = draw_counts_per_row(probs, seeds, config).tolist()
    assert draw_counts(probs, seeds, config).tolist() == expected


@settings(derandomize=True, database=None, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
def test_generator_states_match_pcg64(seeds):
    expected = [np.random.PCG64(seed).state["state"] for seed in seeds]
    expected = [(s["state"], s["inc"]) for s in expected]
    state_hi, state_lo, inc_hi, inc_lo = (w.tolist() for w in counting._pcg64_states(_seeds(*seeds)))
    got = [(sh << 64 | sl, ih << 64 | il)
           for sh, sl, ih, il in zip(state_hi, state_lo, inc_hi, inc_lo)]
    assert got == expected


# Channel weights spanning every sampler regime once scaled by a total: zero
# (no draw), the multiplication method (mean below 10) and PTRS (from 10).
_WEIGHTS = st.one_of(st.just(0.0), st.floats(-20.0, 0.0).map(lambda e: 10.0**e))
_TOTALS = st.sampled_from([1.0, 30.0, 1e4, 1e9, 1e15, MAX_EXPECTED_TOTAL])
# seeds about 2**32, where a seed gains its second 32-bit word, and anywhere
_WIDE_SEEDS = st.one_of(st.integers(2**32 - 3, 2**32 + 3), st.integers(0, 2**64 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(total=_TOTALS,
       rows=st.lists(st.tuples(_WIDE_SEEDS, st.lists(_WEIGHTS, min_size=3, max_size=3),
                               st.integers(0, 3)), min_size=1, max_size=40))
@example(total=MAX_EXPECTED_TOTAL, rows=[(2**32, [1e-18, 0.0, 1e-15], 2), (2**32 - 1, [0.0] * 3, 0)])
@example(total=1e4, rows=[(2**40 + s, [1e-4, 3e-3, 1e-6], s % 4) for s in range(40)])
def test_draws_equal_one_generator_per_seed_on_mixed_means(total, rows):
    # every channel mean, from 0 through both samplers to numpy's largest, draws as default_rng
    probs = []
    for _, weights, heavy in rows:
        weights = [*weights]
        weights.insert(heavy, 1.0)  # one channel carries most of the row
        probs.append(np.array(weights) / sum(weights))
    seeds = _seeds(*(seed for seed, _, _ in rows))
    config = AcquisitionConfig(seed=0, rate=total, duration=1.0)
    expected = draw_counts_per_row(probs, seeds, config).tolist()
    assert draw_counts(probs, seeds, config).tolist() == expected
    with mock.patch.object(counting, "_FEW_ROWS", 0):  # every try on the array path
        assert draw_counts(probs, seeds, config).tolist() == expected


@pytest.mark.parametrize("n", [1, 8, counting._FEW_ROWS, counting._FEW_ROWS + 1, 2000])
def test_batches_about_the_few_rows_bound_draw_as_default_rng(n):
    # a block of at most _FEW_ROWS rows is drawn by the scalar copy alone; a
    # larger one runs array passes until that few are live, some part-way
    # through a channel, and the copy draws what they have left from where
    # the channel began
    config = AcquisitionConfig(seed=0, rate=300.0, duration=1.0)
    probs = channel_probabilities(np.linspace(0.0, math.pi / 2, n), KAPPA).T.copy()
    probs[::3, 0] = 0.0  # zero means, first and inside the rows a pass leaves
    probs[1::3, 2] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    seeds = derive_seeds(n, n)
    assert draw_counts(probs, seeds, config).tolist() == \
        draw_counts_per_row(probs, seeds, config).tolist()


# Rows per set about the few-rows bound, and blocks of seeds that split the sets' rows.
_SIZES = st.one_of(st.sampled_from([1, counting._FEW_ROWS, counting._FEW_ROWS + 1]),
                   st.integers(1, 300))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(sets=st.integers(1, 3), n=_SIZES,
       block=st.sampled_from([counting._SEED_BLOCK, 3, 5, 64, 257]))
def test_a_multi_set_draw_is_one_draw_per_set_bit_for_bit(sets, n, block):
    # each set of probability rows draws from the same seeds, as if drawn
    # alone; a block's sets share its states (tiled only where there are
    # several sets) and one pass never holds more than _SEED_BLOCK rows
    rng = np.random.default_rng([sets, n, block])
    probs = rng.dirichlet(np.ones(4), size=(sets, n))
    probs[:, ::3, 0] = 0.0  # zero means, as in test_batches_about_the_few_rows_bound...
    probs[:, 1::3, 2] = 0.0
    probs /= probs.sum(axis=-1, keepdims=True)
    seeds = derive_seeds(n, n)
    config = AcquisitionConfig(seed=0, rate=rng.choice([30.0, 300.0, 1e4]), duration=1.0)
    expected = np.stack([draw_counts(rows, seeds, config) for rows in probs])
    lanes, tiles, states = [], [], []
    draw_block, tile, pcg64_states = counting._draw_block, np.tile, counting._pcg64_states
    with mock.patch.object(counting, "_SEED_BLOCK", block), \
            mock.patch.object(counting, "_draw_block",
                              lambda lam, *args: lanes.append(len(lam)) or draw_block(lam, *args)), \
            mock.patch.object(np, "tile", lambda a, reps: tiles.append(a.ndim) or tile(a, reps)), \
            mock.patch.object(counting, "_pcg64_states",
                              lambda seeds: states.append(seeds.size) or pcg64_states(seeds)):
        counts = draw_counts(probs, seeds, config)
    assert counts.dtype == np.int64 and counts.tobytes() == expected.tobytes()
    assert max(lanes) <= block and sum(lanes) == sets * n
    assert sum(states) == n  # every seed is seeded once
    assert tiles.count(1) == (4 * len(states) if sets > 1 else 0)  # state words, copied


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=3), n=_SIZES,
       block=st.sampled_from([counting._SEED_BLOCK, 3, 5, 64, 257]),
       guard=st.sampled_from([counting._GUARD, 0.05]))
def test_a_partial_draw_is_the_leading_channels_of_the_whole_draw(widths, n, block, guard):
    # each set draws only its leading channels, bit for bit those of the
    # 4-channel draw, and reads 0 in the others; also across blocks that
    # split the sets' rows, and where a wide guard sends many tries to the
    # scalar copy, which draws them again from where the channel began
    rng = np.random.default_rng([len(widths), n, block])
    probs = rng.dirichlet(np.ones(4), size=(len(widths), n))
    probs[:, ::3, 0] = 0.0  # zero means, as in test_batches_about_the_few_rows_bound...
    probs[:, 1::3, 2] = 0.0
    probs /= probs.sum(axis=-1, keepdims=True)
    seeds = derive_seeds(n, n)
    config = AcquisitionConfig(seed=0, rate=rng.choice([30.0, 300.0, 1e4]), duration=1.0)
    with mock.patch.object(counting, "_SEED_BLOCK", block), \
            mock.patch.object(counting, "_GUARD", guard):
        whole = draw_counts(probs, seeds, config)
        partial = draw_counts(probs, seeds, config, widths)
        alone = draw_counts(probs[0], seeds, config, widths[0])  # one count, no sets
    assert partial.shape == whole.shape and partial.dtype == np.int64
    for got, full, width in zip(partial, whole, widths, strict=True):
        assert got[:, :width].tolist() == full[:, :width].tolist()
        assert not got[:, width:].any()
    assert alone.tolist() == partial[0].tolist()


@pytest.mark.parametrize("channels", [0, 5, -1, [4, 0], [2, 2, 2], 2.0, True, "2"])
def test_draw_refuses_channel_counts_outside_1_to_4(channels):
    probs = np.full((2, 3, 4), 0.25)  # two sets of three rows
    with pytest.raises(ValueError, match="channels must count 1 to 4 channels"):
        draw_counts(probs, derive_seeds(1, 3), AcquisitionConfig(seed=0), channels)


@pytest.mark.parametrize("block", [counting._SEED_BLOCK, 5])
@pytest.mark.parametrize("repetitions", [1, 2, 40, 500])
def test_table1_shaped_draw_broadcasts_each_point_over_its_repetitions(repetitions, block,
                                                                        monkeypatch):
    # rows (set, point) broadcast over the point's seeds, shape (points,
    # repetitions): each is the per-row batch of that point's probabilities,
    # also where blocks of 2 seeds split the points and the sets' rows
    config = AcquisitionConfig(seed=0)
    monkeypatch.setattr(counting, "_SEED_BLOCK", block)
    thetas = np.radians([[20.0, 22.5, 25.0, 27.5], [67.5, 70.0, 72.5, 75.0]])
    probs = np.stack([channel_probabilities(t, KAPPA).T for t in thetas])
    seeds = derive_seeds(11, 4 * repetitions)
    counts = draw_counts(probs[:, :, None], seeds.reshape(4, repetitions), config)
    assert counts.shape == (2, 4, repetitions, 4)
    for rows, got in zip(probs, counts):
        expected = draw_counts(np.repeat(rows, repetitions, axis=0), seeds, config)
        assert got.reshape(-1, 4).tolist() == expected.tolist()


def _guard_batch():
    """A batch whose channel means span both samplers, its seeds, and the
    rows one ``default_rng`` per seed draws."""
    config = AcquisitionConfig(seed=0, rate=1e4, duration=1.0)
    probs = np.vstack([channel_probabilities(np.linspace(0.0, math.pi / 2, 500), KAPPA).T,
                       [[0.0, 1e-4, 0.5, 0.4999]] * 20])
    seeds = derive_seeds(9, len(probs))
    return config, probs, seeds, draw_counts_per_row(probs, seeds, config).tolist()


def _counting_calls(monkeypatch, name):
    """A list that gets the first argument of every call of ``counting.<name>``."""
    calls, function = [], getattr(counting, name)
    monkeypatch.setattr(counting, name,
                        lambda first, *args: calls.append(first) or function(first, *args))
    return calls


def _doubts(monkeypatch):
    """A list that gets the number of lanes in doubt of every try on the array path."""
    doubts = []
    for name in ("_ptrs_try", "_mult_try"):
        def counted(*args, sampler=getattr(counting, name)):
            *out, doubt = sampler(*args)
            doubts.append(int(doubt.sum()))
            return *out, doubt
        monkeypatch.setattr(counting, name, counted)
    return doubts


def test_widest_guard_sends_every_draw_to_the_scalar_copy(monkeypatch):
    # at the default guard few lanes leave the array path in doubt; with an
    # infinite one every drawn lane does, the scalar copy draws each, and
    # the rows are the same
    config, probs, seeds, expected = _guard_batch()
    doubts = _doubts(monkeypatch)
    scalar = _counting_calls(monkeypatch, "_scalar_poisson")
    assert draw_counts(probs, seeds, config).tolist() == expected
    assert sum(doubts) < 0.01 * np.count_nonzero(probs)
    doubts.clear()
    scalar.clear()
    monkeypatch.setattr(counting, "_GUARD", math.inf)
    assert draw_counts(probs, seeds, config).tolist() == expected
    assert sum(doubts) == np.count_nonzero(probs) == sum(mean > 0.0 for mean in scalar)


def test_widest_few_ulp_bound_sends_every_scalar_draw_to_numpy(monkeypatch):
    # at the default bound no scalar draw (the tail rows' and the doubt
    # lanes') goes to numpy's own Generator.poisson; with an infinite one
    # every one does, and the rows are the same
    config, probs, seeds, expected = _guard_batch()
    scalar = _counting_calls(monkeypatch, "_scalar_poisson")
    arbitrated = _counting_calls(monkeypatch, "_numpy_poisson")
    assert draw_counts(probs, seeds, config).tolist() == expected
    drawn = [mean for mean in scalar if mean > 0.0]
    assert arbitrated == [] and drawn
    monkeypatch.setattr(counting, "_NEAR", math.inf)
    assert draw_counts(probs, seeds, config).tolist() == expected
    assert arbitrated == drawn
    arbitrated.clear()
    monkeypatch.setattr(counting, "_GUARD", math.inf)  # every lane a scalar draw
    assert draw_counts(probs, seeds, config).tolist() == expected
    assert len(arbitrated) == np.count_nonzero(probs)


def test_loggam_is_log_gamma_at_integers():
    # numpy's Stirling series, stepped down from 7 below 7
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 11.0, 120.0, 1e6, 2.0**52])
    expected = [math.lgamma(v) for v in x.tolist()]
    assert counting._loggam(x).tolist() == pytest.approx(expected, rel=1e-14, abs=1e-14)
    assert counting._loggam(x[6:]).tolist() == pytest.approx(expected[6:], rel=1e-14)


def test_max_expected_total_is_numpys_largest_poisson_mean():
    int64_max = np.iinfo(np.int64).max
    assert MAX_EXPECTED_TOTAL == float(int64_max - np.sqrt(int64_max) * 10)
    rng = np.random.default_rng(0)
    rng.poisson(MAX_EXPECTED_TOTAL)
    with pytest.raises(ValueError):
        rng.poisson(np.nextafter(MAX_EXPECTED_TOTAL, math.inf))


# The Poisson law of one channel's draws: a chi-square statistic of their
# histogram against the Poisson pmf, its bins consecutive counts each expected
# at least _LAW_LEAST times, the rest joined to the last bin.  Its
# Wilson-Hilferty cube root is about standard normal whatever the bins, and
# must lie below the normal's upper 1e-4 point, _LAW_Z.
_LAW_DRAWS, _LAW_LEAST, _LAW_Z = 10_000, 20.0, 3.719016485455709
_LAW_MEANS = [0.5, 3.0, 9.99, 10.0, 37.0, 1e4]  # about the switch at 10 to PTRS
_LAW_ROUTES = {  # route -> (patched counting constants, root seed)
    "array": ({"_FEW_ROWS": 0}, 3101),  # one block, every try on the array path
    "scalar": ({"_SEED_BLOCK": counting._FEW_ROWS}, 3102),  # blocks the scalar copy draws
    "blocks": ({"_SEED_BLOCK": 1000}, 3103),  # blocks of array passes and a scalar tail
}


def _poisson_bins(lam, n):
    """Lower edges of bins of consecutive counts, each expected at least
    ``_LAW_LEAST`` times in ``n`` draws of mean ``lam``, and those expectations."""
    edges, expected, run = [0], [], 0.0
    for k in range(int(lam + 12 * math.sqrt(lam) + 30)):
        run += n * math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
        if run >= _LAW_LEAST:
            edges.append(k + 1)
            expected.append(run)
            run = 0.0
    edges.pop()  # the last bin runs on to infinity
    expected[-1] += n - sum(expected)
    return np.array(edges), np.array(expected)


@pytest.mark.parametrize("route", list(_LAW_ROUTES))
@pytest.mark.parametrize("lam", _LAW_MEANS)
def test_one_channel_draws_follow_the_poisson_law(route, lam):
    patches, root = _LAW_ROUTES[route]
    seeds = derive_seeds(root + _LAW_MEANS.index(lam), _LAW_DRAWS)
    config = AcquisitionConfig(seed=0, rate=lam, duration=1.0)
    with mock.patch.multiple(counting, **patches):
        draws = draw_counts([1.0, 0.0, 0.0, 0.0], seeds, config, channels=1)
    assert not draws[:, 1:].any()
    edges, expected = _poisson_bins(lam, _LAW_DRAWS)
    observed = np.bincount(np.searchsorted(edges, draws[:, 0], side="right") - 1,
                           minlength=edges.size)
    chi2, df = float(((observed - expected) ** 2 / expected).sum()), edges.size - 1
    z = ((chi2 / df) ** (1 / 3) - 1 + 2 / (9 * df)) / math.sqrt(2 / (9 * df))
    assert df >= 3 and z < _LAW_Z, (chi2, df, z)


def test_draw_rejects_invalid_probabilities():
    config = AcquisitionConfig(seed=1)
    with pytest.raises(ValueError, match="must sum to 1, got 1.2"):
        draw_counts([[0.25] * 4, [0.3] * 4], _seeds(1, 2), config)
    with pytest.raises(ValueError, match="p_pp must be a nonnegative probability"):
        draw_counts([0.5, 0.5, -0.1, 0.1], _seeds(1), config)
    with pytest.raises(ValueError, match="p_mm must be a nonnegative probability"):
        draw_counts([0.5, math.nan, 0.25, 0.25], _seeds(1), config)
    # the tolerance on a negative probability: -1e-13 passes, -1e-11 not
    assert draw_counts([0.5, 0.5, -1e-13, 1e-13], _seeds(1), config)[0, 2:].tolist() == [0, 0]
    with pytest.raises(ValueError, match="p_pp must be a nonnegative probability, got -1e-11"):
        draw_counts([0.5, 0.5, -1e-11, 1e-11], _seeds(1), config)
    with pytest.raises(ValueError, match="2 probability rows for 3 seeds"):
        draw_counts([[0.25] * 4] * 2, _seeds(1, 2, 3), config)


@pytest.mark.parametrize("probs, width", [
    ([0.5, 0.5, 0.0], "rows of 3"),  # an IndexError from the row sums before
    ([[0.25] * 4 + [0.0]] * 2, "rows of 5"),  # "2 probability rows for 2 seeds" before
    ([[1.0]] * 2, "rows of 1"),  # an IndexError before
    (1.0, "a scalar"),
])
def test_draw_names_the_width_of_rows_that_do_not_hold_4_channels(probs, width):
    with pytest.raises(ValueError, match=f"probability rows must hold 4 channels, got {width}$"):
        draw_counts(probs, _seeds(1, 2), AcquisitionConfig(seed=1))


def test_weak_values_match_the_scalar_estimator_bit_for_bit():
    rng = np.random.default_rng(3)
    # the cube is f*f*f in float64 below 2**26, where f*f is exact, and the
    # Python-int power from there on: totals on both sides, and around 2**26.5,
    # where f*f*f stops being the correctly rounded cube
    totals = np.concatenate([np.arange(2**26 - 50, 2**26 + 50),
                             np.arange(94_906_215, 94_906_315),
                             np.geomspace(2**25, 2**40, 200).astype(np.int64)])
    counts = np.vstack([
        rng.integers(0, 50, size=(200, 4)),
        rng.integers(0, 3_000_000, size=(200, 4)),  # totals whose cube leaves int64
        [[0, 0, 7, 1], [5, 0, 0, 0], [0, 9, 0, 0]],
        np.stack([totals // 2, totals - totals // 2, totals // 3, totals - totals // 3], axis=1),
    ])
    for sign in ("minus", "plus"):
        sigmas, variances = weak_values_from_counts(counts, KAPPA, sign, 0.008)
        pairs = postselected_counts(counts, sign).tolist()
        for (n_a, n_b), sigma, var in zip(pairs, sigmas.tolist(), variances.tolist()):
            if n_a + n_b == 0:
                assert math.isnan(sigma) and math.isnan(var)
                continue
            total = n_a + n_b
            sigma_ref = (n_a - n_b) / (KAPPA * total)
            var_ref = (4.0 * n_a * n_b / (KAPPA * KAPPA * total**3)
                       + sigma_ref * sigma_ref * (0.008 / KAPPA) ** 2)
            assert (sigma, var) == (sigma_ref, var_ref)
    with pytest.raises(ZeroStrength):
        weak_values_from_counts(counts, 0.0, "minus")


def test_seed_determinism():
    probs = channel_probabilities(20 * D2R, KAPPA)
    a = _draw(probs, AcquisitionConfig(seed=123))
    b = _draw(probs, AcquisitionConfig(seed=123))
    c = _draw(probs, AcquisitionConfig(seed=124))
    assert a == b
    assert a != c


def test_degenerate_distribution():
    probs = [1.0, 0.0, 0.0, 0.0]
    n_mp, n_mm, n_pp, n_pm = _draw(probs, AcquisitionConfig(seed=5, rate=200.0, duration=5.0))
    assert n_mm == n_pp == n_pm == 0
    assert abs(n_mp - 1000) < 5 * math.sqrt(1000)


def test_law_of_large_numbers():
    probs = [0.25, 0.25, 0.25, 0.25]
    for n in _draw(probs, AcquisitionConfig(seed=11, rate=4e6, duration=1.0)):
        assert abs(n - 1e6) < 5 * 1e3


def test_rejects_unnormalized_probabilities():
    probs = [0.3, 0.3, 0.3, 0.3]
    with pytest.raises(ValueError):
        _draw(probs, AcquisitionConfig(seed=1))


def test_estimator_mean_matches_ideal_value():
    theta = 20 * D2R
    sigma_ideal = float(ideal_sigma(theta, KAPPA, -1.0))
    config = AcquisitionConfig(seed=2026, rate=2000.0, duration=5.0)
    values, _ = weak_values_from_counts(_batch(theta, config, 10_000), KAPPA, "minus")
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - sigma_ideal) < 3 * se


def test_symmetric_counts_give_zero_with_poisson_only_variance():
    (sigma_hat,), (var,) = weak_values_from_counts([[500, 500, 0, 123]], 0.5, "minus", 0.05)
    assert sigma_hat == 0.0
    # the strength term vanishes with the estimate; Poisson term survives
    assert var == pytest.approx(4 * 500 * 500 / (0.5**2 * 1000**3), abs=1e-18)


def test_empty_partner_channel_pins_the_estimate():
    (sigma_hat,), (var,) = weak_values_from_counts([[1000, 0, 0, 0]], 0.5, "minus")
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
    # counts tuned so sigma_hat is close to the anomaly peak
    (sigma_hat,), (var,) = weak_values_from_counts([[560, 2, 0, 0]], KAPPA, "minus", 0.008)
    assert sigma_hat > 2.9
    var_poisson = 4 * 560 * 2 / (KAPPA**2 * 562**3)
    var_kappa = sigma_hat**2 * (0.008 / KAPPA) ** 2
    assert var == pytest.approx(var_poisson + var_kappa, rel=1e-12)
    assert var_kappa > var_poisson


def test_empty_channel_raises():
    # an empty postselected pair gives NaN; the estimate command raises EmptyChannel on it
    sigma_hat, var = weak_values_from_counts([[0, 0, 10, 3]], KAPPA, "minus")
    assert math.isnan(sigma_hat[0]) and math.isnan(var[0])
    with pytest.raises(ZeroStrength):
        weak_values_from_counts([[0, 0, 10, 3]], 0.0, "plus")


@pytest.mark.parametrize("counts, message", [
    ([10, 5, 7, 3], "rows of 4 integer counts"),  # an IndexError before
    (np.ones((2, 3), dtype=np.int64), "rows of 4 integer counts"),  # an IndexError under plus
    (np.ones((2, 5), dtype=np.int64), "rows of 4 integer counts"),  # read as its first 4
    ([[-10, 5, 7, 3]], "nonnegative integers, got -10"),  # sigma 10, variance positive
    ([[2.7, 1, 0, 0]], "nonnegative integers, got 2.7"),  # truncated to 2
])
def test_count_rows_must_hold_4_nonnegative_integers(counts, message):
    for sign in ("minus", "plus"):
        with pytest.raises(ValueError, match=message):
            postselected_counts(counts, sign)
        with pytest.raises(ValueError, match=message):
            weak_values_from_counts(counts, KAPPA, sign)


@pytest.mark.parametrize("root", [0, 1, 12345, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, 2**64,
                                  2**128 + 5, 7**60, np.uint64(2**64 - 1), True, [1, 2]])
def test_derive_seeds_are_seed_sequence_words(root):
    # an integer root is mixed here (7**60 has 6 words, past the pool's 4);
    # any other, such as the list, is numpy's own SeedSequence
    for n in (0, 1, 5, 1000, 80_000):
        seeds = derive_seeds(root, n)
        expected = np.random.SeedSequence(root).generate_state(n, np.uint64)
        assert seeds.dtype == np.uint64 and seeds.tolist() == expected.tolist()


@pytest.mark.parametrize("root", [-1, 1.5, 2.0, np.int64(-3)])
def test_derive_seeds_refuses_a_root_as_seed_sequence_does(root):
    with pytest.raises((TypeError, ValueError)) as numpy_error:
        np.random.SeedSequence(root)
    with pytest.raises(numpy_error.type, match=re.escape(str(numpy_error.value))):
        derive_seeds(root, 3)


def test_derive_seeds_reproducible_and_distinct():
    a = derive_seeds(7, 100)
    b = derive_seeds(7, 100)
    c = derive_seeds(8, 100)
    assert a.dtype == np.uint64
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    assert len(set(a.tolist())) == 100


def test_one_sigma_coverage_window():
    theta = 20 * D2R
    sigma_ideal = float(ideal_sigma(theta, KAPPA, -1.0))
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
