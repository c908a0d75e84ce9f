"""Poissonian coincidence-count simulation and count-level estimation of the
postselected value with propagated error bars.

Counts in the four coincidence channels are independent Poisson draws with
means ``rate * duration * p_channel``.  :func:`draw_counts` gives one count
row per seed of a :func:`derive_seeds` array, drawing the four channels in
the order (mp, mm, pp, pm) from the row's own PCG64 stream, the one
``np.random.default_rng(seed)`` gives.  The generator states of a batch are
derived from its seeds on arrays, by numpy's own seeding algorithm, and
loaded into one reused generator; seeds and draws are those of one
``default_rng`` per row.  :func:`weak_values_from_counts` estimates the
rescaled postselected value of every row.  Its error propagation is first
order (delta method) with two terms, matching the two modeled error sources:
Poisson channel noise and the calibration uncertainty on the strength.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; load it with weakps, not on the first draw

from .errors import EmptyChannel, ZeroStrength
from .states import _NORM_TOL, Strength, as_strength, sign_factor

__all__ = [
    "COUNT_COLUMNS",
    "MAX_EXPECTED_TOTAL",
    "AcquisitionConfig",
    "draw_counts",
    "postselected_counts",
    "weak_values_from_counts",
    "derive_seeds",
]

# The channels of a count row, in draw order.
COUNT_COLUMNS = ("n_mp", "n_mm", "n_pp", "n_pm")

# Largest mean numpy's Poisson sampler accepts.
MAX_EXPECTED_TOTAL = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def nonnegative_integer(name: str, value) -> int:
    """``value`` as an int; raises ValueError unless it is a nonnegative
    integer value (so a fractional count is refused, not truncated, and a
    bool is refused, not read as 0 or 1)."""
    n = int(value)
    if n != value or n < 0 or isinstance(value, bool):
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return n


@dataclass(frozen=True)
class AcquisitionConfig:
    """One acquisition window.

    ``rate`` is the mean *total* coincidence rate before postselection
    (counts per second); the default 2000/s makes the postselected channels
    collect order 10^3 events in the default 5 s window.  Their product, the
    expected total, is at most :data:`MAX_EXPECTED_TOTAL`.
    ``kappa_uncertainty`` is the one-sigma calibration error folded into
    error bars (0 disables the term).
    """

    seed: int
    rate: float = 2000.0
    duration: float = 5.0
    kappa_uncertainty: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rate", "duration", "kappa_uncertainty"):
            if isinstance(getattr(self, name), bool):  # not read as 0 or 1
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.rate <= 0.0 or not math.isfinite(self.rate):
            raise ValueError(f"rate must be positive, got {self.rate!r}")
        if self.duration <= 0.0 or not math.isfinite(self.duration):
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if not self.expected_total <= MAX_EXPECTED_TOTAL:
            raise ValueError(f"rate * duration = {self.expected_total!r} exceeds the largest "
                             f"Poisson mean, {MAX_EXPECTED_TOTAL!r}")
        if self.kappa_uncertainty < 0.0 or not math.isfinite(self.kappa_uncertainty):
            raise ValueError(f"kappa_uncertainty must be >= 0, got {self.kappa_uncertainty!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        nonnegative_integer("seed", self.seed)

    @property
    def expected_total(self) -> float:
        return self.rate * self.duration


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding constants
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Seeds hashed in one array pass; bounds the memory a large batch takes.
_SEED_BLOCK = 1 << 16


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) column pairs of ``n`` successive SeedSequence
    hashes whose running constant starts at ``init`` and steps by ``mult``."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


_MIX_XOR, _MIX_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # INIT_A, MULT_A
_OUT_XOR, _OUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # INIT_B, MULT_B


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One SeedSequence hash of every uint32 in ``values``."""
    values = (values ^ xor) * mult  # uint32 arrays wrap modulo 2**32
    return values ^ values >> 16


def _pcg64_states(seeds: np.ndarray) -> "Iterator[tuple[int, int]]":
    """Yield ``(state, inc)`` of ``np.random.PCG64(seed)`` for every seed of
    a uint64 array.

    This runs numpy's seeding on arrays: ``SeedSequence.mix_entropy`` hashes
    the seed's two 32-bit words (and two zero words) into a pool of four; a
    seed below 2**32 has one word, and numpy hashes a zero for each missing
    one, so it needs no path of its own.  ``generate_state(4, np.uint64)`` then hashes the pool into four
    64-bit words ``w0..w3``, and PCG64's set-seq seeding turns
    ``initstate = w0 << 64 | w1`` and ``initseq = w2 << 64 | w3`` into
    ``inc = initseq << 1 | 1`` and ``state = (inc + initstate) * MULT + inc``
    modulo 2**128.
    """
    for start in range(0, len(seeds), _SEED_BLOCK):
        block = seeds[start:start + _SEED_BLOCK]
        pool = np.zeros((4, block.size), dtype=np.uint32)
        pool[0], pool[1] = block & _MASK32, block >> 32
        pool = _hash(pool, _MIX_XOR[:4], _MIX_MUL[:4])
        for src in range(4):  # mix each word into the three others, in numpy's order
            dst = [d for d in range(4) if d != src]
            k = 4 + 3 * src
            hashed = _hash(pool[src], _MIX_XOR[k:k + 3], _MIX_MUL[k:k + 3])
            mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
            pool[dst] = mixed ^ mixed >> 16
        half = _hash(np.tile(pool, (2, 1)), _OUT_XOR, _OUT_MUL).astype(np.uint64)
        words = half[0::2] | half[1::2] << 32  # low word first, on any byte order
        for w0, w1, w2, w3 in zip(*words.tolist()):
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            yield (((w0 << 64 | w1) + inc) * _PCG64_MULT + inc) & _MASK128, inc


def draw_counts(probs: np.ndarray, seeds: np.ndarray, config: AcquisitionConfig) -> np.ndarray:
    """Poissonian channel counts, one row ``(n_mp, n_mm, n_pp, n_pm)`` per
    seed of the uint64 array ``seeds`` (as :func:`derive_seeds` gives them).

    ``probs`` holds one row of channel probabilities per seed, shape
    ``(len(seeds), 4)``, or one row shape ``(4,)`` for every seed.  Row ``i``
    holds the draws ``np.random.default_rng(seeds[i])`` makes, channel by
    channel, with means ``config.expected_total * probs[i]``; ``config.seed``
    is not used.  One generator makes every row, from the state
    :func:`_pcg64_states` derives for the row's seed.
    Raises ValueError unless ``seeds`` is a uint64 array, every probability
    is finite and nonnegative (as :class:`~weakps.states.ProbabilityRecord`
    checks it) and every row sums to 1 within 1e-9; a probability that this
    tolerance lets below zero draws as zero.
    """
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        kind = getattr(seeds, "dtype", type(seeds).__name__)
        raise ValueError(f"seeds must be a uint64 array, as derive_seeds gives, got {kind}")
    probs = np.asarray(probs, dtype=np.float64)
    rows = np.atleast_2d(probs)
    bad = ~np.isfinite(rows) | (rows < -_NORM_TOL)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"p{COUNT_COLUMNS[j][1:]} must be a nonnegative probability, "
                         f"got {float(rows[i, j])!r}")
    totals = rows[:, 0] + rows[:, 1] + rows[:, 2] + rows[:, 3]
    off = np.abs(totals - 1.0) > 1e-9
    if np.any(off):
        raise ValueError(f"channel probabilities must sum to 1, got {float(totals[off][0])!r}")
    means = (config.expected_total * np.maximum(rows, 0.0)).tolist()
    if probs.ndim == 1:
        means = means * len(seeds)
    elif len(means) != len(seeds):
        raise ValueError(f"{len(means)} probability rows for {len(seeds)} seeds")
    bitgen = np.random.PCG64(0)  # every row loads its own state into it
    poisson = np.random.Generator(bitgen).poisson
    pcg = {}
    seeded = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    counts = np.empty((len(seeds), 4), dtype=np.int64)
    for i, (state, row) in enumerate(zip(_pcg64_states(seeds), means, strict=True)):
        pcg["state"], pcg["inc"] = state
        bitgen.state = seeded
        m_mp, m_mm, m_pp, m_pm = row
        counts[i] = poisson(m_mp), poisson(m_mm), poisson(m_pp), poisson(m_pm)
    return counts


def derive_seeds(root_seed: int, n: int) -> np.ndarray:
    """Independent per-task integer seeds derived from a root seed via the
    splittable seed-sequence expansion (stable across runs), as a uint64 array."""
    return np.random.SeedSequence(root_seed).generate_state(n, dtype=np.uint64)


def postselected_counts(counts: np.ndarray, postselect_sign: str) -> np.ndarray:
    """The (outcome-0, outcome-1) columns of count rows
    ``(n_mp, n_mm, n_pp, n_pm)`` of the requested postselection."""
    return counts[:, :2] if sign_factor(postselect_sign) < 0 else counts[:, 2:]


def empty_channel(postselect_sign: str) -> EmptyChannel:
    """The error of a record whose postselected channels hold no count."""
    return EmptyChannel(f"no counts in the {postselect_sign} postselection channels")


def weak_values_from_counts(
    counts: np.ndarray, kappa: "Strength | float", postselect_sign: str,
    kappa_uncertainty: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the rescaled postselected value and its variance from count
    rows ``(n_mp, n_mm, n_pp, n_pm)``, NaN for both where the postselected
    pair ``(n_a, n_b)`` holds no count.

    ``sigma_hat = (n_a - n_b) / (kappa (n_a + n_b))``, with the delta-method
    variance

        4 n_a n_b / (kappa^2 (n_a + n_b)^3)  +  sigma_hat^2 (dk/k)^2,

    the first term from independent Poisson channel noise, the second from
    the strength calibration uncertainty ``dk``.
    """
    k = as_strength(kappa).kappa
    if k == 0.0:
        raise ZeroStrength("count rescaling undefined at kappa = 0")
    pair = postselected_counts(np.asarray(counts, dtype=np.int64), postselect_sign)
    n_a, n_b = pair[:, 0], pair[:, 1]
    total = n_a + n_b
    cube = (total.astype(object) ** 3).astype(np.float64)  # exact Python-int power, then rounded
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where the pair is empty
        sigma_hat = (n_a - n_b) / (k * total)
        var_poisson = 4.0 * n_a * n_b / (k * k * cube)
    return sigma_hat, var_poisson + sigma_hat * sigma_hat * (kappa_uncertainty / k) ** 2
