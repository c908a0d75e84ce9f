"""Poissonian coincidence-count simulation and count-level estimation of the
postselected value with propagated error bars.

Counts in the four coincidence channels are independent Poisson draws with
means ``rate * duration * p_channel``.  Every record has its own generator,
one PCG64 seeded with the record's seed from :func:`derive_seeds`, which
draws the four channels in the order (mp, mm, pp, pm).  Error propagation on
the rescaled postselected value is first order (delta method) with two terms,
matching the two modeled error sources: Poisson channel noise and the
calibration uncertainty on the strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; load it with weakps, not on the first draw

from .errors import EmptyChannel, ZeroStrength
from .states import _NORM_TOL, ProbabilityRecord, Strength, as_strength, sign_factor

__all__ = [
    "COUNT_COLUMNS",
    "MAX_EXPECTED_TOTAL",
    "AcquisitionConfig",
    "CountRecord",
    "draw_counts",
    "postselected_counts",
    "simulate_counts",
    "weak_value_from_counts",
    "weak_values_from_counts",
    "derive_seeds",
]

# The channels of a count row, in draw order.
COUNT_COLUMNS = ("n_mp", "n_mm", "n_pp", "n_pm")

# Largest mean numpy's Poisson sampler accepts.
MAX_EXPECTED_TOTAL = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def nonnegative_integer(name: str, value) -> int:
    """``value`` as an int; raises ValueError unless it is a nonnegative
    integer value (so a fractional count is refused, not truncated)."""
    n = int(value)
    if n != value or n < 0:
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
        if self.rate <= 0.0 or not math.isfinite(self.rate):
            raise ValueError(f"rate must be positive, got {self.rate!r}")
        if self.duration <= 0.0 or not math.isfinite(self.duration):
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if not self.expected_total <= MAX_EXPECTED_TOTAL:
            raise ValueError(f"rate * duration = {self.expected_total!r} exceeds the largest "
                             f"Poisson mean, {MAX_EXPECTED_TOTAL!r}")
        if self.kappa_uncertainty < 0.0 or not math.isfinite(self.kappa_uncertainty):
            raise ValueError(f"kappa_uncertainty must be >= 0, got {self.kappa_uncertainty!r}")
        nonnegative_integer("seed", self.seed)

    @property
    def expected_total(self) -> float:
        return self.rate * self.duration


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts per channel (signal letter first, meter second)."""

    n_mp: int
    n_mm: int
    n_pp: int
    n_pm: int
    config: AcquisitionConfig

    def __post_init__(self) -> None:
        for name in COUNT_COLUMNS:
            nonnegative_integer(name, getattr(self, name))

    @property
    def total(self) -> int:
        return self.n_mp + self.n_mm + self.n_pp + self.n_pm

    def postselected(self, postselect_sign: str) -> tuple[int, int]:
        """(outcome-0, outcome-1) count pair of the requested postselection."""
        if sign_factor(postselect_sign) < 0:
            return self.n_mp, self.n_mm
        return self.n_pp, self.n_pm

    def as_dict(self) -> dict[str, int]:
        return {"n_mp": self.n_mp, "n_mm": self.n_mm, "n_pp": self.n_pp, "n_pm": self.n_pm}


def draw_counts(probs: np.ndarray, seeds: "list[int]", config: AcquisitionConfig) -> np.ndarray:
    """Poissonian channel counts, one row ``(n_mp, n_mm, n_pp, n_pm)`` per seed.

    ``probs`` holds one row of channel probabilities per seed, shape
    ``(len(seeds), 4)``, or one row shape ``(4,)`` for every seed.  Row ``i``
    is drawn by ``np.random.default_rng(seeds[i])``, channel by channel, with
    means ``config.expected_total * probs[i]``; ``config.seed`` is not used.
    Raises ValueError unless every probability is finite and nonnegative (as
    :class:`ProbabilityRecord` checks it) and every row sums to 1 within 1e-9;
    a probability that this tolerance lets below zero draws as zero.
    """
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
    counts = np.empty((len(seeds), 4), dtype=np.int64)
    for i, (seed, (m_mp, m_mm, m_pp, m_pm)) in enumerate(zip(seeds, means)):
        poisson = np.random.default_rng(seed).poisson
        counts[i] = poisson(m_mp), poisson(m_mm), poisson(m_pp), poisson(m_pm)
    return counts


def simulate_counts(probs: ProbabilityRecord, config: AcquisitionConfig) -> CountRecord:
    """Draw one acquisition window of Poissonian channel counts: the scalar
    form of :func:`draw_counts`, seeded with ``config.seed``."""
    row = [probs.p_mp, probs.p_mm, probs.p_pp, probs.p_pm]
    return CountRecord(*draw_counts(row, [config.seed], config)[0].tolist(), config=config)


def derive_seeds(root_seed: int, n: int) -> list[int]:
    """Independent per-task integer seeds derived from a root seed via the
    splittable seed-sequence expansion (stable across runs)."""
    return np.random.SeedSequence(root_seed).generate_state(n, dtype=np.uint64).tolist()


def postselected_counts(counts: np.ndarray, postselect_sign: str) -> np.ndarray:
    """The (outcome-0, outcome-1) columns of count rows
    ``(n_mp, n_mm, n_pp, n_pm)``, as :meth:`CountRecord.postselected` picks them."""
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


def weak_value_from_counts(
    rec: CountRecord, kappa: "Strength | float", postselect_sign: str
) -> tuple[float, float]:
    """The scalar form of :func:`weak_values_from_counts` for one record,
    with the strength uncertainty of its acquisition config; raises
    EmptyChannel where the postselected channels hold no count."""
    counts = np.array([[rec.n_mp, rec.n_mm, rec.n_pp, rec.n_pm]], dtype=np.int64)
    sigma_hat, variance = weak_values_from_counts(counts, kappa, postselect_sign,
                                                  rec.config.kappa_uncertainty)
    if math.isnan(sigma_hat[0]):
        raise empty_channel(postselect_sign)
    return float(sigma_hat[0]), float(variance[0])
