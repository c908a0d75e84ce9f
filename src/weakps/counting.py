"""Poissonian coincidence-count simulation and count-level estimation of the
postselected value with propagated error bars.

Counts in the four coincidence channels are independent Poisson draws with
means ``rate * duration * p_channel``.  Error propagation on the rescaled
postselected value is first order (delta method) with two terms, matching
the two modeled error sources: Poisson channel noise and the calibration
uncertainty on the strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # numpy loads it lazily; load it with weakps, not on the first draw

from .errors import EmptyChannel, ZeroStrength
from .states import ProbabilityRecord, Strength, as_strength, sign_factor

__all__ = [
    "AcquisitionConfig",
    "CountRecord",
    "simulate_counts",
    "simulate_batch",
    "weak_value_from_counts",
    "derive_seeds",
]


@dataclass(frozen=True)
class AcquisitionConfig:
    """One acquisition window.

    ``rate`` is the mean *total* coincidence rate before postselection
    (counts per second); the default 2000/s makes the postselected channels
    collect order 10^3 events in the default 5 s window.
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
        if self.kappa_uncertainty < 0.0 or not math.isfinite(self.kappa_uncertainty):
            raise ValueError(f"kappa_uncertainty must be >= 0, got {self.kappa_uncertainty!r}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")

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
        for name in ("n_mp", "n_mm", "n_pp", "n_pm"):
            v = getattr(self, name)
            if int(v) != v or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

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


def simulate_counts(probs: ProbabilityRecord, config: AcquisitionConfig) -> CountRecord:
    """Draw one acquisition window of Poissonian channel counts.

    Deterministic given the config seed; the channel draw order is fixed
    (mp, mm, pp, pm).
    """
    if abs(probs.total - 1.0) > 1e-9:
        raise ValueError(f"channel probabilities must sum to 1, got {probs.total!r}")
    rng = np.random.default_rng(config.seed)
    mean = config.expected_total
    return CountRecord(
        n_mp=int(rng.poisson(mean * probs.p_mp)),
        n_mm=int(rng.poisson(mean * probs.p_mm)),
        n_pp=int(rng.poisson(mean * probs.p_pp)),
        n_pm=int(rng.poisson(mean * probs.p_pm)),
        config=config,
    )


def derive_seeds(root_seed: int, n: int) -> list[int]:
    """Independent per-task integer seeds derived from a root seed via the
    splittable seed-sequence expansion (stable across runs)."""
    state = np.random.SeedSequence(root_seed).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]


def simulate_batch(
    probs: ProbabilityRecord, config: AcquisitionConfig, repetitions: int
) -> list[CountRecord]:
    """Independent repetitions of one acquisition, seeds derived from
    ``config.seed``.  Order matches the derived-seed order, so results are
    reproducible regardless of execution strategy."""
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    seeds = derive_seeds(config.seed, repetitions)
    return [simulate_counts(probs, replace(config, seed=s)) for s in seeds]


def weak_value_from_counts(
    rec: CountRecord, kappa: "Strength | float", postselect_sign: str
) -> tuple[float, float]:
    """Estimate the rescaled postselected value and its variance from counts.

    Returns ``(sigma_hat, variance)`` with
    ``sigma_hat = (n_a - n_b) / (kappa (n_a + n_b))`` and the delta-method
    variance

        4 n_a n_b / (kappa^2 (n_a + n_b)^3)  +  sigma_hat^2 (dk/k)^2,

    the first term from independent Poisson channel noise, the second from
    the strength calibration uncertainty ``dk`` in the acquisition config.
    """
    k = as_strength(kappa).kappa
    if k == 0.0:
        raise ZeroStrength("count rescaling undefined at kappa = 0")
    n_a, n_b = rec.postselected(postselect_sign)
    total = n_a + n_b
    if total == 0:
        raise EmptyChannel(f"no counts in the {postselect_sign} postselection channels")
    sigma_hat = (n_a - n_b) / (k * total)
    var_poisson = 4.0 * n_a * n_b / (k * k * total**3)
    dk = rec.config.kappa_uncertainty
    var_kappa = sigma_hat * sigma_hat * (dk / k) ** 2
    return sigma_hat, var_poisson + var_kappa
