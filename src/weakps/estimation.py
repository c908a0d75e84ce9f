"""Angle estimation by inverting the postselected-value calibration curve,
with variance propagation and comparison against the Cramér-Rao limit of the
postselected events.

Every model's postselected pair is linear in ``(1, cos 4t, sin 4t)``
(:attr:`ModelParams.coefficients`), so the curve's turning points and its
inverse have closed forms: a batch of measured values is inverted at once,
each on a chosen monotone branch (the curve is not injective over a quarter
turn, so branch selection is explicit) that is checked to hold no turning
point.  Reported variances are in squared degrees; all internal
information quantities stay in inverse squared radians, with the unit
conversion applied exactly once here.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

from . import kernels
from .counting import (AcquisitionConfig, derive_seeds, draw_counts,
                       postselected_counts, weak_values_from_counts)
from .errors import (AmbiguousBranch, DegenerateConditional, EmptyChannel, FlatCurve, OutOfRange,
                     WeakpsError, ZeroPostselection, ZeroStrength, angle_text)
from .imperfections import (ImperfectionParams, coincidence_probabilities,
                            postselected_coefficients, renormalized_probabilities)
from .states import as_strength, sign_factor
from .weak import (
    QUANTUM_FISHER_INFORMATION,
    SATURATION_TOL,
    fisher_curve_grid,
    weak_value_curve_grid,
    weak_value_slope_grid,
)

__all__ = [
    "RAD2_TO_DEG2",
    "TABLE1_THETAS_DEG",
    "ModelParams",
    "CalibrationCurve",
    "EstimateBatch",
    "Table1Row",
    "build_calibration",
    "invert_branch",
    "assess_estimates",
    "table1_pipeline",
    "load_baseline",
]

RAD2_TO_DEG2 = (180.0 / math.pi) ** 2

# The eight working points of the estimation comparison, per postselection.
TABLE1_THETAS_DEG = {
    "minus": (20.0, 22.5, 25.0, 27.5),
    "plus": (67.5, 70.0, 72.5, 75.0),
}

_SLOPE_FLOOR = 1e-9
# d.B sums terms up to |d|_1 in size: within a few roundings of that, it is zero
_ROUNDING = 4.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class ModelParams:
    """What generated (or is assumed to generate) the measured values."""

    kappa: float
    postselect_sign: str
    imperfections: ImperfectionParams | None = None

    def __post_init__(self) -> None:
        as_strength(self.kappa)
        sign_factor(self.postselect_sign)

    @property
    def mu(self) -> float:
        """Meter angle realizing the nominal strength."""
        return math.asin(self.kappa) / 4.0

    def channel_probabilities(self, thetas: np.ndarray) -> np.ndarray:
        """Probabilities of the four coincidence channels given a coincidence,
        rows ``(p_mp, p_mm, p_pp, p_pm)`` over an array of angles."""
        if self.imperfections is None:
            return kernels.channel_probabilities(thetas, self.kappa)
        return renormalized_probabilities(thetas, self.mu, self.imperfections)

    @cached_property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """``(n, d)`` with ``p0 - p1 = n.B`` and ``p0 + p1 = d.B``,
        ``B = (1, cos 4t, sin 4t)``, for the postselected pair: per
        coincidence in the ideal model, per attempt under imperfections."""
        sign = sign_factor(self.postselect_sign)
        if self.imperfections is None:
            r = math.sqrt(1.0 - self.kappa * self.kappa)
            return np.array([0.0, self.kappa / 2.0, 0.0]), np.array([0.5, 0.0, sign * r / 2.0])
        return postselected_coefficients(self.mu, self.imperfections, sign)

    def _check_imperfect(self, thetas: np.ndarray) -> None:
        """GateStarved where no coincidence passes the gate, ZeroPostselection
        where ``d.B`` is otherwise within rounding of zero, then ZeroStrength."""
        d = self.coefficients[1]
        starved = thetas[kernels.trig_form(d, thetas) <= _ROUNDING * np.abs(d).sum()]
        if starved.size:
            coincidence_probabilities(starved, self.mu, self.imperfections)
            raise ZeroPostselection("postselection probability vanishes at theta = "
                                    f"{angle_text(float(starved[0]))}")
        if self.kappa == 0.0:
            raise ZeroStrength("weak value undefined at kappa = 0")

    def sigma_array(self, thetas: np.ndarray) -> np.ndarray:
        """Model postselected value (nominal-kappa rescaling) over a
        one-dimensional array of angles."""
        if self.imperfections is None:
            return weak_value_curve_grid(thetas, self.kappa, self.postselect_sign)
        thetas = np.asarray(thetas, dtype=np.float64)
        self._check_imperfect(thetas)
        return kernels.trig_curve(*self.coefficients, self.kappa, thetas)

    def sigma_slope(self, thetas: np.ndarray) -> np.ndarray:
        """Angle derivative of the model curve over a one-dimensional array of
        angles."""
        if self.imperfections is None:
            return weak_value_slope_grid(thetas, self.kappa, self.postselect_sign)
        thetas = np.asarray(thetas, dtype=np.float64)
        self._check_imperfect(thetas)
        return kernels.trig_slope(*self.coefficients, self.kappa, thetas)


@dataclass(frozen=True)
class CalibrationCurve:
    """Tabulated model curve linking the postselected value to the angle.

    The grid is for branch bookkeeping only; inversion always evaluates the
    exact model.
    """

    theta_grid: np.ndarray
    sigma_values: np.ndarray
    model: ModelParams

    def __post_init__(self) -> None:
        grid = np.ascontiguousarray(self.theta_grid, dtype=np.float64)
        values = np.ascontiguousarray(self.sigma_values, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("theta_grid must hold at least two angles")
        if values.shape != grid.shape:
            raise ValueError("sigma_values must match theta_grid in shape")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("theta_grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("sigma_values must be finite")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "theta_grid", grid)
        object.__setattr__(self, "sigma_values", values)
        # a run ends where a step turns against the last step that was not flat
        diffs = np.sign(np.diff(values))
        steps = np.flatnonzero(diffs)
        turns = steps[1:][diffs[steps[1:]] != diffs[steps[:-1]]].tolist()
        object.__setattr__(self, "_runs", tuple(zip([0, *turns], [*turns, diffs.size])))

    def branches(self) -> list[tuple[int, int]]:
        """Index ranges [i, j] of maximal monotone runs of the tabulated curve."""
        return list(self._runs)

    def branch_containing(self, theta: float) -> tuple[float, float]:
        """Angle interval of the monotone branch containing ``theta``.

        Interior branch endpoints are tabulated turning points; the true
        extremum lies within one grid cell of them, so those endpoints are
        pulled in by one cell to guarantee the returned interval is strictly
        monotone in the exact model.
        """
        grid = self.theta_grid
        last = grid.size - 1
        if not grid[0] <= theta <= grid[-1]:
            raise OutOfRange(f"theta = {angle_text(theta)} outside the tabulated range")
        for i, j in self._runs:
            lo_idx = i if i == 0 else i + 1
            hi_idx = j if j == last else j - 1
            if lo_idx < hi_idx and grid[lo_idx] <= theta <= grid[hi_idx]:
                return float(grid[lo_idx]), float(grid[hi_idx])
        raise AmbiguousBranch(
            f"theta = {angle_text(theta)} sits within one grid cell of a curve turning point"
        )


def build_calibration(
    model: ModelParams, theta_start: float, theta_stop: float, step: float
) -> CalibrationCurve:
    """Tabulate the model curve on [theta_start, theta_stop] with the given
    step (radians) and index its monotone branches."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    if theta_stop <= theta_start:
        raise ValueError("theta range must be non-empty")
    n = int(round((theta_stop - theta_start) / step))
    grid = theta_start + step * np.arange(n + 1)
    return CalibrationCurve(theta_grid=grid, sigma_values=model.sigma_array(grid), model=model)


def _require_monotone(model: ModelParams, lo: float, hi: float) -> None:
    """Raise AmbiguousBranch where the model curve turns strictly inside [lo, hi]."""
    if kernels.trig_turning_points(*model.coefficients, lo, hi).size:
        raise AmbiguousBranch(f"curve is not monotone on [{angle_text(lo)}, {angle_text(hi)}]; "
                              "it spans a turning point")


def invert_branch(
    curve: CalibrationCurve, sigmas: "np.ndarray | list[float]", branch: tuple[float, float]
) -> np.ndarray:
    """Invert the calibration curve on a monotone branch for a batch of
    measured values, in closed form: one angle per value, NaN where the
    value falls outside the branch's range.  Raises AmbiguousBranch when the
    branch spans a turning point.
    """
    lo, hi = float(branch[0]), float(branch[1])
    if hi <= lo:
        raise ValueError("branch must be a non-empty interval (lo, hi)")
    model = curve.model
    _require_monotone(model, lo, hi)
    return kernels.invert_trig(*model.coefficients, model.kappa, sigmas, lo, hi)


def _out_of_range(sigma: float, model: ModelParams, branch: tuple[float, float]) -> OutOfRange:
    ends = model.sigma_array(branch)
    return OutOfRange(f"sigma = {sigma:.12g} outside [{ends.min():.12g}, {ends.max():.12g}], the "
                      f"range of branch [{angle_text(branch[0])}, {angle_text(branch[1])}]")


def _propagated(model: ModelParams, thetas: np.ndarray,
                variances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-order angle variances ``var(sigma) / (d sigma / d theta)^2`` in
    squared degrees, and the slopes they divide by, at each angle."""
    slopes = model.sigma_slope(thetas)
    with np.errstate(divide="ignore", invalid="ignore"):
        return variances / (slopes * slopes) * RAD2_TO_DEG2, slopes


def _information(model: ModelParams, thetas: np.ndarray,
                 slopes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fisher information of the postselected distribution under ``model``
    (NaN at saturated angles), and the per-attempt probability of the
    postselection, at each angle; ``slopes`` are the model curve's there.

    The ideal model has both in closed form.  Under imperfections the
    information is that of any binary postselected distribution,
    ``k^2 sigma'^2 / (1 - k^2 sigma^2)``, and the probability is not
    renormalized on a coincidence, so that ``F_ps * p <= 16`` bounds the
    information per attempt.
    """
    kappa, sign = model.kappa, model.postselect_sign
    if model.imperfections is None:
        return (fisher_curve_grid(thetas, kappa, sign),
                kernels.postselect_probability(thetas, kappa, sign_factor(sign)))
    sigma = model.sigma_array(thetas)
    saturated = 1.0 - np.abs(kappa * sigma) < SATURATION_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        f_ps = np.where(saturated, np.nan, kernels.fisher_from_weak_value(sigma, slopes, kappa))
    return f_ps, kernels.trig_form(model.coefficients[1], thetas)


def _cramer_rao(f_ps: np.ndarray, m_ps: np.ndarray) -> np.ndarray:
    """Cramér-Rao limits ``1 / (F_ps * m_ps)`` in squared degrees."""
    with np.errstate(divide="ignore"):
        return 1.0 / (f_ps * m_ps) * RAD2_TO_DEG2


# An estimate's status in an EstimateBatch: OK, or the first error that stops it.
OK, OUT_OF_RANGE, FLAT_CURVE, DEGENERATE = range(4)
STATUS_ERRORS = (None, OutOfRange, FlatCurve, DegenerateConditional)

# The error budget of an estimate, one array each in a batch or a Table1Row.
BUDGET_COLUMNS = ("theta_hat_deg", "variance_theta_deg2", "sigma_cr_deg2", "f_ps", "m_ps")


@dataclass(frozen=True, eq=False)
class EstimateBatch:
    """Error budgets of a batch of estimates, as aligned arrays.

    ``status`` holds each estimate's status; the budget columns hold its
    angle (degrees), propagated variance and Cramér-Rao limit (squared
    degrees), postselected Fisher information and postselected event count,
    and mean something only where the status is OK.  The estimates' angles
    (radians) and curve slopes are kept for :meth:`error`.
    """

    theta_hat_deg: np.ndarray
    variance_theta_deg2: np.ndarray
    sigma_cr_deg2: np.ndarray
    f_ps: np.ndarray
    m_ps: np.ndarray
    status: np.ndarray
    theta_hats: np.ndarray = field(repr=False)
    slopes: np.ndarray = field(repr=False)

    def error(self, i: int, model: ModelParams, branch: tuple[float, float],
              sigma_hat: float) -> WeakpsError | None:
        """The typed error that stops estimate ``i``, None if it is OK; the
        estimate was inverted from ``sigma_hat`` on ``branch`` (lo, hi) of
        ``model``'s curve."""
        status, theta = int(self.status[i]), angle_text(float(self.theta_hats[i]))
        if status == OUT_OF_RANGE:
            return _out_of_range(float(sigma_hat), model, branch)
        if status == FLAT_CURVE:
            return FlatCurve(f"curve slope {self.slopes[i]:.12g} at theta = {theta} "
                             "is numerically zero")
        if status == DEGENERATE:
            return DegenerateConditional(f"a conditional probability vanishes at theta = {theta}")
        return None


def assess_estimates(
    curve: CalibrationCurve, theta_hats: np.ndarray, var_sigmas: "np.ndarray | list[float]",
    m_ps: "np.ndarray | list[int]",
) -> EstimateBatch:
    """Error budgets of estimates ``theta_hats`` (NaN where the inversion
    found none) of measured values with variances ``var_sigmas``:
    propagated variance, Fisher information and the Cramér-Rao limit for
    ``m_ps`` postselected events (each positive, else ValueError), all under
    the curve's model, with the per-attempt information budget audited
    (RuntimeError if it fails).

    Each estimate's status is OK or the first error that stops it:
    OUT_OF_RANGE where ``theta_hat`` is NaN, then FLAT_CURVE where the slope
    vanishes, then DEGENERATE where a conditional probability does.  Raises
    ValueError unless every OK estimate has a nonnegative variance and a
    positive Cramér-Rao limit.
    """
    model = curve.model
    m_ps = np.asarray(m_ps, dtype=np.int64)
    if np.any(m_ps <= 0):
        raise ValueError("m_ps must be positive")
    theta_hats = np.asarray(theta_hats, dtype=np.float64)
    found = ~np.isnan(theta_hats)  # the model curve is evaluated only where found
    var_theta, slopes, f_ps, p_ps = np.full((4, theta_hats.size), np.nan)
    var_theta[found], slopes[found] = _propagated(
        model, theta_hats[found], np.asarray(var_sigmas, dtype=np.float64)[found])
    f_ps[found], p_ps[found] = _information(model, theta_hats[found], slopes[found])
    limits = _cramer_rao(f_ps, m_ps)
    budget = f_ps * p_ps
    if np.any(budget > QUANTUM_FISHER_INFORMATION + 1e-9):
        raise RuntimeError(f"information budget audit failed: {np.nanmax(budget)!r} > 16")
    status = np.select([~found, np.abs(slopes) < _SLOPE_FLOOR, np.isnan(f_ps)],
                       [OUT_OF_RANGE, FLAT_CURVE, DEGENERATE], OK).astype(np.int8)
    ok = status == OK
    if np.any(var_theta[ok] < 0.0):
        raise ValueError("variance must be nonnegative")
    if np.any(limits[ok] <= 0.0):
        raise ValueError("Cramér-Rao variance must be positive")
    return EstimateBatch(
        theta_hat_deg=np.degrees(theta_hats), variance_theta_deg2=var_theta,
        sigma_cr_deg2=limits, f_ps=f_ps, m_ps=m_ps, status=status, theta_hats=theta_hats,
        slopes=slopes,
    )


def _mean(values: np.ndarray) -> float:
    return float(np.mean(values)) if values.size else math.nan


@dataclass(frozen=True, eq=False)
class Table1Row:
    """All repetitions of one working point: the budget columns of those
    that succeeded, in repetition order, and the count of those that
    failed, by error type."""

    theta_deg: float
    postselect_sign: str
    theta_hat_deg: np.ndarray
    variance_theta_deg2: np.ndarray
    sigma_cr_deg2: np.ndarray
    f_ps: np.ndarray
    m_ps: np.ndarray
    failures_by_type: dict[str, int]

    @property
    def n_ok(self) -> int:
        return self.theta_hat_deg.size

    @property
    def n_failed(self) -> int:
        return sum(self.failures_by_type.values())

    @property
    def mean_theta_hat_deg(self) -> float:
        return _mean(self.theta_hat_deg)

    @property
    def mean_variance_deg2(self) -> float:
        return _mean(self.variance_theta_deg2)

    @property
    def empirical_variance_deg2(self) -> float:
        if self.n_ok < 2:
            return math.nan
        return float(np.var(self.theta_hat_deg, ddof=1))

    @property
    def mean_sigma_cr_deg2(self) -> float:
        return _mean(self.sigma_cr_deg2)

    @property
    def mean_m_ps(self) -> float:
        return _mean(self.m_ps)


def _assess_parts(curve: CalibrationCurve, parts: list) -> list[tuple[list[np.ndarray], Counter]]:
    """Invert and assess every part's estimates in one batch, each on its own
    branch.  Per part ``(sigmas, variances, m_ps, lo, hi)``, returns the
    budget columns of its OK estimates and the count of the others by error
    type.  A model error raised by the batch is charged to the part it comes
    from: each part is then assessed alone."""
    if not parts:
        return []
    sizes = [part[0].size for part in parts]
    try:
        sigmas, variances, m_ps, lo, hi = map(np.concatenate, zip(*parts))
        model = curve.model
        theta_hats = kernels.invert_trig(*model.coefficients, model.kappa, sigmas, lo, hi)
        batch = assess_estimates(curve, theta_hats, variances, m_ps)
    except WeakpsError as exc:
        if len(parts) > 1:
            return [row for part in parts for row in _assess_parts(curve, [part])]
        columns = [np.empty(0)] * 4 + [np.empty(0, dtype=np.int64)]
        return [(columns, Counter({type(exc).__name__: sizes[0]}))]
    out = []
    for part in np.split(np.arange(batch.status.size), np.cumsum(sizes)[:-1]):
        status = batch.status[part]
        ok = part[status == OK]
        counts = np.bincount(status, minlength=len(STATUS_ERRORS)).tolist()
        out.append(([getattr(batch, name)[ok] for name in BUDGET_COLUMNS],
                    Counter({error.__name__: n for error, n in zip(STATUS_ERRORS, counts)
                             if error is not None})))
    return out


def _simulate(
    theta_list_deg: "list[float] | tuple[float, ...]",
    model: ModelParams,
    acquisition: AcquisitionConfig,
    repetitions: int,
) -> "Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]":
    """Per angle, in order: the estimated postselected value, its variance
    and the postselected count ``m_ps`` of every repetition, from one batch
    of draws for every angle."""
    probs = np.reshape([model.channel_probabilities([math.radians(t)])[:, 0]
                        for t in theta_list_deg], (-1, 4))
    counts = draw_counts(np.repeat(probs, repetitions, axis=0),
                         derive_seeds(acquisition.seed, len(probs) * repetitions), acquisition)
    sign = model.postselect_sign
    for part in counts.reshape(len(probs), repetitions, 4):
        sigmas, variances = weak_values_from_counts(part, model.kappa, sign,
                                                    acquisition.kappa_uncertainty)
        yield sigmas, variances, postselected_counts(part, sign).sum(axis=1)


def table1_pipeline(
    theta_list_deg: "list[float] | tuple[float, ...]",
    model: ModelParams,
    acquisition: AcquisitionConfig,
    repetitions: int,
) -> list[Table1Row]:
    """Simulate, estimate, and audit every working point.

    Draw the counts of every repetition of every angle in one batch.  Per
    angle: estimate the postselected value and its variance for every
    repetition, and find the monotone branch containing the true angle.
    Then invert every repetition of every angle in one batch, each on its
    angle's branch, and assess them together (:func:`assess_estimates`):
    propagated variance and the Cramér-Rao comparison with each
    repetition's realized postselected event count.
    Failed repetitions are counted per row by error type, never dropped
    silently; an error of one angle's branch fails that angle's
    repetitions only.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    sign = model.postselect_sign
    curve = build_calibration(model, 0.0, math.pi / 2.0, math.radians(0.05))
    failures: list[Counter] = []
    parts = []  # per angle: (sigmas, variances, m_ps, lo, hi) of the repetitions to invert
    # the counts are freed with the loop, before the batch inversion
    for theta_deg, (sigmas, variances, m_ps) in zip(
            theta_list_deg, _simulate(theta_list_deg, model, acquisition, repetitions)):
        theta = math.radians(theta_deg)
        keep = m_ps > 0
        failed = Counter({EmptyChannel.__name__: int(np.count_nonzero(~keep))})
        try:
            lo, hi = curve.branch_containing(theta)
            _require_monotone(model, lo, hi)
        except WeakpsError as exc:
            failed[type(exc).__name__] += int(np.count_nonzero(keep))
            keep[:] = False
            lo = hi = math.nan
        n = int(np.count_nonzero(keep))
        failures.append(failed)
        parts.append((sigmas[keep], variances[keep], m_ps[keep], np.full(n, lo), np.full(n, hi)))
    return [Table1Row(float(theta_deg), sign, *columns,
                      failures_by_type=dict(failed + more))
            for theta_deg, failed, (columns, more) in zip(theta_list_deg, failures,
                                                          _assess_parts(curve, parts))]


def load_baseline(path: "str | None" = None) -> dict[tuple[str, float], tuple[float, float]]:
    """Published comparison values keyed by (postselect_sign, theta_deg),
    each entry (measured variance, Cramér-Rao variance) in squared degrees.

    These are reference labels for side-by-side reporting only; the pipeline
    makes no claim of reproducing them (the underlying count rates are not
    public).  Raises ValueError on a line without four comma-separated
    fields or with a field that is not a number.
    """
    if path is None:
        text = resources.files("weakps").joinpath("data/table1_baseline.csv").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    out: dict[tuple[str, float], tuple[float, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("postselect"):
            continue
        try:
            sign, theta, var, cr = line.split(",")
            out[(sign.strip(), float(theta))] = (float(var), float(cr))
        except ValueError as exc:
            raise ValueError(f"baseline line {lineno}: expected 'postselect,theta_deg,"
                             f"variance_deg2,cramer_rao_deg2', got {line!r}") from exc
    return out
