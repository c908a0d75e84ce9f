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
from .imperfections import (ImperfectionParams, postselected_coefficients,
                            renormalized_probabilities)
from .states import as_strength, sign_factor
from .weak import QUANTUM_FISHER_INFORMATION, SATURATION_TOL

__all__ = [
    "RAD2_TO_DEG2",
    "TABLE1_THETAS_DEG",
    "channel_probabilities",
    "ModelParams",
    "EstimateBatch",
    "Table1Row",
    "invert_branch",
    "assess_estimates",
    "table1_batch",
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
# The angles a model's curve is tabulated on to find its branches: [0, 90] deg by 0.05 deg
_BRANCH_GRID = math.radians(0.05) * np.arange(1801)


def _monotone_runs(values: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges [i, j] of the maximal monotone runs of ``values``; a run
    ends where a step turns against the last step that was not flat."""
    diffs = np.sign(np.diff(values))
    steps = np.flatnonzero(diffs)
    turns = steps[1:][diffs[steps[1:]] != diffs[steps[:-1]]].tolist()
    return list(zip([0, *turns], [*turns, diffs.size]))


def channel_probabilities(thetas: np.ndarray, kappa: float,
                          imperfections: ImperfectionParams | None) -> np.ndarray:
    """Probabilities of the four coincidence channels given a coincidence, rows
    ``(p_mp, p_mm, p_pp, p_pm)`` over an array of angles, at strength ``kappa``
    through the ideal gate or ``imperfections`` (meter angle ``asin(kappa) / 4``)."""
    if imperfections is None:
        return kernels.channel_probabilities(thetas, kappa)
    return renormalized_probabilities(thetas, math.asin(kappa) / 4.0, imperfections)


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

    def starved(self, thetas: np.ndarray) -> np.ndarray:
        """Where the postselection probability ``d.B`` is within rounding of
        zero: no postselected value exists there."""
        d = self.coefficients[1]
        return kernels.trig_form(d, thetas) <= kernels._ROUNDING * np.abs(d).sum()

    def _check(self, thetas: np.ndarray) -> None:
        """GateStarved where no coincidence passes the gate (imperfect model
        only), ZeroPostselection where the model is otherwise
        :meth:`starved`, then ZeroStrength."""
        starved = thetas[self.starved(thetas)]
        if starved.size:
            channel_probabilities(starved, self.kappa, self.imperfections)  # may raise GateStarved
            raise ZeroPostselection("postselection probability vanishes at theta = "
                                    f"{angle_text(float(starved[0]))}")
        if self.kappa == 0.0:
            raise ZeroStrength("weak value undefined at kappa = 0")

    def sigma_array(self, thetas: np.ndarray) -> np.ndarray:
        """Model postselected value (nominal-kappa rescaling) over a
        one-dimensional array of angles."""
        thetas = np.asarray(thetas, dtype=np.float64)
        self._check(thetas)
        return kernels.trig_curve(*self.coefficients, self.kappa, thetas)

    def sigma_slope(self, thetas: np.ndarray) -> np.ndarray:
        """Angle derivative of the model curve over a one-dimensional array of
        angles."""
        thetas = np.asarray(thetas, dtype=np.float64)
        self._check(thetas)
        return kernels.trig_slope(*self.coefficients, self.kappa, thetas)

    def information(self, thetas: np.ndarray,
                    slopes: "np.ndarray | None" = None) -> tuple[np.ndarray, np.ndarray]:
        """Fisher information of the postselected distribution (per squared
        radian) and the probability of the postselection, at each angle.
        ``slopes`` are :meth:`sigma_slope` there, where the caller holds them
        already.  The information is NaN where a conditional probability
        vanishes, and zero at ``kappa = 0``, where the distribution does not
        depend on the angle.

        The probability is ``d.B``: per coincidence in the ideal model, per
        attempt under imperfections, so that ``F_ps * p <= 16`` bounds the
        information per attempt.  The information is that of any binary
        postselected distribution, ``k^2 sigma'^2 / (1 - k^2 sigma^2)``.
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        n, d = self.coefficients
        p_ps = kernels.trig_form(d, thetas)
        if self.kappa == 0.0:
            return np.zeros(thetas.shape), p_ps
        sigma = kernels.trig_curve(n, d, self.kappa, thetas)
        if self.imperfections is None:
            # The ideal closed form 16 k^2 / (2 p_ps)^2, not the general form
            # below, which cancels near the anomaly peak: within 3e-3 rad of the
            # minus peak (1e-7 rad grid) it is off by up to 1.3e-3 relative at
            # k = 1e-3, 1.8e-5 at k = 0.05 and 7e-7 at k = 0.335, and by more
            # beside the saturated angles.
            den = 2.0 * p_ps
            with np.errstate(divide="ignore"):
                f_ps = 16.0 * self.kappa * self.kappa / (den * den)
        else:
            slopes = self.sigma_slope(thetas) if slopes is None else slopes
            with np.errstate(divide="ignore", invalid="ignore"):
                f_ps = kernels.fisher_from_weak_value(sigma, slopes, self.kappa)
        return np.where(1.0 - np.abs(self.kappa * sigma) < SATURATION_TOL, np.nan, f_ps), p_ps

    @cached_property
    def _branches(self) -> dict[tuple[float, float], bool]:
        """Each branch :meth:`branch_containing` picks from, in order, and if it is monotone."""
        grid = _BRANCH_GRID
        last = grid.size - 1
        turns = kernels.trig_turning_points(*self.coefficients, grid[0], grid[-1])
        first = 1 if np.any(turns < grid[1]) else 0
        end = last - 1 if np.any(turns > grid[-2]) else last
        ends = [(i + 1 if i else first, j - 1 if j < last else end)
                for i, j in _monotone_runs(self.sigma_array(grid))]
        return {(float(grid[i]), float(grid[j])): not kernels.trig_turning_points(
            *self.coefficients, grid[i], grid[j]).size for i, j in ends if i < j}

    def branch_containing(self, theta: float) -> tuple[float, float]:
        """Angle interval of the monotone branch containing ``theta``: a run of
        the curve tabulated once per model on a 0.05 deg grid over [0, 90] deg,
        pulled in by one cell at a tabulated turning point, and at an end of
        the grid only where the model turns inside that end's cell.  Raises
        OutOfRange off the grid, and AmbiguousBranch within a cell of a
        turning point or where the branch still spans one."""
        for lo, hi in self._branches:
            if lo <= theta <= hi:
                _require_monotone(self, lo, hi)
                return lo, hi
        if not _BRANCH_GRID[0] <= theta <= _BRANCH_GRID[-1]:
            raise OutOfRange(f"theta = {angle_text(theta)} outside the tabulated range")
        raise AmbiguousBranch(
            f"theta = {angle_text(theta)} sits within one grid cell of a curve turning point"
        )


def _require_monotone(model: ModelParams, lo: float, hi: float) -> None:
    """Raise AmbiguousBranch where the model curve turns strictly inside [lo, hi]."""
    checked = model.__dict__.get("_branches", {})  # probed when tabulated; tabulates nothing
    if not checked.get((lo, hi)) and kernels.trig_turning_points(*model.coefficients, lo, hi).size:
        raise AmbiguousBranch(f"curve is not monotone on [{angle_text(lo)}, {angle_text(hi)}]; "
                              "it spans a turning point")


def invert_branch(
    model: ModelParams, sigmas: "np.ndarray | list[float]", branch: tuple[float, float]
) -> np.ndarray:
    """Invert the model curve on a monotone branch for a batch of
    measured values, in closed form: one angle per value, NaN where the
    value falls outside the branch's range.  Raises AmbiguousBranch when the
    branch spans a turning point.
    """
    lo, hi = float(branch[0]), float(branch[1])
    if hi <= lo:
        raise ValueError("branch must be a non-empty interval (lo, hi)")
    _require_monotone(model, lo, hi)
    return kernels.invert_trig(*model.coefficients, model.kappa, sigmas, lo, hi)


def _propagated(model: ModelParams, thetas: np.ndarray,
                variances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-order angle variances ``var(sigma) / (d sigma / d theta)^2`` in
    squared degrees, and the slopes they divide by, at each angle."""
    slopes = model.sigma_slope(thetas)
    with np.errstate(divide="ignore", invalid="ignore"):
        return variances / (slopes * slopes) * RAD2_TO_DEG2, slopes


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
            ends = model.sigma_array(branch)
            return OutOfRange(f"sigma = {float(sigma_hat):.12g} outside [{ends.min():.12g}, "
                              f"{ends.max():.12g}], the range of branch "
                              f"[{angle_text(branch[0])}, {angle_text(branch[1])}]")
        if status == FLAT_CURVE:
            return FlatCurve(f"curve slope {self.slopes[i]:.12g} at theta = {theta} "
                             "is numerically zero")
        if status == DEGENERATE:
            return DegenerateConditional(f"a conditional probability vanishes at theta = {theta}")
        return None


def assess_estimates(
    model: ModelParams, theta_hats: np.ndarray, var_sigmas: "np.ndarray | list[float]",
    m_ps: "np.ndarray | list[int]",
) -> EstimateBatch:
    """Error budgets of estimates ``theta_hats`` (NaN where the inversion
    found none) of measured values with variances ``var_sigmas``:
    propagated variance, Fisher information and the Cramér-Rao limit for
    ``m_ps`` postselected events (each positive, else ValueError), all under
    ``model``, with the per-attempt information budget audited
    (RuntimeError if it fails).

    Each estimate's status is OK or the first error that stops it:
    OUT_OF_RANGE where ``theta_hat`` is NaN, then FLAT_CURVE where the slope
    vanishes, then DEGENERATE where a conditional probability does.  Raises
    ValueError unless every OK estimate has a nonnegative variance and a
    positive Cramér-Rao limit.
    """
    m_ps = np.asarray(m_ps, dtype=np.int64)
    if np.any(m_ps <= 0):
        raise ValueError("m_ps must be positive")
    theta_hats = np.asarray(theta_hats, dtype=np.float64)
    found = ~np.isnan(theta_hats)  # the model curve is evaluated only where found
    var_theta, slopes, f_ps, p_ps = np.full((4, theta_hats.size), np.nan)
    var_theta[found], slopes[found] = _propagated(
        model, theta_hats[found], np.asarray(var_sigmas, dtype=np.float64)[found])
    f_ps[found], p_ps[found] = model.information(theta_hats[found], slopes[found])
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


def _assess_parts(model: ModelParams, estimates: list[np.ndarray],
                  sizes: list[int]) -> list[tuple[list[np.ndarray], Counter]]:
    """Assess a model's estimates ``(theta_hats, variances, m_ps)`` in one
    batch of parts of ``sizes`` estimates.  Per part, returns the budget
    columns of its OK estimates and the count of the others by error type.
    A model error raised by the batch is charged to the part it comes from:
    each part is then assessed alone."""
    try:
        batch = assess_estimates(model, *estimates)
    except WeakpsError as exc:
        if len(sizes) > 1:
            return [row for part in zip(*(np.split(c, np.cumsum(sizes)[:-1]) for c in estimates))
                    for row in _assess_parts(model, part, [part[0].size])]
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


def _invert(model: ModelParams, branches: list, counts: np.ndarray, kappa_uncertainty: float):
    """Per angle, from its repetitions' count rows ``counts[angle]``: the failures, and
    the estimates to assess ``(theta_hats, variances, m_ps)``, inverted on its branch."""
    sign = model.postselect_sign
    failures, parts = [], []
    for branch, part in zip(branches, counts):
        sigmas, variances = weak_values_from_counts(part, model.kappa, sign, kappa_uncertainty)
        m_ps = postselected_counts(part, sign).sum(axis=1)
        keep = m_ps > 0
        failed = Counter({EmptyChannel.__name__: int(np.count_nonzero(~keep))})
        if isinstance(branch, str):  # the branch's error fails every repetition with counts
            failed[branch] += int(np.count_nonzero(keep))
            keep[:] = False
            theta_hats = np.empty(0)
        else:
            theta_hats = invert_branch(model, sigmas[keep], branch)
        failures.append(failed)
        parts.append((theta_hats, variances[keep], m_ps[keep]))
    return failures, parts


def table1_batch(theta_lists_deg: list, models: "list[ModelParams]",
                 acquisition: AcquisitionConfig, repetitions: int) -> "Iterator[list[Table1Row]]":
    """Simulate, estimate, and audit every working point of every model,
    ``theta_lists_deg[i]`` those of ``models[i]``, as many for each: one
    list of rows per model, in order, assessed when it is taken.

    Find each model's monotone branch containing each true angle, then draw
    the counts of every repetition of every angle of every model in one
    batch; every model draws from the same seeds, so the rows of two models
    are correlated, not independent.  Per angle, estimate the postselected
    value and its variance for every repetition, and invert the values on
    the angle's branch (:func:`invert_branch`).  Then assess every
    repetition of every angle of a model together (:func:`assess_estimates`):
    propagated variance and the Cramér-Rao comparison with each
    repetition's realized postselected event count.  Failed repetitions are
    counted per row by error type, never dropped silently; an error of one
    angle's branch fails that angle's repetitions only.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    branches = []  # per model, per angle: its branch (lo, hi), or the name of the error finding it
    for thetas, model in zip(theta_lists_deg, models):  # before any draw: model errors come first
        branches.append([])
        for theta_deg in thetas:
            try:
                branches[-1].append(model.branch_containing(math.radians(theta_deg)))
            except (OutOfRange, AmbiguousBranch) as exc:
                branches[-1].append(type(exc).__name__)
    probs = np.stack([channel_probabilities(np.radians(thetas), model.kappa, model.imperfections).T
                      for thetas, model in zip(theta_lists_deg, models)])
    seeds = derive_seeds(acquisition.seed, probs.shape[1] * repetitions)
    counts = draw_counts(probs[:, :, None], seeds.reshape(-1, repetitions), acquisition)
    estimates = [_invert(*args, acquisition.kappa_uncertainty)
                 for args in zip(models, branches, counts)]
    del seeds, counts  # freed before each model's parts are joined
    estimates = [(failures, [np.concatenate(c) for c in zip(*parts)], [p[0].size for p in parts])
                 for failures, parts in estimates]
    for thetas, model, (failures, columns, sizes) in zip(theta_lists_deg, models, estimates):
        yield [Table1Row(float(theta_deg), model.postselect_sign, *budget,
                         failures_by_type=dict(failed + more))
               for theta_deg, failed, (budget, more) in zip(
                   thetas, failures, _assess_parts(model, columns, sizes) if sizes else [])]


def table1_pipeline(theta_list_deg: "list[float] | tuple[float, ...]", model: ModelParams,
                    acquisition: AcquisitionConfig, repetitions: int) -> list[Table1Row]:
    """The rows of one model's working points: :func:`table1_batch` of one model."""
    return next(table1_batch([theta_list_deg], [model], acquisition, repetitions))


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
