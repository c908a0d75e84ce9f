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
from functools import cached_property

import numpy as np

from . import counting, kernels
from .counting import AcquisitionConfig, derive_seeds, draw_counts, weak_values_from_counts
from .errors import (AmbiguousBranch, DegenerateConditional, EmptyChannel, FlatCurve,
                     GateStarved, OutOfRange, WeakpsError, ZeroPostselection, ZeroStrength,
                     angle_text)
from .imperfections import ImperfectionParams, channel_matrix
from .states import PROB_FLOOR, _Record, as_strength, postselected_channels
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


def channel_probabilities(thetas: np.ndarray, kappa: float,
                          imperfections: ImperfectionParams | None,
                          basis: "tuple | None" = None) -> np.ndarray:
    """Probabilities of the four coincidence channels given a coincidence, rows
    ``(p_mp, p_mm, p_pp, p_pm)`` over an array of angles, at strength ``kappa``
    through the ideal gate or ``imperfections``: each row of
    :func:`~weakps.imperfections.channel_matrix` a trig form of its own over
    the angles' ``basis`` (their :func:`~weakps.kernels.trig_basis` unless
    given), since a matmul rounds otherwise as a call holds one angle or more.
    Under a gate, the rows of ``t_h = 1`` (it cancels) divided by their sum;
    GateStarved where the coincidence probability is at or below the floor."""
    thetas = np.asarray(thetas, dtype=np.float64)
    basis = kernels.trig_basis(thetas) if basis is None else basis
    unit = None if imperfections is None else imperfections.replace(t_h=1.0)
    probs = np.stack([kernels.trig_form(row, basis) for row in channel_matrix(kappa, unit)])
    if imperfections is None:
        return probs
    total = probs.sum(axis=0)
    starved = imperfections.t_h * imperfections.t_h * total <= PROB_FLOOR
    if np.any(starved):
        raise GateStarved("coincidence probability vanishes at theta = "
                          f"{angle_text(float(thetas[starved][0]))}")
    return probs / total


class ModelParams(_Record):
    """What generated (or is assumed to generate) the measured values."""

    _fields = ("kappa", "postselect_sign", "imperfections")

    def __init__(self, kappa: float, postselect_sign: str,
                 imperfections: ImperfectionParams | None = None) -> None:
        self.__dict__.update(kappa=kappa, postselect_sign=postselect_sign,
                             imperfections=imperfections)
        as_strength(kappa)
        postselected_channels(postselect_sign)

    @cached_property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """``(n, d)`` with ``p0 - p1 = n.B`` and ``p0 + p1 = d.B``,
        ``B = (1, cos 4t, sin 4t)``, for the postselected pair: the difference
        and the sum of its two rows of :func:`~weakps.imperfections.channel_matrix`,
        per coincidence in the ideal model, per attempt under imperfections."""
        rows = channel_matrix(self.kappa, self.imperfections)
        p0, p1 = rows[postselected_channels(self.postselect_sign)]
        return p0 - p1, p0 + p1

    def evaluate(self, thetas: np.ndarray) -> dict[str, np.ndarray]:
        """The model's columns over an array of angles, from one trig basis and
        unvalidated (:meth:`checked` validates them): ``starved``, where the
        postselection probability is within rounding of zero and no
        postselected value exists; the postselected value ``sigma``
        (nominal-kappa rescaling) and its angle derivative ``slope``; the
        postselection probability ``p_ps``; and the postselected Fisher
        information ``f_ps`` (per squared radian), NaN where a conditional
        probability vanishes, and zero at ``kappa = 0``, where the
        distribution does not depend on the angle.

        ``p_ps`` is ``d.B``: per coincidence in the ideal model, per attempt
        under imperfections, so that ``F_ps * p_ps <= 16`` bounds the
        information per attempt.  ``f_ps`` is that of any binary postselected
        distribution, ``k^2 sigma'^2 / (1 - k^2 sigma^2)``.
        """
        basis = kernels.trig_basis(thetas)
        n, d = self.coefficients
        p_ps = kernels.trig_form(d, basis)
        sigma = kernels.trig_curve(n, d, self.kappa, basis)
        slope = kernels.trig_slope(n, d, self.kappa, basis)
        del basis  # freed before f_ps's temporaries, which a large batch peaks in
        if self.kappa == 0.0:
            f_ps = np.zeros(p_ps.shape)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                if self.imperfections is None:
                    # The ideal closed form 16 k^2 / (2 p_ps)^2, not the general
                    # form, which cancels near the anomaly peak: within 3e-3 rad of
                    # the minus peak (1e-7 rad grid) it is off by up to 1.3e-3
                    # relative at k = 1e-3, 1.8e-5 at k = 0.05 and 7e-7 at
                    # k = 0.335, and by more beside the saturated angles.
                    den = 2.0 * p_ps
                    f_ps = 16.0 * self.kappa * self.kappa / (den * den)
                else:
                    f_ps = kernels.fisher_from_weak_value(sigma, slope, self.kappa)
            f_ps = np.where(1.0 - np.abs(self.kappa * sigma) < SATURATION_TOL, np.nan, f_ps)
        return {"starved": p_ps <= kernels._ROUNDING * np.abs(d).sum(), "sigma": sigma,
                "slope": slope, "p_ps": p_ps, "f_ps": f_ps}

    def checked(self, thetas: np.ndarray) -> dict[str, np.ndarray]:
        """:meth:`evaluate` with the one angle check: GateStarved where no
        coincidence passes the gate (imperfect model only), ZeroPostselection
        where the model is otherwise starved, then ZeroStrength."""
        thetas = np.asarray(thetas, dtype=np.float64)
        columns = self.evaluate(thetas)
        starved = thetas[columns["starved"]]
        if starved.size:
            channel_probabilities(starved, self.kappa, self.imperfections)  # may raise GateStarved
            raise ZeroPostselection("postselection probability vanishes at theta = "
                                    f"{angle_text(float(starved[0]))}")
        if self.kappa == 0.0:
            raise ZeroStrength("weak value undefined at kappa = 0")
        return columns

    def joint_pair(self, thetas: np.ndarray,
                   basis: "tuple | None" = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The postselected pair ``(p0, p1)`` over an array of angles, with
        ``p0 - p1 = n.B`` and ``p0 + p1 = d.B``, and the overlap ``p_phi``, the
        ideal model's ``d.B`` at ``kappa = 0``: what Pusey's functional is
        evaluated on.  Unvalidated, from one trig basis, the angles' own
        unless given."""
        basis = kernels.trig_basis(thetas) if basis is None else basis
        n, d = self.coefficients
        p_ps, diff = kernels.trig_form(d, basis), kernels.trig_form(n, basis)
        p_phi = kernels.trig_form(ModelParams(0.0, self.postselect_sign).coefficients[1], basis)
        return (p_ps + diff) / 2.0, (p_ps - diff) / 2.0, p_phi

    @cached_property
    def _branches(self) -> list[tuple[float, float]]:
        """The branches :meth:`branch_containing` picks from, in order: each
        turning point snapped to the grid angle where the tabulated curve
        turns (the end of its cell that is the more extreme for its kind,
        the far end on a tie), and a branch from one grid angle past a
        snapped turn to one short of the next."""
        grid = _BRANCH_GRID
        sigma = self.checked(grid)["sigma"]
        turns, kinds = kernels.trig_turning_points(*self.coefficients, grid[0], grid[-1])
        cells = np.searchsorted(grid, turns, side="right") - 1
        snapped = cells + 1 - (kinds * (sigma[cells] - sigma[cells + 1]) > 0.0)
        starts, stops = np.append(0, snapped + 1), np.append(snapped - 1, grid.size - 1)
        keep = starts < stops
        return list(zip(grid[starts[keep]].tolist(), grid[stops[keep]].tolist()))

    def branch_containing(self, theta: float) -> tuple[float, float]:
        """Angle interval of the monotone branch containing ``theta``, from
        the model's curve tabulated once on a 0.05 deg grid over [0, 90] deg
        and its closed-form turning points: the branch ends one grid angle
        inside the tabulated turn on either side, so that it holds none.
        Raises OutOfRange off the grid, and AmbiguousBranch within a cell of
        a turning point."""
        for lo, hi in self._branches:
            if lo <= theta <= hi:
                return lo, hi
        if not _BRANCH_GRID[0] <= theta <= _BRANCH_GRID[-1]:
            raise OutOfRange(f"theta = {angle_text(theta)} outside the tabulated range")
        raise AmbiguousBranch(
            f"theta = {angle_text(theta)} sits within one grid cell of a curve turning point"
        )


def invert_branch(
    model: ModelParams, sigmas: "np.ndarray | list[float]", branch: tuple[float, float]
) -> np.ndarray:
    """Invert the model curve on a monotone branch for a batch of
    measured values, in closed form: one angle per value, NaN where the
    value falls outside the branch's range.  Raises AmbiguousBranch when the
    branch spans a turning point, probed for each call.
    """
    lo, hi = float(branch[0]), float(branch[1])
    if hi <= lo:
        raise ValueError("branch must be a non-empty interval (lo, hi)")
    if kernels.trig_turning_points(*model.coefficients, lo, hi)[0].size:
        raise AmbiguousBranch(f"curve is not monotone on [{angle_text(lo)}, {angle_text(hi)}]; "
                              "it spans a turning point")
    return kernels.invert_trig(*model.coefficients, model.kappa, sigmas, lo, hi)


# An estimate's status in an EstimateBatch: OK, or the first error that stops it.
OK, OUT_OF_RANGE, FLAT_CURVE, DEGENERATE = range(4)
STATUS_ERRORS = (None, OutOfRange, FlatCurve, DegenerateConditional)

# The error budget of an estimate, one array each in a batch or a Table1Row.
BUDGET_COLUMNS = ("theta_hat_deg", "variance_theta_deg2", "sigma_cr_deg2", "f_ps", "m_ps")


class EstimateBatch(_Record):
    """Error budgets of a batch of estimates, as aligned arrays.

    ``status`` holds each estimate's status; the budget columns hold its
    angle (degrees), propagated variance and Cramér-Rao limit (squared
    degrees), postselected Fisher information and postselected event count,
    and mean something only where the status is OK.  The estimates' angles
    (radians) and curve slopes are kept for :meth:`error`.
    """

    _fields = ("theta_hat_deg", "variance_theta_deg2", "sigma_cr_deg2", "f_ps", "m_ps",
               "status", "theta_hats", "slopes")
    _hidden = ("theta_hats", "slopes")
    __eq__, __hash__ = object.__eq__, object.__hash__  # compared by identity

    def __init__(self, theta_hat_deg: np.ndarray, variance_theta_deg2: np.ndarray,
                 sigma_cr_deg2: np.ndarray, f_ps: np.ndarray, m_ps: np.ndarray,
                 status: np.ndarray, theta_hats: np.ndarray, slopes: np.ndarray) -> None:
        self.__dict__.update(theta_hat_deg=theta_hat_deg, variance_theta_deg2=variance_theta_deg2,
                             sigma_cr_deg2=sigma_cr_deg2, f_ps=f_ps, m_ps=m_ps, status=status,
                             theta_hats=theta_hats, slopes=slopes)

    def error(self, i: int, model: ModelParams, branch: tuple[float, float],
              sigma_hat: float) -> WeakpsError | None:
        """The typed error that stops estimate ``i``, None if it is OK; the
        estimate was inverted from ``sigma_hat`` on ``branch`` (lo, hi) of
        ``model``'s curve."""
        status, theta = int(self.status[i]), angle_text(float(self.theta_hats[i]))
        if status == OUT_OF_RANGE:
            ends = model.checked(branch)["sigma"]
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
    if (m_ps <= 0).any():
        raise ValueError("m_ps must be positive")
    theta_hats = np.asarray(theta_hats, dtype=np.float64)
    found = ~np.isnan(theta_hats)  # the model is evaluated only where found
    slopes, f_ps, p_ps = np.full((3, theta_hats.size), np.nan)
    columns = model.checked(theta_hats[found])
    slopes[found], f_ps[found], p_ps[found] = (columns[k] for k in ("slope", "f_ps", "p_ps"))
    del columns  # freed before the budget's arithmetic, which a large batch peaks in
    with np.errstate(divide="ignore", invalid="ignore"):  # first-order propagation
        var_theta = np.asarray(var_sigmas, dtype=np.float64) / (slopes * slopes) * RAD2_TO_DEG2
        limits = 1.0 / (f_ps * m_ps) * RAD2_TO_DEG2  # Cramér-Rao limits
    budget = f_ps * p_ps
    if (budget > QUANTUM_FISHER_INFORMATION + 1e-9).any():
        raise RuntimeError(f"information budget audit failed: {np.nanmax(budget)!r} > 16")
    status = np.where(np.isnan(f_ps), np.int8(DEGENERATE), np.int8(OK))  # the last error first,
    status[np.abs(slopes) < _SLOPE_FLOOR] = FLAT_CURVE  # each overwritten by those before it
    status[~found] = OUT_OF_RANGE
    ok = status == OK
    if (var_theta[ok] < 0.0).any():
        raise ValueError("variance must be nonnegative")
    if (limits[ok] <= 0.0).any():
        raise ValueError("Cramér-Rao variance must be positive")
    return EstimateBatch(
        theta_hat_deg=np.degrees(theta_hats), variance_theta_deg2=var_theta,
        sigma_cr_deg2=limits, f_ps=f_ps, m_ps=m_ps, status=status, theta_hats=theta_hats,
        slopes=slopes,
    )


def _mean(values: np.ndarray) -> float:
    """``np.mean``'s value, by its own pairwise sum in float64."""
    return float(np.add.reduce(values, dtype=np.float64) / values.size) if values.size else math.nan


class Table1Row(_Record):
    """All repetitions of one working point: the budget columns of those
    that succeeded, in repetition order, and the count of those that
    failed, by error type."""

    _fields = ("theta_deg", "postselect_sign", "theta_hat_deg", "variance_theta_deg2",
               "sigma_cr_deg2", "f_ps", "m_ps", "failures_by_type")
    __eq__, __hash__ = object.__eq__, object.__hash__  # compared by identity

    def __init__(self, theta_deg: float, postselect_sign: str, theta_hat_deg: np.ndarray,
                 variance_theta_deg2: np.ndarray, sigma_cr_deg2: np.ndarray, f_ps: np.ndarray,
                 m_ps: np.ndarray, failures_by_type: dict[str, int]) -> None:
        self.__dict__.update(theta_deg=theta_deg, postselect_sign=postselect_sign,
                             theta_hat_deg=theta_hat_deg, variance_theta_deg2=variance_theta_deg2,
                             sigma_cr_deg2=sigma_cr_deg2, f_ps=f_ps, m_ps=m_ps,
                             failures_by_type=failures_by_type)

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
        deviations = self.theta_hat_deg - _mean(self.theta_hat_deg)  # np.var's value, ddof=1
        return float(np.add.reduce(deviations * deviations) / (self.n_ok - 1))

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
    kinds = len(STATUS_ERRORS)
    parts = np.repeat(np.arange(len(sizes)), sizes)
    tally = np.bincount(parts * kinds + batch.status, minlength=len(sizes) * kinds)
    ok = batch.status == OK
    columns = [getattr(batch, name)[ok] for name in BUDGET_COLUMNS]  # in part order
    out, start = [], 0
    for counts in tally.reshape(-1, kinds).tolist():
        stop = start + counts[OK]
        out.append(([column[start:stop] for column in columns],
                     Counter({error.__name__: n for error, n in zip(STATUS_ERRORS, counts)
                              if error is not None})))
        start = stop
    return out


def _invert(model: ModelParams, branches: list, counts: np.ndarray, kappa_uncertainty: float):
    """Per angle, from its repetitions' count rows ``counts[angle]``: the failures,
    and the estimates to assess ``(theta_hats, variances, m_ps)``, inverted on its
    branch, in parts of whole angles that hold at most ``_SEED_BLOCK``
    repetitions (one angle at least), each part inverted in one pass; and
    the count of each angle's estimates."""
    sign = model.postselect_sign
    lo, hi = np.reshape([(math.nan,) * 2 if isinstance(b, str) else b for b in branches], (-1, 2)).T
    step = max(1, counting._SEED_BLOCK // counts.shape[1])
    failures, parts, sizes = [], [], []
    for start in range(0, len(branches), step):
        rows = slice(start, start + step)
        lanes = counts[rows].reshape(-1, 4)
        sigmas, variances = weak_values_from_counts(lanes, model.kappa, sign, kappa_uncertainty)
        m_ps = lanes[:, postselected_channels(sign)].sum(axis=1)
        keep = (m_ps > 0).reshape(-1, counts.shape[1])
        for branch, kept, n in zip(branches[rows], keep, keep.sum(axis=1).tolist()):
            failed = Counter({EmptyChannel.__name__: counts.shape[1] - n})
            if isinstance(branch, str):  # the branch's error fails every repetition with counts
                failed[branch] += n
                kept[:], n = False, 0
            failures.append(failed)
            sizes.append(n)
        theta_hats = kernels.invert_trig(*model.coefficients, model.kappa,  # a bracket per angle
                                         sigmas.reshape(keep.shape), lo[rows, None], hi[rows, None])
        flat = keep.ravel()
        parts.append((theta_hats[keep], variances[flat], m_ps[flat]))
    return failures, parts, sizes


def table1_batch(theta_lists_deg: list, models: "list[ModelParams]",
                 acquisition: AcquisitionConfig, repetitions: int) -> "Iterator[list[Table1Row]]":
    """Simulate, estimate, and audit every working point of every model,
    ``theta_lists_deg[i]`` those of ``models[i]``, as many for each: one
    list of rows per model, in order, assessed when it is taken.

    Find each model's monotone branch containing each true angle, then draw
    the counts of every repetition of every angle of every model in one
    batch.  A minus model's rows draw only their postselected pair ``(n_mp,
    n_mm)``, which every stream draws first; a plus model's draw all four
    channels, its pair coming last.  Every model draws from the same seeds:
    repetition ``i`` of the ``j``-th angle of each model shares one stream,
    so the rows of two models are correlated, not independent (with the
    Table-1 angles at kappa 0.335 and 20,000 repetitions, the theta-hat
    correlation is 0.055 and 0.066 between 20 and 67.5 deg, and 0.006 and
    0.018 between 22.5 and 70 deg, at seeds 1 and 2; standard error ~0.007).
    Per angle, estimate the postselected value and its variance for every
    repetition, and invert the values on the angle's branch (as
    :func:`invert_branch`, a block of angles at once).  Then assess every
    repetition of every angle of a model together (:func:`assess_estimates`):
    propagated variance and the Cramér-Rao comparison with each repetition's
    realized postselected event count.  Failed repetitions are counted per
    row by error type, never dropped silently; an error of one angle's
    branch fails that angle's repetitions only.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    if not models:  # no rows to draw
        return
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
    counts = draw_counts(probs[:, :, None], seeds.reshape(-1, repetitions), acquisition,
                         [postselected_channels(model.postselect_sign).stop for model in models])
    estimates = [_invert(*args, acquisition.kappa_uncertainty)
                 for args in zip(models, branches, counts)]
    del seeds, counts  # freed before each model's parts are joined
    estimates = [(failures, [np.concatenate(c) for c in zip(*parts)], sizes)
                 for failures, parts, sizes in estimates]
    for thetas, model, (failures, columns, sizes) in zip(theta_lists_deg, models, estimates):
        yield [Table1Row(float(theta_deg), model.postselect_sign, *budget,
                         failures_by_type=dict(failed + more))
               for theta_deg, failed, (budget, more) in zip(
                   thetas, failures, _assess_parts(model, columns, sizes) if sizes else [])]


# The published comparison values, load_baseline's default
_BASELINE = {
    ("minus", 20.0): (0.085, 0.23), ("minus", 22.5): (0.036, 0.33),
    ("minus", 25.0): (0.061, 0.41), ("minus", 27.5): (0.29, 0.35),
    ("plus", 67.5): (0.12, 0.37), ("plus", 70.0): (0.041, 0.43),
    ("plus", 72.5): (0.079, 0.43), ("plus", 75.0): (0.76, 0.3),
}


def load_baseline(path: "str | None" = None) -> dict[tuple[str, float], tuple[float, float]]:
    """Published comparison values keyed by (postselect_sign, theta_deg),
    each entry (measured variance, Cramér-Rao variance) in squared degrees.

    These are reference labels for side-by-side reporting only; the pipeline
    makes no claim of reproducing them (the underlying count rates are not
    public).  A copy of ``_BASELINE`` without ``path``, else read from a
    CSV file of ``postselect,theta_deg,variance_deg2,cramer_rao_deg2`` lines,
    blank, ``#`` and header lines skipped.  Raises ValueError on a line
    without four comma-separated fields or with a field that is not a number.
    """
    if path is None:
        return dict(_BASELINE)
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
