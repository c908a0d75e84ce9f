"""Reference routes the tests compare the library against, kept out of the
library: each computes a quantity the library computes another way.

States are real amplitude arrays and the four coincidence channels are
arrays in the order ``(p_mp, p_mm, p_pp, p_pm)``: signal outcome first, meter
outcome second, ``m``/``p`` for ``-``/``+``; meter ``+`` is measurement
outcome 0.
Import from a test module as ``from oracles import ...``.
"""

import math
from collections.abc import Callable

import numpy as np

from weakps import kernels
from weakps.counting import weak_values_from_counts
from weakps.estimation import (_BRANCH_GRID, OK, ModelParams, assess_estimates,
                               channel_probabilities, invert_branch)
from weakps.errors import DegenerateConditional, GateStarved, ZeroPostselection
from weakps.states import PROB_FLOOR, postselected_channels, sign_factor
from weakps.weak import SATURATION_TOL

# The named states |0>, |1> and the diagonal |+>, |->
ZERO, ONE = np.array([1.0, 0.0]), np.array([0.0, 1.0])
PLUS, MINUS = np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, -1.0]) / math.sqrt(2.0)


def signal(theta: float) -> np.ndarray:
    """Amplitudes of ``cos(2 theta)|0> + sin(2 theta)|1>``: a signal
    preparation, or the meter's at ``theta = mu``."""
    return np.array([math.cos(2.0 * theta), math.sin(2.0 * theta)])


def meter_angle(kappa: float) -> float:
    """The meter preparation angle ``mu = asin(kappa) / 4`` of strength
    ``kappa = sin(4 mu)``."""
    return math.asin(kappa) / 4.0


def projector(amplitudes: np.ndarray) -> np.ndarray:
    return np.outer(amplitudes, amplitudes.conj())


def kraus_operators(kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """The measurement operators ``diag(a, b)`` and ``diag(b, a)``,
    ``a, b = sqrt((1 +- kappa)/2)``, of outcomes 0 and 1."""
    a, b = math.sqrt((1.0 + kappa) / 2.0), math.sqrt((1.0 - kappa) / 2.0)
    return np.diag([a, b]), np.diag([b, a])


def consolidated_channel(rho: np.ndarray, kappa: float) -> np.ndarray:
    """The Kraus route of the consolidated channel, the measurement with its
    outcome ignored: ``sum_x M_x rho M_x^T``.  At ``rho = |phi><phi|`` it is
    the consolidated postselection operator (the operators are real and
    diagonal): the reference for :func:`weakps.decompose_consolidated`."""
    return sum(m @ rho @ m.T for m in kraus_operators(kappa))


def joint_probability(psi: np.ndarray, phi: np.ndarray, kappa: float, x: int) -> float:
    """The Kraus route: probability of measurement outcome ``x`` followed by
    successful postselection on ``phi``, ``|<phi| M_x |psi>|^2``."""
    if x not in (0, 1):
        raise ValueError(f"outcome index must be 0 or 1, got {x!r}")
    return float(abs(np.conj(phi) @ (kraus_operators(kappa)[x] @ psi)) ** 2)


def joint_channels(psi: np.ndarray, kappa: float) -> np.ndarray:
    """The four channels by the Kraus route, the signal read out in the
    diagonal basis."""
    return np.array([joint_probability(psi, phi, kappa, x)
                     for phi in (MINUS, PLUS) for x in (0, 1)])


def postselected_value(channels, kappa: float, postselect_sign: str):
    """The rescaled postselected value ``(p0 - p1) / (kappa (p0 + p1))`` of
    the pair of ``channels`` that ``postselect_sign`` keeps."""
    p0, p1 = channels[:2] if sign_factor(postselect_sign) < 0 else channels[2:]
    return (p0 - p1) / (kappa * (p0 + p1))


def pusey_functional(psi: np.ndarray, phi: np.ndarray, kappa: float, x: int) -> float:
    """Pusey's functional of outcome ``x`` at the state level: the Kraus
    route's joint probability over the overlap ``|<phi|psi>|^2``, through
    :func:`weakps.kernels.pusey_functional`; ValueError where they are
    orthogonal (the sweep's NaN)."""
    p_phi = abs(np.conj(phi[0]) * psi[0] + np.conj(phi[1]) * psi[1]) ** 2
    if p_phi <= PROB_FLOOR:
        raise ValueError("preparation and postselection are orthogonal")
    return float(kernels.pusey_functional(joint_probability(psi, phi, kappa, x), p_phi, kappa))


def pusey_sweep(thetas, kappa: float, postselect_sign: str):
    """``(I0, I1, p_phi)`` over an angle array, as ``sweep-pusey`` computes
    them from the model: not a reference route, but the values the scan tests
    reduce and the Kraus route is compared against."""
    p0, p1, p_phi = ModelParams(kappa, postselect_sign).joint_pair(thetas)
    i0, i1 = kernels.pusey_functional(np.stack([p0, p1]), p_phi, kappa)
    return i0, i1, p_phi


# Largest deviation from Hermiticity and from a unit trace, and most negative
# eigenvalue, that checked_density accepts.
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10

# The controlled-sign gate diag(1, 1, 1, -1) on signal (x) meter.
CSIGN = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def checked_density(rho) -> np.ndarray:
    """``rho`` as a complex 4x4 array, checked to be Hermitian with a trace in
    (0, 1] (lossy stages are sub-normalized) and positive semidefinite;
    ValueError otherwise."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > _HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    tr = rho.trace().real
    if not 0.0 < tr <= 1.0 + _TRACE_TOL:
        raise ValueError(f"trace must lie in (0, 1], got {tr!r}")
    if np.min(np.linalg.eigvalsh(rho)) < -_PSD_TOL:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def product_density(signal_amplitudes: np.ndarray, meter_amplitudes: np.ndarray) -> np.ndarray:
    """The density operator of a signal (x) meter product state."""
    vec = np.kron(signal_amplitudes, meter_amplitudes)
    return checked_density(np.outer(vec, vec.conj()))


def _channels(rho: np.ndarray) -> np.ndarray:
    """The four channels of a two-qubit density operator: both qubits
    projected in the diagonal basis (tiny negative roundings clipped)."""
    return np.array([max(float(np.trace(np.kron(projector(s), projector(m)) @ rho).real), 0.0)
                     for s in (MINUS, PLUS) for m in (PLUS, MINUS)])


def circuit_channels(theta: float, mu: float) -> np.ndarray:
    """The circuit route: the four channels of the product state through the
    controlled-sign gate, at strength ``sin(4 mu)``."""
    rho = product_density(signal(theta), signal(mu))
    return _channels(checked_density(CSIGN @ rho @ CSIGN.conj().T))


def central_splitter_operator(params) -> np.ndarray:
    """Coincidence-postselected amplitude operator of the central splitter."""
    root_hv = math.sqrt(params.t_h * params.t_v)
    return np.diag([params.t_h, root_hv, root_hv, 2.0 * params.t_v - 1.0]).astype(complex)


def balance_operator(params) -> np.ndarray:
    """Per-photon compensating splitters equalizing net H/V transmission."""
    per_photon = np.diag([math.sqrt(params.t_v), math.sqrt(params.t_h)])
    return np.kron(per_photon, per_photon).astype(complex)


def dephase_computational(rho: np.ndarray) -> np.ndarray:
    """Remove all coherences in the two-qubit computational basis."""
    return np.diag(np.diag(rho))


def imperfect_joint_probs(theta: float, mu: float, params) -> np.ndarray:
    """The density-matrix route of the lossy gate: its three stages
    (:mod:`weakps.imperfections`) on 4x4 density matrices, each checked, and
    the four channels renormalized on a coincidence.  The reference for
    :func:`weakps.estimation.channel_probabilities` through a lossy gate.

    Raises GateStarved when the coincidence probability is numerically zero.
    """
    rho_in = product_density(signal(theta), signal(mu))

    gate = central_splitter_operator(params)
    rho_gate = gate @ rho_in @ gate.conj().T
    if rho_gate.trace().real <= PROB_FLOOR:
        raise GateStarved("coincidence probability is numerically zero")
    rho_gate = checked_density(rho_gate)

    v = params.visibility
    rho_mixed = checked_density(v * rho_gate + (1.0 - v) * dephase_computational(rho_gate))

    balance = balance_operator(params)
    rho_balanced = balance @ rho_mixed @ balance.conj().T
    total = rho_balanced.trace().real
    if total <= PROB_FLOOR:
        raise GateStarved("coincidence probability is numerically zero")
    return _channels(checked_density(rho_balanced / total))


# Angle step (degrees) of the grid effective_kappa fits the strength on.
_CALIBRATION_STEP_DEG = 1.0


def effective_kappa(params, mu: float) -> float:
    """Strength a calibration of the imperfect gate would report.

    Least-squares fit of the postselection-free meter marginals
    ``p(+|theta) - p(-|theta)`` against the ideal model ``kappa * cos(4t)``
    over [0, 90) degrees in steps of ``_CALIBRATION_STEP_DEG``.  Equals
    ``sin(4*mu)`` for ideal parameters.
    """
    thetas = np.deg2rad(np.arange(0.0, 90.0, _CALIBRATION_STEP_DEG))
    p_mp, p_mm, p_pp, p_pm = np.transpose([imperfect_joint_probs(t, mu, params)
                                           for t in thetas.tolist()])
    diffs = (p_pp + p_mp) - (p_pm + p_mm)
    cos4 = np.cos(4.0 * thetas)
    return float(np.dot(cos4, diffs) / np.dot(cos4, cos4))


def four_outcome_bloch_angles(mu: float) -> dict[str, float]:
    """Bloch-vector polar angles of the four coincidence-outcome effects.

    The combined circuit (gate, meter readout, signal readout) is a single
    four-outcome measurement on the signal.  Each effect is rank one with its
    Bloch vector in the XZ plane; this returns the signed angle from the +Z
    axis (positive toward +X) per channel, keyed ``pp``, ``mp``, ``pm``,
    ``mm`` (signal outcome first).  The four angles form the set
    {+-(pi/2 - 4mu), +-(pi/2 + 4mu)}.
    """
    if not 0.0 <= 4.0 * mu <= math.pi / 2.0:
        raise ValueError("meter angle must satisfy 0 <= 4*mu <= pi/2")
    meter = signal(mu)
    # columns of (CZ |j>_s |meter>) reshaped to [signal_i, meter_i, signal_j]
    gate_cols = (CSIGN @ np.kron(np.eye(2, dtype=complex), meter.reshape(2, 1))).reshape(2, 2, 2)
    meter_ops = {
        "p": np.einsum("m,imj->ij", PLUS, gate_cols),
        "m": np.einsum("m,imj->ij", MINUS, gate_cols),
    }
    signal_projs = {"p": projector(PLUS), "m": projector(MINUS)}
    angles: dict[str, float] = {}
    total = np.zeros((2, 2), dtype=complex)
    for s_label, proj in signal_projs.items():
        for m_label, n_op in meter_ops.items():
            effect = n_op.conj().T @ proj @ n_op
            total += effect
            v_x = float((effect[0, 1] + effect[1, 0]).real)
            v_y = float(-2.0 * effect[0, 1].imag)
            v_z = float((effect[0, 0] - effect[1, 1]).real)
            if abs(v_y) > 1e-12:
                raise ValueError("effect unexpectedly leaves the XZ plane")
            angles[s_label + m_label] = math.atan2(v_x, v_z)
    if np.max(np.abs(total - np.eye(2))) > 1e-12:
        raise ValueError("four-outcome effects do not resolve the identity")
    return angles


def ideal_postselect_probability(theta, kappa: float, sign: float) -> np.ndarray:
    """Success probability of the ideal postselection ``(1 + sign r sin 4t) / 2``,
    ``r = sqrt(1 - kappa^2)``, ``sign`` -1 for ``<-|`` and +1 for ``<+|``."""
    theta = np.asarray(theta, dtype=np.float64)
    return (1.0 + sign * math.sqrt(1.0 - kappa * kappa) * np.sin(4.0 * theta)) / 2.0


def ideal_sigma(theta, kappa: float, sign: float) -> np.ndarray:
    """The ideal postselected value ``cos 4t / (1 + sign r sin 4t)``: the
    reference for the ``sigma`` of :meth:`weakps.ModelParams.evaluate` on the ideal model."""
    theta = np.asarray(theta, dtype=np.float64)
    den = 2.0 * ideal_postselect_probability(theta, kappa, sign)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.cos(4.0 * theta) / den


def ideal_slope(theta, kappa: float, sign: float) -> np.ndarray:
    """d(sigma)/d(theta) of :func:`ideal_sigma`, ``-4 (sin 4t + sign r) / den^2``:
    the reference for the ``slope`` of :meth:`weakps.ModelParams.evaluate`."""
    theta = np.asarray(theta, dtype=np.float64)
    den = 2.0 * ideal_postselect_probability(theta, kappa, sign)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -4.0 * (np.sin(4.0 * theta) + sign * math.sqrt(1.0 - kappa * kappa)) / (den * den)


def fisher_ps_definition(theta: float, kappa: float, postselect_sign: str) -> float:
    """Fisher information of the ideal postselected conditional distribution,
    ``(d pc0)^2/pc0 + (d pc1)^2/pc1``, with analytic derivatives: the
    reference for the ``f_ps`` of :meth:`weakps.ModelParams.evaluate`.

    Units: per squared radian.  Zero at ``kappa = 0``, where the conditional
    distribution does not depend on the angle (ZeroPostselection where the
    postselection starves); raises DegenerateConditional when either
    conditional probability vanishes (the saturated points).
    """
    sign = sign_factor(postselect_sign)
    if kappa == 0.0:
        if ideal_postselect_probability(theta, 0.0, sign) <= PROB_FLOOR:
            raise ZeroPostselection("postselection probability vanishes at this angle")
        return 0.0
    sigma = float(ideal_sigma(theta, kappa, sign))
    if 1.0 - abs(kappa * sigma) < SATURATION_TOL:
        raise DegenerateConditional(f"a conditional probability vanishes at theta = {theta!r}")
    pc0 = (1.0 + kappa * sigma) / 2.0
    pc1 = 1.0 - pc0
    dpc = kappa * float(ideal_slope(theta, kappa, sign)) / 2.0
    return dpc * dpc * (1.0 / pc0 + 1.0 / pc1)


# invert_sigma halves each bracket until it is this narrow, in at most this many steps.
_BISECT_XTOL = 1e-12
_BISECT_MAX_ITER = 200


def invert_sigma(
    targets: np.ndarray,
    curve: Callable[[np.ndarray], np.ndarray],
    lo: "float | np.ndarray",
    hi: "float | np.ndarray",
) -> np.ndarray:
    """Batched bisection of a vectorised curve on monotone brackets: the
    reference for :func:`weakps.kernels.invert_trig`.

    ``curve`` maps a one-dimensional angle array to the curve's values at
    those angles.  ``lo`` and ``hi`` are one bracket for every target, or
    per-target arrays; they broadcast against ``targets``.  Returns the angle
    solving curve(theta) = target for each target, NaN for targets not
    bracketed by [curve(lo), curve(hi)].  Each target's iterates depend on
    its own bracket only, never on the rest of the batch; each bracket is
    halved to 1e-12, in at most 200 steps.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    ends = curve(np.concatenate([lo.ravel(), hi.ravel()]))
    c_lo, c_hi = ends[:lo.size].reshape(lo.shape), ends[lo.size:].reshape(hi.shape)
    targets, a, b, c_lo, c_hi = np.broadcast_arrays(
        np.asarray(targets, dtype=np.float64), lo, hi, c_lo, c_hi)
    f_lo = c_lo - targets
    f_hi = c_hi - targets
    out = np.where(f_hi == 0.0, b, np.where(f_lo == 0.0, a, np.nan))
    bracketed = f_lo * f_hi < 0.0  # excludes the exact endpoint hits above
    active = bracketed
    fa = f_lo
    for _ in range(_BISECT_MAX_ITER):
        if not np.any(active):
            break
        mid = 0.5 * (a + b)
        fm = curve(mid) - targets
        left = (fa * fm <= 0.0) & active
        b = np.where(left, mid, b)
        a = np.where(left | ~active, a, mid)
        fa = np.where(left | ~active, fa, fm)
        active = active & ((b - a) > _BISECT_XTOL)
    out[bracketed] = 0.5 * (a + b)[bracketed]
    return out


def draw_counts(probs, seeds: np.ndarray, config) -> np.ndarray:
    """One ``np.random.default_rng(seed)`` per row, drawing the four channels
    in order with scalar ``poisson`` calls: the reference for
    :func:`weakps.counting.draw_counts`, with the same arguments."""
    means = config.expected_total * np.maximum(np.atleast_2d(np.asarray(probs, dtype=np.float64)),
                                               0.0)
    rows = np.broadcast_to(means, (len(seeds), 4)).tolist()
    counts = [[rng.poisson(m) for m in row]
              for rng, row in zip(map(np.random.default_rng, seeds.tolist()), rows, strict=True)]
    return np.array(counts, dtype=np.int64).reshape(len(seeds), 4)


def monotone_runs(values: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges [i, j] of the maximal monotone runs of ``values``; a run
    ends where a step turns against the last step that was not flat."""
    diffs = np.sign(np.diff(values))
    steps = np.flatnonzero(diffs)
    turns = steps[1:][diffs[steps[1:]] != diffs[steps[:-1]]].tolist()
    return list(zip([0, *turns], [*turns, diffs.size]))


def tabulated_branches(model: ModelParams) -> list[tuple[float, float]]:
    """The tabulated route to :attr:`ModelParams._branches`: the monotone runs
    of the model's curve on the branch grid, each pulled in by one grid angle
    at a turn between runs, and at an end of the grid only where the model
    turns inside that end's cell."""
    grid = _BRANCH_GRID
    last = grid.size - 1
    turns = kernels.trig_turning_points(*model.coefficients, grid[0], grid[-1])[0]
    first = 1 if np.any(turns < grid[1]) else 0
    end = last - 1 if np.any(turns > grid[-2]) else last
    ends = [(i + 1 if i else first, j - 1 if j < last else end)
            for i, j in monotone_runs(model.checked(grid)["sigma"])]
    return [(float(grid[i]), float(grid[j])) for i, j in ends if i < j]


def table1_exact_law(model: ModelParams, theta_deg: float,
                     acquisition) -> tuple[float, float, float, float, float]:
    """The exact law of one ``table1`` repetition's estimate at ``theta_deg``.

    The estimate depends only on the postselected pair ``(n_a, n_b)``, two
    independent Poisson counts whose means are ``expected_total`` times the
    model's channel probabilities.  Their pmf is summed over each count's
    window of 9 standard deviations about its mean (the standard deviation
    taken as at least one count, so that a mean below 1 still spans 9
    counts), through :func:`weak_values_from_counts`,
    :func:`invert_branch` on the branch holding the angle and
    :func:`assess_estimates`; the pair with no count is a failure
    (EmptyChannel) and is skipped.  Returns P(OK); the mean, variance and
    fourth central moment of the estimate in degrees given OK; and the mass
    outside the window, from its tails.  Each count's pmf is taken out to
    twice the window and normalised there, which cancels the rounding of its
    log terms (P(OK) read 1 + 1.1e-13 without it).
    """
    sign = model.postselect_sign
    theta = math.radians(theta_deg)
    probs = channel_probabilities(np.array([theta]), model.kappa, model.imperfections)[:, 0]
    axes, pmfs, tails = [], [], []
    for mean in (acquisition.expected_total * probs[postselected_channels(sign)]).tolist():
        half = 9.0 * math.sqrt(max(mean, 1.0))
        lo, hi = max(0, math.floor(mean - half)), math.ceil(mean + half)
        counts = np.arange(math.ceil(mean + 2.0 * half) + 1)
        log_factorials = np.array([math.lgamma(n + 1.0) for n in counts.tolist()])
        pmf = np.exp(counts * math.log(mean) - mean - log_factorials)
        pmf /= pmf.sum()
        axes.append(counts[lo : hi + 1])
        pmfs.append(pmf[lo : hi + 1])
        tails.append(float(pmf[:lo].sum() + pmf[hi + 1 :].sum()))
    n_a, n_b = (axis.ravel() for axis in np.meshgrid(*axes, indexing="ij"))
    mass = np.outer(*pmfs).ravel()
    m_ps = n_a + n_b
    kept = m_ps > 0
    counts = np.zeros((int(kept.sum()), 4), dtype=np.int64)
    counts[:, postselected_channels(sign)] = np.stack([n_a[kept], n_b[kept]], axis=1)
    sigmas, variances = weak_values_from_counts(counts, model.kappa, sign,
                                                acquisition.kappa_uncertainty)
    theta_hats = invert_branch(model, sigmas, model.branch_containing(theta))
    batch = assess_estimates(model, theta_hats, variances, m_ps[kept])
    ok = batch.status == OK
    weights, estimates = mass[kept][ok], batch.theta_hat_deg[ok]
    p_ok = float(weights.sum())
    mean = float(weights @ estimates) / p_ok
    deviations = estimates - mean
    variance = float(weights @ deviations**2) / p_ok
    fourth = float(weights @ deviations**4) / p_ok
    lost = tails[0] + tails[1] - tails[0] * tails[1]
    return p_ok, mean, variance, fourth, lost
