"""Qubit states, variable-strength measurement operators, and the two-qubit
controlled-sign circuit realizing them.

Conventions (fixed once, used everywhere):

* ``|0>`` is horizontal, ``|1>`` vertical polarization; ``|+->`` are the
  diagonal states ``(|0> +- |1>)/sqrt(2)``.
* Signal preparations are ``cos(2*theta)|0> + sin(2*theta)|1>`` and the meter
  is the same family in ``mu``; the circuit then acts as a strength
  ``kappa = sin(4*mu)`` measurement.
* The *meter* outcome ``+`` corresponds to the first measurement operator
  (outcome index 0), ``-`` to the second.  This labeling is anchored by
  requiring the rescaled postselected value to equal +1 at ``theta = 0``
  with ``<-|`` postselection.
* All angles are radians.  Degree conversion happens only at the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroPostselection

__all__ = [
    "PROB_FLOOR",
    "PureQubit",
    "Strength",
    "KrausPair",
    "QubitPovm",
    "TwoQubitDensity",
    "ProbabilityRecord",
    "ZERO",
    "ONE",
    "PLUS",
    "MINUS",
    "sign_factor",
    "postselect_state",
    "as_strength",
    "make_signal_state",
    "make_meter_state",
    "kraus_operators",
    "povm_elements",
    "joint_probability",
    "joint_probability_record",
    "conditional_probabilities",
    "csign_apply",
    "csign_matrix",
    "circuit_joint_probability",
    "circuit_probability_record",
    "ideal_probability_record",
]

# Probabilities at or below this are treated as numerically zero.
PROB_FLOOR = 1e-30

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_PSD_TOL = 1e-10


def sign_factor(postselect_sign: str) -> float:
    """Map a postselection label to the sign it carries in closed forms.

    ``<-|`` postselection contributes ``-1``, ``<+|`` contributes ``+1``
    (the factor multiplying ``sin(4*theta)`` in postselection probabilities).
    """
    if postselect_sign == "minus":
        return -1.0
    if postselect_sign == "plus":
        return 1.0
    raise ValueError(f"postselect_sign must be 'plus' or 'minus', got {postselect_sign!r}")


@dataclass(frozen=True)
class PureQubit:
    """Normalized two-component amplitude vector.

    ``a0`` and ``a1`` are the amplitudes on ``|0>`` and ``|1>``.  Complex
    amplitudes are accepted; everything this library is tested against lives
    on the real (linear-polarization) manifold.
    """

    a0: complex
    a1: complex

    def __post_init__(self) -> None:
        norm = abs(self.a0) ** 2 + abs(self.a1) ** 2
        if not math.isfinite(norm) or abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: |a0|^2+|a1|^2 = {norm!r}")

    def amplitudes(self) -> np.ndarray:
        return np.array([self.a0, self.a1], dtype=complex)

    def overlap(self, other: "PureQubit") -> complex:
        """Inner product ``<self|other>``."""
        return complex(np.conj(self.a0) * other.a0 + np.conj(self.a1) * other.a1)

    def projector(self) -> np.ndarray:
        v = self.amplitudes()
        return np.outer(v, v.conj())


ZERO = PureQubit(1.0, 0.0)
ONE = PureQubit(0.0, 1.0)
PLUS = PureQubit(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
MINUS = PureQubit(1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))


def postselect_state(postselect_sign: str) -> PureQubit:
    """Postselection state for a sign label ('minus' -> |->, 'plus' -> |+>)."""
    return MINUS if sign_factor(postselect_sign) < 0 else PLUS


@dataclass(frozen=True)
class Strength:
    """Measurement strength ``kappa`` in [0, 1].

    ``kappa = 0`` is the identity-limit (infinitely gentle) measurement,
    ``kappa = 1`` the projective limit.
    """

    kappa: float

    def __post_init__(self) -> None:
        k = self.kappa
        if not math.isfinite(k) or not 0.0 <= k <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {k!r}")

    @classmethod
    def from_meter_angle(cls, mu: float) -> "Strength":
        """Strength realized by the meter preparation angle: kappa = sin(4*mu)."""
        return cls(math.sin(4.0 * mu))

    @property
    def dephasing_weight(self) -> float:
        """The probability weight 1 - sqrt(1 - kappa^2) of the disturbed part
        of the consolidated postselection operator."""
        return 1.0 - math.sqrt(1.0 - self.kappa * self.kappa)


def as_strength(s: "Strength | float") -> Strength:
    return s if isinstance(s, Strength) else Strength(float(s))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class KrausPair:
    """The two measurement operators of a strength-kappa qubit measurement.

    Both are diagonal in the computational basis with entries
    ``sqrt((1 +- kappa)/2)`` and satisfy ``m0^T m0 + m1^T m1 = I``.
    """

    m0: np.ndarray
    m1: np.ndarray

    def __post_init__(self) -> None:
        ident = self.m0.conj().T @ self.m0 + self.m1.conj().T @ self.m1
        if np.max(np.abs(ident - np.eye(2))) > _NORM_TOL:
            raise ValueError("Kraus pair does not satisfy completeness")
        _frozen(self.m0)
        _frozen(self.m1)


@dataclass(frozen=True)
class QubitPovm:
    """Positive effect pair (e0, e1) with e0 + e1 = I."""

    e0: np.ndarray
    e1: np.ndarray

    def __post_init__(self) -> None:
        if np.max(np.abs(self.e0 + self.e1 - np.eye(2))) > _NORM_TOL:
            raise ValueError("POVM elements do not sum to identity")
        for e in (self.e0, self.e1):
            if np.min(np.linalg.eigvalsh(e)) < -_PSD_TOL:
                raise ValueError("POVM element is not positive semidefinite")
        _frozen(self.e0)
        _frozen(self.e1)


@dataclass(frozen=True)
class TwoQubitDensity:
    """4x4 density operator in signal (x) meter ordering.

    Sub-normalized traces are allowed (lossy elements before renormalization);
    Hermiticity and positivity are enforced at construction.
    """

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > _HERM_TOL:
            raise ValueError("density matrix is not Hermitian")
        tr = rho.trace().real
        if not 0.0 < tr <= 1.0 + _NORM_TOL:
            raise ValueError(f"trace must lie in (0, 1], got {tr!r}")
        if np.min(np.linalg.eigvalsh(rho)) < -_PSD_TOL:
            raise ValueError("density matrix is not positive semidefinite")
        object.__setattr__(self, "rho", _frozen(rho))

    @classmethod
    def from_product(cls, signal: PureQubit, meter: PureQubit) -> "TwoQubitDensity":
        vec = np.kron(signal.amplitudes(), meter.amplitudes())
        return cls(np.outer(vec, vec.conj()))

    @property
    def trace(self) -> float:
        return float(self.rho.trace().real)


@dataclass(frozen=True)
class ProbabilityRecord:
    """Joint outcome probabilities of the four coincidence channels.

    Channel naming: first letter is the signal outcome, second the meter
    outcome, with ``m``/``p`` for ``-``/``+``.  So ``p_mp`` is the
    probability of signal ``-`` with meter ``+``.
    """

    p_mp: float
    p_mm: float
    p_pp: float
    p_pm: float
    kappa: float = field(default=float("nan"))

    def __post_init__(self) -> None:
        for name in ("p_mp", "p_mm", "p_pp", "p_pm"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < -_NORM_TOL:
                raise ValueError(f"{name} must be a nonnegative probability, got {v!r}")

    @property
    def total(self) -> float:
        return self.p_mp + self.p_mm + self.p_pp + self.p_pm

    def postselected(self, postselect_sign: str) -> tuple[float, float]:
        """The (outcome-0, outcome-1) joint probability pair conditioned on
        nothing yet: meter ``+`` is outcome 0, meter ``-`` outcome 1."""
        if sign_factor(postselect_sign) < 0:
            return self.p_mp, self.p_mm
        return self.p_pp, self.p_pm

    def postselect_probability(self, postselect_sign: str) -> float:
        p0, p1 = self.postselected(postselect_sign)
        return p0 + p1

    def as_dict(self) -> dict[str, float]:
        return {
            "p_mp": self.p_mp,
            "p_mm": self.p_mm,
            "p_pp": self.p_pp,
            "p_pm": self.p_pm,
        }


def make_signal_state(theta: float) -> PureQubit:
    """Signal preparation ``cos(2*theta)|0> + sin(2*theta)|1>``."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return PureQubit(math.cos(2.0 * theta), math.sin(2.0 * theta))


def make_meter_state(mu: float) -> PureQubit:
    """Meter preparation ``cos(2*mu)|0> + sin(2*mu)|1>``."""
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    return PureQubit(math.cos(2.0 * mu), math.sin(2.0 * mu))


def kraus_operators(s: "Strength | float") -> KrausPair:
    """Measurement operator pair ``diag(a, b)`` and ``diag(b, a)`` with
    ``a = sqrt((1+kappa)/2)``, ``b = sqrt((1-kappa)/2)``."""
    kappa = as_strength(s).kappa
    a = math.sqrt((1.0 + kappa) / 2.0)
    b = math.sqrt((1.0 - kappa) / 2.0)
    return KrausPair(np.diag([a, b]), np.diag([b, a]))


def povm_elements(s: "Strength | float") -> QubitPovm:
    """Effects ``e_x = m_x^T m_x`` of the strength-kappa measurement."""
    pair = kraus_operators(s)
    return QubitPovm(pair.m0.conj().T @ pair.m0, pair.m1.conj().T @ pair.m1)


def joint_probability(psi: PureQubit, phi: PureQubit, s: "Strength | float", x: int) -> float:
    """Probability of measurement outcome ``x`` followed by successful
    postselection on ``phi``: ``|<phi| M_x |psi>|^2``."""
    if x not in (0, 1):
        raise ValueError(f"outcome index must be 0 or 1, got {x!r}")
    pair = kraus_operators(s)
    m = pair.m0 if x == 0 else pair.m1
    amp = phi.amplitudes().conj() @ (m @ psi.amplitudes())
    return float(abs(amp) ** 2)


def joint_probability_record(psi: PureQubit, s: "Strength | float") -> ProbabilityRecord:
    """All four (signal outcome, meter outcome) joint probabilities for the
    diagonal-basis signal readout, via the measurement-operator route."""
    strength = as_strength(s)
    return ProbabilityRecord(
        p_mp=joint_probability(psi, MINUS, strength, 0),
        p_mm=joint_probability(psi, MINUS, strength, 1),
        p_pp=joint_probability(psi, PLUS, strength, 0),
        p_pm=joint_probability(psi, PLUS, strength, 1),
        kappa=strength.kappa,
    )


def conditional_probabilities(p0: float, p1: float) -> tuple[float, float]:
    """Normalize a joint probability pair on the postselected subensemble.

    Returns ``(p0, p1) / (p0 + p1)`` with the pair summing to 1 exactly.
    Raises ZeroPostselection when the postselection probability is
    numerically zero.
    """
    if p0 < 0.0 or p1 < 0.0:
        raise ValueError("probabilities must be nonnegative")
    total = p0 + p1
    if total <= PROB_FLOOR:
        raise ZeroPostselection(f"postselection probability {total!r} is numerically zero")
    pc0 = p0 / total
    return pc0, 1.0 - pc0


def csign_matrix() -> np.ndarray:
    """The controlled-sign unitary diag(1, 1, 1, -1) on signal (x) meter."""
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def csign_apply(rho: TwoQubitDensity) -> TwoQubitDensity:
    """Conjugate a two-qubit density operator by the controlled-sign gate."""
    u = csign_matrix()
    return TwoQubitDensity(u @ rho.rho @ u.conj().T)


def _outcome_state(label: str) -> PureQubit:
    if label == "plus":
        return PLUS
    if label == "minus":
        return MINUS
    raise ValueError(f"outcome must be 'plus' or 'minus', got {label!r}")


def circuit_joint_probability(
    theta: float, mu: float, signal_outcome: str, meter_outcome: str
) -> float:
    """Joint outcome probability from the explicit two-qubit circuit.

    Builds the product state, applies the controlled-sign gate, and projects
    signal and meter on the requested diagonal-basis outcomes.  Agrees with
    :func:`joint_probability` at strength ``sin(4*mu)``: meter ``+`` plays the
    role of outcome 0 and the signal outcome labels the postselection.
    """
    rho = TwoQubitDensity.from_product(make_signal_state(theta), make_meter_state(mu))
    rho = csign_apply(rho)
    proj = np.kron(_outcome_state(signal_outcome).projector(), _outcome_state(meter_outcome).projector())
    p = float(np.trace(proj @ rho.rho).real)
    # clip the tiny negative rounding excursions of an exact-zero probability
    return max(p, 0.0)


def circuit_probability_record(theta: float, mu: float) -> ProbabilityRecord:
    """All four coincidence probabilities from the circuit route (one gate
    application, four projections)."""
    rho = csign_apply(TwoQubitDensity.from_product(make_signal_state(theta), make_meter_state(mu)))
    channels = {}
    for s_label, s_state in (("m", MINUS), ("p", PLUS)):
        for m_label, m_state in (("m", MINUS), ("p", PLUS)):
            proj = np.kron(s_state.projector(), m_state.projector())
            channels[s_label + m_label] = max(float(np.trace(proj @ rho.rho).real), 0.0)
    return ProbabilityRecord(
        p_mp=channels["mp"],
        p_mm=channels["mm"],
        p_pp=channels["pp"],
        p_pm=channels["pm"],
        kappa=math.sin(4.0 * mu),
    )


def ideal_probability_record(theta: float, s: "Strength | float") -> ProbabilityRecord:
    """Closed-form joint probabilities for the standard signal family: the
    scalar form of :func:`weakps.kernels.channel_probabilities`.

    Equivalent to :func:`joint_probability_record` at
    ``psi = make_signal_state(theta)``.
    """
    from .kernels import channel_probabilities  # kernels imports this module

    kappa = as_strength(s).kappa
    return ProbabilityRecord(*channel_probabilities(theta, kappa).tolist(), kappa=kappa)
