"""Superposed radial/angular branch states and their entanglement.

The interfering particle is superposed across two radii while the disk is
spun in a superposition of two frequencies. After every branch completes
one circle, the four amplitudes are

    M[j, k] = (1/2) exp(i phi_jk),    phi_jk = (2 m / hbar) omega_k pi r_j^2,

so the radial and angular degrees of freedom form a two-qubit pure state.
Everything about its entanglement is set by the single combination

    delta = phi_11 + phi_22 - phi_12 - phi_21
          = (2 m / hbar) (omega_1 - omega_2) (A_1 - A_2),

with concurrence |sin(delta/2)|: zero for the initial product form
(|r1> + |r2>)(|omega1> + |omega2>) and one for the maximally entangled
target |r1>(|omega1> + |omega2>) + |r2>(|omega1> - |omega2>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    ConstantSet,
    UnitSystem,
    constants_for,
    require_linear_regime,
)
from .phase import loop_phase

NORM_TOL = 1e-12
MAXIMAL_TOL = 1e-9  # tolerance on |concurrence - 1|


def _require_resolved_phase(x: float) -> None:
    # A double phase whose ulp exceeds MAXIMAL_TOL no longer fixes its value
    # mod 2 pi, so nothing derived from it can be trusted; |x| >= 2^23 rad.
    # Also refuses inf and nan, for which ulp is inf and nan.
    if not math.ulp(x) <= MAXIMAL_TOL:
        raise ValueError(f"phase {x:.6g} rad is past double resolution")


def require_valid_config(
    m: float, r1: float, r2: float, omega1: float, omega2: float, consts: ConstantSet
) -> None:
    """Raise ValueError unless the parameters form a valid configuration:
    positive mass, non-negative radii, every branch rim below light speed."""
    if not m > 0:
        raise ValueError("mass must be positive")
    if not (r1 >= 0 and r2 >= 0):
        raise ValueError("radii must be non-negative")
    require_linear_regime(max(abs(omega1), abs(omega2)), max(r1, r2), consts)


@dataclass(frozen=True)
class InterferometerConfig:
    """Full experiment description: mass, two radii, two spin frequencies."""

    m: float
    r1: float
    r2: float
    omega1: float
    omega2: float
    units: UnitSystem = UnitSystem.SI

    def __post_init__(self):
        require_valid_config(
            self.m, self.r1, self.r2, self.omega1, self.omega2, self.constants
        )

    @property
    def constants(self) -> ConstantSet:
        return constants_for(self.units)


@dataclass(frozen=True)
class PureState2x2:
    """Normalized amplitudes over the {r1, r2} x {omega1, omega2} basis."""

    amplitudes: np.ndarray
    row_labels: tuple[str, str] = ("r1", "r2")
    col_labels: tuple[str, str] = ("omega1", "omega2")

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2, 2):
            raise ValueError("amplitude matrix must be 2x2")
        object.__setattr__(self, "amplitudes", amps)
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |M|^2 = {norm!r}")


@dataclass(frozen=True)
class EntanglementReport:
    delta: float                  # entangling phase [rad]
    concurrence: float            # in [0, 1]
    schmidt: tuple[float, float]  # descending; squares sum to 1
    entropy_bits: float           # in [0, 1]
    maximal: bool


def assemble_two_radius_state(
    m: float, omega: float, r1: float, r2: float, consts: ConstantSet
) -> np.ndarray:
    """Single-frequency state (1/sqrt2)(e^{i phi(r1)}, e^{i phi(r2)})."""
    if m <= 0:
        raise ValueError("mass must be positive")
    if r1 < 0 or r2 < 0:
        raise ValueError("radii must be non-negative")
    require_linear_regime(omega, max(r1, r2), consts)
    phases = np.array(
        [loop_phase(m, omega, r1, consts), loop_phase(m, omega, r2, consts)]
    )
    return np.exp(1j * phases) / math.sqrt(2.0)


def assemble_full_state(cfg: InterferometerConfig) -> PureState2x2:
    """Four-branch state after each (radius, frequency) branch loops once.

    Raises ValueError when a branch phase is past double resolution.
    """
    if cfg.omega1 == 0 or cfg.omega2 == 0:
        raise ValueError("each frequency branch must complete a loop: omega != 0")
    consts = cfg.constants
    phases = np.array(
        [
            [loop_phase(cfg.m, o, r, consts) for o in (cfg.omega1, cfg.omega2)]
            for r in (cfg.r1, cfg.r2)
        ]
    )
    _require_resolved_phase(float(np.abs(phases).max()))
    return PureState2x2(amplitudes=0.5 * np.exp(1j * phases))


def entangling_phase_value(
    m: float, r1: float, r2: float, omega1: float, omega2: float, consts: ConstantSet
) -> float:
    """(2 m / hbar) (omega1 - omega2) (A1 - A2), without config validation.

    Both gaps are taken as differences of the inputs, with r1^2 - r2^2
    factored as (r1 - r2)(r1 + r2), so nearly equal radii or frequencies do
    not cancel.
    """
    return (
        2.0 * m * (omega1 - omega2) * math.pi * ((r1 - r2) * (r1 + r2)) / consts.hbar
    )


def entangling_phase(cfg: InterferometerConfig) -> float:
    """Entangling phase of the assembled state; shift-invariant in frequency."""
    return entangling_phase_value(
        cfg.m, cfg.r1, cfg.r2, cfg.omega1, cfg.omega2, cfg.constants
    )


def concurrence(state: PureState2x2) -> float:
    """Pure-state concurrence 2 |det M|, 0 for product states and 1 at maximum."""
    m = state.amplitudes
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return min(1.0, float(2.0 * abs(det)))


def concurrence_from_delta(delta: float) -> float:
    """Concurrence produced by an entangling phase: |sin(delta/2)|."""
    return abs(math.sin(0.5 * delta))


def schmidt_decompose(state: PureState2x2) -> tuple[float, float]:
    """Schmidt coefficients (singular values of M), descending."""
    s = np.linalg.svd(state.amplitudes, compute_uv=False)
    return (float(s[0]), float(s[1]))


def _entropy_bits(lam1: float, lam2: float) -> float:
    s = 0.0
    for lam in (lam1, lam2):
        if lam > 0.0:
            s -= lam * math.log2(lam)
    return s


def entanglement_entropy(state: PureState2x2) -> float:
    """Reduced-state von Neumann entropy in bits, -sum lam log2 lam."""
    s1, s2 = schmidt_decompose(state)
    return _entropy_bits(s1 * s1, s2 * s2)


def entropy_from_concurrence(c: float) -> float:
    """Entropy in bits of a pure two-qubit state with concurrence c."""
    gap = math.sqrt(max(0.0, 1.0 - c * c))
    return _entropy_bits(0.5 * (1.0 + gap), 0.5 * (1.0 - gap))


def report_from_parameters(
    m: float,
    r1: float,
    r2: float,
    omega1: float,
    omega2: float,
    consts: ConstantSet,
) -> EntanglementReport:
    """Entanglement of the four-branch state, in closed form from delta.

    The state is a pure two-qubit state fixed, up to local phases, by delta:
    concurrence |sin(delta/2)|, Schmidt coefficients |cos(delta/4)| and
    |sin(delta/4)| (Wootters, PRL 80, 2245, 1998). No branch phase is
    evaluated, so branch phases far beyond 2 pi lose no accuracy; delta
    itself past double resolution raises ValueError.

    Skips the configuration-level regime gate; callers that need it should
    construct an InterferometerConfig and use entanglement_report.
    """
    delta = entangling_phase_value(m, r1, r2, omega1, omega2, consts)
    _require_resolved_phase(delta)
    c = concurrence_from_delta(delta)
    quarter = 0.25 * delta
    s1, s2 = sorted((abs(math.cos(quarter)), abs(math.sin(quarter))), reverse=True)
    return EntanglementReport(
        delta=delta,
        concurrence=c,
        schmidt=(s1, s2),
        entropy_bits=entropy_from_concurrence(c),
        maximal=abs(c - 1.0) <= MAXIMAL_TOL,
    )


def entanglement_report(cfg: InterferometerConfig) -> EntanglementReport:
    """Full entanglement report for a validated configuration."""
    if cfg.omega1 == 0 or cfg.omega2 == 0:
        raise ValueError("each frequency branch must complete a loop: omega != 0")
    return report_from_parameters(
        cfg.m, cfg.r1, cfg.r2, cfg.omega1, cfg.omega2, cfg.constants
    )
