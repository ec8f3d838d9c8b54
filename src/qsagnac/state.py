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

import cmath
import math
from collections import namedtuple

from .constants import (
    ConstantSet,
    UnitSystem,
    _Checked,
    constants_for,
    require_valid_config,
)
from .phase import entangling_phase_value, loop_phase

NORM_TOL = 1e-12
MAXIMAL_TOL = 1e-9  # tolerance on |concurrence - 1|


def _require_resolved_phase(x: float) -> None:
    # A phase computed in n roundings is off by up to about n 2^-53 |x|
    # (Higham, Accuracy and Stability of Numerical Algorithms, 3.1). Allowing
    # n = 8, past |x| 2^-50 > MAXIMAL_TOL (1.13e6 rad) it no longer fixes its
    # value mod 2 pi. Also refuses inf and nan.
    if not abs(x) * 2.0**-50 <= MAXIMAL_TOL:
        raise ValueError(f"phase {x:.6g} rad is past double resolution")


class InterferometerConfig(
    _Checked,
    namedtuple(
        "InterferometerConfig",
        "m r1 r2 omega1 omega2 units",
        defaults=(UnitSystem.SI,),
    ),
):
    """Full experiment description: mass, two radii, two spin frequencies."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_valid_config(*self[:5], self.constants)  # the five numbers
        return self

    @property
    def constants(self) -> ConstantSet:
        return constants_for(self.units)


class PureState2x2(_Checked, namedtuple("PureState2x2", "amplitudes")):
    """Normalized amplitudes over the {r1, r2} x {omega1, omega2} basis.

    Any 2x2 nesting of numbers, an array included, is stored as two rows of
    two Python complex numbers.
    """

    __slots__ = ()
    row_labels = ("r1", "r2")
    col_labels = ("omega1", "omega2")

    def __new__(cls, amplitudes):
        try:
            amps = tuple(tuple(complex(a) for a in row) for row in amplitudes)
        except TypeError:  # a row or an entry that is not a number
            raise ValueError("amplitude matrix must be 2x2") from None
        if len(amps) != 2 or any(len(row) != 2 for row in amps):
            raise ValueError("amplitude matrix must be 2x2")
        norm = sum(abs(a) ** 2 for row in amps for a in row)
        if not abs(norm - 1.0) <= NORM_TOL:  # also refuses a nan norm
            raise ValueError(f"state is not normalized: sum |M|^2 = {norm!r}")
        return super().__new__(cls, amps)


# delta         entangling phase [rad]
# concurrence   in [0, 1]
# schmidt       two floats, descending; squares sum to 1
# entropy_bits  in [0, 1]
EntanglementReport = namedtuple(
    "EntanglementReport", "delta concurrence schmidt entropy_bits maximal"
)


def assemble_full_state(cfg: InterferometerConfig) -> PureState2x2:
    """Four-branch state after each (radius, frequency) branch loops once.

    Raises ValueError when a branch phase is past double resolution.
    """
    if cfg.omega1 == 0 or cfg.omega2 == 0:
        raise ValueError("each frequency branch must complete a loop: omega != 0")
    consts = cfg.constants
    phases = [
        [loop_phase(cfg.m, o, r, consts) for o in (cfg.omega1, cfg.omega2)]
        for r in (cfg.r1, cfg.r2)
    ]
    _require_resolved_phase(max(abs(p) for row in phases for p in row))
    return PureState2x2(
        amplitudes=tuple(tuple(0.5 * cmath.exp(1j * p) for p in row) for row in phases)
    )


def concurrence_from_delta(delta: float) -> float:
    """Concurrence produced by an entangling phase: |sin(delta/2)|."""
    return abs(math.sin(0.5 * delta))


def entropy_from_concurrence(c: float) -> float:
    """Entropy in bits of a pure two-qubit state with concurrence c."""
    gap = math.sqrt(max(0.0, 1.0 - c * c))
    s = 0.0
    for lam in (0.5 * (1.0 + gap), 0.5 * (1.0 - gap)):
        if lam > 0.0:
            s -= lam * math.log2(lam)
    return s


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
