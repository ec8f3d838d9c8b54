"""Unit systems, pinned constants, the linear-regime guard and the config gate.

Constants are hard-coded CODATA 2018 values so every run reproduces
bit-identical numbers; nothing is read from the environment.

    hbar   1.0545718176461565e-34 J s   (h / 2pi with h = 6.62607015e-34 exact)
    c      2.99792458e8 m/s             (exact)
    m_e    9.1093837015e-31 kg
    a0     5.29177210903e-11 m
    alpha  7.2973525693e-3

Natural units set hbar = c = 1 and keep alpha at its measured value; the
electron scales are m_e = 1 and a0 = 1/alpha, which preserves the exact
relation a0 = hbar / (m_e c alpha) in both systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class UnitSystem(Enum):
    SI = "si"
    NATURAL = "natural"


@dataclass(frozen=True)
class ConstantSet:
    hbar: float   # reduced Planck constant [J s]
    c: float      # speed of light [m/s]
    m_e: float    # electron mass [kg]
    a0: float     # Bohr radius [m]
    alpha: float  # fine-structure constant (dimensionless)

    def __post_init__(self):
        if min(self.hbar, self.c, self.m_e, self.a0, self.alpha) <= 0.0:
            raise ValueError("physical constants must be strictly positive")
        if self.alpha >= 1.0:
            raise ValueError("fine-structure constant must be below 1")


_ALPHA = 7.2973525693e-3

_SI = ConstantSet(
    hbar=6.62607015e-34 / (2.0 * math.pi),  # = 1.0545718176461565e-34
    c=2.99792458e8,
    m_e=9.1093837015e-31,
    a0=5.29177210903e-11,
    alpha=_ALPHA,
)

_NATURAL = ConstantSet(hbar=1.0, c=1.0, m_e=1.0, a0=1.0 / _ALPHA, alpha=_ALPHA)


def constants_for(units: UnitSystem) -> ConstantSet:
    """Fixed constant table for a unit system; pure and deterministic."""
    return _SI if units is UnitSystem.SI else _NATURAL


class RegimeStatus(Enum):
    OK = "ok"
    WARN = "warn"
    ERROR = "error"


@dataclass(frozen=True)
class RegimeCheck:
    beta: float          # rim speed as a fraction of c: |omega| r / c
    status: RegimeStatus


# h00 = beta^2, so beta = 0.1 keeps the perturbation at or below 1%;
# beta >= 1 is a superluminal rim and is rejected outright.
WARN_BETA = 0.1
ERROR_BETA = 1.0


def regime_check(omega: float, r: float, consts: ConstantSet) -> RegimeCheck:
    """Classify how far (omega, r) sits from the flat-background regime.

    beta <= 0.1 is Ok, 0.1 < beta < 1 is Warn (computation proceeds),
    beta >= 1 is Error, and so is a nan beta.
    """
    if not r >= 0:  # also refuses a nan radius
        raise ValueError("radius must be non-negative")
    beta = abs(omega) * r / consts.c
    if not beta < ERROR_BETA:
        status = RegimeStatus.ERROR
    elif beta > WARN_BETA:
        status = RegimeStatus.WARN
    else:
        status = RegimeStatus.OK
    return RegimeCheck(beta=beta, status=status)


def require_linear_regime(omega: float, r: float, consts: ConstantSet) -> RegimeCheck:
    """regime_check that raises ValueError when the status is Error."""
    check = regime_check(omega, r, consts)
    if check.status is RegimeStatus.ERROR:
        raise ValueError(
            f"rim speed beta = {check.beta:g} is outside the linear regime"
        )
    return check


def require_valid_config(
    m: float, r1: float, r2: float, omega1: float, omega2: float, consts: ConstantSet
) -> RegimeCheck:
    """Raise ValueError unless the parameters form a valid configuration:
    positive mass, non-negative radii, every branch rim below light speed.

    Returns the regime of the fastest rim. A nan anywhere is refused.
    """
    if not m > 0:
        raise ValueError("mass must be positive")
    if not (r1 >= 0 and r2 >= 0):
        raise ValueError("radii must be non-negative")
    # max() below would drop a nan omega2, so test both frequencies here
    if math.isnan(omega1) or math.isnan(omega2):
        raise ValueError("frequencies must be numbers")
    return require_linear_regime(max(abs(omega1), abs(omega2)), max(r1, r2), consts)
