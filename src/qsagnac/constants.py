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
from collections import namedtuple
from enum import Enum


class UnitSystem(Enum):
    SI = "si"
    NATURAL = "natural"


class _Checked:
    """Named-tuple base whose _make, and so _replace, runs __new__'s checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ConstantSet(_Checked, namedtuple("ConstantSet", "hbar c m_e a0 alpha")):
    """One constant table:

        hbar   reduced Planck constant [J s]
        c      speed of light [m/s]
        m_e    electron mass [kg]
        a0     Bohr radius [m]
        alpha  fine-structure constant (dimensionless)
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(0.0 < x < math.inf for x in self):  # also refuses nan
            raise ValueError("physical constants must be finite and strictly positive")
        if self.alpha >= 1.0:
            raise ValueError("fine-structure constant must be below 1")
        return self


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
    """Fixed constant table for a unit system; ValueError for anything else."""
    if units is UnitSystem.SI:
        return _SI
    if units is UnitSystem.NATURAL:
        return _NATURAL
    raise ValueError(f"unknown unit system: {units!r}")


class RegimeStatus(Enum):
    OK = "ok"
    WARN = "warn"
    ERROR = "error"


# beta    rim speed as a fraction of c: |omega| r / c
# status  a RegimeStatus
RegimeCheck = namedtuple("RegimeCheck", "beta status")


# h00 = beta^2, so beta = 0.1 keeps the perturbation at or below 1%;
# beta >= 1 is a superluminal rim and is rejected outright.
WARN_BETA = 0.1
ERROR_BETA = 1.0

# bound once: reading a member off an Enum class goes through EnumType's
# __getattr__ hook, about ten times the cost of reading a global
_OK, _WARN, _ERROR = RegimeStatus.OK, RegimeStatus.WARN, RegimeStatus.ERROR


def _rim(omega: float, r: float, c: float) -> tuple[float, RegimeStatus]:
    # (beta, status) of a rim of radius r spun at omega: the one place the
    # rim speed is computed and compared with WARN_BETA and ERROR_BETA
    if not r >= 0:  # also refuses a nan radius
        raise ValueError("radius must be non-negative")
    beta = abs(omega) * r / c
    if not beta < ERROR_BETA:
        return beta, _ERROR
    if beta > WARN_BETA:
        return beta, _WARN
    return beta, _OK


def regime_check(omega: float, r: float, consts: ConstantSet) -> RegimeCheck:
    """Classify how far (omega, r) sits from the flat-background regime.

    beta <= 0.1 is Ok, 0.1 < beta < 1 is Warn (computation proceeds),
    beta >= 1 is Error, and so is a nan beta.
    """
    return RegimeCheck._make(_rim(omega, r, consts.c))


def _linear_rim(omega: float, r: float, c: float) -> tuple[float, RegimeStatus]:
    beta, status = _rim(omega, r, c)
    if status is _ERROR:
        raise ValueError(f"rim speed beta = {beta:g} is outside the linear regime")
    if math.isinf(r * r):
        raise ValueError(f"radius {r:g} is too large: r^2 overflows a double")
    return beta, status


def require_linear_regime(omega: float, r: float, consts: ConstantSet) -> RegimeCheck:
    """regime_check that raises ValueError when the status is Error or when
    r^2, which every area and metric component carries, overflows a double."""
    return RegimeCheck._make(_linear_rim(omega, r, consts.c))


def _require_mass(m: float) -> None:
    if not 0 < m < math.inf:  # also refuses a nan mass
        raise ValueError("mass must be positive and finite")


def _config_regime(
    m: float, r1: float, r2: float, omega1: float, omega2: float, c: float
) -> tuple[float, RegimeStatus]:
    """require_valid_config on plain numbers and the speed of light c:
    (beta, status) of the fastest rim. The sweep kernel calls it per row;
    calling require_valid_config there costs about 5% of perfbench's
    sweep_csv throughput."""
    _require_mass(m)
    if not (r1 >= 0 and r2 >= 0):
        raise ValueError("radii must be non-negative")
    # max() below would drop a nan omega2, so test both frequencies here
    if math.isnan(omega1) or math.isnan(omega2):
        raise ValueError("frequencies must be numbers")
    return _linear_rim(max(abs(omega1), abs(omega2)), max(r1, r2), c)


def require_valid_config(
    m: float, r1: float, r2: float, omega1: float, omega2: float, consts: ConstantSet
) -> RegimeCheck:
    """Raise ValueError unless the parameters form a valid configuration:
    positive finite mass, non-negative radii, every branch rim below light speed.

    Returns the regime of the fastest rim. A nan anywhere is refused.
    """
    return RegimeCheck._make(_config_regime(m, r1, r2, omega1, omega2, consts.c))
