"""Circular-orbit hydrogen estimate of the two-frequency interferometer.

An electron on Bohr orbit n circles at radius n^2 a0 with angular
frequency alpha c / (n^3 a0), so superposing two principal quantum
numbers realizes a two-radius, two-frequency configuration with m = m_e.
Bohr quantization m_e omega r^2 = n hbar makes the single-factor phase
m_e omega A / hbar equal pi n exactly, order one already at n = 1.
"""

import math
from collections import namedtuple

from .constants import ConstantSet, UnitSystem, _require_integer, constants_for
from .phase import loop_phase
from .state import EntanglementReport, report_from_parameters


# n      principal quantum number
# r      n^2 a0
# omega  alpha c / (n^3 a0)
# area   pi r^2
BohrOrbit = namedtuple("BohrOrbit", "n r omega area")

# estimate    m_e omega A / hbar; equals pi n on a Bohr orbit
# loop_phase  (2 m_e / hbar) omega A from the loop-phase law; 2x estimate
HydrogenPhases = namedtuple("HydrogenPhases", "estimate loop_phase")

# bound once: bohr_orbit compares against it on every orbit
_SI = constants_for(UnitSystem.SI)


def bohr_orbit(n: int, consts: ConstantSet) -> BohrOrbit:
    """Circular Bohr orbit for integer principal quantum number n >= 1."""
    # Atomic-scale claims only make sense against the real constants.
    if consts != _SI:  # by value, so an equal ConstantSet passes
        raise ValueError("hydrogen estimates require the SI constant set")
    n = _require_integer(n, "quantum number")
    if n < 1:
        raise ValueError("principal quantum number must be at least 1")
    try:
        r = (n * n) * consts.a0
        omega = consts.alpha * consts.c / ((n**3) * consts.a0)
    except OverflowError:
        raise ValueError("quantum number is too large for a double") from None
    return tuple.__new__(BohrOrbit, (n, r, omega, math.pi * r * r))


def hydrogen_phase(n: int, consts: ConstantSet) -> HydrogenPhases:
    """Loop-phase figures for orbit n, both the m omega A / hbar estimate
    and the full loop-phase-law value, which is exactly twice as large."""
    orbit = bohr_orbit(n, consts)
    phi = loop_phase(consts.m_e, orbit.omega, orbit.r, consts)
    return tuple.__new__(HydrogenPhases, (0.5 * phi, phi))


def hydrogen_pair_report(n1: int, n2: int, consts: ConstantSet) -> EntanglementReport:
    """Entanglement report for an electron superposed across orbits n1, n2.

    Each physical orbit has rim speed alpha/n, deep inside the Ok band, so
    the report is built without the configuration-level cross-pair regime
    gate (which would pair the fastest frequency with the largest radius).
    """
    orbit1 = bohr_orbit(n1, consts)
    orbit2 = bohr_orbit(n2, consts)
    if orbit1.n == orbit2.n:
        raise ValueError("quantum numbers must differ")
    return report_from_parameters(
        consts.m_e, orbit1.r, orbit2.r, orbit1.omega, orbit2.omega, consts
    )
