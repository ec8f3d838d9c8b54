"""Linear-regime loop phases for matter waves on a rotating disk.

A mass m interfering around a full circle of radius r on a disk spinning
at omega acquires the phase

    phi = (m c^2 / hbar) * (omega^2 r^2 / c^2) * (2 pi / omega)
        = (2 m / hbar) * omega * A,        A = pi r^2,

which satisfies phi = -2 E t_loop / hbar * sign(omega) with the
interaction energy E = hamiltonian_energy(m, h00) = -1/2 m c^2 h00 and the
loop time t_loop = 2 pi / |omega|. Every phase in the package is this law:
loop_phase at one radius and entangling_phase_value for the double
difference between two radii and two frequencies.
"""

import math
from collections import namedtuple

from .constants import ConstantSet, require_valid_config

# phi     loop phase [rad], same sign as omega
# t_loop  2 pi / |omega|; None when omega == 0
# area    pi r^2
# regime  a RegimeCheck
PhaseResult = namedtuple("PhaseResult", "phi t_loop area h00 regime")


def loop_time(omega: float) -> float:
    """Duration of one complete circle, 2 pi / |omega|."""
    if omega == 0:
        raise ValueError("no complete loop: omega is zero")
    return math.tau / abs(omega)


def hamiltonian_energy(m: float, h00: float, consts: ConstantSet) -> float:
    """Linear-regime interaction energy -1/2 * (m c^2) * h00."""
    return -0.5 * m * consts.c * consts.c * h00


def loop_phase(m: float, omega: float, r: float, consts: ConstantSet) -> float:
    """Closed-form loop phase (2 m / hbar) * omega * pi r^2, unvalidated."""
    return 2.0 * m * omega * (math.pi * r * r) / consts.hbar


def sagnac_phase(m: float, omega: float, r: float, consts: ConstantSet) -> PhaseResult:
    """Loop phase plus its ingredients at a single radius.

    omega = 0 yields phi = 0 through the closed form, with the (divergent)
    loop time flagged as None.
    """
    check = require_valid_config(m, r, r, omega, omega, consts)
    beta = check.beta
    return tuple.__new__(
        PhaseResult,
        (
            loop_phase(m, omega, r, consts),
            None if omega == 0 else loop_time(omega),
            math.pi * r * r,
            beta * beta,
            check,
        ),
    )


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


def two_radius_relative_phase(
    m: float, omega: float, r1: float, r2: float, consts: ConstantSet
) -> float:
    """Detectable phase between branches at two radii, (2 m / hbar) omega (A2 - A1)."""
    require_valid_config(m, r1, r2, omega, omega, consts)
    return entangling_phase_value(m, r2, r1, omega, 0.0, consts)
