"""Linear-regime loop phases for matter waves on a rotating disk.

A mass m interfering around a full circle of radius r on a disk spinning
at omega acquires the phase

    phi = (m c^2 / hbar) * (omega^2 r^2 / c^2) * (2 pi / omega)
        = (2 m / hbar) * omega * A,        A = pi r^2,

i.e. the energy -1/2 T00 h00 (T00 = m c^2) accumulated over one loop
time 2 pi / |omega|.
"""

from __future__ import annotations

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
    return PhaseResult(
        phi=loop_phase(m, omega, r, consts),
        t_loop=None if omega == 0 else loop_time(omega),
        area=math.pi * r * r,
        h00=check.beta * check.beta,
        regime=check,
    )


def two_radius_relative_phase(
    m: float, omega: float, r1: float, r2: float, consts: ConstantSet
) -> float:
    """Detectable phase between branches at two radii, (2 m / hbar) omega (A2 - A1)."""
    require_valid_config(m, r1, r2, omega, omega, consts)
    return 2.0 * m * omega * math.pi * (r2 * r2 - r1 * r1) / consts.hbar
