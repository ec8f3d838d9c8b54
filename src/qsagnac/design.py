"""Closed-form parameter design and one-dimensional entanglement sweeps.

The entangling phase is exactly linear in omega2 and in r2^2, so the
parameter values hitting any odd multiple of pi (where the branch state is
maximally entangled) come out in closed form. Sweeps map the concurrence
landscape around those solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ConstantSet, RegimeStatus, regime_check, require_linear_regime
from .state import (
    MAXIMAL_TOL,
    InterferometerConfig,
    concurrence_from_delta,
    entangling_phase_value,
    entropy_from_concurrence,
)

VARY_CHOICES = ("omega2", "r2", "mass")


@dataclass(frozen=True)
class SweepSpec:
    varying: str  # one of VARY_CHOICES
    start: float
    stop: float
    count: int
    base: InterferometerConfig

    def __post_init__(self):
        if self.varying not in VARY_CHOICES:
            raise ValueError(f"varying must be one of {VARY_CHOICES}")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.start > self.stop:
            raise ValueError("start must not exceed stop")


@dataclass(frozen=True)
class SweepRow:
    value: float
    delta: float
    concurrence: float
    entropy_bits: float
    regime: RegimeStatus


def _require_maximal(delta: float) -> None:
    # A solution past double resolution (omega1 - omega2 or r1^2 - r2^2 lost
    # to rounding) misses (2k+1) pi; refuse it rather than return it.
    c = concurrence_from_delta(delta)
    if 1.0 - c > MAXIMAL_TOL:
        raise ValueError(
            f"solution not resolvable in double precision: concurrence {c:.9g}"
        )


def solve_omega2(
    m: float, r1: float, r2: float, omega1: float, k: int, consts: ConstantSet
) -> float:
    """Second frequency giving entangling phase (2k+1) pi, hence concurrence 1.

        omega2 = omega1 - (2k+1) pi hbar / (2 m (A1 - A2))
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    if r1 == r2:
        raise ValueError("no solution: degenerate radii")
    area_gap = math.pi * ((r1 - r2) * (r1 + r2))  # A1 - A2
    omega2 = omega1 - (2 * k + 1) * math.pi * consts.hbar / (2.0 * m * area_gap)
    require_linear_regime(omega2, max(r1, r2), consts)
    _require_maximal(entangling_phase_value(m, r1, r2, omega1, omega2, consts))
    return omega2


def solve_r2(
    m: float, r1: float, omega1: float, omega2: float, k: int, consts: ConstantSet
) -> float:
    """Second radius giving entangling phase (2k+1) pi.

        r2 = sqrt(r1^2 - (2k+1) hbar / (2 m (omega1 - omega2)))
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    if omega1 == omega2:
        raise ValueError("no solution: degenerate frequencies")
    radicand = r1 * r1 - (2 * k + 1) * consts.hbar / (2.0 * m * (omega1 - omega2))
    if radicand < 0:
        raise ValueError("no real radius for this k")
    r2 = math.sqrt(radicand)
    _require_maximal(entangling_phase_value(m, r1, r2, omega1, omega2, consts))
    return r2


def _row(spec: SweepSpec, value: float) -> SweepRow:
    base = spec.base
    m, r1, r2 = base.m, base.r1, base.r2
    omega1, omega2 = base.omega1, base.omega2
    if spec.varying == "omega2":
        omega2 = value
    elif spec.varying == "r2":
        r2 = value
    else:
        m = value
    consts = base.constants
    # Points that no longer form a valid configuration are kept in the
    # output but marked ERROR rather than dropped.
    if m > 0 and r1 >= 0 and r2 >= 0:
        status = regime_check(
            max(abs(omega1), abs(omega2)), max(r1, r2), consts
        ).status
    else:
        status = RegimeStatus.ERROR
    delta = entangling_phase_value(m, r1, r2, omega1, omega2, consts)
    conc = concurrence_from_delta(delta)
    return SweepRow(
        value=value,
        delta=delta,
        concurrence=conc,
        entropy_bits=entropy_from_concurrence(conc),
        regime=status,
    )


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate `count` evenly spaced points, endpoints included, ascending."""
    values = np.linspace(spec.start, spec.stop, spec.count)
    return [_row(spec, float(v)) for v in values]
