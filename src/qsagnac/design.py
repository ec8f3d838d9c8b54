"""Closed-form parameter design and one-dimensional entanglement sweeps.

The entangling phase is exactly linear in omega2 and in r2^2, so the
parameter values hitting any odd multiple of pi (where the branch state is
maximally entangled) come out in closed form. Sweeps map the concurrence
landscape around those solutions.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .constants import (
    ConstantSet,
    RegimeStatus,
    _Checked,
    _config_regime,
    _require_mass,
    require_valid_config,
)
from .state import (
    MAXIMAL_TOL,
    InterferometerConfig,
    concurrence_from_delta,
    entangling_phase_value,
)

# each --vary name and the position of its number in (m, r1, r2, omega1, omega2)
_VARY_POSITIONS = {"omega2": 4, "r2": 2, "mass": 0}
VARY_CHOICES = tuple(_VARY_POSITIONS)
MAX_SWEEP_ROWS = 10**6  # a sweep is held in memory whole, so --count is bounded


class SweepSpec(_Checked, namedtuple("SweepSpec", "varying start stop count base")):
    """`count` points of `varying` (one of VARY_CHOICES) from `start` to
    `stop`, every other parameter taken from the InterferometerConfig `base`."""

    __slots__ = ()
    # bound here, so the check holds where the module name is rebound to a
    # wrapper function (perfbench's tracer wraps the constructor)
    _base_type = InterferometerConfig

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.varying not in VARY_CHOICES:
            raise ValueError(f"varying must be one of {VARY_CHOICES}")
        if not isinstance(self.base, cls._base_type):
            raise ValueError("base must be an InterferometerConfig")
        try:
            operator.index(self.count)
        except TypeError:
            raise ValueError(f"count must be an integer, not {self.count!r}") from None
        if not 1 <= self.count <= MAX_SWEEP_ROWS:
            raise ValueError(f"count must be between 1 and {MAX_SWEEP_ROWS}")
        if self.start > self.stop:
            raise ValueError("start must not exceed stop")
        span = self.stop - self.start
        if not math.isfinite(span):
            raise ValueError(f"span stop - start = {span:g} is not finite")
        return self


# value   the swept parameter at this point
# regime  a RegimeStatus
SweepRow = namedtuple("SweepRow", "value delta concurrence entropy_bits regime")


def _require_solution(
    m: float, r1: float, r2: float, omega1: float, omega2: float, consts: ConstantSet
) -> None:
    # A solver answer must form a valid configuration. One past double
    # resolution (omega1 - omega2 or r1^2 - r2^2 lost to rounding) misses
    # (2k+1) pi; refuse it rather than return it.
    require_valid_config(m, r1, r2, omega1, omega2, consts)
    c = concurrence_from_delta(entangling_phase_value(m, r1, r2, omega1, omega2, consts))
    if not 1.0 - c <= MAXIMAL_TOL:  # also refuses a nan delta
        raise ValueError(
            f"solution not resolvable in double precision: concurrence {c:.9g}"
        )


def _odd(k: int) -> float:
    """2k + 1 as a double, for the odd multiple of pi that k picks."""
    try:
        return float(2 * k + 1)
    except OverflowError:
        raise ValueError("k is too large for a double") from None


def solve_omega2(
    m: float, r1: float, r2: float, omega1: float, k: int, consts: ConstantSet
) -> float:
    """Second frequency giving entangling phase (2k+1) pi, hence concurrence 1.

        omega2 = omega1 - (2k+1) pi hbar / (2 m (A1 - A2))
    """
    _require_mass(m)
    area_gap = math.pi * ((r1 - r2) * (r1 + r2))  # A1 - A2
    denominator = 2.0 * m * area_gap  # zero for r2 = +-r1 or on underflow
    if denominator == 0:
        raise ValueError("no solution: 2 m (A1 - A2) is zero")
    omega2 = omega1 - _odd(k) * math.pi * consts.hbar / denominator
    _require_solution(m, r1, r2, omega1, omega2, consts)
    return omega2


def solve_r2(
    m: float, r1: float, omega1: float, omega2: float, k: int, consts: ConstantSet
) -> float:
    """Second radius giving entangling phase (2k+1) pi.

        r2 = sqrt(r1^2 - (2k+1) hbar / (2 m (omega1 - omega2)))
    """
    _require_mass(m)
    denominator = 2.0 * m * (omega1 - omega2)  # zero if omega2 = omega1 or on underflow
    if denominator == 0:
        raise ValueError("no solution: 2 m (omega1 - omega2) is zero")
    radicand = r1 * r1 - _odd(k) * consts.hbar / denominator
    if radicand < 0:
        raise ValueError("no real radius for this k")
    r2 = math.sqrt(radicand)
    _require_solution(m, r1, r2, omega1, omega2, consts)
    return r2


def _grid(start: float, stop: float, count: int) -> list[float]:
    """np.linspace(start, stop, count) bit for bit, for a finite span."""
    start, stop = float(start), float(stop)
    span = stop - start
    if count == 1:
        return [0.0 * span + start]  # not [start]: numpy turns a -0.0 start into 0.0
    div = count - 1
    step = span / div
    if step == 0:  # a zero or subnormal span: divide first, as numpy does
        values = [(i / div) * span + start for i in range(div)]
    else:
        values = [i * step + start for i in range(div)]
    values.append(stop)
    return values


def _sweep_values(spec: SweepSpec):
    """Yield (value, delta, concurrence, entropy_bits, regime) per grid point.

    Each row's regime is the config gate's, ERROR where the gate refuses
    the row, and delta, concurrence and entropy repeat the operations of
    entangling_phase_value, concurrence_from_delta and
    entropy_from_concurrence one for one, so every bit matches them (a
    property test pins the two together). Calling the three per row costs
    4-6% of perfbench's sweep_csv throughput.
    """
    numbers = list(spec.base[:5])  # m, r1, r2, omega1, omega2
    position = _VARY_POSITIONS[spec.varying]
    consts = spec.base.constants
    c, hbar, pi = consts.c, consts.hbar, math.pi
    sin, sqrt, log2, isfinite = math.sin, math.sqrt, math.log2, math.isfinite
    error = RegimeStatus.ERROR
    for value in _grid(spec.start, spec.stop, spec.count):
        numbers[position] = value
        m, r1, r2, omega1, omega2 = numbers
        try:
            regime = _config_regime(m, r1, r2, omega1, omega2, c)[1]
        except ValueError:
            regime = error
        delta = 2.0 * m * (omega1 - omega2) * pi * ((r1 - r2) * (r1 + r2)) / hbar
        if not isfinite(delta):  # no row can carry it, so the sweep is refused
            raise ValueError(
                f"delta = {delta} is not finite at {spec.varying} = {value:g}"
            )
        conc = abs(sin(0.5 * delta))
        gap = sqrt(max(0.0, 1.0 - conc * conc))
        hi, lo = 0.5 * (1.0 + gap), 0.5 * (1.0 - gap)
        entropy = 0.0 - hi * log2(hi)  # hi >= 0.5; 0.0 - x turns -0.0 into 0.0
        if lo > 0.0:
            entropy -= lo * log2(lo)
        yield value, delta, conc, entropy, regime


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate `count` evenly spaced points, endpoints included, ascending.

    Points that no longer form a valid configuration are kept, marked ERROR.
    """
    return [SweepRow._make(row) for row in _sweep_values(spec)]
