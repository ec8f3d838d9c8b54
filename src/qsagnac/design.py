"""Closed-form parameter design and one-dimensional entanglement sweeps.

The entangling phase is exactly linear in omega2 and in r2^2, so the
parameter values hitting any odd multiple of pi (where the branch state is
maximally entangled) come out in closed form. Sweeps map the concurrence
landscape around those solutions.
"""

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import chain, repeat

from .constants import (
    ConstantSet,
    RegimeStatus,
    _Checked,
    _require_integer,
    _require_mass,
    require_valid_config,
)
from .phase import entangling_phase_value
from .state import MAXIMAL_TOL, InterferometerConfig, _entropies, concurrence_from_delta

# each --vary name and the position of its number in (m, r1, r2, omega1, omega2)
_VARY_POSITIONS = {"omega2": 4, "r2": 2, "mass": 0}
VARY_CHOICES = tuple(_VARY_POSITIONS)
MAX_SWEEP_ROWS = 10**6  # sweep() returns a list, so --count is bounded
_REGIMES = tuple(RegimeStatus)  # the gate's verdicts by rank: OK, WARN, ERROR


class SweepSpec(_Checked, namedtuple("SweepSpec", "varying start stop count base")):
    """`count` points of `varying` (one of VARY_CHOICES) from `start` to
    `stop`, every other parameter taken from the InterferometerConfig `base`.
    A sweep never reads `base`'s varied field, so it may hold 0.0, or any
    value the config gate accepts."""

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
        _require_integer(self.count, "count")
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
    m: float,
    r1: float,
    r2: float,
    omega1: float,
    omega2: float,
    position: int,
    consts: ConstantSet,
) -> None:
    # A solver answer x, r2 or omega2 as position picks, must form a valid
    # configuration, and x and the doubles 8 ulp either side of it must each
    # reach concurrence 1 - MAXIMAL_TOL, or x is not the answer to within its
    # own rounding: refuse it rather than return it. delta is monotone in x
    # and |sin(delta/2)| is concave between its zeros, so the worst double of
    # the window is at one of its ends; x itself goes first, which also
    # catches a window so wide that its ends wrap to odd multiples of pi.
    # The numbers go as plain arguments: CPython takes a slower path for a
    # call with *args.
    require_valid_config(m, r1, r2, omega1, omega2, consts)
    varies_r2 = position == _VARY_POSITIONS["r2"]
    x = r2 if varies_r2 else omega2
    step = 8.0 * math.ulp(x)
    for value in x, x - step, x + step:
        if varies_r2:
            r2 = value
        else:
            omega2 = value
        delta = entangling_phase_value(m, r1, r2, omega1, omega2, consts)
        try:
            c = concurrence_from_delta(delta)
        except ValueError:  # sin of an infinite delta: a partial product overflowed
            raise ValueError(
                f"solution not resolvable in double precision: delta = {delta}"
            ) from None
        if not 1.0 - c <= MAXIMAL_TOL:  # also refuses a nan delta
            raise ValueError(
                f"solution not resolvable in double precision: concurrence {c:.12g}"
            )


def _odd(k: int) -> float:
    """2k + 1 as a double, for the odd multiple of pi that k picks."""
    k = _require_integer(k, "k")
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
    _require_solution(m, r1, r2, omega1, omega2, _VARY_POSITIONS["omega2"], consts)
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
    _require_solution(m, r1, r2, omega1, omega2, _VARY_POSITIONS["r2"], consts)
    return r2


def _grid(start: float, stop: float, count: int, begin: int, end: int) -> list[float]:
    """np.linspace(start, stop, count)[begin:end] bit for bit, for a finite
    span and begin and end from 0 to count; a point's bits do not depend on
    which slice it is built in."""
    start, stop = float(start), float(stop)
    span = stop - start
    if count == 1:  # not [start]: numpy turns a -0.0 start into 0.0
        return [0.0 * span + start][begin:end]
    div = count - 1
    step = span / div
    inner = range(begin, min(end, div))
    if step == 0:  # a zero or subnormal span: divide first, as numpy does
        values = [(i / div) * span + start for i in inner]
    else:
        values = [i * step + start for i in inner]
    if begin <= div < end:
        values.append(stop)
    return values


def _sweep_plan(spec: SweepSpec) -> list[tuple]:
    """The stretches (i, j, regime) of spec's grid, in grid order: rows i to
    j - 1 take the config gate's regime, ERROR where it refuses them. On
    each side of 0 they are the runs of equal verdicts, at most three.
    Refuses the sweep, naming its first row, if a row's delta is not
    finite, since no row can carry it.

    The swept value enters require_valid_config only through m > 0, r2 >= 0,
    |omega2|, max(r1, r2), max(|omega1|, |omega2|) * r / c and r * r, each
    monotone in it on either side of 0, in floating point too, since each
    operation is correctly rounded. So with the verdicts ranked OK < WARN <
    ERROR, the rank never rises along the grid, which ascends, up to 0 and
    never falls past it. A side's first row of each rank is then found by
    bisection, with the rank (negated below 0) as key: O(log count) gate
    calls per change of regime, never the whole grid, where a call per row
    would cost about half the kernel's time. delta is linear in m and in
    omega2, and r1^2 - r2^2 is monotone on either side of 0, so |delta|
    peaks at the first or last row of a side; only if it is not finite
    there is the grid scanned, with entangling_phase_value, whose bits are
    the kernel's (a property test pins the refusal to a row-by-row
    reference).
    """
    numbers = list(spec.base[:5])  # m, r1, r2, omega1, omega2
    position = _VARY_POSITIONS[spec.varying]
    consts = spec.base.constants
    start, stop, count = spec.start, spec.stop, spec.count
    rows = range(count)

    def point(i: int) -> float:  # the swept value at row i
        return _grid(start, stop, count, i, i + 1)[0]

    def delta(i: int) -> float:
        numbers[position] = point(i)
        return entangling_phase_value(*numbers, consts)

    def rank(i: int) -> int:  # the gate's verdict at row i, by its index in _REGIMES
        numbers[position] = point(i)
        try:
            status = require_valid_config(*numbers, consts).status
        except ValueError:
            status = RegimeStatus.ERROR
        return _REGIMES.index(status)

    split = bisect_right(rows, 0.0, key=point)
    # (i, j, sign) for each side of 0 that has any rows, i to j - 1, along
    # which sign * rank never falls
    sides = [(i, j, sign) for i, j, sign in ((0, split, -1), (split, count, 1)) if i < j]
    if not all(math.isfinite(delta(k)) for i, j, _ in sides for k in (i, j - 1)):
        i = next(i for i in rows if not math.isfinite(delta(i)))
        raise ValueError(f"delta = {delta(i)} is not finite at {spec.varying} = {point(i):g}")
    stretches = []
    for i, j, sign in sides:
        levels = range(sign * rank(i), sign * rank(j - 1) + 1)
        # the first row of each later level lies between the end rows
        edges = [i, *(bisect_left(rows, level, i + 1, j - 1, key=lambda k: sign * rank(k))
                      for level in levels[1:]), j]
        stretches += ((a, b, _REGIMES[sign * level])
                      for level, a, b in zip(levels, edges, edges[1:]) if a < b)
    return stretches


def _sweep_rows(spec: SweepSpec, plan: list, begin: int, end: int):
    """Yield (flat, regime) for each stretch of plan, spec's _sweep_plan,
    that holds any of the rows begin to end - 1: flat lists value, delta,
    concurrence and entropy_bits of each of its rows there in turn, so a
    caller formats or splits a stretch at once, not a row at a time. It
    builds the swept values of these rows only, makes no gate call, and
    takes every delta as finite, as the plan makes sure.

    delta and concurrence repeat the operations of entangling_phase_value
    and concurrence_from_delta one for one, so every bit matches them (a
    property test pins the two together); a call to
    entangling_phase_value per row measured 2.1% slower on a CSV sweep. The
    entropies come from state, one call per stretch.
    """
    start, stop, count = spec.start, spec.stop, spec.count
    numbers = list(spec.base[:5])  # m, r1, r2, omega1, omega2
    position = _VARY_POSITIONS[spec.varying]
    hbar, pi = spec.base.constants.hbar, math.pi
    sin = math.sin
    for i, j, regime in plan:
        flat = []
        for value in _grid(start, stop, count, max(i, begin), min(j, end)):
            numbers[position] = value
            m, r1, r2, omega1, omega2 = numbers
            delta = 2.0 * m * (omega1 - omega2) * pi * ((r1 - r2) * (r1 + r2)) / hbar
            flat += value, delta, abs(sin(0.5 * delta)), 0.0
        if flat:
            flat[3::4] = _entropies(flat[2::4])
            yield flat, regime


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate `count` evenly spaced points, endpoints included, ascending.

    Points that no longer form a valid configuration are kept, marked ERROR;
    a row whose delta is not finite refuses the sweep.
    """
    # zip takes four numbers at a time from the one iterator over flat
    return list(chain.from_iterable(
        map(tuple.__new__, repeat(SweepRow), zip(*[iter(flat)] * 4, repeat(regime)))
        for flat, regime in _sweep_rows(spec, _sweep_plan(spec), 0, spec.count)))
