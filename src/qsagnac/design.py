"""Closed-form parameter design and one-dimensional entanglement sweeps.

The entangling phase is exactly linear in omega2 and in r2^2, so the
parameter values hitting any odd multiple of pi (where the branch state is
maximally entangled) come out in closed form. Sweeps map the concurrence
landscape around those solutions.
"""

import math
from bisect import bisect_right
from collections import namedtuple

from .constants import (
    ConstantSet,
    RegimeStatus,
    _Checked,
    _require_integer,
    _require_mass,
    require_valid_config,
)
from .phase import entangling_phase_value
from .state import MAXIMAL_TOL, InterferometerConfig, concurrence_from_delta

# each --vary name and the position of its number in (m, r1, r2, omega1, omega2)
_VARY_POSITIONS = {"omega2": 4, "r2": 2, "mass": 0}
VARY_CHOICES = tuple(_VARY_POSITIONS)
MAX_SWEEP_ROWS = 10**6  # sweep() and _grid return lists, so --count is bounded


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


def _require_solution(numbers: list, position: int, consts: ConstantSet) -> None:
    # A solver answer x = numbers[position] must form a valid configuration,
    # and x and the doubles 8 ulp either side of it must each reach
    # concurrence 1 - MAXIMAL_TOL, or x is not the answer to within its own
    # rounding: refuse it rather than return it. delta is monotone in x and
    # |sin(delta/2)| is concave between its zeros, so the worst double of the
    # window is at one of its ends; x itself goes first, which also catches
    # a window so wide that its ends wrap to odd multiples of pi.
    require_valid_config(*numbers, consts)
    x = numbers[position]
    step = 8.0 * math.ulp(x)
    for value in x, x - step, x + step:
        numbers[position] = value
        c = concurrence_from_delta(entangling_phase_value(*numbers, consts))
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
    _require_solution([m, r1, r2, omega1, omega2], _VARY_POSITIONS["omega2"], consts)
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
    _require_solution([m, r1, r2, omega1, omega2], _VARY_POSITIONS["r2"], consts)
    return r2


def _grid(start: float, stop: float, count: int, at=None) -> list[float]:
    """np.linspace(start, stop, count) bit for bit, for a finite span; only
    the points at the indices in `at` if it is given."""
    start, stop = float(start), float(stop)
    span = stop - start
    if count == 1:
        return [0.0 * span + start]  # not [start]: numpy turns a -0.0 start into 0.0
    div = count - 1
    step = span / div
    inner = range(div) if at is None else [i for i in at if 0 <= i < div]
    if step == 0:  # a zero or subnormal span: divide first, as numpy does
        values = [(i / div) * span + start for i in inner]
    else:
        values = [i * step + start for i in inner]
    if at is None or div in at:
        values.append(stop)
    return values


def _sweep_plan(spec: SweepSpec) -> tuple[list[float], list[tuple]]:
    """The grid of spec and its stretches (i, j, regime) in grid order: rows
    i to j - 1 take the config gate's regime, ERROR where it refuses them.

    The gate runs only at the ends of stretches of the grid, which ascends.
    The swept value enters require_valid_config only through m > 0, r2 >= 0,
    |omega2|, max(r1, r2), max(|omega1|, |omega2|) * r / c and r * r, each
    monotone in it on either side of 0, in floating point too, since each
    operation is correctly rounded. So up to 0 the verdict never gets
    harsher along the grid, and past 0 it never gets milder: a stretch on
    one side whose two ends get one verdict gets it on every row. A stretch
    whose ends differ is halved, so each change of regime costs O(log count)
    gate calls, where a call per row would cost about half the kernel's time.
    """
    numbers = list(spec.base[:5])  # m, r1, r2, omega1, omega2
    position = _VARY_POSITIONS[spec.varying]
    consts = spec.base.constants
    grid = _grid(spec.start, spec.stop, spec.count)

    def regime(i: int) -> RegimeStatus:
        numbers[position] = grid[i]
        try:
            return require_valid_config(*numbers, consts).status
        except ValueError:
            return RegimeStatus.ERROR

    split = bisect_right(grid, 0.0)
    # (i, j, regime at i, regime at j): rows i to j - 1 are still to be
    # planned, and i and j lie on one side of 0. A stack, so the later half
    # goes in first and the stretches come out in grid order.
    todo = []
    for i, j in (split, len(grid) - 1), (0, split - 1):
        if i <= j:
            last = regime(j)
            todo += (j, j + 1, last, last), (i, j, regime(i), last)
    stretches = []
    while todo:
        i, j, first, last = todo.pop()
        if first is not last and j > i + 1:  # the regime changes within
            mid = (i + j) // 2
            middle = regime(mid)
            todo += (mid, j, middle, last), (i, mid, first, middle)
        else:
            stretches.append((i, j, first))
    return grid, stretches


def _sweep_rows(spec: SweepSpec, plan: tuple, begin: int, end: int):
    """Yield (value, delta, concurrence, entropy_bits, regime) for rows begin
    to end - 1 of spec, whose _sweep_plan is plan; it makes no gate call and
    takes every delta as finite, as _require_finite_deltas makes sure.

    delta, concurrence and entropy repeat the operations of
    entangling_phase_value, concurrence_from_delta and
    entropy_from_concurrence one for one, so every bit matches them (a
    property test pins the two together). Only the entropy's clamp of
    1 - c^2 at 0 is left out, since |sin| <= 1 keeps it idle. Calling the
    three per row costs 4-6% of perfbench's sweep_csv throughput.
    """
    grid, stretches = plan
    numbers = list(spec.base[:5])  # m, r1, r2, omega1, omega2
    position = _VARY_POSITIONS[spec.varying]
    hbar, pi = spec.base.constants.hbar, math.pi
    sin, sqrt, log2 = math.sin, math.sqrt, math.log2
    for i, j, regime in stretches:
        for value in grid[max(i, begin):min(j, end)]:
            numbers[position] = value
            m, r1, r2, omega1, omega2 = numbers
            delta = 2.0 * m * (omega1 - omega2) * pi * ((r1 - r2) * (r1 + r2)) / hbar
            conc = abs(sin(0.5 * delta))
            gap = sqrt(1.0 - conc * conc)
            hi, lo = 0.5 * (1.0 + gap), 0.5 * (1.0 - gap)
            entropy = 0.0 - hi * log2(hi)  # hi >= 0.5; 0.0 - x turns -0.0 into 0.0
            if lo > 0.0:
                entropy -= lo * log2(lo)
            yield value, delta, conc, entropy, regime


def _require_finite_deltas(spec: SweepSpec) -> None:
    """Refuse the sweep, naming its first row, if a row's delta is not
    finite, since no row can carry it. delta is linear in m and in omega2,
    and |r1^2 - r2^2| peaks at an end or at r2 = 0, so the whole grid is
    scanned only if delta is not finite at the two ends or at the points
    either side of 0 of an r2 grid that crosses it (a property test pins
    this). entangling_phase_value's bits are the kernel's."""
    start, stop, count = spec.start, spec.stop, spec.count
    numbers = list(spec.base[:5])  # m, r1, r2, omega1, omega2
    position = _VARY_POSITIONS[spec.varying]
    at = {0, count - 1}
    if spec.varying == "r2" and start < 0 < stop:
        below = int(-start / (stop - start) * (count - 1))  # off by at most one
        at.update(range(below - 1, below + 3))

    def deltas(rows):  # (delta, value) at the indices in rows, or at every row
        for value in _grid(start, stop, count, rows):
            numbers[position] = value
            yield entangling_phase_value(*numbers, spec.base.constants), value

    if not all(math.isfinite(delta) for delta, _ in deltas(at)):
        delta, value = next(row for row in deltas(None) if not math.isfinite(row[0]))
        raise ValueError(f"delta = {delta} is not finite at {spec.varying} = {value:g}")


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate `count` evenly spaced points, endpoints included, ascending.

    Points that no longer form a valid configuration are kept, marked ERROR;
    a row whose delta is not finite refuses the sweep.
    """
    _require_finite_deltas(spec)
    rows = _sweep_rows(spec, _sweep_plan(spec), 0, spec.count)
    return [SweepRow._make(row) for row in rows]
