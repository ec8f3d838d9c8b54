"""Property tests of the CLI's float formatting and JSON serializer, of
the sweep grid, of the sweep plan and rows against a row-by-row
reference, of the entanglement report and the solvers over drawn SI and
natural inputs, and of the CLI's exit-code contract over argv drawn from
its subcommand table, and of the CLI's argv fast path against argparse."""

import contextlib
import io
import json
import math
import string
import struct
import sys
from itertools import groupby

import mpmath
import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsagnac import (
    InterferometerConfig,
    RegimeStatus,
    SweepRow,
    SweepSpec,
    UnitSystem,
    concurrence_from_delta,
    constants_for,
    entangling_phase_value,
    entropy_from_concurrence,
    loop_phase,
    report_from_parameters,
    solve_omega2,
    solve_r2,
    sweep,
)
from qsagnac.cli import (
    _SUBCOMMANDS,
    _finite,
    _parse,
    build_parser,
    format_float,
    main,
    to_json,
)
from qsagnac.constants import ERROR_BETA, require_valid_config
from qsagnac.design import VARY_CHOICES, _grid, _sweep_plan
from qsagnac.state import MAXIMAL_TOL

from helpers import ROW_NAMES, exact_entropy_bits, reference_sweep_rows, spec_argv, ulps


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(st.floats())  # every double, subnormals, signed zeros, inf and nan included
def test_format_float_round_trips_bit_exactly_or_refuses(x):
    try:
        text = format_float(x)
    except ValueError:
        assert not math.isfinite(x)
        return
    assert bits(float(text)) == bits(x)


# to_json prints keys and strings unescaped, so keys are kept to plain names
KEYS = st.text(alphabet=string.ascii_letters + string.digits + "_", max_size=8)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=20,
)


@given(VALUES)
def test_to_json_parses_back_to_the_same_value(value):
    assert json.loads(to_json(value)) == value


FINITE = st.floats(allow_nan=False, allow_infinity=False)
HALF_MAX = sys.float_info.max / 2


@given(FINITE, FINITE, st.integers(1, 2000), st.integers(0, 2000), st.integers(0, 2000))
@example(-0.0, -0.0, 1, 0, 1)  # one point: numpy gives 0.0 for a start of -0.0
@example(-0.0, 0.0, 1, 1, 0)
@example(2.5, 2.5, 7, 2, 5)  # start == stop
@example(-0.0, 0.0, 5, 0, 1)  # signed zeros at both ends
@example(0.0, -0.0, 4, 3, 4)
@example(0.0, 5e-324, 3, 1, 2)  # subnormal span: step rounds to 0
@example(-5e-324, 1e-323, 9, 4, 9)
@example(-HALF_MAX, HALF_MAX, 2000, 1999, 2000)  # the largest finite span
@example(-HALF_MAX, HALF_MAX, 1, 0, 1)
def test_sweep_grid_matches_numpy_linspace_bit_for_bit(a, b, count, i, j):
    start, stop = (a, b) if a <= b else (b, a)
    assume(math.isfinite(stop - start))
    # numpy also computes the last point as div * step, which can overflow
    # near the largest span before it is overwritten with stop
    with np.errstate(over="ignore"):
        expected = np.linspace(start, stop, count).tolist()
    assert [bits(v) for v in _grid(start, stop, count, 0, count)] == [bits(v) for v in expected]
    # a slice, as a plan's point or a stretch of a chunk builds it; the
    # kernel also asks for empty ones, with begin past end
    begin, end = i % (count + 1), j % (count + 1)
    assert ([bits(v) for v in _grid(start, stop, count, begin, end)]
            == [bits(v) for v in expected[begin:end]])


NATURAL = UnitSystem.NATURAL
SI = UnitSystem.SI
# radii up to just below sqrt(max double) = 1.34e154, so a base config can
# sit where a swept radius squared overflows
RADII = st.floats(0.0, 1.3e154)
WIDE = st.floats(-1e160, 1e160)


@st.composite
def sweeps(draw, units):
    c = constants_for(units).c
    m = draw(st.floats(1e-300, 1e300))
    r1, r2 = draw(RADII), draw(RADII)
    reach = max(r1, r2)
    top = min(0.999 * c / reach, 1e300) if reach else 1e300  # keeps every rim below c
    omega1, omega2 = draw(st.floats(-top, top)), draw(st.floats(-top, top))
    base = InterferometerConfig(m, r1, r2, omega1, omega2, units)
    start, stop = sorted((draw(WIDE), draw(WIDE)))
    return SweepSpec(draw(st.sampled_from(VARY_CHOICES)), start, stop,
                     draw(st.integers(1, 12)), base)


BOTH_UNITS = sweeps(NATURAL) | sweeps(SI)
# r2^2 overflows in the last two rows: the gate refuses them, so they are error
R2_OVERFLOW = SweepSpec("r2", 1.3e154, 1.4e154, 3, InterferometerConfig(
    1.0, 1.3e154, 1.3e154, 1e-170, 2e-170, NATURAL))


def magnitudes(lo, hi):
    """Positive doubles from 10^lo to 10^(hi + 1), spread over the decades."""
    return st.builds(lambda f, e: f * 10.0**e,
                     st.floats(1.0, 10.0), st.integers(lo, hi))


SIGNS = st.sampled_from((-1.0, 1.0))
SQRT_MAX = math.sqrt(sys.float_info.max)  # r * r overflows just past it, 1.34e154


@st.composite
def regime_crossing_sweeps(draw, units):
    """Sweeps of up to 2000 rows across 0 that, on either side of it, cross
    the points where the config gate's verdict changes: the fastest rim at
    WARN_BETA and at ERROR_BETA times c, or, for r2, r2 * r2 overflowing.
    A mass sweep is ERROR up to 0 and one regime past it. delta stays finite."""
    c = constants_for(units).c
    varying = draw(st.sampled_from(VARY_CHOICES))
    m, spread = draw(magnitudes(-3, 2)), st.floats(0.0, 3.0)
    if varying == "r2" and draw(st.booleans()):  # rims far below c, r2^2 overflows
        r1 = SQRT_MAX * draw(st.floats(0.9, 0.999))
        omega1 = draw(st.floats(0.0, 1e-5)) * c / SQRT_MAX
        base = InterferometerConfig(m, r1, r1, omega1, -omega1 * draw(st.floats(0.0, 1.0)),
                                    units)
        start = -SQRT_MAX * draw(st.floats(0.0, 1.0))
        stop = SQRT_MAX * draw(st.floats(0.9, 1.08))
    elif varying == "r2":  # from the frequencies, the radii at the two betas
        omega1 = draw(SIGNS) * draw(magnitudes(-3, 2))
        reach = ERROR_BETA * c / abs(omega1)
        r1 = reach * draw(st.floats(0.0, 0.999))
        base = InterferometerConfig(m, r1, r1, omega1, -omega1 * draw(st.floats(0.0, 1.0)),
                                    units)
        start, stop = -reach * draw(spread), reach * draw(spread)
    else:  # from the radius, the frequencies at the two betas (mass: one beta)
        r2 = draw(magnitudes(-3, 2))
        reach = ERROR_BETA * c / r2
        omega1 = reach * draw(st.floats(-0.999, 0.999))
        base = InterferometerConfig(m, r2 * draw(st.floats(0.0, 1.0)), r2, omega1,
                                    omega1 * draw(st.floats(-1.0, 1.0)), units)
        scale = reach if varying == "omega2" else m
        start, stop = -scale * draw(spread), scale * draw(spread)
    return SweepSpec(varying, start, stop, draw(st.integers(1, 2000)), base)


@settings(max_examples=80, deadline=None)
@given(BOTH_UNITS | regime_crossing_sweeps(NATURAL) | regime_crossing_sweeps(SI))
@example(R2_OVERFLOW)
def test_sweep_rows_take_their_regime_from_the_config_gate(spec):
    try:
        rows = sweep(spec)
    except ValueError as exc:  # a row whose delta overflows refuses the sweep
        assert "not finite" in str(exc)
        return
    numbers = dict(zip(ROW_NAMES, spec.base[:5]))
    for row in rows:
        numbers[spec.varying] = row.value
        try:
            consts = spec.base.constants
            expected = require_valid_config(*numbers.values(), consts).status
        except ValueError:
            expected = RegimeStatus.ERROR
        assert row.regime is expected


@settings(max_examples=80, deadline=None)
@given(BOTH_UNITS | regime_crossing_sweeps(NATURAL) | regime_crossing_sweeps(SI))
@example(R2_OVERFLOW)
def test_the_plan_is_one_stretch_per_run_of_a_verdict_on_each_side_of_0(spec):
    try:
        rows = reference_sweep_rows(spec)
    except ValueError:  # refused: the pre-check's own test covers it
        return
    runs, i = [], 0
    for (_, regime), run in groupby(rows, key=lambda row: (row[0] > 0, row[4])):
        j = i + len(list(run))
        runs.append((i, j, regime))
        i = j
    assert _sweep_plan(spec) == runs


def base(m=1.0, r1=1.0, r2=1.5, omega1=0.01, omega2=0.02, units=NATURAL):
    return InterferometerConfig(m, r1, r2, omega1, omega2, units)


def r2_overflow_at_zero_only(count):
    # delta is 0 at r2 = +-r1, the two ends, and inf at r2 = 0
    config = base(1e300, 1e154, 1e154, 5e-155, -5e-155)
    return SweepSpec("r2", -1e154, 1e154, count, config)


# the solve.json golden's config and answer, where the kernel's concurrence
# and entropy are exactly 1.0
SOLVE_BASE = base(1000.0, 1.0, 1.41421356237, 0.01, 0.0105)
SOLVED = solve_omega2(*SOLVE_BASE[:4], 0, SOLVE_BASE.constants)

# r2 = -1.25e100, -6e99, 5e98, 7e99: only the first row above 0 overflows
R2_OVERFLOW_ABOVE_ZERO = SweepSpec(
    "r2", -1.25e100, 0.7e100, 4, base(4.29e207, 1e100, 1e100, 0.5e-100, -0.5e-100))

SWEEP_MASS = SweepSpec(  # the sweep_mass.json golden's invocation
    "mass", -500.0, 1500.0, 5, base(1000.0, 1.0, 1.41421356237, 0.01, 0.0105))


# Sweeps that the row renderer must get right in both formats
HARD_SWEEPS = [
    R2_OVERFLOW,
    # integral values (the .0 suffix), m <= 0 error rows, and delta 0.0 and -0.0
    SweepSpec("mass", -2.0, 6.0, 9, base(r2=1.0)),
    SweepSpec("omega2", -3.0, 3.0, 7, base(r1=0.1, r2=0.2)),  # warn rows
    SweepSpec("omega2", 0.0, 0.02, 3, base()),  # omega2 = omega1: delta 0
    SweepSpec("r2", 0.0, 2.0, 5, base()),  # r2 = r1: delta 0
    SweepSpec("mass", -1.0, 0.0, 2, base()),  # m < 0 and m = 0
    SweepSpec("r2", 0.5, 0.5, 1, base()),  # one-point sweeps
    SweepSpec("omega2", -0.0, -0.0, 1, base()),
    SweepSpec("omega2", 999.0, 1001.0, 5, base(1e-20, 0.01, 0.011, 1e3, 999.0, SI)),
    SWEEP_MASS,
    # refused at interior rows only, so the ends alone cannot settle it
    r2_overflow_at_zero_only(3),
    r2_overflow_at_zero_only(4),
    R2_OVERFLOW_ABOVE_ZERO,
    # rows that the %.17g template leaves to format_float: integral values up
    # to and past 2^53, 1e16 and 1e17, signed zeros (a value of -0.0, and
    # deltas of -0.0 at values that are not integers), and concurrence and
    # entropy of exactly 1.0 at a solver's answer
    SweepSpec("mass", -2.0**53, 2.0**53, 5, base()),
    SweepSpec("mass", 1e16, 1e17, 10, base()),
    SweepSpec("omega2", -0.02, -0.0, 3, base()),
    SweepSpec("mass", 0.5, 1.5, 3, base(omega2=0.01)),
    SweepSpec("omega2", SOLVED, SOLVED, 1, SOLVE_BASE),
    # three chunks, the first two each with one integral mass (1.0 at row 512,
    # 2.0 at row 1536) among rows that are not integral
    SweepSpec("mass", 0.5, 2.5, 2049, base()),
]
FORMATS = ("csv", "json")


def with_hard_sweeps(test):
    """test, given each of HARD_SWEEPS in each format as an @example."""
    for spec in HARD_SWEEPS:
        for fmt in FORMATS:
            test = example(spec, fmt)(test)
    return test


@settings(max_examples=120, deadline=None)  # about 60 draws a format
@given(BOTH_UNITS, st.sampled_from(FORMATS))
@with_hard_sweeps
def test_sweep_rows_equal_the_per_row_reference_bit_for_bit(spec, fmt):
    try:
        expected = reference_sweep_rows(spec)
    except ValueError:
        expected = None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(spec_argv(spec, fmt))
    if expected is None:  # a row whose delta is not finite refuses the sweep
        with pytest.raises(ValueError, match="not finite"):
            sweep(spec)
        assert (code, out.getvalue()) == (1, "")
        return
    rows = sweep(spec)
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert [bits(x) for x in row[:4]] == [bits(x) for x in want[:4]]
        assert row.regime is want[4]
    if fmt == "json":
        text = to_json(rows) + "\n"
    else:
        text = "\n".join(["value,delta,concurrence,entropy_bits,regime"] + [
            ",".join([*map(format_float, want[:4]), want[4].value]) for want in expected
        ]) + "\n"
    assert (code, out.getvalue(), err.getvalue()) == (0, text, "")


@settings(max_examples=60, deadline=None)
@given(BOTH_UNITS)
@example(SWEEP_MASS)
@example(r2_overflow_at_zero_only(4))
def test_the_streamed_json_sweep_is_to_json_of_the_rows(spec):
    # with no --format, a sweep is JSON
    argv = spec_argv(spec, "json")
    del argv[argv.index("--format"):argv.index("--format") + 2]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    try:
        expected = to_json(sweep(spec)) + "\n"
    except ValueError:  # a refused sweep writes nothing
        assert (code, out.getvalue()) == (1, "")
        return
    assert (code, out.getvalue(), err.getvalue()) == (0, expected, "")


@st.composite
def r2_sweeps_across_zero(draw, units):
    """r2 grids across 0 with ends near +-r1, and m set so that |delta| at
    r2 = 0 lies within a factor 2 of the largest double: sweeps where only
    the rows near r2 = 0 may overflow."""
    consts = constants_for(units)
    r1 = draw(st.floats(1e100, 1.3e154))
    top = min(0.999 * consts.c / r1, 1e300)
    omega1 = draw(st.floats(0.1 * top, top)) * draw(st.sampled_from((-1.0, 1.0)))
    omega2 = -omega1 * draw(st.floats(0.0, 1.0))
    # |delta| / m at r2 = 0, in the kernel's order of operations
    per_mass = abs(2.0 * (omega1 - omega2) * math.pi * (r1 * r1) / consts.hbar)
    m = draw(st.floats(0.5, 2.0)) * (sys.float_info.max / per_mass)
    start = -r1 * draw(st.floats(0.5, 1.5))
    stop = r1 * draw(st.floats(0.5, 1.5))
    return SweepSpec("r2", start, stop, draw(st.integers(2, 300)),
                     InterferometerConfig(m, r1, r1, omega1, omega2, units))


@settings(max_examples=150, deadline=None)
@given(BOTH_UNITS | r2_sweeps_across_zero(NATURAL) | r2_sweeps_across_zero(SI))
@example(r2_overflow_at_zero_only(3))
@example(r2_overflow_at_zero_only(4))
@example(R2_OVERFLOW_ABOVE_ZERO)
@example(R2_OVERFLOW)
def test_the_pre_check_refuses_exactly_the_sweeps_the_kernel_refuses(spec):
    # the kernel takes every delta as finite, so the reference, which
    # computes each row on its own, stands in for it
    try:
        reference_sweep_rows(spec)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            _sweep_plan(spec)
        assert str(refused.value) == str(exc)
    else:
        _sweep_plan(spec)


# decades of m, of the radii and of the frequencies over which delta runs
# from far below 1 rad to far past double resolution (1.13e6 rad), with rims
# on both sides of the speed of light
SCALES = {SI: ((-30, -10), (-4, 0), (0, 5)), NATURAL: ((-3, 6), (-2, 2), (-4, 0))}
K = st.integers(-3, 3) | st.integers(-(10**6), 10**6)


@st.composite
def parameters(draw):
    """(m, r1, r2, omega1, omega2, consts), SI or natural."""
    units = draw(st.sampled_from(list(UnitSystem)))
    masses, radii, frequencies = (magnitudes(*decades) for decades in SCALES[units])
    omega1, omega2 = (draw(SIGNS) * draw(frequencies) for _ in range(2))
    return (draw(masses), draw(radii), draw(radii), omega1, omega2,
            constants_for(units))


WORKED = (1000.0, 1.0, math.sqrt(2.0), 0.01, 0.0105, constants_for(NATURAL))


@settings(max_examples=300, deadline=None)
@given(parameters())
@example(WORKED)
def test_every_report_is_a_pure_two_qubit_state_or_refused(args):
    try:
        report = report_from_parameters(*args)
    except ValueError:
        return
    c, (s1, s2) = report.concurrence, report.schmidt
    assert 0.0 <= c <= 1.0
    assert s1 >= s2 >= 0.0
    assert abs(s1 * s1 + s2 * s2 - 1.0) <= 2 * math.ulp(1.0)
    assert 0.0 <= report.entropy_bits <= 1.0
    assert report.maximal == (abs(c - 1.0) <= MAXIMAL_TOL)
    assert abs(report.delta) * 2.0**-50 <= MAXIMAL_TOL  # delta fixes itself mod 2 pi


# Sign relations, over every finite double: IEEE negation and subtraction
# are exactly antisymmetric and products round symmetrically, so they need
# no oracle. loop_phase is odd bit for bit; a swap is compared with ==,
# since r1 == r2 gives a +0.0 gap either way round. An inf * 0 gives nan on
# both sides.
CONSTS = st.sampled_from(list(UnitSystem)).map(constants_for)


def negated(a, b):
    return a == -b or math.isnan(a) and math.isnan(b)


@settings(max_examples=200)
@given(FINITE, FINITE, FINITE, CONSTS)
def test_loop_phase_is_odd_in_omega(m, omega, r, consts):
    phi = loop_phase(m, omega, r, consts)
    mirrored = loop_phase(m, -omega, r, consts)
    assert bits(mirrored) == bits(-phi) or math.isnan(phi) and math.isnan(mirrored)


@settings(max_examples=200)
@given(FINITE, FINITE, FINITE, FINITE, FINITE, CONSTS)
def test_swapping_the_radii_or_the_frequencies_negates_delta(m, r1, r2, omega1, omega2,
                                                            consts):
    delta = entangling_phase_value(m, r1, r2, omega1, omega2, consts)
    assert negated(entangling_phase_value(m, r2, r1, omega1, omega2, consts), delta)
    assert negated(entangling_phase_value(m, r1, r2, omega2, omega1, consts), delta)
    both = entangling_phase_value(m, r2, r1, omega2, omega1, consts)
    assert both == delta or math.isnan(both) and math.isnan(delta)


@st.composite
def whole_range_parameters(draw):
    """(m, r1, r2, omega1, omega2, consts): m and |omega| from 1e-300 to
    1e300 and the radii from 1e-150 to 1e150, SI or natural."""
    masses = frequencies = magnitudes(-300, 299)
    radii = magnitudes(-150, 149)
    return (draw(masses), draw(radii), draw(radii), draw(SIGNS) * draw(frequencies),
            draw(SIGNS) * draw(frequencies), draw(CONSTS))


def report_or_none(args):
    try:
        return report_from_parameters(*args)
    except ValueError:  # delta past double resolution
        return None


@settings(max_examples=200, deadline=None)
@given(whole_range_parameters())
@example(WORKED)
def test_swapping_the_radii_or_the_frequencies_keeps_the_report(args):
    m, r1, r2, omega1, omega2, consts = args
    swaps = [(m, r2, r1, omega1, omega2, consts), (m, r1, r2, omega2, omega1, consts)]
    try:
        for numbers in (args, *swaps):
            require_valid_config(*numbers)
    except ValueError:  # a config the gate refuses
        return
    base = report_or_none(args)
    for numbers in swaps:
        report = report_or_none(numbers)
        if base is None:
            assert report is None
        else:
            # concurrence, Schmidt values, entropy and maximal
            assert report.delta == -base.delta and report[1:] == base[1:]


# c from 1e-150 to 1, log-uniform; below 1e-150 c^2 leaves the normal range
@given(st.floats(-150.0, 0.0).map(lambda exponent: 10.0**exponent))
@example(0.0)
@example(5e-324)
@example(1e-9)  # 1 - c^2 rounds to 1 here, which a cancelling form turns into 0.0
@example(1.0)
def test_entropy_is_within_4_ulp_of_mpmath(c):
    assert ulps(entropy_from_concurrence(c), exact_entropy_bits(c)) <= 4.0


def assert_maximal_config(m, r1, r2, omega1, omega2, consts):
    require_valid_config(m, r1, r2, omega1, omega2, consts)
    delta = entangling_phase_value(m, r1, r2, omega1, omega2, consts)
    assert 1.0 - concurrence_from_delta(delta) <= MAXIMAL_TOL


def assert_resolved(numbers, position, consts):
    """The answer x = numbers[position] and the doubles 8 ulp either side of
    it each reach concurrence 1 - MAXIMAL_TOL, with delta taken exactly for
    the double inputs (perfbench's oracle calls such an answer answerable)."""
    x = numbers[position]
    with mpmath.workdps(50):
        for value in x, x - 8.0 * math.ulp(x), x + 8.0 * math.ulp(x):
            numbers[position] = value
            m, r1, r2, omega1, omega2 = map(mpmath.mpf, numbers)
            delta = 2 * m * (omega1 - omega2) * mpmath.pi * (r1 * r1 - r2 * r2)
            concurrence = abs(mpmath.sin(delta / mpmath.mpf(consts.hbar) / 2))
            assert 1 - concurrence <= MAXIMAL_TOL, numbers


@settings(max_examples=300, deadline=None)
@given(parameters(), K)
@example(WORKED, 0)
def test_every_solver_answer_is_a_maximal_valid_config_or_refused(args, k):
    m, r1, r2, omega1, omega2, consts = args
    try:
        solved = solve_omega2(m, r1, r2, omega1, k, consts)
    except ValueError:
        pass
    else:
        assert_maximal_config(m, r1, r2, omega1, solved, consts)
        assert_resolved([m, r1, r2, omega1, solved], 4, consts)
    try:
        solved = solve_r2(m, r1, omega1, omega2, k, consts)
    except ValueError:
        pass
    else:
        assert_maximal_config(m, r1, solved, omega1, omega2, consts)
        assert_resolved([m, r1, solved, omega1, omega2], 2, consts)


# flag values: finite doubles, the ends of the double range, signed zeros and
# moderate numbers the physics answers; integers far past any double
NUMBERS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([1e308, -1e308, 5e-324, 0.0, -0.0])
    | st.floats(1e-3, 1e3)
)
INTEGERS = st.integers(-3, 3) | st.integers(-(10**400), 10**400)


def flag_values(flag, keywords):
    if "choices" in keywords:
        return st.sampled_from(list(keywords["choices"]))
    if keywords["type"] is _finite:
        return NUMBERS.map(repr)  # repr round-trips every double
    if flag == "--count":
        return st.integers(1, 50).map(str)
    if keywords["type"] is int:
        return INTEGERS.map(str)
    return st.tuples(INTEGERS, INTEGERS).map(lambda pair: "%d,%d" % pair)  # --pair


@st.composite
def cli_argv(draw, spaced=st.just(False)):
    """A subcommand and its flags, each required one present and each other
    one present or not, so hydrogen gets none, one or both of its group.
    Each flag takes its value as flag=value, which keeps a value such as
    -1e+308 from being read as a flag, or as the next token where spaced
    draws True."""
    name = draw(st.sampled_from(list(_SUBCOMMANDS)))
    argv = [name]
    for flag, keywords in _SUBCOMMANDS[name][1].items():
        if keywords.get("required") or draw(st.booleans()):
            value = draw(flag_values(flag, keywords))
            argv += [flag, value] if draw(spaced) else [f"{flag}={value}"]
    return argv


@pytest.mark.filterwarnings("error")  # a leaked numpy RuntimeWarning fails
@settings(max_examples=100, deadline=None)
@given(cli_argv())
def test_every_cli_call_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:  # output that parses back to the same text
        assert err == ""
        if "--format=csv" not in argv:
            assert to_json(json.loads(out)) + "\n" == out
            return
        header, *rows = out.splitlines()
        assert header == ",".join(SweepRow._fields)
        for row in rows:
            *numbers, regime = row.split(",")
            assert len(numbers) == len(SweepRow._fields) - 1
            assert all(format_float(float(text)) == text for text in numbers)
            assert regime in ("ok", "warn", "error")
    elif code == 1:  # one diagnostic line
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith("\n")
    else:  # an argument error
        assert code == 2
        assert out == ""


@st.composite
def unusual_argv(draw):
    """cli_argv in both flag forms, and at times with a flag abbreviated,
    repeated or dropped, a token replaced by a word no flag takes, or -h
    put in."""
    argv = draw(cli_argv(spaced=st.booleans()))
    flags = [i for i, token in enumerate(argv) if token.startswith("--")]
    long = [i for i in flags if len(argv[i].partition("=")[0]) > 3]
    if long and draw(st.integers(0, 3)) == 0:  # an abbreviation, maybe ambiguous
        i = draw(st.sampled_from(long))
        flag, eq, value = argv[i].partition("=")
        argv[i] = flag[: draw(st.integers(3, len(flag) - 1))] + eq + value
    if flags and draw(st.integers(0, 3)) == 0:  # a flag given again or left out
        i = draw(st.sampled_from(flags))
        given = argv[i : i + (1 if "=" in argv[i] else 2)]
        argv[i : i + len(given)] = given * draw(st.sampled_from([0, 2]))
    if len(argv) > 1 and draw(st.integers(0, 5)) == 0:
        argv[draw(st.integers(1, len(argv) - 1))] = "heavy"
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), "-h")
    return argv


def run_captured(call):
    """(result or SystemExit code, stdout, stderr) of call()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(unusual_argv())
@example(["phase", "--m", "-1", "--omega", "-1e-3", "--r", "1"])
@example(["phase", "--m=-1", "--omega=-inf", "--r", "1"])
@example(["phase", "--m", "1", "--r", "1"])
@example(["phase", "--m", "1", "--omega", "0", "--r"])
@example(["constants", "--units", "heavy"])
@example(["constants", "--unit", "natural"])
@example(["sweep", "-h"])
@example(["-h"])
@example(["hydrogen"])
@example(["hydrogen", "--n", "1", "--pair", "1,2"])
@example(["entangle", "--m", "1", "--m", "2", "--r1", "1", "--r2", "2",
          "--omega1", "0.01", "--omega2", "0.02"])
def test_the_fast_path_agrees_with_argparse(argv):
    fast = _parse(argv)
    parsed, out, err = run_captured(lambda: build_parser().parse_args(argv))
    if fast is not None:  # accepted: argparse gives the same namespace
        assert (out, err) == ("", "")
        assert vars(fast) == vars(parsed)
    elif not hasattr(parsed, "run"):  # declined, and argparse exits
        assert run_captured(lambda: main(argv)) == (parsed or 0, out, err)
