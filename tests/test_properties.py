"""Property tests of the CLI's float formatting and JSON serializer, of
the sweep grid, of the sweep rows against a row-by-row reference, and of
the CLI's exit-code contract over argv drawn from its subcommand table."""

import contextlib
import io
import json
import math
import string
import struct
import sys

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
    constants_for,
    sweep,
)
from qsagnac.cli import _SUBCOMMANDS, _finite, format_float, main, to_json
from qsagnac.constants import require_valid_config
from qsagnac.design import VARY_CHOICES, _grid, _require_finite_deltas

from helpers import ROW_NAMES, reference_sweep_rows


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


@given(FINITE, FINITE, st.integers(1, 2000))
@example(-0.0, -0.0, 1)  # one point: numpy gives 0.0 for a start of -0.0
@example(-0.0, 0.0, 1)
@example(2.5, 2.5, 7)  # start == stop
@example(-0.0, 0.0, 5)  # signed zeros at both ends
@example(0.0, -0.0, 4)
@example(0.0, 5e-324, 3)  # subnormal span: step rounds to 0
@example(-5e-324, 1e-323, 9)
@example(-HALF_MAX, HALF_MAX, 2000)  # the largest finite span
@example(-HALF_MAX, HALF_MAX, 1)
def test_sweep_grid_matches_numpy_linspace_bit_for_bit(a, b, count):
    start, stop = (a, b) if a <= b else (b, a)
    assume(math.isfinite(stop - start))
    # numpy also computes the last point as div * step, which can overflow
    # near the largest span before it is overwritten with stop
    with np.errstate(over="ignore"):
        expected = np.linspace(start, stop, count).tolist()
    assert [bits(v) for v in _grid(start, stop, count)] == [bits(v) for v in expected]


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


@settings(max_examples=60, deadline=None)
@given(BOTH_UNITS)
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


def sweep_argv(spec, fmt="csv"):
    """The CLI invocation of spec; repr round-trips every double."""
    flags = zip(("m", "r1", "r2", "omega1", "omega2"), spec.base[:5])
    return [
        "sweep", "--vary", spec.varying, f"--start={spec.start!r}",
        f"--stop={spec.stop!r}", "--count", str(spec.count), "--format", fmt,
        "--units", spec.base.units.value,
        *(f"--{name}={value!r}" for name, value in flags),
    ]


def base(m=1.0, r1=1.0, r2=1.5, omega1=0.01, omega2=0.02, units=NATURAL):
    return InterferometerConfig(m, r1, r2, omega1, omega2, units)


def r2_overflow_at_zero_only(count):
    # delta is 0 at r2 = +-r1, the two ends, and inf at r2 = 0
    config = base(1e300, 1e154, 1e154, 5e-155, -5e-155)
    return SweepSpec("r2", -1e154, 1e154, count, config)


# r2 = -1.25e100, -6e99, 5e98, 7e99: only the first row above 0 overflows
R2_OVERFLOW_ABOVE_ZERO = SweepSpec(
    "r2", -1.25e100, 0.7e100, 4, base(4.29e207, 1e100, 1e100, 0.5e-100, -0.5e-100))


@settings(max_examples=60, deadline=None)
@given(BOTH_UNITS)
@example(R2_OVERFLOW)
# integral values (the .0 suffix), m <= 0 error rows, and delta 0.0 and -0.0
@example(SweepSpec("mass", -2.0, 6.0, 9, base(r2=1.0)))
@example(SweepSpec("omega2", -3.0, 3.0, 7, base(r1=0.1, r2=0.2)))  # warn rows
@example(SweepSpec("omega2", 0.0, 0.02, 3, base()))  # omega2 = omega1: delta 0
@example(SweepSpec("r2", 0.0, 2.0, 5, base()))  # r2 = r1: delta 0
@example(SweepSpec("mass", -1.0, 0.0, 2, base()))  # m < 0 and m = 0
@example(SweepSpec("r2", 0.5, 0.5, 1, base()))  # one-point sweeps
@example(SweepSpec("omega2", -0.0, -0.0, 1, base()))
@example(SweepSpec("omega2", 999.0, 1001.0, 5,
                   base(1e-20, 0.01, 0.011, 1e3, 999.0, SI)))
# refused at interior rows only, so the ends alone cannot settle it
@example(r2_overflow_at_zero_only(3))
@example(r2_overflow_at_zero_only(4))
@example(R2_OVERFLOW_ABOVE_ZERO)
def test_sweep_rows_equal_the_per_row_reference_bit_for_bit(spec):
    try:
        expected = reference_sweep_rows(spec)
    except ValueError:
        expected = None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(sweep_argv(spec))
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
    lines = ["value,delta,concurrence,entropy_bits,regime"] + [
        ",".join([*map(format_float, want[:4]), want[4].value]) for want in expected
    ]
    assert (code, out.getvalue(), err.getvalue()) == (0, "\n".join(lines) + "\n", "")


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
    try:
        sweep(spec)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            _require_finite_deltas(spec)
        assert str(refused.value) == str(exc)
    else:
        _require_finite_deltas(spec)


SWEEP_MASS = SweepSpec(  # the sweep_mass.json golden's invocation
    "mass", -500.0, 1500.0, 5, base(1000.0, 1.0, 1.41421356237, 0.01, 0.0105))


@settings(max_examples=60, deadline=None)
@given(BOTH_UNITS)
@example(SWEEP_MASS)
@example(r2_overflow_at_zero_only(4))
def test_the_streamed_json_sweep_is_to_json_of_the_rows(spec):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(sweep_argv(spec, "json"))
    try:
        expected = to_json(sweep(spec)) + "\n"
    except ValueError:  # a refused sweep writes nothing
        assert (code, out.getvalue()) == (1, "")
        return
    assert (code, out.getvalue(), err.getvalue()) == (0, expected, "")


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
def cli_argv(draw):
    """A subcommand and its flags, each required one present and each other
    one present or not, so hydrogen gets none, one or both of its group."""
    name = draw(st.sampled_from(list(_SUBCOMMANDS)))
    argv = [name]
    for flag, keywords in _SUBCOMMANDS[name][1].items():
        if keywords.get("required") or draw(st.booleans()):
            # flag=value, so a value such as -1e+308 is not read as a flag
            argv.append(f"{flag}={draw(flag_values(flag, keywords))}")
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
