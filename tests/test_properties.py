"""Property tests of the CLI's float formatting and JSON serializer, of
the sweep grid, and of the sweep rows against a row-by-row reference."""

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
    SweepSpec,
    UnitSystem,
    constants_for,
    sweep,
)
from qsagnac.cli import format_float, main, to_json
from qsagnac.constants import require_valid_config
from qsagnac.design import VARY_CHOICES, _grid

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


def csv_sweep_argv(spec):
    """The CLI invocation of spec as CSV; repr round-trips every double."""
    flags = zip(("m", "r1", "r2", "omega1", "omega2"), spec.base[:5])
    return [
        "sweep", "--vary", spec.varying, f"--start={spec.start!r}",
        f"--stop={spec.stop!r}", "--count", str(spec.count), "--format", "csv",
        "--units", spec.base.units.value,
        *(f"--{name}={value!r}" for name, value in flags),
    ]


def base(m=1.0, r1=1.0, r2=1.5, omega1=0.01, omega2=0.02, units=NATURAL):
    return InterferometerConfig(m, r1, r2, omega1, omega2, units)


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
def test_sweep_rows_equal_the_per_row_reference_bit_for_bit(spec):
    try:
        expected = reference_sweep_rows(spec)
    except ValueError:
        expected = None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(csv_sweep_argv(spec))
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
