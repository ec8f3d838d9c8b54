"""Property tests of the CLI's float formatting and JSON serializer, of
the sweep grid and of the sweep rows' regime."""

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
from qsagnac.cli import format_float, to_json
from qsagnac.constants import require_valid_config
from qsagnac.design import VARY_CHOICES, _grid


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


NATURAL = constants_for(UnitSystem.NATURAL)
# radii up to just below sqrt(max double) = 1.34e154, so a base config can
# sit where a swept radius squared overflows
RADII = st.floats(0.0, 1.3e154)
WIDE = st.floats(-1e160, 1e160)


@st.composite
def natural_sweeps(draw):
    m = draw(st.floats(1e-300, 1e300))
    r1, r2 = draw(RADII), draw(RADII)
    reach = max(r1, r2)
    top = min(0.999 / reach, 1e300) if reach else 1e300  # keeps every rim below c
    omega1, omega2 = draw(st.floats(-top, top)), draw(st.floats(-top, top))
    base = InterferometerConfig(m, r1, r2, omega1, omega2, UnitSystem.NATURAL)
    start, stop = sorted((draw(WIDE), draw(WIDE)))
    return SweepSpec(draw(st.sampled_from(VARY_CHOICES)), start, stop,
                     draw(st.integers(1, 12)), base)


# the five numbers of a config, each under its --vary name where it has one
ROW_NAMES = ("mass", "r1", "r2", "omega1", "omega2")


@settings(max_examples=60, deadline=None)
@given(natural_sweeps())
# r2^2 overflows in the last two rows: the gate refuses them, so they are error
@example(SweepSpec("r2", 1.3e154, 1.4e154, 3, InterferometerConfig(
    1.0, 1.3e154, 1.3e154, 1e-170, 2e-170, UnitSystem.NATURAL)))
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
            expected = require_valid_config(*numbers.values(), NATURAL).status
        except ValueError:
            expected = RegimeStatus.ERROR
        assert row.regime is expected
