"""Property tests of the CLI's float formatting and JSON serializer and of
the sweep grid."""

import json
import math
import string
import struct
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given
from hypothesis import strategies as st

from qsagnac.cli import format_float, to_json
from qsagnac.design import _grid


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
