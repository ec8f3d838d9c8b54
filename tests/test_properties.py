"""Property tests of the CLI's float formatting and JSON serializer."""

import json
import math
import string
import struct

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from qsagnac.cli import format_float, to_json


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
