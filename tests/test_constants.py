import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsagnac import (
    ConstantSet,
    InterferometerConfig,
    RegimeStatus,
    UnitSystem,
    constants_for,
    regime_check,
    rotating_disk_metric,
    sagnac_phase,
)
from qsagnac import constants
from qsagnac.constants import require_linear_regime, require_valid_config

NATURAL = constants_for(UnitSystem.NATURAL)
SI = constants_for(UnitSystem.SI)


def member_id(value):
    """str(member) as a member's test id, which pytest gives an Enum member
    and no other class; None leaves any other value's id to pytest."""
    return str(value) if isinstance(value, (UnitSystem, RegimeStatus)) else None


def test_natural_units_are_exact():
    assert NATURAL.hbar == 1.0
    assert NATURAL.c == 1.0
    assert NATURAL.m_e == 1.0
    assert NATURAL.alpha == 7.2973525693e-3
    assert NATURAL.a0 == 1.0 / 7.2973525693e-3


def test_si_constants_match_codata_2018():
    # hbar is h / 2pi with h exact; the published table truncates the digits.
    assert SI.hbar == 6.62607015e-34 / (2.0 * math.pi)
    assert math.isclose(SI.hbar, 1.054571817e-34, rel_tol=1e-9)
    assert SI.c == 2.99792458e8
    assert SI.m_e == 9.1093837015e-31
    assert SI.a0 == 5.29177210903e-11
    assert SI.alpha == 7.2973525693e-3


def test_constant_scales_are_mutually_consistent():
    # a0 = hbar / (m_e c alpha) ties the atomic scales together.
    for consts in (SI, NATURAL):
        assert math.isclose(
            consts.a0, consts.hbar / (consts.m_e * consts.c * consts.alpha),
            rel_tol=1e-9,
        )


def test_constants_for_is_pure():
    for units in UnitSystem:
        a = constants_for(units)
        b = constants_for(units)
        assert a == b


def test_constants_for_refuses_anything_but_a_unit_system():
    # the value string is not a member: it used to get the natural table
    for units in ("si", "natural", None):
        with pytest.raises(ValueError, match="unit system"):
            constants_for(units)


MEMBERS = [*UnitSystem, *RegimeStatus]


def test_members_iterate_in_declaration_order():
    assert [m.name for m in UnitSystem] == ["SI", "NATURAL"]
    assert [m.name for m in RegimeStatus] == ["OK", "WARN", "ERROR"]
    assert list(UnitSystem) == [UnitSystem.SI, UnitSystem.NATURAL]


@pytest.mark.parametrize("member", MEMBERS, ids=member_id)
def test_a_member_is_found_by_its_value_or_itself(member):
    cls = type(member)
    assert cls(member.value) is member
    assert cls(member) is member
    assert isinstance(member, cls)


@pytest.mark.parametrize("member", MEMBERS, ids=member_id)
def test_a_member_prints_and_reads_as_an_enum_member_does(member):
    cls, name, value = type(member).__name__, member.name, member.value
    assert getattr(type(member), name) is member
    assert value == member._value_ == name.lower()
    assert repr(member) == f"<{cls}.{name}: {value!r}>"
    assert str(member) == f"{member}" == f"{cls}.{name}"
    with pytest.raises(AttributeError):
        member.value = "other"


@pytest.mark.parametrize("member", MEMBERS, ids=member_id)
def test_pickle_and_copies_give_the_same_member(member):
    assert pickle.loads(pickle.dumps(member)) is member
    assert copy.copy(member) is member
    assert copy.deepcopy(member) is member
    assert copy.deepcopy([member])[0] is member


@pytest.mark.parametrize(
    "cls,value,message",
    [
        (UnitSystem, "furlong", "'furlong' is not a valid UnitSystem"),
        (UnitSystem, "SI", "'SI' is not a valid UnitSystem"),
        (UnitSystem, ["si"], "['si'] is not a valid UnitSystem"),  # unhashable
        (UnitSystem, RegimeStatus.OK, "<RegimeStatus.OK: 'ok'> is not a valid UnitSystem"),
        (RegimeStatus, None, "None is not a valid RegimeStatus"),
    ],
)
def test_an_unknown_value_is_refused_in_enums_words(cls, value, message):
    with pytest.raises(ValueError) as refused:
        cls(value)
    assert str(refused.value) == message


def test_constant_set_refusals():
    fields = dict(hbar=1.0, c=1.0, m_e=1.0, a0=137.0, alpha=0.0073)
    for name in fields:
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="strictly positive"):
                ConstantSet(**{**fields, name: bad})
    for alpha in (1.0, 2.0):
        with pytest.raises(ValueError, match="below 1"):
            ConstantSet(**{**fields, "alpha": alpha})


@pytest.mark.parametrize(
    "omega,r,expected_beta,expected_status",
    [
        (0.01, 1.0, 0.01, RegimeStatus.OK),
        (0.75, 1.41421356, 0.75 * 1.41421356, RegimeStatus.ERROR),
        (0.25, 1.41421356, 0.25 * 1.41421356, RegimeStatus.WARN),
    ],    ids=member_id,
)
def test_regime_check_examples(omega, r, expected_beta, expected_status):
    check = regime_check(omega, r, NATURAL)
    assert check.beta == expected_beta
    assert check.status is expected_status


def test_regime_check_thresholds_are_inclusive():
    assert regime_check(0.1, 1.0, NATURAL).status is RegimeStatus.OK
    assert regime_check(1.0, 1.0, NATURAL).status is RegimeStatus.ERROR
    assert regime_check(0.5, 1.0, NATURAL).status is RegimeStatus.WARN
    # a nan beta is past every threshold
    assert regime_check(math.nan, 1.0, NATURAL).status is RegimeStatus.ERROR
    assert regime_check(math.inf, 0.0, NATURAL).status is RegimeStatus.ERROR


def test_regime_check_sign_of_omega_is_irrelevant():
    assert regime_check(-0.3, 1.0, NATURAL) == regime_check(0.3, 1.0, NATURAL)


def test_regime_check_rejects_negative_radius():
    with pytest.raises(ValueError):
        regime_check(0.1, -1.0, NATURAL)
    with pytest.raises(ValueError):
        regime_check(0.1, math.nan, NATURAL)


def test_regime_check_is_monotone():
    rank = {RegimeStatus.OK: 0, RegimeStatus.WARN: 1, RegimeStatus.ERROR: 2}
    rng = np.random.default_rng(7)
    for _ in range(300):
        omega = rng.uniform(0.0, 1.5)
        r = rng.uniform(0.0, 2.0)
        grow = 1.0 + rng.uniform(0.0, 3.0)
        base = rank[regime_check(omega, r, NATURAL).status]
        assert rank[regime_check(omega * grow, r, NATURAL).status] >= base
        assert rank[regime_check(omega, r * grow, NATURAL).status] >= base


@pytest.mark.parametrize(
    "gate,args,message",
    [
        (regime_check, (0.1, -1.0), "radius must be non-negative"),
        (regime_check, (0.1, math.nan), "radius must be non-negative"),
        (require_linear_regime, (0.1, -1.0), "radius must be non-negative"),
        (require_linear_regime, (1.0, 1.0), "rim speed beta = 1 is outside the linear regime"),
        (require_linear_regime, (math.nan, 1.0),
         "rim speed beta = nan is outside the linear regime"),
        (require_linear_regime, (0.0, 1e200),
         "radius 1e+200 is too large: r^2 overflows a double"),
        (require_valid_config, (0.0, 1.0, 1.0, 0.1, 0.1), "mass must be positive and finite"),
        (require_valid_config, (-1.0, 1.0, 1.0, 0.1, 0.1), "mass must be positive and finite"),
        (require_valid_config, (math.inf, 1.0, 1.0, 0.1, 0.1),
         "mass must be positive and finite"),
        (require_valid_config, (math.nan, 1.0, 1.0, 0.1, 0.1),
         "mass must be positive and finite"),
        (require_valid_config, (1.0, -1.0, 1.0, 0.1, 0.1), "radii must be non-negative"),
        (require_valid_config, (1.0, 1.0, math.nan, 0.1, 0.1), "radii must be non-negative"),
        # max(|omega1|, |omega2|) would drop this nan
        (require_valid_config, (1.0, 1.0, 1.0, 0.1, math.nan), "frequencies must be numbers"),
        (require_valid_config, (1.0, 1.0, 2.0, 0.1, -0.6),
         "rim speed beta = 1.2 is outside the linear regime"),
        (require_valid_config, (1.0, 1e200, 1.0, 0.0, 0.0),
         "radius 1e+200 is too large: r^2 overflows a double"),
    ],
)
def test_the_gate_refuses_in_its_own_words(gate, args, message):
    with pytest.raises(ValueError) as refused:
        gate(*args, NATURAL)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "units,m,r,omega",
    [
        (UnitSystem.NATURAL, 1.0, 1.0, 0.0),
        (UnitSystem.NATURAL, 1.0, 1.0, 0.1),
        (UnitSystem.NATURAL, 1000.0, 1.41421356, -0.25),
        (UnitSystem.SI, 1e-21, 0.01, 1e3),
    ],    ids=member_id,
)
def test_each_gate_builds_on_the_one_before(monkeypatch, units, m, r, omega):
    consts = constants_for(units)
    check = regime_check(omega, r, consts)
    assert require_valid_config(m, r, r, omega, omega, consts) == check
    assert require_linear_regime(omega, r, consts) == check
    # every public entry point reaches the rim speed through regime_check
    calls = []

    def counted(*args):
        calls.append(args)
        return check

    monkeypatch.setattr(constants, "regime_check", counted)
    seen = []
    InterferometerConfig(m, r, r, omega, omega, units)
    seen.append(len(calls))
    rotating_disk_metric(omega, r, consts)
    seen.append(len(calls))
    sagnac_phase(m, omega, r, consts)
    seen.append(len(calls))
    assert seen == [1, 2, 3]


# One fast-path entangle call and one state call in a fresh interpreter without
# site (-S), since a site may preload modules and hide an import; prints the
# modules the calls added to those loaded at start.
FAST_PATH_PROBE = """
import io, sys
before = set(sys.modules)
sys.stdout = io.StringIO()
from qsagnac.cli import main
config = ["--m", "1000", "--r1", "1", "--r2", "1.41421356237",
          "--omega1", "0.01", "--omega2", "0.0105", "--units", "natural"]
assert main(["entangle", *config]) == main(["state", *config]) == 0
assert '"concurrence"' in sys.stdout.getvalue() and '"amplitudes"' in sys.stdout.getvalue()
sys.__stdout__.write(" ".join(sorted(set(sys.modules) - before)))
"""


def test_a_fast_path_call_loads_no_enum_argparse_or_extension():
    src = str(Path(constants.__file__).parents[1])
    added = subprocess.run(
        [sys.executable, "-S", "-c", FAST_PATH_PROBE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    ).stdout.split()
    assert "qsagnac.state" in added
    assert {"enum", "functools", "argparse", "re", "cmath", "numpy"}.isdisjoint(added)
