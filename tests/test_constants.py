import math

import numpy as np
import pytest

from qsagnac import RegimeStatus, UnitSystem, constants_for, regime_check

NATURAL = constants_for(UnitSystem.NATURAL)
SI = constants_for(UnitSystem.SI)


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


@pytest.mark.parametrize(
    "omega,r,expected_beta,expected_status",
    [
        (0.01, 1.0, 0.01, RegimeStatus.OK),
        (0.75, 1.41421356, 0.75 * 1.41421356, RegimeStatus.ERROR),
        (0.25, 1.41421356, 0.25 * 1.41421356, RegimeStatus.WARN),
    ],
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
