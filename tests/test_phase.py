import math

import mpmath
import numpy as np
import pytest

from qsagnac import (
    UnitSystem,
    constants_for,
    hamiltonian_energy,
    loop_phase,
    loop_time,
    sagnac_phase,
    two_radius_relative_phase,
)

NATURAL = constants_for(UnitSystem.NATURAL)


def random_si_or_natural(rng, units):
    """(m, omega, r) drawn where the rim stays slow in either unit system."""
    if units is UnitSystem.SI:
        return (
            10.0 ** rng.uniform(-27, -18),
            rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 4),
            10.0 ** rng.uniform(-4, 0),
        )
    return (
        10.0 ** rng.uniform(-3, 3),
        rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, -1.4),
        rng.uniform(0.01, 2.0),
    )


def factored_phase_chain(m, omega, r, consts):
    """Independent oracle: the factored energy-times-time evaluation."""
    h00 = (omega * r / consts.c) ** 2
    t_loop = math.tau / abs(omega)
    return (m * consts.c * consts.c / consts.hbar) * h00 * t_loop * math.copysign(
        1.0, omega
    )


def test_loop_time():
    assert loop_time(0.01) == 628.3185307179587  # 200 pi
    assert loop_time(-0.01) == 628.3185307179587
    with pytest.raises(ValueError):
        loop_time(0.0)


def test_hamiltonian_energy():
    assert hamiltonian_energy(1.0, 0.0, NATURAL) == 0.0
    assert math.isclose(hamiltonian_energy(1.0, 0.04, NATURAL), -0.02, rel_tol=1e-15)
    # SI: -1/2 m c^2 h00
    si = constants_for(UnitSystem.SI)
    m, h00 = 2.0e-27, 1e-10
    assert math.isclose(
        hamiltonian_energy(m, h00, si), -0.5 * m * si.c**2 * h00, rel_tol=1e-15
    )


def test_loop_phase_is_energy_times_loop_time():
    # phi = -2 E t_loop / hbar * sign(omega), E = hamiltonian_energy(m, h00)
    rng = np.random.default_rng(61)
    for units in UnitSystem:
        consts = constants_for(units)
        for _ in range(300):
            m, omega, r = random_si_or_natural(rng, units)
            h00 = sagnac_phase(m, omega, r, consts).h00
            energy = hamiltonian_energy(m, h00, consts)
            chain = -2.0 * energy * loop_time(omega) / consts.hbar
            assert math.isclose(
                loop_phase(m, omega, r, consts),
                math.copysign(chain, omega),
                rel_tol=1e-12,
            )


def test_sagnac_phase_worked_example():
    result = sagnac_phase(1.0, 0.001, 1.0, NATURAL)
    # oracle: factored_phase_chain(1, 0.001, 1) = 0.006283185307179586 = 2 pi / 1000
    assert math.isclose(result.phi, 0.006283185307179586, rel_tol=1e-12)
    assert math.isclose(result.phi, factored_phase_chain(1.0, 0.001, 1.0, NATURAL), rel_tol=1e-12)
    assert result.area == math.pi
    assert result.t_loop == math.tau / 0.001
    assert result.h00 == (0.001) ** 2


def test_zero_rotation_gives_zero_phase_with_undefined_loop_time():
    result = sagnac_phase(1.0, 0.0, 5.0, NATURAL)
    assert result.phi == 0.0
    assert result.t_loop is None
    assert result.area == math.pi * 25.0


def test_phase_equals_2m_omega_area_over_hbar():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = rng.uniform(0.1, 100.0)
        omega = rng.uniform(-0.05, 0.05)
        r = rng.uniform(0.0, 2.0)
        result = sagnac_phase(m, omega, r, NATURAL)
        assert math.isclose(
            result.phi, 2.0 * m * omega * math.pi * r * r, rel_tol=1e-12, abs_tol=1e-300
        )


def test_chain_identity_random():
    rng = np.random.default_rng(29)
    for _ in range(500):
        m = 10.0 ** rng.uniform(-3, 3)
        omega = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, -1.4)
        r = rng.uniform(0.01, 2.0)
        result = sagnac_phase(m, omega, r, NATURAL)
        assert math.isclose(result.phi, factored_phase_chain(m, omega, r, NATURAL), rel_tol=1e-12)


def test_linearity_and_antisymmetry():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = rng.uniform(0.1, 50.0)
        omega = rng.uniform(1e-4, 0.04)
        r = rng.uniform(0.01, 2.0)
        phi = sagnac_phase(m, omega, r, NATURAL).phi
        assert math.isclose(sagnac_phase(3.0 * m, omega, r, NATURAL).phi, 3.0 * phi, rel_tol=1e-12)
        assert math.isclose(sagnac_phase(m, 2.0 * omega, r, NATURAL).phi, 2.0 * phi, rel_tol=1e-12)
        assert math.isclose(sagnac_phase(m, omega, 2.0 * r, NATURAL).phi, 4.0 * phi, rel_tol=1e-12)
        assert sagnac_phase(m, -omega, r, NATURAL).phi == -phi


def test_two_radius_relative_phase():
    assert two_radius_relative_phase(1.0, 0.001, 1.0, 1.0, NATURAL) == 0.0
    # oracle: 2 * 0.001 * (4 pi - pi) = 0.01884955592153876
    assert math.isclose(
        two_radius_relative_phase(1.0, 0.001, 1.0, 2.0, NATURAL),
        0.01884955592153876,
        rel_tol=1e-12,
    )


def test_two_radius_phase_is_difference_of_loop_phases():
    rng = np.random.default_rng(37)
    for _ in range(200):
        m = rng.uniform(0.1, 50.0)
        omega = rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 0.04)
        r1 = rng.uniform(0.0, 1.0)
        r2 = r1 + rng.uniform(0.05, 1.0)
        direct = two_radius_relative_phase(m, omega, r1, r2, NATURAL)
        diff = (
            sagnac_phase(m, omega, r2, NATURAL).phi
            - sagnac_phase(m, omega, r1, NATURAL).phi
        )
        assert math.isclose(direct, diff, rel_tol=1e-12)


def test_two_radius_phase_is_accurate_for_close_radii():
    # r2^2 - r1^2 formed directly cancels most of its digits when the radii
    # are close; the factored (r2 - r1)(r2 + r1) keeps it within a few ulp.
    rng = np.random.default_rng(67)
    with mpmath.workdps(50):
        for units in UnitSystem:
            consts = constants_for(units)
            for gap in (1e-3, -1e-3, 1e-9, -1e-9):
                for _ in range(100):
                    m, omega, r1 = random_si_or_natural(rng, units)
                    r2 = r1 * (1.0 + gap * rng.uniform(0.5, 1.5))
                    got = two_radius_relative_phase(m, omega, r1, r2, consts)
                    want = (
                        2 * mpmath.mpf(m) * mpmath.mpf(omega) * mpmath.pi
                        * (mpmath.mpf(r2) ** 2 - mpmath.mpf(r1) ** 2)
                        / mpmath.mpf(consts.hbar)
                    )
                    assert abs(got - want) <= 4 * math.ulp(float(want)), (units, gap)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        sagnac_phase(0.0, 0.001, 1.0, NATURAL)
    with pytest.raises(ValueError):
        sagnac_phase(1.0, 2.0, 1.0, NATURAL)  # rim speed 2c
    with pytest.raises(ValueError):
        sagnac_phase(1.0, 0.001, -1.0, NATURAL)
    with pytest.raises(ValueError):
        two_radius_relative_phase(1.0, 0.9, 0.5, 2.0, NATURAL)  # error at max r
    # a nan in any argument is refused, not returned as a nan phase
    with pytest.raises(ValueError):
        sagnac_phase(math.nan, 0.1, 1.0, NATURAL)
    # an infinite mass is refused, not returned as phi = inf
    with pytest.raises(ValueError, match="mass"):
        sagnac_phase(math.inf, 0.1, 1.0, NATURAL)
    with pytest.raises(ValueError):
        sagnac_phase(1.0, math.nan, 1.0, NATURAL)
    with pytest.raises(ValueError):
        sagnac_phase(1.0, 0.1, math.nan, NATURAL)
    with pytest.raises(ValueError):
        two_radius_relative_phase(1.0, 0.1, 1.0, math.nan, NATURAL)
    with pytest.raises(ValueError):
        two_radius_relative_phase(1.0, 0.1, math.nan, 1.0, NATURAL)
    # r * r overflows: refused naming the radius, not returned as phi = nan
    with pytest.raises(ValueError, match="radius"):
        sagnac_phase(1.0, 0.0, 1e200, NATURAL)
    with pytest.raises(ValueError, match="radius"):
        two_radius_relative_phase(1.0, 0.0, 1.0, 1e200, NATURAL)
