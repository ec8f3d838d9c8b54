import math

import pytest

from qsagnac import (
    InterferometerConfig,
    RegimeStatus,
    UnitSystem,
    bohr_orbit,
    constants_for,
    entanglement_report,
    hydrogen_pair_report,
    hydrogen_phase,
    regime_check,
)

SI = constants_for(UnitSystem.SI)


def test_ground_orbit():
    orbit = bohr_orbit(1, SI)
    assert orbit.r == SI.a0 == 5.29177210903e-11
    # oracle: alpha c / a0 = 4.134137333521859e16 rad/s
    assert math.isclose(orbit.omega, 4.134137333521859e16, rel_tol=1e-12)
    assert math.isclose(orbit.omega, 4.134e16, rel_tol=1e-4)
    assert orbit.area == math.pi * orbit.r * orbit.r


def test_orbit_scaling_laws():
    first = bohr_orbit(1, SI)
    second = bohr_orbit(2, SI)
    assert second.r == 4.0 * SI.a0
    assert math.isclose(second.omega, first.omega / 8.0, rel_tol=1e-15)


def test_bohr_quantization():
    for n in range(1, 51):
        orbit = bohr_orbit(n, SI)
        action = SI.m_e * orbit.omega * orbit.r * orbit.r
        assert math.isclose(action, n * SI.hbar, rel_tol=1e-9)


def test_rim_speed_is_always_deep_inside_the_ok_band():
    for n in range(1, 51):
        orbit = bohr_orbit(n, SI)
        check = regime_check(orbit.omega, orbit.r, SI)
        assert math.isclose(check.beta, SI.alpha / n, rel_tol=1e-12)
        assert check.beta < 0.008
        assert check.status is RegimeStatus.OK


def test_hydrogen_phase_values():
    phases = hydrogen_phase(1, SI)
    assert math.isclose(phases.estimate, math.pi, rel_tol=1e-6)
    assert math.isclose(phases.loop_phase, math.tau, rel_tol=1e-6)
    assert phases.loop_phase == 2.0 * phases.estimate

    phases3 = hydrogen_phase(3, SI)
    assert math.isclose(phases3.estimate, 3.0 * math.pi, rel_tol=1e-6)
    assert math.isclose(phases3.loop_phase, 6.0 * math.pi, rel_tol=1e-6)


def test_pair_report_1_2():
    report = hydrogen_pair_report(1, 2, SI)
    assert math.isclose(report.delta, -26.25 * math.pi, rel_tol=1e-9)
    assert math.isclose(report.concurrence, math.sin(math.pi / 8), abs_tol=1e-9)
    # eigenvalue oracle (1 +- cos(pi/8))/2 -> 0.23332662865093506 bits
    assert math.isclose(report.entropy_bits, 0.23332662865093506, abs_tol=1e-7)
    assert abs(report.entropy_bits - 0.2334) <= 5e-4
    assert math.isclose(report.schmidt[0], math.cos(math.pi / 16), abs_tol=1e-9)
    assert math.isclose(report.schmidt[1], math.sin(math.pi / 16), abs_tol=1e-9)
    assert not report.maximal


def test_pair_report_swap_symmetry():
    forward = hydrogen_pair_report(1, 2, SI)
    backward = hydrogen_pair_report(2, 1, SI)
    assert backward.concurrence == forward.concurrence
    assert math.isclose(backward.entropy_bits, forward.entropy_bits, abs_tol=1e-12)
    # swapping n1 and n2 flips both the radius and the frequency ordering,
    # so the two sign changes in delta cancel
    assert backward.delta == forward.delta


def test_pair_report_agrees_with_generic_pipeline():
    for n1, n2 in [(1, 2), (2, 3), (1, 3), (3, 5)]:
        orbit1, orbit2 = bohr_orbit(n1, SI), bohr_orbit(n2, SI)
        cfg = InterferometerConfig(
            m=SI.m_e, r1=orbit1.r, r2=orbit2.r,
            omega1=orbit1.omega, omega2=orbit2.omega, units=UnitSystem.SI,
        )
        assert entanglement_report(cfg) == hydrogen_pair_report(n1, n2, SI)


def test_far_apart_pairs_skip_the_cross_pair_gate():
    # The generic config guard pairs omega(n=1) with r(n=12): beta = 144 alpha > 1.
    with pytest.raises(ValueError):
        orbit1, orbit12 = bohr_orbit(1, SI), bohr_orbit(12, SI)
        InterferometerConfig(
            m=SI.m_e, r1=orbit1.r, r2=orbit12.r,
            omega1=orbit1.omega, omega2=orbit12.omega, units=UnitSystem.SI,
        )
    report = hydrogen_pair_report(1, 12, SI)
    assert 0.0 <= report.concurrence <= 1.0


def test_invalid_inputs():
    with pytest.raises(ValueError):
        bohr_orbit(0, SI)
    with pytest.raises(ValueError):
        hydrogen_pair_report(2, 2, SI)
    with pytest.raises(ValueError):
        bohr_orbit(1, constants_for(UnitSystem.NATURAL))
    # integers too large for a double: ValueError, not OverflowError
    with pytest.raises(ValueError):
        bohr_orbit(10**400, SI)
    with pytest.raises(ValueError):
        hydrogen_pair_report(1, 10**400, SI)
    # a Bohr orbit needs an integer n; a float is refused even when integral
    for n in (2.5, 3.0):
        for call in (lambda: bohr_orbit(n, SI), lambda: hydrogen_phase(n, SI),
                     lambda: hydrogen_pair_report(1, n, SI),
                     lambda: hydrogen_pair_report(n, 1, SI)):
            with pytest.raises(ValueError, match="integer"):
                call()
