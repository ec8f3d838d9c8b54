import math

import numpy as np
import pytest

from qsagnac import (
    UnitSystem,
    constants_for,
    flat_background,
    perturbation,
    regime_check,
    rotating_disk_metric,
)

NATURAL = constants_for(UnitSystem.NATURAL)


def test_zero_rotation_reduces_to_cylindrical_minkowski():
    metric = rotating_disk_metric(0.0, 2.0, NATURAL)
    assert np.array_equal(metric.g, np.diag([-1.0, 1.0, 4.0, 1.0]))


def test_component_layout():
    omega, r = 0.1, 1.0
    g = rotating_disk_metric(omega, r, NATURAL).g
    assert math.isclose(g[0, 0], -0.99, rel_tol=1e-12)
    assert g[0, 2] == g[2, 0] == 0.1
    assert g[1, 1] == 1.0
    assert g[2, 2] == 1.0
    assert g[3, 3] == 1.0
    # every other component vanishes
    mask = np.zeros((4, 4), dtype=bool)
    for idx in [(0, 0), (0, 2), (2, 0), (1, 1), (2, 2), (3, 3)]:
        mask[idx] = True
    assert np.all(g[~mask] == 0.0)
    assert np.array_equal(g, g.T)


def test_general_components_follow_the_closed_forms():
    rng = np.random.default_rng(11)
    for _ in range(100):
        omega = rng.uniform(-0.4, 0.4)
        r = rng.uniform(0.0, 2.0)
        g = rotating_disk_metric(omega, r, NATURAL).g
        assert math.isclose(
            g[0, 0], -1.0 + omega * omega * r * r, rel_tol=0, abs_tol=1e-15
        )
        assert math.isclose(g[0, 2], omega * r * r, rel_tol=1e-15, abs_tol=0)
        assert g[2, 2] == r * r


def test_perturbation_of_static_disk_vanishes():
    pert = perturbation(rotating_disk_metric(0.0, 3.0, NATURAL))
    assert pert.h00 == 0.0
    assert pert.h0phi == 0.0
    assert np.all(pert.full == 0.0)


def test_perturbation_example_values():
    pert = perturbation(rotating_disk_metric(0.1, 2.0, NATURAL))
    assert math.isclose(pert.h00, 0.04, rel_tol=1e-12)
    assert math.isclose(pert.h0phi, 0.4, rel_tol=1e-12)
    assert math.isclose(pert.full[0, 0], 0.04, rel_tol=1e-12)
    assert pert.full[0, 2] == pert.h0phi


def test_perturbation_round_trip_is_exact():
    rng = np.random.default_rng(13)
    for _ in range(200):
        omega = rng.uniform(-0.45, 0.45)
        r = rng.uniform(0.0, 2.0)
        metric = rotating_disk_metric(omega, r, NATURAL)
        pert = perturbation(metric)
        assert np.array_equal(pert.full + flat_background(r), metric.g)


def test_h00_even_and_h0phi_odd_in_omega():
    rng = np.random.default_rng(17)
    for _ in range(100):
        omega = rng.uniform(0.0, 0.4)
        r = rng.uniform(0.0, 2.0)
        plus = perturbation(rotating_disk_metric(omega, r, NATURAL))
        minus = perturbation(rotating_disk_metric(-omega, r, NATURAL))
        assert plus.h00 == minus.h00
        assert plus.h0phi == -minus.h0phi


def test_h00_equals_beta_squared_bitwise():
    rng = np.random.default_rng(19)
    for _ in range(200):
        omega = rng.uniform(-0.45, 0.45)
        r = rng.uniform(0.0, 2.0)
        pert = perturbation(rotating_disk_metric(omega, r, NATURAL))
        beta = regime_check(omega, r, NATURAL).beta
        assert pert.h00 == beta * beta


def test_si_units_carry_the_1_over_c_factors():
    consts = constants_for(UnitSystem.SI)
    omega, r = 100.0, 1.0
    g = rotating_disk_metric(omega, r, consts).g
    assert math.isclose(
        g[0, 0], -1.0 + (omega * r / consts.c) ** 2, rel_tol=1e-15
    )
    assert math.isclose(g[0, 2], omega * r * r / consts.c, rel_tol=1e-15)


def test_error_regime_and_negative_radius_rejected():
    with pytest.raises(ValueError):
        rotating_disk_metric(1.5, 1.0, NATURAL)
    with pytest.raises(ValueError):
        rotating_disk_metric(0.1, -1.0, NATURAL)
    with pytest.raises(ValueError):
        rotating_disk_metric(math.nan, 1.0, NATURAL)
    with pytest.raises(ValueError, match="overflows"):  # r * r is inf
        rotating_disk_metric(0.0, 1e200, NATURAL)
