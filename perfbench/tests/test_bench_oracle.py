"""The oracle against closed forms and the cases the benchmark must classify."""

import math

from mpmath import mpf

import oracle

README = (1000.0, 1.0, 1.41421356237, 0.01, 0.0105, "natural")
# SI probe: omega2 is the double the package's solver returns for k = 0
SI_PROBE = (1e-17, 0.01, 0.011, 1e3, 1000.0000000000002, "si")


def test_readme_config_is_maximally_entangled():
    rep = oracle.report(*README)
    assert abs(rep.concurrence - 1) < mpf(10) ** -20
    assert abs(rep.entropy_bits - 1) < mpf(10) ** -20
    assert all(abs(s - 1 / mpf(2).sqrt()) < mpf(10) ** -10 for s in rep.schmidt)
    assert rep.answerable and rep.naive_safe


def test_si_probe_is_answerable_and_not_maximal():
    rep = oracle.report(*SI_PROBE)
    assert rep.answerable
    assert not rep.naive_safe
    assert math.isclose(float(rep.concurrence), 0.989, abs_tol=1e-3)
    assert math.isclose(float(rep.concurrence), abs(math.sin(float(rep.delta) / 2)), rel_tol=1e-12)


def test_huge_delta_is_unanswerable():
    rep = oracle.report(1e-17, 0.01, 0.02, 1e3, 2e3, "si")
    assert abs(rep.delta) > 1e15
    assert not rep.answerable


def test_even_multiple_of_pi_is_a_product_state():
    rep = oracle.report(4.0, 1.0, 2.0, 0.5, 0.25, "natural")   # delta = -6 pi exactly
    with oracle.mp.workdps(60):
        assert abs(rep.delta + 6 * oracle.mp.pi) < mpf(10) ** -40
    assert rep.concurrence < mpf(10) ** -40
    assert rep.entropy_bits < mpf(10) ** -40


def test_schmidt_pair_squares_sum_to_one():
    rep = oracle.report(3.0, 0.4, 1.1, 0.02, -0.01, "natural")
    s1, s2 = rep.schmidt
    with oracle.mp.workdps(60):
        assert abs(s1 * s1 + s2 * s2 - 1) < mpf(10) ** -40
        assert abs(2 * s1 * s2 - rep.concurrence) < mpf(10) ** -40


def test_solver_round_trip_on_the_readme_config():
    m, r1, r2, w1, _, units = README
    case = oracle.solver_case("omega2", m, r1, r2, w1, 0, units)
    assert case.solvable and case.answerable
    assert math.isclose(float(case.exact), 0.0105, rel_tol=1e-9)
    assert oracle.solver_value_ok("omega2", m, r1, r2, w1, 0.0105, units)
    assert not oracle.solver_value_ok("omega2", m, r1, r2, w1, 0.0106, units)


def test_solver_past_double_resolution_is_unanswerable():
    m, r1, r2, w1, _, units = SI_PROBE
    case = oracle.solver_case("omega2", m, r1, r2, w1, 0, units)
    assert case.solvable and not case.answerable


def test_r2_solver_without_real_radius_is_unsolvable():
    assert oracle.exact_r2(1.0, 0.1, 0.02, 0.01, 0, "natural") is None


def test_regime_bands():
    assert oracle.regime(0.05, 1.0, "natural")[1] == "ok"
    assert oracle.regime(0.5, 1.0, "natural")[1] == "warn"
    assert oracle.regime(1.0, 1.0, "natural")[1] == "error"


def test_delta_tolerance_is_absolute_when_small_and_relative_when_large():
    assert oracle.close_delta(1.0 + 5e-10, mpf(1))
    assert not oracle.close_delta(1.0 + 5e-9, mpf(1))
    assert oracle.close_delta(1e8 * (1 + 5e-13), mpf(10) ** 8)


def test_hydrogen_estimate_is_pi_n():
    fig = oracle.hydrogen_figures(3)
    assert math.isclose(float(fig["estimate"]), 3 * math.pi, rel_tol=1e-9)
    assert math.isclose(float(fig["beta"]), 7.2973525693e-3 / 3, rel_tol=1e-12)
