"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
from helpers import (
    concurrence,
    entanglement_entropy,
    random_config,
    schmidt_decompose,
    svd_concurrence,
)

from qsagnac import (
    InterferometerConfig,
    PureState2x2,
    UnitSystem,
    assemble_full_state,
    bohr_orbit,
    concurrence_from_delta,
    constants_for,
    entanglement_report,
    entangling_phase,
    hydrogen_pair_report,
    sagnac_phase,
    solve_omega2,
    solve_r2,
)
from qsagnac.cli import main as cli_main

NATURAL = constants_for(UnitSystem.NATURAL)
SI = constants_for(UnitSystem.SI)
GOLDEN_DIR = Path(__file__).parent / "golden"


def report_pass(number, label, t0):
    print(f"criterion {number} ({label}): PASS in {time.perf_counter() - t0:.3f}s")


def test_criterion_1_phase_chain_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        m = 10.0 ** rng.uniform(-3, 3)
        omega = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, -1.4)
        r = rng.uniform(0.01, 2.0)
        factored = (
            (m * NATURAL.c**2 / NATURAL.hbar)
            * (omega * r / NATURAL.c) ** 2
            * (math.tau / abs(omega))
            * math.copysign(1.0, omega)
        )
        closed = 2.0 * m * omega * math.pi * r * r / NATURAL.hbar
        assert math.isclose(factored, closed, rel_tol=1e-12)
        assert math.isclose(sagnac_phase(m, omega, r, NATURAL).phi, closed, rel_tol=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_pass(1, "loop-phase chain identity, 1000 random inputs", t0)


def test_criterion_2_product_to_entangled_transition():
    t0 = time.perf_counter()
    # all branch phases are even multiples of pi -> product state
    product = InterferometerConfig(
        m=1000.0, r1=1.0, r2=2.0, omega1=0.001, omega2=0.002,
        units=UnitSystem.NATURAL,
    )
    report = entanglement_report(product)
    assert abs(report.concurrence) <= 1e-10
    assert abs(report.entropy_bits) <= 1e-10

    worked = InterferometerConfig(
        m=1000.0, r1=1.0, r2=math.sqrt(2.0), omega1=0.01, omega2=0.0105,
        units=UnitSystem.NATURAL,
    )
    report = entanglement_report(worked)
    assert abs(report.concurrence - 1.0) <= 1e-9
    assert abs(report.entropy_bits - 1.0) <= 1e-9
    assert abs(report.schmidt[0] - math.sqrt(0.5)) <= 1e-9
    assert abs(report.schmidt[1] - math.sqrt(0.5)) <= 1e-9
    assert report.maximal
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_pass(2, "product state vs maximally entangled target", t0)


def test_criterion_3_concurrence_law_vs_svd_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(1000):
        cfg = random_config(rng)
        law = concurrence_from_delta(entangling_phase(cfg))
        oracle = svd_concurrence(assemble_full_state(cfg))
        assert abs(law - oracle) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report_pass(3, "|sin(delta/2)| vs SVD concurrence, 1000 configs", t0)


def test_criterion_4_solver_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(200):
        m = rng.uniform(500.0, 2000.0)
        r1 = rng.uniform(0.3, 1.5)
        r2 = r1 + rng.uniform(0.3, 0.8)
        omega1 = rng.uniform(0.001, 0.02)
        k = int(rng.integers(-2, 3))
        omega2 = solve_omega2(m, r1, r2, omega1, k, NATURAL)
        cfg = InterferometerConfig(
            m=m, r1=r1, r2=r2, omega1=omega1, omega2=omega2,
            units=UnitSystem.NATURAL,
        )
        state = assemble_full_state(cfg)
        assert abs(concurrence(state) - 1.0) <= 1e-9
        s1, s2 = schmidt_decompose(state)
        assert abs(2.0 * s1 * s2 - 1.0) <= 1e-9  # SVD cross-check
        assert math.isclose(solve_r2(m, r1, omega1, omega2, k, NATURAL), r2, rel_tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report_pass(4, "solver round-trips, 200 random inputs", t0)


def test_criterion_5_hydrogen_estimate():
    t0 = time.perf_counter()
    for n in range(1, 51):
        orbit = bohr_orbit(n, SI)
        estimate = SI.m_e * orbit.omega * orbit.area / SI.hbar
        assert math.isclose(estimate, math.pi * n, rel_tol=1e-6)
    ground = bohr_orbit(1, SI)
    ground_estimate = SI.m_e * ground.omega * ground.area / SI.hbar
    assert abs(ground_estimate - 3.14) < 0.01  # order one, as claimed

    report = hydrogen_pair_report(1, 2, SI)
    assert abs(report.concurrence - math.sin(math.pi / 8)) <= 1e-9
    lam_hi = (1.0 + math.cos(math.pi / 8)) / 2.0
    lam_lo = (1.0 - math.cos(math.pi / 8)) / 2.0
    oracle = -lam_hi * math.log2(lam_hi) - lam_lo * math.log2(lam_lo)
    assert abs(report.entropy_bits - oracle) <= 1e-7
    assert abs(report.entropy_bits - 0.2334) <= 5e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_pass(5, "Bohr-orbit phase pi*n and (1,2) pair report", t0)


def test_criterion_6_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)

    for _ in range(500):  # local phase invariance
        state = assemble_full_state(random_config(rng))
        phases = np.exp(1j * rng.uniform(0.0, math.tau, size=4))
        dressed = PureState2x2(state.amplitudes * phases[:2, None] * phases[None, 2:])
        assert abs(concurrence(dressed) - concurrence(state)) <= 1e-10
        assert abs(entanglement_entropy(dressed) - entanglement_entropy(state)) <= 1e-10

    for _ in range(500):  # swap invariance
        cfg = random_config(rng)
        base = entanglement_report(cfg)
        swapped_r = InterferometerConfig(
            m=cfg.m, r1=cfg.r2, r2=cfg.r1, omega1=cfg.omega1, omega2=cfg.omega2,
            units=cfg.units,
        )
        swapped_o = InterferometerConfig(
            m=cfg.m, r1=cfg.r1, r2=cfg.r2, omega1=cfg.omega2, omega2=cfg.omega1,
            units=cfg.units,
        )
        for other in (swapped_r, swapped_o):
            report = entanglement_report(other)
            assert abs(report.delta + base.delta) <= 1e-10 * max(1.0, abs(base.delta))
            assert abs(report.concurrence - base.concurrence) <= 1e-10
            assert abs(report.entropy_bits - base.entropy_bits) <= 1e-10

    for _ in range(500):  # frequency-shift invariance of delta
        cfg = random_config(rng)
        shift = rng.uniform(-0.005, 0.005)
        shifted = InterferometerConfig(
            m=cfg.m, r1=cfg.r1, r2=cfg.r2,
            omega1=cfg.omega1 + shift, omega2=cfg.omega2 + shift,
            units=cfg.units,
        )
        assert math.isclose(
            entangling_phase(shifted), entangling_phase(cfg),
            rel_tol=1e-10, abs_tol=1e-14,
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report_pass(6, "local-phase, swap, and frequency-shift invariance", t0)


def test_criterion_7_cli_determinism(capsys):
    t0 = time.perf_counter()
    invocations = {
        "entangle.json": [
            "entangle", "--units", "natural", "--m", "1000", "--r1", "1",
            "--r2", "1.41421356237", "--omega1", "0.01", "--omega2", "0.0105",
        ],
        "solve.json": [
            "solve", "--target", "omega2", "--units", "natural", "--m", "1000",
            "--r1", "1", "--r2", "1.41421356237", "--omega1", "0.01", "--k", "0",
        ],
        "phase.json": [
            "phase", "--units", "natural", "--m", "1", "--omega", "0", "--r", "5",
        ],
    }
    for name, argv in invocations.items():
        outputs = []
        for _ in range(3):
            assert cli_main(list(argv)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0] == (GOLDEN_DIR / name).read_text()
    # spot-check the solved value survives the JSON round trip
    assert cli_main(invocations["solve.json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert math.isclose(payload["value"], 0.0105, rel_tol=1e-9)
    report_pass(7, "golden-file CLI determinism", t0)
