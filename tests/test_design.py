import contextlib
import io
import math
import os

import numpy as np
import pytest
from helpers import concurrence

from qsagnac import (
    InterferometerConfig,
    RegimeStatus,
    SweepSpec,
    UnitSystem,
    assemble_full_state,
    concurrence_from_delta,
    constants_for,
    entangling_phase_value,
    solve_omega2,
    solve_r2,
    sweep,
)
from qsagnac import design
from qsagnac.cli import main
from qsagnac.design import MAX_SWEEP_ROWS

NATURAL = constants_for(UnitSystem.NATURAL)
SI = constants_for(UnitSystem.SI)

BASE = InterferometerConfig(
    m=1000.0, r1=1.0, r2=math.sqrt(2.0), omega1=0.01, omega2=0.0105,
    units=UnitSystem.NATURAL,
)


def test_solve_omega2_worked_example():
    omega2 = solve_omega2(1000.0, 1.0, math.sqrt(2.0), 0.01, 0, NATURAL)
    assert math.isclose(omega2, 0.0105, rel_tol=1e-12)
    assert math.isclose(
        solve_omega2(1000.0, 1.0, math.sqrt(2.0), 0.01, 1, NATURAL),
        0.0115, rel_tol=1e-12,
    )


def test_solve_omega2_solution_is_maximally_entangling():
    omega2 = solve_omega2(1000.0, 1.0, math.sqrt(2.0), 0.01, 0, NATURAL)
    cfg = InterferometerConfig(
        m=1000.0, r1=1.0, r2=math.sqrt(2.0), omega1=0.01, omega2=omega2,
        units=UnitSystem.NATURAL,
    )
    assert abs(concurrence(assemble_full_state(cfg)) - 1.0) <= 1e-9
    # SI probe whose detuning, 2.5e-6 rad/s on omega1 = 1e3, a double
    # resolves: the answer and the doubles 8 ulp either side of it each
    # stay within 2e-13 of maximal, well inside 1e-9
    omega2 = solve_omega2(1e-24, 0.01, 0.011, 1e3, 0, SI)
    delta = entangling_phase_value(1e-24, 0.01, 0.011, 1e3, omega2, SI)
    assert 1.0 - concurrence_from_delta(delta) <= 1e-9
    # at m = 1e-21 the detuning is 2.5e-9 rad/s: the answer itself is within
    # 1e-12 of maximal, but the doubles 8 ulp either side of it fall 1.6e-7
    # below, as do those of the exact answer, 1000.0000000025108853 (mpmath),
    # so it is refused
    with pytest.raises(ValueError, match="not resolvable in double precision"):
        solve_omega2(1e-21, 0.01, 0.011, 1e3, 0, SI)


# SI requests that perfbench's mpmath oracle calls unanswerable: each answer
# is itself maximal, but a double 8 ulp from it falls 0.2e-10 to 1.3e-10
# below concurrence 1 - 1e-9
@pytest.mark.parametrize("solver, args", [
    (solve_omega2, (2.983214149763786e-24, 0.035721182523165605,
                    0.027003194935392515, 1022.6871376305586, 1)),
    (solve_omega2, (5.883567780039516e-22, 0.0067695208674070344,
                    0.007159728716917019, 328.0935683924417, 1)),
    (solve_omega2, (1.6170281508230732e-21, 0.002665379280126183,
                    0.0033350237517671905, -254.74510184594115, 2)),
    (solve_r2, (7.114530156366735e-19, 0.57022584651213, -1309.4253548734566,
                -1309.4253569473594, 0)),
    (solve_r2, (1.6782558183398555e-18, 0.15268760965672168, 3779.7766568225384,
                3779.7766437273317, 0)),
])
def test_an_answer_with_an_unresolved_neighbour_is_refused(solver, args):
    with pytest.raises(ValueError, match="double precision"):
        solver(*args, SI)


def test_solve_omega2_errors():
    with pytest.raises(ValueError):
        solve_omega2(1000.0, 1.0, 1.0, 0.01, 0, NATURAL)  # degenerate radii
    # tiny mass pushes the detuning far past the superluminal rim
    with pytest.raises(ValueError, match="beta"):
        solve_omega2(1.0, 1.0, 1.1, 0.001, 0, NATURAL)
    # SI probes past double resolution: m = 1e-14 kg rounds omega2 back to
    # omega1 (delta = 0), m = 1e-17 kg lands at concurrence 0.989
    for m in (1e-14, 1e-17):
        with pytest.raises(ValueError, match="double precision"):
            solve_omega2(m, 0.01, 0.011, 1e3, 0, SI)
    with pytest.raises(ValueError, match="radii"):
        solve_omega2(1000.0, -1.0, 2.0, 0.01, 0, NATURAL)
    with pytest.raises(ValueError):  # not OverflowError
        solve_omega2(1000.0, 1.0, 2.0, 0.01, 10**400, NATURAL)
    # 2 m (A1 - A2) is zero: opposite radii, then a product that underflows
    with pytest.raises(ValueError):  # not ZeroDivisionError
        solve_omega2(1.0, -1.0, 1.0, 0.01, 0, NATURAL)
    with pytest.raises(ValueError):
        solve_omega2(1e-300, 1e-100, 2e-100, 0.01, 0, NATURAL)
    # the config gate's mass rule, before the zero denominator that m = 0 makes
    with pytest.raises(ValueError, match="positive and finite"):
        solve_omega2(0.0, 1.0, 2.0, 0.01, 0, NATURAL)
    # k picks the odd multiple 2k + 1 of pi; 2.5 would aim for 6 pi
    for k in (2.5, 3.0):
        with pytest.raises(ValueError, match="k must be an integer"):
            solve_omega2(1000.0, 1.0, math.sqrt(2.0), 0.01, k, NATURAL)


def test_solve_r2_worked_example():
    assert math.isclose(
        solve_r2(1000.0, math.sqrt(2.0), 0.0105, 0.01, 0, NATURAL), 1.0,
        rel_tol=1e-12,
    )


def test_solve_r2_errors():
    with pytest.raises(ValueError):
        solve_r2(1000.0, 1.0, 0.01, 0.01, 0, NATURAL)  # degenerate frequencies
    with pytest.raises(ValueError):
        solve_r2(1.0, 1.0, 0.0105, 0.01, 0, NATURAL)  # negative radicand
    # r2 = 1.414 resolves delta, but omega1 = 2 on r2 is a rim at beta = 2.83
    with pytest.raises(ValueError, match="beta"):
        solve_r2(1000.0, 1.0, 2.0, 2.0005, 0, NATURAL)
    with pytest.raises(ValueError):  # not OverflowError
        solve_r2(1000.0, 1.0, 0.01, 0.02, 10**400, NATURAL)
    with pytest.raises(ValueError):  # 2 m (omega1 - omega2) underflows to zero
        solve_r2(1e-300, 1.0, 1e-30, 0.0, 0, NATURAL)
    with pytest.raises(ValueError, match="positive and finite"):
        solve_r2(-1.0, 1.0, 0.01, 0.02, 0, NATURAL)
    for k in (2.5, 3.0):
        with pytest.raises(ValueError, match="k must be an integer"):
            solve_r2(1000.0, math.sqrt(2.0), 0.0105, 0.01, k, NATURAL)


def test_solution_hits_odd_multiples_of_pi():
    for k in range(-2, 3):
        omega2 = solve_omega2(1000.0, 1.0, math.sqrt(2.0), 0.01, k, NATURAL)
        delta = entangling_phase_value(
            1000.0, 1.0, math.sqrt(2.0), 0.01, omega2, NATURAL
        )
        assert math.isclose(delta, (2 * k + 1) * math.pi, rel_tol=1e-9)


def test_solvers_are_mutually_consistent():
    rng = np.random.default_rng(61)
    for _ in range(200):
        m = rng.uniform(500.0, 2000.0)
        r1 = rng.uniform(0.3, 1.5)
        r2 = r1 + rng.uniform(0.3, 0.8)
        omega1 = rng.uniform(0.001, 0.02)
        k = int(rng.integers(-2, 3))
        omega2 = solve_omega2(m, r1, r2, omega1, k, NATURAL)
        back = solve_r2(m, r1, omega1, omega2, k, NATURAL)
        assert math.isclose(back, r2, rel_tol=1e-9)


def test_sweep_grid_contract():
    spec = SweepSpec(varying="omega2", start=0.009, stop=0.012, count=5, base=BASE)
    rows = sweep(spec)
    assert len(rows) == 5
    assert rows[0].value == 0.009
    assert rows[-1].value == 0.012
    for row, expected in zip(rows, [0.009, 0.00975, 0.0105, 0.01125, 0.012]):
        assert math.isclose(row.value, expected, rel_tol=1e-12)
    assert all(a.value < b.value for a, b in zip(rows, rows[1:]))

    single = sweep(SweepSpec(varying="omega2", start=0.0105, stop=0.02, count=1, base=BASE))
    assert len(single) == 1
    assert single[0].value == 0.0105


def test_sweep_row_at_solution_is_maximal():
    omega2 = solve_omega2(1000.0, 1.0, math.sqrt(2.0), 0.01, 0, NATURAL)
    rows = sweep(SweepSpec(varying="omega2", start=omega2, stop=omega2, count=1, base=BASE))
    assert abs(rows[0].concurrence - 1.0) <= 1e-9


def test_sweep_rows_obey_the_concurrence_law():
    spec = SweepSpec(varying="omega2", start=0.005, stop=0.02, count=50, base=BASE)
    for row in sweep(spec):
        assert abs(row.concurrence - abs(math.sin(row.delta / 2.0))) <= 1e-10


def test_sweep_delta_is_affine_in_omega2():
    spec = SweepSpec(varying="omega2", start=0.008, stop=0.012, count=3, base=BASE)
    d1, d2, d3 = [row.delta for row in sweep(spec)]
    assert math.isclose(d2 - d1, d3 - d2, rel_tol=1e-9)


def test_sweep_is_deterministic():
    spec = SweepSpec(varying="r2", start=0.5, stop=2.0, count=25, base=BASE)
    assert sweep(spec) == sweep(spec)


def test_sweep_marks_regime_errors_instead_of_aborting():
    # omega2 up to 2.0 drives the rim past c at r2 = sqrt(2)
    spec = SweepSpec(varying="omega2", start=0.0, stop=2.0, count=9, base=BASE)
    rows = sweep(spec)
    assert len(rows) == 9
    statuses = {row.regime for row in rows}
    assert RegimeStatus.ERROR in statuses
    assert RegimeStatus.OK in statuses


def test_sweep_marks_invalid_configs():
    spec = SweepSpec(varying="mass", start=-500.0, stop=1500.0, count=5, base=BASE)
    rows = sweep(spec)
    assert len(rows) == 5
    assert rows[0].regime is RegimeStatus.ERROR  # m <= 0 is not a valid config
    assert rows[-1].regime is RegimeStatus.OK
    # a delta that overflows fits no row: the sweep is refused, naming the value
    spec = SweepSpec(varying="mass", start=1e300, stop=1e308, count=3, base=BASE)
    with pytest.raises(ValueError, match=r"not finite at mass = 1e\+308"):
        sweep(spec)


def test_sweep_varies_each_field():
    for varying, lo, hi in [("omega2", 0.001, 0.02), ("r2", 0.1, 1.5), ("mass", 1.0, 2000.0)]:
        rows = sweep(SweepSpec(varying=varying, start=lo, stop=hi, count=7, base=BASE))
        deltas = {row.delta for row in rows}
        assert len(deltas) > 1  # the varied parameter actually moves delta


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(varying="omega1", start=0.0, stop=1.0, count=3, base=BASE)
    with pytest.raises(ValueError):
        SweepSpec(varying="omega2", start=0.0, stop=1.0, count=0, base=BASE)
    with pytest.raises(ValueError):
        SweepSpec(varying="omega2", start=1.0, stop=0.0, count=3, base=BASE)
    with pytest.raises(ValueError, match="count"):
        SweepSpec(varying="omega2", start=0.0, stop=1.0, count=MAX_SWEEP_ROWS + 1,
                  base=BASE)
    for count in (2.5, 3.0):  # range() would raise TypeError in sweep
        with pytest.raises(ValueError, match="count"):
            SweepSpec(varying="omega2", start=0.0, stop=1.0, count=count, base=BASE)
    with pytest.raises(ValueError, match="span"):  # stop - start overflows
        SweepSpec(varying="omega2", start=-1e308, stop=1e308, count=3, base=BASE)
    # a plain tuple of the same values is not a checked configuration
    with pytest.raises(ValueError, match="base"):
        SweepSpec(varying="omega2", start=0.0, stop=1.0, count=3, base=tuple(BASE))


def test_the_sweep_gate_runs_once_per_regime_change_not_per_row(monkeypatch):
    # the kernel gates the ends of stretches of one regime; a call per row
    # costs about half its time
    calls = []

    def counted(*args):
        calls.append(args)
        return gate(*args)

    gate = design.require_valid_config
    monkeypatch.setattr(design, "require_valid_config", counted)
    rows = sweep(SweepSpec("omega2", 0.009, 0.012, 10**5, BASE))
    assert {row.regime for row in rows} == {RegimeStatus.OK}
    assert 1 <= len(calls) <= 4
    # rims at beta = 0.1 and 1 fall at |omega2| = 0.1 and 1, on both sides of 0
    calls.clear()
    count = 10**5 + 1
    rows = sweep(SweepSpec("omega2", -3.0, 3.0, count, BASE._replace(r2=0.5)))
    regimes = [row.regime.value for row in rows]
    changes = [(a, b) for a, b in zip(regimes, regimes[1:]) if a != b]
    assert changes == [("error", "warn"), ("warn", "ok"), ("ok", "warn"), ("warn", "error")]
    assert 1 <= len(calls) <= 4 * (math.ceil(math.log2(count)) + 2)
    # through the CLI, which writes 98 chunks from one process or two: the
    # plan is made once, before any second process starts
    argv = ["sweep", "--vary", "omega2", "--start", "0.009", "--stop", "0.012",
            "--count", "100000", "--format", "csv", "--units", "natural",
            "--m", "1000", "--r1", "1", "--r2", str(math.sqrt(2.0)),
            "--omega1", "0.01", "--omega2", "0.0105"]
    for cpus in {0}, {0, 1}:
        calls.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert 1 <= len(calls) <= 4
