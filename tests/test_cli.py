import json
import math
from pathlib import Path

import mpmath

from qsagnac.cli import format_float, main, to_json

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_INVOCATIONS = {
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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_float_round_trips():
    for x in [0.1, 1.0, -0.0105, math.pi, 4.134137333521859e16, 1e-300]:
        assert float(format_float(x)) == x
    assert format_float(1.0) == "1.0"


def test_entangle_worked_invocation(capsys):
    code, out, err = run(capsys, *GOLDEN_INVOCATIONS["entangle.json"])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert abs(payload["concurrence"] - 1.0) <= 1e-9
    assert abs(payload["entropy_bits"] - 1.0) <= 1e-9
    assert payload["maximal"] is True


def test_entangle_worked_invocation_against_mpmath(capsys):
    code, out, _ = run(capsys, *GOLDEN_INVOCATIONS["entangle.json"])
    assert code == 0
    payload = json.loads(out)
    with mpmath.workdps(50):
        m, r1, r2, omega1, omega2 = (
            mpmath.mpf(payload[key]) for key in ("m", "r1", "r2", "omega1", "omega2")
        )
        # exact figures for the double inputs as printed; hbar = 1
        delta = 2 * m * (omega1 - omega2) * mpmath.pi * (r1 * r1 - r2 * r2)
        s1, s2 = abs(mpmath.cos(delta / 4)), abs(mpmath.sin(delta / 4))
        lam1, lam2 = s1 * s1, s2 * s2
        exact = [
            ("delta", payload["delta"], delta),
            ("concurrence", payload["concurrence"], abs(mpmath.sin(delta / 2))),
            ("schmidt[0]", payload["schmidt"][0], s1),
            ("schmidt[1]", payload["schmidt"][1], s2),
            ("entropy_bits", payload["entropy_bits"],
             -lam1 * mpmath.log(lam1, 2) - lam2 * mpmath.log(lam2, 2)),
        ]
        for name, got, want in exact:
            assert abs(mpmath.mpf(got) - want) <= 1e-16, name


def test_solve_worked_invocation(capsys):
    code, out, err = run(capsys, *GOLDEN_INVOCATIONS["solve.json"])
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["value"], 0.0105, rel_tol=1e-9)
    assert math.isclose(payload["concurrence"], 1.0, abs_tol=1e-9)


def test_phase_zero_rotation(capsys):
    code, out, err = run(capsys, *GOLDEN_INVOCATIONS["phase.json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"] == 0.0
    assert payload["t_loop"] is None


def test_golden_outputs_are_bit_identical(capsys):
    for name, argv in GOLDEN_INVOCATIONS.items():
        code, first, _ = run(capsys, *argv)
        assert code == 0
        code, second, _ = run(capsys, *argv)
        assert code == 0
        assert first == second
        golden = (GOLDEN_DIR / name).read_text()
        assert first == golden


def test_json_outputs_reparse_to_the_same_text(capsys):
    invocations = [
        ["constants", "--units", "natural"],
        ["constants"],
        ["metric", "--omega", "0.1", "--r", "1", "--units", "natural"],
        GOLDEN_INVOCATIONS["entangle.json"],
        GOLDEN_INVOCATIONS["solve.json"],
        GOLDEN_INVOCATIONS["phase.json"],
        ["state", "--units", "natural", "--m", "1000", "--r1", "1", "--r2", "2",
         "--omega1", "0.001", "--omega2", "0.002"],
        ["hydrogen", "--n", "3"],
        ["hydrogen", "--pair", "1,2"],
    ]
    for argv in invocations:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert to_json(json.loads(out)) + "\n" == out


def test_constants_subcommand(capsys):
    code, out, _ = run(capsys, "constants", "--units", "natural")
    payload = json.loads(out)
    assert code == 0
    assert payload["hbar"] == 1.0
    assert payload["c"] == 1.0
    code, out, _ = run(capsys, "constants")
    assert json.loads(out)["units"] == "si"  # SI is the default unit system


def test_metric_subcommand(capsys):
    code, out, _ = run(capsys, "metric", "--omega", "0.1", "--r", "2",
                       "--units", "natural")
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["h00"], 0.04, rel_tol=1e-12)
    assert math.isclose(payload["h0phi"], 0.4, rel_tol=1e-12)
    assert payload["g"][2][2] == 4.0
    assert payload["regime"]["status"] == "warn"  # beta = 0.2 proceeds with a flag


def test_phase_with_second_radius(capsys):
    code, out, _ = run(capsys, "phase", "--units", "natural", "--m", "1",
                       "--omega", "0.001", "--r", "1", "--r2", "2")
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["relative_phase"], 0.01884955592153876, rel_tol=1e-12)


def test_scientific_notation_is_accepted(capsys):
    code, out, _ = run(capsys, "phase", "--units", "natural", "--m", "1",
                       "--omega", "1e-3", "--r", "1")
    assert code == 0
    assert json.loads(out)["omega"] == 0.001


def test_state_amplitudes_as_re_im_pairs(capsys):
    code, out, _ = run(capsys, "state", "--units", "natural", "--m", "1000",
                       "--r1", "1", "--r2", "1.41421356237",
                       "--omega1", "0.01", "--omega2", "0.0105")
    assert code == 0
    payload = json.loads(out)
    amp = payload["amplitudes"]
    assert math.isclose(amp[0][0]["re"], 0.5, abs_tol=1e-9)
    assert math.isclose(amp[0][1]["re"], -0.5, abs_tol=1e-9)
    assert math.isclose(amp[0][0]["im"], 0.0, abs_tol=1e-9)
    assert payload["row_basis"] == ["r1", "r2"]
    assert payload["col_basis"] == ["omega1", "omega2"]


def test_solve_r2_target(capsys):
    code, out, _ = run(capsys, "solve", "--target", "r2", "--units", "natural",
                       "--m", "1000", "--r1", "1.41421356237",
                       "--omega1", "0.0105", "--omega2", "0.01", "--k", "0")
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["value"], 1.0, rel_tol=1e-9)


def test_sweep_csv(capsys):
    argv = ["sweep", "--vary", "omega2", "--start", "0.009", "--stop", "0.012",
            "--count", "5", "--format", "csv", "--units", "natural",
            "--m", "1000", "--r1", "1", "--r2", "1.41421356237",
            "--omega1", "0.01", "--omega2", "0.0105"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "value,delta,concurrence,entropy_bits,regime"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.009
    assert first[4] == "ok"
    # repeated run is bit-identical
    code, again, _ = run(capsys, *argv)
    assert again == out


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--vary", "r2", "--start", "0.5",
                       "--stop", "2.0", "--count", "4", "--units", "natural",
                       "--m", "1000", "--r1", "1", "--r2", "1.41421356237",
                       "--omega1", "0.01", "--omega2", "0.0105")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    for row in rows:
        assert abs(row["concurrence"] - abs(math.sin(row["delta"] / 2))) <= 1e-10


def test_hydrogen_subcommand(capsys):
    code, out, _ = run(capsys, "hydrogen", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["estimate"], math.pi, rel_tol=1e-6)
    assert payload["loop_phase"] == 2.0 * payload["estimate"]

    code, out, _ = run(capsys, "hydrogen", "--pair", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["concurrence"], math.sin(math.pi / 8), abs_tol=1e-9)


def test_argument_errors_exit_2(capsys):
    cases = [
        ["phase", "--omega", "0.1", "--r", "1"],  # missing --m
        ["phase", "--m", "abc", "--omega", "0.1", "--r", "1"],
        ["phase", "--m", "nan", "--omega", "0.1", "--r", "1"],
        ["entangle", "--format", "csv", "--m", "1", "--r1", "1", "--r2", "2",
         "--omega1", "0.001", "--omega2", "0.002"],  # csv only for sweep
        ["phase", "--m", "1", "--omega", "0.1", "--r", "1", "--bogus", "3"],
        ["solve", "--target", "omega2", "--m", "1000", "--r1", "1",
         "--omega1", "0.01", "--k", "0"],  # missing --r2
        ["solve", "--target", "r2", "--m", "1000", "--r1", "1", "--r2", "2",
         "--omega1", "0.01", "--omega2", "0.02", "--k", "0"],  # r2 is the unknown
        ["hydrogen"],
        ["hydrogen", "--n", "1", "--pair", "1,2"],
        ["hydrogen", "--pair", "1"],
        ["nonsense"],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err != ""


def test_domain_errors_exit_1_with_clean_stdout(capsys):
    cases = [
        ["phase", "--units", "natural", "--m", "1", "--omega", "2", "--r", "1"],
        ["metric", "--units", "natural", "--omega", "1.5", "--r", "1"],
        ["solve", "--target", "omega2", "--units", "natural", "--m", "1000",
         "--r1", "1", "--r2", "1", "--omega1", "0.01", "--k", "0"],
        ["solve", "--target", "r2", "--units", "natural", "--m", "1",
         "--r1", "1", "--omega1", "0.0105", "--omega2", "0.01", "--k", "0"],
        ["hydrogen", "--pair", "2,2"],
        ["hydrogen", "--n", "0"],
        ["entangle", "--units", "natural", "--m", "-1", "--r1", "1", "--r2", "2",
         "--omega1", "0.001", "--omega2", "0.002"],
        ["state", "--units", "natural", "--m", "1", "--r1", "1", "--r2", "2",
         "--omega1", "0", "--omega2", "0.002"],
        # integers too large for a double overflow instead of raising ValueError
        ["hydrogen", "--n", "1" + "0" * 400],
        ["hydrogen", "--pair", "1,1" + "0" * 400],
        ["solve", "--target", "omega2", "--units", "natural", "--m", "1000",
         "--r1", "1", "--r2", "2", "--omega1", "0.01", "--k", "1" + "0" * 400],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # one-line diagnostic
