import json
import math
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import qsagnac
from qsagnac import InterferometerConfig, SweepSpec, UnitSystem, sweep
from qsagnac import chunks, cli, design
from qsagnac.cli import build_parser, format_float, main, to_json

from helpers import parser_interface, spec_argv

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
    # one golden per subcommand, so a change of serializer shows in any payload
    "constants.json": ["constants"],
    "metric.json": ["metric", "--omega", "0.1", "--r", "1", "--units", "natural"],
    "phase_r2.json": [
        "phase", "--m", "1e-20", "--omega", "1e3", "--r", "0.01", "--r2", "0.011",
    ],
    "state.json": [
        "state", "--units", "natural", "--m", "1000", "--r1", "1", "--r2", "2",
        "--omega1", "0.001", "--omega2", "0.002",
    ],
    "solve_r2.json": [
        "solve", "--target", "r2", "--units", "natural", "--m", "1000",
        "--r1", "1.41421356237", "--omega1", "0.0105", "--omega2", "0.01",
        "--k", "0",
    ],
    "sweep.csv": [
        "sweep", "--vary", "omega2", "--start", "0.009", "--stop", "0.012",
        "--count", "25", "--format", "csv", "--units", "natural", "--m", "1000",
        "--r1", "1", "--r2", "1.41421356237", "--omega1", "0.01",
        "--omega2", "0.0105",
    ],
    "sweep_mass.json": [  # rows at m <= 0 are kept and flagged error
        "sweep", "--vary", "mass", "--start", "-500", "--stop", "1500",
        "--count", "5", "--units", "natural", "--m", "1000", "--r1", "1",
        "--r2", "1.41421356237", "--omega1", "0.01", "--omega2", "0.0105",
    ],
    # integral values (the .0 suffix), error rows at m <= 0, and a delta of
    # 0.0 and -0.0, because r2 == r1
    "sweep_edges.csv": [
        "sweep", "--vary", "mass", "--start=-2", "--stop", "6", "--count", "9",
        "--format", "csv", "--units", "natural", "--m", "1", "--r1", "1",
        "--r2", "1", "--omega1", "0.01", "--omega2", "0.02",
    ],
    "hydrogen_n.json": ["hydrogen", "--n", "3"],
    "hydrogen_pair.json": ["hydrogen", "--pair", "1,2"],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_float_round_trips():
    for x in [0.1, 1.0, -0.0105, math.pi, 4.134137333521859e16, 1e-300]:
        assert float(format_float(x)) == x
    assert format_float(1.0) == "1.0"
    for x in [math.inf, -math.inf, math.nan]:
        with pytest.raises(ValueError):
            format_float(x)


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
        code, first, err = run(capsys, *argv)
        assert (code, err) == (0, ""), name
        code, second, err = run(capsys, *argv)
        assert (code, err) == (0, ""), name
        assert first == second
        golden = (GOLDEN_DIR / name).read_text()
        assert first == golden


def test_every_readme_example_runs_cleanly(capsys):
    # the qsagnac lines of README's Command line block, backslash-continued
    # lines joined
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    examples = [shlex.split(line) for line in block.splitlines()
                if line.startswith("qsagnac ")]
    assert examples
    for argv in examples:
        code, _, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv


def package_env() -> dict:
    """The environment with the directory of the imported qsagnac first on
    PYTHONPATH: src in a checkout, or site-packages for an installed copy, so
    a child process runs the package these tests import."""
    src = str(Path(qsagnac.__file__).parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


# Runs each invocation in one fresh interpreter and prints, after each,
# whether numpy has been imported so far.
NUMPY_PROBE = """
import contextlib, io, json, sys
import qsagnac
loaded = lambda: ["numpy" in sys.modules, "dataclasses" in sys.modules]
print(json.dumps(["import qsagnac", *loaded()]))
from qsagnac.cli import main
for name, argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([name, code, *loaded()]))
"""


def test_no_golden_invocation_imports_numpy():
    # the metric is rows of floats too: only reading DiskMetric.g loads numpy
    names = list(GOLDEN_INVOCATIONS)
    probe = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        input=json.dumps([[name, GOLDEN_INVOCATIONS[name]] for name in names]),
        capture_output=True, text=True, env=package_env(), check=True,
    )
    lines = [json.loads(line) for line in probe.stdout.splitlines()]
    # the result types are named tuples, so nothing loads dataclasses either
    assert lines == [
        ["import qsagnac", False, False],
        *([name, 0, False, False] for name in names),
    ]


def bare_python(code: str, *argv: str) -> str:
    """stdout of code run by an interpreter with the directory of the imported
    qsagnac on its path and no site (-S), since site may preload typing or re
    and hide an import of it."""
    src = str(Path(qsagnac.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    ).stdout


# prints the qsagnac modules loaded so far, "|", then those of a few others
LOADED = (
    "print(*sorted(m for m in sys.modules if m.startswith('qsagnac')), '|', "
    "*sorted({'argparse', 're', 'gettext', 'typing', 'dataclasses', 'numpy'} "
    "& sys.modules.keys()))"
)


def test_bare_import_loads_no_typing():
    # the CLI loads argparse only for argv that the fast path declines, and
    # each subcommand's modules only when it runs
    assert bare_python("import sys, qsagnac.cli; " + LOADED) == (
        "qsagnac qsagnac.cli qsagnac.constants |\n"
    )
    assert bare_python("import sys, qsagnac; " + LOADED) == "qsagnac |\n"


# The qsagnac modules beyond qsagnac.cli and qsagnac.constants that each
# subcommand loads
SUBCOMMAND_MODULES = {
    "constants": [],
    "metric": ["metric"],
    "phase": ["phase"],
    "state": ["phase", "state"],
    "entangle": ["phase", "state"],
    "solve": ["design", "phase", "state"],
    "sweep": ["chunks", "design", "phase", "state"],
    "hydrogen": ["hydrogen", "phase", "state"],
}

# Runs the argv in a fresh interpreter, then prints what it has loaded
MODULES_PROBE = """
import contextlib, io, sys
from qsagnac.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
""" + LOADED


def test_each_golden_invocation_loads_only_its_subcommand_modules():
    assert set(SUBCOMMAND_MODULES) == set(cli._SUBCOMMANDS)
    for name, argv in GOLDEN_INVOCATIONS.items():
        modules, others = bare_python(MODULES_PROBE, *argv).split("|")
        assert modules.split() == sorted(
            ["qsagnac", "qsagnac.cli", "qsagnac.constants"]
            + ["qsagnac." + m for m in SUBCOMMAND_MODULES[argv[0]]]
        ), name
        # the fast path settles every golden argv, a negative value after a
        # space too (sweep_mass.json's --start -500), so none loads argparse
        assert others.split() == [], name


PUBLIC_NAMES = """
BohrOrbit ConstantSet DiskMetric EntanglementReport HydrogenPhases
InterferometerConfig Perturbation PhaseResult PureState2x2 RegimeCheck
RegimeStatus SweepRow SweepSpec UnitSystem assemble_full_state bohr_orbit
concurrence_from_delta constants_for entanglement_report entangling_phase_value
entropy_from_concurrence flat_background hamiltonian_energy hydrogen_pair_report
hydrogen_phase loop_phase loop_time perturbation regime_check
report_from_parameters rotating_disk_metric sagnac_phase solve_omega2 solve_r2
sweep two_radius_relative_phase
""".split()


def test_the_package_namespace_is_its_public_names():
    code = ("import qsagnac; print(*qsagnac.__all__); print(*dir(qsagnac)); "
            "ns = {}; exec('from qsagnac import *', ns); del ns['__builtins__']; "
            "print(*sorted(ns))")
    assert bare_python(code).splitlines() == [" ".join(PUBLIC_NAMES)] * 3
    for name in PUBLIC_NAMES:  # each name is its home module's object
        home = sys.modules[getattr(qsagnac, name).__module__]
        assert getattr(qsagnac, name) is getattr(home, name)
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        qsagnac.bogus


def test_the_cli_literals_match_their_sources():
    assert cli._CONFIG_NAMES == InterferometerConfig._fields[:5]
    assert cli._SUBCOMMANDS["sweep"][1]["--vary"]["choices"] == design.VARY_CHOICES
    assert cli._SWEEP_FORMATS["csv"][0] == ",".join(design.SweepRow._fields)


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
    # radii 1e-9 apart in SI: mpmath gives 119160.86956049438 (50 digits)
    code, out, _ = run(capsys, "phase", "--m", "1e-20", "--omega", "1e3",
                       "--r", "0.01", "--r2", "0.01000000001")
    assert code == 0
    assert json.loads(out)["relative_phase"] == 119160.86956049438


def test_scientific_notation_is_accepted(capsys):
    code, out, _ = run(capsys, "phase", "--units", "natural", "--m", "1",
                       "--omega", "1e-3", "--r", "1")
    assert code == 0
    assert json.loads(out)["omega"] == 0.001


NATURAL_CONFIG = ["--units", "natural", "--m", "1000", "--r1", "1",
                  "--r2", "1.41421356237", "--omega1", "0.01"]


def test_negative_numbers_in_exponent_notation_are_values(capsys):
    # argparse's own pattern reads "-1e-3" as an unknown flag ("expected one
    # argument", exit 2); each must print what --flag=-1e-3 prints
    cases = [
        (["phase", "--units", "natural", "--m", "1", "--r", "1"], "--omega", "-1e-3"),
        (["sweep", "--vary", "omega2", "--stop", "0.012", "--count", "5",
          "--format", "csv", *NATURAL_CONFIG, "--omega2", "0.0105"],
         "--start", "-1e-2"),
        (["entangle", *NATURAL_CONFIG], "--omega2", "-1e-3"),
    ]
    for argv, flag, value in cases:
        joined = run(capsys, *argv, f"{flag}={value}")
        assert joined[0] == 0, argv
        assert run(capsys, *argv, flag, value) == joined, argv


def test_negative_non_finite_values_are_named(capsys):
    # argparse's own pattern reads "-inf" as an unknown flag ("expected one
    # argument"); each spelling float() reads must reach the finite check
    argv = ["phase", "--units", "natural", "--m", "1", "--r", "1"]
    for value in ["-inf", "-nan", "-Infinity", "-INF", "-NaN"]:
        joined = run(capsys, *argv, f"--omega={value}")
        assert joined[:2] == (2, ""), value
        assert f"not a finite number: '{value}'" in joined[2], value
        assert run(capsys, *argv, "--omega", value) == joined, value


def test_the_fast_path_takes_repeated_flags_and_negative_values(capsys):
    # a repeated flag keeps its last value, as in argparse
    golden = GOLDEN_INVOCATIONS["entangle.json"]
    repeated = [*golden[:3], "--m", "1", *golden[3:]]  # --m 1 ... --m 1000
    assert run(capsys, *repeated) == (0, (GOLDEN_DIR / "entangle.json").read_text(), "")
    negative = ["phase", "--m", "1e-20", "--omega", "-1e3", "--r", "0.01"]
    for argv in repeated, negative:
        _, others = bare_python(MODULES_PROBE, *argv).split("|")
        assert "argparse" not in others.split(), argv


def test_every_flag_value_passes_a_converter_or_a_choice():
    # the fast path reads a value after a space that starts with "-" as
    # argparse does only because each converter takes such a text just in the
    # forms argparse reads as numbers, and no choice starts with "-"; a
    # free-text flag would part the two
    for name, (_, flags) in cli._SUBCOMMANDS.items():
        for flag, keywords in flags.items():
            assert "type" in keywords or "choices" in keywords, (name, flag)
            choices = keywords.get("choices", ())
            assert not any(c.startswith("-") for c in choices), (name, flag)


def test_an_abbreviated_flag_takes_a_negative_value_through_argparse(capsys):
    # the fast path declines an abbreviation, so "-1e3" after --omeg is read
    # by build_parser's negative-number matcher, its one job left on success
    argv = ["phase", "--m", "1e-20", "--omeg", "-1e3", "--r", "0.01"]
    assert cli._parse(argv) is None
    joined = run(capsys, "phase", "--m", "1e-20", "--omega=-1e3", "--r", "0.01")
    assert joined[0] == 0
    assert run(capsys, *argv) == joined


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


def test_sweep_over_the_largest_span_is_quiet(capsys):
    # the last point must be stop itself: 72 * step overflows here
    code, out, err = run(
        capsys, "sweep", "--vary", "omega2", "--start", "0",
        "--stop", "1.7976931348623157e308", "--count", "73", "--format", "csv",
        "--units", "natural", "--m", "1e-300", "--r1", "1", "--r2", "1.41421356237",
        "--omega1", "0.01", "--omega2", "0.0105",
    )
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert len(lines) == 74
    assert float(lines[-1].split(",")[0]) == 1.7976931348623157e308


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


def sweep_argv(count, fmt):
    return ["sweep", "--vary", "omega2", "--start", "0.009", "--stop", "0.012",
            "--count", str(count), "--format", fmt, "--units", "natural",
            "--m", "1000", "--r1", "1", "--r2", "1.41421356237",
            "--omega1", "0.01", "--omega2", "0.0105"]


class RecordedWrites:
    """A sys.stdout stand-in that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_output_is_written_in_bounded_chunks(monkeypatch, fmt):
    argv = sweep_argv(100_000, fmt)
    stdout = RecordedWrites()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    monkeypatch.undo()
    assert len(stdout.writes) >= 50
    assert max(map(len, stdout.writes)) <= 256 * 1024
    assert "".join(stdout.writes) == expected_sweep_output(
        SweepSpec("omega2", 0.009, 0.012, 100_000, SWEEP_BASE), fmt)


def expected_sweep_output(spec, fmt):
    """The sweep's stdout, built from sweep(spec)'s rows."""
    rows = sweep(spec)
    if fmt == "json":
        return to_json(rows) + "\n"
    return "\n".join(["value,delta,concurrence,entropy_bits,regime"] + [
        ",".join([*map(format_float, row[:4]), row.regime.value]) for row in rows
    ]) + "\n"


SWEEP_BASE = InterferometerConfig(
    1000.0, 1.0, 1.41421356237, 0.01, 0.0105, UnitSystem.NATURAL)

# Counts on each side of the 1024-row chunk edges, an r2 and a mass sweep
# across 0, whose plans split the grid there, and last a sweep whose regime
# changes four times (error, warn, ok, warn, error: rims at beta = 0.1 and 1
# on both sides of 0), so that the stretch plan crosses chunk edges
EDGE_SPECS = [
    SweepSpec("omega2", 0.009, 0.012, count, SWEEP_BASE)
    for count in (1, 1023, 1024, 1025, 2048, 2049, 3073)
] + [
    SweepSpec("r2", -150.0, 150.0, 5000, SWEEP_BASE),
    SweepSpec("mass", -1000.0, 3000.0, 5000, SWEEP_BASE),
    SweepSpec("omega2", -3.0, 3.0, 3073, SWEEP_BASE._replace(r2=0.5)),
]


def forks_counted(monkeypatch, cpus):
    """Let the process see the CPUs `cpus`, and count the forks it makes."""
    forks = []

    def fork():
        forks.append(1)
        return real_fork()

    real_fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def pipe_quota_spent(monkeypatch):
    """Make fcntl refuse every F_SETPIPE_SZ, as past the user's pipe quota,
    and count the refusals."""
    import fcntl

    refused = []

    def setpipe_refused(fd, cmd, *arg):
        if cmd == fcntl.F_SETPIPE_SZ:
            refused.append(fd)
            raise PermissionError(1, "Operation not permitted")
        return real_fcntl(fd, cmd, *arg)

    real_fcntl = fcntl.fcntl
    monkeypatch.setattr(fcntl, "fcntl", setpipe_refused)
    return refused


@pytest.mark.parametrize("cpus, quota_spent", [({0}, False), ({0, 1}, False), ({0, 1}, True)],
                         ids=["cpus0", "cpus1", "cpus1-pipe-quota-spent"])
def test_sweep_bytes_are_the_same_across_chunk_edges_on_one_or_two_processes(
        capsys, monkeypatch, cpus, quota_spent):
    # two CPUs: a forked child renders the odd chunks of every sweep of more
    # than one chunk; one CPU: this process renders them all. A pipe that
    # cannot be widened is used as it is.
    forks = forks_counted(monkeypatch, cpus)
    refused = pipe_quota_spent(monkeypatch) if quota_spent else []
    for spec in EDGE_SPECS:
        for fmt in "csv", "json":
            code, out, err = run(capsys, *spec_argv(spec, fmt))
            assert (code, err) == (0, ""), (spec.count, fmt)
            assert out == expected_sweep_output(spec, fmt), (spec.count, fmt)
    regimes = [row.regime.value for row in sweep(EDGE_SPECS[-1])]
    changes = [i for i in range(1, len(regimes)) if regimes[i] != regimes[i - 1]]
    # error rows run across the chunk edges at 1024 and 3072, and the last
    # change of regime is at the edge at 2048
    assert regimes[0] == regimes[-1] == "error"
    assert changes[0] > chunks.CHUNK_ROWS and changes[-1] == 2 * chunks.CHUNK_ROWS
    two = [spec for spec in EDGE_SPECS if spec.count > chunks.CHUNK_ROWS]
    assert len(forks) == (2 * len(two) if len(cpus) > 1 else 0)
    # the chunk pipe, once for each sweep on two processes; stdout never
    assert len(refused) == (len(forks) if quota_spent else 0)


def test_a_sweep_on_two_processes_leaves_a_piped_stdout_as_it_found_it():
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_GETPIPE_SZ") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs fcntl.F_GETPIPE_SZ and two usable CPUs")
    read, send = os.pipe()
    fresh = fcntl.fcntl(read, fcntl.F_GETPIPE_SZ)
    os.close(read)
    os.close(send)
    # more bytes than the widened chunk pipe holds, so the child runs a full
    # pipe ahead of this process
    spec = SweepSpec("omega2", 0.009, 0.012, 20_000, SWEEP_BASE)
    with subprocess.Popen(
            [sys.executable, "-c", ENTRY_POINT, *spec_argv(spec, "csv")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=package_env()) as proc:
        out = proc.stdout.read()
        assert proc.wait(timeout=60) == 0
        assert fcntl.fcntl(proc.stdout, fcntl.F_GETPIPE_SZ) == fresh
    assert len(out) > chunks.PIPE_BYTES
    assert out.decode() == expected_sweep_output(spec, "csv")


def test_a_failed_fork_leaves_every_chunk_to_this_process(capsys, monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    spec = EDGE_SPECS[-1]
    fds = len(os.listdir("/proc/self/fd"))
    for fmt in "csv", "json":
        assert run(capsys, *spec_argv(spec, fmt)) == (
            0, expected_sweep_output(spec, fmt), "")
    assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed


@pytest.mark.parametrize("fails_at", [1024, 2048])
def test_a_failed_chunk_exits_1_with_one_error_line(capsys, monkeypatch, fails_at):
    # the child renders the chunk at row 1024, this process the one at 2048
    def failing(spec, plan, begin, end):
        if begin >= fails_at:
            raise ValueError(f"no rows from {begin}")
        return rows(spec, plan, begin, end)

    rows = design._sweep_rows
    forks = forks_counted(monkeypatch, {0, 1})
    monkeypatch.setattr(design, "_sweep_rows", failing)
    for fmt in "csv", "json":
        code, out, err = run(capsys, *sweep_argv(4000, fmt))
        assert (code, err) == (1, f"error: no rows from {fails_at}\n")
        assert len(out) < len(expected_sweep_output(
            SweepSpec("omega2", 0.009, 0.012, 4000, SWEEP_BASE), fmt))
    assert len(forks) == 2


def test_a_child_that_dies_leaves_its_unsent_chunks_to_this_process(
        capsys, monkeypatch):
    # the child sends the chunk at row 1024 and dies rendering the one at
    # 3072, which this process then renders itself
    def dying(spec, plan, begin, end):
        if os.getpid() != parent:
            if begin >= 3072:
                os._exit(3)
        else:
            begins.append(begin)
        return rows(spec, plan, begin, end)

    rows, parent, begins = design._sweep_rows, os.getpid(), []
    spec = SweepSpec("omega2", 0.009, 0.012, 5000, SWEEP_BASE)
    expected = expected_sweep_output(spec, "csv")
    forks = forks_counted(monkeypatch, {0, 1})
    monkeypatch.setattr(design, "_sweep_rows", dying)
    assert run(capsys, *spec_argv(spec, "csv")) == (0, expected, "")
    assert len(forks) == 1
    assert begins == [0, 2048, 3072, 4096]


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
        ["phase", "--m", "1", "--omega", "-inf", "--r", "1"],
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


def with_double_dash(name, flag):
    """A golden argv of subcommand name, with flag given as flag=--, which
    argparse on Python 3.10 and 3.11 stores as [] without its converter."""
    argvs = [argv for argv in GOLDEN_INVOCATIONS.values() if argv[0] == name]
    argv = list(next((argv for argv in argvs if flag in argv), argvs[0]))
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    return argv + [f"{flag}=--"]


@pytest.mark.parametrize("name, flag", [
    (name, flag) for name, (_, flags) in cli._SUBCOMMANDS.items() for flag in flags
])
def test_an_explicit_double_dash_value_is_an_argument_error(capsys, name, flag):
    code, out, err = run(capsys, *with_double_dash(name, flag))
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and "Traceback" not in err
    assert f"argument {flag}:" in err


def test_the_parser_declares_the_pinned_interface():
    # every flag's order, type, default, choices and help, each subcommand's
    # help line and hydrogen's one required group: a reordered flag changes a
    # usage line. Compared as data, since format_help() text differs between
    # Python versions.
    pinned = json.loads((Path(__file__).parent / "cli_interface.json").read_text())
    assert parser_interface(build_parser()) == pinned


def test_solve_target_usage_messages(capsys):
    common = ["--units", "natural", "--m", "1000", "--r1", "1", "--omega1", "0.01",
              "--k", "0"]
    cases = [
        (["--target", "omega2"], "solve --target omega2 requires --r2"),
        (["--target", "omega2", "--r2", "2", "--omega2", "0.02"],
         "--omega2 is the unknown when solving for omega2"),
        (["--target", "r2"], "solve --target r2 requires --omega2"),
        (["--target", "r2", "--r2", "2", "--omega2", "0.02"],
         "--r2 is the unknown when solving for r2"),
    ]
    for extra, message in cases:
        assert run(capsys, "solve", *extra, *common) == (
            2, "", f"usage error: {message}\n"
        )


ENTRY_POINT = "import sys; from qsagnac.cli import main; sys.exit(main())"


def test_console_script_entry_point():
    # the form of the installed console script: argv from sys.argv, the
    # exit code through sys.exit

    def script(*argv):
        return subprocess.run([sys.executable, "-c", ENTRY_POINT, *argv],
                              capture_output=True, text=True, env=package_env())

    done = script(*GOLDEN_INVOCATIONS["entangle.json"])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (GOLDEN_DIR / "entangle.json").read_text()
    done = script("hydrogen", "--pair", "2,2")  # a domain error
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    done = script("phase", "--m", "abc", "--omega", "0.1", "--r", "1")  # bad argument
    assert (done.returncode, done.stdout) == (2, "")
    assert "usage: qsagnac" in done.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_reader_that_stops_early_gets_no_traceback(fmt, unbuffered):
    # `qsagnac sweep ... | head -n 1`: stdout's pipe closes mid-sweep, and
    # the second process that renders half the chunks goes with the first
    env = {**package_env(), "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-c", ENTRY_POINT, *sweep_argv(200_000, fmt)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        start_new_session=True)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == {"csv": b"value,delta,concurrence,entropy_bits,regime\n",
                     "json": b"[\n"}[fmt]
    assert err == b""
    with pytest.raises(ProcessLookupError):  # no process of its group is left
        os.killpg(proc.pid, 0)


# Runs the CLI after registering an exit hook that reports on stderr, as
# perfbench's peak-RSS hook does
WITH_EXIT_HOOK = (
    "import atexit, sys; from qsagnac.cli import main; "
    "atexit.register(lambda: print('exit hook', file=sys.stderr)); "
    "sys.exit(main())"
)


def test_the_second_process_runs_no_exit_hook_and_flushes_no_inherited_buffer():
    # buffered stdout still holds the header when the child is forked
    spec = SweepSpec("omega2", 0.009, 0.012, 5000, SWEEP_BASE)
    done = subprocess.run(
        [sys.executable, "-c", WITH_EXIT_HOOK, *spec_argv(spec, "csv")],
        capture_output=True, text=True,
        env={**package_env(), "PYTHONUNBUFFERED": ""})
    assert (done.returncode, done.stderr) == (0, "exit hook\n")
    assert done.stdout == expected_sweep_output(spec, "csv")


def test_ctrl_c_leaves_no_process_and_at_most_one_traceback():
    # SIGINT reaches the whole foreground group: the CLI exits 130 without a
    # word, and the second process leaves through os._exit without one
    proc = subprocess.Popen(
        [sys.executable, "-c", ENTRY_POINT, *sweep_argv(200_000, "csv")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env(),
        start_new_session=True,
        # a child inherits an ignored SIGINT, as from a shell's background
        # job, and then Python installs no KeyboardInterrupt handler
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    for _ in range(3 * chunks.CHUNK_ROWS):  # past the child's first chunk
        proc.stdout.readline()
    os.killpg(proc.pid, signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (130, b"")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_a_reader_that_is_gone_before_a_short_output_gets_no_traceback():
    # buffered stdout holds the whole output, so the pipe error shows only
    # when it is flushed
    read, write = os.pipe()
    os.close(read)
    env = {**package_env(), "PYTHONUNBUFFERED": ""}
    try:
        done = subprocess.run(
            [sys.executable, "-c", ENTRY_POINT, *GOLDEN_INVOCATIONS["entangle.json"]],
            stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("redirect", [">&-", "> /dev/full"])
@pytest.mark.parametrize("argv, env", [
    (["constants"], {}),
    (sweep_argv(3000, "csv"), {}),
    # argparse writes help itself, and drops a failed write: unbuffered, at
    # once, and buffered, at the flush on exit
    *((argv, {"PYTHONUNBUFFERED": unbuffered})
      for argv in (["--help"], ["sweep", "--help"]) for unbuffered in ("1", "")),
], ids=["constants", "sweep", "help-unbuffered", "help-buffered",
        "sweep-help-unbuffered", "sweep-help-buffered"])
def test_a_failed_write_exits_1_with_one_error_line(argv, env, redirect):
    # stdout closed, so Python sets sys.stdout to None, or a device that
    # refuses every write; the sweep renders its three chunks on two
    # processes where two CPUs are free
    if redirect == "> /dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    command = shlex.join([sys.executable, "-c", ENTRY_POINT, *argv])
    proc = subprocess.Popen(["sh", "-c", f"exec {command} {redirect}"],
                            stderr=subprocess.PIPE, text=True,
                            env={**package_env(), **env}, start_new_session=True)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err.startswith("error: cannot write the output: ") and err.count("\n") == 1
    assert "Traceback" not in err
    with pytest.raises(ProcessLookupError):  # no process of its group is left
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_is_written_as_argparse_prints_it(capsys, argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    printed = capsys.readouterr().out
    assert printed.startswith("usage: qsagnac")
    assert run(capsys, *argv) == (0, printed, "")


def test_an_argument_error_with_stdout_closed_still_exits_2():
    command = shlex.join([sys.executable, "-c", ENTRY_POINT, "entangle", "--m", "heavy"])
    done = subprocess.run(["sh", "-c", f"exec {command} >&-"], capture_output=True,
                          text=True, env=package_env())
    assert done.returncode == 2
    assert done.stderr.startswith("usage:") and "Traceback" not in done.stderr


def test_a_bad_mass_is_refused_in_the_same_words_everywhere(capsys):
    cases = [
        ["solve", "--target", "omega2", "--units", "natural", "--m", "-1",
         "--r1", "1", "--r2", "2", "--omega1", "0.01", "--k", "0"],
        ["solve", "--target", "r2", "--units", "natural", "--m", "0",
         "--r1", "1", "--omega1", "0.0105", "--omega2", "0.01", "--k", "0"],
        ["entangle", "--units", "natural", "--m", "-1", "--r1", "1", "--r2", "2",
         "--omega1", "0.001", "--omega2", "0.002"],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: mass must be positive and finite\n")


@pytest.mark.filterwarnings("error")  # a leaked numpy RuntimeWarning fails
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
        # integers too large for a double
        ["hydrogen", "--n", "1" + "0" * 400],
        ["hydrogen", "--pair", "1,1" + "0" * 400],
        ["solve", "--target", "omega2", "--units", "natural", "--m", "1000",
         "--r1", "1", "--r2", "2", "--omega1", "0.01", "--k", "1" + "0" * 400],
        # phases past double resolution: delta = -1.25e16 rad, phi_jk = 7.2e19
        # rad, then branch phases that overflow to inf
        ["entangle", "--m", "1e-14", "--r1", "0.01", "--r2", "0.011",
         "--omega1", "1e3", "--omega2", "999"],
        ["state", "--m", "1e-14", "--r1", "0.01", "--r2", "0.011",
         "--omega1", "1e3", "--omega2", "999"],
        ["state", "--units", "natural", "--m", "1e308", "--r1", "1", "--r2", "2",
         "--omega1", "0.01", "--omega2", "0.02"],
        # a non-finite result: phi overflows to inf
        ["phase", "--units", "natural", "--m", "1e308", "--omega", "0.1", "--r", "5"],
        # solver answers outside the domain: a negative given radius, and an
        # r2 that puts the omega1 rim at beta = 2.83
        ["solve", "--target", "omega2", "--units", "natural", "--m", "1000",
         "--r1", "-1", "--r2", "2", "--omega1", "0.01", "--k", "0"],
        ["solve", "--target", "r2", "--units", "natural", "--m", "1000",
         "--r1", "1", "--omega1", "2.0", "--omega2", "2.0005", "--k", "0"],
        # a solver denominator of zero: opposite radii, then products that
        # underflow
        ["solve", "--target", "omega2", "--units", "natural", "--m", "1",
         "--r1=-1", "--r2", "1", "--omega1", "0.01", "--k", "0"],
        ["solve", "--target", "omega2", "--units", "natural", "--m", "1e-300",
         "--r1", "1e-100", "--r2", "2e-100", "--omega1", "0.01", "--k", "0"],
        ["solve", "--target", "r2", "--units", "natural", "--m", "1e-300",
         "--r1", "1", "--omega1", "1e-30", "--omega2", "0", "--k", "0"],
        # an answer whose delta overflows to inf when the solver checks it
        ["solve", "--target", "omega2", "--units", "natural",
         "--m", "1.300140875711561e+222", "--r1", "8.564961446841678e-155",
         "--r2", "8.56922855684697e-155", "--omega1", "-4.3197412138776576e-180",
         "--k", "0"],
        # r * r overflows
        ["metric", "--units", "natural", "--omega", "0", "--r", "1e200"],
        ["phase", "--units", "natural", "--m", "1", "--omega", "0", "--r", "1e200"],
        # a row whose delta overflows, and a count above the bound
        ["sweep", "--vary", "mass", "--start", "1e300", "--stop", "1e308",
         "--count", "3", "--units", "natural", "--m", "1000", "--r1", "1",
         "--r2", "1.41421356237", "--omega1", "0.01", "--omega2", "0.0105"],
        # a span stop - start that overflows
        ["sweep", "--vary", "omega2", "--start=-1e308", "--stop", "1e308",
         "--count", "3", "--units", "natural", "--m", "1000", "--r1", "1",
         "--r2", "1.41421356237", "--omega1", "0.01", "--omega2", "0.0105"],
        ["sweep", "--vary", "omega2", "--start", "0.009", "--stop", "0.012",
         "--count", "1000001", "--units", "natural", "--m", "1000", "--r1", "1",
         "--r2", "1.41421356237", "--omega1", "0.01", "--omega2", "0.0105"],
        # a sweep of more than one chunk whose delta overflows only near
        # r2 = 0, first at row 1167: refused before it writes anything
        ["sweep", "--vary", "r2", "--start=-1e150", "--stop", "1e150",
         "--count", "5001", "--units", "natural", "--m", "2e158", "--r1", "1e150",
         "--r2", "1e150", "--omega1", "1e-151", "--omega2=-1e-151"],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # one-line diagnostic
        assert "math domain error" not in err, argv
