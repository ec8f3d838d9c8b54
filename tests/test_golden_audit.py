"""Every delta, concurrence and entropy printed in tests/golden/, against
mpmath.

The byte-identity tests say that a golden bit did not change, not that it
is right. Here each delta must lie within 3 ulp of (2 m / hbar)(omega1 -
omega2) pi (r1^2 - r2^2) for the inputs that produced it, with the pinned
constants: pi is the double math.pi and hbar is constants_for(units).hbar.
Each concurrence must lie within 1 ulp of |sin(delta/2)| for the delta
printed in its record, and each entropy within 4 ulp of the exact entropy
for the concurrence printed in its record, with the printed numbers taken
as exact. Run with -s to see each line's distance in ulps.
"""

import json
import math
import re
from pathlib import Path

import mpmath

from qsagnac import UnitSystem, constants_for
from qsagnac.hydrogen import bohr_orbit

from helpers import ROW_NAMES, exact_concurrence, exact_entropy_bits, ulps
from test_cli import GOLDEN_INVOCATIONS
from test_library_golden import CALLS, report

GOLDEN = Path(__file__).parent / "golden"
# the goldens that print a delta, and with it a concurrence and an entropy
RECORD_FILES = {
    "entangle.json", "hydrogen_pair.json", "library.txt", "solve.json",
    "solve_r2.json", "sweep.csv", "sweep_edges.csv", "sweep_mass.json",
}

# a figure as a JSON key, "delta": -1.5, or as a repr field, delta=-1.5
FIGURE = re.compile(r'\b(delta|concurrence|entropy_bits)"?(?:=|: )([-+.0-9e]+)')
# each checked figure, the figure of the same record it is computed from,
# the oracle for it and its bound in ulps
CHECKS = {
    "concurrence": ("delta", exact_concurrence, 1.0),
    "entropy_bits": ("concurrence", exact_entropy_bits, 4.0),
}


def golden_figures():
    """(place, name, value, source) for each concurrence and entropy in the
    goldens, with source the delta or the concurrence it is computed from.
    Every record prints delta before its concurrence and the concurrence
    before its entropy, in a JSON file as on a line of library.txt or of a
    CSV sweep. The help texts, in a folder of their own, print no figure."""
    for path in sorted(path for path in GOLDEN.iterdir() if path.is_file()):
        lines = path.read_text().splitlines()
        seen = {}
        for number, line in enumerate(lines, 1):
            if path.suffix == ".csv":
                pairs = zip(lines[0].split(","), line.split(",")) if number > 1 else ()
            else:
                pairs = FIGURE.findall(line)
            for name, text in pairs:
                if name in CHECKS:
                    yield f"{path.name}:{number}", name, float(text), seen[CHECKS[name][0]]
                if name == "delta" or name in CHECKS:
                    seen[name] = float(text)


def test_golden_concurrences_and_entropies_are_within_a_few_ulp_of_mpmath():
    files, far = set(), []
    for place, name, value, source in golden_figures():
        _, exact, bound = CHECKS[name]
        distance = ulps(value, exact(source))
        print(f"{place} {name} {value!r}: {distance:.3g} ulp")
        files.add(place.split(":")[0])
        if not distance <= bound:
            far.append(f"{place} {name} {value!r} is {distance:.3g} ulp off")
    assert files == RECORD_FILES
    assert not far, "\n".join(far)


# the five numbers of a config, by their CLI flags
NUMBERS = ("m", "r1", "r2", "omega1", "omega2")


def exact_delta(m, r1, r2, omega1, omega2, hbar):
    """(2 m / hbar)(omega1 - omega2) pi (r1^2 - r2^2) in mpmath, with pi the
    double math.pi and every argument taken as exact."""
    with mpmath.workprec(256):
        m, r1, r2, omega1, omega2, hbar = map(mpmath.mpf, (m, r1, r2, omega1, omega2, hbar))
        return 2 * m * (omega1 - omega2) * mpmath.mpf(math.pi) * (r1 * r1 - r2 * r2) / hbar


def flags(argv):
    """The --name value and --name=value pairs of a CLI invocation."""
    pairs, argv = {}, list(argv[1:])
    while argv:
        name, _, value = argv.pop(0).removeprefix("--").partition("=")
        pairs[name] = value or argv.pop(0)
    return pairs


def pair_inputs(n1, n2, consts):
    """The numbers of an electron superposed across Bohr orbits n1 and n2."""
    one, two = bohr_orbit(n1, consts), bohr_orbit(n2, consts)
    return consts.m_e, one.r, two.r, one.omega, two.omega


def config_inputs(numbers, consts):
    """The five numbers of the dict numbers, in config order, then hbar."""
    return (*(numbers[number] for number in NUMBERS), consts.hbar)


def golden_deltas():
    """(place, delta, inputs) for each delta in the goldens, with inputs the
    five numbers and hbar that produced it: a CLI golden's from its
    invocation, a sweep row's with its value put into the varied field, a
    solve's with its value put into the target field, a hydrogen pair's
    from bohr_orbit, and a library.txt report's from its call."""
    for name, argv in GOLDEN_INVOCATIONS.items():
        text = (GOLDEN / name).read_text()
        if "delta" not in text:
            continue
        given = flags(argv)
        consts = constants_for(UnitSystem(given.get("units", "si")))
        numbers = {number: float(given[number]) for number in NUMBERS if number in given}
        if argv[0] == "sweep":
            varied = NUMBERS[ROW_NAMES.index(given["vary"])]
            if name.endswith(".csv"):
                lines = text.splitlines()
                rows = [(number, dict(zip(lines[0].split(","), line.split(","))))
                        for number, line in enumerate(lines[1:], 2)]
            else:  # JSON: the record's index
                rows = enumerate(json.loads(text))
            for number, row in rows:
                numbers[varied] = float(row["value"])
                yield f"{name}:{number}", float(row["delta"]), config_inputs(numbers, consts)
            continue
        record = json.loads(text)
        if argv[0] == "hydrogen":
            pair = map(int, given["pair"].split(","))
            numbers = dict(zip(NUMBERS, pair_inputs(*pair, consts)))
        elif argv[0] == "solve":
            numbers[given["target"]] = record["value"]
        yield name, record["delta"], config_inputs(numbers, consts)
    lines = (GOLDEN / "library.txt").read_text().splitlines()
    for number, ((fn, args), line) in enumerate(zip(CALLS, lines), 1):
        delta = re.match(r"EntanglementReport\(delta=([^,]+),", line)
        if delta is not None:
            *numbers, units = args
            consts = constants_for(units)
            if fn is not report:  # hydrogen_pair_report
                numbers = pair_inputs(*numbers, consts)
            yield f"library.txt:{number}", float(delta[1]), (*numbers, consts.hbar)


def test_golden_deltas_are_within_3_ulp_of_mpmath_from_their_inputs():
    files, far = set(), []
    for place, delta, inputs in golden_deltas():
        distance = ulps(delta, exact_delta(*inputs))
        print(f"{place} delta {delta!r}: {distance:.3g} ulp")
        files.add(place.split(":")[0])
        if not distance <= 3.0:
            far.append(f"{place} delta {delta!r} is {distance:.3g} ulp off")
    assert files == RECORD_FILES
    assert not far, "\n".join(far)
