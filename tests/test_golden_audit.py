"""Every concurrence and entropy printed in tests/golden/, against mpmath.

The byte-identity tests say that a golden bit did not change, not that it
is right. Here each concurrence must lie within 1 ulp of |sin(delta/2)|
for the delta printed in its record, and each entropy within 4 ulp of the
exact entropy for the concurrence printed in its record, with the printed
numbers taken as exact. Run with -s to see each line's distance in ulps.
"""

import re
from pathlib import Path

from helpers import exact_concurrence, exact_entropy_bits, ulps

GOLDEN = Path(__file__).parent / "golden"

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
    CSV sweep."""
    for path in sorted(GOLDEN.iterdir()):
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
    assert files == {
        "entangle.json", "hydrogen_pair.json", "library.txt", "solve.json",
        "solve_r2.json", "sweep.csv", "sweep_edges.csv", "sweep_mass.json",
    }
    assert not far, "\n".join(far)
