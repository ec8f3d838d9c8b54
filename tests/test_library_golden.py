"""Fixed library calls whose outputs are pinned bit for bit.

Each line of tests/golden/library.txt is the repr of one call's returned
record, or `ValueError: <message>` where the call refuses. A float's repr
round-trips, so a changed bit anywhere changes a line. The file is this
module's library_lines(), written with

    PYTHONPATH=src:tests python -c "import test_library_golden as t;
    print(*t.library_lines(), sep='\\n')" > tests/golden/library.txt
"""

import math
from pathlib import Path

from qsagnac import (
    InterferometerConfig,
    UnitSystem,
    constants_for,
    entanglement_report,
    hydrogen_pair_report,
    rotating_disk_metric,
    sagnac_phase,
    solve_omega2,
    solve_r2,
)

GOLDEN = Path(__file__).parent / "golden" / "library.txt"

SI, NATURAL = UnitSystem.SI, UnitSystem.NATURAL
SQRT2 = math.sqrt(2.0)


def report(m, r1, r2, omega1, omega2, units):
    return entanglement_report(InterferometerConfig(m, r1, r2, omega1, omega2, units))


# (function, arguments); a UnitSystem is passed on to report as is and
# replaced by its constant table for every other function
CALLS = [
    (report, (1000.0, 1.0, SQRT2, 0.01, 0.0105, NATURAL)),
    (report, (3.5, 0.25, 1.25, -0.03, 0.047, NATURAL)),
    (report, (1e6, 1.0, 1.0000001, 0.1, -0.2, NATURAL)),
    (report, (1.443e-25, 1e-3, 2e-3, 12.0, -8.0, SI)),
    (report, (9.1093837015e-31, 0.01, 0.5, 3.0, 2.999, SI)),
    (report, (1.443e-25, 0.01, 0.012, 1e4, 1e4 - 1.0, SI)),
    (report, (1.443e-25, 1e-3, 2e-3, 120.0, -80.0, SI)),        # resolution
    (report, (1000.0, 1.0, 2.0, 0.0, 0.002, NATURAL)),          # omega1 = 0
    (report, (-1.0, 1.0, 2.0, 0.01, 0.02, SI)),                 # mass
    (report, (1000.0, 1.0, 2.0, 0.6, 0.02, NATURAL)),           # rim speed
    (solve_omega2, (1000.0, 1.0, SQRT2, 0.01, 0, NATURAL)),
    (solve_omega2, (1000.0, 1.0, SQRT2, 0.01, 1, NATURAL)),
    (solve_omega2, (20.0, 0.3, 1.1, -0.04, -3, NATURAL)),
    (solve_omega2, (1.443e-25, 1e-3, 2e-3, 100.0, 0, SI)),
    (solve_omega2, (9.1093837015e-31, 0.05, 0.01, 10.0, 2, SI)),
    (solve_omega2, (1.443e-25, 0.01, 0.02, 50.0, -1, SI)),
    (solve_omega2, (1000.0, 1.0, 1.0, 0.01, 0, NATURAL)),       # A1 = A2
    (solve_omega2, (1000.0, 1.0, SQRT2, 0.01, 2.5, NATURAL)),    # k
    (solve_omega2, (1e-6, 1.0, 2.0, 0.01, 0, NATURAL)),         # rim speed
    (solve_omega2, (1.443e-25, 1e-3, 2e-3, 1e7, 0, SI)),        # resolution
    (solve_r2, (1000.0, 1.0, 0.01, 0.0105, 0, NATURAL)),
    (solve_r2, (1000.0, 1.0, 0.01, 0.0105, -1, NATURAL)),
    (solve_r2, (50.0, 2.0, -0.02, 0.03, 3, NATURAL)),
    (solve_r2, (1.443e-25, 2e-3, 100.0, 160.0, 0, SI)),
    (solve_r2, (9.1093837015e-31, 0.05, 12.0, 3.0, 1, SI)),
    (solve_r2, (1.443e-25, 0.01, 30.0, 31.0, -2, SI)),
    (solve_r2, (1000.0, 1.0, 0.01, 0.01, 0, NATURAL)),          # omega1 = omega2
    (solve_r2, (1000.0, 0.1, 0.0105, 0.01, 0, NATURAL)),        # no real radius
    (solve_r2, (0.0, 1.0, 0.01, 0.0105, 0, SI)),                # mass
    (solve_r2, (1.443e-25, 4.0, 31.0, 30.0, 0, SI)),            # resolution
    (hydrogen_pair_report, (1, 2, SI)),
    (hydrogen_pair_report, (2, 1, SI)),
    (hydrogen_pair_report, (1, 3, SI)),
    (hydrogen_pair_report, (5, 7, SI)),
    (hydrogen_pair_report, (10, 11, SI)),
    (hydrogen_pair_report, (40, 100, SI)),
    (hydrogen_pair_report, (1, 2, NATURAL)),                    # constants
    (hydrogen_pair_report, (3, 3, SI)),                         # equal n
    (hydrogen_pair_report, (0, 2, SI)),                         # n < 1
    (hydrogen_pair_report, (1, 2.0, SI)),                       # integer n
    (sagnac_phase, (1.0, 0.001, 1.0, NATURAL)),
    (sagnac_phase, (1000.0, -0.02, 3.0, NATURAL)),
    (sagnac_phase, (2.0, 0.0, 1.0, NATURAL)),
    (sagnac_phase, (5.0, 0.2, 2.0, NATURAL)),
    (sagnac_phase, (1.443e-25, 100.0, 1e-3, SI)),
    (sagnac_phase, (9.1093837015e-31, -3e4, 0.25, SI)),
    (sagnac_phase, (1.443e-25, 1e6, 100.0, SI)),
    (sagnac_phase, (1.0, 0.001, -1.0, NATURAL)),                # radius
    (sagnac_phase, (1.0, 2.0, 1.0, NATURAL)),                   # rim speed
    (sagnac_phase, (math.nan, 1.0, 1.0, SI)),                   # mass
    (rotating_disk_metric, (0.1, 1.0, NATURAL)),
    (rotating_disk_metric, (-0.3, 2.0, NATURAL)),
    (rotating_disk_metric, (0.0, 5.0, NATURAL)),
    (rotating_disk_metric, (0.5, 1.0, NATURAL)),
    (rotating_disk_metric, (100.0, 1e-3, SI)),
    (rotating_disk_metric, (-2e6, 10.0, SI)),
    (rotating_disk_metric, (3e7, 5.0, SI)),
    (rotating_disk_metric, (0.1, -1.0, NATURAL)),               # radius
    (rotating_disk_metric, (1.0, 1.0, NATURAL)),                # rim speed
    (rotating_disk_metric, (1e-300, 1e200, SI)),                # r^2 overflow
]


def library_lines():
    lines = []
    for fn, args in CALLS:
        *numbers, units = args
        try:
            out = fn(*numbers, units if fn is report else constants_for(units))
        except ValueError as exc:
            lines.append(f"ValueError: {exc}")
        else:
            lines.append(repr(out))
    return lines


def test_library_calls_match_the_golden_bit_for_bit():
    assert library_lines() == GOLDEN.read_text().splitlines()
