"""Helpers shared by the test modules: a random-configuration generator,
an SVD/determinant oracle that shares no code with the package's closed
forms (it works on the amplitudes of a PureState2x2), mpmath oracles for
the concurrence and the entropy with an ulp distance, a row-by-row
reference for sweeps, and argparse's reading of the CLI's argv."""

import argparse
import math
import re

import mpmath
import numpy as np

from qsagnac import (
    InterferometerConfig,
    RegimeStatus,
    UnitSystem,
    concurrence_from_delta,
    entangling_phase_value,
    entropy_from_concurrence,
)
from qsagnac import cli
from qsagnac.constants import require_valid_config


def random_config(rng):
    return InterferometerConfig(
        m=rng.uniform(0.5, 50.0),
        r1=rng.uniform(0.05, 1.5),
        r2=rng.uniform(0.05, 1.5),
        omega1=rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 0.05),
        omega2=rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 0.05),
        units=UnitSystem.NATURAL,
    )


def svd_concurrence(state):
    """Independent oracle: concurrence as twice the singular-value product."""
    s = np.linalg.svd(state.amplitudes, compute_uv=False)
    return 2.0 * float(s[0]) * float(s[1])


def concurrence(state):
    """Pure-state concurrence 2 |det M|, 0 for product states and 1 at maximum."""
    m = state.amplitudes
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return min(1.0, 2.0 * abs(det))


def schmidt_decompose(state):
    """Schmidt coefficients (singular values of M), descending."""
    s = np.linalg.svd(state.amplitudes, compute_uv=False)
    return (float(s[0]), float(s[1]))


def entanglement_entropy(state):
    """Reduced-state von Neumann entropy in bits, -sum lam log2 lam."""
    entropy = 0.0
    for s in schmidt_decompose(state):
        lam = s * s
        if lam > 0.0:
            entropy -= lam * math.log2(lam)
    return entropy


def exact_concurrence(delta: float):
    """|sin(delta/2)| in mpmath, with delta taken as exact."""
    with mpmath.workprec(128):
        return abs(mpmath.sin(mpmath.mpf(delta) / 2))


def exact_entropy_bits(c: float):
    """Entropy in bits of a pure two-qubit state with concurrence c, in
    mpmath from its definition, -sum lam log2(lam) over the eigenvalues
    (1 +- sqrt(1 - c^2)) / 2, with c taken as exact. The precision grows
    with c's binary exponent, so (1 - sqrt(1 - c^2)) / 2, about c^2 / 4,
    keeps about 128 bits of its own."""
    with mpmath.workprec(128 - 2 * math.frexp(c)[1]):
        gap = mpmath.sqrt(1 - mpmath.mpf(c) ** 2)
        return -sum(lam * mpmath.log(lam, 2) for lam in ((1 + gap) / 2, (1 - gap) / 2)
                    if lam > 0)


def ulps(got: float, exact) -> float:
    """|got - exact| in units in the last place of the double nearest exact."""
    with mpmath.workprec(128):
        return float(abs(mpmath.mpf(got) - exact)) / math.ulp(float(exact))


# the five numbers of a config, each under its --vary name where it has one
ROW_NAMES = ("mass", "r1", "r2", "omega1", "omega2")


def reference_sweep_rows(spec):
    """The rows of sweep(spec) as (value, delta, concurrence, entropy_bits,
    regime), each computed on its own through the public per-config
    functions and the config gate. Raises ValueError in sweep's words,
    naming the first row whose delta is not finite."""
    consts = spec.base.constants
    numbers = dict(zip(ROW_NAMES, spec.base[:5]))
    # numpy also computes the last point as div * step, which can overflow
    # near the largest span before it is overwritten with stop
    with np.errstate(over="ignore"):
        grid = np.linspace(spec.start, spec.stop, spec.count).tolist()
    rows = []
    for value in grid:
        numbers[spec.varying] = value
        try:
            regime = require_valid_config(*numbers.values(), consts).status
        except ValueError:
            regime = RegimeStatus.ERROR
        delta = entangling_phase_value(*numbers.values(), consts)
        if not math.isfinite(delta):
            raise ValueError(
                f"delta = {delta} is not finite at {spec.varying} = {value:g}")
        conc = concurrence_from_delta(delta)
        rows.append((value, delta, conc, entropy_from_concurrence(conc), regime))
    return rows


def spec_argv(spec, fmt="csv"):
    """The CLI invocation of the sweep spec; repr round-trips every double."""
    flags = zip(("m", "r1", "r2", "omega1", "omega2"), spec.base[:5])
    return [
        "sweep", "--vary", spec.varying, f"--start={spec.start!r}",
        f"--stop={spec.stop!r}", "--count", str(spec.count), "--format", fmt,
        "--units", spec.base.units.value,
        *(f"--{name}={value!r}" for name, value in flags),
    ]


def argparse_reference():
    """The argparse parser that qsagnac.cli built from its subcommand table
    before it read argv on its own, with solve's rules, which main checked
    on the namespace: parse_args exits 2 where that CLI did, and 0 after
    printing help. argparse reads a token that starts with "-" as a value,
    not a flag, only in the forms -1 and -1.5; each subparser's private
    matcher (the same attribute on Python 3.10-3.13) is set to one that also
    takes -1e-3 and the -inf, -infinity and -nan that float() reads."""
    negative_number = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)
    parser = argparse.ArgumentParser(
        prog="qsagnac",
        description="Rotating-disk matter-wave interferometer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags) in cli._SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p._negative_number_matcher = negative_number
        p.set_defaults(run=getattr(cli, f"cmd_{name}"))
        if name == "hydrogen":
            p = p.add_mutually_exclusive_group(required=True)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    parse_args = parser.parse_args

    def checked(argv):
        args = parse_args(argv)
        if args.command == "solve":
            given = "r2" if args.target == "omega2" else "omega2"
            if getattr(args, given) is None or getattr(args, args.target) is not None:
                parser.exit(2, "usage error: solve's target rules\n")
        return args

    parser.parse_args = checked
    return parser
