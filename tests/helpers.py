"""Helpers shared by the test modules: a random-configuration generator,
an SVD/determinant oracle that shares no code with the package's closed
forms (it works on the amplitudes of a PureState2x2), mpmath oracles for
the concurrence and the entropy with an ulp distance, and a row-by-row
reference for sweeps."""

import math

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


def parser_interface(parser):
    """The declared interface of an argparse parser and of its subparsers, as
    plain data: each action's flags, dest, type name, required, choices,
    default and help in declaration order, the mutually exclusive groups, and
    each subcommand's help line. Structural rather than format_help() text,
    whose layout differs between Python versions. tests/cli_interface.json is
    this function of qsagnac's parser, written with

        PYTHONPATH=src:tests python -c "import json, helpers, qsagnac.cli as c;
        print(json.dumps(helpers.parser_interface(c.build_parser()), indent=1))"
    """
    actions, subcommands = [], {}
    for action in parser._actions:
        choices = action.choices
        if hasattr(action, "_choices_actions"):  # the subparsers action
            subcommands = {
                pseudo.dest: {
                    "help": pseudo.help,
                    **parser_interface(choices[pseudo.dest]),
                }
                for pseudo in action._choices_actions
            }
            choices = list(choices)
        actions.append(
            {
                "option_strings": action.option_strings,
                "dest": action.dest,
                "type": getattr(action.type, "__name__", None),
                "required": action.required,
                "choices": None if choices is None else list(choices),
                "default": action.default,
                "help": action.help,
            }
        )
    groups = [
        {"required": group.required, "dests": [a.dest for a in group._group_actions]}
        for group in parser._mutually_exclusive_groups
    ]
    return {
        "prog": parser.prog,
        "description": parser.description,
        "actions": actions,
        "mutually_exclusive": groups,
        "subcommands": subcommands,
    }
