"""Command-line frontend: every pipeline stage as a subcommand.

Output is JSON (CSV for sweeps) with floats printed to 17 significant
digits so values survive a parse round-trip bit-exactly. Each payload is
built from the result named tuples, whose fields give its keys; a sweep
streams its rows, and a refused sweep writes nothing. Exit codes: 0
success, 1 domain error or failed write of output or help (one line on
stderr) or a reader that closed the pipe early, 2 argument error, 130 Ctrl-C.
"""

import io
import math
import os
import sys
from types import SimpleNamespace

from .constants import UnitSystem, _Members, constants_for, regime_check

# Each cmd_<name> imports its own modules when it runs. So the config flags,
# InterferometerConfig._fields[:5], and --vary's choices, design.VARY_CHOICES,
# are literals here; tests pin them to their sources.
_CONFIG_NAMES = ("m", "r1", "r2", "omega1", "omega2")


def format_float(x: float) -> str:
    """17-significant-digit decimal; parses back to the identical double."""
    s = f"{x:.17g}"
    if "." not in s and "e" not in s:
        if not math.isfinite(x):
            raise ValueError(f"result is not a finite number: {s}")
        s += ".0"
    return s


def to_json(value, indent: int = 0) -> str:
    """Serializer with fixed float formatting (stdlib json hardcodes repr).

    A named tuple prints as its fields, a UnitSystem or RegimeStatus member
    as its value, and a complex number as {"re", "im"}.
    """
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return '"' + value + '"'
    if isinstance(value, _Members):
        return to_json(value._value_, indent)
    if hasattr(value, "_asdict"):  # a named tuple, before the tuple branch
        value = value._asdict()
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{key}": {to_json(val, indent + 1)}'
            for key, val in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{pad}  {to_json(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, complex):
        return to_json({"re": value.real, "im": value.imag}, indent)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError("expected two quantum numbers: N1,N2")
    return (int(parts[0]), int(parts[1]))


def cmd_constants(args) -> str:
    units = UnitSystem(args.units)
    return to_json({"units": units, **constants_for(units)._asdict()})


def cmd_metric(args) -> str:
    from .metric import perturbation, rotating_disk_metric

    units = UnitSystem(args.units)
    metric = rotating_disk_metric(args.omega, args.r, constants_for(units))
    return to_json(
        {
            "omega": args.omega,
            "r": args.r,
            "units": units,
            "g": metric.rows,
            **perturbation(metric)._asdict(),
            "regime": metric.regime,
        }
    )


def cmd_phase(args) -> str:
    from .phase import sagnac_phase, two_radius_relative_phase

    units = UnitSystem(args.units)
    consts = constants_for(units)
    result = sagnac_phase(args.m, args.omega, args.r, consts)
    payload = {
        "m": args.m,
        "omega": args.omega,
        "r": args.r,
        "units": units,
        **result._asdict(),
    }
    if args.r2 is not None:
        payload["r2"] = args.r2
        payload["relative_phase"] = two_radius_relative_phase(
            args.m, args.omega, args.r, args.r2, consts
        )
    return to_json(payload)


def _config(args):
    from .state import InterferometerConfig

    return InterferometerConfig(
        **{name: getattr(args, name) for name in _CONFIG_NAMES},
        units=UnitSystem(args.units),
    )


def cmd_state(args) -> str:
    from .state import assemble_full_state

    cfg = _config(args)
    state = assemble_full_state(cfg)
    return to_json(
        {
            **cfg._asdict(),
            "amplitudes": state.amplitudes,
            "row_basis": state.row_labels,
            "col_basis": state.col_labels,
        }
    )


def cmd_entangle(args) -> str:
    from .state import entanglement_report

    cfg = _config(args)
    return to_json({**cfg._asdict(), **entanglement_report(cfg)._asdict()})


def cmd_solve(args) -> str:
    from .design import solve_omega2, solve_r2
    from .phase import entangling_phase_value
    from .state import concurrence_from_delta

    units = UnitSystem(args.units)
    consts = constants_for(units)
    # every config value but the target, in the solvers' argument order
    given = {name: getattr(args, name) for name in _CONFIG_NAMES if name != args.target}
    solver = solve_omega2 if args.target == "omega2" else solve_r2
    value = solver(*given.values(), args.k, consts)
    delta = entangling_phase_value(**given, **{args.target: value}, consts=consts)
    return to_json(
        {
            "target": args.target,
            **given,
            "k": args.k,
            "units": units,
            "value": value,
            "delta": delta,
            "concurrence": concurrence_from_delta(delta),
        }
    )


# --format: header, row template (a %s per number, then the regime), separator, tail
_SWEEP_FORMATS = {
    "json": ("[", '  {\n    "value": %s,\n    "delta": %s,\n    "concurrence": %s,\n'
                  '    "entropy_bits": %s,\n    "regime": "%s"\n  }', ",\n", "\n]"),
    "csv": ("value,delta,concurrence,entropy_bits,regime", "%s,%s,%s,%s,%s", "\n", ""),
}


# Stretches from _sweep_rows: a SweepRow per row would cost about 13% of
# sweep_csv throughput. Each number is finite, so x % 1.0 is 0.0 just for an
# integral x, which format_float ends in .0; a stretch with none takes one %.
def _render_rows(stretches, template: str, sep: str) -> str:
    rows = []
    for flat, regime in stretches:
        row = template % ("%.17g", "%.17g", "%.17g", "%.17g", regime._value_)
        if all(map((1.0).__rmod__, flat)):
            rows.append(sep.join([row] * (len(flat) // 4)) % tuple(flat))
        else:  # row by row
            rows += (row % numbers if all(map((1.0).__rmod__, numbers))
                     else template % (*map(format_float, numbers), regime._value_)
                     for numbers in zip(*[iter(flat)] * 4))
    return sep.join(rows)


def cmd_sweep(args) -> str:
    from .design import SweepSpec, _sweep_plan, _sweep_rows

    spec = SweepSpec(args.vary, args.start, args.stop, args.count, _config(args))
    # every refusal and gate call, before the header, so a refused sweep
    # writes nothing, and before a second process starts
    plan = _sweep_plan(spec)
    head, template, sep, tail = _SWEEP_FORMATS[args.format]
    sys.stdout.write(head)
    from .chunks import write_chunks  # after the header: the first byte waits for no load

    def text(i: int, j: int) -> str:  # rows i to j - 1
        return _render_rows(_sweep_rows(spec, plan, i, j), template, sep)

    write_chunks(sys.stdout, text, spec.count, sep)
    return tail  # the rest, for main to print


def cmd_hydrogen(args) -> str:
    from .hydrogen import bohr_orbit, hydrogen_pair_report, hydrogen_phase

    consts = constants_for(UnitSystem.SI)  # atomic scales are SI-only
    if args.n is not None:
        orbit = bohr_orbit(args.n, consts)
        return to_json(
            {
                **orbit._asdict(),
                "beta": regime_check(orbit.omega, orbit.r, consts).beta,
                **hydrogen_phase(args.n, consts)._asdict(),
            }
        )
    n1, n2 = args.pair
    report = hydrogen_pair_report(n1, n2, consts)
    return to_json({"n1": n1, "n2": n2, **report._asdict()})


# Flag specs that subcommands share: a finite number, required or not, a
# required integer, --units, and the config flags, which end with --units.
_NUMBER = {"type": _finite, "required": True}
_OPTIONAL = {"type": _finite}
_INTEGER = {"type": int, "required": True}
_UNITS = {"--units": {"choices": [u.value for u in UnitSystem], "default": "si"}}
_CONFIG = {**{f"--{name}": _NUMBER for name in _CONFIG_NAMES}, **_UNITS}

# Each subcommand's help line and its flags in usage order, with their
# add_argument keywords. _parse and build_parser run <name> with cmd_<name>.
_SUBCOMMANDS = {
    "constants": ("print the pinned constant table", _UNITS),
    "metric": (
        "rotating-disk metric and perturbation",
        {"--omega": _NUMBER, "--r": _NUMBER, **_UNITS},
    ),
    "phase": (
        "loop phase at one radius (optionally two)",
        {"--m": _NUMBER, "--omega": _NUMBER, "--r": _NUMBER, "--r2": _OPTIONAL,
         **_UNITS},
    ),
    "state": ("assembled four-branch state amplitudes", _CONFIG),
    "entangle": ("entanglement report for a configuration", _CONFIG),
    "solve": (
        "closed-form maximal-entanglement parameter",
        {
            "--target": {"choices": ["omega2", "r2"], "required": True},
            "--m": _NUMBER, "--r1": _NUMBER, "--r2": _OPTIONAL,
            "--omega1": _NUMBER, "--omega2": _OPTIONAL,
            "--k": _INTEGER,
            **_UNITS,
        },
    ),
    "sweep": (
        "one-dimensional entanglement landscape",
        {
            "--vary": {"choices": ("omega2", "r2", "mass"), "required": True},
            "--start": _NUMBER, "--stop": _NUMBER, "--count": _INTEGER,
            "--format": {"choices": list(_SWEEP_FORMATS), "default": "json"},
            **_CONFIG,
        },
    ),
    # --n and --pair form one required, mutually exclusive group
    "hydrogen": (
        "Bohr-orbit phases and pair entanglement",
        {"--n": {"type": int}, "--pair": {"type": _pair}},
    ),
}


def build_parser():
    """The argparse parser of _SUBCOMMANDS, for every argv that _parse declines."""
    import argparse
    import re

    # argparse reads a token that starts with "-" as a value, not a flag,
    # only in the forms -1 and -1.5. Each subparser's private matcher (the
    # same attribute on Python 3.10-3.13) is set to this one, which also
    # takes -1e-3 and, in any case, the -inf, -infinity and -nan that
    # float() reads, so _finite names them.
    negative_number = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)
    parser = argparse.ArgumentParser(
        prog="qsagnac",
        description="Rotating-disk matter-wave interferometer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p._negative_number_matcher = negative_number
        # looked up per call, so a handler rebound on the module is the one run
        p.set_defaults(run=globals()[f"cmd_{name}"])
        if name == "hydrogen":
            p = p.add_mutually_exclusive_group(required=True)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    return parser


def _parse(argv):
    """The namespace build_parser().parse_args(argv) gives, read from
    _SUBCOMMANDS, or None for argv that argparse must settle: help, errors
    and abbreviated flags. A repeated flag keeps its last value, as in
    argparse. A value after a space that starts with "-" needs no test: each
    converter takes such a text only as -<digit>... or -.<digit>..., which
    build_parser's matcher reads as a value, and no choice starts with "-"."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    name, tokens = argv[0], iter(argv[1:])
    flags = _SUBCOMMANDS[name][1]
    given = {}
    for token in tokens:
        flag, eq, text = token.partition("=")
        if not eq:
            text = next(tokens, "-")  # missing: no converter or choice takes "-"
        keywords = flags.get(flag)
        if keywords is None:
            return None
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # argparse words what the converter raised
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    missing = [f for f, kw in flags.items() if kw.get("required") and f not in given]
    if missing or name == "hydrogen" and len(given) != 1:  # its one required group
        return None
    return SimpleNamespace(
        command=name,
        **{flag[2:]: given.get(flag, kw.get("default")) for flag, kw in flags.items()},
        run=globals()[f"cmd_{name}"],  # looked up per call, as in build_parser
    )


def _validate(args) -> str | None:
    if args.command == "solve":
        target = args.target
        given = "r2" if target == "omega2" else "omega2"
        if getattr(args, given) is None:
            return f"solve --target {target} requires --{given}"
        if getattr(args, target) is not None:
            return f"--{target} is the unknown when solving for {target}"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:  # so every usage text, message and exit code is argparse's
        stdout, sys.stdout = sys.stdout, io.StringIO()  # argparse drops a failed help write
        try:
            args = build_parser().parse_args(argv)
            # argparse on Python 3.10 and 3.11 strips "--" from --flag=-- and
            # stores [] unconverted; parsing the bare flag exits 2 naming it
            for name, value in vars(args).items():
                if value == []:
                    build_parser().parse_args([args.command, f"--{name}"])
        except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
            if exc.code:
                return exc.code
            text = sys.stdout.getvalue().removesuffix("\n")  # print adds it back
            args = SimpleNamespace(command="--help", run=lambda _: text)
        finally:
            sys.stdout = stdout
    message = _validate(args)
    if message is not None:
        print(f"usage error: {message}", file=sys.stderr)
        return 2
    if sys.stdout is None:  # started with stdout closed, as `>&-` does
        print("error: cannot write the output: stdout is closed", file=sys.stderr)
        return 1
    try:
        print(args.run(args))
        sys.stdout.flush()  # so a failed write raises here, not at exit
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a failed write, as to a full disk
        # a broken pipe is silent: the reader stopped early, as `| head` does
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        # point stdout at devnull, so the flush at interpreter exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:  # Ctrl-C: 128 + SIGINT, as a shell reports it
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
