"""Command-line frontend: every pipeline stage as a subcommand.

Output is JSON (CSV for sweeps) with floats printed to 17 significant
digits so values survive a parse round-trip bit-exactly. Each payload is
built from the result named tuples, whose fields give its keys; a sweep
streams its rows, and a refused sweep writes nothing. Exit codes: 0
success, 1 domain error or failed write of output or help (one line on
stderr) or a reader that closed the pipe early, 2 argument error, 130 Ctrl-C.

One parser reads every argv from the subcommand table, _SUBCOMMANDS, and
writes help and argument errors from it too. A flag may be cut to a prefix
that no other flag of its subcommand has. Nothing is wrapped to a terminal
width, so help and error texts are the same bytes on every supported Python.
"""

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


# Flag value converters: each raises ValueError in the words of its error line.
def number(text: str) -> float:
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise ValueError(f"not a finite number: {text!r}")


def integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def pair(text: str) -> tuple[int, int]:
    try:
        n1, n2 = map(int, text.split(","))
    except ValueError:
        raise ValueError(f"not two integers N1,N2: {text!r}") from None
    return (n1, n2)


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


def _config(args, **fixed):
    """The gated config of args' five numbers, with fixed's in their place."""
    from .state import InterferometerConfig

    numbers = {name: getattr(args, name) for name in _CONFIG_NAMES}
    return InterferometerConfig(**{**numbers, **fixed}, units=UnitSystem(args.units))


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

    # No row reads the base's varied value, so the base gets one that adds
    # nothing to the gate, which reads it only in max(|omega1|, |omega2|),
    # max(r1, r2) and m > 0; each row is gated in the plan.
    field, neutral = {"omega2": ("omega2", 0.0), "r2": ("r2", 0.0), "mass": ("m", 1.0)}[args.vary]
    base = _config(args, **{field: neutral})
    spec = SweepSpec(args.vary, args.start, args.stop, args.count, base)
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
_NUMBER = {"type": number, "required": True}
_OPTIONAL = {"type": number}
_INTEGER = {"type": integer, "required": True}
_UNITS = {"--units": {"choices": [u.value for u in UnitSystem], "default": "si"}}
_CONFIG = {**{f"--{name}": _NUMBER for name in _CONFIG_NAMES}, **_UNITS}

# Each subcommand's help line and its flags in usage order, each with a
# converter, whose name is its placeholder in help unless a metavar is
# given, or choices, and required or a default. _parse runs <name> with
# cmd_<name>.
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
        {"--n": {"type": integer}, "--pair": {"type": pair, "metavar": "N1,N2"}},
    ),
}
_ABOUT = "Rotating-disk matter-wave interferometer simulator"
_HELP = ("-h", "--help")


class UsageError(Exception):
    """An argument error, as the CLI prints it on stderr."""


def build_parser():
    """The CLI's parser: parse_args(argv) is _parse(argv). A new object on
    each call, as perfbench's tracer wraps the parse_args of each one."""
    return SimpleNamespace(parse_args=_parse)


def _help(name) -> str:
    """The help text of the subcommand name, or of qsagnac for None: the
    usage line, what it does, and a line for each subcommand or flag, with a
    flag's placeholder or choices, then required or its default. Nothing
    wraps, so the text is the same on every Python."""
    about, flags = _SUBCOMMANDS.get(name, (_ABOUT, {}))
    rows = {"-h, --help": "show this help message and exit"}
    for flag, kw in flags.items():
        shape = ("{" + ",".join(kw["choices"]) + "}" if "choices" in kw
                 else kw.get("metavar", kw["type"].__name__.upper()))
        if kw.get("required"):
            note = "required"
        elif name == "hydrogen":
            note = "required: one of " + ", ".join(flags)
        else:
            note = f"default: {kw['default']}" if "default" in kw else "optional"
        rows[f"{flag} {shape}"] = note
    words = [word if note.startswith("required") else f"[{word}]"
             for word, note in list(rows.items())[1:]]
    if name is None:
        words = ["{" + ",".join(_SUBCOMMANDS) + "} ..."]
        rows.update((sub, entry[0]) for sub, entry in _SUBCOMMANDS.items())
    elif name == "hydrogen":
        words = ["(" + " | ".join(words) + ")"]
    width = 2 + max(map(len, rows))
    return "\n".join([f"usage: {_prog(name)} [-h] " + " ".join(words), "", about, "",
                      *(f"  {key:{width}}{note}" for key, note in rows.items())])


def _prog(name) -> str:
    return "qsagnac" if name is None else f"qsagnac {name}"


def _error(name, message: str) -> UsageError:
    """The usage line, then "<prog>: error: <message>"."""
    return UsageError(_help(name).partition("\n")[0] + f"\n{_prog(name)}: error: {message}")


def _flag(token: str, flags, name):
    """The flag of flags, or -h or --help, that token names before any "=":
    in full, or by a prefix of one long flag alone. None if it names none."""
    flag = token.partition("=")[0]
    names = [*_HELP, *flags]
    found = [flag] if flag in names else [
        f for f in names if len(flag) > 2 and flag.startswith("--") and f.startswith(flag)]
    if len(found) > 1:
        raise _error(name, f"ambiguous option: {flag} could match {', '.join(found)}")
    return found[0] if found else None


def _parse(argv):
    """The namespace of argv, with run set to cmd_<name>, or, for -h or
    --help, one whose run returns the help text. A flag may be cut to a
    prefix that no other flag has. The token after a flag is its value,
    "-1e-3" included. A repeated flag keeps its last value.

    Raises UsageError for the first error, in this order: an ambiguous
    prefix anywhere after the subcommand; then, token by token, a bad or
    missing value, hydrogen's second flag, or a help flag with a value; then
    a missing flag; then a token that names no flag; then solve's rules. So
    a help flag is help unless an error comes before it, or the argv has an
    ambiguous prefix. An error's usage line shows the choices it refers to."""
    name, flags, given, stray = None, {}, {}, []
    tokens = iter(argv)
    for token in tokens:
        if name is None and (token[:1] != "-" or token == "-"):  # the subcommand
            if token not in _SUBCOMMANDS:
                raise _error(None, f"argument command: invalid choice: {token!r}")
            name, flags = token, _SUBCOMMANDS[token][1]
            for later in argv[argv.index(token) + 1:]:  # an ambiguous prefix first
                _flag(later, flags, name)
        elif (flag := _flag(token, flags, name)) is None:
            stray.append(token)
        elif flag in _HELP:
            if "=" in token:
                raise _error(name, "argument -h/--help: ignored explicit argument "
                                   + repr(token.partition("=")[2]))
            return SimpleNamespace(command="--help", run=lambda _: _help(name))
        else:
            _, eq, text = token.partition("=")
            if not eq and (text := next(tokens, None)) is None:
                raise _error(name, f"argument {flag}: expected one argument")
            kw = flags[flag]
            try:
                given[flag] = value = kw.get("type", str)(text)
            except ValueError as exc:
                raise _error(name, f"argument {flag}: {exc}") from None
            if value not in kw.get("choices", (value,)):
                raise _error(name, f"argument {flag}: invalid choice: {text!r}")
            if name == "hydrogen" and len(given) > 1:  # both flags of its group
                other = min(given.keys() - {flag})
                raise _error(name, f"argument {flag}: not allowed with argument {other}")
    missing = [f for f, kw in flags.items() if kw.get("required") and f not in given]
    if name is None or missing:
        raise _error(name, "the following arguments are required: "
                           + ", ".join(missing or ["command"]))
    if name == "hydrogen" and not given:
        raise _error(name, f"one of the arguments {' '.join(flags)} is required")
    if stray:
        raise _error(name, "unrecognized arguments: " + " ".join(stray))
    values = {flag[2:]: given.get(flag, kw.get("default")) for flag, kw in flags.items()}
    if name == "solve":  # the target is the unknown, and the other one is given
        target, other = values["target"], {"omega2": "r2", "r2": "omega2"}[values["target"]]
        if values[other] is None:
            raise UsageError(f"usage error: solve --target {target} requires --{other}")
        if values[target] is not None:
            raise UsageError(f"usage error: --{target} is the unknown when solving for {target}")
    # run is looked up per call, so a handler rebound on the module is the one run
    return SimpleNamespace(command=name, **values, run=globals()[f"cmd_{name}"])


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
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
