"""Command-line frontend: every pipeline stage as a subcommand.

Output is JSON (CSV for sweeps) with floats printed to 17 significant
digits so values survive a parse round-trip bit-exactly. Each payload is
built from the result named tuples, whose fields give its keys; a sweep
streams its rows, and a refused sweep writes nothing. Exit codes: 0
success, 1 domain error (diagnostic on stderr) or a reader that closed the
pipe early, 2 argument error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from enum import Enum
from itertools import islice

from .constants import RegimeStatus, UnitSystem, constants_for, regime_check
from .design import (
    VARY_CHOICES,
    SweepRow,
    SweepSpec,
    _require_finite_deltas,
    _sweep_values,
    solve_omega2,
    solve_r2,
)
from .hydrogen import bohr_orbit, hydrogen_pair_report, hydrogen_phase
from .metric import perturbation, rotating_disk_metric
from .phase import entangling_phase_value, sagnac_phase, two_radius_relative_phase
from .state import (
    InterferometerConfig,
    assemble_full_state,
    concurrence_from_delta,
    entanglement_report,
)

# The numeric fields of InterferometerConfig, which are also the config flags.
_CONFIG_NAMES = InterferometerConfig._fields[:5]


def format_float(x: float) -> str:
    """17-significant-digit decimal; parses back to the identical double."""
    s = f"{x:.17g}"
    if "." not in s and "e" not in s and "E" not in s:
        if not math.isfinite(x):
            raise ValueError(f"result is not a finite number: {s}")
        s += ".0"
    return s


def to_json(value, indent: int = 0) -> str:
    """Serializer with fixed float formatting (stdlib json hardcodes repr).

    A named tuple prints as its fields, an Enum as its value, an array
    through .tolist(), and a complex number as {"re", "im"}.
    """
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return '"' + value + '"'
    if isinstance(value, Enum):
        return to_json(value.value, indent)
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
    if hasattr(value, "tolist"):  # numpy arrays, without importing numpy here
        return to_json(value.tolist(), indent)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two quantum numbers: N1,N2")
    return (int(parts[0]), int(parts[1]))


def cmd_constants(args) -> str:
    units = UnitSystem(args.units)
    return to_json({"units": units, **constants_for(units)._asdict()})


def cmd_metric(args) -> str:
    units = UnitSystem(args.units)
    metric = rotating_disk_metric(args.omega, args.r, constants_for(units))
    return to_json(
        {
            "omega": args.omega,
            "r": args.r,
            "units": units,
            "g": metric.g,
            **perturbation(metric)._asdict(),
            "regime": metric.regime,
        }
    )


def cmd_phase(args) -> str:
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


def _config(args) -> InterferometerConfig:
    return InterferometerConfig(
        **{name: getattr(args, name) for name in _CONFIG_NAMES},
        units=UnitSystem(args.units),
    )


def cmd_state(args) -> str:
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
    cfg = _config(args)
    return to_json({**cfg._asdict(), **entanglement_report(cfg)._asdict()})


def cmd_solve(args) -> str:
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


# a dict read, where status.value would go through Enum's property
_REGIME_TEXT = {status: status.value for status in RegimeStatus}


# rows per write (about 100 KB of CSV, 200 KB of JSON): with PYTHONUNBUFFERED
# set, each write is a syscall
_CHUNK_ROWS = 1024


def _write_lines(head: str, lines, sep: str) -> None:
    """Write head, then a newline and the lines joined by sep, in chunks."""
    write = sys.stdout.write  # looked up per call, so a redirected stdout is used
    write(head)
    lead = "\n"
    while chunk := list(islice(lines, _CHUNK_ROWS)):
        write(lead + sep.join(chunk))
        lead = sep


def cmd_sweep(args) -> str:
    spec = SweepSpec(args.vary, args.start, args.stop, args.count, _config(args))
    _require_finite_deltas(spec)  # so a refused sweep writes nothing
    rows = _sweep_values(spec)
    if args.format == "json":  # to_json(sweep(spec)), a row at a time
        _write_lines("[", ("  " + to_json(SweepRow._make(r), 1) for r in rows), ",\n")
        return "\n]"  # the rest, for main to print
    # the kernel's tuples, not sweep()'s rows: holding a SweepRow per row
    # costs about 13% of perfbench's sweep_csv throughput and 1 MB of RSS
    lines = (
        f"{format_float(value)},{format_float(delta)},{format_float(conc)},"
        f"{format_float(entropy)},{_REGIME_TEXT[regime]}"
        for value, delta, conc, entropy, regime in rows
    )
    _write_lines("value,delta,concurrence,entropy_bits,regime", lines, "\n")
    return ""


def cmd_hydrogen(args) -> str:
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


def _add_units(parser) -> None:
    parser.add_argument("--units", choices=[u.value for u in UnitSystem], default="si")


def _add_config_flags(parser) -> None:
    for name in _CONFIG_NAMES:
        parser.add_argument(f"--{name}", type=_finite, required=True)
    _add_units(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsagnac",
        description="Rotating-disk matter-wave interferometer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the pinned constant table")
    p.set_defaults(run=cmd_constants)
    _add_units(p)

    p = sub.add_parser("metric", help="rotating-disk metric and perturbation")
    p.set_defaults(run=cmd_metric)
    p.add_argument("--omega", type=_finite, required=True)
    p.add_argument("--r", type=_finite, required=True)
    _add_units(p)

    p = sub.add_parser("phase", help="loop phase at one radius (optionally two)")
    p.set_defaults(run=cmd_phase)
    p.add_argument("--m", type=_finite, required=True)
    p.add_argument("--omega", type=_finite, required=True)
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--r2", type=_finite)
    _add_units(p)

    p = sub.add_parser("state", help="assembled four-branch state amplitudes")
    p.set_defaults(run=cmd_state)
    _add_config_flags(p)

    p = sub.add_parser("entangle", help="entanglement report for a configuration")
    p.set_defaults(run=cmd_entangle)
    _add_config_flags(p)

    p = sub.add_parser("solve", help="closed-form maximal-entanglement parameter")
    p.set_defaults(run=cmd_solve)
    p.add_argument("--target", choices=["omega2", "r2"], required=True)
    p.add_argument("--m", type=_finite, required=True)
    p.add_argument("--r1", type=_finite, required=True)
    p.add_argument("--r2", type=_finite)
    p.add_argument("--omega1", type=_finite, required=True)
    p.add_argument("--omega2", type=_finite)
    p.add_argument("--k", type=int, required=True)
    _add_units(p)

    p = sub.add_parser("sweep", help="one-dimensional entanglement landscape")
    p.set_defaults(run=cmd_sweep)
    p.add_argument("--vary", choices=VARY_CHOICES, required=True)
    p.add_argument("--start", type=_finite, required=True)
    p.add_argument("--stop", type=_finite, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_config_flags(p)

    p = sub.add_parser("hydrogen", help="Bohr-orbit phases and pair entanglement")
    p.set_defaults(run=cmd_hydrogen)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--pair", type=_pair)

    return parser


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    message = _validate(args)
    if message is not None:
        print(f"usage error: {message}", file=sys.stderr)
        return 2
    try:
        print(args.run(args))
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        # point stdout at devnull, so the flush at interpreter exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
