"""Command-line frontend: every pipeline stage as a subcommand.

Output is JSON (CSV for sweeps) with floats printed to 17 significant
digits so values survive a parse round-trip bit-exactly. Exit codes:
0 success, 1 domain error (diagnostic on stderr), 2 argument error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .constants import RegimeCheck, UnitSystem, constants_for, regime_check
from .design import SweepSpec, solve_omega2, solve_r2, sweep
from .hydrogen import bohr_orbit, hydrogen_pair_report, hydrogen_phase
from .metric import perturbation, rotating_disk_metric
from .phase import sagnac_phase, two_radius_relative_phase
from .state import (
    EntanglementReport,
    InterferometerConfig,
    assemble_full_state,
    concurrence_from_delta,
    entangling_phase_value,
    entanglement_report,
)


def format_float(x: float) -> str:
    """17-significant-digit decimal; parses back to the identical double."""
    s = f"{x:.17g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def to_json(value, indent: int = 0) -> str:
    """Serializer with fixed float formatting (stdlib json hardcodes repr)."""
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
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return '"' + value + '"'
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


def _units(args) -> UnitSystem:
    return UnitSystem(args.units)


def _regime_payload(check: RegimeCheck) -> dict:
    return {"beta": check.beta, "status": check.status.value}


def _report_payload(report: EntanglementReport) -> dict:
    return {
        "delta": report.delta,
        "concurrence": report.concurrence,
        "schmidt": list(report.schmidt),
        "entropy_bits": report.entropy_bits,
        "maximal": report.maximal,
    }


def _matrix(array) -> list:
    return [[float(x) for x in row] for row in array]


def _complex_pairs(array) -> list:
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in array]


def cmd_constants(args) -> str:
    units = _units(args)
    consts = constants_for(units)
    return to_json(
        {
            "units": units.value,
            "hbar": consts.hbar,
            "c": consts.c,
            "m_e": consts.m_e,
            "a0": consts.a0,
            "alpha": consts.alpha,
        }
    )


def cmd_metric(args) -> str:
    units = _units(args)
    consts = constants_for(units)
    metric = rotating_disk_metric(args.omega, args.r, consts)
    pert = perturbation(metric)
    return to_json(
        {
            "omega": args.omega,
            "r": args.r,
            "units": units.value,
            "g": _matrix(metric.g),
            "h00": pert.h00,
            "h0phi": pert.h0phi,
            "full": _matrix(pert.full),
            "regime": _regime_payload(regime_check(args.omega, args.r, consts)),
        }
    )


def cmd_phase(args) -> str:
    units = _units(args)
    consts = constants_for(units)
    result = sagnac_phase(args.m, args.omega, args.r, consts)
    payload = {
        "m": args.m,
        "omega": args.omega,
        "r": args.r,
        "units": units.value,
        "phi": result.phi,
        "t_loop": result.t_loop,
        "area": result.area,
        "h00": result.h00,
        "regime": _regime_payload(result.regime),
    }
    if args.r2 is not None:
        payload["r2"] = args.r2
        payload["relative_phase"] = two_radius_relative_phase(
            args.m, args.omega, args.r, args.r2, consts
        )
    return to_json(payload)


def _config(args) -> InterferometerConfig:
    return InterferometerConfig(
        m=args.m,
        r1=args.r1,
        r2=args.r2,
        omega1=args.omega1,
        omega2=args.omega2,
        units=_units(args),
    )


def _config_payload(cfg: InterferometerConfig) -> dict:
    return {
        "m": cfg.m,
        "r1": cfg.r1,
        "r2": cfg.r2,
        "omega1": cfg.omega1,
        "omega2": cfg.omega2,
        "units": cfg.units.value,
    }


def cmd_state(args) -> str:
    cfg = _config(args)
    state = assemble_full_state(cfg)
    payload = _config_payload(cfg)
    payload.update(
        {
            "amplitudes": _complex_pairs(state.amplitudes),
            "row_basis": list(state.row_labels),
            "col_basis": list(state.col_labels),
        }
    )
    return to_json(payload)


def cmd_entangle(args) -> str:
    cfg = _config(args)
    payload = _config_payload(cfg)
    payload.update(_report_payload(entanglement_report(cfg)))
    return to_json(payload)


def cmd_solve(args) -> str:
    units = _units(args)
    consts = constants_for(units)
    if args.target == "omega2":
        value = solve_omega2(args.m, args.r1, args.r2, args.omega1, args.k, consts)
        delta = entangling_phase_value(
            args.m, args.r1, args.r2, args.omega1, value, consts
        )
        payload = {
            "target": "omega2",
            "m": args.m,
            "r1": args.r1,
            "r2": args.r2,
            "omega1": args.omega1,
        }
    else:
        value = solve_r2(args.m, args.r1, args.omega1, args.omega2, args.k, consts)
        delta = entangling_phase_value(
            args.m, args.r1, value, args.omega1, args.omega2, consts
        )
        payload = {
            "target": "r2",
            "m": args.m,
            "r1": args.r1,
            "omega1": args.omega1,
            "omega2": args.omega2,
        }
    payload.update(
        {
            "k": args.k,
            "units": units.value,
            "value": value,
            "delta": delta,
            "concurrence": concurrence_from_delta(delta),
        }
    )
    return to_json(payload)


def cmd_sweep(args) -> str:
    spec = SweepSpec(
        varying=args.vary,
        start=args.start,
        stop=args.stop,
        count=args.count,
        base=_config(args),
    )
    rows = sweep(spec)
    if args.format == "csv":
        lines = ["value,delta,concurrence,entropy_bits,regime"]
        for row in rows:
            lines.append(
                ",".join(
                    [
                        format_float(row.value),
                        format_float(row.delta),
                        format_float(row.concurrence),
                        format_float(row.entropy_bits),
                        row.regime.value,
                    ]
                )
            )
        return "\n".join(lines)
    return to_json(
        [
            {
                "value": row.value,
                "delta": row.delta,
                "concurrence": row.concurrence,
                "entropy_bits": row.entropy_bits,
                "regime": row.regime.value,
            }
            for row in rows
        ]
    )


def cmd_hydrogen(args) -> str:
    consts = constants_for(UnitSystem.SI)  # atomic scales are SI-only
    if args.n is not None:
        orbit = bohr_orbit(args.n, consts)
        phases = hydrogen_phase(args.n, consts)
        return to_json(
            {
                "n": orbit.n,
                "r": orbit.r,
                "omega": orbit.omega,
                "area": orbit.area,
                "beta": regime_check(orbit.omega, orbit.r, consts).beta,
                "estimate": phases.estimate,
                "loop_phase": phases.loop_phase,
            }
        )
    n1, n2 = args.pair
    report = hydrogen_pair_report(n1, n2, consts)
    return to_json({"n1": n1, "n2": n2, **_report_payload(report)})


def _add_units(parser) -> None:
    parser.add_argument("--units", choices=["si", "natural"], default="si")


def _add_config_flags(parser) -> None:
    parser.add_argument("--m", type=_finite, required=True)
    parser.add_argument("--r1", type=_finite, required=True)
    parser.add_argument("--r2", type=_finite, required=True)
    parser.add_argument("--omega1", type=_finite, required=True)
    parser.add_argument("--omega2", type=_finite, required=True)
    _add_units(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsagnac",
        description="Rotating-disk matter-wave interferometer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the pinned constant table")
    _add_units(p)

    p = sub.add_parser("metric", help="rotating-disk metric and perturbation")
    p.add_argument("--omega", type=_finite, required=True)
    p.add_argument("--r", type=_finite, required=True)
    _add_units(p)

    p = sub.add_parser("phase", help="loop phase at one radius (optionally two)")
    p.add_argument("--m", type=_finite, required=True)
    p.add_argument("--omega", type=_finite, required=True)
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--r2", type=_finite)
    _add_units(p)

    p = sub.add_parser("state", help="assembled four-branch state amplitudes")
    _add_config_flags(p)

    p = sub.add_parser("entangle", help="entanglement report for a configuration")
    _add_config_flags(p)

    p = sub.add_parser("solve", help="closed-form maximal-entanglement parameter")
    p.add_argument("--target", choices=["omega2", "r2"], required=True)
    p.add_argument("--m", type=_finite, required=True)
    p.add_argument("--r1", type=_finite, required=True)
    p.add_argument("--r2", type=_finite)
    p.add_argument("--omega1", type=_finite, required=True)
    p.add_argument("--omega2", type=_finite)
    p.add_argument("--k", type=int, required=True)
    _add_units(p)

    p = sub.add_parser("sweep", help="one-dimensional entanglement landscape")
    p.add_argument("--vary", choices=["omega2", "r2", "mass"], required=True)
    p.add_argument("--start", type=_finite, required=True)
    p.add_argument("--stop", type=_finite, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_config_flags(p)

    p = sub.add_parser("hydrogen", help="Bohr-orbit phases and pair entanglement")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--pair", type=_pair)

    return parser


def _validate(args) -> str | None:
    if args.command == "solve":
        if args.target == "omega2":
            if args.r2 is None:
                return "solve --target omega2 requires --r2"
            if args.omega2 is not None:
                return "--omega2 is the unknown when solving for omega2"
        else:
            if args.omega2 is None:
                return "solve --target r2 requires --omega2"
            if args.r2 is not None:
                return "--r2 is the unknown when solving for r2"
    return None


_DISPATCH = {
    "constants": cmd_constants,
    "metric": cmd_metric,
    "phase": cmd_phase,
    "state": cmd_state,
    "entangle": cmd_entangle,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "hydrogen": cmd_hydrogen,
}


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
        output = _DISPATCH[args.command](args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
