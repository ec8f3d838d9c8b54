"""Seeded, deterministic inputs for every workload.

The same seed gives the same operations, in the same order, on every
machine: only `random.Random(seed)` draws are used, and floats are handed
to the program as `repr` strings, so it parses exactly the double the
oracle sees. Shares per pass are fixed so that latency percentiles do not
hop between operation kinds from one seed to the next; the seed moves the
parameters and the order.

Config families, and why each is drawn:

- natural: natural-unit lab configs like the acceptance suite's (m 0.5-50,
  radii 0.05-1.5, |omega| 1e-4-0.05), half of them tuned to a maximum. The
  package is exact here, so any wrong answer is a regression.
- si: SI lab scale (m 1e-25-1e-14 kg, radii 0.5-5 cm, omega 1e2-1e4 rad/s),
  half with omega2 tuned to a maximum. Branch phases reach 1e6-1e28 rad; the
  package loses the answer for part of this family, and the draw keeps that.
- hydrogen: Bohr orbit pairs n1 != n2 in 1..40, SI only.
"""

from __future__ import annotations

import random

import oracle

# Shares per pass. No record of how the package is used exists, so every
# subcommand and every library function gets the same share: no layer is
# weighted by a guess. The refused share is one call per refusal cause
# (see _refused_ops), so it is fixed by the causes, not chosen.
CLI_MIX = {          # CLI calls per pass of cli_oneshot (46 in all)
    "entangle": 6, "solve": 6, "phase": 6, "state": 6, "metric": 6,
    "hydrogen": 6, "constants": 6, "refused": 4,
}
# one sweep per rung over the --count range 1e3-2e5; an odd count, so the median is one rung
SWEEP_LADDER = (1000, 2000, 3000, 5000, 10000, 20000, 50000, 100000, 200000)
LIB_MIX = {          # library calls per pass of library_batch (1800 in all)
    "report": 300, "solve_omega2": 300, "solve_r2": 300,
    "hydrogen_pair": 300, "phase": 300, "metric": 300,
}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def natural_config(rng: random.Random, tuned: bool) -> dict:
    while True:   # a tuned draw is kept only if its rim stays below c / 2
        m = rng.uniform(0.5, 50.0)
        r1, r2 = rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5)
        w1 = rng.choice((-1.0, 1.0)) * rng.uniform(1e-4, 0.05)
        if not tuned:
            w2 = rng.choice((-1.0, 1.0)) * rng.uniform(1e-4, 0.05)
            return {"m": m, "r1": r1, "r2": r2, "omega1": w1, "omega2": w2, "units": "natural"}
        exact = oracle.exact_omega2(m, r1, r2, w1, rng.randrange(3), "natural")
        w2 = float(exact)
        if abs(w2) * max(r1, r2) < 0.5:
            return {"m": m, "r1": r1, "r2": r2, "omega1": w1, "omega2": w2, "units": "natural"}


def si_config(rng: random.Random, tuned: bool) -> dict:
    m = _log_uniform(rng, -25, -14)
    r1 = rng.uniform(0.005, 0.05)
    r2 = r1 * (1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.5))
    w1 = _log_uniform(rng, 2, 4)
    if tuned:
        w2 = float(oracle.exact_omega2(m, r1, r2, w1, rng.randrange(3), "si"))
    else:
        w2 = _log_uniform(rng, 2, 4)
    return {"m": m, "r1": r1, "r2": r2, "omega1": w1, "omega2": w2, "units": "si"}


def family_config(rng: random.Random, family: str, tuned: bool) -> dict:
    return (natural_config if family == "natural" else si_config)(rng, tuned)


def solve_omega2_case(rng: random.Random, family: str) -> dict:
    """A solvable omega2 request: the exact answer keeps the rim below c / 2."""
    while True:
        cfg = family_config(rng, family, tuned=False)
        case = {"m": cfg["m"], "r1": cfg["r1"], "r2": cfg["r2"], "omega1": cfg["omega1"],
                "k": rng.randrange(3), "units": family}
        exact = oracle.exact_omega2(case["m"], case["r1"], case["r2"], case["omega1"],
                                    case["k"], family)
        if oracle.regime(exact, max(case["r1"], case["r2"]), family)[0] < 0.5:
            return case


def solve_r2_case(rng: random.Random, family: str) -> dict:
    """A solvable r2 request: omega2 is set so some r2 < r1 gives (2k+1) pi."""
    k = rng.randrange(3)
    if family == "natural":
        m, r1, w1 = rng.uniform(200.0, 2000.0), rng.uniform(0.5, 1.5), rng.uniform(0.01, 0.05)
        target = r1 * rng.uniform(0.3, 0.95)
        w2 = w1 - (2 * k + 1) / (2.0 * m * (r1 * r1 - target * target))
    else:
        m, r1, w1 = _log_uniform(rng, -25, -14), rng.uniform(0.005, 0.05), _log_uniform(rng, 2, 4)
        w2 = w1 * (1.0 - rng.uniform(0.01, 0.5))
    return {"m": m, "r1": r1, "omega1": w1, "omega2": w2, "k": k, "units": family}


def _flag(name: str, value) -> str:
    # --flag=value keeps argparse from reading a negative number as an option
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _config_argv(cfg: dict) -> list[str]:
    return [_flag(key, cfg[key]) for key in ("m", "r1", "r2", "omega1", "omega2")] + [
        f"--units={cfg['units']}"]


def _cli_op(kind: str, argv: list[str], params: dict, expect: int = 0) -> dict:
    return {"kind": kind, "argv": argv, "params": params, "expect": expect}


def _refused_ops(rng: random.Random) -> list[dict]:
    """One call per refusal the generator fixes: beta >= 1, m <= 0, degenerate radii, bad flag."""
    beta = si_config(rng, tuned=False)
    beta["r1"], beta["omega1"] = rng.uniform(1.0, 5.0), _log_uniform(rng, 9.0, 10.0)
    mass = natural_config(rng, tuned=False)
    mass["m"] = rng.choice((0.0, -rng.uniform(0.5, 50.0)))
    radii = solve_omega2_case(rng, "natural")
    radii["r2"] = radii["r1"]
    bad = natural_config(rng, tuned=False)
    bad_argv = rng.choice([
        ["entangle", "--m=heavy"] + _config_argv(bad)[1:],
        ["entangle"] + _config_argv(bad)[:-1] + ["--units=furlong"],
        ["entangle"] + _config_argv(bad)[:-2] + ["--omega2=inf", "--units=natural"],
        ["entangle"] + _config_argv(bad)[1:],
    ])
    return [
        _cli_op("refused", ["entangle"] + _config_argv(beta), {"cmd": "entangle", **beta}, 1),
        _cli_op("refused", ["entangle"] + _config_argv(mass), {"cmd": "entangle", **mass}, 1),
        _cli_op("refused", _solve_argv("omega2", radii), {"cmd": "solve", **radii}, 1),
        _cli_op("refused", bad_argv, {"cmd": "entangle"}, 2),
    ]


def _solve_argv(target: str, case: dict) -> list[str]:
    other = "r2" if target == "omega2" else "omega2"
    return ["solve", f"--target={target}", _flag("m", case["m"]), _flag("r1", case["r1"]),
            _flag(other, case[other]), _flag("omega1", case["omega1"]),
            _flag("k", case["k"]), f"--units={case['units']}"]


def _phase_params(rng: random.Random, family: str) -> dict:
    if family == "natural":
        p = {"m": rng.uniform(0.5, 50.0), "omega": rng.choice((-1.0, 1.0)) * rng.uniform(1e-4, 0.05),
             "r": rng.uniform(0.05, 1.5)}
    else:
        p = {"m": _log_uniform(rng, -25, -14), "omega": _log_uniform(rng, 2, 4),
             "r": rng.uniform(0.005, 0.05)}
    p["r2"] = p["r"] * rng.uniform(0.5, 1.5) if rng.random() < 0.5 else None
    p["units"] = family
    return p


def _metric_params(rng: random.Random, family: str) -> dict:
    if family == "natural":
        return {"omega": rng.uniform(1e-3, 0.5), "r": rng.uniform(0.1, 1.5), "units": family}
    return {"omega": _log_uniform(rng, 2, 4), "r": rng.uniform(0.005, 0.05), "units": family}


def _families(rng: random.Random, n: int) -> list[str]:
    fams = ["natural", "si"] * (n // 2) + ["natural"] * (n % 2)
    rng.shuffle(fams)
    return fams


def cli_op(rng: random.Random, kind: str, family: str) -> dict:
    """One CLI call of a non-refused kind, its argv and the parameters behind it."""
    if kind == "entangle" or kind == "state":
        cfg = family_config(rng, family, tuned=rng.random() < 0.5)
        return _cli_op(kind, [kind] + _config_argv(cfg), cfg)
    if kind == "solve":
        target = rng.choice(("omega2", "r2"))
        case = solve_omega2_case(rng, family) if target == "omega2" else solve_r2_case(rng, family)
        return _cli_op(kind, _solve_argv(target, case), {"target": target, **case})
    if kind == "phase":
        p = _phase_params(rng, family)
        argv = ["phase", _flag("m", p["m"]), _flag("omega", p["omega"]), _flag("r", p["r"]),
                f"--units={family}"]
        if p["r2"] is not None:
            argv.append(_flag("r2", p["r2"]))
        return _cli_op(kind, argv, p)
    if kind == "metric":
        p = _metric_params(rng, family)
        return _cli_op(kind, ["metric", _flag("omega", p["omega"]), _flag("r", p["r"]),
                              f"--units={family}"], p)
    if kind == "hydrogen":
        if rng.random() < 0.5:
            n = rng.randrange(1, 201)
            return _cli_op(kind, ["hydrogen", f"--n={n}"], {"n": n})
        n1, n2 = rng.sample(range(1, 41), 2)
        return _cli_op(kind, ["hydrogen", f"--pair={n1},{n2}"], {"pair": [n1, n2]})
    if kind == "constants":
        return _cli_op(kind, ["constants", f"--units={family}"], {"units": family})
    raise ValueError(f"unknown CLI op kind {kind!r}")


def cli_oneshot(seed: int) -> list[dict]:
    rng = random.Random(f"cli_oneshot:{seed}")
    ops = []
    for kind, count in CLI_MIX.items():
        if kind == "refused":
            ops.extend(_refused_ops(rng))
            continue
        for family in _families(rng, count):
            ops.append(cli_op(rng, kind, family))
    rng.shuffle(ops)
    return ops


def sweep_op(rng: random.Random, fmt: str, count: int, family: str, vary: str) -> dict:
    base = family_config(rng, family, tuned=True)
    centre = base["m" if vary == "mass" else vary]
    span = rng.uniform(0.05, 0.5)
    start, stop = sorted((centre * (1.0 - span), centre * (1.0 + span)))
    argv = ["sweep", f"--vary={vary}", _flag("start", start), _flag("stop", stop),
            f"--count={count}", f"--format={fmt}"] + _config_argv(base)
    sample = sorted(rng.sample(range(count), min(count, 16)))
    params = {"vary": vary, "start": start, "stop": stop, "count": count, "format": fmt,
              "base": base, "sample": sample}
    return _cli_op("sweep", argv, params)


def sweeps(seed: int) -> list[dict]:
    """One pass of CSV sweeps: the count ladder, each count jittered by 2%, in seeded order.

    Each rung has a fixed family and varied parameter (the ladder cycles
    through all six pairs), so a rung costs the same under every seed and
    only the parameters move.
    """
    rng = random.Random(f"sweep_csv:{seed}")
    ops = [sweep_op(rng, "csv", int(round(n * rng.uniform(0.98, 1.02))),
                    ("natural", "si")[i % 2], ("omega2", "r2", "mass")[i % 3])
           for i, n in enumerate(SWEEP_LADDER)]
    rng.shuffle(ops)
    return ops


def lib_op(rng: random.Random, fn: str, family: str) -> dict:
    if fn == "report":
        cfg = family_config(rng, family, tuned=rng.random() < 0.5)
        args = [cfg[k] for k in ("m", "r1", "r2", "omega1", "omega2")]
    elif fn == "solve_omega2":
        case = solve_omega2_case(rng, family)
        args = [case[k] for k in ("m", "r1", "r2", "omega1", "k")]
    elif fn == "solve_r2":
        case = solve_r2_case(rng, family)
        args = [case[k] for k in ("m", "r1", "omega1", "omega2", "k")]
    elif fn == "hydrogen_pair":
        return {"fn": fn, "units": "si", "args": rng.sample(range(1, 41), 2)}
    elif fn == "phase":
        p = _phase_params(rng, family)
        args = [p["m"], p["omega"], p["r"]]
    elif fn == "metric":
        p = _metric_params(rng, family)
        args = [p["omega"], p["r"]]
    else:
        raise ValueError(f"unknown library op {fn!r}")
    return {"fn": fn, "units": family, "args": args}


def library_batch(seed: int) -> list[dict]:
    rng = random.Random(f"library_batch:{seed}")
    ops = [lib_op(rng, fn, family) for fn, count in LIB_MIX.items()
           for family in _families(rng, count)]
    rng.shuffle(ops)
    return ops


def coverage(seed: int) -> tuple[list[dict], list[dict]]:
    """A few calls into every layer, traced after the workload's own ops so
    that each workload reports every per-layer figure."""
    rng = random.Random(f"coverage:{seed}")
    cli = [cli_op(rng, kind, "natural") for kind in
           ("entangle", "state", "phase", "metric", "constants")]
    cli += [_cli_op("solve", _solve_argv("omega2", c), {"target": "omega2", **c})
            for c in [solve_omega2_case(rng, "natural")]]
    cli += [_cli_op("solve", _solve_argv("r2", c), {"target": "r2", **c})
            for c in [solve_r2_case(rng, "natural")]]
    n1, n2 = rng.sample(range(1, 41), 2)
    cli += [_cli_op("hydrogen", ["hydrogen", f"--n={n1}"], {"n": n1}),
            _cli_op("hydrogen", ["hydrogen", f"--pair={n1},{n2}"], {"pair": [n1, n2]})]
    cli += [sweep_op(rng, fmt, 10000, "natural", "omega2") for fmt in ("csv", "json")]
    lib = [lib_op(rng, fn, "natural" if fn != "hydrogen_pair" else "si")
           for fn in LIB_MIX for _ in range(10)]
    return cli, lib
