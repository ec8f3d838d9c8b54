"""Judge every operation: the README's error contract first, then the oracle.

Each operation gets exactly one outcome:

- ok: an answer that matches the oracle;
- wrong: an answerable input answered by a number off by more than the
  tolerance (MAXIMAL_TOL on entanglement figures, see oracle.py);
- unanswerable_returned: a number returned where no double can carry the
  answer to the tolerance (not counted as failed);
- refused_ok: exit 1 with one stderr line (a ValueError in the library)
  where the input is unanswerable or the generator asked for a refusal,
  or exit 2 for the malformed flags the generator wrote;
- contract_broken: a traceback, a numpy RuntimeWarning, an exit code the
  generator did not expect, more than one stderr line on exit 1, or
  output that does not parse.

`strict` marks a contract breach, or a wrong answer on a naive-safe input
(see oracle.py): those make a run incorrect, while other wrong answers are
only counted as failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from mpmath import mpf

import oracle

CSV_HEADER = "value,delta,concurrence,entropy_bits,regime"
REGIMES = ("ok", "warn", "error")


@dataclass(frozen=True)
class Verdict:
    outcome: str
    strict: bool = False
    why: str = ""


class Unparseable(ValueError):
    pass


def _answer(good: bool, answerable: bool, strict: bool, why: str) -> Verdict:
    """`good` covers only what is checkable: figures of unanswerable inputs are not."""
    if not good:
        return Verdict("wrong", strict, why)
    return Verdict("ok" if answerable else "unanswerable_returned")


def _rel_all(pairs) -> bool:
    return all(oracle.close_rel(g, w) if w is not None else g is None for g, w in pairs)


# -- per-stage judges, on plain values -------------------------------------

def judge_report(want: oracle.Report, got) -> Verdict:
    return _answer(oracle.report_ok(got, want), want.answerable, want.naive_safe,
                   f"report {got} vs C={float(want.concurrence)!r}")


def judge_solve(p: dict, value: float, delta=None, conc=None) -> Verdict:
    target = p["target"]
    other = p["r2"] if target == "omega2" else p["omega2"]
    case = oracle.solver_case(target, p["m"], p["r1"], other, p["omega1"], p["k"], p["units"])
    if not case.solvable:
        return Verdict("wrong", False, "answered an unsolvable request")
    good = not case.answerable or oracle.solver_value_ok(
        target, p["m"], p["r1"], other, p["omega1"], value, p["units"])
    if target == "omega2":
        args = (p["m"], p["r1"], other, p["omega1"], value)
    else:
        args = (p["m"], p["r1"], value, p["omega1"], other)
    strict = case.answerable and oracle.phases_fit(*args, p["units"])
    if delta is not None:
        want_delta = oracle.delta(*args, oracle.consts(p["units"]))
        good_delta = oracle.close_delta(delta, want_delta)
        good_conc = oracle.close_abs(conc, oracle.concurrence_at(*args, p["units"]))
        if not good_delta or (case.answerable and not good_conc):
            return Verdict("wrong", strict, "solve delta/concurrence")
    return _answer(good, case.answerable, strict, f"solve {target} -> {value!r}")


def can_refuse_solve(p: dict) -> bool:
    other = p["r2"] if p["target"] == "omega2" else p["omega2"]
    case = oracle.solver_case(p["target"], p["m"], p["r1"], other, p["omega1"], p["k"], p["units"])
    return not (case.solvable and case.answerable)


def judge_phase(p: dict, phi, t_loop, area, h00, beta, status, rel=None) -> Verdict:
    want = oracle.phase_figures(p["m"], p["omega"], p["r"], p["units"])
    w_beta, w_status = oracle.regime(p["omega"], p["r"], p["units"])
    good = _rel_all([(phi, want["phi"]), (t_loop, want["t_loop"]), (area, want["area"]),
                     (h00, want["h00"]), (beta, w_beta)]) and status == w_status
    if p.get("r2") is not None:
        want_rel = oracle.relative_phase(p["m"], p["omega"], p["r"], p["r2"], p["units"])
        good = good and rel is not None and oracle.close_delta(rel, want_rel)
    return _answer(good, True, True, "phase figures")


def judge_metric(p: dict, g, full=None) -> Verdict:
    want_g, want_full = oracle.disk_metric(p["omega"], p["r"], p["units"])
    scale = max(mpf(1), max(abs(x) for row in want_g for x in row))
    pairs = [(g, want_g)] + ([(full, want_full)] if full is not None else [])
    good = all(oracle.close_rel(got[i][j], want[i][j], scale)
               for got, want in pairs for i in range(4) for j in range(4))
    return _answer(good, True, True, "metric components")


# -- CLI -------------------------------------------------------------------

def _floats(payload: dict, keys) -> list:
    out = []
    for key in keys:
        value = payload[key]
        if value is not None and not isinstance(value, (int, float)):
            raise Unparseable(f"{key} is not a number")
        out.append(None if value is None else float(value))
    return out


def _echo(payload: dict, p: dict, keys) -> None:
    for key in keys:
        if payload.get(key) != p[key]:
            raise Unparseable(f"echoed {key} differs from the input")


def _judge_cli_payload(op: dict, payload: dict) -> Verdict:
    kind, p = op["kind"], op["params"]
    if kind == "entangle":
        _echo(payload, p, ("m", "r1", "r2", "omega1", "omega2", "units"))
        want = oracle.report(p["m"], p["r1"], p["r2"], p["omega1"], p["omega2"], p["units"])
        d, c, ent = _floats(payload, ("delta", "concurrence", "entropy_bits"))
        s1, s2 = payload["schmidt"]
        return judge_report(want, (d, c, float(s1), float(s2), ent, payload["maximal"]))
    if kind == "state":
        _echo(payload, p, ("m", "r1", "r2", "omega1", "omega2", "units"))
        if payload["row_basis"] != ["r1", "r2"] or payload["col_basis"] != ["omega1", "omega2"]:
            raise Unparseable("unexpected basis labels")
        amps, safe = oracle.amplitudes(p["m"], p["r1"], p["r2"], p["omega1"], p["omega2"], p["units"])
        got = payload["amplitudes"]
        good = not safe or all(oracle.close_abs(float(got[j][k]["re"]), amps[j][k].real)
                   and oracle.close_abs(float(got[j][k]["im"]), amps[j][k].imag)
                   for j in range(2) for k in range(2))
        return _answer(good, safe, safe, "state amplitudes")
    if kind == "solve":
        _echo(payload, p, ("target", "m", "r1", "omega1", "k", "units"))
        value, delta, conc = _floats(payload, ("value", "delta", "concurrence"))
        return judge_solve(p, value, delta, conc)
    if kind == "phase":
        _echo(payload, p, ("m", "omega", "r", "units"))
        fig = _floats(payload, ("phi", "t_loop", "area", "h00"))
        reg = payload["regime"]
        rel = payload.get("relative_phase")
        return judge_phase(p, *fig, float(reg["beta"]), reg["status"], rel)
    if kind == "metric":
        _echo(payload, p, ("omega", "r", "units"))
        verdict = judge_metric(p, payload["g"], payload["full"])
        want_beta, want_status = oracle.regime(p["omega"], p["r"], p["units"])
        want_g, _ = oracle.disk_metric(p["omega"], p["r"], p["units"])
        good = (oracle.close_rel(float(payload["h00"]), want_g[0][0] + 1)
                and oracle.close_rel(float(payload["h0phi"]), want_g[0][2])
                and oracle.close_rel(float(payload["regime"]["beta"]), want_beta)
                and payload["regime"]["status"] == want_status)
        return verdict if good else Verdict("wrong", True, "metric perturbation")
    if kind == "hydrogen":
        if "n" in p:
            _echo(payload, p, ("n",))
            want = oracle.hydrogen_figures(p["n"])
            keys = ("r", "omega", "area", "beta", "estimate", "loop_phase")
            good = _rel_all(zip(_floats(payload, keys), (want[k] for k in keys)))
            return _answer(good, True, True, "bohr orbit figures")
        n1, n2 = p["pair"]
        if (payload["n1"], payload["n2"]) != (n1, n2):
            raise Unparseable("echoed quantum numbers differ")
        d, c, ent = _floats(payload, ("delta", "concurrence", "entropy_bits"))
        s1, s2 = payload["schmidt"]
        return judge_report(oracle.hydrogen_pair(n1, n2),
                            (d, c, float(s1), float(s2), ent, payload["maximal"]))
    if kind == "constants":
        _echo(payload, p, ("units",))
        want = oracle.constants_table(p["units"])
        return _answer(_rel_all((float(payload[k]), want[k]) for k in want), True, True, "constants")
    raise ValueError(f"unknown CLI op kind {kind!r}")


def _can_refuse(op: dict) -> bool:
    """Whether exit 1 is a correct answer for an op the generator expected to succeed."""
    kind, p = op["kind"], op["params"]
    if kind in ("entangle", "state"):
        cfg = [p[k] for k in ("m", "r1", "r2", "omega1", "omega2")]
        if kind == "state":
            return not oracle.amplitudes(*cfg, p["units"])[1]
        return not oracle.report(*cfg, p["units"]).answerable
    if kind == "solve":
        return can_refuse_solve(p)
    if kind == "sweep":
        return False
    if kind == "hydrogen" and "pair" in p:
        return not oracle.hydrogen_pair(*p["pair"]).answerable
    return False


def classify_cli(op: dict, code: int, out: bytes, err: bytes) -> Verdict:
    """Outcome of one CLI call from its exit code and both output streams."""
    if b"Traceback" in err or b"Warning" in err:
        return Verdict("contract_broken", True, err.decode(errors="replace")[-300:])
    if code == 2:
        return Verdict("refused_ok") if op["expect"] == 2 else Verdict(
            "contract_broken", True, f"unexpected exit 2: {err[-200:]!r}")
    if code == 1:
        if out or not err.endswith(b"\n") or err.count(b"\n") != 1:
            return Verdict("contract_broken", True, "exit 1 without exactly one stderr line")
        if op["expect"] == 1 or _can_refuse(op):
            return Verdict("refused_ok")
        return Verdict("contract_broken", True, f"unexpected exit 1: {err!r}")
    if code != 0 or op["expect"] != 0:
        return Verdict("contract_broken", True, f"exit {code}, expected {op['expect']}")
    try:
        text = out.decode("utf-8")
        if op["kind"] == "sweep":
            return judge_sweep(op["params"], text)
        if not text.endswith("}\n"):
            raise Unparseable("output is not one JSON object and a newline")
        return _judge_cli_payload(op, json.loads(text))
    except (Unparseable, UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
            IndexError, AttributeError) as exc:
        return Verdict("contract_broken", True, f"unparseable output: {exc}")


# -- sweeps ----------------------------------------------------------------

def _csv_rows(text: str):
    if not text.endswith("\n"):
        raise Unparseable("CSV output lacks its final newline")
    lines = text[:-1].split("\n")
    if lines[0] != CSV_HEADER:
        raise Unparseable("unexpected CSV header")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise Unparseable(f"CSV row with {len(fields)} fields")
        yield float(fields[0]), float(fields[1]), float(fields[2]), float(fields[3]), fields[4]


def _sweep_point(p: dict, value: float) -> tuple:
    base = p["base"]
    cfg = [base["m"], base["r1"], base["r2"], base["omega1"], base["omega2"]]
    cfg[{"mass": 0, "r2": 2, "omega2": 4}[p["vary"]]] = value
    return cfg, base["units"]


def judge_sweep_row(p: dict, index: int, row) -> Verdict:
    value, delta, conc, ent, regime = row
    count, start, stop = p["count"], p["start"], p["stop"]
    want_value = mpf(start) if count == 1 else mpf(start) + index * (mpf(stop) - mpf(start)) / (count - 1)
    cfg, units = _sweep_point(p, value)
    want = oracle.report(*cfg, units)
    _, status = oracle.regime(max(abs(cfg[3]), abs(cfg[4])), max(cfg[1], cfg[2]), units)
    if cfg[0] <= 0 or min(cfg[1], cfg[2]) < 0:
        status = "error"
    good = (oracle.close_rel(value, want_value, max(abs(mpf(start)), abs(mpf(stop))))
            and oracle.close_delta(delta, want.delta) and regime == status)
    if want.answerable:
        good = good and oracle.close_abs(conc, want.concurrence) and oracle.close_abs(
            ent, want.entropy_bits)
    return _answer(good, want.answerable, want.naive_safe, f"sweep row {index}")


def judge_sweep(p: dict, text: str) -> Verdict:
    """Parse every row of a CSV sweep, check count, order and endpoints, then
    the sampled rows."""
    rows = _csv_rows(text)
    wanted = set(p["sample"]) | {0, p["count"] - 1}
    verdicts, n, last = [], 0, -math.inf
    for n, row in enumerate(rows, start=1):
        if row[4] not in REGIMES:
            raise Unparseable(f"unknown regime {row[4]!r}")
        if row[0] < last:
            raise Unparseable("sweep values out of order")
        last = row[0]
        if n == 1 and row[0] != p["start"]:
            raise Unparseable("first sweep value is not start")
        if n - 1 in wanted:
            verdicts.append(judge_sweep_row(p, n - 1, row))
    if n != p["count"]:
        raise Unparseable(f"{n} rows for --count {p['count']}")
    if last != p["stop"]:
        raise Unparseable("last sweep value is not stop")
    for outcome in ("wrong", "unanswerable_returned"):
        hits = [v for v in verdicts if v.outcome == outcome]
        if hits:
            return Verdict(outcome, any(v.strict for v in hits), hits[0].why)
    return Verdict("ok")


# -- library ---------------------------------------------------------------

def _lib_params(op: dict) -> dict:
    fn, a, units = op["fn"], op["args"], op["units"]
    if fn == "solve_omega2":
        return {"target": "omega2", "m": a[0], "r1": a[1], "r2": a[2], "omega1": a[3],
                "k": a[4], "units": units}
    if fn == "solve_r2":
        return {"target": "r2", "m": a[0], "r1": a[1], "omega1": a[2], "omega2": a[3],
                "k": a[4], "units": units}
    if fn == "phase":
        return {"m": a[0], "omega": a[1], "r": a[2], "units": units}
    if fn == "metric":
        return {"omega": a[0], "r": a[1], "units": units}
    return {}


def _lib_want(op: dict):
    if op["fn"] == "report":
        return oracle.report(*op["args"], op["units"])
    return oracle.hydrogen_pair(*op["args"])


def classify_lib(op: dict, result: dict) -> Verdict:
    """Outcome of one library call, from the worker's record of it."""
    if result.get("warnings"):
        return Verdict("contract_broken", True, f"warning: {result['warnings'][0]}")
    if "raised" in result:
        if result["raised"] != "ValueError":
            return Verdict("contract_broken", True, f"{result['raised']}: {result['msg']}")
        fn = op["fn"]
        if fn in ("report", "hydrogen_pair"):
            refusable = not _lib_want(op).answerable
        elif fn.startswith("solve"):
            refusable = can_refuse_solve(_lib_params(op))
        else:
            refusable = False
        return Verdict("refused_ok") if refusable else Verdict(
            "contract_broken", True, f"unexpected ValueError: {result['msg']}")
    value = result["value"]
    fn = op["fn"]
    if fn in ("report", "hydrogen_pair"):
        return judge_report(_lib_want(op), value)
    if fn.startswith("solve"):
        return judge_solve(_lib_params(op), value)
    if fn == "phase":
        return judge_phase(_lib_params(op), *value)
    if fn == "metric":
        return judge_metric(_lib_params(op), [value[i:i + 4] for i in range(0, 16, 4)])
    raise ValueError(f"unknown library op {fn!r}")
