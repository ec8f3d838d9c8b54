"""Contract and oracle verdicts on hand-made program outputs."""

import json

import check
import gen
import oracle

ENTANGLE = {"kind": "entangle", "expect": 0, "argv": [],
            "params": {"m": 1000.0, "r1": 1.0, "r2": 1.41421356237, "omega1": 0.01,
                       "omega2": 0.0105, "units": "natural"}}


def entangle_output(**change) -> bytes:
    p = ENTANGLE["params"]
    rep = oracle.report(p["m"], p["r1"], p["r2"], p["omega1"], p["omega2"], p["units"])
    payload = dict(p, delta=float(rep.delta), concurrence=float(rep.concurrence),
                   schmidt=[float(s) for s in rep.schmidt], entropy_bits=float(rep.entropy_bits),
                   maximal=True)
    payload.update(change)
    return (json.dumps(payload, indent=2) + "\n").encode()


def test_right_answer_is_ok():
    assert check.classify_cli(ENTANGLE, 0, entangle_output(), b"").outcome == "ok"


def test_wrong_concurrence_on_a_naive_safe_input_is_strict():
    verdict = check.classify_cli(ENTANGLE, 0, entangle_output(concurrence=0.999), b"")
    assert verdict.outcome == "wrong" and verdict.strict


def test_contract_breaches():
    out = entangle_output()
    warn = b"x.py:1: RuntimeWarning: overflow\n"
    assert check.classify_cli(ENTANGLE, 0, out, warn).outcome == "contract_broken"
    assert check.classify_cli(ENTANGLE, 1, b"", b"Traceback (most recent call last):\n").outcome == "contract_broken"
    assert check.classify_cli(ENTANGLE, 1, b"", b"error: one\nerror: two\n").outcome == "contract_broken"
    assert check.classify_cli(ENTANGLE, 2, b"", b"usage: qsagnac\n").outcome == "contract_broken"
    assert check.classify_cli(ENTANGLE, 0, b"{not json}\n", b"").outcome == "contract_broken"
    assert check.classify_cli(ENTANGLE, 3, b"", b"").outcome == "contract_broken"


def test_expected_refusals():
    refused = dict(ENTANGLE, kind="refused", expect=1)
    assert check.classify_cli(refused, 1, b"", b"error: mass must be positive\n").outcome == "refused_ok"
    assert check.classify_cli(refused, 0, entangle_output(), b"").outcome == "contract_broken"
    malformed = dict(refused, expect=2)
    assert check.classify_cli(malformed, 2, b"", b"usage: a\nerror: b\n").outcome == "refused_ok"


def test_unanswerable_input_may_be_refused_or_answered():
    op = dict(ENTANGLE, params={"m": 1e-17, "r1": 0.01, "r2": 0.02, "omega1": 1e3,
                                "omega2": 2e3, "units": "si"})
    assert check.classify_cli(op, 1, b"", b"error: precision lost\n").outcome == "refused_ok"


def sweep_case():
    op = gen.sweep_op(gen.random.Random(5), "csv", 4, "natural", "r2")
    p = op["params"]
    values = [p["start"] + i * (p["stop"] - p["start"]) / 3 for i in range(4)]
    values[-1] = p["stop"]
    rows = []
    for v in values:
        cfg, units = check._sweep_point(p, v)
        rep = oracle.report(*cfg, units)
        regime = oracle.regime(max(abs(cfg[3]), abs(cfg[4])), max(cfg[1], cfg[2]), units)[1]
        rows.append((v, float(rep.delta), float(rep.concurrence), float(rep.entropy_bits), regime))
    return op, rows


def csv_text(rows) -> bytes:
    lines = [check.CSV_HEADER] + [",".join([repr(x) for x in r[:4]] + [r[4]]) for r in rows]
    return ("\n".join(lines) + "\n").encode()


def test_sweeps_parse_and_match():
    op, rows = sweep_case()
    assert check.classify_cli(op, 0, csv_text(rows), b"").outcome in ("ok", "unanswerable_returned")
    assert check.classify_cli(op, 0, csv_text(rows[:-1]), b"").outcome == "contract_broken"
    swapped = [rows[1], rows[0]] + rows[2:]
    assert check.classify_cli(op, 0, csv_text(swapped), b"").outcome == "contract_broken"


def test_library_verdicts():
    op = {"fn": "report", "units": "natural", "args": list(ENTANGLE["params"].values())[:5]}
    rep = oracle.report(*op["args"], "natural")
    value = [float(rep.delta), float(rep.concurrence), *map(float, rep.schmidt),
             float(rep.entropy_bits), True]
    assert check.classify_lib(op, {"value": value}).outcome == "ok"
    assert check.classify_lib(op, {"raised": "LinAlgError", "msg": "SVD"}).outcome == "contract_broken"
    assert check.classify_lib(op, {"value": value, "warnings": ["RuntimeWarning: x"]}).outcome == "contract_broken"
    assert check.classify_lib(op, {"raised": "ValueError", "msg": "x"}).outcome == "contract_broken"
