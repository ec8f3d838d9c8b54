"""The input generator: deterministic, fixed shares, exact doubles on argv."""

from collections import Counter

import gen
import oracle
import run
import worker


def test_same_seed_same_ops_and_seeds_differ():
    assert gen.cli_oneshot(7) == gen.cli_oneshot(7)
    assert gen.cli_oneshot(7) != gen.cli_oneshot(8)
    assert gen.sweeps(7) == gen.sweeps(7)
    assert gen.library_batch(3) == gen.library_batch(3)
    assert gen.library_batch(3) != gen.library_batch(4)


def test_shares_are_fixed_per_pass():
    kinds = Counter(op["kind"] for op in gen.cli_oneshot(11))
    assert kinds == Counter(gen.CLI_MIX)
    fns = Counter(op["fn"] for op in gen.library_batch(11))
    assert fns == Counter(gen.LIB_MIX)


def test_refused_share_carries_its_exit_codes():
    refused = [op for op in gen.cli_oneshot(2) if op["kind"] == "refused"]
    assert sorted(op["expect"] for op in refused) == [1, 1, 1, 2]
    assert all(op["expect"] == 0 for op in gen.cli_oneshot(2) if op["kind"] != "refused")


def test_argv_carries_the_exact_doubles():
    for op in gen.cli_oneshot(5):
        if op["kind"] != "entangle":
            continue
        flags = dict(a[2:].split("=", 1) for a in op["argv"][1:])
        for key in ("m", "r1", "r2", "omega1", "omega2"):
            assert float(flags[key]) == op["params"][key]


def test_sweep_ladder():
    counts = sorted(op["params"]["count"] for op in gen.sweeps(9))
    assert all(abs(c / n - 1) <= 0.02 for c, n in zip(counts, gen.SWEEP_LADDER))
    assert all(op["params"]["start"] <= op["params"]["stop"] for op in gen.sweeps(9))


def test_library_solver_requests_are_solvable():
    for op in gen.library_batch(1)[:400]:
        if op["fn"] == "solve_omega2":
            m, r1, r2, w1, k = op["args"]
            assert oracle.solver_case("omega2", m, r1, r2, w1, k, op["units"]).solvable
        elif op["fn"] == "solve_r2":
            m, r1, w1, w2, k = op["args"]
            assert oracle.solver_case("r2", m, r1, w2, w1, k, op["units"]).solvable


def test_self_time_subtracts_child_spans():
    tracer = worker.Tracer()
    tracer.spans = [("outer", 0, 100, -1, 0), ("inner", 10, 40, 0, 0), ("inner", 50, 60, 0, 0)]
    rows = {name: (calls, self_ns, dur) for name, op, calls, self_ns, dur in tracer.aggregate()}
    assert rows["outer"] == (1, 60, 100)
    assert rows["inner"] == (2, 40, 40)


def test_importtime_lines_parse():
    hit = run.IMPORT_LINE.match("import time:      2106 |     103785 |       numpy")
    assert hit and hit.group(4) == "numpy" and int(hit.group(2)) == 103785
    assert len(hit.group(3)) // 2 == 3


def test_percentiles():
    assert run.pct([3, 1, 2], 50) == 2
    assert run.pct(range(1, 11), 90) == 9
    assert run.pct([5, 1] * 3, 50) == run.pct([5, 1], 50) == 1


def test_local_scale_follows_the_bare_start():
    refs = [0.05] * 5 + [0.1] * 5
    scale = run.local_scale(refs, 0.05)
    assert scale[0] == 1.0 and scale[-1] == 0.5


def test_a_hung_child_is_killed(monkeypatch):
    import sys

    import pytest

    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    with pytest.raises(TimeoutError):
        run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], {})


def test_library_passes_must_repeat_the_checked_output(monkeypatch):
    calls = Counter()

    def fake_call(mods, op):
        calls[op["fn"]] += 1
        if op["fn"] == "boom":
            raise RuntimeError("not a ValueError")
        return [float("nan"), calls[op["fn"]]] if op["fn"] == "drift" else [float("nan"), 1.0]

    monkeypatch.setattr(worker, "_modules", lambda names: {})
    monkeypatch.setattr(worker, "call_lib", fake_call)
    ops = [{"fn": "steady"}, {"fn": "boom"}]
    assert worker.run_lib({"ops": ops, "seconds": 0.02})["changed"] == 0
    res = worker.run_lib({"ops": ops + [{"fn": "drift"}], "seconds": 0.02})
    assert res["results"][1]["raised"] == "RuntimeError"
    assert res["changed"] == len(res["walls_ns"]) // 3 > 0
