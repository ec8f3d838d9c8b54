"""Child process that imports the package under test and drives it in process.

Run as `python perfbench/worker.py MODE` with the package on PYTHONPATH:

- `setup cli|lib`: import and warm up, then print the package path and exit;
  the parent times spawn to that line.
- `lib`: read {"ops", "seconds"} on stdin, run one checked pass of library
  calls (warnings recorded), then whole timed passes until `seconds` pass,
  each after a timed run of a reference kernel; every timed call's result is
  compared with the checked pass's, outside the timed span.
- `trace`: read {"cli", "lib"} on stdin and replay them three times through
  the public entry points: untraced, traced, untraced. Tracing wraps the
  public names each module calls in the next, from this file only.

Heavy imports are deferred so `setup` times the package, not this file.
"""

from __future__ import annotations

import math
import sys
import time

COMMANDS = ("constants", "metric", "phase", "state", "entangle", "solve", "sweep", "hydrogen")
# (span name, defining module, attribute): spans are recorded at each binding
# of these objects in any qsagnac module, so cli -> state -> constants calls
# are all seen.
SPANS = [
    ("cli.main", "cli", "main"),
    ("cli.build_parser", "cli", "build_parser"),
    ("cli.to_json", "cli", "to_json"),
    ("state.InterferometerConfig", "state", "InterferometerConfig"),
    ("state.entanglement_report", "state", "entanglement_report"),
    ("state.report_from_parameters", "state", "report_from_parameters"),
    ("state.assemble_full_state", "state", "assemble_full_state"),
    ("design.sweep", "design", "sweep"),
    ("design.solve_omega2", "design", "solve_omega2"),
    ("design.solve_r2", "design", "solve_r2"),
    ("phase.sagnac_phase", "phase", "sagnac_phase"),
    ("metric.rotating_disk_metric", "metric", "rotating_disk_metric"),
    ("hydrogen.hydrogen_pair_report", "hydrogen", "hydrogen_pair_report"),
] + [(f"cli.cmd_{c}", "cli", f"cmd_{c}") for c in COMMANDS]
FLAT = {"cli.to_json"}   # recursive: only the outermost call is a span
COUNTERS = [("constants.regime_check", "constants", "regime_check")]
WARM_LIB = [
    {"fn": "report", "units": "natural", "args": [1000.0, 1.0, 1.41421356237, 0.01, 0.0105]},
    {"fn": "solve_omega2", "units": "natural", "args": [1000.0, 1.0, 1.41421356237, 0.01, 0]},
    {"fn": "solve_r2", "units": "natural", "args": [1000.0, 1.0, 0.01, 0.0105, 0]},
    {"fn": "hydrogen_pair", "units": "si", "args": [1, 2]},
    {"fn": "phase", "units": "natural", "args": [1.0, 0.001, 1.0]},
    {"fn": "metric", "units": "natural", "args": [0.1, 1.0]},
]


LIB_MODULES = ("constants", "state", "design", "phase", "metric", "hydrogen")


def _modules(names=LIB_MODULES + ("cli",)):
    import importlib

    return {n: importlib.import_module(f"qsagnac.{n}") for n in names}


def call_lib(mods, op):
    """One library call, returning plain JSON values."""
    fn, a = op["fn"], op["args"]
    units = mods["constants"].UnitSystem(op["units"])
    if fn == "report":
        cfg = mods["state"].InterferometerConfig(*a, units=units)
        rep = mods["state"].entanglement_report(cfg)
        return [rep.delta, rep.concurrence, *rep.schmidt, rep.entropy_bits, rep.maximal]
    consts = mods["constants"].constants_for(units)
    if fn == "solve_omega2":
        return mods["design"].solve_omega2(*a, consts)
    if fn == "solve_r2":
        return mods["design"].solve_r2(*a, consts)
    if fn == "hydrogen_pair":
        rep = mods["hydrogen"].hydrogen_pair_report(*a, consts)
        return [rep.delta, rep.concurrence, *rep.schmidt, rep.entropy_bits, rep.maximal]
    if fn == "phase":
        res = mods["phase"].sagnac_phase(*a, consts)
        return [res.phi, res.t_loop, res.area, res.h00, res.regime.beta, res.regime.status.value]
    if fn == "metric":
        return [float(x) for x in mods["metric"].rotating_disk_metric(*a, consts).g.ravel()]
    raise ValueError(f"unknown library op {fn!r}")


def _guarded(mods, op) -> dict:
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = {"value": call_lib(mods, op)}
        except Exception as exc:  # every exception is an outcome to report
            out = {"raised": type(exc).__name__, "msg": str(exc)}
    if caught:
        out["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return out


def reference_kernel() -> float:
    """Fixed pure-Python work sharing no code with qsagnac; its time tracks
    the machine's current speed."""
    acc, table = 0.0, {}
    for i in range(3000):
        acc += math.sin(i * 0.001) * 1.0000001
        table[i & 255] = (acc, i)
    return acc


def _peak_kb() -> int:
    """This process's own peak RSS (VmHWM); ru_maxrss would include the
    high-water mark inherited from the spawning process."""
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM"))


def _same(value, first) -> bool:
    # repr as well, so a NaN that repeats counts as the same output
    return value == first or repr(value) == repr(first)


def run_lib(job) -> dict:
    from array import array

    mods = _modules(LIB_MODULES)   # a library user never imports the CLI
    ops = job["ops"]
    results = [_guarded(mods, op) for op in ops]
    firsts = [r["value"] if "value" in r else "raised " + r["raised"] for r in results]
    changed = 0
    walls, cpus, refs = array("q"), array("q"), array("q")
    clock, cpu_clock = time.perf_counter_ns, time.thread_time_ns
    rss_kb = _peak_kb()
    start = clock()
    while job["seconds"] > 0 and clock() - start < job["seconds"] * 1e9:
        t0 = clock()
        reference_kernel()
        refs.append(clock() - t0)
        for op, first in zip(ops, firsts):
            t0, c0 = clock(), cpu_clock()
            try:
                value = call_lib(mods, op)
            except Exception as exc:  # the checked pass has recorded the outcome
                value = "raised " + type(exc).__name__
            c1, t1 = cpu_clock(), clock()
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            if not _same(value, first):
                changed += 1
        if len(walls) == len(ops):
            # peak after one timed pass: later passes grow only the sample arrays
            rss_kb = _peak_kb()
    return {"results": results, "walls_ns": walls.tolist(), "cpus_ns": cpus.tolist(),
            "refs_ns": refs.tolist(), "rss_kb": rss_kb, "changed": changed}


class Tracer:
    """Spans (name, start, end, parent, op) kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = {}
        self.patches = []
        self.absent = []

    def _span(self, fn, name, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            return after(result) if after else result
        return traced

    def _counter(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[self.op] = counts.get(self.op, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _flat(self, traced, sites):
        """Run the outermost call traced and its recursion on the original."""
        def outer(*args, **kwargs):
            for target, key, old in sites:
                _set(target, key, old)
            try:
                return traced(*args, **kwargs)
            finally:
                for target, key, _ in sites:
                    _set(target, key, outer)
        return outer

    def _parser(self, parser):
        parser.parse_args = self._span(parser.parse_args, "cli.parse_args")
        return parser

    def install(self, mods) -> None:
        for name, mod, attr in SPANS + COUNTERS:
            original = getattr(mods[mod], attr, None)
            if original is None:
                self.absent.append(name)
                continue
            if (name, mod, attr) in COUNTERS:
                wrapper = self._counter(original)
            else:
                after = self._parser if name == "cli.build_parser" else None
                wrapper = self._span(original, name, after)
            sites = _bindings(original)
            if name in FLAT:
                wrapper = self._flat(wrapper, sites)
            for target, key, old in sites:
                _set(target, key, wrapper)
                self.patches.append((target, key, old))

    def uninstall(self) -> None:
        for target, key, old in reversed(self.patches):
            _set(target, key, old)
        self.patches.clear()

    def aggregate(self) -> list:
        """[name, op, calls, self_ns, dur_ns] per span name and op."""
        child = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            row = table.setdefault((name, op), [name, op, 0, 0, 0])
            row[2] += 1
            row[3] += end - start - child[idx]
            row[4] += end - start
        return list(table.values())


def _bindings(obj) -> list:
    """Every (namespace, key) in a qsagnac module that refers to obj."""
    sites = []
    for modname, module in list(sys.modules.items()):
        if modname != "qsagnac" and not modname.startswith("qsagnac."):
            continue
        for key, value in vars(module).items():
            if value is obj:
                sites.append((module, key, obj))
            elif type(value) is dict:
                sites.extend((value, k, obj) for k, v in value.items() if v is obj)
    return sites


def _set(target, key, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


def _replay(mods, cli_ops, lib_ops, tracer=None):
    """Run every op once; returns (summed call time in ns, per-op outputs)."""
    import contextlib
    import hashlib
    import io
    import json

    clock = time.perf_counter_ns
    total, outs = 0, []
    for i, argv in enumerate(cli_ops):
        if tracer:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = mods["cli"].main(argv)
            except Exception as exc:  # a traceback the user would have seen
                code = f"raised {type(exc).__name__}"
            total += clock() - t0
        outs.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
    for j, op in enumerate(lib_ops):
        if tracer:
            tracer.op = len(cli_ops) + j
        t0 = clock()
        try:
            value = call_lib(mods, op)
        except Exception as exc:
            value = f"raised {type(exc).__name__}"
        total += clock() - t0
        outs.append(json.dumps(value))
    return total, outs


def run_trace(job) -> dict:
    mods = _modules()
    cli_ops, lib_ops = job["cli"], job["lib"]
    u1, untraced = _replay(mods, cli_ops, lib_ops)
    tracer = Tracer()
    tracer.install(mods)
    try:
        t, traced = _replay(mods, cli_ops, lib_ops, tracer)
    finally:
        tracer.uninstall()
    u2, _ = _replay(mods, cli_ops, lib_ops)
    return {"walls_ns": [u1, t, u2], "untraced": untraced, "traced": traced,
            "spans": tracer.aggregate(), "counts": tracer.counts, "absent": tracer.absent}


def run_setup(target: str) -> None:
    if target == "cli":
        import qsagnac.cli

        qsagnac.cli.build_parser().parse_args(["constants"])
        path = qsagnac.cli.__file__
    else:
        import qsagnac

        mods = _modules(LIB_MODULES)
        for op in WARM_LIB:
            call_lib(mods, op)
        path = qsagnac.__file__
    sys.stdout.write(path + "\n")
    sys.stdout.flush()


def main(argv) -> int:
    mode = argv[1] if len(argv) > 1 else ""
    if mode == "setup":
        run_setup(argv[2])
        return 0
    import json

    job = json.loads(sys.stdin.read())
    if mode == "lib":
        result = run_lib(job)
    elif mode == "trace":
        result = run_trace(job)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
