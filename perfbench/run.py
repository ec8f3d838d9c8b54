"""Benchmark runner: seeded workloads, oracle-checked outputs, layered timings.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cli_oneshot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1 --out FILE

`--trace 0` prints the end-to-end metrics that BENCHMARK.json lists, measured
with nothing wrapped; `--trace 1` prints the per-layer metrics from a traced
in-process replay of the same operations. Each run prints one line per
metric, then, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. See perfbench/README.md for what each figure means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402

ROOT = Path.cwd()
WORKLOADS = ("cli_oneshot", "sweep_csv", "library_batch")
SETUP_RUNS = 9
BARE_MS = 50.0       # nominal `python -c pass` wall time that spawn timings are scaled to
KERNEL_NS = 550e3    # nominal worker.reference_kernel time that library timings are scaled to
IMPORT_RUNS = 5
CHILD_TIMEOUT_S = 120
IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


@dataclass(frozen=True)
class Run:
    code: int
    out: bytes
    err: bytes
    wall: float        # s, spawn to reaped
    first: float       # s, spawn to first byte on stdout or stderr
    cpu: float         # s, child user + system
    rss_kb: int


def child_env() -> dict:
    """The caller's environment, the checkout's sources first, one BLAS thread.

    numpy's BLAS pool starts a thread per CPU at import; on a 2-CPU box that
    thread competes with the interpreter and made one-shot wall times bimodal
    (quartile spread 25% of the median, against 3% with one thread). The
    package only multiplies 2x2 and 4x4 matrices, so the pool does no work.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, stdin: bytes | None = None) -> Run:
    """Run one child to completion, timing its first output byte and its rusage.

    A child still running after CHILD_TIMEOUT_S is killed and the run fails,
    so a hang in the program cannot hold the benchmark past its time limit.

    The child may write its peak RSS line to the pipe named by PERFBENCH_PEAK_FD
    (see CLI_BOOT); rusage's ru_maxrss is no use for that, since a child
    spawned by vfork inherits this process's high-water mark.
    """
    peak_r, peak_w = os.pipe()
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(argv, cwd=ROOT, env=dict(env, PERFBENCH_PEAK_FD=str(peak_w)),
                                pass_fds=(peak_w,),
                                stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    finally:
        os.close(peak_w)
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
        streams = {out_fd: bytearray(), err_fd: bytearray(), peak_r: bytearray()}
        first = None
        with selectors.DefaultSelector() as sel:
            for fd in streams:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                events = sel.select(t0 + CHILD_TIMEOUT_S - time.perf_counter())
                if not events:
                    raise TimeoutError(f"{argv[:4]} still running after {CHILD_TIMEOUT_S} s")
                for key, _ in events:
                    chunk = os.read(key.fd, 1 << 20)
                    if not chunk:
                        sel.unregister(key.fd)
                        continue
                    if first is None and key.fd != peak_r:
                        first = time.perf_counter()
                    streams[key.fd].extend(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
        os.close(peak_r)
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = re.search(rb"VmHWM:\s*(\d+) kB", streams[peak_r])
    return Run(proc.returncode, bytes(streams[out_fd]), bytes(streams[err_fd]),
               t1 - t0, (first or t1) - t0, usage.ru_utime + usage.ru_stime,
               int(peak.group(1)) if peak else 0)


def pct(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100].

    Unlike interpolated percentiles it reads the same from k whole passes as
    from one, and a minority of samples slowed by load elsewhere on a shared
    machine moves the median by at most one rank per sample.
    """
    data = sorted(values)
    return data[max(0, math.ceil(q / 100.0 * len(data)) - 1)]


def local_scale(refs: list, nominal: float) -> list:
    """`nominal` over the median of the five reference times nearest in time
    to each sample: follows the machine's drift at a second's resolution
    while one reference's own noise is damped."""
    return [nominal / statistics.median(refs[max(0, i - 2):i + 3]) for i in range(len(refs))]


def op_figures(samples, n_ops: int, rows) -> dict:
    """Latency and throughput from (wall, first, cpu) samples in seconds,
    in pass order.

    Percentiles pool every sample. Throughput is work items per second with
    each op at its lower median across passes (the faster of two), so one
    slowed pass does not carry it.
    """
    walls = [s[0] for s in samples]
    typical = [statistics.median_low(walls[i::n_ops]) for i in range(n_ops)]
    return {
        "wall_ms_p50": 1e3 * pct(walls, 50),
        "wall_ms_p90": 1e3 * pct(walls, 90),
        "cpu_ms_p50": 1e3 * pct([s[2] for s in samples], 50),
        "first_byte_ms_p50": 1e3 * pct([s[1] for s in samples], 50),
        "throughput_per_s": sum(rows) / sum(typical),
    }


def digest(run: Run) -> tuple:
    return run.code, hashlib.sha256(run.out).hexdigest()


# `python -m qsagnac.cli ARGS`, plus an exit hook that reports the process's
# own peak RSS (VmHWM) on the side pipe
CLI_BOOT = (
    "import atexit, os, runpy, sys\n"
    "def _peak():\n"
    "    with open('/proc/self/status', 'rb') as fh:\n"
    "        line = next((ln for ln in fh if ln.startswith(b'VmHWM')), b'')\n"
    "    os.write(int(os.environ['PERFBENCH_PEAK_FD']), line)\n"
    "atexit.register(_peak)\n"
    "runpy.run_module('qsagnac.cli', run_name='__main__', alter_sys=True)\n"
)


def cli_argv(op: dict) -> list[str]:
    return [sys.executable, "-c", CLI_BOOT, *op["argv"]]


def worker_argv(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *args]


# -- set-up -----------------------------------------------------------------

def bare_start(env: dict, refs: list) -> None:
    """Append the wall time of `python -c pass`: the machine's current speed."""
    refs.append(spawn([sys.executable, "-c", "pass"], env).wall)


def measure_setup(target: str, env: dict, times: list, n: int, refs: list) -> None:
    """Append n spawn-to-ready times of a fresh interpreter (import + first calls),
    each after a bare interpreter start."""
    for _ in range(n):
        bare_start(env, refs)
        run = spawn(worker_argv("setup", target), env)
        path = run.out.decode(errors="replace").strip()
        if run.code != 0 or not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"set-up failed (exit {run.code}): {run.err.decode(errors='replace')}")
        times.append(run.first)


# -- measured runs -----------------------------------------------------------

class Tally:
    """Outcome counts over the first pass, which a fixed seed repeats exactly."""

    def __init__(self):
        self.counts = Counter()
        self.strict = 0
        self.examples = []

    def add(self, verdict: check.Verdict, label) -> None:
        self.counts[verdict.outcome] += 1
        if verdict.outcome in ("wrong", "contract_broken"):
            self.strict += verdict.strict
            if len(self.examples) < 3:
                self.examples.append(f"{verdict.outcome}: {label}: {verdict.why}"[:300])

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.counts["wrong"] + self.counts["contract_broken"]


def cli_pass(ops, env, tally: Tally, samples: list, digests: dict, first: bool,
             refs: list) -> int:
    """One pass over the ops, each after a bare interpreter start; returns how
    many outputs differ from the first pass."""
    changed = 0
    for i, op in enumerate(ops):
        bare_start(env, refs)
        run = spawn(cli_argv(op), env)
        rows = op["params"]["count"] if op["kind"] == "sweep" and run.code == 0 else 1
        samples.append((run.wall, run.first, run.cpu, run.rss_kb, rows))
        if first:
            tally.add(check.classify_cli(op, run.code, run.out, run.err), op["argv"])
            digests[i] = digest(run)
        elif digests[i] != digest(run):
            changed += 1
    return changed


def measure_cli(ops, seconds: float, env: dict, refs: list, between=lambda: None) -> dict:
    """Whole passes until `seconds` have elapsed, at least one; `between`
    runs once, after the first."""
    tally, samples, digests = Tally(), [], {}
    start, passes, changed = time.perf_counter(), 0, 0
    while passes == 0 or time.perf_counter() - start < seconds:
        changed += cli_pass(ops, env, tally, samples, digests, passes == 0, refs)
        passes += 1
        if passes == 1:
            between()
    rows = [samples[i][4] for i in range(len(ops))]
    scale = local_scale(refs, BARE_MS / 1e3)
    scaled = [(w * k, f * k, c * k) for (w, f, c, _, _), k in zip(samples, scale)]
    e2e = op_figures(scaled, len(ops), rows)
    e2e["peak_rss_mb"] = pct([s[3] for s in samples], 50) / 1024.0
    extras = {"wall_ms_p50_raw": 1e3 * pct([s[0] for s in samples], 50),
              "python_start_ms_p50": 1e3 * pct(refs, 50)}
    return {"e2e": e2e, "tally": tally, "changed": changed, "samples": len(samples),
            "passes": passes, "extras": extras}


def lib_job(ops, seconds: float, env: dict) -> dict:
    run = spawn(worker_argv("lib"), env, json.dumps({"ops": ops, "seconds": seconds}).encode())
    if run.code != 0:
        raise SystemExit(f"library worker failed (exit {run.code}): {run.err.decode(errors='replace')}")
    return json.loads(run.out)


def measure_lib(ops, seconds: float, env: dict) -> dict:
    res = lib_job(ops, seconds, env)
    tally = Tally()
    for op, result in zip(ops, res["results"]):
        tally.add(check.classify_lib(op, result), op)
    walls, cpus = res["walls_ns"], res["cpus_ns"]
    if not walls:   # a checked pass only, for the traced run
        return {"tally": tally, "changed": 0, "results": res["results"]}
    scale = local_scale(res["refs_ns"], KERNEL_NS)
    samples = [(w / 1e9 * scale[i // len(ops)],) * 2 + (c / 1e9 * scale[i // len(ops)],)
               for i, (w, c) in enumerate(zip(walls, cpus))]
    e2e = op_figures(samples, len(ops), [1] * len(ops))
    e2e["peak_rss_mb"] = res["rss_kb"] / 1024.0
    reports = [w for i, w in enumerate(walls) if ops[i % len(ops)]["fn"] == "report"]
    extras = {"report_us_p50": pct(reports, 50) / 1e3, "report_us_p99": pct(reports, 99) / 1e3}
    return {"e2e": e2e, "tally": tally, "changed": res["changed"], "samples": len(walls),
            "passes": len(walls) // len(ops), "extras": extras, "results": res["results"]}


def workload_ops(name: str, seed: int):
    if name == "cli_oneshot":
        return gen.cli_oneshot(seed)
    if name == "sweep_csv":
        return gen.sweeps(seed)
    return gen.library_batch(seed)


EXTRA_UNITS = {
    "cli_wall_ms_p50": "ms", "cli_wall_ms_p90": "ms", "cli_cpu_ms_p50": "ms",
    "sweep_csv_rows_per_s": "rows/s",
    "sweep_first_byte_ms_p50": "ms", "lib_ops_per_s": "1/s", "report_us_p50": "us",
    "report_us_p99": "us", "failed_share": "ratio", "wall_ms_p50_raw": "ms",
    "python_start_ms_p50": "ms", "setup_s_raw": "s", "wall_ms_p90": "ms",
}
ALIASES = {   # the figure each generic metric gives on each workload
    "cli_oneshot": {"wall_ms_p50": "cli_wall_ms_p50", "wall_ms_p90": "cli_wall_ms_p90",
                    "cpu_ms_p50": "cli_cpu_ms_p50"},
    "sweep_csv": {"throughput_per_s": "sweep_csv_rows_per_s",
                  "first_byte_ms_p50": "sweep_first_byte_ms_p50"},
    "library_batch": {"throughput_per_s": "lib_ops_per_s"},
}


def run_untraced(name: str, seed: int, seconds: float, env: dict) -> dict:
    """Set-up times are taken at the start, middle and end of the run, so
    that a slow spell on the machine reaches only some of them.

    Times of fresh processes are scaled to a bare interpreter start of
    BARE_MS (`python -c pass`, run before each of them): the shared
    machine's speed drifts by up to 1.6x for tens of seconds, and the ratio
    of a call to a bare start held within 2% where the raw call time moved
    27% (100 s of alternating spawns). A change to qsagnac cannot move the
    bare start, so it moves the scaled figures as it moves raw ones.
    """
    ops = workload_ops(name, seed)
    target, third = ("lib" if name == "library_batch" else "cli"), SETUP_RUNS // 3
    setups, setup_refs, refs = [], [], []
    measure_setup(target, env, setups, third, setup_refs)
    if name == "library_batch":
        m = measure_lib(ops, seconds, env)
    else:
        m = measure_cli(ops, seconds, env, refs,
                        lambda: measure_setup(target, env, setups, third, setup_refs))
    measure_setup(target, env, setups, SETUP_RUNS - len(setups), setup_refs)
    m["e2e"]["setup_s"] = statistics.median(
        t * k for t, k in zip(setups, local_scale(setup_refs, BARE_MS / 1e3)))
    extras = m.setdefault("extras", {})
    extras["setup_s_raw"] = statistics.median(setups)
    # a tail on a shared 2-CPU machine spread 11-47% between runs: printed, not gated
    extras["wall_ms_p90"] = m["e2e"].pop("wall_ms_p90")
    for generic, alias in ALIASES[name].items():
        extras[alias] = m["e2e"].get(generic, extras.get(generic))
    extras["failed_share"] = m["tally"].failed / m["tally"].attempted
    return m


# -- traced run --------------------------------------------------------------

def import_layer(env: dict) -> dict:
    """Import costs from `-X importtime`, against a bare-interpreter baseline."""
    def entries(code: str):
        run = spawn([sys.executable, "-X", "importtime", "-c", code], env)
        rows = []
        for line in run.err.decode(errors="replace").splitlines():
            hit = IMPORT_LINE.match(line)
            if hit:
                rows.append((hit.group(4), len(hit.group(3)) // 2, int(hit.group(2))))
        return run, rows

    bare, statement, numpy = [], [], []
    for _ in range(IMPORT_RUNS):
        run, base = entries("pass")
        bare.append(run.wall)
        startup = {n for n, depth, _ in base if depth == 0}
        run, rows = entries("import qsagnac.cli")
        statement.append(sum(cum for n, depth, cum in rows if depth == 0 and n not in startup))
        numpy.append(next((cum for n, _, cum in rows if n == "numpy"), 0))
    return {"import.python_ms": 1e3 * statistics.median(bare),
            "import.numpy_ms": statistics.median(numpy) / 1e3,
            "import.qsagnac_cli_ms": statistics.median(statement) / 1e3}


def layer_figures(trace: dict, cli_ops: list, n_work_cli: int, n_work_lib: int) -> dict:
    """Per-layer figures from span aggregates; all span times are self times."""
    calls, self_ns, dur_ns = Counter(), Counter(), Counter()
    per_op = defaultdict(dict)
    for name, op, n, s, d in trace["spans"]:
        calls[name] += n
        self_ns[name] += s
        dur_ns[name] += d
        per_op[op][name] = (s, d)

    def us(name, ns=self_ns):
        return ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    fig = {
        "cli.build_parser_us": us("cli.build_parser"),
        "cli.parse_args_us": us("cli.parse_args"),
        "cli.to_json_us": us("cli.to_json", dur_ns),
        "cli.main_self_ms": us("cli.main") / 1e3,
        "state.config_us": us("state.InterferometerConfig"),
        "state.entanglement_report_us": us("state.entanglement_report"),
        "state.report_from_parameters_us": us("state.report_from_parameters"),
        "state.assemble_full_state_us": us("state.assemble_full_state"),
        "design.solve_omega2_us": us("design.solve_omega2"),
        "design.solve_r2_us": us("design.solve_r2"),
        "phase.sagnac_phase_us": us("phase.sagnac_phase"),
        "metric.rotating_disk_metric_us": us("metric.rotating_disk_metric"),
        "hydrogen.pair_report_us": us("hydrogen.hydrogen_pair_report"),
    }
    for c in worker.COMMANDS:
        fig[f"cli.dispatch_us.{c}"] = us(f"cli.cmd_{c}")
    rows, sweep_ns, serialize = Counter(), 0, Counter()
    for i, op in enumerate(cli_ops):
        if op["kind"] != "sweep":
            continue
        spans = per_op.get(i, {})
        fmt = op["params"]["format"]
        rows[fmt] += op["params"]["count"]
        sweep_ns += spans.get("design.sweep", (0, 0))[0]
        serialize[fmt] += spans.get("cli.cmd_sweep", (0, 0))[0] + spans.get("cli.to_json", (0, 0))[1]
    total_rows = sum(rows.values())
    fig["design.sweep_s_per_1e5"] = sweep_ns / 1e9 * 1e5 / total_rows if total_rows else 0.0
    for fmt in ("csv", "json"):
        fig[f"cli.serialize_s_per_1e5.{fmt}"] = (
            serialize[fmt] / 1e9 * 1e5 / rows[fmt] if rows[fmt] else 0.0)
    counts = {int(k): v for k, v in trace["counts"].items()}
    work = list(range(n_work_cli)) + list(range(len(cli_ops), len(cli_ops) + n_work_lib))
    fig["constants.regime_check_calls"] = sum(counts.get(i, 0) for i in work) / len(work)
    u1, t, u2 = trace["walls_ns"]
    fig["trace.overhead_share"] = t / ((u1 + u2) / 2) - 1
    return fig


def run_traced(name: str, seed: int, env: dict) -> dict:
    """Untraced first pass for outputs and counts, then the traced replay."""
    ops = workload_ops(name, seed)
    cov_cli, cov_lib = gen.coverage(seed)
    if name == "library_batch":
        m = measure_lib(ops, 0, env)
        work_cli, work_lib = [], ops
        # (replay index, expected output) for every call that returned a value
        expected = [(len(cov_cli) + i, json.dumps(r["value"]))
                    for i, r in enumerate(m["results"]) if "value" in r]
    else:
        tally, digests = Tally(), {}
        cli_pass(ops, env, tally, [], digests, True, [])
        m = {"tally": tally, "changed": 0}
        work_cli, work_lib = ops, []
        expected = [(i, [code, sha]) for i, (code, sha) in sorted(digests.items())]
    cli_ops, lib_ops = work_cli + cov_cli, work_lib + cov_lib
    job = {"cli": [op["argv"] for op in cli_ops], "lib": lib_ops}
    run = spawn(worker_argv("trace"), env, json.dumps(job).encode())
    if run.code != 0:
        raise SystemExit(f"trace worker failed (exit {run.code}): {run.err.decode(errors='replace')}")
    trace = json.loads(run.out)
    # the workload's outputs must match in both the untraced and traced replay,
    # and every op, coverage included, must give the same output traced and untraced
    mism = sum(trace[kind][i] != want for kind in ("untraced", "traced") for i, want in expected)
    mism += sum(a != b for a, b in zip(trace["untraced"], trace["traced"]))
    m["changed"] += mism
    m["absent"] = trace["absent"]
    fig = layer_figures(trace, cli_ops, len(work_cli), len(work_lib))
    fig.update(import_layer(env))
    tally = m["tally"]
    fig.update({
        "ops.attempted": tally.attempted,
        "ops.wrong": tally.counts["wrong"],
        "ops.refused_ok": tally.counts["refused_ok"],
        "ops.contract_broken": tally.counts["contract_broken"],
        "ops.unanswerable_returned": tally.counts["unanswerable_returned"],
    })
    m["layers"] = fig
    return m


# -- reporting ---------------------------------------------------------------

def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # numpy missing: the runs themselves will say so
        numpy_version = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


def spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit("BENCHMARK.json not found in the working directory")
    return json.loads(path.read_text())


def run_workload(name: str, args, env: dict, bench: dict) -> tuple[dict, dict]:
    """Returns (metrics for the result line, full record for --out)."""
    if args.trace:
        m = run_traced(name, args.seed, env)
        wanted, values = bench["per_layer"], m["layers"]
    else:
        m = run_untraced(name, args.seed, args.seconds, env)
        wanted, values = bench["end_to_end"], m["e2e"]
    tally = m["tally"]
    metrics = {}
    for item in wanted:
        if item["name"] not in values:
            raise SystemExit(f"metric {item['name']} was not measured")
        value = values[item["name"]]
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
        print(f"{name:14s} {item['name']:36s} {value:>16.6g} {item['unit']}")
    for key, value in m.get("extras", {}).items():
        print(f"{name:14s} {key:36s} {value:>16.6g} {EXTRA_UNITS[key]}")
    for layer in m.get("absent", []):
        print(f"{name:14s} {layer:36s} absent")
    print(f"{name:14s} outcomes {dict(tally.counts)}; failed {tally.failed}/{tally.attempted};"
          f" samples {m.get('samples', 0)}; passes {m.get('passes', 1)};"
          f" outputs differing between passes or from the replay {m['changed']}")
    for line in tally.examples:
        print(f"{name:14s} {line}")
    correct = tally.strict == 0 and m["changed"] == 0
    record = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "outcomes": dict(tally.counts), "metrics": metrics, "extras": m.get("extras", {}),
              "absent": m.get("absent", []), "samples": m.get("samples"), "passes": m.get("passes")}
    return record, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write a results file with machine info")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsagnac" / "cli.py").is_file():
        print("no qsagnac source tree (src/qsagnac) under the working directory", file=sys.stderr)
        return 2
    bench = spec()
    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records, combined = {}, {}
    for name in names:
        records[name], metrics = run_workload(name, args, env, bench)
        if args.workload == "all":
            combined.update({f"{name}.{k}": v for k, v in metrics.items()})
        else:
            combined = metrics
    if args.out:
        args.out.write_text(json.dumps({
            "machine": machine_info(), "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workloads": records}, indent=2) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
