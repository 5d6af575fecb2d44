"""Benchmark harness for credal-cert: four seeded workloads, end to end.

    python3 benchmarks/run.py --workload certify-m2000 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The harness generates its inputs from
``--seed`` into ``.bench_work/``, starts ``worker.py`` (one process, default
BLAS threads, ``--threads`` unset) and measures it from outside, checks every
output, and prints a detail line and then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the ``end_to_end`` list of ``BENCHMARK.json``; with ``--trace 1``
they are its ``per_layer`` list, from a separate traced run. ``--workload
all`` runs every workload in turn and prints a table. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import LAYERS  # noqa: E402

PROBES = 2  # fresh-process set-up samples besides the measured worker's own
DEADLINE_S = 170.0
BLAS_ONE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def add(self, fails: list[str], label: str) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{label}: {'; '.join(fails)}")


class Session:
    """Work directory, deadline and worker processes of one benchmark run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def start(self, spec: dict, env_extra: dict | None = None, stdin=None):
        """Start a worker; return (process, result path, set-up seconds)."""
        self.count += 1
        tag = f"w{self.count}"
        result = self.workdir / f"{tag}.result.json"
        spec = dict(spec, src=str(SRC), result=str(result))
        spec_path = self.workdir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env.update(env_extra or {})
        errfile = open(self.workdir / f"{tag}.stderr", "wb")
        t0 = time.perf_counter()
        try:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                stdin=stdin if stdin is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=errfile,
                cwd=str(ROOT),
                env=env,
            )
        finally:
            errfile.close()
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if line != b"ready\n":
            self.finish(proc, result)
            raise BenchError(f"worker did not start: {self._stderr(tag)}")
        return proc, result, setup_s

    def _stderr(self, tag: str) -> str:
        return (self.workdir / f"{tag}.stderr").read_text(errors="replace")[-2000:]

    def finish(self, proc, result: Path) -> dict:
        """Wait for a worker and read its result file."""
        try:
            proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
        finally:
            proc.stdout.close()
        if proc.returncode != 0 or not result.is_file():
            tag = result.name.split(".")[0]
            raise BenchError(
                f"worker exited {proc.returncode}: {self._stderr(tag)}"
            )
        return json.loads(result.read_text())

    def run(self, spec: dict, env_extra: dict | None = None) -> tuple[dict, float]:
        proc, result, setup_s = self.start(spec, env_extra)
        return self.finish(proc, result), setup_s


def _tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it; the maximum
    where fewer than 40 samples leave no such percentile at or above p75."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 40:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
    return ordered[-1], f"max of {n}"


def _latency_stats(latencies: list[float], units: int, span_s: float) -> dict:
    tail, tail_label = _tail(latencies)
    return {
        "throughput_per_s": units / span_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "tail_percentile": tail_label,
        "samples": len(latencies),
        "latencies_s": latencies,
    }


# ------------------------------------------------------- command workloads


@dataclass(frozen=True)
class LoopWorkload:
    """A workload of whole CLI commands called in-process, in turn."""

    name: str
    make: object  # (seed, workdir) -> list[InputSet]
    check: object  # (stdout, InputSet, refs) -> list[str]
    units: int  # operations per command: anchors or trials
    traced_ops: int


def _run_loop(session: Session, wk: LoopWorkload, sets, tally: Tally, refs,
              seconds=None, ops=None, trace=None, env_extra=None):
    commands = [s.argv for s in sets]
    spec = {"mode": "loop", "commands": commands, "seconds": seconds, "ops": ops,
            "trace": trace}
    result, setup_s = session.run(spec, env_extra)
    first: dict[int, str] = {}
    for k, op in enumerate(result["ops"]):
        fails = [] if op["rc"] == 0 else [f"exit {op['rc']}: {op.get('stderr', '')}"]
        if not fails:
            fails = wk.check(op["stdout"], sets[op["index"]], refs)
        previous = first.setdefault(op["index"], op["stdout"])
        if previous != op["stdout"]:
            fails.append("output differs from an earlier run on the same input")
        tally.add(fails, f"{wk.name} op {k}")
    timed = [op for op in result["ops"] if not op.get("extra")]
    latencies = [op["latency_s"] / wk.units for op in timed]
    stats = _latency_stats(latencies, len(timed) * wk.units, result["span_s"])
    return result, setup_s, stats


def loop_end_to_end(session, wk: LoopWorkload, seed: int, seconds: float, tally):
    sets = wk.make(seed, session.workdir)
    setups = [session.run({"mode": "probe"})[1] for _ in range(PROBES)]
    result, setup_s, stats = _run_loop(session, wk, sets, tally, {}, seconds=seconds)
    setups.append(setup_s)
    stats["setup_s"] = statistics.median(setups)
    stats["peak_rss_mb"] = result["maxrss_mb"]
    return stats


def loop_traced(session, wk: LoopWorkload, seed: int, seconds: float, tally):
    # One input throughout, so traced and untraced latencies compare like
    # with like and the fixed traced count repeats an input.
    sets = wk.make(seed, session.workdir)[:1]
    refs: dict = {}
    _, _, plain = _run_loop(session, wk, sets, tally, refs, seconds=seconds / 2)
    result, _, traced = _run_loop(
        session, wk, sets, tally, refs, ops=wk.traced_ops, trace="spans"
    )
    memory, _, _ = _run_loop(session, wk, sets, tally, refs, ops=1, trace="memory")
    layers = layer_metrics(
        result["trace"],
        memory["trace"],
        units=wk.traced_ops * wk.units,
        wall_s=sum(op["latency_s"] for op in result["ops"]),
    )
    overhead(layers, plain, traced)
    detail = {"untraced": plain, "traced": traced}
    if wk.name == "certify-m2000":
        detail["diagnostics"] = certify_diagnostics(
            session, wk, sets, tally, refs, seed, plain
        )
    return layers, detail


def certify_diagnostics(session, wk, sets, tally, refs, seed: int, plain) -> dict:
    """BLAS pinned to one thread, and permutation_calibrate at threads 1 vs 2."""
    _, _, single = _run_loop(
        session, wk, sets, tally, refs, ops=2, env_extra=BLAS_ONE_THREAD
    )
    perm, _ = session.run(
        {"mode": "permutation", "sizes": [500, 2000], "threads": [1, 2], "reps": 3,
         "seed": seed}
    )
    if not perm["thread_invariant"]:
        tally.add(["permutation_calibrate differs between thread counts"],
                  "permutation diagnostic")
    return {
        "certify_blas_1_thread_latency_p50_s": single["latency_p50_s"],
        "certify_blas_default_latency_p50_s": plain["latency_p50_s"],
        "permutation_calibrate_median_s": perm["median_s"],
        "permutation_thread_invariant": perm["thread_invariant"],
    }


# ---------------------------------------------------------------- monitor


MONITOR = "monitor-m2000-b50"
MONITOR_TRACED_RECORDS = 20
MONITOR_MEMORY_RECORDS = 2


def _monitor_session(session, inputs, tally, refs, seconds=None, records=None,
                     trace=None):
    spec = {"mode": "monitor", "commands": [inputs.argv], "trace": trace}
    proc, result_path, setup_s = session.start(spec, stdin=subprocess.PIPE)
    sent: list[int] = []
    latencies: list[float] = []
    lines: list[bytes] = []

    def exchange(index: int) -> float:
        t0 = time.perf_counter()
        proc.stdin.write(inputs.texts[index])
        proc.stdin.flush()
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        if not line:
            raise BenchError("monitor closed its output early")
        sent.append(index)
        lines.append(line)
        return t1 - t0

    try:
        start = time.perf_counter()
        while True:
            latencies.append(exchange(len(sent) % wl.MONITOR_POOL))
            elapsed = time.perf_counter() - start
            if len(sent) == records or (records is None and elapsed >= seconds):
                break
            session.remaining()
        if records is None and len(set(sent)) == len(sent):
            exchange(0)  # untimed repeat for the same-bytes check
        proc.stdin.close()
    except BaseException:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise
    result = session.finish(proc, result_path)
    if result["rc"] != 0:
        tally.add([f"monitor exited {result['rc']}"], "monitor session")
    first: dict[int, dict] = {}
    for seq, (index, line) in enumerate(zip(sent, lines)):
        fails, record = wl.check_record(line, inputs.batches[index], refs)
        if record and record.get("batch_seq") != seq:
            fails.append(f"batch_seq {record.get('batch_seq')} != {seq}")
        body = {k: v for k, v in record.items() if k != "batch_seq"}
        if first.setdefault(index, body) != body:
            fails.append("record differs from an earlier one on the same batch")
        tally.add(fails, f"monitor record {seq}")
    stats = _latency_stats(latencies, len(latencies), elapsed)
    return result, setup_s, stats


def _monitor_probe(session, inputs) -> float:
    proc, result_path, setup_s = session.start(
        {"mode": "monitor", "commands": [inputs.argv]}, stdin=subprocess.PIPE
    )
    proc.stdin.close()
    session.finish(proc, result_path)
    return setup_s


def monitor_end_to_end(session, seed: int, seconds: float, tally):
    inputs = wl.monitor_inputs(seed, session.workdir)
    refs = {"source": inputs.source}
    setups = [_monitor_probe(session, inputs) for _ in range(PROBES)]
    result, setup_s, stats = _monitor_session(
        session, inputs, tally, refs, seconds=seconds
    )
    setups.append(setup_s)
    stats["setup_s"] = statistics.median(setups)
    stats["peak_rss_mb"] = result["maxrss_mb"]
    return stats


def monitor_traced(session, seed: int, seconds: float, tally):
    inputs = wl.monitor_inputs(seed, session.workdir)
    refs = {"source": inputs.source}
    _, _, plain = _monitor_session(session, inputs, tally, refs, seconds=seconds / 2)
    result, _, traced = _monitor_session(
        session, inputs, tally, refs, records=MONITOR_TRACED_RECORDS, trace="spans"
    )
    memory, _, _ = _monitor_session(
        session, inputs, tally, refs, records=MONITOR_MEMORY_RECORDS, trace="memory"
    )
    trace = result["trace"]
    layers = layer_metrics(
        trace,
        memory["trace"],
        units=MONITOR_TRACED_RECORDS,
        wall_s=result["session_s"] - trace["wait_s"],
    )
    overhead(layers, plain, traced)
    return layers, {"untraced": plain, "traced": traced}


# ------------------------------------------------------------ layer metrics


def layer_metrics(trace: dict, memory: dict, units: int, wall_s: float) -> dict:
    """Per-operation layer figures from a spans-only traced run, plus the
    peak traced memory per span from a second run under tracemalloc."""
    out = {}
    for name, calls in trace["calls"].items():
        out[f"{name}.self_ms"] = 1000.0 * trace["self_s"].get(name, 0.0) / units
        out[f"{name}.calls"] = calls / units
        out[f"{name}.peak_traced_mb"] = memory["peak_mb"].get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.errors"] = trace["errors"].get(layer, 0)
    counters = trace["counters"]
    out["kernels.entries_per_op"] = counters.get("kernels.entries", 0) / units
    out["kernels.gflop_computed"] = counters.get("kernels.flop", 0) / 1e9 / units
    out["kernels.bytes_computed"] = counters.get("kernels.bytes", 0) / units
    out["mmd.permutation_calibrate.gflop_computed"] = (
        counters.get("mmd.permutation_calibrate.flop", 0) / 1e9 / units
    )
    out["rkhs_norm.estimate_rkhs_norm.n_fit"] = counters.get(
        "rkhs_norm.estimate_rkhs_norm.n_fit", 0
    )
    out["io.rows_parsed"] = counters.get("io.rows_parsed", 0) / units
    out["trace.self_sum_over_wall"] = sum(trace["self_s"].values()) / wall_s
    return out


def overhead(layers: dict, plain: dict, traced: dict) -> None:
    layers["trace.latency_p50_untraced_s"] = plain["latency_p50_s"]
    layers["trace.latency_p50_traced_s"] = traced["latency_p50_s"]
    layers["trace.overhead_ratio"] = traced["latency_p50_s"] / plain["latency_p50_s"]


# -------------------------------------------------------------------- main


def machine_facts() -> dict:
    """CPU count, memory, cache sizes and numerical libraries of this host."""
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >> 20,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass  # cache sizes are informational
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas['name']} {blas['version']}"
    return facts


LOOPS = {
    wk.name: wk
    for wk in (
        LoopWorkload("certify-m2000", wl.certify_sets, wl.check_certificate, 1, 2),
        LoopWorkload(
            "geometry-m1000-a20", wl.geometry_sets, wl.check_geometry,
            wl.GEOMETRY_ANCHORS, 2,
        ),
        LoopWorkload(
            "simulate-m50", wl.simulate_sets, wl.check_simulate,
            wl.SIMULATE_TRIALS, 3,
        ),
    )
}
WORKLOADS = ["certify-m2000", MONITOR, "geometry-m1000-a20", "simulate-m50"]


def _function_metric(name: str) -> bool:
    return name.endswith((".self_ms", ".calls", ".peak_traced_mb"))


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    session = Session(workdir)
    tally = Tally()
    try:
        if trace:
            if name == MONITOR:
                values, detail = monitor_traced(session, seed, seconds, tally)
            else:
                values, detail = loop_traced(session, LOOPS[name], seed, seconds, tally)
            wanted = spec["per_layer"]
        else:
            if name == MONITOR:
                values = monitor_end_to_end(session, seed, seconds, tally)
            else:
                values = loop_end_to_end(session, LOOPS[name], seed, seconds, tally)
            detail = {
                k: values[k] for k in ("tail_percentile", "samples", "latencies_s")
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value = values[m["name"]]
        elif _function_metric(m["name"]):
            value = 0  # the function was never called, or no longer exists
        else:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    detail.update(
        machine=machine_facts(),
        workload=name,
        seed=seed,
        error_ratio=tally.failed / max(tally.attempted, 1),
        failures=tally.messages,
    )
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "credal_cert" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/credal_cert", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(n, args.seed, seconds, bool(args.trace), spec) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results.values():
        print(json.dumps({"detail": result.pop("detail")}))
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<20} {metric:<44} {m['value']:>14.6g} {m['unit']}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": m
            for name, r in results.items()
            for metric, m in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
