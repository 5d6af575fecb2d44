"""The measured process: imports credal_cert from the checkout and runs it.

Run as ``python3 benchmarks/worker.py SPEC.json``; ``run.py`` writes the spec
and reads the result file the spec names. The first line the worker prints
is ``ready``, once the program is imported (and, for monitor, once the
program asks for its first batch), so the harness can time set-up from
process start. Modes:

- ``probe``: import and exit (a set-up sample).
- ``loop``: call ``cli.main`` on the spec's commands in turn, either until
  ``seconds`` have passed or for exactly ``ops`` calls, capturing stdout.
- ``monitor``: run ``cli.main`` once on a ``monitor`` command reading stdin,
  which the harness feeds batch by batch.
- ``permutation``: time ``mmd.permutation_calibrate`` across thread counts.

With ``trace`` set, layer spans are recorded (see tracer.py). A loop that
ran for ``seconds`` without repeating an input repeats the first one,
untimed, so the same-bytes check always has a pair.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import tracemalloc
from pathlib import Path


def _import_program(src: str):
    sys.path.insert(0, src)
    import credal_cert.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"credal_cert imported from {cli.__file__}, not {src}")
    return cli


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _maxrss_mb() -> float:
    # VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the image that
    # called exec, which for a spawned worker is the harness.
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _tracer(spec):
    """None, or an installed Tracer: ``spans`` times spans only, ``memory``
    also runs tracemalloc, which slows every allocation, so its times are
    not used."""
    mode = spec.get("trace")
    if not mode:
        return None
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    tracer = Tracer(memory=mode == "memory")
    tracer.install()
    if tracer.memory:
        tracemalloc.start()
    return tracer


def _loop(spec, cli) -> dict:
    tracer = _tracer(spec)
    main = cli.main if tracer is None else tracer.wrap("cli", "main", cli.main)
    commands = spec["commands"]
    fixed = spec.get("ops")
    ops = []
    start = time.perf_counter()
    while True:
        index = len(ops) % len(commands)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = main(list(commands[index]))
            t1 = time.perf_counter()
        ops.append(
            {
                "index": index,
                "rc": rc,
                "latency_s": t1 - t0,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
            }
        )
        if len(ops) == fixed or (fixed is None and t1 - start >= spec["seconds"]):
            break
    span_s = t1 - start
    if fixed is None and len({op["index"] for op in ops}) == len(ops):
        # no input was repeated: repeat the first, untimed, for the
        # same-bytes check
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(commands[0]))
        ops.append({"index": 0, "rc": rc, "stdout": out.getvalue(), "extra": True})
    return {
        "ops": ops,
        "span_s": span_s,
        "maxrss_mb": _maxrss_mb(),
        "trace": tracer.summary() if tracer is not None else None,
    }


class _Stdin:
    """Line iterator over the real stdin that signals ``ready`` on first use
    and, when tracing, marks the time blocked on the harness as waiting."""

    def __init__(self, real, tracer):
        self.real = real
        self.tracer = tracer

    def __iter__(self):
        _ready()
        while True:
            if self.tracer is None:
                line = self.real.readline()
            else:
                with self.tracer.waiting():
                    line = self.real.readline()
            if not line:
                return
            yield line


def _monitor(spec, cli) -> dict:
    tracer = _tracer(spec)
    main = cli.main if tracer is None else tracer.wrap("cli", "main", cli.main)
    sys.stdin = _Stdin(sys.stdin, tracer)
    t0 = time.perf_counter()
    rc = main(list(spec["commands"][0]))
    session_s = time.perf_counter() - t0
    return {
        "rc": rc,
        "session_s": session_s,
        "maxrss_mb": _maxrss_mb(),
        "trace": tracer.summary() if tracer is not None else None,
    }


def _permutation(spec, cli) -> dict:
    import numpy as np
    from credal_cert.kernels import median_heuristic
    from credal_cert.mmd import permutation_calibrate

    timings = {}
    invariant = True
    for size in spec["sizes"]:
        rng = np.random.default_rng(np.random.SeedSequence([spec["seed"], size]))
        Xs = rng.standard_normal((size, 10))
        Xt = 0.25 + rng.standard_normal((size, 10))
        kernel = median_heuristic(Xs, Xt)
        samples = {t: [] for t in spec["threads"]}
        results = {}
        for rep in range(spec["reps"]):
            order = spec["threads"] if rep % 2 == 0 else spec["threads"][::-1]
            for threads in order:
                t0 = time.perf_counter()
                results[threads] = permutation_calibrate(
                    Xs, Xt, kernel, num_permutations=1000, seed=rep, threads=threads
                )
                samples[threads].append(time.perf_counter() - t0)
            invariant &= len(set(results.values())) == 1
        for threads, values in samples.items():
            timings[f"m{size}_threads{threads}"] = sorted(values)[len(values) // 2]
    return {"median_s": timings, "thread_invariant": invariant}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    cli = _import_program(spec["src"])
    if spec["mode"] != "monitor":
        _ready()
    run = {
        "probe": lambda s, c: {},
        "loop": _loop,
        "monitor": _monitor,
        "permutation": _permutation,
    }[spec["mode"]]
    result = run(spec, cli)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
