"""Layer spans around the calls one credal_cert module makes into another.

Every module imports its collaborators by name (``from .kernels import
gram_matrix``), so a layer boundary is a name in the *calling* module's
namespace. ``Tracer.install`` replaces each such name with a wrapper that
records a span: wall time, the part of it that child spans cover, the peak
traced memory above the span's starting point, and whether an exception
crossed the boundary. Spans are aggregated in memory per function and read
out once the traced operations end. No program file is changed.

``validation`` and ``errors`` are called from inside every layer and get no
spans; their time is self time of the layer that called them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "credal_cert"
LAYERS = (
    "cli",
    "io",
    "pipeline",
    "kernels",
    "mmd",
    "rkhs_norm",
    "pac_bayes",
    "credal",
    "conformal",
    "geometry",
    "simulate",
    "oracles",
)
_MB = 1024.0 * 1024.0


def _rows(a) -> int:
    return int(a.shape[0]) if a is not None else 0


def _kernel_work(entries: int, d: int, inputs: int, counters) -> None:
    # Computed, not measured: per entry one d-dimensional dot product (2d),
    # two norm additions, the -2 scale, the -gamma scale and one exp.
    counters["kernels.entries"] += entries
    counters["kernels.flop"] += entries * (2 * d + 5)
    counters["kernels.bytes"] += 8 * (inputs * d + entries)


def _count_gram(a, result, counters) -> None:
    X, Y = a["X"], a["Y"]
    nx = _rows(X)
    ny = nx if Y is None else _rows(Y)
    inputs = nx if Y is None else nx + ny
    _kernel_work(nx * ny, int(X.shape[1]), inputs, counters)


def _count_median(a, result, counters) -> None:
    X, Y = a["X"], a["Y"]
    n = _rows(X) + (_rows(Y) if Y is not None else 0)
    _kernel_work(n * n, int(X.shape[1]), n, counters)


def _count_permutation(a, result, counters) -> None:
    n = _rows(a["Xs"]) + _rows(a["Xt"])
    counters["mmd.permutation_calibrate.flop"] += 2 * n * n * int(
        a["num_permutations"]
    )


def _count_norm_fit(a, result, counters) -> None:
    key = "rkhs_norm.estimate_rkhs_norm.n_fit"
    counters[key] = max(counters[key], int(result.n_fit))


def _count_rows(a, result, counters) -> None:
    counters["io.rows_parsed"] += len(result)


_COUNTERS = {
    "kernels.gram_matrix": _count_gram,
    "kernels.median_heuristic": _count_median,
    "mmd.permutation_calibrate": _count_permutation,
    "rkhs_norm.estimate_rkhs_norm": _count_norm_fit,
    "io.read_features": _count_rows,
    "io.read_losses": _count_rows,
    "io.read_labels": _count_rows,
    "io.parse_feature_rows": _count_rows,
}


class _Frame:
    __slots__ = ("name", "start", "child", "base", "high")

    def __init__(self, name, start, base):
        self.name = name
        self.start = start
        self.child = 0.0
        self.base = base
        self.high = base


class Tracer:
    """Aggregated spans keyed by ``<layer>.<function>``.

    For each name: self seconds (duration minus child spans), call count and
    the highest traced memory above the span's entry level, in bytes.
    ``wait_s`` is time spent inside ``waiting()`` blocks, which is nobody's
    self time.
    """

    def __init__(self, memory: bool = True):
        self.memory = memory
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.wait_s = 0.0
        self._stack: list[_Frame] = []
        self._wrapped: dict[int, object] = {}

    def _memory(self) -> int:
        if not self.memory:
            return 0
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            top = self._stack[-1]
            top.high = max(top.high, peak)
        tracemalloc.reset_peak()
        return current

    def _enter(self, name) -> None:
        base = self._memory()
        self._stack.append(_Frame(name, time.perf_counter(), base))

    def _exit(self) -> None:
        end = time.perf_counter()
        self._memory()
        frame = self._stack.pop()
        duration = end - frame.start
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            parent.high = max(parent.high, frame.high)
        if frame.name is None:
            self.wait_s += duration
        else:
            self.self_s[frame.name] += duration - frame.child
            self.calls[frame.name] += 1
            self.peak_bytes[frame.name] = max(
                self.peak_bytes[frame.name], frame.high - frame.base
            )

    @contextlib.contextmanager
    def waiting(self):
        """Mark the enclosed time as blocked on input."""
        self._enter(None)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, layer: str, qualname: str, fn):
        """Return fn wrapped in a span named ``<layer>.<qualname>``."""
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        name = f"{layer}.{qualname}"
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer._exit()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(bound.arguments, result, tracer.counters)
            return result

        self._wrapped[key] = spanned
        return spanned

    def install(self) -> None:
        """Wrap every cross-layer function reference and the experiment runs.

        ``cli.main`` itself is wrapped by whoever calls it, as the root span.
        """
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        by_module = {m.__name__: layer for layer, m in modules.items()}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                owner_layer = by_module.get(value.__module__)
                if owner_layer is None or owner_layer == layer:
                    continue
                setattr(module, attr, self.wrap(owner_layer, value.__qualname__, value))
        simulate = modules["simulate"]
        for value in list(vars(simulate).values()):
            if (
                inspect.isclass(value)
                and value.__module__ == simulate.__name__
                and inspect.isfunction(getattr(value, "run", None))
            ):
                setattr(
                    value, "run", self.wrap("simulate", f"{value.__name__}.run", value.run)
                )

    def summary(self) -> dict:
        """Plain-data aggregate, suitable for JSON."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "peak_mb": {k: v / _MB for k, v in self.peak_bytes.items()},
            "errors": dict(self.errors),
            "counters": dict(self.counters),
            "wait_s": self.wait_s,
        }
