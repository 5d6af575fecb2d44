"""Seeded inputs for the four workloads and the checks on their outputs.

Inputs are generated from ``(seed, workload, index)`` and written as CSV and
JSON files, so the program only ever reads files. Floats are written with
``repr``, which round-trips, so the program parses exactly the arrays the
references below use.

The references are independent of the program: squared distances come from
``scipy.spatial.distance.cdist`` (direct differences, not the program's
norm expansion) and the formulas are restated here from the README.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

D = 10

# The README quick-start config, with 1000 permutations.
CERTIFY_CONFIG = {
    "gamma": "median",
    "delta": 0.1,
    "kl": 1.5,
    "n_labeled": 40,
    "l_h": "estimate",
    "lambda": 1e-06,
    "r_max": 0.8,
    "alpha0": 0.1,
    "epsilon": "calibrate",
    "num_permutations": 1000,
    "alpha": 0.05,
}
# monitor: same, but the radius defaults to the upper confidence limit, so
# no permutation runs.
MONITOR_CONFIG = {
    k: v
    for k, v in CERTIFY_CONFIG.items()
    if k not in ("epsilon", "num_permutations", "alpha")
}

CERTIFY_M = 2000
CERTIFY_SETS = 6
MONITOR_M = 2000
MONITOR_BATCH = 50
MONITOR_POOL = 32
GEOMETRY_M = 1000
GEOMETRY_ANCHORS = 20
GEOMETRY_SETS = 4
SIMULATE_M = 50
SIMULATE_TRIALS = 500
SIMULATE_GAMMA = 0.05

# |program - reference| <= REL_TOL * (sum of the magnitudes of the terms).
# Both sides agree to ~1e-16 today; 1e-10 leaves room for any summation
# order while still catching a 1e-8 relative change in any term.
REL_TOL = 1e-10


def _rng(seed: int, tag: str, index: int) -> np.random.Generator:
    words = [seed, *tag.encode(), index]
    return np.random.default_rng(np.random.SeedSequence(words))


def _csv(rows: np.ndarray) -> str:
    if rows.ndim == 1:
        rows = rows[:, None]
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _shifted_pair(rng, m: int, n: int):
    source = rng.standard_normal((m, D))
    target = 0.25 + math.sqrt(1.2) * rng.standard_normal((n, D))
    return source, target


def _losses(rng, X: np.ndarray) -> np.ndarray:
    w = rng.standard_normal(X.shape[1]) / math.sqrt(X.shape[1])
    return 1.0 / (1.0 + np.exp(-(X @ w + 0.3 * rng.standard_normal(X.shape[0]))))


def _config_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


@dataclass
class InputSet:
    """One operation's input files plus the arrays they hold."""

    argv: list[str]
    arrays: dict


def certify_sets(seed: int, workdir: Path) -> list[InputSet]:
    sets = []
    for i in range(CERTIFY_SETS):
        rng = _rng(seed, "certify", i)
        Xs, Xt = _shifted_pair(rng, CERTIFY_M, CERTIFY_M)
        losses = _losses(rng, Xs)
        config = dict(CERTIFY_CONFIG, seed=_config_seed(rng))
        argv = [
            "certify",
            _write(workdir / f"certify{i}_source.csv", _csv(Xs)),
            _write(workdir / f"certify{i}_losses.csv", _csv(losses)),
            _write(workdir / f"certify{i}_target.csv", _csv(Xt)),
            _write(workdir / f"certify{i}_config.json", json.dumps(config)),
        ]
        sets.append(InputSet(argv, {"Xs": Xs, "Xt": Xt}))
    return sets


def geometry_sets(seed: int, workdir: Path) -> list[InputSet]:
    sets = []
    for i in range(GEOMETRY_SETS):
        rng = _rng(seed, "geometry", i)
        Xs, Xt = _shifted_pair(rng, GEOMETRY_M, GEOMETRY_M)
        anchors = 0.125 + rng.standard_normal((GEOMETRY_ANCHORS, D))
        argv = [
            "geometry",
            _write(workdir / f"geometry{i}_source.csv", _csv(Xs)),
            _write(workdir / f"geometry{i}_target.csv", _csv(Xt)),
            "--anchors",
            _write(workdir / f"geometry{i}_anchors.csv", _csv(anchors)),
        ]
        sets.append(InputSet(argv, {"Xs": Xs, "Xt": Xt, "anchors": anchors}))
    return sets


def simulate_sets(seed: int, workdir: Path) -> list[InputSet]:
    rng = _rng(seed, "simulate", 0)
    config = {
        "experiment": "unbiasedness",
        "trials": SIMULATE_TRIALS,
        "m": SIMULATE_M,
        "n": SIMULATE_M,
        "seed": _config_seed(rng),
        "scenario": {
            "d": D,
            "mean_s": 0.0,
            "mean_t": 0.2,
            "var_s": 1.0,
            "var_t": 1.2,
            "gamma": SIMULATE_GAMMA,
        },
    }
    path = _write(workdir / "simulate.json", json.dumps(config))
    return [InputSet(["simulate", path], {})]


@dataclass
class MonitorInputs:
    argv: list[str]
    source: np.ndarray
    batches: list[np.ndarray]
    texts: list[bytes]


def monitor_inputs(seed: int, workdir: Path) -> MonitorInputs:
    rng = _rng(seed, "monitor", 0)
    Xs = rng.standard_normal((MONITOR_M, D))
    losses = _losses(rng, Xs)
    batches = []
    for i in range(MONITOR_POOL):
        _, batch = _shifted_pair(_rng(seed, "monitor-batch", i), 0, MONITOR_BATCH)
        batches.append(batch)
    argv = [
        "monitor",
        "-",
        _write(workdir / "monitor_source.csv", _csv(Xs)),
        _write(workdir / "monitor_losses.csv", _csv(losses)),
        _write(workdir / "monitor_config.json", json.dumps(MONITOR_CONFIG)),
    ]
    texts = [(_csv(b) + "---\n").encode() for b in batches]
    return MonitorInputs(argv, Xs, batches, texts)


# ---------------------------------------------------------------- references


def _kernel_sum(A: np.ndarray, B: np.ndarray, gamma: float) -> float:
    return float(np.sum(np.exp(-gamma * cdist(A, B, "sqeuclidean"))))


class SourceReference:
    """Reference U-statistic with the source self-block sum computed once."""

    def __init__(self, Xs: np.ndarray, gamma: float):
        self.Xs = Xs
        self.gamma = gamma
        m = Xs.shape[0]
        # the self-Gram diagonal is exactly 1 per row
        self.ss = (_kernel_sum(Xs, Xs, gamma) - m) / (m * (m - 1))

    def mmd2(self, Xt: np.ndarray) -> tuple[float, float]:
        """(reference mmd2, scale) where scale bounds the summed terms."""
        m, n = self.Xs.shape[0], Xt.shape[0]
        tt = (_kernel_sum(Xt, Xt, self.gamma) - n) / (n * (n - 1))
        st = 2.0 * _kernel_sum(self.Xs, Xt, self.gamma) / (m * n)
        return self.ss + tt - st, abs(self.ss) + abs(tt) + abs(st)


def _close(value: float, reference: float, scale: float) -> bool:
    return abs(value - reference) <= REL_TOL * scale


def _set_reference(inputs: InputSet, gamma: float, refs: dict) -> tuple[float, float]:
    """Reference (mmd2, scale) for an input set, computed once per run."""
    key = id(inputs)
    if key not in refs:
        refs[key] = SourceReference(inputs.arrays["Xs"], gamma).mmd2(inputs.arrays["Xt"])
    return refs[key]


# -------------------------------------------------------------------- checks


def contract_failures(c: dict) -> list[str]:
    """The README numerical contracts, bitwise, on the serialized values."""
    fails = []
    if c["upper_risk"] != (c["empirical_risk"] + c["complexity_term"]) + c[
        "shift_penalty"
    ]:
        fails.append("upper_risk decomposition")
    if c["shift_penalty"] != c["l_h"] * (c["mmd"] + c["mmd_width"]):
        fails.append("shift_penalty == l_h * (mmd + mmd_width)")
    n = c["n_labeled"]
    population = math.sqrt(
        (c["kl"] + math.log(2.0 * math.sqrt(n) / c["delta"])) / (2.0 * n)
    )
    if c["interval_width"] != 2.0 * population + 2.0 * (c["l_h"] * c["epsilon"]):
        fails.append("interval_width identity")
    if c["mmd"] != math.sqrt(max(c["mmd2"], 0.0)):
        fails.append("mmd == sqrt(max(mmd2, 0))")
    return fails


def check_certificate(text: str, inputs: InputSet, refs: dict) -> list[str]:
    """Contracts plus mmd2 against the reference; refs caches per input set."""
    try:
        cert = json.loads(text)
    except ValueError as exc:
        return [f"certificate is not JSON: {exc}"]
    if "error" in cert:
        return [f"error record: {cert['error']}"]
    fails = contract_failures(cert)
    reference, scale = _set_reference(inputs, cert["gamma"], refs)
    if not _close(cert["mmd2"], reference, scale):
        fails.append(f"mmd2 {cert['mmd2']!r} vs reference {reference!r}")
    return fails


def check_record(line: bytes, batch: np.ndarray, refs: dict) -> tuple[list[str], dict]:
    """Checks on one monitor record; refs caches the source reference."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        return [f"record is not JSON: {exc}"], {}
    if "error" in record:
        return [f"error record: {record['error']}"], record
    fails = contract_failures(record)
    source = refs["source"]
    if "reference" not in refs:
        refs["reference"] = SourceReference(source, record["gamma"])
    reference, scale = refs["reference"].mmd2(batch)
    if not _close(record["mmd2"], reference, scale):
        fails.append(f"mmd2 {record['mmd2']!r} vs reference {reference!r}")
    return fails, record


def check_geometry(text: str, inputs: InputSet, refs: dict) -> list[str]:
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    anchors = report.get("anchors", [])
    if len(anchors) != GEOMETRY_ANCHORS:
        return [f"expected {GEOMETRY_ANCHORS} anchors, got {len(anchors)}"]
    fails = []
    if len({a["rhs_bound"] for a in anchors}) != 1:
        fails.append("rhs_bound differs across anchors")
    gamma = report["gamma"]
    Xs, Xt, points = (inputs.arrays[k] for k in ("Xs", "Xt", "anchors"))
    reference, scale = _set_reference(inputs, gamma, refs)
    root = math.sqrt(2.0 * gamma)
    mmd = anchors[0]["rhs_bound"] / (root * report["c_w"])
    if not _close(mmd * mmd, max(reference, 0.0), scale):
        fails.append(f"rhs_bound gives mmd2 {mmd * mmd!r}, reference {reference!r}")
    mean_s = np.mean(cdist(points, Xs), axis=1)
    mean_t = np.mean(cdist(points, Xt), axis=1)
    for a in anchors:
        i = a["anchor_index"]
        lhs = root * abs(float(mean_s[i]) - float(mean_t[i]))
        if abs(a["lhs_estimate"] - lhs) > REL_TOL * root * (mean_s[i] + mean_t[i]):
            fails.append(
                f"anchor {i}: lhs_estimate {a['lhs_estimate']!r} vs reference {lhs!r}"
            )
    return fails


def check_simulate(text: str, inputs: InputSet, refs: dict) -> list[str]:
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("RESULT"):
        return ["no RESULT line"]
    failed = [line for line in lines if not line.rstrip().endswith("PASS")]
    return [f"check not PASS: {line}" for line in failed]
