"""Print one digest line per CLI command, for byte-identity checks.

Writes the input fixtures of tests/data and four seeded input sets into a
temporary directory: benchmark size (m = n = 2000, d = 10), an odd shape
(m = 777, n = 333, d = 7) whose kernel matrices end in ragged row blocks,
a wide one (m = 300, n = 200, d = 128) whose inner products span many
features, and a tied one (m = 600, n = 400, d = 10, every feature rounded
to one decimal) whose pooled distances hold many ties at the median.
Each seeded set has a monitor stream of ten 50-row batches plus one batch
equal to the source rows. Then runs certify, monitor (default and --window
2), geometry (with and without --labels), calibrate and norm on every input
set, in process through cli.main, and prints `name exit sha256` per command.
certify, geometry, calibrate and norm also run once with the fixed bandwidth
gamma = 0.5 (`*-gamma` lines; certify reads it from its config). certify
also runs with a fixed radius epsilon = 0.05 (`*-certify-epsilon`), a user
l_h = 2 (`*-certify-lh`), a config without r_max, alpha0 and calibration,
so the radius is the upper confidence limit (`*-certify-bare`), and with
--clamp-risk (`*-certify-clamp`). The digest covers stdout and stderr.

Run it against two source trees and diff the output:

    PYTHONPATH=<tree>/src python scripts/output_digests.py > digests.txt

Identical lines mean the two trees print the same bytes for every command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from credal_cert.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "tests" / "data"
FIXTURE_INPUTS = [
    "source_features.csv",
    "source_losses.csv",
    "target_features.csv",
    "config.json",
    "monitor_stream.txt",
    "anchors.csv",
    "labels.csv",
]

# (label, m, n, d, decimals the features are rounded to) of the seeded
# input sets
SHAPES = [
    ("bench", 2000, 2000, 10, None),
    ("odd", 777, 333, 7, None),
    ("wide", 300, 200, 128, None),
    ("tied", 600, 400, 10, 1),
]
BATCH_ROWS = 50
NUM_BATCHES = 10
NUM_ANCHORS = 20
# the fixed bandwidth of the *-gamma lines
FIXED_GAMMA = 0.5
# the fixed radius and loss norm of the certify-epsilon and certify-lh lines
FIXED_EPSILON = 0.05
FIXED_L_H = 2.0
# config keys that only a permutation-calibrated radius accepts
CALIBRATION_KEYS = ("epsilon", "num_permutations", "alpha", "seed")
# the README quick-start config; monitor drops the permutation radius
CONFIG = {
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


def _csv(rows: np.ndarray) -> str:
    if rows.ndim == 1:
        rows = rows[:, None]
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def write_seeded_inputs(
    out: Path, seed: int, m: int, n: int, d: int, decimals: int | None
) -> None:
    rng = np.random.default_rng(seed)
    Xs = rng.standard_normal((m, d))
    Xt = 0.25 + math.sqrt(1.2) * rng.standard_normal((n, d))
    w = rng.standard_normal(d) / math.sqrt(d)
    losses = 1.0 / (1.0 + np.exp(-(Xs @ w + 0.3 * rng.standard_normal(m))))
    batches = [
        0.25 + math.sqrt(1.2) * rng.standard_normal((BATCH_ROWS, d))
        for _ in range(NUM_BATCHES)
    ]
    anchors = 0.125 + rng.standard_normal((NUM_ANCHORS, d))
    if decimals is not None:
        Xs, Xt, anchors = (np.round(A, decimals) for A in (Xs, Xt, anchors))
        batches = [np.round(b, decimals) for b in batches]
    batches.append(Xs)
    labels = ["rare" if i % 5 == 0 else "common" for i in range(NUM_ANCHORS)]

    (out / "source_features.csv").write_text(_csv(Xs))
    (out / "target_features.csv").write_text(_csv(Xt))
    (out / "source_losses.csv").write_text(_csv(losses))
    (out / "monitor_stream.txt").write_text(
        "---\n".join(_csv(b) for b in batches)
    )
    (out / "anchors.csv").write_text(_csv(anchors))
    (out / "labels.csv").write_text("\n".join(labels) + "\n")
    config = dict(CONFIG, seed=int(rng.integers(0, 2**31)))
    (out / "config.json").write_text(json.dumps(config))
    monitor_config = {k: v for k, v in config.items() if k not in CALIBRATION_KEYS}
    (out / "monitor_config.json").write_text(json.dumps(monitor_config))


def write_fixture_inputs(out: Path) -> None:
    for name in FIXTURE_INPUTS:
        shutil.copyfile(FIXTURE_DIR / name, out / name)
    shutil.copyfile(FIXTURE_DIR / "config.json", out / "monitor_config.json")


def write_variant_configs(out: Path) -> None:
    """The certify configs of the *-gamma, *-epsilon, *-lh and *-bare lines."""
    config = json.loads((out / "config.json").read_text())
    uncalibrated = {k: v for k, v in config.items() if k not in CALIBRATION_KEYS}
    estimated = {k: v for k, v in config.items() if k != "lambda"}
    variants = {
        "gamma_config.json": dict(config, gamma=FIXED_GAMMA),
        "epsilon_config.json": dict(uncalibrated, epsilon=FIXED_EPSILON),
        "lh_config.json": dict(estimated, l_h=FIXED_L_H),
        "bare_config.json": {
            k: v for k, v in uncalibrated.items() if k not in ("r_max", "alpha0")
        },
    }
    for name, variant in variants.items():
        (out / name).write_text(json.dumps(variant))


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) per command; paths are relative to the input directory."""
    src, losses, tgt = "source_features.csv", "source_losses.csv", "target_features.csv"
    geometry = ["geometry", src, tgt, "--anchors", "anchors.csv"]
    monitor = ["monitor", "monitor_stream.txt", src, losses, "monitor_config.json"]
    calibrate = ["calibrate", src, tgt]
    norm = ["norm", src, losses]
    gamma = ["--gamma", repr(FIXED_GAMMA)]
    certify = ["certify", src, losses, tgt]
    return [
        ("certify", certify + ["config.json"]),
        ("monitor", monitor),
        ("monitor-window2", monitor + ["--window", "2"]),
        ("geometry", geometry),
        ("geometry-labels", geometry + ["--labels", "labels.csv"]),
        ("calibrate", calibrate),
        ("norm", norm),
        ("certify-gamma", certify + ["gamma_config.json"]),
        ("geometry-gamma", geometry + gamma),
        ("calibrate-gamma", calibrate + gamma),
        ("norm-gamma", norm + gamma),
        ("certify-epsilon", certify + ["epsilon_config.json"]),
        ("certify-lh", certify + ["lh_config.json"]),
        ("certify-bare", certify + ["bare_config.json"]),
        ("certify-clamp", certify + ["config.json", "--clamp-risk"]),
    ]


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    digest = hashlib.sha256()
    digest.update(out.getvalue().encode())
    digest.update(b"\0")
    digest.update(err.getvalue().encode())
    return code, digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=7, help="input seed (default 7)")
    args = parser.parse_args(argv)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for label, *shape in [("fixture",)] + SHAPES:
            data = Path(tmp) / label
            data.mkdir()
            if shape:
                write_seeded_inputs(data, args.seed, *shape)
            else:
                write_fixture_inputs(data)
            write_variant_configs(data)
            os.chdir(data)
            try:
                for name, cmd in commands():
                    code, digest = run(cmd)
                    print(f"{label}-{name} {code} {digest}", flush=True)
            finally:
                os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
