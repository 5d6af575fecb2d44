"""Regenerate the committed golden fixtures under tests/data.

Writes deterministic input files (features, losses, config, monitor stream,
anchors), then runs the installed CLI on them and freezes its byte output as
expected_certificate.json, expected_monitor.ndjson, expected_geometry.json and
expected_geometry_labels.json.
The determinism tests compare live CLI bytes against these files, so
regenerate only when an output change is intended, and commit the result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class FixtureConfig:
    out_dir: Path
    seed: int = 20240817
    m: int = 40
    n: int = 30
    d: int = 3
    batch_rows: int = 12
    num_batches: int = 4


def _csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    lines = [",".join(header)]
    for row in np.atleast_2d(rows):
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_inputs(cfg: FixtureConfig) -> None:
    rng = np.random.default_rng(cfg.seed)
    Xs = rng.standard_normal((cfg.m, cfg.d))
    shift = np.array([0.5, 0.0, 0.0])
    Xt = shift + rng.standard_normal((cfg.n, cfg.d))
    # smooth losses in [0, 1]; tied to the features so l_h="estimate" has
    # something real to fit
    raw = 0.4 + 0.3 * np.tanh(Xs[:, 0]) + 0.1 * np.sin(Xs[:, 1])
    losses = np.clip(raw, 0.0, 1.0)

    header = [f"f{j}" for j in range(cfg.d)]
    _csv(cfg.out_dir / "source_features.csv", header, Xs)
    _csv(cfg.out_dir / "target_features.csv", header, Xt)
    _csv(cfg.out_dir / "source_losses.csv", ["loss"], losses.reshape(-1, 1))

    config = {
        "gamma": "median",
        "delta": 0.1,
        "kl": 1.5,
        "n_labeled": cfg.m,
        "l_h": "estimate",
        "lambda": 1e-6,
        "c_w": 1.0,
        "r_max": 0.8,
        "alpha0": 0.1,
        "epsilon": "calibrate",
        "num_permutations": 200,
        "alpha": 0.05,
        "seed": 7,
    }
    (cfg.out_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")

    # monitor stream: batches drift away from the source mean
    blocks = []
    for b in range(cfg.num_batches):
        offset = np.array([0.25 * b, 0.0, 0.0])
        batch = offset + rng.standard_normal((cfg.batch_rows, cfg.d))
        lines = [",".join(header)]
        lines += [",".join(repr(float(v)) for v in row) for row in batch]
        blocks.append("\n".join(lines))
    (cfg.out_dir / "monitor_stream.txt").write_text(
        "\n---\n".join(blocks) + "\n"
    )

    anchors = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0],
            [-0.5, 0.5, 0.0],
            [2.0, 2.0, 2.0],
        ]
    )
    _csv(cfg.out_dir / "anchors.csv", header, anchors)
    # one label per anchor row, no header
    (cfg.out_dir / "labels.csv").write_text("common\ncommon\ncommon\nrare\n")


def run_cli(cfg: FixtureConfig) -> None:
    data = cfg.out_dir
    base = [sys.executable, "-m", "credal_cert"]
    certify = base + [
        "certify",
        str(data / "source_features.csv"),
        str(data / "source_losses.csv"),
        str(data / "target_features.csv"),
        str(data / "config.json"),
        "--out", str(data / "expected_certificate.json"),
    ]
    subprocess.run(certify, check=True, cwd=REPO_ROOT)
    monitor = base + [
        "monitor",
        str(data / "monitor_stream.txt"),
        str(data / "source_features.csv"),
        str(data / "source_losses.csv"),
        str(data / "config.json"),
        "--out", str(data / "expected_monitor.ndjson"),
    ]
    subprocess.run(monitor, check=True, cwd=REPO_ROOT)
    geometry = base + [
        "geometry",
        str(data / "source_features.csv"),
        str(data / "target_features.csv"),
        "--anchors", str(data / "anchors.csv"),
    ]
    subprocess.run(
        geometry + ["--out", str(data / "expected_geometry.json")],
        check=True,
        cwd=REPO_ROOT,
    )
    labels = ["--labels", str(data / "labels.csv")]
    subprocess.run(
        geometry + labels + ["--out", str(data / "expected_geometry_labels.json")],
        check=True,
        cwd=REPO_ROOT,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir",
        default=str(REPO_ROOT / "tests" / "data"),
        help="directory to write fixtures into",
    )
    args = parser.parse_args(argv)
    cfg = FixtureConfig(out_dir=Path(args.out_dir))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_inputs(cfg)
    run_cli(cfg)
    for name in sorted(p.name for p in cfg.out_dir.iterdir()):
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
