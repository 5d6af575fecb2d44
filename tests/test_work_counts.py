"""Work done once per command stays done once: the shared geometry MMD and
the monitor session's source self-Gram; the pooled median partitions only
the pairs its bracket keeps; and permutation calibration builds only the
upper panels of the pooled Gram."""

from __future__ import annotations

import importlib
import json
import math
import pkgutil

import numpy as np

import credal_cert
from credal_cert import KernelSpec, geometry, kernels, mmd
from credal_cert.cli import main
from conftest import DATA_DIR

SOURCE = str(DATA_DIR / "source_features.csv")
LOSSES = str(DATA_DIR / "source_losses.csv")
TARGET = str(DATA_DIR / "target_features.csv")
CONFIG = str(DATA_DIR / "config.json")
STREAM = str(DATA_DIR / "monitor_stream.txt")


def _counting(fn, calls):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(result)
        return result

    return wrapper


def test_geometry_computes_one_mmd_for_all_anchors(tmp_path, monkeypatch, capsys):
    anchors = np.random.default_rng(0).standard_normal((20, 3))
    path = tmp_path / "anchors.csv"
    path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in anchors) + "\n"
    )
    calls = []
    monkeypatch.setattr(
        geometry, "mmd2_unbiased", _counting(geometry.mmd2_unbiased, calls)
    )
    assert main(["geometry", SOURCE, TARGET, "--anchors", str(path)]) == 0
    reports = json.loads(capsys.readouterr().out)["anchors"]
    assert len(reports) == 20
    assert len(calls) == 1


def test_monitor_builds_the_source_gram_once(monkeypatch, capsys):
    grams = []
    original = kernels.gram_matrix
    counting = _counting(original, grams)
    # patch every module that imported gram_matrix by name
    for info in pkgutil.iter_modules(credal_cert.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"credal_cert.{info.name}")
        if getattr(module, "gram_matrix", None) is original:
            monkeypatch.setattr(module, "gram_matrix", counting)
    assert main(["monitor", STREAM, SOURCE, LOSSES, CONFIG]) == 0
    records = capsys.readouterr().out.strip().splitlines()
    assert len(records) == 4
    m = np.loadtxt(SOURCE, delimiter=",", skiprows=1).shape[0]
    assert sum(1 for K in grams if K.shape == (m, m)) == 1


def test_median_partitions_few_pooled_pairs(monkeypatch):
    # benchmark-shaped: m = n = 2000, d = 10, the target shifted and widened
    rng = np.random.default_rng(0)
    Xs = rng.standard_normal((2000, 10))
    Xt = 0.25 + math.sqrt(1.2) * rng.standard_normal((2000, 10))
    passes = []
    monkeypatch.setattr(
        kernels, "_count_and_keep", _counting(kernels._count_and_keep, passes)
    )
    kernels.median_heuristic(Xs, Xt)
    n_pairs = 4000 * 3999 // 2
    assert len(passes) == 1
    below, kept = passes[0]
    assert kept <= 0.05 * n_pairs


def test_calibration_builds_the_upper_panels_only(monkeypatch):
    # 4000 pooled rows span four panels; the full pooled Gram is N^2 entries
    rng = np.random.default_rng(0)
    Xs = rng.standard_normal((2000, 10))
    Xt = 0.25 + rng.standard_normal((2000, 10))
    grams = []
    monkeypatch.setattr(mmd, "gram_matrix", _counting(mmd.gram_matrix, grams))
    mmd.permutation_calibrate(Xs, Xt, KernelSpec(gamma=0.05), num_permutations=100)
    assert len(grams) == 4
    assert sum(K.size for K in grams) <= 0.64 * 4000**2
