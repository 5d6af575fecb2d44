"""End-to-end CLI behavior: exit codes, golden outputs, stream protocol."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from credal_cert import (
    CoveragePolicy,
    KernelSpec,
    PosteriorComplexity,
    adaptive_alpha,
    complexity_term,
    median_heuristic,
    mmd2_unbiased,
    permutation_calibrate,
    read_features,
)
from credal_cert import mmd as mmd_module
from credal_cert.cli import main
from credal_cert.kernels import gram_matrix, gram_sum
from conftest import DATA_DIR

SOURCE = str(DATA_DIR / "source_features.csv")
LOSSES = str(DATA_DIR / "source_losses.csv")
TARGET = str(DATA_DIR / "target_features.csv")
CONFIG = str(DATA_DIR / "config.json")
STREAM = str(DATA_DIR / "monitor_stream.txt")
ANCHORS = str(DATA_DIR / "anchors.csv")
LABELS = str(DATA_DIR / "labels.csv")
GOLDEN_CERT = DATA_DIR / "expected_certificate.json"
GOLDEN_MONITOR = DATA_DIR / "expected_monitor.ndjson"
GOLDEN_GEOMETRY = DATA_DIR / "expected_geometry.json"
GOLDEN_GEOMETRY_LABELS = DATA_DIR / "expected_geometry_labels.json"


def certify_args(out=None):
    args = ["certify", SOURCE, LOSSES, TARGET, CONFIG]
    if out is not None:
        args += ["--out", str(out)]
    return args


def write_inputs(tmp_path, rows=30, cols=2, shift=0.0, seed=0):
    rng = np.random.default_rng(seed)
    Xs = rng.standard_normal((rows, cols))
    Xt = shift + rng.standard_normal((rows, cols))
    losses = rng.uniform(0.0, 1.0, rows)
    src = tmp_path / "s.csv"
    tgt = tmp_path / "t.csv"
    lss = tmp_path / "l.csv"
    src.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in Xs) + "\n")
    tgt.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in Xt) + "\n")
    lss.write_text("\n".join(repr(float(v)) for v in losses) + "\n")
    return src, lss, tgt


def write_config(tmp_path, **payload):
    base = {"gamma": "median", "delta": 0.1, "kl": 0.5, "n_labeled": 30, "l_h": 1.0}
    base.update(payload)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


def test_certify_matches_golden_fixture(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(certify_args(out)) == 0
    assert out.read_bytes() == GOLDEN_CERT.read_bytes()


def test_certify_stdout_equals_file_output(capsys):
    assert main(certify_args()) == 0
    assert capsys.readouterr().out == GOLDEN_CERT.read_text()


def test_certificate_serialized_identities_hold_bitwise():
    cert = json.loads(GOLDEN_CERT.read_text())
    assert list(cert)[0] == "gamma"
    assert list(cert)[-1] == "tool_version"
    emp = cert["empirical_risk"]
    assert cert["upper_risk"] == (emp + cert["complexity_term"]) + cert["shift_penalty"]
    assert cert["lower_risk"] == (emp - cert["complexity_term"]) - cert["shift_penalty"]
    assert cert["mmd"] == math.sqrt(max(cert["mmd2"], 0.0))
    c = PosteriorComplexity(
        kl=cert["kl"], n_labeled=cert["n_labeled"], delta=cert["delta"]
    )
    ct_interval = complexity_term(c)
    sp_interval = cert["l_h"] * cert["epsilon"]
    assert cert["interval_width"] == 2.0 * ct_interval + 2.0 * sp_interval
    assert cert["interval_upper"] == (emp + ct_interval) + sp_interval
    assert cert["interval_lower"] == (emp - ct_interval) - sp_interval
    policy = CoveragePolicy(
        alpha0=cert["alpha0"],
        emp_risk=emp,
        kl=cert["kl"],
        n_labeled=cert["n_labeled"],
        l_h=cert["l_h"],
    )
    assert cert["adaptive_alpha"] == adaptive_alpha(policy, cert["epsilon"])


def test_certify_round_trip_parses_back():
    cert = json.loads(GOLDEN_CERT.read_text())
    assert json.loads(json.dumps(cert)) == cert


def test_certify_identical_samples_no_adaptation(tmp_path, capsys):
    src, lss, _ = write_inputs(tmp_path)
    cfg = write_config(
        tmp_path,
        r_max=5.0,
        epsilon="calibrate",
        num_permutations=100,
        alpha=0.05,
        seed=1,
    )
    assert main(["certify", str(src), str(lss), str(src), str(cfg)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "NoAdaptationNeeded"
    assert cert["mmd"] == 0.0
    assert cert["mmd2"] <= 0.0
    assert cert["epsilon_source"] == "permutation_calibrated"


def test_certify_seed_precedence(tmp_path, capsys):
    src, lss, tgt = write_inputs(tmp_path, shift=0.3)
    cfg = write_config(
        tmp_path, epsilon="calibrate", num_permutations=100, seed=7
    )
    assert main(["certify", str(src), str(lss), str(tgt), str(cfg), "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["calibration_seed"] == 7
    cfg = write_config(tmp_path, epsilon="calibrate", num_permutations=100)
    assert main(["certify", str(src), str(lss), str(tgt), str(cfg), "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["calibration_seed"] == 3
    assert main(["certify", str(src), str(lss), str(tgt), str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["calibration_seed"] == 0


def test_certify_clamp_risk_bounds_display(capsys):
    assert main(certify_args() + ["--clamp-risk"]) == 0
    cert = json.loads(capsys.readouterr().out)
    for key in ("upper_risk", "lower_risk", "interval_lower", "interval_upper"):
        assert 0.0 <= cert[key] <= 1.0
    # the raw certificate had upper_risk > 1, so the clamp must have engaged
    assert cert["upper_risk"] == 1.0


def test_certify_default_epsilon_is_upper_confidence(tmp_path, capsys):
    src, lss, tgt = write_inputs(tmp_path, shift=0.2)
    cfg = write_config(tmp_path)
    assert main(["certify", str(src), str(lss), str(tgt), str(cfg)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["epsilon_source"] == "upper_confidence"
    assert cert["epsilon"] == cert["mmd"] + cert["mmd_width"]


def test_certify_missing_file_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["certify", str(tmp_path / "nope.csv"), LOSSES, TARGET, str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "nope.csv" in err


def test_certify_loss_count_mismatch_exits_one(tmp_path, capsys):
    src, lss, tgt = write_inputs(tmp_path)
    lss.write_text("0.5\n0.25\n")
    cfg = write_config(tmp_path)
    assert main(["certify", str(src), str(lss), str(tgt), str(cfg)]) == 1


def test_certify_malformed_loss_row_names_file_and_line(tmp_path, capsys):
    src, lss, tgt = write_inputs(tmp_path)
    lss.write_text("0.5,0.5\n" * 30)
    cfg = write_config(tmp_path)
    assert main(["certify", str(src), str(lss), str(tgt), str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "l.csv" in err and "line 1" in err


def test_certify_degenerate_bandwidth_exits_two(tmp_path, capsys):
    src = tmp_path / "s.csv"
    src.write_text("1.0,1.0\n" * 10)
    lss = tmp_path / "l.csv"
    lss.write_text("0.5\n" * 10)
    cfg = write_config(tmp_path, n_labeled=10)
    assert main(["certify", str(src), str(lss), str(src), str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_median_bandwidth_overflow_exits_one(tmp_path, scale):
    # 1e160 gives NaN pooled distances; 1e200 on the axes, one sample
    # positive and one negative, gives inf ones and an inf median. A
    # subprocess, so that a selection that never ends fails the test.
    rng = np.random.default_rng(0)
    if scale == 1e160:
        samples = [scale * rng.standard_normal((200, 3)) for _ in range(2)]
    else:
        samples = [scale * np.eye(200), -scale * np.eye(200)]
    paths = [tmp_path / "s.csv", tmp_path / "t.csv"]
    for path, rows in zip(paths, samples):
        path.write_text(
            "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        )
    proc = subprocess.run(
        [sys.executable, "-m", "credal_cert", "calibrate", *map(str, paths)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "overflow" in lines[0]


@pytest.mark.parametrize("scale", [1e160, 1e200])
@pytest.mark.parametrize("command", ["calibrate", "geometry", "norm", "certify"])
def test_fixed_bandwidth_overflow_exits_one(tmp_path, command, scale):
    # With gamma = 0.5 no median is taken, so the Gram matrices themselves
    # must reject the overflowing distances: 1e160 gives NaN ones, 1e200
    # inf squared norms. A subprocess, so that a traceback or a warning
    # shows on stderr and a hang fails the test.
    rng = np.random.default_rng(0)
    paths = {}
    for name, rows in (("s", 40), ("t", 30), ("a", 5)):
        path = paths[name] = tmp_path / f"{name}.csv"
        path.write_text(
            "".join(
                ",".join(repr(float(v)) for v in row) + "\n"
                for row in scale * rng.standard_normal((rows, 3))
            )
        )
    losses = tmp_path / "l.csv"
    losses.write_text("0.5\n" * 40)
    config = write_config(tmp_path, gamma=0.5, n_labeled=40)
    args = {
        "calibrate": [paths["s"], paths["t"], "--gamma", "0.5"],
        "geometry": [paths["s"], paths["t"], "--anchors", paths["a"], "--gamma", "0.5"],
        "norm": [paths["s"], losses, "--gamma", "0.5"],
        "certify": [paths["s"], losses, paths["t"], config],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "credal_cert", command, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error:") and "overflow" in lines[0]


def test_geometry_anchor_distance_overflow_exits_one(tmp_path):
    # Ordinary samples, anchors near 1e200: the MMD is finite, and only the
    # anchor distances, outside the Gram path, overflow.
    rng = np.random.default_rng(0)
    paths = {}
    for name, rows, scale in (("s", 40, 1.0), ("t", 30, 1.0), ("a", 5, 1e200)):
        path = paths[name] = tmp_path / f"{name}.csv"
        path.write_text(
            "".join(
                ",".join(repr(float(v)) for v in row) + "\n"
                for row in scale * rng.standard_normal((rows, 3))
            )
        )
    proc = subprocess.run(
        [
            sys.executable, "-m", "credal_cert", "geometry",
            str(paths["s"]), str(paths["t"]), "--anchors", str(paths["a"]),
            "--gamma", "0.5",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error:") and "overflow" in lines[0]


def test_commands_run_without_scipy():
    # numpy is the only runtime dependency: importing the CLI and running
    # certify and norm loads no scipy module (scipy is a test reference)
    code = f"""
import contextlib, io, sys
import credal_cert.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["certify", {SOURCE!r}, {LOSSES!r}, {TARGET!r}, {CONFIG!r}]),
        cli.main(["norm", {SOURCE!r}, {LOSSES!r}, "--gamma", "median"]),
    ]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


def test_bad_flags_exit_one(capsys):
    assert main(["certify", SOURCE, LOSSES, TARGET, CONFIG, "--seed", "-1"]) == 1
    assert main(["transmogrify"]) == 1
    assert main([]) == 1
    assert main(["certify"]) == 1


def test_monitor_matches_golden_fixture(tmp_path):
    out = tmp_path / "m.ndjson"
    assert main(["monitor", STREAM, SOURCE, LOSSES, CONFIG, "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_MONITOR.read_bytes()


def test_monitor_records_are_one_line_json(capsys):
    assert main(["monitor", STREAM, SOURCE, LOSSES, CONFIG]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    for seq, line in enumerate(lines):
        record = json.loads(line)
        assert record["batch_seq"] == seq
        assert record["gamma_source"] == "median_heuristic"
        assert record["tool_version"]
        assert "target_features_sha256" not in record
        assert record["source_features_sha256"]


def test_monitor_gamma_constant_across_batches(capsys):
    assert main(["monitor", STREAM, SOURCE, LOSSES, CONFIG]) == 0
    gammas = {
        json.loads(line)["gamma"]
        for line in capsys.readouterr().out.strip().splitlines()
    }
    assert len(gammas) == 1
    # source-only bandwidth: certify pools the target, so its gamma differs
    assert gammas.pop() == median_heuristic(read_features(SOURCE)).gamma


def test_monitor_error_record_keeps_stream_alive(tmp_path, capsys):
    src, lss, _ = write_inputs(tmp_path, rows=20)
    cfg = write_config(tmp_path, n_labeled=20)
    stream = tmp_path / "stream.txt"
    good = "\n".join(
        ",".join(repr(float(v)) for v in row)
        for row in np.random.default_rng(1).standard_normal((5, 2))
    )
    stream.write_text(good + "\n---\n1.0,oops\n---\n" + good + "\n")
    assert main(["monitor", str(stream), str(src), str(lss), str(cfg)]) == 0
    records = [
        json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert len(records) == 3
    assert "error" in records[1] and records[1]["batch_seq"] == 1
    assert "upper_risk" not in records[1]
    assert "upper_risk" in records[2]


def test_monitor_rejects_width_mismatch_per_batch(tmp_path, capsys):
    src, lss, _ = write_inputs(tmp_path, rows=10, cols=2)
    cfg = write_config(tmp_path, n_labeled=10)
    stream = tmp_path / "stream.txt"
    stream.write_text("1.0,2.0,3.0\n1.0,2.0,3.0\n")
    assert main(["monitor", str(stream), str(src), str(lss), str(cfg)]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert "error" in record


def test_monitor_single_row_batch_is_an_error_record(tmp_path, capsys):
    src, lss, _ = write_inputs(tmp_path, rows=10)
    cfg = write_config(tmp_path, n_labeled=10)
    stream = tmp_path / "stream.txt"
    stream.write_text("0.1,0.2\n")
    assert main(["monitor", str(stream), str(src), str(lss), str(cfg)]) == 0
    assert "error" in json.loads(capsys.readouterr().out.strip())


def test_monitor_window_pools_recent_batches(capsys):
    assert main(["monitor", STREAM, SOURCE, LOSSES, CONFIG, "--window", "2"]) == 0
    sizes = [
        json.loads(line)["n"]
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert sizes == [12, 24, 24, 24]


def _csv_block(rows):
    return "\n".join(",".join(repr(float(v)) for v in row) for row in rows)


def _monitor_parity_run(tmp_path, capsys, window):
    """Stream A, B, A, then C equal to the source rows; return the source,
    the batches, and the records."""
    src, lss, _ = write_inputs(tmp_path, rows=30)
    cfg = write_config(tmp_path, l_h="estimate")
    Xs = read_features(str(src))
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 2))
    b = 0.5 + rng.standard_normal((6, 2))
    batches = [a, b, a, Xs]
    stream = tmp_path / "stream.txt"
    stream.write_text("\n---\n".join(_csv_block(x) for x in batches) + "\n")
    argv = ["monitor", str(stream), str(src), str(lss), str(cfg)]
    if window is not None:
        argv += ["--window", str(window)]
    assert main(argv) == 0
    records = [
        json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
    ]
    return Xs, batches, records


@pytest.mark.parametrize("window", [None, 2])
def test_monitor_mmd2_matches_library_bitwise(tmp_path, capsys, window):
    Xs, batches, records = _monitor_parity_run(tmp_path, capsys, window)
    spec = median_heuristic(Xs)
    assert len(records) == 4
    for seq, record in enumerate(records):
        recent = batches[max(0, seq + 1 - (window or 1)) : seq + 1]
        pooled = np.vstack(recent)
        assert record["n"] == pooled.shape[0]
        assert record["mmd2"] == mmd2_unbiased(Xs, pooled, spec).mmd2


def test_monitor_repeated_batch_and_identical_sample(tmp_path, capsys, monkeypatch):
    cross_blocks = []

    def counting(X, Y, spec):
        cross_blocks.append((len(X), len(Y)))
        return gram_sum(X, Y, spec)

    monkeypatch.setattr(mmd_module, "gram_sum", counting)
    Xs, _, records = _monitor_parity_run(tmp_path, capsys, None)
    first, second = dict(records[0]), dict(records[2])
    assert (first.pop("batch_seq"), second.pop("batch_seq")) == (0, 2)
    assert first == second
    # batch C equals the source: the identical-sample shortcut builds no
    # cross block and uses the source self-Gram sum for all three blocks
    m = Xs.shape[0]
    assert cross_blocks == [(m, 6)] * 3
    s = float(np.sum(gram_matrix(Xs, None, median_heuristic(Xs))))
    shortcut = 2.0 * (s - m) / (m * (m - 1)) - 2.0 * s / (m * m)
    assert records[3]["mmd2"] == shortcut


def test_monitor_empty_stream_emits_nothing(tmp_path, capsys):
    src, lss, _ = write_inputs(tmp_path, rows=10)
    cfg = write_config(tmp_path, n_labeled=10)
    stream = tmp_path / "stream.txt"
    stream.write_text("\n---\n\n")
    assert main(["monitor", str(stream), str(src), str(lss), str(cfg)]) == 0
    assert capsys.readouterr().out == ""


def test_monitor_stdin_matches_file_input():
    cmd = [sys.executable, "-m", "credal_cert", "monitor", "-", SOURCE, LOSSES, CONFIG]
    with open(STREAM, "rb") as handle:
        piped = subprocess.run(cmd, stdin=handle, capture_output=True)
    assert piped.returncode == 0
    assert piped.stdout == GOLDEN_MONITOR.read_bytes()


def test_monitor_drift_raises_upper_risk(tmp_path, capsys):
    rng = np.random.default_rng(8)
    rows = 200
    src = tmp_path / "s.csv"
    src.write_text(
        "\n".join(
            ",".join(repr(float(v)) for v in row)
            for row in rng.standard_normal((rows, 2))
        )
        + "\n"
    )
    lss = tmp_path / "l.csv"
    lss.write_text("\n".join(["0.2"] * rows) + "\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "gamma": 0.5,
                "delta": 0.1,
                "kl": 1.0,
                "n_labeled": rows,
                "l_h": 1.0,
                "epsilon": 0.2,
            }
        )
    )
    # step the drift faster than the MMD sampling noise at n = 300
    batches = []
    for offset in np.linspace(0.0, 3.0, 10):
        batch = np.array([offset, 0.0]) + rng.standard_normal((300, 2))
        batches.append(
            "\n".join(",".join(repr(float(v)) for v in row) for row in batch)
        )
    stream = tmp_path / "stream.txt"
    stream.write_text("\n---\n".join(batches) + "\n")
    assert main(["monitor", str(stream), str(src), str(lss), str(cfg)]) == 0
    uppers = [
        json.loads(line)["upper_risk"]
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert len(uppers) == 10
    pairs = list(zip(uppers, uppers[1:]))
    nondecreasing = sum(1 for a, b in pairs if b >= a)
    assert nondecreasing / len(pairs) >= 0.8
    assert uppers[-1] > uppers[0] + 0.3


def test_simulate_cli_pass_and_report(tmp_path, capsys):
    payload = {
        "experiment": "unbiasedness",
        "trials": 300,
        "m": 25,
        "n": 25,
        "scenario": {
            "d": 2,
            "mean_s": 0.0,
            "mean_t": [0.5, 0.0],
            "var_s": 1.0,
            "var_t": 1.0,
            "gamma": 0.5,
        },
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    assert main(["simulate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "unbiasedness_z_score" in out
    assert out.strip().endswith("PASS")


def test_simulate_cli_failing_check_exits_three(tmp_path, capsys):
    # c_w = 0 kills the bound; tight clusters keep the quadratic slack tiny
    payload = {
        "experiment": "geometry",
        "trials": 5,
        "m": 60,
        "n": 60,
        "c_w": 0.0,
        "scenario": {
            "d": 2,
            "mean_s": 0.0,
            "mean_t": 0.0,
            "var_s": 1e-4,
            "var_t": 1e-4,
            "gamma": 0.5,
        },
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    assert main(["simulate", str(path)]) == 3
    assert capsys.readouterr().out.strip().endswith("FAIL")


def test_simulate_cli_zero_trials_exits_one(tmp_path, capsys):
    payload = {
        "experiment": "unbiasedness",
        "trials": 0,
        "scenario": {
            "d": 1,
            "mean_s": 0.0,
            "mean_t": 0.0,
            "var_s": 1.0,
            "var_t": 1.0,
            "gamma": 1.0,
        },
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    assert main(["simulate", str(path)]) == 1


def test_simulate_cli_negative_seed_exits_one(tmp_path, capsys):
    payload = {
        "experiment": "unbiasedness",
        "trials": 5,
        "seed": -1,
        "scenario": {
            "d": 1,
            "mean_s": 0.0,
            "mean_t": 0.0,
            "var_s": 1.0,
            "var_t": 1.0,
            "gamma": 1.0,
        },
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'seed'" in err


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"experiment": "coverage", "delta": "x"}, "delta: must be a number, got 'x'"),
        (
            {"experiment": "geometry", "m": 20, "n": 20, "c_w": "abc"},
            "c_w: must be a number, got 'abc'",
        ),
    ],
)
def test_simulate_cli_string_for_a_number_exits_one(tmp_path, capsys, extra, message):
    payload = {
        "trials": 3,
        "scenario": {
            "d": 1,
            "mean_s": 0.0,
            "mean_t": 0.0,
            "var_s": 1.0,
            "var_t": 1.0,
            "gamma": 1.0,
        },
        **extra,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_calibrate_cli_matches_library(capsys):
    assert main(
        [
            "calibrate", SOURCE, TARGET,
            "--gamma", "0.25", "--num-permutations", "150",
            "--alpha", "0.1", "--seed", "5",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    Xs = read_features(SOURCE)
    Xt = read_features(TARGET)
    spec = KernelSpec(gamma=0.25)
    result = permutation_calibrate(
        Xs, Xt, spec, num_permutations=150, alpha=0.1, seed=5
    )
    assert payload["epsilon_alpha"] == result.epsilon_alpha
    assert payload["p_value"] == result.p_value
    assert payload["mmd2"] == mmd2_unbiased(Xs, Xt, spec).mmd2
    assert payload["gamma"] == 0.25
    assert payload["seed"] == 5


def test_norm_cli_reports_estimate(capsys):
    assert main(["norm", SOURCE, LOSSES, "--gamma", "median"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma_source"] == "median_heuristic"
    assert payload["n_fit"] == 40
    assert payload["l_h"] > 0.0
    assert payload["residual_rms"] >= 0.0


def test_geometry_cli_with_labels_groups_classes(capsys):
    assert main(
        ["geometry", SOURCE, TARGET, "--anchors", ANCHORS, "--labels", LABELS]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    classes = payload["classes"]
    assert [c["class_label"] for c in classes] == ["rare", "common"]
    assert classes[0]["sample_count"] == 1


def test_geometry_cli_without_labels_lists_anchors(capsys):
    assert main(["geometry", SOURCE, TARGET, "--anchors", ANCHORS]) == 0
    payload = json.loads(capsys.readouterr().out)
    reports = payload["anchors"]
    assert [r["anchor_index"] for r in reports] == [0, 1, 2, 3]
    for r in reports:
        assert r["slack"] == r["rhs_bound"] - r["lhs_estimate"]


def test_geometry_matches_golden_fixture(tmp_path):
    out = tmp_path / "geometry.json"
    assert main(
        ["geometry", SOURCE, TARGET, "--anchors", ANCHORS, "--out", str(out)]
    ) == 0
    assert out.read_bytes() == GOLDEN_GEOMETRY.read_bytes()


def test_geometry_labels_matches_golden_fixture(tmp_path):
    out = tmp_path / "geometry_labels.json"
    argv = ["geometry", SOURCE, TARGET, "--anchors", ANCHORS, "--labels", LABELS]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_GEOMETRY_LABELS.read_bytes()


def test_geometry_cli_label_mismatch_exits_one(tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("a\nb\n")
    rc = main(
        ["geometry", SOURCE, TARGET, "--anchors", ANCHORS, "--labels", str(labels)]
    )
    assert rc == 1


def test_help_exits_zero():
    for cmd in ([], ["certify"], ["monitor"], ["simulate"]):
        proc = subprocess.run(
            [sys.executable, "-m", "credal_cert", *cmd, "--help"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert b"usage" in proc.stdout


def test_module_entry_no_args_exits_one():
    proc = subprocess.run(
        [sys.executable, "-m", "credal_cert"], capture_output=True
    )
    assert proc.returncode == 1
    assert b"error" in proc.stderr


def _simulate(tmp_path, capsys, payload):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    code = main(["simulate", str(path)])
    return code, capsys.readouterr()


def test_simulate_cli_string_delta_runs_like_the_number(tmp_path, capsys):
    payload = {
        "experiment": "coverage",
        "trials": 3,
        "n_labeled": 20,
        "mc_samples": 10000,
        "scenario": {
            "d": 1,
            "mean_s": 0.0,
            "mean_t": 0.5,
            "var_s": 1.0,
            "var_t": 1.0,
            "gamma": 1.0,
        },
    }
    number = _simulate(tmp_path, capsys, {**payload, "delta": 0.1})
    string = _simulate(tmp_path, capsys, {**payload, "delta": "0.1"})
    assert number[0] in (0, 3) and number[1].err == ""
    assert string == number


def test_simulate_cli_geometry_fractional_m_names_the_value(tmp_path, capsys):
    payload = {
        "experiment": "geometry",
        "trials": 2,
        "m": 1.5,
        "n": 20,
        "scenario": {
            "d": 1,
            "mean_s": 0.0,
            "mean_t": 0.0,
            "var_s": 1.0,
            "var_t": 1.0,
            "gamma": 1.0,
        },
    }
    code, captured = _simulate(tmp_path, capsys, payload)
    assert code == 1
    assert captured.err.startswith("error: ")
    assert "m: must be an integer, got 1.5" in captured.err


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([[30.7, 40]], "m: must be an integer, got 30.7"),
        ([[30, True]], "n: must be an integer, got True"),
        ([[30, 40], ["30", 40]], "m: must be an integer, got '30'"),
    ],
)
def test_simulate_cli_concentration_pair_sizes_name_the_value(
    tmp_path, capsys, pairs, message
):
    payload = {
        "experiment": "concentration",
        "trials": 3,
        "pairs": pairs,
        "scenario": {
            "d": 1,
            "mean_s": 0.0,
            "mean_t": 0.0,
            "var_s": 1.0,
            "var_t": 1.0,
            "gamma": 1.0,
        },
    }
    code, captured = _simulate(tmp_path, capsys, payload)
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


# Feature scales of the input sweep: distances that underflow to zero
# (1e-300, 1e-170) or to a subnormal median (1e-160), large but finite
# distances (1e150) and distances that overflow (1e154 and up). calibrate
# and norm skip 1e-160 and 1e154 to keep the sweep short.
SWEEP_SCALES = {
    "certify": [1e-300, 1e-170, 1e-160, 1e150, 1e154, 1e160, 1e200],
    "geometry": [1e-300, 1e-170, 1e-160, 1e150, 1e154, 1e160, 1e200],
    "monitor": [1e-300, 1e-170, 1e-160, 1e150, 1e154, 1e160, 1e200],
    "calibrate": [1e-300, 1e-170, 1e150, 1e160, 1e200],
    "norm": [1e-300, 1e-170, 1e150, 1e160, 1e200],
}
SWEEP_BANDWIDTHS = ["median", 0.5]

# Runs each argv of a JSON list through cli.main in one process and prints
# [exit code, stdout, stderr] per argv; an uncaught exception ends it with
# a traceback.
_SWEEP_RUNNER = """
import contextlib, io, json, sys
from credal_cert.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _sweep_argv(tmp_path, command, scale, bandwidth) -> list[str]:
    case = tmp_path / f"{scale:g}-{bandwidth}"
    case.mkdir()
    rng = np.random.default_rng(40)
    files = {
        "s.csv": scale * rng.standard_normal((40, 3)),
        "t.csv": scale * (0.25 + rng.standard_normal((30, 3))),
        "a.csv": scale * rng.standard_normal((5, 3)),
        "l.csv": rng.uniform(0.0, 1.0, (40, 1)),
    }
    for name, rows in files.items():
        text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        (case / name).write_text(text)
    (case / "stream.txt").write_text((case / "t.csv").read_text())
    config = {
        "gamma": bandwidth,
        "delta": 0.1,
        "kl": 1.5,
        "n_labeled": 40,
        "l_h": "estimate",
        "lambda": 1e-06,
        "r_max": 0.8,
        "alpha0": 0.1,
    }
    if command == "certify":
        config.update(epsilon="calibrate", num_permutations=100)
    (case / "config.json").write_text(json.dumps(config))
    s, t, a, l, cfg = (
        str(case / name) for name in ("s.csv", "t.csv", "a.csv", "l.csv", "config.json")
    )
    gamma = [] if bandwidth == "median" else ["--gamma", repr(bandwidth)]
    return {
        "certify": ["certify", s, l, t, cfg],
        "monitor": ["monitor", str(case / "stream.txt"), s, l, cfg],
        "geometry": ["geometry", s, t, "--anchors", a] + gamma,
        "calibrate": ["calibrate", s, t, "--num-permutations", "100"] + gamma,
        "norm": ["norm", s, l] + gamma,
    }[command]


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", sorted(SWEEP_SCALES))
def test_input_sweep_ends_in_strict_json_or_one_error_line(tmp_path, command):
    cases = [
        (scale, bandwidth)
        for scale in SWEEP_SCALES[command]
        for bandwidth in SWEEP_BANDWIDTHS
    ]
    argvs = [_sweep_argv(tmp_path, command, *case) for case in cases]
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_RUNNER, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for case, (code, out, err) in zip(cases, json.loads(proc.stdout)):
        if code == 0:
            lines = out.splitlines() if command == "monitor" else [out]
            assert lines, case
            for line in lines:
                _strict_json(line)
        else:
            assert code in (1, 2), case
            assert out == "", case
            assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
            assert "Traceback" not in err, case
