"""Config loading, CSV parsing, digests, and serialization round-trips."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from credal_cert import (
    InputError,
    NumericalError,
    ParseError,
    certificate_text,
    file_digest,
    kl_diag_gaussians,
    load_config,
    parse_feature_rows,
    read_features,
    read_labels,
    read_losses,
    record_text,
)

BASE_CONFIG = {
    "gamma": "median",
    "delta": 0.1,
    "kl": 1.5,
    "n_labeled": 40,
    "l_h": 1.0,
}


def write_config(tmp_path, name="config.json", **overrides):
    payload = dict(BASE_CONFIG)
    payload.update(overrides)
    for key, value in list(payload.items()):
        if value is None:
            del payload[key]
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.gamma is None
    assert cfg.delta == 0.1
    assert cfg.kl == 1.5
    assert cfg.n_labeled == 40
    assert cfg.l_h == 1.0
    assert cfg.ridge_lambda is None
    assert cfg.c_w == 1.0
    assert cfg.r_max is None
    assert cfg.alpha0 is None
    assert cfg.epsilon is None
    assert not cfg.calibrate
    assert cfg.num_permutations == 1000
    assert cfg.alpha == 0.05
    assert cfg.seed is None


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(InputError, match="unknown keys"):
        load_config(write_config(tmp_path, typo=1))


def test_config_rejects_missing_required_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"gamma": 1.0}))
    with pytest.raises(InputError, match="missing required keys"):
        load_config(path)


def test_config_gamma_rules(tmp_path):
    assert load_config(write_config(tmp_path, gamma=0.5)).gamma == 0.5
    with pytest.raises(InputError, match="gamma"):
        load_config(write_config(tmp_path, gamma=0.0))
    with pytest.raises(InputError, match="gamma"):
        load_config(write_config(tmp_path, gamma="auto"))


def test_config_delta_range(tmp_path):
    assert load_config(write_config(tmp_path, delta=0.49)).delta == 0.49
    for bad in (0.0, 0.5, 0.9):
        with pytest.raises(InputError, match="delta"):
            load_config(write_config(tmp_path, delta=bad))


def test_config_kl_from_file(tmp_path):
    aux = tmp_path / "posterior.json"
    aux.write_text(
        json.dumps(
            {
                "posterior": {"mean": [1.0], "var": [1.0]},
                "prior": {"mean": [0.0], "var": [1.0]},
            }
        )
    )
    cfg = load_config(write_config(tmp_path, kl="posterior.json"))
    assert cfg.kl == kl_diag_gaussians([1.0], [1.0], [0.0], [1.0]) == 0.5


def test_config_kl_file_validation(tmp_path):
    aux = tmp_path / "posterior.json"
    aux.write_text(json.dumps({"posterior": {"mean": [0.0], "var": [1.0]}}))
    with pytest.raises(InputError, match="missing section"):
        load_config(write_config(tmp_path, kl="posterior.json"))
    with pytest.raises(InputError):
        load_config(write_config(tmp_path, kl="absent.json"))
    with pytest.raises(InputError, match="kl"):
        load_config(write_config(tmp_path, kl=-0.5))


def test_config_l_h_and_lambda_rules(tmp_path):
    cfg = load_config(write_config(tmp_path, l_h="estimate", **{"lambda": 1e-6}))
    assert cfg.l_h is None
    assert cfg.ridge_lambda == 1e-6
    with pytest.raises(InputError, match="lambda"):
        load_config(write_config(tmp_path, l_h=1.0, **{"lambda": 1e-6}))
    with pytest.raises(InputError, match="lambda"):
        load_config(write_config(tmp_path, l_h="estimate", **{"lambda": 0.0}))
    with pytest.raises(InputError, match="l_h"):
        load_config(write_config(tmp_path, l_h=-1.0))


def test_config_calibration_companions(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path, epsilon="calibrate", num_permutations=250, alpha=0.1, seed=3
        )
    )
    assert cfg.calibrate and cfg.epsilon is None
    assert (cfg.num_permutations, cfg.alpha, cfg.seed) == (250, 0.1, 3)
    for key in ("num_permutations", "alpha", "seed"):
        with pytest.raises(InputError, match=key):
            load_config(write_config(tmp_path, epsilon=0.2, **{key: 3}))
    with pytest.raises(InputError, match="num_permutations"):
        load_config(
            write_config(tmp_path, epsilon="calibrate", num_permutations=50)
        )
    with pytest.raises(InputError, match="seed"):
        load_config(write_config(tmp_path, epsilon="calibrate", seed=-1))
    with pytest.raises(InputError, match="seed"):
        load_config(write_config(tmp_path, epsilon="calibrate", seed=True))


def test_config_epsilon_rules(tmp_path):
    assert load_config(write_config(tmp_path, epsilon=0.0)).epsilon == 0.0
    with pytest.raises(InputError, match="epsilon"):
        load_config(write_config(tmp_path, epsilon=-0.1))


def test_config_alpha0_range(tmp_path):
    assert load_config(write_config(tmp_path, alpha0=0.05)).alpha0 == 0.05
    with pytest.raises(InputError, match="alpha0"):
        load_config(write_config(tmp_path, alpha0=1.0))


def test_config_rejects_non_object_payload(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1, 2]")
    with pytest.raises(InputError):
        load_config(path)
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_config(path)


def test_feature_parsing_header_autodetect(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("f0,f1\n1.0,2.0\n3.0,4.0\n")
    X = read_features(path)
    assert np.array_equal(X, np.array([[1.0, 2.0], [3.0, 4.0]]))
    path.write_text("1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(read_features(path), X)


def test_feature_parsing_errors_name_file_and_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match=r"x\.csv: line 2"):
        read_features(path)
    path.write_text("1.0,2.0\n\n3.0,4.0\n")
    with pytest.raises(ParseError, match="line 2"):
        read_features(path)
    path.write_text("1.0,nan\n")
    with pytest.raises(ParseError, match="line 1"):
        read_features(path)
    path.write_text("")
    with pytest.raises(ParseError):
        read_features(path)
    with pytest.raises(ParseError):
        read_features(tmp_path / "missing.csv")


@pytest.mark.parametrize(
    "later_line, later_error",
    [
        ("1.0", "expected 2 columns"),
        ("", "empty row"),
        ("1.0,oops", "could not parse"),
        ("1.0,-inf", "non-finite value in column 2"),
    ],
)
def test_feature_parsing_reports_the_earliest_error(later_line, later_error):
    # line 3 holds a non-finite value, line 5 another fault
    lines = ["x,y", "1.0,2.0", "3.0,nan", "5.0,6.0", later_line]
    numbered = list(enumerate(lines, start=1))
    with pytest.raises(
        ParseError, match=r"^f: line 3: non-finite value in column 2$"
    ):
        parse_feature_rows(numbered, "f")
    with pytest.raises(ParseError, match=f"^f: line 5: {later_error}"):
        parse_feature_rows([(n, s.replace("nan", "4.0")) for n, s in numbered], "f")


def test_feature_parsing_reports_first_non_finite_column():
    with pytest.raises(ParseError, match="line 2: non-finite value in column 1$"):
        parse_feature_rows([(1, "1.0,2.0,3.0"), (2, "inf,2.0,nan")], "f")


def test_losses_must_be_single_column(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("loss\n0.25\n1.0\n0.0\n")
    losses = read_losses(path)
    assert np.array_equal(losses, np.array([0.25, 1.0, 0.0]))
    # losses are not clamped or range-checked; any finite value is accepted
    path.write_text("loss\n1.25\n-0.5\n")
    assert np.array_equal(read_losses(path), np.array([1.25, -0.5]))
    path.write_text("0.25,0.5\n")
    with pytest.raises(ParseError, match="line 1"):
        read_losses(path)
    path.write_text("loss\ninf\n")
    with pytest.raises(ParseError):
        read_losses(path)


def test_labels_reader(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("a\nb\na\n")
    assert read_labels(path) == ["a", "b", "a"]
    path.write_text("")
    with pytest.raises(ParseError):
        read_labels(path)


def test_parse_feature_rows_reports_origin():
    # a lone unparsable first row reads as a header, so lead with data
    with pytest.raises(ParseError, match="stream batch 2: line 7"):
        parse_feature_rows([(6, "1.0,2.0"), (7, "1.0,oops")], "stream batch 2")


def test_file_digest_is_sha256(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"abc123")
    assert file_digest(path) == hashlib.sha256(b"abc123").hexdigest()


def test_serialization_round_trips_full_precision():
    cert = {
        "gamma": 0.10279002309044272,
        "upper_risk": 2.1011475005841413,
        "m": 40,
        "verdict": "AdaptationWarranted",
        "p": 1.0 / 3.0,
    }
    for text in (certificate_text(cert), record_text(cert)):
        parsed = json.loads(text)
        assert parsed == cert
        assert parsed["p"] == cert["p"]
        assert text.endswith("\n")
    assert "\n" not in record_text(cert).rstrip("\n")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_serialization_rejects_non_finite_values(value):
    # NaN and Infinity are not JSON; a computation that left one is an error
    cert = {"mmd2": value, "nested": {"ok": 1.0}}
    for text_of in (certificate_text, record_text):
        with pytest.raises(NumericalError, match="not finite"):
            text_of(cert)
