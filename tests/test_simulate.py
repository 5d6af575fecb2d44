"""Synthetic experiment harness: loader validation, runs, and reports."""

from __future__ import annotations

import json

import numpy as np
import pytest

from credal_cert import (
    ConcentrationExperiment,
    CoverageExperiment,
    CredalSpec,
    GeometryExperiment,
    InputError,
    KernelSpec,
    ShiftScenario,
    UnbiasednessExperiment,
    format_report,
    load_experiment,
)

SCENARIO_PAYLOAD = {
    "d": 2,
    "mean_s": 0.0,
    "mean_t": [0.5, 0.0],
    "var_s": 1.0,
    "var_t": 1.0,
    "gamma": 0.5,
}


def write_experiment(tmp_path, name="exp.json", **payload):
    body = {"experiment": "unbiasedness", "scenario": SCENARIO_PAYLOAD, "trials": 50}
    body.update(payload)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


def scenario(seed=0):
    return ShiftScenario(
        d=2,
        mean_s=np.zeros(2),
        mean_t=np.array([0.5, 0.0]),
        var_s=1.0,
        var_t=1.0,
        gamma=0.5,
        seed=seed,
    )


def test_loader_builds_experiment_with_scalar_mean_broadcast(tmp_path):
    exp = load_experiment(write_experiment(tmp_path))
    assert isinstance(exp, UnbiasednessExperiment)
    assert np.array_equal(exp.scenario.mean_s, np.zeros(2))
    assert exp.trials == 50


def test_loader_rejects_zero_trials(tmp_path):
    with pytest.raises(InputError, match="trials"):
        load_experiment(write_experiment(tmp_path, trials=0))
    with pytest.raises(InputError, match="trials"):
        load_experiment(write_experiment(tmp_path, trials=True))


def test_loader_rejects_unknown_experiment(tmp_path):
    with pytest.raises(InputError, match="experiment"):
        load_experiment(write_experiment(tmp_path, experiment="mystery"))


def test_loader_rejects_unknown_keys(tmp_path):
    with pytest.raises(InputError, match="unknown"):
        load_experiment(write_experiment(tmp_path, bogus=1))
    bad_scenario = dict(SCENARIO_PAYLOAD, extra=1)
    with pytest.raises(InputError, match="unknown"):
        load_experiment(write_experiment(tmp_path, scenario=bad_scenario))


def test_loader_rejects_options_for_other_experiments(tmp_path):
    with pytest.raises(InputError):
        load_experiment(write_experiment(tmp_path, pairs=[[10, 10]]))


def test_loader_seed_precedence(tmp_path):
    exp = load_experiment(write_experiment(tmp_path, seed=9), default_seed=4)
    assert exp.seed == 9
    exp = load_experiment(write_experiment(tmp_path), default_seed=4)
    assert exp.seed == 4


def test_loader_concentration_options(tmp_path):
    path = write_experiment(
        tmp_path,
        experiment="concentration",
        trials=10,
        pairs=[[10, 10], [20, 30]],
        alphas=[0.1],
    )
    exp = load_experiment(path)
    assert isinstance(exp, ConcentrationExperiment)
    assert exp.pairs == ((10, 10), (20, 30))
    assert exp.alphas == (0.1,)


@pytest.mark.parametrize(
    "experiment, key, value",
    [("coverage", "delta", "x"), ("geometry", "c_w", "abc")],
)
def test_string_for_a_number_is_input_error_at_run(tmp_path, experiment, key, value):
    # the loader passes numeric options through; they are checked in run()
    path = write_experiment(tmp_path, experiment=experiment, trials=3, **{key: value})
    with pytest.raises(InputError, match=f"{key}: must be a number, got '{value}'"):
        load_experiment(path).run()


def test_numeric_checks_reject_non_numbers_as_input_errors():
    with pytest.raises(InputError, match="gamma: must be a number"):
        KernelSpec(gamma="x")
    with pytest.raises(InputError, match="epsilon: must be a number"):
        CredalSpec(epsilon=None)


def test_unbiasedness_experiment_small_run():
    exp = UnbiasednessExperiment(scenario(), trials=400, m=30, n=30, seed=1)
    rows = exp.run()
    assert len(rows) == 1
    assert rows[0].name == "unbiasedness_z_score"
    assert rows[0].comparator == "<="
    assert rows[0].passed


def test_concentration_experiment_small_run():
    exp = ConcentrationExperiment(
        scenario(), trials=120, pairs=((25, 25),), alphas=(0.2,), seed=2
    )
    rows = exp.run()
    assert len(rows) == 1
    assert "deviation_rate" in rows[0].name
    assert rows[0].measured <= rows[0].threshold


def test_coverage_experiment_small_run():
    exp = CoverageExperiment(
        scenario(), trials=40, n_labeled=100, delta=0.1, mc_samples=10_000, seed=3
    )
    rows = exp.run()
    names = [r.name for r in rows]
    assert any("coverage" in n for n in names)
    assert all(r.passed for r in rows)


def test_geometry_experiment_small_run():
    exp = GeometryExperiment(scenario(), trials=20, m=120, n=120, seed=4)
    rows = exp.run()
    assert rows[0].name == "bound_holds_rate"
    assert rows[0].comparator == ">="
    assert rows[0].passed


def tight_cluster_scenario(seed=0):
    # identical tight clusters: lhs is sampling noise of order sigma/sqrt(m),
    # the quadratic slack is 0.05 * sigma**2, so c_w = 0 makes the check fail
    return ShiftScenario(
        d=2,
        mean_s=np.zeros(2),
        mean_t=np.zeros(2),
        var_s=1e-4,
        var_t=1e-4,
        gamma=0.5,
        seed=seed,
    )


def test_geometry_experiment_fails_with_zero_constant():
    exp = GeometryExperiment(
        tight_cluster_scenario(), trials=5, m=60, n=60, c_w=0.0, seed=5
    )
    rows = exp.run()
    assert not rows[0].passed


def test_format_report_lines_and_verdict():
    exp = UnbiasednessExperiment(scenario(), trials=200, m=20, n=20, seed=6)
    rows = exp.run()
    text = format_report(rows)
    lines = text.strip().splitlines()
    assert len(lines) == len(rows) + 1
    assert lines[0].startswith("unbiasedness_z_score")
    assert "measured=" in lines[0] and "threshold=" in lines[0]
    assert lines[0].endswith("PASS")
    assert lines[-1].startswith("RESULT")
    assert "1/1 checks passed" in lines[-1]
    assert lines[-1].endswith("PASS")


def test_format_report_marks_failures():
    exp = GeometryExperiment(
        tight_cluster_scenario(), trials=5, m=60, n=60, c_w=0.0, seed=7
    )
    text = format_report(exp.run())
    assert "FAIL" in text
    assert text.strip().splitlines()[-1].endswith("FAIL")
