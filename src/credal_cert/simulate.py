"""Synthetic validation experiments driven by the oracle scenarios.

Each experiment produces CheckRow records (measured value, threshold,
pass/fail); the CLI renders them as a table and the acceptance suite runs
the same code with its pinned parameters. Per-trial randomness derives from
SeedSequence children of the experiment seed, so runs parallelize and
reproduce regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .credal import CredalSpec, risk_interval
from .errors import InputError
from .geometry import geodesic_distortion
from .io import _load_json_object  # shared strict JSON-object loader
from .mmd import concentration_width, mmd2_unbiased
from .oracles import (
    KernelExpansion,
    ShiftScenario,
    analytic_mmd2,
    expansion_norm,
    expansion_value,
    sample_scenario,
    true_target_risk,
)
from .pac_bayes import PosteriorComplexity
from .validation import check_count, check_probability


@dataclass(frozen=True)
class CheckRow:
    """One pass/fail line of an experiment report."""

    name: str
    measured: float
    threshold: float
    comparator: str  # "<=" or ">="
    passed: bool


def _check(name: str, measured: float, comparator: str, threshold: float) -> CheckRow:
    if comparator == "<=":
        passed = measured <= threshold
    elif comparator == ">=":
        passed = measured >= threshold
    else:
        raise InputError(f"unknown comparator {comparator!r}")
    return CheckRow(
        name=name,
        measured=measured,
        threshold=threshold,
        comparator=comparator,
        passed=passed,
    )


def _trial_seeds(seed: int | np.random.SeedSequence, trials: int) -> list[int]:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return [int(c.generate_state(1, np.uint64)[0]) for c in seed.spawn(trials)]


@dataclass(frozen=True)
class UnbiasednessExperiment:
    """Mean of the unbiased estimator vs the closed-form squared MMD."""

    scenario: ShiftScenario
    trials: int = 2000
    m: int = 50
    n: int = 50
    seed: int = 0

    def run(self) -> list[CheckRow]:
        check_count(self.trials, "trials", minimum=2)
        target = analytic_mmd2(self.scenario)
        values = np.empty(self.trials)
        for i, s in enumerate(_trial_seeds(self.seed, self.trials)):
            Xs, Xt = sample_scenario(self.scenario.with_seed(s), self.m, self.n)
            values[i] = mmd2_unbiased(Xs, Xt, self.scenario.kernel_spec()).mmd2
        se = float(np.std(values, ddof=1)) / math.sqrt(self.trials)
        z = abs(float(np.mean(values)) - target) / se
        return [_check("unbiasedness_z_score", z, "<=", 3.0)]


@dataclass(frozen=True)
class ConcentrationExperiment:
    """Deviation frequency of the estimate vs the concentration width."""

    scenario: ShiftScenario
    trials: int = 1000
    pairs: tuple[tuple[int, int], ...] = ((50, 50), (100, 200))
    alphas: tuple[float, ...] = (0.05, 0.2)
    seed: int = 0

    def run(self) -> list[CheckRow]:
        trials = check_count(self.trials, "trials")
        alphas = [check_probability(a, "alpha") for a in self.alphas]
        pairs = [(check_count(m, "m"), check_count(n, "n")) for m, n in self.pairs]
        target = math.sqrt(analytic_mmd2(self.scenario))
        rows = []
        for m, n in pairs:
            deviations = np.empty(trials)
            for i, s in enumerate(_trial_seeds(self.seed, trials)):
                Xs, Xt = sample_scenario(self.scenario.with_seed(s), m, n)
                est = mmd2_unbiased(Xs, Xt, self.scenario.kernel_spec())
                deviations[i] = abs(est.mmd - target)
            for alpha in alphas:
                width = concentration_width(m, n, alpha)
                freq = float(np.mean(deviations > width))
                rows.append(
                    _check(
                        f"deviation_rate_m{m}_n{n}_alpha{alpha:g}",
                        freq,
                        "<=",
                        alpha,
                    )
                )
        return rows


@dataclass(frozen=True)
class CoverageExperiment:
    """Shift-penalized upper bound vs the true target risk of an explicit
    kernel-expansion loss (exact norm, Monte-Carlo target risk)."""

    scenario: ShiftScenario
    trials: int = 500
    n_labeled: int = 200
    delta: float = 0.1
    expansion_size: int = 12
    mc_samples: int = 200_000
    seed: int = 0

    def run(self) -> list[CheckRow]:
        trials = check_count(self.trials, "trials")
        delta = check_probability(self.delta, "delta")
        expansion_size = check_count(self.expansion_size, "expansion_size")
        root = np.random.SeedSequence(self.seed)
        expansion_seed, risk_seed, trial_root = root.spawn(3)
        rng = np.random.Generator(np.random.PCG64(expansion_seed))
        spread = math.sqrt(max(self.scenario.var_s, self.scenario.var_t)) * 1.5
        mid = 0.5 * (self.scenario.mean_s + self.scenario.mean_t)
        centers = mid + spread * rng.standard_normal((expansion_size, self.scenario.d))
        weights = rng.uniform(0.0, 1.0 / expansion_size, expansion_size)
        expansion = KernelExpansion(centers=centers, weights=weights)
        kernel = self.scenario.kernel_spec()
        l_h = expansion_norm(expansion, kernel)
        true_risk, risk_se = true_target_risk(
            self.scenario,
            expansion,
            self.mc_samples,
            int(risk_seed.generate_state(1, np.uint64)[0]),
        )
        ball = CredalSpec(epsilon=math.sqrt(analytic_mmd2(self.scenario)))
        complexity = PosteriorComplexity(
            kl=0.0, n_labeled=self.n_labeled, delta=delta
        )
        covered = 0
        for s in _trial_seeds(trial_root, trials):
            scenario = self.scenario.with_seed(s)
            Xs, _ = sample_scenario(scenario, self.n_labeled, 1)
            emp = float(np.mean(expansion_value(expansion, Xs, kernel)))
            if risk_interval(emp, complexity, l_h, ball).upper >= true_risk:
                covered += 1
        rate = covered / trials
        return [
            _check("coverage_rate", rate, ">=", 1.0 - delta),
            _check("target_risk_mc_se", risk_se, "<=", 1e-3),
        ]


@dataclass(frozen=True)
class GeometryExperiment:
    """Linearized distortion vs the MMD bound with its quadratic remainder."""

    scenario: ShiftScenario
    trials: int = 100
    m: int = 500
    n: int = 500
    c_w: float = 1.0
    remainder_coef: float = 0.05
    seed: int = 0

    def run(self) -> list[CheckRow]:
        trials = check_count(self.trials, "trials")
        m = check_count(self.m, "m")
        n = check_count(self.n, "n")
        kernel = self.scenario.kernel_spec()
        holds = 0
        for s in _trial_seeds(self.seed, trials):
            scenario = self.scenario.with_seed(s)
            Xs, Xt = sample_scenario(scenario, m + 1, n)
            report = geodesic_distortion(Xs[:1], Xs[1:], Xt, kernel, self.c_w)[0]
            tolerance = self.remainder_coef * report.epsilon_bar**2
            if report.lhs_estimate <= report.rhs_bound + tolerance:
                holds += 1
        rate = holds / trials
        return [_check("bound_holds_rate", rate, ">=", 0.95)]


_EXPERIMENTS = {
    "coverage": CoverageExperiment,
    "unbiasedness": UnbiasednessExperiment,
    "concentration": ConcentrationExperiment,
    "geometry": GeometryExperiment,
}

_SCENARIO_KEYS = {"d", "mean_s", "mean_t", "var_s", "var_t", "gamma"}

_EXPERIMENT_KEYS = {
    "coverage": {"n_labeled", "delta", "expansion_size", "mc_samples"},
    "unbiasedness": {"m", "n"},
    "concentration": {"pairs", "alphas"},
    "geometry": {"m", "n", "c_w"},
}


def _mean_vector(value, d: int, key: str, origin: str) -> np.ndarray:
    # scalar means broadcast across all d coordinates
    if isinstance(value, bool):
        raise InputError(f"{origin}: scenario key {key!r} must be numeric")
    if isinstance(value, (int, float)):
        return np.full(d, float(value))
    try:
        return np.asarray([float(v) for v in value], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(
            f"{origin}: scenario key {key!r} must be a number or a list of numbers"
        ) from exc


def _scenario_from_payload(payload: dict, origin: str, seed: int) -> ShiftScenario:
    if not isinstance(payload, dict):
        raise InputError(f"{origin}: 'scenario' must be an object")
    unknown = sorted(set(payload) - _SCENARIO_KEYS)
    if unknown:
        raise InputError(f"{origin}: unknown scenario keys: {', '.join(unknown)}")
    missing = sorted(_SCENARIO_KEYS - set(payload))
    if missing:
        raise InputError(f"{origin}: missing scenario keys: {', '.join(missing)}")
    d = payload["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise InputError(f"{origin}: scenario key 'd' must be a positive integer")
    try:
        return ShiftScenario(
            d=d,
            mean_s=_mean_vector(payload["mean_s"], d, "mean_s", origin),
            mean_t=_mean_vector(payload["mean_t"], d, "mean_t", origin),
            var_s=payload["var_s"],
            var_t=payload["var_t"],
            gamma=payload["gamma"],
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{origin}: invalid scenario: {exc}") from exc


def load_experiment(path, default_seed: int = 0):
    """Build an experiment object from a simulate config file."""
    from pathlib import Path

    path = Path(path)
    payload = _load_json_object(path)
    origin = str(path)
    if "experiment" not in payload:
        raise InputError(f"{origin}: missing key 'experiment'")
    name = payload["experiment"]
    if name not in _EXPERIMENTS:
        raise InputError(
            f"{origin}: unknown experiment {name!r}; "
            f"choose from {sorted(_EXPERIMENTS)}"
        )
    allowed = {"experiment", "trials", "seed", "scenario"} | _EXPERIMENT_KEYS[name]
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise InputError(f"{origin}: unknown keys: {', '.join(unknown)}")
    if "trials" not in payload:
        raise InputError(f"{origin}: missing key 'trials'")
    trials = payload["trials"]
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise InputError(f"{origin}: 'trials' must be a positive integer")
    seed = payload.get("seed", default_seed)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise InputError(f"{origin}: 'seed' must be a nonnegative integer")
    if "scenario" not in payload:
        raise InputError(f"{origin}: missing key 'scenario'")
    scenario = _scenario_from_payload(payload["scenario"], origin, seed)

    kwargs: dict = {"scenario": scenario, "trials": trials, "seed": seed}
    for key in _EXPERIMENT_KEYS[name]:
        if key in payload:
            value = payload[key]
            if key == "pairs":
                try:
                    value = tuple((a, b) for a, b in value)
                except (TypeError, ValueError) as exc:
                    raise InputError(
                        f"{origin}: 'pairs' must be a list of [m, n] pairs"
                    ) from exc
            elif key == "alphas":
                try:
                    value = tuple(float(a) for a in value)
                except (TypeError, ValueError) as exc:
                    raise InputError(
                        f"{origin}: 'alphas' must be a list of numbers"
                    ) from exc
            kwargs[key] = value
    try:
        return _EXPERIMENTS[name](**kwargs)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{origin}: invalid experiment parameters: {exc}") from exc


def format_report(rows: list[CheckRow]) -> str:
    """Render check rows as the simulate report table."""
    lines = []
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        lines.append(
            f"{row.name:<40} measured={row.measured:.6g} "
            f"{row.comparator} threshold={row.threshold:.6g}  {status}"
        )
    failed = sum(1 for r in rows if not r.passed)
    lines.append(
        f"{'RESULT':<40} {len(rows) - failed}/{len(rows)} checks passed  "
        + ("PASS" if failed == 0 else "FAIL")
    )
    return "\n".join(lines) + "\n"
