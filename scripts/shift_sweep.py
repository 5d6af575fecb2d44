"""Sweep the target mean offset and watch the certificate degrade.

For each offset the script samples a synthetic Gaussian pair, estimates the
shift, and prints the resulting risk interval next to the analytic MMD, so
you can see where the verdict flips from NoAdaptationNeeded to
AdaptationWarranted to AdaptationFutile.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from credal_cert import (
    CredalSpec,
    PosteriorComplexity,
    RadiusSource,
    ShiftScenario,
    analytic_mmd2,
    decide_adaptation,
    mmd2_unbiased,
    mmd_upper_confidence,
    risk_interval,
    sample_scenario,
)


@dataclass(frozen=True)
class SweepConfig:
    d: int = 2
    m: int = 400
    n: int = 400
    gamma: float = 0.5
    emp_risk: float = 0.12
    kl: float = 2.0
    n_labeled: int = 400
    delta: float = 0.05
    l_h: float = 1.0
    r_max: float = 0.6
    seed: int = 0


def sweep(cfg: SweepConfig, offsets: np.ndarray) -> list[dict]:
    c = PosteriorComplexity(kl=cfg.kl, n_labeled=cfg.n_labeled, delta=cfg.delta)
    rows = []
    for i, offset in enumerate(offsets):
        mean_t = np.zeros(cfg.d)
        mean_t[0] = offset
        scen = ShiftScenario(
            d=cfg.d,
            mean_s=np.zeros(cfg.d),
            mean_t=mean_t,
            var_s=1.0,
            var_t=1.0,
            gamma=cfg.gamma,
            seed=cfg.seed + i,
        )
        Xs, Xt = sample_scenario(scen, cfg.m, cfg.n)
        est = mmd2_unbiased(Xs, Xt, scen.kernel_spec())
        eps = mmd_upper_confidence(est, cfg.delta)
        spec = CredalSpec(epsilon=eps, radius_source=RadiusSource.UPPER_CONFIDENCE)
        interval = risk_interval(cfg.emp_risk, c, cfg.l_h, spec)
        rows.append(
            {
                "offset": float(offset),
                "analytic_mmd": math.sqrt(analytic_mmd2(scen)),
                "mmd_hat": est.mmd,
                "epsilon": eps,
                "upper": interval.upper,
                "verdict": decide_adaptation(interval, cfg.r_max).value,
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-offset", type=float, default=3.0)
    parser.add_argument("--steps", type=int, default=13)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    cfg = SweepConfig(seed=args.seed)
    offsets = np.linspace(0.0, args.max_offset, args.steps)
    rows = sweep(cfg, offsets)
    print(
        f"{'offset':>7} {'mmd_true':>9} {'mmd_hat':>9} {'epsilon':>9} "
        f"{'upper':>9} verdict"
    )
    for r in rows:
        print(
            f"{r['offset']:7.3f} {r['analytic_mmd']:9.4f} {r['mmd_hat']:9.4f} "
            f"{r['epsilon']:9.4f} {r['upper']:9.4f} {r['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
