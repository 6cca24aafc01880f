#!/usr/bin/env python3
"""Re-score the c09 acceptance cell under several Wald reference distributions.

The c09 cell (N = 10 clusters of 4, 10% events, rho = 0.2, exchangeable
truth and working model, beta1 = 0, seed 20260808, B = 1000) is run
through the simulation harness exactly as ``tests/test_acceptance.py``
runs it.  Each converged replication's LZ, KC and AR Wald statistics
``beta1 / se`` are then referred to t(7) (the package's t(N - p)), t(8),
t(9) and the standard normal, and the two-sided 5% rejection rates are
printed as a Markdown table.  Nothing here changes the package's test.

Run from the repository root:

    PYTHONPATH=src python3 scripts/c09_reference.py
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, stdtr

from pgee import EstimatorId, Scenario, ScenarioSpec
from pgee.harness import BLOCK_SIZE, TEST_LEVEL, run_block

REPS = 1000
TAGS = ("LZ", "KC", "AR")
REFERENCES = {
    "t(7)": lambda t: 2.0 * stdtr(7, -abs(t)),
    "t(8)": lambda t: 2.0 * stdtr(8, -abs(t)),
    "t(9)": lambda t: 2.0 * stdtr(9, -abs(t)),
    "z": lambda t: 2.0 * ndtr(-abs(t)),
}


def main() -> None:
    scenario = Scenario(
        n_clusters=10, n_pattern=(4,), event_rate=0.1, rho=0.2,
        true_structure="exchangeable", working_structure="exchangeable",
        beta1=0.0, beta2=0.2, seed=20260808,
    )
    spec = ScenarioSpec(id="c09", scenario=scenario)
    estimators = [EstimatorId[t] for t in TAGS]
    blocks = [run_block(spec, range(start, min(start + BLOCK_SIZE, REPS)), estimators=estimators)
              for start in range(0, REPS, BLOCK_SIZE)]
    conv = np.concatenate([b.converged for b in blocks])
    beta1 = np.concatenate([b.beta[:, 1] for b in blocks])[conv]
    se = np.concatenate([b.se[:, :, 0] for b in blocks])[conv]  # (converged, estimators)
    print(f"c09: {conv.sum()} of {REPS} replications converged; mean beta1 "
          f"{beta1.mean():.3f} (MC SE {beta1.std(ddof=1) / math.sqrt(beta1.size):.3f})")
    print()
    print("| reference | " + " | ".join(TAGS) + " |")
    print("| --- |" + " --- |" * len(TAGS))
    for name, p_value in REFERENCES.items():
        # an SE is NaN where its estimator is not computable
        rates = [np.mean(p_value(stats[~np.isnan(stats)]) < TEST_LEVEL)
                 for stats in (beta1[:, None] / se).T]
        print(f"| {name} | " + " | ".join(f"{x:.3f}" for x in rates) + " |")


if __name__ == "__main__":
    main()
