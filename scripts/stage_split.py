#!/usr/bin/env python3
"""Where one Monte Carlo replication spends its time, stage by stage.

``harness.run_block`` draws a block's responses (``draw_block``), fits them
in lockstep (``fit_block``), evaluates the estimators
(``estimator_table``, or ``estimate_all`` in trees that call it) and runs
the Wald tests.  This script wraps those names in ``pgee.harness``, and
``whiten_block`` and ``whitening_factors`` in ``pgee.fitting``, and runs
``run_block`` on the cells of the ``sim-small-null`` and
``sim-large-power`` workloads of ``perfbench/run.py``: blocks of one
replication (R = 1, as ``run_replication`` runs them) and blocks of 256
(R = 256, as ``run_scenario`` runs them).  Per cell and R it prints the median per
replication of each stage, "test" being the rest of ``run_block``, and
per ``fit_block`` call the mean Fisher iterations of a replication, the
``whiten_block`` calls, and the median time and mean calls of
``whitening_factors`` (the R(alpha) factors, part of "fit").

The ``fit-csv`` cell is what ``pgee fit`` does with a CSV of the
``fit-csv`` workload: one dataset of 1000 clusters of sizes 2..8 (20%
events, rho 0.2), drawn in-process at a fixed seed as ``pgee generate``
draws it and written once by ``data.write_csv`` to a temporary file.
Each fit reads that file with ``data.read_csv``, fits it by
``fitting.fit`` with the cli's default working model, then evaluates all
14 estimators by one ``variance.estimator_table`` on a fresh copy of the
fit's kernel.  It prints the medians of the read, the fit and the table,
the iterations and the ``whiten_block`` calls per fit, and the median ms
and mean calls of ``whitening_factors`` per fit.

Each checkout runs in a fresh interpreter with its own ``src`` on the
path; with several checkouts the runs alternate between them, so that a
drifting machine speed falls on both.  The header gives the BLAS thread
settings, the CPU count and the numpy version.

Run from the repository root:

    python3 scripts/stage_split.py --checkout . --checkout ../parent --rounds 5
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CELLS = ("sim-small-null", "sim-large-power")

#: Stages timed per replication or fit; "read" is the fit-csv cell's
#: ``read_csv``, "test" is what run_block spends outside draw, fit and
#: estimate, and "factors" (``whitening_factors``) is part of "fit".
STAGES = ("read", "draw", "fit", "estimate", "test", "run_block", "factors")

#: Names in pgee.harness wrapped for each stage.
WRAPPED = {"draw_block": "draw", "fit_block": "fit",
           "estimator_table": "estimate", "estimate_all": "estimate"}


def _sim_spec():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sim_spec


def fit_csv_cell(fits: int, seed: int, spent: dict, counts: dict) -> dict:
    """The fit-csv cell: {stage: [seconds per fit], ...}."""
    import tempfile
    from dataclasses import replace

    import pgee.fitting
    import pgee.harness as harness
    from pgee.data import EstimatorId, WorkingModel, read_csv, write_csv
    from pgee.datagen import Scenario
    from pgee.variance import estimator_table

    scen = Scenario(n_clusters=1000, n_pattern=tuple(range(2, 9)), event_rate=0.2, rho=0.2,
                    seed=100 * seed)
    design, y, _ = harness.draw_block(scen, [0], harness.calibrate_intercept(scen))
    wm = WorkingModel("exchangeable", "estimate", 1.0)
    rows = defaultdict(list)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fit.csv"
        write_csv(replace(design, y=y[0]), path)
        for _ in range(fits):
            spent.clear()
            counts.clear()
            t0 = time.perf_counter()
            data = read_csv(path)
            t1 = time.perf_counter()
            result = pgee.fitting.fit(data, wm)
            t2 = time.perf_counter()
            estimator_table(replace(result.kernel), list(EstimatorId))
            rows["read"].append(t1 - t0)
            rows["fit"].append(t2 - t1)
            rows["estimate"].append(time.perf_counter() - t2)
            rows["factors"].append(spent["factors"])
            rows["iterations"].append(float(result.iterations))
            rows["whiten_block"].append(float(counts["whiten"]))
            rows["factor_calls"].append(float(counts["factors"]))
    return dict(rows)


def worker(reps: int, blocks: int, fits: int, seed: int) -> dict:
    """Stage times of this interpreter's pgee: {"cell/R": {stage: [seconds
    per replication, one per run_block call], ...}}."""
    import pgee.fitting
    import pgee.harness as harness

    spent, counts = defaultdict(float), defaultdict(int)

    def wrap(module, name, key):
        original = getattr(module, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - t0
                counts[key] += 1
        setattr(module, name, timed)

    for name, stage in WRAPPED.items():
        if hasattr(harness, name):
            wrap(harness, name, stage)
    wrap(pgee.fitting, "whiten_block", "whiten")
    wrap(pgee.fitting, "whitening_factors", "factors")

    sim_spec = _sim_spec()
    out = {}
    for cell in CELLS:
        spec = sim_spec(cell, seed)
        intercept = harness.calibrate_intercept(spec.scenario)
        for size, n_calls in ((1, reps), (harness.BLOCK_SIZE, blocks)):
            rows = defaultdict(list)
            for k in range(n_calls):
                spent.clear()
                counts.clear()
                t0 = time.perf_counter()
                result = harness.run_block(spec, range(k * size, (k + 1) * size), intercept)
                total = time.perf_counter() - t0
                drawn = int((result.invalid < harness.MAX_ATTEMPTS).sum())
                rest = total - spent["draw"] - spent["fit"] - spent["estimate"]
                for stage, value in (("draw", spent["draw"]), ("fit", spent["fit"]),
                                     ("estimate", spent["estimate"]), ("test", rest),
                                     ("run_block", total), ("factors", spent["factors"])):
                    rows[stage].append(value / size)
                rows["iterations"].append(float(result.iterations.sum()) / max(drawn, 1))
                rows["whiten_block"].append(float(counts["whiten"]))
                rows["factor_calls"].append(float(counts["factors"]))
            out[f"{cell}/R={size}"] = dict(rows)
    out["fit-csv/R=1"] = fit_csv_cell(fits, seed, spent, counts)
    return out


def _environment() -> str:
    import numpy

    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return f"{threads} cpu_count={os.cpu_count()} numpy={numpy.__version__}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", action="append", type=Path)
    parser.add_argument("--reps", type=int, default=200,
                        help="blocks of one replication per cell and run")
    parser.add_argument("--blocks", type=int, default=4,
                        help="blocks of BLOCK_SIZE replications per cell and run")
    parser.add_argument("--fits", type=int, default=20, help="fit-csv fits per run")
    parser.add_argument("--rounds", type=int, default=3, help="runs per checkout")
    parser.add_argument("--seed", type=int, default=1, help="the perfbench scenario seed")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.reps, args.blocks, args.fits, args.seed)))
        return 0
    checkouts = [c.resolve() for c in (args.checkout or [ROOT])]
    samples = {c: defaultdict(lambda: defaultdict(list)) for c in checkouts}
    for turn in range(args.rounds):
        for c in (checkouts if turn % 2 == 0 else checkouts[::-1]):
            env = dict(os.environ, PYTHONPATH=str(c / "src"))
            argv = [sys.executable, __file__, "--worker", "--reps", str(args.reps),
                    "--blocks", str(args.blocks), "--fits", str(args.fits),
                    "--seed", str(args.seed)]
            run = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
            for key, rows in json.loads(run.stdout).items():
                for stage, values in rows.items():
                    samples[c][key][stage].extend(values)
    print(f"env: {_environment()}; {args.rounds} runs per checkout, "
          f"{args.reps} blocks of 1 and {args.blocks} of 256 per cell and run, "
          f"{args.fits} fit-csv fits per run (times per replication or per fit)")
    print(f"{'checkout':<28} {'cell/R':<24}" + "".join(f"{s + ' ms':>13}" for s in STAGES)
          + f"{'iterations':>12}{'whiten_block':>14}{'factor calls':>14}")
    for key in samples[checkouts[0]]:
        for c in checkouts:
            rows = samples[c][key]
            times = "".join(f"{1e3 * statistics.median(rows[s]):>13.3f}" if s in rows
                            else f"{'-':>13}" for s in STAGES)
            print(f"{str(c)[-28:]:<28} {key:<24}{times}"
                  f"{statistics.mean(rows['iterations']):>12.2f}"
                  f"{statistics.mean(rows['whiten_block']):>14.2f}"
                  f"{statistics.mean(rows['factor_calls']):>14.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
