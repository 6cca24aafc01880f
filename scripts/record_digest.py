#!/usr/bin/env python3
"""Print md5 digests of simulation records and command outputs.

Two checkouts whose digests are equal produce the same replication
records and the same files, so a change meant to keep every output
bitwise the same is checked by running this script in both and comparing
what it prints (``diff`` of the two outputs).  It digests:

- the pickled ``harness.run_block`` records of replications 0 .. reps-1,
  run in blocks of ``BLOCK_SIZE`` as ``run_scenario`` runs them, on the
  two scenarios of the ``perfbench`` grid at base seeds 1, 7 and 1000,
  on the c09 and c11 acceptance cells and on an invalid-retry cell
  (N = 10, sizes 2/8, 10% events, rho 0.7, seed 11);
- ``results.csv`` and ``summary.json`` of ``pgee simulate`` on the
  ``perfbench`` grid at ``--workers 1`` and ``2``;
- the text and ``--json`` reports of ``pgee fit`` on the four CSVs of the
  ``fit-csv`` workload (seed 1), on three fits that stop early: at
  ``max_iter``, at ``beta_cap`` and with a singular information matrix,
  and on a fit whose diagnostic is not computable (only cluster c0 has
  x1 = 1);
- the text and ``--json`` reports of ``pgee diagnose`` on the four
  ``fit-csv`` CSVs, with and without ``--treatment-col treat``, and on the
  CSV whose diagnostic is not computable (exit 2).

Run from the repository root:

    PYTHONPATH=src python3 scripts/record_digest.py [--reps 1024] [--sim-reps 200]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np

from pgee import Scenario, ScenarioSpec, generate_dataset, write_csv
from pgee.cli import main as pgee_main
from pgee.harness import BLOCK_SIZE, calibrate_intercept, parse_config, run_block

ROOT = Path(__file__).resolve().parents[1]


def _perfbench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _cells(grid_config: str) -> dict:
    """The record cells by name."""
    cells = {}
    for seed in (1, 7, 1000):
        for spec in parse_config(grid_config, base_seed=seed):
            cells[f"grid-{spec.id.split('-')[0]}-seed{seed}"] = spec
    cells["c09"] = ScenarioSpec("c09", Scenario(
        n_clusters=10, event_rate=0.1, rho=0.2, beta1=0.0, seed=20260808))
    cells["c11"] = ScenarioSpec("c11", Scenario(
        n_clusters=50, event_rate=0.2, rho=0.1, beta1=float(np.log(2)), seed=20260811))
    cells["retry"] = ScenarioSpec("retry", Scenario(
        n_clusters=10, n_pattern=(2, 8), event_rate=0.1, rho=0.7, seed=11))
    return cells


def record_digests(grid_config: str, reps: int) -> None:
    for name, spec in _cells(grid_config).items():
        intercept = calibrate_intercept(spec.scenario)
        records = []
        for start in range(0, reps, BLOCK_SIZE):
            records += run_block(spec, range(start, min(start + BLOCK_SIZE, reps)), intercept)
        print(f"records {name} reps={reps} {_md5(pickle.dumps(records, protocol=4))}")


def _run(argv: list) -> tuple:
    """Exit code and stdout plus stderr of one pgee command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = pgee_main(argv)
    return code, out.getvalue()


def output_digests(grid_config: str, sim_reps: int, work: Path) -> None:
    config = work / "grid.cfg"
    config.write_text(grid_config, encoding="utf-8")
    for workers in ("1", "2"):
        out_dir = work / f"out-w{workers}"
        code, _ = _run(["simulate", "--config", str(config), "--reps", str(sim_reps),
                        "--seed", "1", "--workers", workers, "--min-converged", "10",
                        "--out-dir", str(out_dir)])
        for name in ("results.csv", "summary.json"):
            digest = _md5((out_dir / name).read_bytes()) if code == 0 else f"exit {code}"
            print(f"simulate reps={sim_reps} workers={workers} {name} {digest}")


def _fit_inputs(fit_csvs: int, work: Path) -> dict:
    """The fit cases by name: a CSV path and extra ``pgee fit`` flags."""
    cases = {}
    for k in range(fit_csvs):
        path = work / f"fit-{k}.csv"
        _run(["generate", "--N", "1000", "--n", "2/3/4/5/6/7/8", "--rate", "0.2",
              "--rho", "0.2", "--seed", str(100 + k), "--out", str(path)])
        cases[f"fit-csv-{k}"] = (path, [])
    balanced = work / "balanced.csv"
    write_csv(generate_dataset(Scenario(n_clusters=10, event_rate=0.3, seed=5),
                               np.random.default_rng(5)), balanced)
    cases["max_iter"] = (balanced, ["--max-iter", "2"])
    separated = work / "separated.csv"
    separated.write_text("cluster,y,x1\n" + "".join(
        f"c{i},0,{float(i % 2)}\n" for i in range(10) for _ in range(2)))
    cases["beta_cap"] = (separated, ["--no-penalty", "--corr", "ind", "--alpha", "0",
                                     "--max-iter", "200"])
    # x2 is 1 only on some events: unpenalized, its coefficient runs off
    # until the information is ill-conditioned
    quasi = work / "quasi-separated.csv"
    quasi.write_text("cluster,y,x1,x2\n" + "".join(
        f"c{i},{int(y)},{float(j)},{float(y and i < 3)}\n"
        for i in range(10) for j in range(3)
        for y in [(i * 3 + j) % 3 == 0 or (i + j) % 4 == 0]))
    cases["singular_information"] = (quasi, ["--no-penalty", "--corr", "ind", "--alpha", "0"])
    # only c0 has x1 = 1: the other clusters carry no information on x1
    owned = work / "owned.csv"
    owned.write_text("cluster,y,x1\n" + "".join(
        f"c{i},{int((i + 2 * j) % 3 == 0)},{float(i == 0)}\n" for i in range(10) for j in range(2)))
    cases["singular_leverage"] = (owned, [])
    return cases


def _digest(command: str, name: str, argv: list) -> None:
    """Print the digest of the text and ``--json`` reports of one command."""
    for form in ([], ["--json"]):
        code, out = _run([command, *argv, *form])
        label = "json" if form else "text"
        print(f"{command} {name} {label} exit={code} {_md5(out.encode())}")


def fit_digests(fit_csvs: int, work: Path) -> None:
    cases = _fit_inputs(fit_csvs, work)
    for name, (path, flags) in cases.items():
        _digest("fit", name, [str(path), *flags])
    for name in [f"fit-csv-{k}" for k in range(fit_csvs)]:
        path = str(cases[name][0])
        _digest("diagnose", name, [path])
        _digest("diagnose", f"{name}-treat", [path, "--treatment-col", "treat"])
    _digest("diagnose", "singular_leverage", [str(cases["singular_leverage"][0])])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=1024, help="replications per record cell")
    parser.add_argument("--sim-reps", type=int, default=200,
                        help="replications per scenario of pgee simulate")
    args = parser.parse_args(argv)
    bench = _perfbench()
    record_digests(bench.GRID_CONFIG, args.reps)
    # run in the scratch directory: ``fit --json`` reports the data path
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        output_digests(bench.GRID_CONFIG, args.sim_reps, Path())
        fit_digests(bench.FIT_CSVS, Path())
    return 0


if __name__ == "__main__":
    sys.exit(main())
