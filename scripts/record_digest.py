#!/usr/bin/env python3
"""Print md5 digests of simulation records and command outputs.

Two checkouts whose digests are equal produce the same replication
records and the same files, so a change meant to keep every output
bitwise the same is checked by running this script in both and comparing
what it prints (``diff`` of the two outputs).  It digests:

- the records of replications 0 .. reps-1, run in blocks of
  ``BLOCK_SIZE`` as ``run_scenario`` runs them, each block's rows pickled
  as the per-replication dicts of ``run_replication``
  (``harness.block_records``), on the
  two scenarios of the ``perfbench`` grid at base seeds 1, 7 and 1000,
  on the c09 and c11 acceptance cells, on an invalid-retry cell
  (N = 10, sizes 2/8, 10% events, rho 0.7, seed 11) and on two cells with
  one treated cluster (N = 10, gamma 0.1, seed 15, sizes 4 and 2/6), whose
  (I - H) is singular in every replication, and on an AR(1) cell of sizes
  2/6 (N = 20, AR(1) truth and working structure, seed 12);
- ``results.csv`` and ``summary.json`` of ``pgee simulate`` on the
  ``perfbench`` grid at ``--workers 1`` and ``2``;
- the text and ``--json`` reports of ``pgee fit`` on the four CSVs of the
  ``fit-csv`` workload (seed 1), on the first of them with ``--corr ar1``
  and with ``--corr ind``, on three fits that stop early: at
  ``max_iter``, at ``beta_cap`` and with a singular information matrix,
  on a fit whose diagnostic is not computable (only cluster c0 has
  x1 = 1), and on an unpenalized AR(1) fit with estimated dispersion that
  stops at an alpha refresh whose information is ill-conditioned;
- the text and ``--json`` reports of ``pgee diagnose`` on the four
  ``fit-csv`` CSVs, with and without ``--treatment-col treat``, on the
  first of them with ``--corr ar1`` and with ``--corr ind``, on the CSV
  whose diagnostic is not computable (exit 2) and on the refresh stop;
- the CSV and the stdout of ``pgee generate`` with ``--n 4``, with
  ``--n 2/6 --structure ar1`` and with ``--model reduced``.

A change that moves results by roundoff cannot show equality by
digests.  ``--dump DIR`` writes the records (with each cell's calibrated
intercept) to ``DIR/records.pkl`` and the command outputs to
``DIR/outputs.json``; ``--against DIR`` compares this tree's with a dump
made by another tree.  Per record cell it prints the replications whose
converged, iterations, reason, invalid, computable or reject flipped and
the largest relative change of beta (relative to the replication's
largest coefficient) and of each estimator's SE, and it lists every
replication with an SE change above 1e-10 with its fit's 1 - max hat
eigenvalue and alpha.  Per output it prints whether it is byte-identical
and, if not, the largest relative change of each ``results.csv`` column,
every JSON number that moved by more than 1e-10 relative, and every line
of a text report that differs.

Run from the repository root:

    PYTHONPATH=src python3 scripts/record_digest.py [--reps 1024] [--sim-reps 200]
    PYTHONPATH=src python3 scripts/record_digest.py --dump /tmp/parent   # parent tree
    PYTHONPATH=src python3 scripts/record_digest.py --against /tmp/parent
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np

from pgee import (
    FitOptions, Scenario, ScenarioSpec, WorkingModel, fit_block, generate_dataset, write_csv,
)
from pgee.cli import main as pgee_main
from pgee.harness import (
    BLOCK_SIZE, block_records, calibrate_intercept, draw_block, parse_config, run_block,
)

#: SE changes above this (relative) are listed with the fit's leverage.
SE_TOL = 1e-10

#: Record fields whose every change is counted as a flip.
FLIP_FIELDS = ("converged", "iterations", "reason", "invalid")

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
    # one treated cluster carries all the information on treat, so (I - H)
    # is singular in every replication and the leverage estimators are flagged
    for name, pattern in (("one-treated", (4,)), ("one-treated-2/6", (2, 6))):
        cells[name] = ScenarioSpec(name, Scenario(
            n_clusters=10, n_pattern=pattern, gamma=0.1, seed=15))
    cells["ar1-2/6"] = ScenarioSpec("ar1-2/6", Scenario(
        n_clusters=20, n_pattern=(2, 6), true_structure="ar1", working_structure="ar1",
        seed=12))
    return cells


def record_cells(grid_config: str, reps: int) -> dict:
    """{cell name: (spec, intercept, records)}, printing each digest."""
    cells = {}
    for name, spec in _cells(grid_config).items():
        intercept = calibrate_intercept(spec.scenario)
        records = []
        for start in range(0, reps, BLOCK_SIZE):
            block = range(start, min(start + BLOCK_SIZE, reps))
            records += block_records(run_block(spec, block, intercept), block)
        print(f"records {name} reps={reps} {_md5(pickle.dumps(records, protocol=4))}")
        cells[name] = (spec, intercept, records)
    return cells


def _run(argv: list) -> tuple:
    """Exit code and stdout plus stderr of one pgee command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = pgee_main(argv)
    return code, out.getvalue()


def output_digests(grid_config: str, sim_reps: int, work: Path, outputs: dict) -> None:
    config = work / "grid.cfg"
    config.write_text(grid_config, encoding="utf-8")
    for workers in ("1", "2"):
        out_dir = work / f"out-w{workers}"
        code, _ = _run(["simulate", "--config", str(config), "--reps", str(sim_reps),
                        "--seed", "1", "--workers", workers, "--min-converged", "10",
                        "--out-dir", str(out_dir)])
        for name in ("results.csv", "summary.json"):
            label = f"simulate reps={sim_reps} workers={workers} {name}"
            if code == 0:
                text = (out_dir / name).read_text(encoding="utf-8")
                outputs[label] = (code, text)
                print(f"{label} {_md5(text.encode())}")
            else:
                outputs[label] = (code, "")
                print(f"{label} exit {code}")


def _fit_inputs(fit_csvs: int, work: Path) -> dict:
    """The fit cases by name: a CSV path and extra ``pgee fit`` flags."""
    cases = {}
    for k in range(fit_csvs):
        path = work / f"fit-{k}.csv"
        _run(["generate", "--N", "1000", "--n", "2/3/4/5/6/7/8", "--rate", "0.2",
              "--rho", "0.2", "--seed", str(100 + k), "--out", str(path)])
        cases[f"fit-csv-{k}"] = (path, [])
    for corr in ("ar1", "ind"):
        cases[f"fit-csv-0-{corr}"] = (cases["fit-csv-0"][0], ["--corr", corr])
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
    # unpenalized, alpha runs to the AR(1) clamp and the refresh of
    # iteration 30 leaves the information ill-conditioned
    scen = Scenario(n_clusters=10, event_rate=0.1, rho=0.2, working_structure="ar1", seed=0)
    data, y, _ = draw_block(scen, [8], calibrate_intercept(scen))
    refresh_stop = work / "refresh-stop.csv"
    write_csv(dataclasses.replace(data, y=y[0]), refresh_stop)
    cases["refresh_stop"] = (refresh_stop, ["--no-penalty", "--corr", "ar1", "--phi", "estimate"])
    return cases


def _digest(command: str, name: str, argv: list, outputs: dict) -> None:
    """Print the digest of the text and ``--json`` reports of one command."""
    for form in ([], ["--json"]):
        code, out = _run([command, *argv, *form])
        label = f"{command} {name} {'json' if form else 'text'}"
        outputs[label] = (code, out)
        print(f"{label} exit={code} {_md5(out.encode())}")


#: The ``pgee generate`` cases by name: their flags besides ``--out``.
GENERATE_CASES = {
    "n4": ["--N", "12", "--n", "4", "--rate", "0.3", "--seed", "3"],
    "2/6-ar1": ["--N", "15", "--n", "2/6", "--structure", "ar1", "--rho", "0.4", "--seed", "4"],
    "reduced": ["--N", "10", "--model", "reduced", "--beta1", "0.5", "--seed", "5"],
}


def generate_digests(work: Path, outputs: dict) -> None:
    """Print the digests of the CSV and the stdout of each generate case."""
    for name, flags in GENERATE_CASES.items():
        path = work / f"generate-{name.replace('/', 'x')}.csv"
        code, out = _run(["generate", *flags, "--out", str(path)])
        text = path.read_text(encoding="utf-8") if code == 0 else ""
        for form, value in (("csv", text), ("text", out)):
            label = f"generate {name} {form}"
            outputs[label] = (code, value)
            print(f"{label} exit={code} {_md5(value.encode())}")


def fit_digests(fit_csvs: int, work: Path, outputs: dict) -> None:
    cases = _fit_inputs(fit_csvs, work)
    for name, (path, flags) in cases.items():
        _digest("fit", name, [str(path), *flags], outputs)
    for name in [f"fit-csv-{k}" for k in range(fit_csvs)]:
        path = str(cases[name][0])
        _digest("diagnose", name, [path], outputs)
        _digest("diagnose", f"{name}-treat", [path, "--treatment-col", "treat"], outputs)
    for corr in ("ar1", "ind"):
        _digest("diagnose", f"fit-csv-0-{corr}", [str(cases["fit-csv-0"][0]), "--corr", corr],
                outputs)
    for name in ("singular_leverage", "refresh_stop"):
        path, flags = cases[name]
        _digest("diagnose", name, [str(path), *flags], outputs)


# ---------------------------------------------------------------- --against

def _rel(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 when both are equal."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _leverage_and_alpha(spec, intercept: float, rep: int) -> tuple:
    """1 - max hat eigenvalue (over clusters) and alpha of one replication's fit."""
    scen = spec.scenario
    design, y, _ = draw_block(scen, [rep], intercept)
    wm = WorkingModel(structure=scen.working_structure, alpha="estimate", dispersion=1.0)
    result = fit_block(design, y, wm, FitOptions())
    return float(1.0 - result.kernel.max_leverage.max()), float(result.alpha[0])


def compare_records(name: str, spec, intercept: float, records: list, old: tuple) -> None:
    old_intercept, old_records = old
    flips = dict.fromkeys([*FLIP_FIELDS, "computable", "reject"], 0)
    beta_change, se_change, listed, tests = 0.0, {}, {}, 0
    for rec, was in zip(records, old_records, strict=True):
        for key in FLIP_FIELDS:
            flips[key] += rec[key] != was[key]
        if not (rec["converged"] and was["converged"]):
            continue
        # relative to the largest coefficient: a coefficient near zero
        # (1e-15) is roundoff, and its own relative change says nothing
        scale = max(map(abs, rec["beta"] + was["beta"]))
        beta_change = max(beta_change, max(
            abs(a - b) for a, b in zip(rec["beta"], was["beta"])) / scale)
        for est, entry in rec["estimators"].items():
            prev = was["estimators"][est]
            if entry["computable"] != prev["computable"]:
                flips["computable"] += 1
                continue
            if not entry["computable"]:
                continue
            flips["reject"] += sum(a != b for a, b in zip(entry["reject"], prev["reject"]))
            tests += len(entry["reject"])
            change = max(map(_rel, entry["se"], prev["se"]))
            se_change[est] = max(se_change.get(est, 0.0), change)
            if change > SE_TOL:
                listed.setdefault(rec["rep"], {})[est] = change
    same = "identical" if intercept == old_intercept else f"{old_intercept!r} -> {intercept!r}"
    print(f"cell {name}: {len(records)} reps, intercept {same}; flips "
          + ", ".join(f"{k} {v}" for k, v in flips.items())
          + f" (of {tests} Wald tests); max rel change beta {beta_change:.2g}")
    print("  SE " + " ".join(f"{est} {c:.2g}" for est, c in se_change.items()))
    for rep, changes in sorted(listed.items()):
        gap, alpha = _leverage_and_alpha(spec, intercept, rep)
        print(f"  rep {rep}: 1 - max hat eigenvalue {gap:.2g}, alpha {alpha:.6f}; SE change "
              + " ".join(f"{est} {c:.2g}" for est, c in changes.items()))


def _numbers(label: str, text: str) -> dict:
    """{where: number} of one output: its CSV cells or JSON values."""
    if label.endswith("results.csv"):
        rows = list(csv.reader(io.StringIO(text)))
        values = {f"row {i} {col}": v for i, row in enumerate(rows[1:], 1)
                  for col, v in zip(rows[0], row)}
    elif label.endswith("json"):
        values, stack = {}, [("", json.loads(text))]
        while stack:
            where, node = stack.pop()
            if isinstance(node, dict):
                stack.extend((f"{where}/{k}", v) for k, v in node.items())
            elif isinstance(node, list):
                stack.extend((f"{where}/{i}", v) for i, v in enumerate(node))
            else:
                values[where] = node
    else:
        return {}
    out = {}
    for where, v in values.items():
        if isinstance(v, bool) or v is None:
            continue
        with contextlib.suppress(ValueError, TypeError):
            out[where] = float(v)
    return out


def compare_outputs(outputs: dict, old: dict) -> None:
    for label, (code, text) in outputs.items():
        old_code, old_text = old[label]
        if text == old_text and code == old_code:
            print(f"output {label}: byte-identical")
            continue
        print(f"output {label}: DIFFERS (exit {old_code} -> {code})")
        new_nums, old_nums = _numbers(label, text), _numbers(label, old_text)
        if new_nums.keys() != old_nums.keys():
            print("    the outputs hold different sets of numbers")
        elif label.endswith("results.csv"):
            # one line per column: its largest relative change
            changes: dict = {}
            for where in new_nums:
                col = where.split(" ", 2)[2]
                changes[col] = max(changes.get(col, 0.0), _rel(new_nums[where], old_nums[where]))
            print("    " + " ".join(f"{col} {c:.2g}" for col, c in changes.items()))
        elif new_nums:
            changes = {w: _rel(new_nums[w], old_nums[w]) for w in new_nums}
            print(f"    max rel change of a number {max(changes.values()):.2g}")
            for where, change in changes.items():
                if change > SE_TOL:
                    print(f"    {where}: {old_nums[where]!r} -> {new_nums[where]!r}")
        if label.endswith((" text", " csv")):
            for a, b in zip(old_text.splitlines(), text.splitlines()):
                if a != b:
                    print(f"    - {a}\n    + {b}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=1024, help="replications per record cell")
    parser.add_argument("--sim-reps", type=int, default=200,
                        help="replications per scenario of pgee simulate")
    parser.add_argument("--dump", type=Path, help="write the records and outputs here")
    parser.add_argument("--against", type=Path,
                        help="compare with the records and outputs that --dump wrote there")
    args = parser.parse_args(argv)
    bench = _perfbench()
    cells = record_cells(bench.GRID_CONFIG, args.reps)
    outputs: dict = {}
    # run in the scratch directory: ``fit --json`` reports the data path
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        output_digests(bench.GRID_CONFIG, args.sim_reps, Path(), outputs)
        fit_digests(bench.FIT_CSVS, Path(), outputs)
        generate_digests(Path(), outputs)
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
        with open(args.dump / "records.pkl", "wb") as fh:
            pickle.dump({name: cell[1:] for name, cell in cells.items()}, fh, protocol=4)
        (args.dump / "outputs.json").write_text(json.dumps(outputs, indent=1), encoding="utf-8")
    if args.against:
        # a dump this script wrote, from a checkout of this repository
        with open(args.against / "records.pkl", "rb") as fh:
            old_cells = pickle.load(fh)
        for name, (spec, intercept, records) in cells.items():
            compare_records(name, spec, intercept, records, old_cells[name])
        compare_outputs(outputs, json.loads(
            (args.against / "outputs.json").read_text(encoding="utf-8")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
