#!/usr/bin/env python3
"""pgee benchmark: replication latency, `pgee simulate` and `pgee fit`.

Run from the repository root:

    python3 perfbench/run.py --workload sim-small-null --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --repeat 10 --seed 1 --seconds 20

One run builds the workload's inputs from ``--seed``, runs operations in
a closed loop for ``--seconds`` (whole rounds, at least a fixed count),
checks a fixed sample of the outputs against the dense reference in
``reference.py``, prints a record of the run and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, each time scaled to the reference machine speed
(see ``calibrate``); ``--trace 1`` installs the span wrappers of
``spans.py`` and reports the per-layer metrics instead.  ``--repeat k``
runs each workload k times on seeds seed, seed+1, ... in fresh processes
and prints median, quartiles and spread of every end-to-end metric next
to its bound in BENCHMARK.json.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = ("sim-small-null", "sim-large-power", "simulate-grid-1w",
             "simulate-grid-2w", "fit-csv")

#: Fresh interpreters started per run to time set-up; setup_s is their median.
SETUP_PROBES = 3
#: Replications of a sim-* run that the counts are taken over (always run).
COUNT_REPS = 40
#: Replications of a sim-* run checked against the dense reference.
CHECK_REPS = 4
#: CSVs of the fit-csv workload; one round fits each once.
FIT_CSVS = 4
#: Replications per scenario of one `pgee simulate` invocation.  Invocation
#: i of a run uses --seed 1000 * seed + i, so a run's median covers several
#: datasets instead of resting on one.
GRID_REPS = 20
#: Repeats of the per-estimator timing on each sampled fit (traced runs).
TAG_REPEATS = 2
#: Median time of ``calibrate()`` on the reference machine (README.md).
REF_CALIBRATION_S = 0.001

GRID_CONFIG = """\
[unbalanced]
N = 10
n = 2/6
event_rate = 0.2
rho = 0.2
true = exchangeable

[ar1]
N = 20
n = 6
event_rate = 0.2
rho = 0.2
true = ar1
"""

TAGS = ("LZ", "DF", "KC", "MD", "FG", "MBN", "PAN", "GST", "WL", "WB", "RS",
        "FW", "FZ", "AR")


class OpFailed(Exception):
    """An operation exited with a code its input does not call for."""


def import_pgee():
    """Import pgee from this checkout's src/, never from site-packages."""
    if not (SRC / "pgee" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pgee package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pgee
    from pgee import cli, core, data, datagen, fitting, harness, variance

    if Path(pgee.__file__).resolve().parent != SRC / "pgee":
        sys.exit(f"perfbench: imported pgee from {pgee.__file__}, not {SRC}")
    return {m.__name__: m for m in (pgee, cli, core, data, datagen, fitting,
                                     harness, variance)}


# ---------------------------------------------------------------- machine speed

def calibrate() -> float:
    """Time a fixed piece of pure-Python work: the median of five laps.

    The CPU speed of a shared virtual machine drifts by up to 40% over tens
    of seconds, and operation times follow it.  Each timed operation is
    bracketed by calls to this function, and its time is reported at the
    reference speed: ``t * REF_CALIBRATION_S / mean(cal_before, cal_after)``.
    The work uses neither pgee nor numpy, so no change to them moves it.
    """
    laps = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for j in range(10000):
            acc += j * j % 7
        laps.append(perf_counter() - t0)
    return sorted(laps)[2]


def scaled(raw: list, cals: list) -> list:
    """Raw times at the reference speed; ``cals[k]`` brackets ``raw[k]``."""
    return [t * 2.0 * REF_CALIBRATION_S / (c0 + c1) for t, (c0, c1) in zip(raw, cals)]


# ---------------------------------------------------------------- inputs

def sim_spec(workload: str, seed: int):
    from pgee.datagen import Scenario
    from pgee.harness import ScenarioSpec

    if workload == "sim-small-null":
        scen = Scenario(n_clusters=10, n_pattern=(4,), event_rate=0.1, rho=0.2,
                        beta1=0.0, beta2=0.2, seed=seed)
    else:
        scen = Scenario(n_clusters=50, n_pattern=(4,), event_rate=0.2, rho=0.1,
                        beta1=math.log(2.0), beta2=0.2, seed=seed)
    return ScenarioSpec(id=workload, scenario=scen)


def grid_seed(seed: int, invocation: int) -> int:
    return 1000 * seed + invocation


def build_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Everything the program is given: a scenario, a config or CSVs."""
    if workload.startswith("sim-"):
        from pgee.harness import calibrate_intercept

        spec = sim_spec(workload, seed)
        return {"spec": spec, "intercept": calibrate_intercept(spec.scenario)}
    if workload.startswith("simulate-grid"):
        path = workdir / "grid.cfg"
        path.write_text(GRID_CONFIG, encoding="utf-8")
        return {"config": path}
    from pgee import cli

    csvs, invalid = [], 0
    for k in range(FIT_CSVS):
        path = workdir / f"fit-{k}.csv"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(["generate", "--N", "1000", "--n", "2/3/4/5/6/7/8", "--rate", "0.2",
                         "--rho", "0.2", "--seed", str(100 * seed + k), "--out", str(path)]):
                raise OpFailed(f"pgee generate failed for CSV {k}")
        invalid += int(out.getvalue().split("invalid draws ")[1].split(";")[0])
        csvs.append(path)
    return {"csvs": csvs, "invalid": invalid}


def probe_setup(workload: str, seed: int) -> None:
    """Body of one set-up probe (a fresh interpreter): import, build inputs.

    Calibrates before and after, so the set-up is scaled by the speed of
    the process that did it; the calibration time is not set-up time.
    """
    c0 = perf_counter()
    cal0 = calibrate()
    t0 = perf_counter()
    import_pgee()
    t1 = perf_counter()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        build_inputs(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir)
    t2 = perf_counter()
    cal1 = calibrate()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "cal": [cal0, cal1],
                      "cal_s": (t0 - c0) + (perf_counter() - t2)}))


def time_setup(workload: str, seed: int) -> tuple:
    walls, cals, imports = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise OpFailed(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        walls.append(perf_counter() - t0 - probe["cal_s"])
        cals.append(tuple(probe["cal"]))
        imports.append(probe["import_s"])
    return walls, cals, imports


# ---------------------------------------------------------------- operations

def make_op(workload: str, inputs: dict, seed: int, workdir: Path, mods: dict):
    """The workload's operation: op(i) -> output kept for the checks."""
    harness, cli = mods["pgee.harness"], mods["pgee.cli"]
    if workload.startswith("sim-"):
        spec, intercept = inputs["spec"], inputs["intercept"]
        return lambda i: harness.run_replication(spec, i, intercept=intercept)
    if workload.startswith("simulate-grid"):
        workers = "2" if workload.endswith("2w") else "1"
        out_dir = workdir / "grid-out"

        def simulate(i):
            argv = ["simulate", "--config", str(inputs["config"]), "--reps", str(GRID_REPS),
                    "--seed", str(grid_seed(seed, i)), "--workers", workers,
                    "--min-converged", "10", "--out-dir", str(out_dir)]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                raise OpFailed(f"pgee simulate exited {rc}")
            return out_dir
        return simulate

    def fit_csv(i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["fit", str(inputs["csvs"][i % FIT_CSVS]), "--json"])
        text = out.getvalue()
        converged = json.loads(text)["converged"]
        if rc != (0 if converged else 2):
            raise OpFailed(f"pgee fit exited {rc} (converged: {converged})")
        return text
    return fit_csv


def run_loop(op, seconds: float, round_size: int, min_ops: int, tracer, post):
    """Closed loop of whole rounds until `seconds` and `min_ops` are both met.

    ``post(i, output)`` runs outside the timed region (e.g. reading the
    files a `pgee simulate` call wrote) and returns what the checks keep.
    Each operation is bracketed by ``calibrate()`` calls, outside its time;
    the wall returned leaves their time out.
    """
    times, cals, outputs, failures = [], [], {}, []
    cal_spent = 0.0

    def timed_calibrate():
        nonlocal cal_spent
        c0 = perf_counter()
        cal = calibrate()
        cal_spent += perf_counter() - c0
        return cal

    start = perf_counter()
    cal = timed_calibrate()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        for _ in range(round_size):
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            try:
                out = op(i)
            except Exception as exc:  # any raise is a failed operation
                failures.append((i, "".join(traceback.format_exception_only(exc)).strip()))
                cal = timed_calibrate()
            else:
                times.append(perf_counter() - t0)
                cals.append((cal, timed_calibrate()))
                cal = cals[-1][1]
                outputs[i] = post(i, out)
            i += 1
    return times, cals, outputs, failures, i, perf_counter() - start - cal_spent


# ---------------------------------------------------------------- checks

def draw_and_fit(spec, rep: int, intercept: float):
    """Redo one replication's draw and fit outside the timed region."""
    import numpy as np
    from pgee.data import WorkingModel
    from pgee.datagen import generate_dataset
    from pgee.fitting import FitOptions, fit
    from pgee.harness import MAX_ATTEMPTS

    scen = spec.scenario
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence((scen.seed, rep, attempt)))
        dataset = generate_dataset(scen, rng, intercept=intercept)
        if dataset is not None:
            wm = WorkingModel(structure=scen.working_structure, alpha="estimate",
                              dispersion=1.0)
            return dataset, attempt, fit(dataset, wm, FitOptions())
    return None, MAX_ATTEMPTS, None


def check_refit(dataset, result) -> tuple:
    """Dense check of a fit made in this process (estimates and Wald tests).

    Returns the failures and the SEs it checked, {tag: {index: se}}.
    """
    from pgee.variance import estimate_all, wald_test
    from reference import DenseFit, check_fit, check_wald

    kernel = result.kernel
    ses, incomputable, errors = {}, {}, []
    for est, ve in estimate_all(kernel).items():
        if not ve.computable:
            incomputable[est.name] = ve.incomputable_reason
            continue
        ses[est.name] = dict(enumerate(float(s) for s in ve.se))
        for idx, se in enumerate(ve.se):
            if se == 0.0:  # wald_test refuses a zero SE (ZeroSE); nothing to check
                continue
            wr = wald_test(result.beta[idx], float(se), dataset.n_clusters, dataset.p)
            errors += check_wald(result.beta[idx], float(se), dataset.n_clusters - dataset.p,
                                 wr.p_value, (wr.ci_low, wr.ci_high))
    ref = DenseFit([c.X for c in dataset.clusters], [c.y for c in dataset.clusters],
                   result.beta, kernel.structure, result.alpha, result.phi)
    errors += check_fit(ref, ses, incomputable, penalized=result.penalized,
                        converged=result.converged,
                        hat_blocks=[kernel.hat_block(i) for i in range(kernel.n_clusters)])
    return errors, ses


def check_sim(spec, intercept, records: dict, census: dict) -> tuple:
    """Sampled replications: redo them, compare with the record, dense-check."""
    from scipy.stats import t as student_t
    from pgee.harness import MAX_ATTEMPTS, TEST_LEVEL

    errors, samples = [], []
    for rep in range(CHECK_REPS):
        rec = records.get(rep)
        if rec is None:
            continue
        dataset, invalid, result = draw_and_fit(spec, rep, intercept)
        if invalid != rec["invalid"] or (result is not None
                                         and bool(result.converged) != rec["converged"]):
            errors.append(f"rep {rep}: redo disagrees with the record")
            continue
        if result is None or not result.converged:
            continue
        if [float(b) for b in result.beta] != rec["beta"]:
            errors.append(f"rep {rep}: beta differs from the redo")
        refit_errors, ses = check_refit(dataset, result)
        errors += [f"rep {rep}: {e}" for e in refit_errors]
        n, p = dataset.n_clusters, dataset.p
        for tag, entry in rec["estimators"].items():
            if entry.get("se") != ([ses[tag][1]] if tag in ses else None):
                errors.append(f"rep {rep} {tag}: SE differs from the redo")
            for se, rejected in zip(entry.get("se", []), entry.get("reject", [])):
                p_val = 2.0 * float(student_t.sf(abs(result.beta[1] / se), n - p))
                if (p_val < TEST_LEVEL) != rejected:
                    errors.append(f"rep {rep} {tag}: reject flag {rejected}, p = {p_val}")
        samples.append((dataset, result))
    # Reasons are not in the replication record: redo the non-converged ones.
    for rep, rec in records.items():
        if rec["converged"]:
            continue
        if rec["invalid"] >= MAX_ATTEMPTS:
            census["reasons"]["no_valid_draw"] += 1
        else:
            census["reasons"][draw_and_fit(spec, rep, intercept)[2].diverged_reason] += 1
    return errors, samples


def check_grid(outputs: dict, seed: int, config: Path, census: dict) -> tuple:
    """Every invocation's results.csv; replication 0 of each scenario of the
    first invocation redone and checked against the dense reference."""
    from pgee.data import EstimatorId
    from pgee.harness import calibrate_intercept, parse_config
    from reference import check_results_csv

    errors, samples = [], []
    text = config.read_text(encoding="utf-8")
    tags = [e.name for e in EstimatorId]
    for i, (results_text, summary_text) in sorted(outputs.items()):
        specs = parse_config(text, base_seed=grid_seed(seed, i))
        scenarios = {s.id: (len(set(s.scenario.n_pattern)) == 1, s.test_coefs)
                     for s in specs}
        errors += [f"invocation {i}: {e}"
                   for e in check_results_csv(results_text, scenarios, tags)]
        for scen in json.loads(summary_text)["scenarios"]:
            census["converged"] += scen["b_effective"]
            census["invalid"] += scen["invalid_draws"]
            census["not_converged"] += scen["b_total"] - scen["b_effective"]
        if samples or errors:
            continue
        for spec in specs:
            dataset, _, result = draw_and_fit(spec, 0, calibrate_intercept(spec.scenario))
            if result is not None and result.converged:
                errors += [f"{spec.id} rep 0: {e}" for e in check_refit(dataset, result)[0]]
                samples.append((dataset, result))
    return errors, samples


def check_fit_csv(outputs: dict, csvs: list, census: dict) -> list:
    from reference import DenseFit, check_fit, check_rho, check_wald, read_long_csv

    errors = []
    for k, path in enumerate(csvs):
        runs = [outputs[i] for i in sorted(outputs) if i % FIT_CSVS == k]
        if not runs:
            continue
        errors += [f"CSV {k}: fit output differs between calls"
                   for text in runs[1:] if text != runs[0]]
        report = json.loads(runs[0])
        census["converged" if report["converged"] else "not_converged"] += 1
        if not report["converged"]:
            census["reasons"][report["diverged_reason"]] += 1
        names, Xs, ys = read_long_csv(path)
        beta = [report["beta"][n] for n in names]
        ref = DenseFit(Xs, ys, beta, report["config"]["corr"], report["alpha_hat"],
                       report["phi_hat"])
        ses, incomputable = {}, {}
        dof = len(Xs) - len(names)
        for tag, entry in report["estimators"].items():
            if not entry["computable"]:
                incomputable[tag] = entry["reason"]
                continue
            ses[tag] = {}
            for idx, name in enumerate(names):
                c = entry["coefficients"][name]
                ses[tag][idx] = c["se"]
                errors += [f"CSV {k} {tag} {name}: {e}" for e in
                           check_wald(beta[idx], c["se"], dof, c["p"], c["ci"])]
        errors += [f"CSV {k}: {e}" for e in
                   check_fit(ref, ses, incomputable, converged=report["converged"])]
        rho = [report["overcorrection"]["rho"][n] for n in names]
        errors += [f"CSV {k}: {e}" for e in check_rho(ref, rho)]
    return errors


# ---------------------------------------------------------------- per-layer

def tag_timings(samples: list, repeats: int) -> dict:
    """Each estimator and the diagnostic on a freshly assembled kernel, so
    the cached leverage geometry is not charged to whichever ran first."""
    from pgee.core import assemble_kernel
    from pgee.data import EstimatorId
    from pgee.variance import estimate_variance, overcorrection_diagnostic

    timings = defaultdict(list)
    for dataset, result in samples:
        args = (result.beta, result.kernel.structure, result.alpha, result.phi, dataset)
        for _ in range(repeats):
            for tag in TAGS + ("overcorrection_diagnostic",):
                kernel = assemble_kernel(*args)
                t0 = perf_counter()
                if tag in TAGS:
                    estimate_variance(kernel, EstimatorId[tag])
                else:
                    with contextlib.suppress(Exception):
                        overcorrection_diagnostic(kernel)
                timings[tag].append(perf_counter() - t0)
    return {tag: statistics.median(v) for tag, v in timings.items()}


def layer_metrics(spans, workload, ops, count_ops, wall, workers, tag_ms, import_s) -> dict:
    from spans import self_time

    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    by_func = defaultdict(list)
    for s in spans:
        by_func[s.func].append(s)

    def total(func, names=None):
        return sum(s.duration for s in by_func[func]
                   if names is None or s.name in names)

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    fits = by_func["fit"]
    reps = by_func["run_replication"]
    sample = [s for s in spans if s.op in count_ops]
    s_fits = [s for s in sample if s.func == "fit"]
    s_reps = [s for s in sample if s.func == "run_replication"]
    n_fits, n_reps = max(len(fits), 1), max(len(reps), 1)
    sn_fits = max(len(s_fits), 1)
    cli_main = by_func["main"] if workload == "fit-csv" else []
    m = {
        "datagen.generate_dataset_ms": 1e3 * total("generate_dataset") / n_reps,
        "datagen.draws_per_rep": (sum(s.func == "generate_dataset" for s in sample)
                                  / len(s_reps)) if s_reps else 0.0,
        "core.assemble_kernel_ms": 1e3 * total("assemble_kernel") / n_fits,
        "core.firth_penalty_ms": 1e3 * total("firth_penalty") / n_fits,
        "fitting.fit_ms": 1e3 * mean(s.duration for s in fits),
        "fitting.fit_self_ms": 1e3 * mean(self_time(s, children[s.id]) for s in fits),
        "fitting.iterations_per_fit": mean(s.attrs["iterations"] for s in s_fits),
        "fitting.assemblies_per_fit": sum(s.func == "assemble_kernel" for s in sample)
        / sn_fits,
        "variance.estimate_all_ms": 1e3 * (total("estimate_all")
                                           + total("estimate_variance", {"pgee.cli.estimate_variance"}))
        / n_fits,
    }
    for tag in TAGS:
        m[f"variance.{tag}_ms"] = 1e3 * tag_ms.get(tag, 0.0)
    m.update({
        "variance.estimate_variance_calls_per_fit":
            sum(s.func == "estimate_variance" for s in sample) / sn_fits,
        "variance.overcorrection_diagnostic_ms":
            1e3 * tag_ms.get("overcorrection_diagnostic", 0.0),
        "variance.wald_test_us": 1e6 * mean(s.duration for s in by_func["wald_test"]),
        "harness.run_replication_self_ms":
            1e3 * mean(self_time(s, children[s.id]) for s in reps),
        "harness.aggregate_ms": 1e3 * total("aggregate") / max(ops, 1),
        "harness.render_ms": 1e3 * (total("results_csv") + total("summary_json"))
        / max(ops, 1),
        "harness.parallel_efficiency": total("run_replication") / (workers * wall)
        if reps else 0.0,
        "data.read_csv_ms": 1e3 * total("read_csv") / max(ops, 1),
        "cli.fit_self_ms": 1e3 * mean(self_time(s, children[s.id]) for s in cli_main),
        "cli.import_s": statistics.median(import_s),
    })
    return m


def span_table(spans) -> list:
    from spans import self_time

    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = rows[s.name]
        row[0] += 1
        row[1] += s.duration
        row[2] += self_time(s, children[s.id])
    lines = [f"  {'span':<42}{'calls':>8}{'total ms':>12}{'self ms':>12}"]
    for name, (n, tot, own) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"  {name:<42}{n:>8}{1e3 * tot:>12.1f}{1e3 * own:>12.1f}")
    return lines


# ---------------------------------------------------------------- record

def environment() -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PGEE_THREADS"))
    return (f"env: {found} cpu_count={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')} {blas.get('version')}")


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def run_workload(args) -> int:
    mods = import_pgee()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        return _run_workload(args, mods, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, mods, workdir: Path) -> int:
    workload, seed = args.workload, args.seed
    print(f"perfbench {workload} seed={seed} seconds={args.seconds} trace={args.trace}")
    print(environment())
    inputs = build_inputs(workload, seed, workdir)
    op = make_op(workload, inputs, seed, workdir, mods)
    grid = workload.startswith("simulate-grid")
    workers = 2 if workload.endswith("2w") else 1

    def post(i, out):
        if grid:
            return ((out / "results.csv").read_text(encoding="utf-8"),
                    (out / "summary.json").read_text(encoding="utf-8"))
        return out

    # Warm-up: lazy imports and first-call set-up are not charged to ops.
    if workload.startswith("sim-"):
        mods["pgee.harness"].run_replication(inputs["spec"], 10**6,
                                              intercept=inputs["intercept"])
    elif grid:
        from pgee.harness import calibrate_intercept, parse_config, run_replication
        for spec in parse_config(GRID_CONFIG, base_seed=grid_seed(seed, 0)):
            run_replication(spec, 10**6, intercept=calibrate_intercept(spec.scenario))
    else:
        op(0)

    tracer = None
    if args.trace:
        from spans import Tracer
        spool = workdir / "spool"
        spool.mkdir()
        tracer = Tracer(spool)
        tracer.install(mods)
    round_size = FIT_CSVS if workload == "fit-csv" else 1
    min_ops = COUNT_REPS if workload.startswith("sim-") else round_size
    try:
        times, cals, outputs, failures, attempted, wall = run_loop(
            op, args.seconds, round_size, min_ops, tracer, post)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.collect()
    peak_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peak_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    check_start = perf_counter()
    census = {"converged": 0, "not_converged": 0, "invalid": 0, "reasons": Counter()}
    if workload.startswith("sim-"):
        recs = outputs
        census["converged"] = sum(r["converged"] for r in recs.values())
        census["not_converged"] = len(recs) - census["converged"]
        census["invalid"] = sum(r["invalid"] for r in recs.values())
        errors, samples = check_sim(inputs["spec"], inputs["intercept"], recs, census)
    elif grid:
        errors, samples = check_grid(outputs, seed, inputs["config"], census)
    else:
        census["invalid"] = inputs["invalid"]
        errors = check_fit_csv(outputs, inputs["csvs"], census)
        samples = []
    if tracer is not None and grid:
        census["reasons"] = Counter(s.attrs["reason"] for s in tracer.spans
                                    if s.func == "fit" and s.attrs
                                    and not s.attrs["converged"] and s.op == 0)

    check_s = perf_counter() - check_start
    failed = len(failures) + (1 if errors else 0)
    print(f"operations: attempted {attempted} failed {failed} "
          f"({'one round = ' + str(round_size) + ' ops, ' if round_size > 1 else ''}"
          f"closed loop, {workers} worker{'s' if workers > 1 else ''}, wall {wall:.3f} s "
          "without calibration)")
    for i, msg in failures[:5]:
        print(f"  failed op {i}: {msg}")
    reasons = dict(census["reasons"]) if census["reasons"] else {}
    print(f"census: converged {census['converged']} not converged "
          f"{census['not_converged']} diverged_reason {json.dumps(reasons)} "
          f"invalid draws {census['invalid']}"
          + ("  (reasons: summary.json has none; the traced run counts them "
             "for the first invocation)" if grid and not args.trace else ""))
    if errors:
        print(f"checks: FAILED ({len(errors)})")
        for e in errors[:20]:
            print(f"  {e}")
    else:
        checked = (f"{len(samples)} replications redone and matched to their records"
                   if workload.startswith("sim-") else
                   f"every results.csv; {len(samples)} replications redone" if grid else
                   "the first fit of each CSV; repeated fits identical")
        print(f"checks: passed in {check_s:.2f} s (dense reference and Wald tests; "
              f"{checked})")

    walls, setup_cals, imports = time_setup(workload, seed)
    setup_s = statistics.median(scaled(walls, setup_cals))
    op_times = sorted(scaled(times, cals))
    op_ms = 1e3 * statistics.median(op_times) if op_times else float("nan")
    raw_ms = 1e3 * statistics.median(times) if times else float("nan")
    cal_ms = 1e3 * statistics.median(c for pair in cals + setup_cals for c in pair)
    issue_name = ("rep_ms_p50" if workload.startswith("sim-") else
                  "simulate_wall_s" if grid else "fit_ms_p50")
    print(f"samples: op_ms_p50 over {len(times)} ops; setup_s over {len(walls)} "
          f"probes {[round(w, 3) for w in walls]} s wall")
    print(f"machine speed: calibration median {cal_ms:.4f} ms against "
          f"{1e3 * REF_CALIBRATION_S:.1f} ms reference; times below are scaled to the "
          f"reference, wall-clock medians op {raw_ms:.4f} ms, setup "
          f"{statistics.median(walls):.4f} s")
    print(f"{issue_name}: {op_ms / 1e3 if grid else op_ms:.4f}"
          f"{' s' if grid else ' ms'} (op_ms_p50)")
    if workload.startswith("sim-"):
        if len(times) >= 200:
            print(f"rep_ms_p95: {1e3 * percentile(op_times, 95):.4f} ms over "
                  f"{len(times)} reps")
        else:
            print(f"rep_ms_p95: not reported ({len(times)} < 200 reps)")
    print(f"peak_rss_mb: {peak_self:.1f} (this process)"
          + (f"; largest worker {peak_children:.1f}" if workers > 1 else ""))

    if args.trace:
        tag_ms = tag_timings(samples or fit_samples(inputs["csvs"]), TAG_REPEATS)
        count_ops = set(range(min_ops)) if not grid else {0}
        metrics = layer_metrics(tracer.spans, workload, attempted, count_ops, wall,
                                workers, tag_ms, imports)
        print(f"traced op_ms_p50: {op_ms:.4f} ms (tracing overhead is its difference "
              "from an untraced run's op_ms_p50)")
        print("spans (whole traced loop):")
        print("\n".join(span_table(tracer.spans)))
        units = per_layer_units()
        result = {name: {"value": value, "unit": units[name]}
                  for name, value in metrics.items()}
    else:
        result = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_ms_p50": {"value": op_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_self, "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def fit_samples(csvs: list) -> list:
    """fit-csv: the fit of the first CSV, redone in-process for tag timings."""
    from pgee.data import WorkingModel, read_csv
    from pgee.fitting import fit

    dataset = read_csv(csvs[0])
    wm = WorkingModel(structure="exchangeable", alpha="estimate", dispersion=1.0)
    return [(dataset, fit(dataset, wm))]


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# ---------------------------------------------------------------- repeat mode

def repeat(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    for workload in names:
        values, shares = defaultdict(list), set()
        for k in range(args.repeat):
            seed = args.seed + k
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=900,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            res = json.loads(proc.stdout.splitlines()[-1])
            shares.add((res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: correct {res['correct']} attempted "
                  f"{res['attempted']} failed {res['failed']} "
                  + " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()),
                  flush=True)
        print(f"{workload}: failed/attempted per run {sorted(shares)}")
        if args.repeat < 2:
            continue
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread <= bounds[name] / 3
            print(f"  {name:<14} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"spread {spread:.3f}  bound {bounds[name]}  "
                  f"{'ok' if ok else 'above bound/3'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or 'all' with --repeat")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times on consecutive seeds")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload not in WORKLOADS and not (args.repeat and args.workload == "all"):
        parser.error(f"unknown workload {args.workload!r}")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.repeat:
        return repeat(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
