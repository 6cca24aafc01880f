"""Command-line surface: fit, diagnose, generate, simulate.

Exit codes: 0 success, 1 input/config error, 2 fit non-convergence (the
report is still emitted).  Every report echoes the effective
configuration so runs can be reproduced from the output alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .data import EstimatorId, WorkingModel, normalize_structure, read_csv, write_csv
from .datagen import Scenario, calibrate_intercept
from .errors import DatasetError, PgeeError, SingularLeverage
from .fitting import FitOptions, PgeeFit, fit
from .harness import (
    MAX_ATTEMPTS,
    ZERO_SE,
    draw_block,
    effective_workers,
    parse_config,
    results_csv,
    run_grid,
    summary_json,
)
from .variance import estimate_variance  # noqa: F401  (re-exported: perfbench/spans.py resolves this name)
from .variance import estimator_table, overcorrection_diagnostic, wald_test

JSON_SCHEMA_VERSION = "1"


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corr",
        default="exch",
        help="working correlation: exch, ar1 or ind (default exch)",
    )
    parser.add_argument(
        "--alpha",
        default="estimate",
        help="fixed correlation parameter or 'estimate' (default)",
    )
    parser.add_argument(
        "--phi",
        default="1.0",
        help="fixed dispersion or 'estimate' for the Pearson plug-in (default 1.0)",
    )
    parser.add_argument("--no-penalty", action="store_true", help="plain GEE fit")
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--max-iter", type=int, default=50)


def _working_model(args) -> WorkingModel:
    alpha = args.alpha if args.alpha == "estimate" else float(args.alpha)
    phi = "pearson-plugin" if args.phi == "estimate" else float(args.phi)
    return WorkingModel(
        structure=normalize_structure(args.corr), alpha=alpha, dispersion=phi
    )


def _parse_estimators(spec: str) -> list:
    if spec.strip().lower() == "all":
        return list(EstimatorId)
    return [EstimatorId.parse(tag) for tag in spec.split(",")]


def _fit_dataset(args):
    dataset = read_csv(args.data)
    wm = _working_model(args)
    opts = FitOptions(
        penalized=not args.no_penalty, max_iter=args.max_iter, tol=args.tol
    )
    return dataset, wm, fit(dataset, wm, opts)


def _fit_header_lines(dataset, wm, result: PgeeFit) -> list:
    alpha_mode = "estimated" if wm.estimates_alpha else "fixed"
    phi_mode = "estimated" if wm.estimates_dispersion else "fixed"
    lines = [
        f"clusters: {dataset.n_clusters}   observations: {dataset.n_total}   "
        f"p: {dataset.p}",
        f"working correlation: {wm.structure}   penalty: "
        f"{'on' if result.penalized else 'off'}",
        f"converged: {'yes' if result.converged else 'no'}"
        + ("" if result.converged else f" ({result.diverged_reason})")
        + f"   iterations: {result.iterations}",
        f"alpha_hat: {result.alpha:.6g} ({alpha_mode})   "
        f"phi_hat: {result.phi:.6g} ({phi_mode})",
        "coefficients: "
        + "  ".join(
            f"{name}={b:.6g}" for name, b in zip(dataset.colnames, result.beta)
        ),
    ]
    return lines


def _rho_line(diag, colnames) -> str:
    parts = [f"{r:.2f} ({name})" for r, name in zip(diag.ratios, colnames)]
    return "rho_s: " + ", ".join(parts)


def _overcorrection_report(diag, colnames) -> dict:
    return {
        "rho": {n: float(r) for n, r in zip(colnames, diag.ratios)},
        "eigenvalues": [float(v) for v in diag.eigenvalues],
    }


def _unavailable_row(est: EstimatorId, reason: str) -> str:
    return f"  {est.name:<10}{'—':>12}{'—':>10}{'—':>10}{'(' + reason + ')':>26}"


def cmd_fit(args) -> int:
    estimators = _parse_estimators(args.estimators)
    dataset, wm, result = _fit_dataset(args)
    report: dict = {
        "schema_version": JSON_SCHEMA_VERSION,
        "command": "fit",
        "config": {
            "data": str(args.data),
            "corr": wm.structure,
            "alpha": args.alpha,
            "phi": args.phi,
            "penalized": not args.no_penalty,
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
        "converged": result.converged,
        "diverged_reason": result.diverged_reason,
        "iterations": result.iterations,
        "alpha_hat": result.alpha,
        "phi_hat": result.phi,
        "beta": {n: float(b) for n, b in zip(dataset.colnames, result.beta)},
    }

    lines = _fit_header_lines(dataset, wm, result)
    if result.kernel is not None:
        n_cl, p = dataset.n_clusters, dataset.p
        # one table for the distinct estimators and one Wald test over its
        # computable, positive SEs; a zero SE keeps its row as ZeroSE
        column = {est: j for j, est in enumerate(dict.fromkeys(estimators))}
        _, se, computable, why = (a[0] for a in estimator_table(result.kernel, list(column)))
        testable = computable[:, None] & (se > 0)
        wald = np.full((4, *se.shape), np.nan)
        if testable.any():
            wr = wald_test(np.broadcast_to(result.beta, se.shape)[testable], se[testable],
                           n_cl, p, null_value=args.null)
            wald[:, testable] = wr.t, wr.p_value, wr.ci_low, wr.ci_high
        est_report = {}
        for coef_idx, name in enumerate(dataset.colnames):
            lines.append("")
            lines.append(
                f"[{name}] estimate {result.beta[coef_idx]:.6g} "
                f"(Wald t, dof = {n_cl - p})"
            )
            lines.append(
                f"  {'estimator':<10}{'SE':>12}{'t':>10}{'p':>10}"
                f"{'95% CI':>26}"
            )
            for est in estimators:
                j = column[est]
                entry = est_report.setdefault(
                    est.name,
                    {"computable": bool(computable[j]), "reason": why[j], "coefficients": {}},
                )
                if not computable[j]:
                    lines.append(_unavailable_row(est, why[j]))
                    continue
                se_j = float(se[j, coef_idx])
                if not testable[j, coef_idx]:
                    entry["coefficients"][name] = {"se": se_j, "reason": ZERO_SE}
                    lines.append(_unavailable_row(est, ZERO_SE))
                    continue
                t, p_value, ci_low, ci_high = wald[:, j, coef_idx].tolist()
                entry["coefficients"][name] = {
                    "se": se_j, "t": t, "p": p_value, "ci": [ci_low, ci_high],
                }
                lines.append(
                    f"  {est.name:<10}{se_j:>12.4g}{t:>10.3f}{p_value:>10.4f}"
                    f"{'[' + f'{ci_low:.4g}, {ci_high:.4g}' + ']':>26}"
                )
        report["estimators"] = est_report
        try:
            diag = overcorrection_diagnostic(result.kernel)
            lines.append("")
            lines.append(_rho_line(diag, dataset.colnames))
            report["overcorrection"] = _overcorrection_report(diag, dataset.colnames)
        except SingularLeverage as exc:
            lines.append("")
            lines.append(f"rho_s: not computable ({exc})")
            report["overcorrection"] = None

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0 if result.converged else 2


def cmd_diagnose(args) -> int:
    dataset, wm, result = _fit_dataset(args)
    if result.kernel is None:
        print("error: no kernel available (fit failed immediately)", file=sys.stderr)
        return 2

    lines = _fit_header_lines(dataset, wm, result)
    report: dict = {
        "schema_version": JSON_SCHEMA_VERSION,
        "command": "diagnose",
        "converged": result.converged,
        "beta": {n: float(b) for n, b in zip(dataset.colnames, result.beta)},
    }
    try:
        diag = overcorrection_diagnostic(result.kernel)
    except SingularLeverage as exc:
        print(f"error: diagnostic not computable ({exc})", file=sys.stderr)
        return 2
    lines.append("")
    lines.append(
        "overcorrection eigenvalues: "
        + ", ".join(f"{v:.4f}" for v in diag.eigenvalues)
    )
    lines.append(_rho_line(diag, dataset.colnames))
    report["overcorrection"] = _overcorrection_report(diag, dataset.colnames)

    if args.treatment_col:
        name = args.treatment_col
        if name not in dataset.colnames:
            raise DatasetError(f"no column named {name!r}")
        idx = dataset.colnames.index(name)
        col = dataset.X[:, idx]
        arms = col[dataset.offsets[:-1]]
        if not (
            np.array_equal(col, np.repeat(arms, dataset.sizes))
            and np.all((arms == 0.0) | (arms == 1.0))
        ):
            raise DatasetError(f"{name!r} is not a binary subject-level column")
        n1 = int(arms.sum())
        n0 = len(arms) - n1
        n_min = min(n0, n1)
        if n_min >= 2:
            bench = 1.0 / (n_min - 1)
            lines.append(
                f"benchmark 1/(N_min - 1) = {bench:.4f}  "
                f"(N1 = {n1}, N0 = {n0});  rho_{name} = {diag.ratios[idx]:.4f}"
            )
            report["benchmark"] = {"n1": n1, "n0": n0, "value": bench}
        else:
            lines.append(
                f"benchmark undefined: smaller arm has {n_min} cluster(s)"
            )
            report["benchmark"] = None

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0 if result.converged else 2


def cmd_generate(args) -> int:
    scenario = Scenario(
        n_clusters=args.N,
        n_pattern=tuple(int(v) for v in args.n.split("/")),
        event_rate=args.rate,
        rho=args.rho,
        true_structure=args.structure,
        working_structure=args.structure,
        gamma=args.gamma,
        beta1=args.beta1,
        beta2=args.beta2,
        model=args.model,
        seed=args.seed,
    )
    intercept = calibrate_intercept(scenario)
    design, y, (invalid,) = draw_block(scenario, [0], intercept)
    if invalid == MAX_ATTEMPTS:
        raise PgeeError(f"no valid draw in {MAX_ATTEMPTS} attempts")
    write_csv(replace(design, y=y[0]), args.out)
    print(
        f"wrote {design.n_clusters} clusters ({design.n_total} rows) to "
        f"{args.out}; intercept {intercept:.6g}; invalid draws {invalid}; "
        f"seed {scenario.seed}"
    )
    return 0


def cmd_simulate(args) -> int:
    specs = parse_config(Path(args.config).read_text(encoding="utf-8"), base_seed=args.seed)
    estimators = _parse_estimators(args.estimators)
    if args.reps < 0:
        raise ValueError(f"--reps must be non-negative, got {args.reps}")
    out_dir = Path(args.out_dir)
    workers = effective_workers(args.workers)
    results = run_grid(
        specs,
        args.reps,
        workers=workers,
        estimators=estimators,
        min_converged=args.min_converged,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.csv").write_text(results_csv(results), encoding="utf-8")
    (out_dir / "summary.json").write_text(
        summary_json(specs, results, base_seed=args.seed, reps=args.reps),
        encoding="utf-8",
    )
    print(
        f"{len(specs)} scenario(s) x {args.reps} replications "
        f"(seed {args.seed}, workers {workers})"
    )
    for res in results:
        print(
            f"  {res.scenario_id}: convergence {res.convergence_rate:.3f}, "
            f"invalid draws {res.invalid_draws}"
        )
    print(f"wrote {out_dir / 'results.csv'} and {out_dir / 'summary.json'}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser (and subparsers) whose usage errors are ValueErrors:
    input errors (exit 1), not argparse's exit 2, the non-convergence code."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pgee",
        description=(
            "Penalized GEE for clustered binary outcomes: fitting, sandwich "
            "variance estimators, leverage diagnostics, data generation and "
            "Monte Carlo simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a dataset and report all estimators")
    p_fit.add_argument("data", help="long-format CSV (cluster,y,x1..xk[,t])")
    _add_model_flags(p_fit)
    p_fit.add_argument(
        "--estimators", default="all", help="'all' or comma list, e.g. LZ,KC,AR"
    )
    p_fit.add_argument("--null", type=float, default=0.0, help="null value for Wald tests")
    p_fit.add_argument("--json", action="store_true", help="machine-readable output")
    p_fit.set_defaults(func=cmd_fit)

    p_diag = sub.add_parser("diagnose", help="leverage-overcorrection diagnostic")
    p_diag.add_argument("data")
    _add_model_flags(p_diag)
    p_diag.add_argument(
        "--treatment-col",
        default=None,
        help="binary subject-level column for the 1/(N_min-1) benchmark",
    )
    p_diag.add_argument("--json", action="store_true")
    p_diag.set_defaults(func=cmd_diagnose)

    p_gen = sub.add_parser("generate", help="dump a simulated dataset to CSV")
    p_gen.add_argument("--N", type=int, required=True, help="number of clusters")
    p_gen.add_argument("--n", default="4", help="cluster size or pattern, e.g. 2/6")
    p_gen.add_argument("--rate", type=float, default=0.2, help="target event rate")
    p_gen.add_argument("--rho", type=float, default=0.2)
    p_gen.add_argument("--structure", default="exchangeable", help="exchangeable or ar1")
    p_gen.add_argument("--gamma", type=float, default=0.3)
    p_gen.add_argument("--beta1", type=float, default=0.0)
    p_gen.add_argument("--beta2", type=float, default=0.2)
    p_gen.add_argument("--model", default="full", help="full or reduced")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_sim = sub.add_parser("simulate", help="run a scenario grid")
    p_sim.add_argument("--config", required=True, help="grid config file")
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--estimators", default="all")
    p_sim.add_argument("--min-converged", type=int, default=100)
    p_sim.add_argument("--out-dir", default=".")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[list] = None) -> int:
    """Run one command.  An input, config or file error ends it with one
    ``error:`` line and exit 1; Python warnings are collected and printed
    after it as one ``note:`` line per distinct message, with its count."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except (PgeeError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            for message, count in Counter(str(w.message) for w in caught).items():
                times = f" ({count} times)" if count > 1 else ""
                print(f"note: {message}{times}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
