"""Scenario-grid Monte Carlo harness: type I error, power, SE calibration.

One replication generates a dataset, fits the penalized estimating
equation (working correlation estimated, dispersion fixed at 1), runs all
requested covariance estimators, and records Wald rejections at
``variance.TEST_LEVEL`` (5%) for the tested coefficients.  A test rejects
when |beta / SE| exceeds the 1 - TEST_LEVEL / 2 quantile of t(N - p)
(``variance.t_critical`` at ``variance.wald_dof``, one per block): the
same test as a p-value below TEST_LEVEL, without computing the p-value.
Operating characteristics are aggregated only over converged
replications, and per estimator only over replications where that
estimator was computable; an estimate whose tested SE is 0 cannot be
tested and counts as not computable (``ZeroSE``).

Randomness is keyed, not sequential: replication ``r`` of a scenario with
seed ``s`` draws from ``SeedSequence((s, r, attempt))``, where ``attempt``
increments when a generated dataset contains an invalid conditional draw
(the event is counted and the replication regenerated on the next
substream).

A scenario's replications run in fixed blocks of BLOCK_SIZE consecutive
indices (``run_block``), and the block is the unit of every stage.  All
draws of a scenario share the design, so a block builds it once
(``draw_block``); each attempt stacks the keyed uniforms of the block's
pending replications and draws their responses in one pass, and only the
replications whose draw was invalid go on to the next attempt.  The
block's responses are fitted in lockstep, and its converged replications
are estimated and tested together, into one ``BlockResult`` of arrays;
``run_replication`` is a block of one.  The blocks of a whole grid are
the jobs of one process pool (``run_grid``), so the blocks, and every
output, are identical for any worker count.  ``aggregate`` concatenates a
scenario's blocks and reduces the estimators that are computable on the
same replications together, one axis-wise call per statistic.

Scenario grids come from an INI-style config file; every section is one
block and whitespace-separated values expand by Cartesian product::

    [core-null]
    N = 10 20
    n = 4            # constant size, or "2/6" for an alternating pattern
    event_rate = 0.1 0.2
    rho = 0.2
    true = exchangeable
    working = exchangeable   # defaults to the true structure
    gamma = 0.3
    beta1 = 0                # number or "log2"
    beta2 = 0.2
    model = full             # or "reduced" (no time covariate)
    test = beta1             # comma-joined: "beta1,beta2"

Outputs: ``results.csv`` (one row per scenario x estimator x tested
coefficient) and ``summary.json`` (grid metadata, seeds, convergence
census); both are byte-stable across runs and worker counts.
"""

from __future__ import annotations

import configparser
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .data import EstimatorId, WorkingModel, estimator_columns
from .datagen import Scenario, calibrate_intercept, clf_design
from .errors import ConfigError, TooFewConverged
from .fitting import FitOptions, fit_block
# Re-exported, not called: perfbench/spans.py resolves these names here.
from .datagen import generate_dataset  # noqa: F401
from .fitting import fit  # noqa: F401
from .variance import estimate_all, wald_test  # noqa: F401
from .variance import TEST_LEVEL, ZERO_SE, estimator_table, t_critical, wald_dof

#: Cap on regeneration attempts after invalid conditional draws.
MAX_ATTEMPTS = 1000

#: Replications per block.  A scenario's replications are fitted in blocks
#: of this many consecutive indices, so the batches, and with them every
#: output, are the same for any worker count.  Chosen by measurement (see
#: README): fuller blocks share the lockstep loop's per-call overhead, and
#: beyond 256 the gain is small.  The block is a grid's unit of work.
BLOCK_SIZE = 256

#: ``reason`` of a replication whose MAX_ATTEMPTS draws were all invalid.
NO_VALID_DRAW = "no_valid_draw"

_COEF_INDEX = {"beta1": 1, "beta2": 2}


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario plus the coefficients whose null is tested."""

    id: str
    scenario: Scenario
    test_coefs: tuple = ("beta1",)

    def __post_init__(self):
        for name in self.test_coefs:
            if name not in _COEF_INDEX:
                raise ConfigError(f"unknown tested coefficient {name!r}")
            if name == "beta2" and self.scenario.model == "reduced":
                raise ConfigError("reduced model has no beta2 to test")


@dataclass(frozen=True)
class EstimatorCell:
    """Aggregated metrics for one (estimator, coefficient) pair."""

    estimator: str
    coefficient: str
    n_computable: int
    rejection_rate: Optional[float] = None
    mc_se: Optional[float] = None
    median_se_ratio: Optional[float] = None
    cv_se: Optional[float] = None
    skewness_se: Optional[float] = None
    p95_over_p50: Optional[float] = None
    p99_over_p50: Optional[float] = None


@dataclass(frozen=True)
class ScenarioResult:
    """Per-scenario Monte Carlo operating characteristics."""

    scenario_id: str
    b_total: int
    b_effective: int
    convergence_rate: float
    invalid_draws: int
    sim_se: dict
    cells: tuple


#: The ScenarioResult fields repeated on each row of ``results.csv``.
_RESULT_COLUMNS = ("b_effective", "convergence_rate", "invalid_draws")

_CELL_COLUMNS = tuple(f.name for f in fields(EstimatorCell))

RESULTS_COLUMNS = ("scenario", *_CELL_COLUMNS, *_RESULT_COLUMNS)


def draw_block(scenario: Scenario, reps: Sequence[int], intercept: float) -> tuple:
    """The design shared by replications ``reps``, their responses
    (R, n_total) and the number of invalid draws before each (R,).

    Attempt ``a`` of replication ``r`` takes its uniforms from
    ``SeedSequence((seed, r, a))``.  The design is built once; each
    attempt stacks the uniforms of the pending replications and draws them
    in one pass, and only the replications whose draw was invalid go on to
    the next attempt.  A replication whose MAX_ATTEMPTS draws were all
    invalid counts MAX_ATTEMPTS, and its row of responses is meaningless.
    """
    design = clf_design(scenario, intercept)
    n_total = design.data.n_total
    reps = list(reps)
    y = np.zeros((len(reps), n_total))
    invalid = np.full(len(reps), MAX_ATTEMPTS)
    pending = np.arange(len(reps))
    for attempt in range(MAX_ATTEMPTS):
        if not pending.size:
            break
        unif = np.stack([
            np.random.default_rng(
                np.random.SeedSequence((scenario.seed, reps[k], attempt))
            ).random(n_total)
            for k in pending
        ])
        draws, bad = design.draw(unif)
        y[pending[~bad]] = draws[~bad]
        invalid[pending[~bad]] = attempt
        pending = pending[bad]
    return design.data, y, invalid


def _working_model(scenario: Scenario) -> WorkingModel:
    return WorkingModel(
        structure=scenario.working_structure, alpha="estimate", dispersion=1.0
    )


class BlockResult(NamedTuple):
    """A block's results, replication axis first: ``invalid`` (the invalid
    draws before the dataset), ``converged``, ``iterations`` and ``reason``
    (the fit's, or ``no_valid_draw``) (R,); ``beta`` (R, p), NaN unless
    converged; ``computable`` and its reason ``why`` (R, E) per estimator
    column; ``se`` and ``reject`` (R, E, T) per tested coefficient, NaN and
    False where not computable."""

    invalid: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    reason: np.ndarray
    beta: np.ndarray
    computable: np.ndarray
    why: np.ndarray
    se: np.ndarray
    reject: np.ndarray


def block_records(block: BlockResult, reps: Sequence[int], estimators=None) -> list:
    """The rows of ``block`` (replications ``reps``) as dicts: ``rep``,
    ``invalid``, ``converged``, ``iterations`` and ``reason``, and for a
    converged replication ``beta`` and one entry per estimator."""
    names = [est.name for est in estimator_columns(estimators)]
    records = []
    for rep, invalid, ok, its, reason, beta, *ests in zip(reps, *(a.tolist() for a in block)):
        records.append(dict(rep=rep, invalid=invalid, converged=ok, iterations=its, reason=reason))
        if ok:
            records[-1].update(beta=beta, estimators={
                name: {"computable": c, "reason": r, "se": s, "reject": j} if c
                else {"computable": c, "reason": r}
                for name, c, r, s, j in zip(names, *ests)
            })
    return records


def run_replication(
    spec: ScenarioSpec,
    rep_index: int,
    intercept: Optional[float] = None,
    estimators: Optional[Sequence[EstimatorId]] = None,
    fit_options: Optional[FitOptions] = None,
) -> dict:
    """Generate, fit, estimate, test: one Monte Carlo replication, as the
    ``block_records`` dict of :func:`run_block` on a block of one."""
    block = run_block(spec, [rep_index], intercept, estimators, fit_options)
    return block_records(block, [rep_index], estimators)[0]


def run_block(
    spec: ScenarioSpec,
    reps: Sequence[int],
    intercept: Optional[float] = None,
    estimators: Optional[Sequence[EstimatorId]] = None,
    fit_options: Optional[FitOptions] = None,
) -> BlockResult:
    """The results of replications ``reps``, drawn, fitted and estimated
    as one block.

    All draws of a scenario share the design, so the block's responses are
    drawn in one pass (``draw_block``), fitted in lockstep
    (``fit_block``), and the converged ones are estimated and tested
    together.  An estimate with a tested SE that is not positive cannot be
    tested: it is not computable, with reason ``ZeroSE``.  A replication's
    row does not depend on the block it is run in.
    """
    scen = spec.scenario
    if intercept is None:
        intercept = calibrate_intercept(scen)
    try:
        design, y, invalid = draw_block(scen, reps, intercept)
    except ValueError as exc:
        raise ConfigError(f"scenario {spec.id}: {exc}") from exc
    ids, idx = estimator_columns(estimators), [_COEF_INDEX[name] for name in spec.test_coefs]
    n, e, t = len(invalid), len(ids), len(idx)
    block = BlockResult(
        invalid, np.zeros(n, bool), np.zeros(n, int), np.full(n, NO_VALID_DRAW, object),
        np.full((n, design.p), np.nan), np.zeros((n, e), bool), np.full((n, e), None, object),
        np.full((n, e, t), np.nan), np.zeros((n, e, t), bool),
    )
    drawn = np.flatnonzero(invalid < MAX_ATTEMPTS)
    if drawn.size:
        result = fit_block(design, y[drawn], _working_model(scen), fit_options or FitOptions())
        block.converged[drawn] = result.converged
        block.iterations[drawn] = result.iterations
        block.reason[drawn] = result.diverged_reason
    if not block.converged.any():
        return block
    fitted = np.flatnonzero(result.converged)
    conv = drawn[fitted]
    block.beta[conv] = result.beta[fitted]
    _, se, ok, why = estimator_table(result.kernel.take(fitted), ids)
    se = se[..., idx]
    testable = np.all(se > 0, axis=-1)
    why[ok & ~testable] = ZERO_SE
    ok &= testable
    se[~ok] = np.nan
    crit = t_critical(wald_dof(design.n_clusters, design.p), TEST_LEVEL)
    block.computable[conv], block.why[conv], block.se[conv] = ok, why, se
    # a NaN SE compares false: only computable estimates can reject
    block.reject[conv] = np.abs(block.beta[conv][:, None, idx] / se) > crit
    return block


def _cells(pairs: list, ses: np.ndarray, rejects: np.ndarray, sim_se: dict) -> list:
    """The EstimatorCells of (estimator, coefficient) ``pairs`` that are
    computable on the same n replications, from one contiguous row of SEs
    and of 0/1 reject flags per pair (len(pairs), n); every metric is None
    when n is 0.  Skewness is m3 / m2^{3/2} from the central moments."""
    n_comp = ses.shape[-1]
    if n_comp == 0:
        return [EstimatorCell(tag, name, 0) for tag, name in pairs]
    rate = rejects.mean(axis=-1).tolist()
    med = np.median(ses, axis=-1).tolist()
    mean_se = ses.mean(axis=-1)
    spread = np.ptp(ses, axis=-1).tolist()
    p95, p99 = np.percentile(ses, [95, 99], axis=-1).tolist()
    sd = np.std(ses, axis=-1, ddof=1).tolist() if n_comp > 1 else None
    if n_comp > 2:
        d = ses - mean_se[:, None]
        m3, m2 = np.mean(d**3, axis=-1), np.mean(d**2, axis=-1)
    mean_se = mean_se.tolist()
    cells = []
    for i, (tag, name) in enumerate(pairs):
        if n_comp <= 2:
            skew = None
        elif spread[i] <= 1e-12 * max(mean_se[i], 1e-300):
            skew = 0.0
        else:
            # scalar power: an array power may take another (SIMD) path
            skew = float(m3[i] / m2[i] ** 1.5)
        sim = sim_se[name]
        cells.append(EstimatorCell(
            estimator=tag,
            coefficient=name,
            n_computable=n_comp,
            rejection_rate=rate[i],
            mc_se=math.sqrt(rate[i] * (1.0 - rate[i]) / n_comp),
            median_se_ratio=med[i] / sim if sim > 0 else None,
            cv_se=sd[i] / mean_se[i] if n_comp > 1 else None,
            skewness_se=skew,
            p95_over_p50=p95[i] / med[i],
            p99_over_p50=p99[i] / med[i],
        ))
    return cells


def aggregate(
    blocks: Sequence[BlockResult],
    spec: ScenarioSpec,
    estimators: Optional[Sequence[EstimatorId]] = None,
    min_converged: int = 100,
) -> ScenarioResult:
    """Reduce a scenario's blocks, in replication order, to per-cell
    operating characteristics; their estimator columns are ``estimators``
    (default all), each once.

    The estimators computable on the same replications are reduced
    together, with one axis-wise call per statistic."""
    b_eff = sum(int(np.count_nonzero(b.converged)) for b in blocks)
    need = max(min_converged, 1)
    if b_eff < need:
        raise TooFewConverged(f"{spec.id}: only {b_eff} converged replications (need {need})")
    block = BlockResult(*map(np.concatenate, zip(*blocks)))
    betas, computable, ses, rejects = (
        a[block.converged] for a in (block.beta, block.computable, block.se, block.reject)
    )
    sim_se = {name: float(np.std(betas[:, _COEF_INDEX[name]], ddof=1)) for name in spec.test_coefs}

    # estimator columns grouped by the replications they are computable on
    names = [est.name for est in estimator_columns(estimators)]
    groups = {}
    for col, usable in enumerate(computable.T):
        groups.setdefault(usable.tobytes(), []).append(col)
    cells = {}
    for cols in groups.values():
        usable = computable[:, cols[0]]
        pairs = [(names[col], name) for col in cols for name in spec.test_coefs]
        # one contiguous row of SEs and of 0/1 reject flags per pair (a
        # strided row would be reduced in another order)
        se, reject = (
            np.ascontiguousarray(a[usable][:, cols].transpose(1, 2, 0), float)
            .reshape(len(pairs), -1)
            for a in (ses, rejects)
        )
        cells.update(zip(pairs, _cells(pairs, se, reject, sim_se)))
    return ScenarioResult(
        scenario_id=spec.id,
        b_total=len(block.converged),
        b_effective=b_eff,
        convergence_rate=b_eff / len(block.converged),
        invalid_draws=int(block.invalid.sum()),
        sim_se=sim_se,
        cells=tuple(cells[name, coef] for name in names for coef in spec.test_coefs),
    )


def effective_workers(requested: int) -> int:
    """Requested worker count capped by the PGEE_THREADS environment variable."""
    cap = os.environ.get("PGEE_THREADS")
    if cap:
        try:
            requested = min(requested, int(cap))
        except ValueError:
            raise ConfigError(f"PGEE_THREADS must be an integer, got {cap!r}") from None
    return max(1, requested)


def run_grid(
    specs: Sequence[ScenarioSpec],
    reps: int,
    workers: int = 1,
    estimators: Optional[Sequence[EstimatorId]] = None,
    min_converged: int = 100,
) -> list:
    """Run every scenario in a grid; deterministic for any worker count.

    Every intercept is calibrated first, in this process.  A job is a block
    of BLOCK_SIZE consecutive replications of one scenario, in (scenario,
    block) order; up to ``effective_workers(workers)`` jobs run at once, in
    one process pool with no more processes than jobs, or here at one
    worker.  Each scenario is aggregated as soon as its blocks are in, and
    an error cancels the pending jobs."""
    intercepts = [calibrate_intercept(spec.scenario) for spec in specs]
    blocks = [range(start, min(start + BLOCK_SIZE, reps)) for start in range(0, reps, BLOCK_SIZE)]
    # run_block's spec, reps and intercept, one entry per job
    jobs = ([spec for spec in specs for _ in blocks], blocks * len(specs),
            [intercept for intercept in intercepts for _ in blocks])
    workers = min(effective_workers(workers), len(specs) * len(blocks))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        done = (pool.map if pool else map)(partial(run_block, estimators=estimators), *jobs)
        return [aggregate(list(itertools.islice(done, len(blocks))), spec, estimators,
                          min_converged=min_converged) for spec in specs]
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def run_scenario(spec: ScenarioSpec, reps: int, **options) -> ScenarioResult:
    """All replications of one scenario: ``run_grid([spec], reps, **options)[0]``."""
    return run_grid([spec], reps, **options)[0]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def results_csv(results: Sequence[ScenarioResult]) -> str:
    """Render the results table; one row per scenario x estimator x coefficient."""
    lines = [",".join(RESULTS_COLUMNS)]
    for res in results:
        tail = [_fmt(getattr(res, name)) for name in _RESULT_COLUMNS]
        for cell in res.cells:
            row = [res.scenario_id, *(_fmt(getattr(cell, name)) for name in _CELL_COLUMNS), *tail]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def summary_json(
    specs: Sequence[ScenarioSpec],
    results: Sequence[ScenarioResult],
    base_seed: int,
    reps: int,
) -> str:
    """Grid metadata: seeds, scenario parameters, convergence census."""
    scenarios = []
    for spec, res in zip(specs, results):
        entry = {f.name: getattr(spec.scenario, f.name) for f in fields(Scenario)}
        entry.update(
            id=spec.id,
            tested=spec.test_coefs,
            b_total=res.b_total,
            b_effective=res.b_effective,
            convergence_rate=res.convergence_rate,
            invalid_draws=res.invalid_draws,
            sim_se=res.sim_se,
            mc_se_bound_nominal=math.sqrt(
                TEST_LEVEL * (1 - TEST_LEVEL) / max(res.b_effective, 1)
            ),
        )
        scenarios.append(entry)
    payload = {
        "schema_version": "1",
        "base_seed": base_seed,
        "reps": reps,
        "test_level": TEST_LEVEL,
        "scenarios": scenarios,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _scenario_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((base_seed, index)).generate_state(1, np.uint64)[0])


def _parse_beta(token: str) -> float:
    if token.strip().lower() == "log2":
        return math.log(2.0)
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"bad coefficient value {token!r}") from None


#: Grid keys, in the order their values expand, and their defaults; None
#: marks a required key and an empty ``working`` means the true structure.
_GRID_KEYS = {
    "N": None,
    "n": "4",
    "event_rate": None,
    "rho": None,
    "true": None,
    "working": "",
    "gamma": "0.3",
    "beta1": "0",
    "beta2": "0.2",
    "model": "full",
    "test": "beta1",
}


def parse_config(text: str, base_seed: int) -> list:
    """Expand an INI-style grid config into scenario specs.

    Every section is a block; whitespace-separated values expand by
    Cartesian product, in the order of ``_GRID_KEYS``, whose defaults
    apply to absent keys.  A key given no value is parsed as the empty
    value (so only ``working`` accepts it).
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.optionxform = str  # keep key case: N (clusters) vs n (sizes)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not cp.sections():
        raise ConfigError("config has no scenario blocks")

    specs = []
    for section in cp.sections():
        block = dict(cp[section])
        unknown = set(block) - set(_GRID_KEYS)
        if unknown:
            raise ConfigError(f"[{section}]: unknown keys {sorted(unknown)}")
        for key, default in _GRID_KEYS.items():
            if default is None and key not in block:
                raise ConfigError(f"[{section}]: missing {key}")
        tokens = [block.get(key, default).split() or [""] for key, default in _GRID_KEYS.items()]
        for combo in itertools.product(*tokens):
            v = dict(zip(_GRID_KEYS, combo))
            try:
                scenario = Scenario(
                    n_clusters=int(v["N"]),
                    n_pattern=v["n"],
                    event_rate=float(v["event_rate"]),
                    rho=float(v["rho"]),
                    true_structure=v["true"],
                    working_structure=v["working"] or v["true"],
                    gamma=float(v["gamma"]),
                    beta1=_parse_beta(v["beta1"]),
                    beta2=_parse_beta(v["beta2"]),
                    model=v["model"],
                    seed=_scenario_seed(base_seed, len(specs)),
                )
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"[{section}]: {exc}") from exc
            spec_id = (
                f"{section}-N{v['N']}-n{v['n'].replace('/', 'x')}-er{v['event_rate']}"
                f"-rho{v['rho']}-t_{scenario.true_structure}-w_{scenario.working_structure}"
                f"-b1_{scenario.beta1:g}-b2_{scenario.beta2:g}"
                f"-g{scenario.gamma:g}-{v['model']}"
            )
            specs.append(
                ScenarioSpec(id=spec_id, scenario=scenario, test_coefs=tuple(v["test"].split(",")))
            )
    return specs
