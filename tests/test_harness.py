"""Monte Carlo harness: block results, aggregation, config expansion, determinism."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgee import (
    EstimatorId,
    FitOptions,
    Scenario,
    ScenarioSpec,
    aggregate,
    calibrate_intercept,
    generate_dataset,
    parse_config,
    results_csv,
    run_grid,
    run_replication,
    run_scenario,
    summary_json,
    wald_test,
)
from pgee.errors import ConfigError, TooFewConverged
from pgee.harness import (
    BLOCK_SIZE,
    MAX_ATTEMPTS,
    RESULTS_COLUMNS,
    TEST_LEVEL,
    BlockResult,
    EstimatorCell,
    _working_model,
    block_records,
    draw_block,
    run_block,
)
from pgee.datagen import ClfDesign
from pgee.fitting import fit_block

from oracle import literal_cells, literal_clf_dataset, literal_fit

FAST_ESTIMATORS = [EstimatorId.LZ, EstimatorId.KC, EstimatorId.AR, EstimatorId.PAN]


def _all_invalid(design, unif):
    """A ``ClfDesign.draw`` in which every draw is invalid."""
    return np.zeros_like(unif), np.ones(len(unif), bool)


def _spec(**kw):
    base = dict(
        n_clusters=10,
        n_pattern=(4,),
        event_rate=0.2,
        rho=0.2,
        true_structure="exchangeable",
        working_structure="exchangeable",
        beta1=0.0,
        beta2=0.2,
        seed=101,
    )
    base.update(kw)
    return ScenarioSpec(id="unit", scenario=Scenario(**base), test_coefs=("beta1",))


class TestRunReplication:
    def test_record_shape(self):
        rec = run_replication(_spec(), 0, estimators=FAST_ESTIMATORS)
        assert rec["rep"] == 0
        assert rec["converged"]
        assert len(rec["beta"]) == 3
        lz = rec["estimators"]["LZ"]
        assert lz["computable"]
        assert len(lz["se"]) == 1 and len(lz["reject"]) == 1
        block = run_block(_spec(), range(5), estimators=[*FAST_ESTIMATORS, EstimatorId.LZ])
        shapes = [a.shape for a in block]
        assert shapes == [(5,)] * 4 + [(5, 3), (5, 4), (5, 4), (5, 4, 1), (5, 4, 1)]

    def test_unbalanced_flags_pooling(self):
        block = run_block(_spec(n_pattern=(2, 6)), range(4), estimators=FAST_ESTIMATORS)
        assert block.converged.all()
        pan = FAST_ESTIMATORS.index(EstimatorId.PAN)
        assert not block.computable[:, pan].any()
        assert set(block.why[:, pan]) == {"UnbalancedPooling"}
        assert np.isnan(block.se[:, pan]).all() and not block.reject[:, pan].any()

    def test_reject_flag_matches_level(self):
        # the block rejects by critical value; each flag is the p-value test
        spec = ScenarioSpec(id="both", scenario=_spec(beta1=math.log(2)).scenario,
                            test_coefs=("beta1", "beta2"))
        block = run_block(spec, range(64), estimators=FAST_ESTIMATORS)
        ok = block.computable
        assert ok.any() and not block.reject[~ok].any()
        beta = np.broadcast_to(block.beta[:, None, 1:], block.se.shape)
        wr = wald_test(beta[ok], block.se[ok], 10, 3)
        assert np.array_equal(block.reject[ok], wr.p_value < TEST_LEVEL)
        assert 0 < block.reject.sum() < block.reject[ok].size

    def test_tests_both_coefficients_when_asked(self):
        spec = ScenarioSpec(
            id="both", scenario=_spec().scenario, test_coefs=("beta1", "beta2")
        )
        rec = run_replication(spec, 0, estimators=[EstimatorId.LZ])
        assert len(rec["estimators"]["LZ"]["se"]) == 2
        assert run_block(spec, [0], estimators=[EstimatorId.LZ]).se.shape == (1, 1, 2)

    def test_reason_is_recorded(self, monkeypatch):
        rec = run_replication(_spec(), 0, estimators=FAST_ESTIMATORS)
        assert rec["reason"] is None and rec["iterations"] > 0
        rec = run_replication(_spec(), 0, fit_options=FitOptions(max_iter=2))
        assert not rec["converged"] and rec["reason"] == "max_iter"
        assert "beta" not in rec
        monkeypatch.setattr(ClfDesign, "draw", _all_invalid)
        rec = run_replication(_spec(), 0)
        assert rec["invalid"] == MAX_ATTEMPTS
        assert not rec["converged"] and rec["reason"] == "no_valid_draw"
        block = run_block(_spec(), [0, 1])
        assert block.invalid.tolist() == [MAX_ATTEMPTS] * 2
        assert not block.converged.any() and block.reason.tolist() == ["no_valid_draw"] * 2
        assert np.isnan(block.beta).all() and not block.computable.any()


#: Cells of the block parity test, each with a max_iter that leaves some
#: replications of the block converged and stops the others at max_iter.
_PARITY_CELLS = {
    # negative correlation at a 60% event rate: some draws are invalid
    "balanced": (dict(event_rate=0.6, rho=-0.2), 7),
    # pooling estimators are not computable on unbalanced clusters
    "unbalanced": (dict(n_pattern=(2, 6)), 8),
    "ar1": (
        dict(n_clusters=20, n_pattern=(6,), true_structure="ar1", working_structure="ar1"),
        6,
    ),
}


@pytest.mark.parametrize("cell", sorted(_PARITY_CELLS))
def test_block_matches_single_replications(cell):
    kw, max_iter = _PARITY_CELLS[cell]
    spec = _spec(**kw)
    # one block of 64, each replication of it rerun alone: every row of the
    # block, as a dict, is the record of run_replication
    reps = range(3, 3 + 64)
    seen = set()
    for opts in (FitOptions(), FitOptions(max_iter=max_iter)):
        block = run_block(spec, reps, fit_options=opts)
        for rec in block_records(block, reps):
            one = run_replication(spec, rec["rep"], fit_options=opts)
            assert rec == one, rec["rep"]
            assert pickle.dumps(rec) == pickle.dumps(one), rec["rep"]
            seen.add(rec["reason"])
            seen.add("invalid" if rec["invalid"] else "valid")
            seen.update(e["reason"] for e in rec.get("estimators", {}).values())
    assert {None, "max_iter"} <= seen
    if cell == "balanced":
        assert {"invalid", "valid"} <= seen
    if cell == "unbalanced":
        assert "UnbalancedPooling" in seen


#: Replications of the unbalanced 2/6 scenario of a grid at base seed 1
#: that run to max_iter with every halving tried, accepting a later
#: halving that improves or the first best of them all.
_STRAGGLER_CONFIG = "[unbalanced]\nN = 10\nn = 2/6\nevent_rate = 0.2\nrho = 0.2\ntrue = exchangeable\n"
_STRAGGLERS = (345, 431, 1007)

#: A rare-event cell whose unpenalized fits stop by convergence, at
#: beta_cap and at max_iter: at these max_iter a convergence and a
#: beta_cap stop the loop in the same iteration, and other replications
#: stop in other iterations.
_STOPS_CELL = (dict(event_rate=0.1), (8, 12))


@pytest.mark.parametrize("cell", [*sorted(_PARITY_CELLS), "stragglers", "stops"])
def test_fit_block_matches_literal_fit(cell):
    # the block drops each replication from its state when it stops, so
    # every stop, alone or with others, must leave the others' fits as
    # they are alone; unpenalized, the unbalanced cell's rep 37 stops at
    # an alpha refresh whose information is ill-conditioned
    if cell == "stragglers":
        spec = parse_config(_STRAGGLER_CONFIG, base_seed=1)[0]
        reps, options = _STRAGGLERS, (FitOptions(),)
    elif cell == "stops":
        kw, max_iters = _STOPS_CELL
        spec = _spec(**kw)
        reps, options = range(3, 51), tuple(FitOptions(penalized=False, max_iter=m) for m in max_iters)
    else:
        kw, max_iter = _PARITY_CELLS[cell]
        spec = _spec(**kw)
        reps = range(3, 51)
        options = (FitOptions(), FitOptions(max_iter=max_iter), FitOptions(penalized=False))
    scen = spec.scenario
    design, y, invalid = draw_block(scen, reps, calibrate_intercept(scen))
    y = y[invalid < MAX_ATTEMPTS]
    wms = [_working_model(scen)]
    if cell != "stragglers":
        wms.append(dataclasses.replace(wms[0], dispersion="pearson-plugin"))
    steps = set()
    for wm in wms:
        for opts in options:
            res = fit_block(design, y, wm, opts)
            for r, yr in enumerate(y):
                ref = literal_fit(design, yr, wm, opts)
                assert np.array_equal(res.beta[r], ref.beta), r
                got = (res.alpha[r], res.phi[r], res.converged[r], res.iterations[r],
                       res.diverged_reason[r])
                assert got == (ref.alpha, ref.phi, ref.converged, ref.iterations, ref.reason), r
                if ref.kernel is not None:
                    assert np.array_equal(res.kernel.info_inv[r], ref.kernel.info_inv[0]), r
                    assert np.array_equal(res.kernel.score[r], ref.kernel.score[0]), r
                steps.update((h > 0, improved) for h, improved in ref.steps if h is not None)
            if cell == "stops":
                reasons = {}
                for it, why in zip(res.iterations, res.diverged_reason):
                    reasons.setdefault(it, set()).add(why)
                assert set().union(*reasons.values()) >= {None, "beta_cap", "max_iter"}
                assert any({None, "beta_cap"} <= why for why in reasons.values())
                assert len(reasons) > 1
    if cell == "stragglers":
        assert set(res.diverged_reason) == {"max_iter"}
        assert {(True, True), (True, False)} <= steps


def test_aggregate_matches_literal_cells():
    # estimators that share a computable set are reduced together: two
    # tested coefficients, the pooling estimators (UnbalancedPooling),
    # ZeroSE entries and cells of 0, 1 and 2 computable replications
    spec = ScenarioSpec(
        id="cells", scenario=_spec(n_pattern=(2, 6)).scenario, test_coefs=("beta1", "beta2")
    )
    estimators = list(EstimatorId)
    blocks = [run_block(spec, range(0, 25)), run_block(spec, range(25, 40))]
    converged = [(b, k) for b in blocks for k in np.flatnonzero(b.converged)]

    def zero_se(b, k, tag):
        col = estimators.index(EstimatorId[tag])
        b.computable[k, col], b.why[k, col], b.se[k, col] = False, "ZeroSE", np.nan
        b.reject[k, col] = False

    for tag, keep in (("LZ", {0}), ("DF", {3, 5}), ("KC", set())):
        for i, (b, k) in enumerate(converged):
            if i not in keep:
                zero_se(b, k, tag)
    zero_se(*converged[7], "MD")
    res = aggregate(blocks, spec, estimators, min_converged=10)
    assert pickle.dumps(res.cells) == pickle.dumps(literal_cells(blocks, spec, estimators))
    n = {c.estimator: c.n_computable for c in res.cells}
    assert (n["LZ"], n["DF"], n["KC"], n["PAN"]) == (1, 2, 0, 0)
    assert n["MD"] == len(converged) - 1


class TestDrawDataset:
    """One replication's dataset is ``draw_block`` on a block of one."""

    def test_regenerates_on_next_substream(self):
        # negative correlation at a 60% event rate makes some draws invalid
        scen = Scenario(
            n_clusters=30, n_pattern=(5,), event_rate=0.6, rho=-0.2, model="reduced", seed=7
        )
        intercept = calibrate_intercept(scen)

        def attempt(a):
            rng = np.random.default_rng(np.random.SeedSequence((scen.seed, 2, a)))
            return generate_dataset(scen, rng, intercept=intercept)

        _, y, (invalid,) = draw_block(scen, [2], intercept)
        assert invalid > 0
        assert all(attempt(a) is None for a in range(invalid))
        assert y[0].tobytes() == attempt(invalid).y.tobytes()

    def test_gives_up_after_max_attempts(self, monkeypatch):
        calls = []

        def counted(design, unif):
            calls.append(len(unif))
            return _all_invalid(design, unif)

        monkeypatch.setattr(ClfDesign, "draw", counted)
        _, _, invalid = draw_block(_spec().scenario, [0], 0.0)
        assert invalid.tolist() == [MAX_ATTEMPTS]
        assert calls == [1] * MAX_ATTEMPTS


#: Cells of the block-draw comparison.  "retry" (seed 11) has invalid
#: draws in replications 0-31, so part of its block retries.
_DRAW_CELLS = {
    "balanced": dict(n_clusters=10, n_pattern=(4,), beta1=math.log(2)),
    "unbalanced-2/6": dict(n_clusters=10, n_pattern=(2, 6)),
    "ar1": dict(n_clusters=20, n_pattern=(6,), true_structure="ar1"),
    "reduced": dict(n_clusters=15, n_pattern=(5,), model="reduced", beta1=0.7),
    "retry": dict(n_clusters=10, n_pattern=(2, 8), event_rate=0.1, rho=0.7, seed=11),
}


@pytest.mark.parametrize("cell", list(_DRAW_CELLS))
def test_block_draw_matches_one_dataset_per_replication(cell):
    scen = Scenario(**{"event_rate": 0.2, "rho": 0.2, "seed": 31, **_DRAW_CELLS[cell]})
    intercept = calibrate_intercept(scen)
    reps = range(0, BLOCK_SIZE)
    design, y, invalid = draw_block(scen, reps, intercept)
    for k, rep in enumerate(reps):
        def attempt(a, f):
            rng = np.random.default_rng(np.random.SeedSequence((scen.seed, rep, a)))
            return f(scen, rng, intercept)

        for f in (generate_dataset, literal_clf_dataset):
            assert all(attempt(a, f) is None for a in range(invalid[k])), (rep, f)
            one = attempt(invalid[k], f)
            assert one.y.tobytes() == y[k].tobytes(), (rep, f)
            assert one.X.tobytes() == design.X.tobytes()
            assert one.ids == design.ids
    if cell == "retry":
        assert invalid.sum() > 0


def _lz_block(n=120, converged=None, reject=False, se=1.0, tested=1, columns=1):
    """Block of n replications with ``columns`` estimator columns and
    ``tested`` tested coefficients: beta1 = sin(r), every converged
    replication computable with the given SE and reject flag."""
    conv = np.ones(n, bool) if converged is None else np.array(converged)
    beta = np.zeros((n, 3))
    beta[:, 1] = np.sin(np.arange(n))
    beta[~conv] = np.nan
    shape = (n, columns, tested)
    return BlockResult(
        invalid=np.zeros(n, int), converged=conv, iterations=np.ones(n, int),
        reason=np.full(n, None, dtype=object), beta=beta,
        computable=np.repeat(conv[:, None], columns, axis=1),
        why=np.full((n, columns), None, dtype=object),
        se=np.where(conv[:, None, None], np.full(shape, se), np.nan),
        reject=np.full(shape, reject) & conv[:, None, None],
    )


class TestAggregate:
    def test_all_reject_flags_false_gives_zero(self):
        res = aggregate([_lz_block()], _spec(), estimators=[EstimatorId.LZ])
        cell = res.cells[0]
        assert cell.rejection_rate == 0.0
        assert cell.n_computable == 120

    def test_constant_se_equal_simse(self):
        sim_se = np.std(_lz_block().beta[:, 1], ddof=1)
        res = aggregate([_lz_block(se=sim_se)], _spec(), estimators=[EstimatorId.LZ])
        cell = res.cells[0]
        assert cell.median_se_ratio == pytest.approx(1.0)
        assert cell.cv_se == pytest.approx(0.0, abs=1e-12)
        assert cell.p95_over_p50 == pytest.approx(1.0)

    def test_too_few_converged(self):
        conv = [r < 50 for r in range(120)]
        with pytest.raises(TooFewConverged):
            aggregate([_lz_block(converged=conv)], _spec(), estimators=[EstimatorId.LZ])

    def test_no_converged_replications_raise(self):
        # even when no minimum is asked for, there is nothing to aggregate
        block = _lz_block(n=3, converged=[False] * 3)
        with pytest.raises(TooFewConverged):
            aggregate([block], _spec(), estimators=[EstimatorId.LZ], min_converged=0)
        with pytest.raises(TooFewConverged):
            aggregate([], _spec(), estimators=[EstimatorId.LZ], min_converged=0)

    def test_non_converged_excluded_everywhere(self):
        conv = [r % 2 == 0 for r in range(300)]
        blocks = [_lz_block(n=256, converged=conv[:256]), _lz_block(n=44, converged=conv[256:])]
        res = aggregate(blocks, _spec(), estimators=[EstimatorId.LZ])
        assert res.b_effective == 150
        assert res.convergence_rate == pytest.approx(0.5)
        assert res.cells[0].n_computable == 150

    def test_two_coefficients_and_an_incomputable_estimator(self):
        spec = ScenarioSpec(
            id="two", scenario=_spec().scenario, test_coefs=("beta1", "beta2")
        )
        block = _lz_block(tested=2, columns=2)
        r = np.arange(120)
        block.beta[:, 2] = np.cos(r)
        block.se[:, 0, 0], block.se[:, 0, 1] = 1.0 + r % 3, 2.0
        block.reject[:, 0, 0] = r % 4 == 0
        block.computable[:, 1], block.why[:, 1] = False, "UnbalancedPooling"
        block.se[:, 1], block.reject[:, 1] = np.nan, False
        res = aggregate([block], spec, estimators=[EstimatorId.LZ, EstimatorId.PAN])
        assert [(c.estimator, c.coefficient) for c in res.cells] == [
            ("LZ", "beta1"), ("LZ", "beta2"), ("PAN", "beta1"), ("PAN", "beta2")
        ]
        lz1, lz2, *pan = res.cells
        assert (lz1.n_computable, lz1.rejection_rate) == (120, 0.25)
        assert lz1.median_se_ratio == pytest.approx(2.0 / res.sim_se["beta1"])
        assert (lz2.rejection_rate, lz2.cv_se, lz2.skewness_se) == (0.0, 0.0, 0.0)
        assert lz2.median_se_ratio == pytest.approx(2.0 / res.sim_se["beta2"])
        for cell in pan:
            assert cell.n_computable == 0
            assert all(getattr(cell, f.name) is None for f in dataclasses.fields(cell)[3:])
        rows = results_csv([res]).splitlines()
        assert rows[3].startswith("two,PAN,beta1,0," + "," * 6)
        assert len(rows[3].split(",")) == len(RESULTS_COLUMNS)

    def test_mc_se_bound(self):
        res = aggregate([_lz_block()], _spec(), estimators=[EstimatorId.LZ])
        cell = res.cells[0]
        assert cell.mc_se == pytest.approx(0.0)  # rate 0 -> zero binomial SE
        # at B = 5000 the binomial SE of a rate near 0.05 stays within 0.0031
        assert math.sqrt(0.05 * 0.95 / 5000) <= 0.0031


class TestConfig:
    CORE = """
[core-null]
N = 10 20 30 50
event_rate = 0.1 0.2 0.3
rho = 0.05 0.1 0.2 0.3
true = exchangeable ar1
"""

    MISSPEC = """
[misspec-ar1-truth]
N = 10 20 30 50
event_rate = 0.1 0.2
rho = 0.2
true = ar1
working = exchangeable

[misspec-exch-truth]
N = 10 20 30 50
event_rate = 0.1 0.2
rho = 0.2
true = exchangeable
working = ar1
"""

    def test_core_grid_size(self):
        specs = parse_config(self.CORE, base_seed=1)
        assert len(specs) == 96
        assert len({s.id for s in specs}) == 96
        assert len({s.scenario.seed for s in specs}) == 96

    def test_misspec_grid_size(self):
        specs = parse_config(self.MISSPEC, base_seed=1)
        assert len(specs) == 16
        assert all(s.scenario.true_structure != s.scenario.working_structure for s in specs)

    def test_defaults_applied(self):
        specs = parse_config(
            "[a]\nN = 10\nevent_rate = 0.2\nrho = 0.2\ntrue = exchangeable\n",
            base_seed=0,
        )
        scen = specs[0].scenario
        assert scen.n_pattern == (4,)
        assert scen.gamma == 0.3
        assert scen.beta2 == 0.2
        assert specs[0].test_coefs == ("beta1",)

    def test_pattern_and_log2(self):
        text = (
            "[b]\nN = 10\nn = 2/6\nevent_rate = 0.2\nrho = 0.2\n"
            "true = exchangeable\nbeta1 = log2\ntest = beta1,beta2\n"
        )
        spec = parse_config(text, base_seed=0)[0]
        assert spec.scenario.n_pattern == (2, 6)
        assert spec.scenario.beta1 == pytest.approx(math.log(2))
        assert spec.test_coefs == ("beta1", "beta2")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[a]\nN = 10\nevent_rate=0.2\nrho=0.2\ntrue=exchangeable\nfoo=1\n", 0)

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[a]\nN = 10\nrho = 0.2\ntrue = exchangeable\n", 0)

    def test_same_seed_same_scenario_seeds(self):
        a = parse_config(self.CORE, base_seed=5)
        b = parse_config(self.CORE, base_seed=5)
        assert [s.scenario.seed for s in a] == [s.scenario.seed for s in b]
        c = parse_config(self.CORE, base_seed=6)
        assert [s.scenario.seed for s in a] != [s.scenario.seed for s in c]


class TestDeterminism:
    TINY = """
[tiny]
N = 10
event_rate = 0.2
rho = 0.2
true = exchangeable
"""

    def test_same_run_identical_output(self):
        specs = parse_config(self.TINY, base_seed=3)
        r1 = run_grid(specs, reps=60, workers=1, estimators=FAST_ESTIMATORS, min_converged=30)
        r2 = run_grid(specs, reps=60, workers=1, estimators=FAST_ESTIMATORS, min_converged=30)
        assert results_csv(r1) == results_csv(r2)
        assert summary_json(specs, r1, 3, 60) == summary_json(specs, r2, 3, 60)

    def test_worker_count_invariance(self):
        # one whole block and part of the next
        specs = parse_config(self.TINY, base_seed=3)
        reps = BLOCK_SIZE + 8
        kw = dict(reps=reps, estimators=FAST_ESTIMATORS, min_converged=20)
        serial = run_grid(specs, workers=1, **kw)
        parallel = run_grid(specs, workers=2, **kw)
        assert results_csv(serial) == results_csv(parallel)
        assert summary_json(specs, serial, 3, reps) == summary_json(specs, parallel, 3, reps)

    def test_worker_env_cap(self, monkeypatch):
        from pgee.harness import effective_workers

        monkeypatch.setenv("PGEE_THREADS", "2")
        assert effective_workers(8) == 2
        monkeypatch.delenv("PGEE_THREADS")
        assert effective_workers(8) == 8


class TestScenarioRun:
    def test_power_at_least_size(self):
        # sanity: at matched settings the alternative rejects at least as
        # often as the null, within two Monte Carlo standard errors
        null_spec = _spec(seed=2024)
        alt_spec = _spec(seed=2024, beta1=math.log(2))
        null_res = run_scenario(null_spec, 250, estimators=[EstimatorId.LZ], min_converged=100)
        alt_res = run_scenario(alt_spec, 250, estimators=[EstimatorId.LZ], min_converged=100)
        null_rate = null_res.cells[0].rejection_rate
        alt_rate = alt_res.cells[0].rejection_rate
        slack = 2 * math.sqrt(max(null_rate, 0.05) * 0.95 / 250)
        assert alt_rate >= null_rate - slack

    def test_run_scenario_end_to_end(self):
        res = run_scenario(_spec(), reps=60, estimators=FAST_ESTIMATORS, min_converged=30)
        assert res.b_total == 60
        assert res.b_effective >= 55
        lz = [c for c in res.cells if c.estimator == "LZ"][0]
        assert 0.0 <= lz.rejection_rate <= 1.0
        assert lz.median_se_ratio > 0

    def test_results_csv_schema(self):
        res = run_scenario(_spec(), reps=60, estimators=FAST_ESTIMATORS, min_converged=30)
        text = results_csv([res])
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert tuple(header) == RESULTS_COLUMNS == (
            "scenario",
            *(f.name for f in dataclasses.fields(EstimatorCell)),
            "b_effective",
            "convergence_rate",
            "invalid_draws",
        )
        assert len(lines) == 1 + len(FAST_ESTIMATORS)  # one tested coefficient
        pan_row = [l for l in lines if ",PAN," in l][0]
        assert pan_row.count(",") == len(header) - 1


_CONFIG_GOOD = {"N": "10", "n": "2/6", "event_rate": "0.2", "rho": "0.2",
                "true": "ar1", "working": "ind", "gamma": "0.3", "beta1": "log2",
                "beta2": "0", "model": "reduced", "test": "beta1"}
_CONFIG_KEYS = [*_CONFIG_GOOD, "foo"]
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["10", "4", "2/6", "0.2", "-1", "0", "1e999", "inf", "nan", "-inf",
                     "log2", "exchangeable", "ar1", "ind", "full", "reduced",
                     "beta1", "beta2,beta1", "%", "%(N)s", "2/", "10 20", "", "0.3",
                     "0.5 1.5"]),
    st.text(alphabet="0123456789.-/%()ae ,", max_size=6),
)


@st.composite
def _config_text(draw):
    lines = []
    sections = st.lists(st.sampled_from(["a", "b", "DEFAULT"]), max_size=3, unique=True)
    for section in draw(sections):
        lines.append(f"[{section}]")
        required = ["N", "event_rate", "rho", "true"] if draw(st.integers(0, 3)) else []
        keys = required + draw(st.lists(st.sampled_from(_CONFIG_KEYS), max_size=6))
        for key in dict.fromkeys(keys):
            # mostly valid values, so that one bad value meets a parsed block
            bad = draw(st.integers(0, 3)) == 0
            lines.append(f"{key} = {draw(_CONFIG_VALUES) if bad else _CONFIG_GOOD.get(key, 1)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(_config_text(), st.text(max_size=40)))
@example(text="[a]\nN = %\n")
@example(text="[a]\nN = 10\nevent_rate = 0.2\nrho = 0.2\ntrue = ar1\ngamma = inf\n")
def test_parse_config_fuzz_raises_only_config_errors(text):
    try:
        specs = parse_config(text, base_seed=0)
    except ConfigError:
        return
    assert all(isinstance(s, ScenarioSpec) for s in specs)
