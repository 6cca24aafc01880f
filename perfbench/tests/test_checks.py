"""Each correctness check of the benchmark passes on pgee's output and
rejects a perturbed copy of it.

Run from the repository root (the repository's own test run collects
only ``tests/``):

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import copy
import io
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from pgee import cli  # noqa: E402
from pgee.harness import calibrate_intercept, parse_config, results_csv, run_grid  # noqa: E402
from pgee.variance import estimate_all  # noqa: E402


def _census():
    return {"converged": 0, "not_converged": 0, "invalid": 0, "reasons": Counter()}


def _program_output(result):
    ses, incomputable = {}, {}
    for est, ve in estimate_all(result.kernel).items():
        if ve.computable:
            ses[est.name] = dict(enumerate(float(s) for s in ve.se))
        else:
            incomputable[est.name] = ve.incomputable_reason
    return ses, incomputable


def _dense(dataset, result):
    return reference.DenseFit([c.X for c in dataset.clusters],
                              [c.y for c in dataset.clusters], result.beta,
                              result.kernel.structure, result.alpha, result.phi)


@pytest.fixture(scope="module")
def balanced():
    spec = run.sim_spec("sim-small-null", 1)
    intercept = calibrate_intercept(spec.scenario)
    dataset, _, result = run.draw_and_fit(spec, 0, intercept)
    assert result.converged
    return spec, intercept, dataset, result


@pytest.fixture(scope="module")
def unbalanced():
    spec = parse_config(run.GRID_CONFIG, base_seed=1)[0]
    dataset, _, result = run.draw_and_fit(spec, 0, calibrate_intercept(spec.scenario))
    assert result.converged and not dataset.balanced
    return dataset, result


def test_fit_checks_pass_on_program_output(balanced, unbalanced):
    assert run.check_refit(balanced[2], balanced[3])[0] == []
    assert run.check_refit(*unbalanced)[0] == []


@pytest.mark.parametrize("tag", ["LZ", "DF", "KC", "MD", "FW", "PAN"])
def test_perturbed_standard_error_rejected(balanced, tag):
    dataset, result = balanced[2], balanced[3]
    ses, incomputable = _program_output(result)
    ses[tag][1] *= 1 + 1e-6
    errors = reference.check_fit(_dense(dataset, result), ses, incomputable)
    assert any(e.startswith(f"{tag} SE[0, 1, 2]") for e in errors)


def test_missing_estimator_rejected(balanced):
    dataset, result = balanced[2], balanced[3]
    ses, incomputable = _program_output(result)
    del ses["PAN"]
    incomputable["PAN"] = "UnbalancedPooling"
    assert reference.check_fit(_dense(dataset, result), ses, incomputable)


def test_singular_leverage_claim_rejected_when_leverage_is_not_near_one(balanced):
    dataset, result = balanced[2], balanced[3]
    ses, incomputable = _program_output(result)
    del ses["KC"]
    incomputable["KC"] = "SingularLeverage"
    errors = reference.check_fit(_dense(dataset, result), ses, incomputable)
    assert any(e.startswith("KC: not computable") for e in errors)


def test_pooling_on_unbalanced_data_rejected(unbalanced):
    dataset, result = unbalanced
    ses, incomputable = _program_output(result)
    ses["GST"] = ses["LZ"]
    del incomputable["GST"]
    errors = reference.check_fit(_dense(dataset, result), ses, incomputable)
    assert any("GST: computable on unbalanced" in e for e in errors)


def test_perturbed_hat_block_rejected(balanced):
    dataset, result = balanced[2], balanced[3]
    ses, incomputable = _program_output(result)
    blocks = [result.kernel.hat_block(i) for i in range(dataset.n_clusters)]
    blocks[3] = blocks[3] * (1 + 1e-6)
    errors = reference.check_fit(_dense(dataset, result), ses, incomputable,
                                 hat_blocks=blocks)
    assert any("hat blocks" in e for e in errors)
    assert any("tr(H_ii)" in e for e in errors)


def test_non_root_rejected(balanced):
    dataset, result = balanced[2], balanced[3]
    moved = copy.copy(result)
    object.__setattr__(moved, "beta", result.beta + np.array([0.0, 1e-4, 0.0]))
    ses, incomputable = _program_output(result)
    errors = reference.check_fit(_dense(dataset, moved), ses, incomputable)
    assert any("not a root" in e for e in errors)


def test_root_check_passes_at_program_beta(balanced):
    dataset, result = balanced[2], balanced[3]
    assert np.max(np.abs(_dense(dataset, result).newton_step())) <= reference.ROOT_TOL


def test_full_and_blockwise_hat_agree(balanced, monkeypatch):
    dataset, result = balanced[2], balanced[3]
    full = _dense(dataset, result).H
    monkeypatch.setattr(reference, "FULL_HAT_MAX_ROWS", 0)
    blocks = _dense(dataset, result).H
    assert max(reference.relerr(a, b) for a, b in zip(full, blocks)) < 1e-12


def test_wald_recomputation():
    from scipy.stats import t

    p_val = 2 * t.sf(1.5, 7)
    crit = t.ppf(0.975, 7)
    ci = (0.3 - crit * 0.2, 0.3 + crit * 0.2)
    assert reference.check_wald(0.3, 0.2, 7, p_val, ci) == []
    assert reference.check_wald(0.3, 0.2, 7, p_val * (1 + 1e-8), ci)
    assert reference.check_wald(0.3, 0.2, 7, p_val, (ci[0], ci[1] + 1e-6))


def test_sim_record_checks(balanced):
    spec, intercept, _, _ = balanced
    from pgee.harness import run_replication

    records = {r: run_replication(spec, r, intercept=intercept)
               for r in range(run.CHECK_REPS)}
    assert run.check_sim(spec, intercept, records, _census())[0] == []

    flipped = copy.deepcopy(records)
    entry = flipped[0]["estimators"]["KC"]
    entry["reject"] = [not entry["reject"][0]]
    assert run.check_sim(spec, intercept, flipped, _census())[0]

    moved = copy.deepcopy(records)
    moved[1]["beta"][1] += 1e-12
    assert run.check_sim(spec, intercept, moved, _census())[0]

    wider = copy.deepcopy(records)
    wider[2]["estimators"]["AR"]["se"][0] *= 1 + 1e-12
    assert run.check_sim(spec, intercept, wider, _census())[0]


@pytest.fixture(scope="module")
def fit_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("fit") / "data.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--N", "40", "--n", "2/3/4/5/6/7/8", "--rate",
                         "0.3", "--seed", "5", "--out", str(path)]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["fit", str(path), "--json"])
    return path, out.getvalue()


def test_fit_csv_checks(fit_json):
    path, text = fit_json
    assert run.check_fit_csv({0: text}, [path], _census()) == []

    def perturbed(edit):
        report = json.loads(text)
        edit(report)
        return run.check_fit_csv({0: json.dumps(report)}, [path], _census())

    def se(report):
        report["estimators"]["MD"]["coefficients"]["treat"]["se"] *= 1 + 1e-6

    def pval(report):
        report["estimators"]["LZ"]["coefficients"]["t"]["p"] *= 1 + 1e-6

    def ci(report):
        report["estimators"]["DF"]["coefficients"]["intercept"]["ci"][0] -= 1e-6

    def rho(report):
        report["overcorrection"]["rho"]["treat"] *= 1 + 1e-6

    def beta(report):
        report["beta"]["t"] += 1e-3

    for edit in (se, pval, ci, rho, beta):
        assert perturbed(edit), edit.__name__
    assert run.check_fit_csv({0: text, 4: text.replace("0", "1", 1)}, [path],
                             _census())


def test_results_csv_checks():
    specs = parse_config(run.GRID_CONFIG, base_seed=3)
    text = results_csv(run_grid(specs, 12, min_converged=5))
    scenarios = {s.id: (len(set(s.scenario.n_pattern)) == 1, s.test_coefs)
                 for s in specs}
    tags = list(run.TAGS)
    assert reference.check_results_csv(text, scenarios, tags) == []

    lines = text.splitlines()
    assert reference.check_results_csv("\n".join(lines[:-1]), scenarios, tags)

    header = lines[0].split(",")
    rate = header.index("rejection_rate")
    bad = lines[1].split(",")
    bad[rate] = "1.5"
    assert reference.check_results_csv("\n".join([lines[0], ",".join(bad)] + lines[2:]),
                                       scenarios, tags)

    computable = header.index("n_computable")
    row = next(i for i, ln in enumerate(lines)
               if ln.startswith(specs[0].id + ",PAN,"))
    bad = lines[row].split(",")
    bad[computable] = "3"
    edited = lines[:row] + [",".join(bad)] + lines[row + 1:]
    errors = reference.check_results_csv("\n".join(edited), scenarios, tags)
    assert any("pooling estimator" in e for e in errors)


def test_scaled_times_are_at_reference_speed():
    ref = run.REF_CALIBRATION_S
    # An operation that ran while the calibration took twice its reference
    # time (a machine at half speed) counts half its wall time.
    assert run.scaled([0.2, 0.3], [(2 * ref, 2 * ref), (ref, 3 * ref)]) == pytest.approx(
        [0.1, 0.15])
    assert run.calibrate() > 0.0
