"""Acceptance suite: one test per criterion, printing one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The Monte Carlo cells use fixed seeds, so every
number below is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from pgee import (
    EstimatorId,
    FitOptions,
    Scenario,
    ScenarioSpec,
    WorkingModel,
    assemble_kernel,
    estimate_variance,
    firth_penalty,
    fit,
    overcorrection_diagnostic,
    parse_config,
    results_csv,
    run_grid,
    run_scenario,
    summary_json,
)
from pgee.data import validate_dataset

from conftest import intercept_only_dataset, random_dataset, two_arm_dataset
from oracle import clf_sample, firth_penalty_fd, kernel_literals, with_residuals


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared fitted corpus and Monte Carlo cells


@pytest.fixture(scope="session")
def fitted_corpus():
    """Fifty random converged fits across all three working structures."""
    t0 = time.time()
    rng = np.random.default_rng(987)
    fits = []
    settings = [
        ("exchangeable", "estimate"),
        ("ar1", 0.3),
        ("independence", 0.0),
    ]
    while len(fits) < 50:
        structure, alpha = settings[len(fits) % len(settings)]
        ds = random_dataset(
            rng, n_clusters=int(rng.integers(6, 11)), size_range=(3, 6)
        )
        wm = WorkingModel(structure=structure, alpha=alpha, dispersion=1.0)
        res = fit(ds, wm)
        if res.converged:
            fits.append(res)
    return fits, time.time() - t0


def _run_cell(scenario, reps=1000, coefs=("beta1",)):
    spec = ScenarioSpec(id="acceptance", scenario=scenario, test_coefs=coefs)
    return run_scenario(spec, reps, workers=1)


@pytest.fixture(scope="session")
def cell_type1():
    """N = 10, 10% events, rho 0.2, exchangeable truth and working model."""
    scenario = Scenario(
        n_clusters=10,
        n_pattern=(4,),
        event_rate=0.1,
        rho=0.2,
        true_structure="exchangeable",
        working_structure="exchangeable",
        beta1=0.0,
        beta2=0.2,
        seed=20260808,
    )
    return _run_cell(scenario)


@pytest.fixture(scope="session")
def cell_power():
    """N = 50, 20% events, rho 0.1, treatment odds ratio 2."""
    scenario = Scenario(
        n_clusters=50,
        n_pattern=(4,),
        event_rate=0.2,
        rho=0.1,
        true_structure="exchangeable",
        working_structure="exchangeable",
        beta1=math.log(2),
        beta2=0.2,
        seed=20260811,
    )
    return _run_cell(scenario)


def _cell(res, tag, coef="beta1"):
    return next(c for c in res.cells if c.estimator == tag and c.coefficient == coef)


# ---------------------------------------------------------------------------
# criteria


def test_c01_algebraic_identities(fitted_corpus):
    fits, elapsed = fitted_corpus
    t0 = time.time()
    worst = 0.0
    for res in fits:
        kern = res.kernel
        n_cl, p, n_star = kern.n_clusters, kern.p, kern.n_total

        def gram(rows):
            return sum(np.outer(g, g) for g in rows)

        def relerr(a, b):
            return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)

        v = {
            tag: estimate_variance(kern, EstimatorId[tag]).cov
            for tag in ("LZ", "KC", "MD", "FW", "DF", "AR")
        }
        worst = max(worst, relerr(v["LZ"], gram(kern.corrected(0.0)[0])))
        worst = max(worst, relerr(v["KC"], gram(kern.corrected(0.5)[0])))
        worst = max(worst, relerr(v["MD"], gram(kern.corrected(1.0)[0])))
        worst = max(worst, relerr(v["FW"], 0.5 * (v["KC"] + v["MD"])))
        worst = max(worst, relerr(v["DF"], n_cl / (n_cl - p) * v["LZ"]))
        g = kern.corrected(1.0)[0]
        gbar = np.mean(g, axis=0)
        c_n = (n_star - 1) / (n_star - p) * n_cl / (n_cl - 1)
        worst = max(worst, relerr(v["AR"], c_n * (gram(g) - n_cl * np.outer(gbar, gbar))))
    runtime = elapsed + (time.time() - t0)
    ok = worst < 1e-12 and runtime < 10.0
    _report(1, ok, f"50 fits, worst identity relerr {worst:.2e}, {runtime:.1f}s")
    assert worst < 1e-12
    assert runtime < 10.0


def test_c02_overcorrection_eigenvalues():
    t0 = time.time()
    worst = 0.0
    benchmark = None
    for n0, n1 in ((5, 5), (3, 7), (2, 8)):
        ds = two_arm_dataset(n0, n1)
        kern = assemble_kernel(
            np.array([0.25, -0.35]), "exchangeable", 0.2, 1.0, ds
        )
        diag = overcorrection_diagnostic(kern)
        expected = np.sort([1.0 / (n0 - 1), 1.0 / (n1 - 1)])
        worst = max(worst, float(np.max(np.abs(np.sort(diag.eigenvalues) - expected))))
        if (n0, n1) == (3, 7):
            benchmark = 1.0 + float(np.max(diag.eigenvalues))
    runtime = time.time() - t0
    ok = worst < 1e-8 and abs(benchmark - 1.5) < 1e-8 and runtime < 1.0
    _report(
        2,
        ok,
        f"two-arm eigenvalue err {worst:.2e}, N_min=3 benchmark {benchmark:.6f}, "
        f"{runtime:.2f}s",
    )
    assert worst < 1e-8
    assert benchmark == pytest.approx(1.5, abs=1e-8)
    assert runtime < 1.0


def test_c03_pushthrough_and_trace(fitted_corpus):
    fits, _ = fitted_corpus
    worst_push = 0.0
    worst_trace = 0.0
    for res in fits:
        kern = res.kernel
        total = 0.0
        for i, q in enumerate(kernel_literals(kern)):
            n = q.mu.shape[0]
            hat = kern.hat_block(i)
            total += np.trace(hat)
            lhs = np.linalg.solve(np.eye(n) - hat, q.dmat)
            rhs = q.dmat @ np.linalg.solve(kern.info[0] - kern.infos[0, i], kern.info[0])
            scale = max(np.max(np.abs(rhs)), 1e-300)
            worst_push = max(worst_push, np.max(np.abs(lhs - rhs)) / scale)
        worst_trace = max(worst_trace, abs(total - kern.p))
    ok = worst_push < 1e-8 and worst_trace < 1e-8
    _report(3, ok, f"push-through relerr {worst_push:.2e}, trace err {worst_trace:.2e}")
    assert worst_push < 1e-8
    assert worst_trace < 1e-8


def test_c04_firth_penalty_vs_finite_differences():
    rng = np.random.default_rng(654)
    worst = 0.0
    structures = [("independence", 0.0), ("exchangeable", 0.25), ("ar1", 0.4)]
    for k in range(20):
        structure, alpha = structures[k % 3]
        ds = random_dataset(rng, n_clusters=int(rng.integers(6, 10)))
        beta = rng.normal(scale=0.5, size=ds.p)
        kern = assemble_kernel(beta, structure, alpha, 1.0, ds)
        analytic = firth_penalty(kern)
        numeric = firth_penalty_fd(beta, structure, alpha, 1.0, ds)
        worst = max(
            worst,
            float(np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-8)),
        )
    ok = worst < 1e-5
    _report(4, ok, f"20 instances x 3 structures, worst relerr {worst:.2e}")
    assert worst < 1e-5


def test_c05_morel_term_dispersion_invariance():
    rng = np.random.default_rng(321)
    rows = []
    for i in range(10):
        x = float(i % 2)
        for _ in range(4):
            rows.append((i, float(rng.random() < 0.35), (x, rng.uniform(-1, 1)), None))
    ds = validate_dataset(rows)
    beta = np.array([0.2, -0.4, 0.3])
    ref = None
    worst = 0.0
    for phi in (1.0, 0.5, 2.0, 10.0):
        kern = assemble_kernel(beta, "exchangeable", 0.2, phi, ds)
        scores = kern.scores[0]
        centered = scores - scores.mean(axis=0)
        term = kern.info_inv[0] @ (centered.T @ centered) @ kern.info_inv[0]
        if ref is None:
            ref = term
        else:
            worst = max(worst, float(np.max(np.abs(term - ref))))
    ok = worst < 1e-10
    _report(5, ok, f"phi in {{0.5, 2, 10}} leaves the middle unchanged to {worst:.2e}")
    assert worst < 1e-10


def test_c06_expectation_identities_monte_carlo():
    t0 = time.time()
    # fixed 4-cluster independence-truth design at known parameters
    rows = []
    z_patterns = [(-0.8, 0.1, 0.9), (-0.3, 0.4, 1.0), (-1.0, -0.2, 0.6), (0.2, 0.7, -0.5)]
    for i, zs in enumerate(z_patterns):
        for z in zs:
            rows.append((i, 0.0, (z,), None))
    ds = validate_dataset(rows)
    beta0 = np.array([0.3, -0.4])
    kern = assemble_kernel(beta0, "independence", 0.0, 1.0, ds)
    p = kern.p
    sizes = kern.cluster_sizes
    offsets = np.cumsum([0, *sizes])
    n_tot = offsets[-1]
    n_cl = kern.n_clusters

    # extract score maps through the package's own leverage path: its rows
    # are info_inv times the corrected scores
    def score_map(c):
        cols = []
        for i in range(n_cl):
            for k in range(sizes[i]):
                res = [np.zeros(sizes[j]) for j in range(n_cl)]
                res[i][k] = 1.0
                rows = with_residuals(kern, res).corrected(c)[0]
                cols.append((i, k, kern.info[0] @ rows[i]))
        mats = [np.zeros((p, sizes[i])) for i in range(n_cl)]
        for i, k, col in cols:
            mats[i][:, k] = col
        return mats

    g0 = score_map(0.0)
    g1 = score_map(1.0)

    literals = kernel_literals(kern)
    tmat = np.zeros((n_tot, n_tot))
    for i in range(n_cl):
        qi = literals[i]
        for l in range(n_cl):
            ql = literals[l]
            block = qi.dmat @ kern.info_inv[0] @ ql.dmat.T @ ql.vinv
            rows_i = slice(offsets[i], offsets[i + 1])
            cols_l = slice(offsets[l], offsets[l + 1])
            tmat[rows_i, cols_l] = (np.eye(sizes[i]) - block) if l == i else -block

    mu = np.concatenate([q.mu for q in literals])
    blev = overcorrection_diagnostic(kern).matrix
    target_md = kern.info[0] + blev
    target_lz = kern.info[0] - sum(a @ kern.info_inv[0] @ a for a in kern.infos[0])

    reps = 200_000
    rng = np.random.default_rng(20260806)
    y = (rng.random((reps, n_tot)) < mu[None, :]).astype(float)
    resid = (y - mu[None, :]) @ tmat.T

    def mc_moments(gmats):
        samples = np.zeros((reps, p, p))
        for i in range(n_cl):
            f = resid[:, offsets[i] : offsets[i + 1]] @ gmats[i].T
            samples += np.einsum("bi,bj->bij", f, f)
        return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(reps)

    worst_z = 0.0
    for gmats, target in ((g1, target_md), (g0, target_lz)):
        mean, mc_se = mc_moments(gmats)
        worst_z = max(worst_z, float(np.max(np.abs(mean - target) / mc_se)))
    runtime = time.time() - t0
    ok = worst_z <= 3.0 and runtime < 120.0
    _report(6, ok, f"200k reps, worst entry z-score {worst_z:.2f}, {runtime:.1f}s")
    assert worst_z <= 3.0
    assert runtime < 120.0


def test_c07_firth_closed_form_and_divergence():
    ds = intercept_only_dataset([0.0] * 20)
    wm = WorkingModel(structure="independence", alpha=0.0, dispersion=1.0)
    pen = fit(ds, wm)
    target = math.log(0.5 / 20.5)
    err = abs(pen.beta[0] - target)
    unpen = fit(ds, wm, FitOptions(penalized=False, max_iter=200))
    ok = pen.converged and err < 1e-4 and not unpen.converged
    _report(
        7,
        ok,
        f"beta0 {pen.beta[0]:.6f} vs logit(0.5/21) {target:.6f} (err {err:.1e}); "
        f"unpenalized diverged: {unpen.diverged_reason}",
    )
    assert pen.converged
    assert err < 1e-4
    assert not unpen.converged
    assert unpen.diverged_reason == "beta_cap"


def test_c08_clf_moment_checks():
    t0 = time.time()
    mu = np.full(4, 0.2)
    worst_mean = 0.0
    worst_corr = 0.0
    invalid_total = 0
    rng = np.random.default_rng(20260807)
    for structure in ("exchangeable", "ar1"):
        for rho in (0.05, 0.1, 0.2, 0.3):
            draws, invalid = clf_sample(mu, structure, rho, rng, 100_000)
            invalid_total += invalid
            worst_mean = max(worst_mean, float(np.max(np.abs(draws.mean(axis=0) - 0.2))))
            corr = np.corrcoef(draws.T)
            for j in range(4):
                for k in range(j + 1, 4):
                    target = rho if structure == "exchangeable" else rho ** (k - j)
                    worst_corr = max(worst_corr, abs(corr[j, k] - target))
    runtime = time.time() - t0
    ok = worst_mean <= 0.005 and worst_corr <= 0.02 and invalid_total == 0 and runtime < 60
    _report(
        8,
        ok,
        f"8 cells x 100k draws: worst mean err {worst_mean:.4f}, worst corr err "
        f"{worst_corr:.4f}, invalid draws {invalid_total}, {runtime:.1f}s",
    )
    assert worst_mean <= 0.005
    assert worst_corr <= 0.02
    assert invalid_total == 0
    assert runtime < 60.0


def test_c09_type1_error_reproduction(cell_type1):
    res = cell_type1
    lz = _cell(res, "LZ").rejection_rate
    kc = _cell(res, "KC").rejection_rate
    ar = _cell(res, "AR").rejection_rate
    ok = lz >= 0.08 and kc >= 0.06 and ar <= 0.06 and ar < kc < lz
    _report(
        9,
        ok,
        f"B=1000 N=10 10% rho=0.2 exch/exch: LZ {lz:.4f} (need >= 0.08), "
        f"KC {kc:.4f} (need >= 0.06), AR {ar:.4f} (need <= 0.06), "
        f"ordering AR < KC < LZ: {ar < kc < lz}",
    )
    assert ar < kc < lz, f"ordering violated: AR {ar}, KC {kc}, LZ {lz}"
    assert ar <= 0.06, f"AR rate {ar} above 0.06"
    assert lz >= 0.08, f"LZ rate {lz} below 0.08"
    assert kc >= 0.06, f"KC rate {kc} below 0.06"


def test_c10_se_calibration_medians(cell_type1):
    res = cell_type1
    lz = _cell(res, "LZ").median_se_ratio
    kc = _cell(res, "KC").median_se_ratio
    ar = _cell(res, "AR").median_se_ratio
    ok = 0.6 <= lz <= 0.85 and 0.75 <= kc <= 0.95 and 1.0 <= ar <= 1.25
    _report(
        10,
        ok,
        f"median SE/SimSE: LZ {lz:.3f} in [0.6, 0.85], KC {kc:.3f} in "
        f"[0.75, 0.95], AR {ar:.3f} in [1.0, 1.25]",
    )
    assert 0.6 <= lz <= 0.85
    assert 0.75 <= kc <= 0.95
    assert 1.0 <= ar <= 1.25


def test_c11_power_ordering(cell_power):
    res = cell_power
    rates = {tag: _cell(res, tag).rejection_rate for tag in ("LZ", "KC", "MD", "AR")}
    n = _cell(res, "AR").n_computable
    mc2 = 2.0 * math.sqrt(0.35 * 0.65 / n)
    chain = (
        rates["LZ"] >= rates["KC"] - mc2
        and rates["KC"] >= rates["MD"] - mc2
        and rates["MD"] >= rates["AR"] - mc2
    )
    ok = chain and 0.28 <= rates["AR"] <= 0.39
    _report(
        11,
        ok,
        f"power at N=50 20% rho=0.1: LZ {rates['LZ']:.3f} >= KC {rates['KC']:.3f} "
        f">= MD {rates['MD']:.3f} >= AR {rates['AR']:.3f} (slack {mc2:.3f}); "
        f"AR in [0.28, 0.39]",
    )
    assert chain
    assert 0.28 <= rates["AR"] <= 0.39


def test_c12_convergence_census():
    scenario = Scenario(
        n_clusters=10,
        n_pattern=(4,),
        event_rate=0.1,
        rho=0.3,
        true_structure="exchangeable",
        working_structure="exchangeable",
        beta1=0.0,
        beta2=0.2,
        seed=20260812,
    )
    res = _run_cell(scenario)
    rate = res.convergence_rate
    lz = _cell(res, "LZ")
    ok = rate >= 0.90 and lz.n_computable == res.b_effective
    _report(
        12,
        ok,
        f"B=1000 N=10 10% rho=0.3: convergence {rate:.3f} (need >= 0.90); "
        f"metrics conditional on {res.b_effective} converged reps",
    )
    assert rate >= 0.90
    assert lz.n_computable == res.b_effective


def test_c13_unbalanced_contract():
    scenario = Scenario(
        n_clusters=10,
        n_pattern=(2, 6),
        event_rate=0.2,
        rho=0.2,
        true_structure="exchangeable",
        working_structure="exchangeable",
        beta1=0.0,
        beta2=0.2,
        seed=20260813,
    )
    spec = ScenarioSpec(id="unbalanced", scenario=scenario, test_coefs=("beta1",))
    res = run_scenario(spec, 300, workers=1)
    pool_ok = all(
        _cell(res, tag).n_computable == 0 for tag in ("PAN", "GST", "WL", "WB", "RS")
    )
    frac = {
        tag: _cell(res, tag).n_computable / res.b_effective
        for tag in ("LZ", "KC", "MD", "AR")
    }
    lev_ok = all(v >= 0.99 for v in frac.values())
    ok = pool_ok and lev_ok
    _report(
        13,
        ok,
        f"n_pattern (2,6): pooling incomputable in 100% of reps ({pool_ok}); "
        f"LZ/KC/MD/AR computable fractions {sorted(frac.values())}",
    )
    assert pool_ok
    assert lev_ok


GRID_CONFIG = """
[deterministic]
N = 10
event_rate = 0.2
rho = 0.1 0.3
true = exchangeable
"""


def test_c14_determinism_across_runs_and_workers():
    specs = parse_config(GRID_CONFIG, base_seed=20260814)
    outputs = []
    for workers in (1, 1, 2):
        results = run_grid(specs, reps=60, workers=workers, min_converged=30)
        outputs.append(
            (
                results_csv(results),
                summary_json(specs, results, base_seed=20260814, reps=60),
            )
        )
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(
        14,
        ok,
        f"2-scenario grid x 60 reps: run-to-run and 1-vs-2-worker outputs "
        f"byte-identical: {ok}",
    )
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
