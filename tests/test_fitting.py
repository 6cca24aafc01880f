"""PGEE solver: closed forms, divergence accounting, moment estimators."""

import math

import numpy as np
import pytest

import pgee.fitting
from pgee import (
    FitOptions,
    Scenario,
    WorkingModel,
    assemble_kernel,
    estimate_all,
    estimate_alpha,
    estimate_phi,
    firth_penalty,
    fit,
    gee_score,
    generate_dataset,
    overcorrection_diagnostic,
)
from pgee.data import validate_dataset

from conftest import intercept_only_dataset, random_dataset
from oracle import kernel_groups, literal_fit, with_residuals


def _fit_independence(ds, penalized=True, **kw):
    wm = WorkingModel(structure="independence", alpha=0.0, dispersion=1.0)
    return fit(ds, wm, FitOptions(penalized=penalized, **kw))


class TestFitClosedForms:
    def test_symmetric_intercept_is_zero(self):
        ds = intercept_only_dataset([0, 1] * 10)
        res = _fit_independence(ds)
        assert res.converged
        assert abs(res.beta[0]) < 1e-10

    def test_all_zero_outcomes_firth_closed_form(self):
        # 20 zeros: penalized intercept solves logit((s + 1/2) / (n + 1))
        ds = intercept_only_dataset([0.0] * 20)
        res = _fit_independence(ds)
        assert res.converged
        target = math.log(0.5 / 20.5)
        assert abs(res.beta[0] - target) < 1e-4

    def test_all_zero_outcomes_unpenalized_diverges(self):
        ds = intercept_only_dataset([0.0] * 20)
        res = _fit_independence(ds, penalized=False, max_iter=200)
        assert not res.converged
        assert res.diverged_reason == "beta_cap"

    def test_singular_at_start_is_a_result(self):
        # two equal covariates: the information is singular at beta = 0
        rows = [(i, float((i + j) % 2), (float(j), float(j)), None)
                for i in range(10) for j in range(3)]
        wm = WorkingModel(structure="exchangeable", alpha="estimate", dispersion=1.0)
        res = fit(validate_dataset(rows), wm)
        assert not res.converged and res.kernel is None
        assert (res.diverged_reason, res.iterations) == ("singular_information", 1)

    def test_singular_mid_fit_matches_literal_fit(self):
        # x2 is 1 only on some events: unpenalized, its coefficient runs
        # off until every halving candidate is ill-conditioned
        rows = []
        for i in range(10):
            for j in range(3):
                y = (i * 3 + j) % 3 == 0 or (i + j) % 4 == 0
                rows.append((i, float(y), (float(j), float(y and i < 3)), None))
        ds = validate_dataset(rows)
        wm = WorkingModel(structure="independence", alpha=0.0, dispersion=1.0)
        opts = FitOptions(penalized=False)
        res, ref = fit(ds, wm, opts), literal_fit(ds, ds.y, wm, opts)
        assert (res.diverged_reason, ref.reason) == ("singular_information",) * 2
        assert res.iterations == ref.iterations > 1
        assert np.array_equal(res.beta, ref.beta)
        assert np.array_equal(res.kernel.info_inv[0], ref.kernel.info_inv[0])

    def test_score_small_at_root(self, rng):
        ds = random_dataset(rng, n_clusters=12)
        wm = WorkingModel(structure="exchangeable", alpha=0.2, dispersion=1.0)
        res = fit(ds, wm, FitOptions(penalized=False))
        assert res.converged
        u = gee_score(res.kernel)
        bound = 10 * 1e-6 * max(1.0, np.linalg.norm(res.kernel.info[0], np.inf))
        assert np.max(np.abs(u)) <= bound

    def test_penalized_root_satisfies_equation(self, rng):
        ds = random_dataset(rng, n_clusters=12)
        wm = WorkingModel(structure="exchangeable", alpha="estimate", dispersion=1.0)
        res = fit(ds, wm)
        assert res.converged
        g = gee_score(res.kernel) + firth_penalty(res.kernel)
        bound = 10 * 1e-6 * max(1.0, np.linalg.norm(res.kernel.info[0], np.inf))
        assert np.max(np.abs(g)) <= bound


class TestAssemblies:
    @pytest.mark.parametrize(
        "structure,alpha", [("independence", 0.0), ("exchangeable", "estimate")]
    )
    def test_no_parameter_point_assembled_twice(self, rng, monkeypatch, structure, alpha):
        # inside the loop every kernel is evaluated at a new (beta, alpha,
        # phi): an alpha refresh reuses the beta stage at a new alpha, and
        # the accepted step-halving candidate is the next iteration's base;
        # after the loop one assembly repeats the final point once
        evaluated, final = [], []
        real_whiten, real_assemble = pgee.fitting.whiten_block, pgee.fitting.assemble_block

        def points(beta, alpha, phi):
            return list(zip(map(tuple, beta), alpha, phi))

        def whitening(beta, structure, alpha, phi, *rest):
            evaluated.extend(points(beta, alpha, phi))
            return real_whiten(beta, structure, alpha, phi, *rest)

        def assembling(beta, structure, alpha, phi, *rest):
            final.extend(points(beta, alpha, phi))
            return real_assemble(beta, structure, alpha, phi, *rest)

        monkeypatch.setattr(pgee.fitting, "whiten_block", whitening)
        monkeypatch.setattr(pgee.fitting, "assemble_block", assembling)
        ds = random_dataset(rng, n_clusters=12)
        res = fit(ds, WorkingModel(structure=structure, alpha=alpha, dispersion=1.0))
        assert res.converged and res.iterations >= 3
        assert len(set(evaluated)) == len(evaluated)
        k = res.kernel
        assert final == [(tuple(k.beta[0]), k.alpha[0], k.phi[0])]
        assert final[0] in evaluated


class TestFitInvariances:
    def test_cluster_permutation(self, rng):
        rows = []
        for i in range(10):
            x = float(rng.integers(0, 2))
            for _ in range(4):
                rows.append((i, float(rng.random() < 0.4), (x, rng.uniform(-1, 1)), None))
        ds = validate_dataset(rows)
        perm = list(rng.permutation(10))
        by_id = {c.id: c for c in ds.clusters}
        shuffled = validate_dataset(
            [
                (cid, y, tuple(xs), None)
                for cid in perm
                for (y, xs) in zip(by_id[cid].y, by_id[cid].X[:, 1:])
            ]
        )
        wm = WorkingModel(structure="exchangeable", alpha="estimate", dispersion=1.0)
        r1, r2 = fit(ds, wm), fit(shuffled, wm)
        assert r1.converged and r2.converged
        assert np.allclose(r1.beta, r2.beta, atol=1e-10)
        assert abs(r1.alpha - r2.alpha) < 1e-10

    def test_phi_scaling_no_penalty(self, rng):
        ds = random_dataset(rng, n_clusters=10)
        res = []
        for phi in (1.0, 2.0):
            wm = WorkingModel(structure="exchangeable", alpha=0.2, dispersion=phi)
            res.append(fit(ds, wm, FitOptions(penalized=False)))
        assert res[0].converged and res[1].converged
        assert np.allclose(res[0].beta, res[1].beta, atol=1e-8)

    def test_penalized_near_unpenalized_large_n(self):
        scen = Scenario(
            n_clusters=500,
            n_pattern=(4,),
            event_rate=0.3,
            rho=0.2,
            true_structure="exchangeable",
            working_structure="exchangeable",
            beta1=math.log(2),
            beta2=0.2,
            seed=99,
        )
        rng = np.random.default_rng(99)
        ds = generate_dataset(scen, rng)
        assert ds is not None
        wm = WorkingModel(structure="exchangeable", alpha="estimate", dispersion=1.0)
        pen = fit(ds, wm, FitOptions(penalized=True))
        unpen = fit(ds, wm, FitOptions(penalized=False))
        assert pen.converged and unpen.converged
        assert np.max(np.abs(pen.beta - unpen.beta)) <= 0.05


class TestMomentEstimators:
    def test_alpha_zero_residuals(self, rng):
        ds = random_dataset(rng)
        kern = assemble_kernel(np.zeros(ds.p), "exchangeable", 0.0, 1.0, ds)
        kern = with_residuals(kern, [np.zeros(n) for n in kern.cluster_sizes])
        assert estimate_alpha(kern) == 0.0

    def test_alpha_boundary_clamped(self):
        # denominator = pairs - p = 2 - 1 = 1; one unit pair -> raw alpha = 1
        ds = intercept_only_dataset([0, 1, 0, 1], cluster_size=2)
        kern = assemble_kernel(np.zeros(1), "exchangeable", 0.0, 1.0, ds)
        sw = np.sqrt(kernel_groups(kern)[0].w[0, 0])
        kern = with_residuals(kern, [1.0 * sw, 0.0 * sw])
        a = estimate_alpha(kern)
        assert a < 1.0
        assert a == pytest.approx(1.0, abs=1e-5)

    def test_alpha_denominator_always_positive_on_valid_data(self):
        # N >= p + 1 and n_i >= 2 make the pair count exceed p, so the
        # defensive denominator guard cannot trigger on a valid dataset.
        rows = [
            ("a", 0.0, (1.0, 0.2), None),
            ("a", 1.0, (1.0, 0.4), None),
            ("b", 0.0, (0.0, 0.1), None),
            ("b", 1.0, (0.0, 0.8), None),
            ("c", 0.0, (1.0, 0.3), None),
            ("c", 1.0, (0.0, 0.9), None),
            ("d", 1.0, (0.0, 0.5), None),
            ("d", 0.0, (1.0, 0.6), None),
        ]
        ds = validate_dataset(rows)  # pairs = 4, p = 3: denominator 1
        kern = assemble_kernel(np.zeros(3), "exchangeable", 0.0, 1.0, ds)
        assert np.isfinite(estimate_alpha(kern))
        assert np.isfinite(estimate_alpha(kern, structure="ar1"))

    def test_alpha_recovers_truth(self):
        scen = Scenario(
            n_clusters=200,
            n_pattern=(4,),
            event_rate=0.3,
            rho=0.2,
            true_structure="exchangeable",
            working_structure="exchangeable",
            seed=7,
        )
        ds = generate_dataset(scen, np.random.default_rng(7))
        wm = WorkingModel(structure="exchangeable", alpha="estimate", dispersion=1.0)
        res = fit(ds, wm)
        assert res.converged
        assert 0.15 <= res.alpha <= 0.25

    def test_phi_degenerate_floored(self, rng):
        ds = random_dataset(rng)
        kern = assemble_kernel(np.zeros(ds.p), "independence", 0.0, 1.0, ds)
        kern = with_residuals(kern, [np.zeros(n) for n in kern.cluster_sizes])
        with pytest.warns(RuntimeWarning):
            assert estimate_phi(kern) == pytest.approx(1e-6)

    def test_phi_near_one_for_bernoulli(self):
        scen = Scenario(
            n_clusters=300,
            n_pattern=(4,),
            event_rate=0.3,
            rho=0.05,
            true_structure="exchangeable",
            working_structure="independence",
            seed=11,
        )
        ds = generate_dataset(scen, np.random.default_rng(11))
        wm = WorkingModel(
            structure="independence", alpha=0.0, dispersion="pearson-plugin"
        )
        res = fit(ds, wm)
        assert res.converged
        assert abs(res.phi - 1.0) <= 0.1

    def test_fixed_dispersion_passthrough(self, rng):
        ds = random_dataset(rng)
        wm = WorkingModel(structure="independence", alpha=0.0, dispersion=1.0)
        res = fit(ds, wm)
        assert res.phi == 1.0


class TestConvergenceCensus:
    def test_small_sample_convergence_rate(self):
        scen = Scenario(
            n_clusters=10,
            n_pattern=(4,),
            event_rate=0.1,
            rho=0.3,
            true_structure="exchangeable",
            working_structure="exchangeable",
            beta1=0.0,
            beta2=0.2,
            seed=123,
        )
        wm = WorkingModel(structure="exchangeable", alpha="estimate", dispersion=1.0)
        converged = 0
        total = 200
        for rep in range(total):
            rng = np.random.default_rng(np.random.SeedSequence((123, rep)))
            ds = generate_dataset(scen, rng)
            assert ds is not None
            if fit(ds, wm).converged:
                converged += 1
        assert converged / total >= 0.85


def test_fit_kernel_is_a_block_of_one(rng):
    # what the CLI and a dense check of one fit read from its kernel: the
    # variance results and the diagnostic of one replication, the kernel
    # functions with the replication axis
    ds = random_dataset(rng, n_clusters=12)
    res = fit(ds, WorkingModel(structure="exchangeable", alpha="estimate", dispersion=1.0))
    kern, p = res.kernel, ds.p
    assert res.converged and kern.single
    estimates = estimate_all(kern).values()
    assert any(ve.computable for ve in estimates)
    for ve in estimates:
        assert type(ve.computable) is bool
        if ve.computable:
            assert ve.se.shape == (p,) and ve.cov.shape == (p, p)
    diag = overcorrection_diagnostic(kern)
    assert diag.matrix.shape == (p, p)
    assert diag.ratios.shape == diag.eigenvalues.shape == (p,)
    for i, n in enumerate(ds.cluster_sizes):
        assert kern.hat_block(i).shape == (n, n)
    assert firth_penalty(kern).shape == gee_score(kern).shape == (1, p)
    assert estimate_alpha(kern).shape == estimate_phi(kern).shape == (1,)
