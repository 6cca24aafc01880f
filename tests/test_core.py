"""Kernel quantities: means, working covariance, score, hat blocks, penalty."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.special

import pgee.core
from pgee import (
    assemble_kernel,
    firth_penalty,
    gee_score,
    overcorrection_diagnostic,
)
from pgee.core import assemble_block, whitening_factors
from pgee.data import validate_dataset
from pgee.errors import SingularInformation, SingularLeverage, SingularV
from pgee.fitting import ALPHA_MARGIN

from conftest import intercept_only_dataset, random_dataset, random_kernel
from oracle import (
    firth_penalty_fd,
    kernel_groups,
    kernel_literals,
    literal_clusters,
    literal_hat,
    literal_leverage_score,
    literal_penalty,
    literal_whitening_factor,
    with_residuals,
    working_correlation,
)


def _slope_dataset(clusters):
    """Clusters of (y, x) rows, one list per cluster, with an intercept."""
    return validate_dataset(
        [(i, y, (x,), None) for i, rows in enumerate(clusters) for y, x in rows]
    )


class TestExpit:
    def test_matches_scipy(self):
        # Both compute 1 / (1 + exp(-x)): exp within 1 ulp of the C
        # library's moves the result by at most eps relative, and the sum
        # and the quotient round once each on either side.
        x = np.linspace(-pgee.core.ETA_CAP, pgee.core.ETA_CAP, 1_400_001)
        got, want = pgee.core.expit(x), scipy.special.expit(x)
        assert np.all(np.abs(got - want) <= 3 * np.finfo(float).eps * want)

    def test_centre_and_clamp_ends(self):
        assert pgee.core.expit(0.0) == 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = pgee.core.expit(np.array([-pgee.core.ETA_CAP, pgee.core.ETA_CAP]))
        assert 0.0 < ends[0] < 1e-300
        assert ends[1] == 1.0


class TestClusterQuantities:
    def test_zero_beta_gives_half_means(self):
        ds = _slope_dataset(
            [[(0, 0.3), (1, -0.2), (0, 0.9)], [(1, 0.5), (0, -1.0)], [(1, 0.1), (1, 0.7)]]
        )
        kern = assemble_kernel(np.zeros(2), "independence", 0.0, 1.0, ds)
        for g in kernel_groups(kern):
            assert np.allclose(g.mu, 0.5)
            assert np.allclose(g.w, 0.25)
        # V = diag(0.25), so info = X' (W V^{-1} W) X = X' X / 4
        X = np.vstack([c.X for c in ds.clusters])
        assert np.allclose(kern.info, 0.25 * X.T @ X, rtol=1e-14)

    def test_independence_v_equals_w(self):
        # V = W: info_i = X' W X and score_i = X' r
        ds = _slope_dataset(
            [[(0, 0.5), (1, -1.0)], [(1, 0.2), (1, 0.8), (0, -0.4)], [(0, 0.3), (1, 0.1)]]
        )
        kern = assemble_kernel(np.array([0.4, -0.3]), "independence", 0.0, 1.0, ds)
        for g in kernel_groups(kern):
            for k, i in enumerate(g.idx):
                X = g.X[k]
                assert np.allclose(kern.infos[0, i], X.T @ (g.w[0, k][:, None] * X), rtol=1e-12)
                assert np.allclose(kern.scores[0, i], X.T @ g.resid[0, k], rtol=1e-12)

    def test_exchangeable_hand_value(self):
        # mu = (1/2, 1/2), alpha = 0.3, phi = 1:
        # V = [[0.25, 0.075], [0.075, 0.25]], dmat = (1/4, 1/4)', so each
        # cluster's information is (1/16) 1' V^{-1} 1 = (1/16)(2 / 0.325) = 5/13
        ds = intercept_only_dataset([0, 1, 1, 0, 0, 1], cluster_size=2)
        kern = assemble_kernel(np.zeros(1), "exchangeable", 0.3, 1.0, ds)
        assert np.allclose(kern.infos[0, :, 0, 0], 5.0 / 13.0, rtol=1e-14)
        assert np.allclose(kern.info, 15.0 / 13.0, rtol=1e-14)
        for q in kernel_literals(kern):
            assert np.allclose(q.vmat, [[0.25, 0.075], [0.075, 0.25]], atol=1e-15)

    def test_w_entries_bounded(self, rng):
        ds = random_dataset(rng)
        beta = np.array([8.0, -3.0, 5.0])  # pushes some mu near the boundary
        kern = assemble_kernel(beta, "independence", 0.0, 1.0, ds)
        for g in kernel_groups(kern):
            assert np.all(g.w > 0.0)
            assert np.all(g.w <= 0.25)

    def test_eta_saturation_is_clamped(self):
        ds = _slope_dataset(
            [[(0, 1000.0), (1, -1000.0)], [(1, 0.5), (0, -0.2)], [(0, 0.4), (1, 0.1)]]
        )
        kern = assemble_kernel(np.array([0.0, 2.0]), "independence", 0.0, 1.0, ds)
        (g,) = kernel_groups(kern)
        assert np.all(np.isfinite(g.mu[0]))
        assert np.all((g.mu[0] > 0) & (g.mu[0] < 1))
        assert np.all(np.isfinite(kern.infos[0]))

    def test_info_psd(self, rng):
        kern = random_kernel(rng)
        for info in kern.infos:
            eigs = np.linalg.eigvalsh(info)
            assert eigs.min() >= -1e-12


class TestWorkingCorrelation:
    def test_structures(self):
        assert np.array_equal(working_correlation("independence", 0.0, 3), np.eye(3))
        ex = working_correlation("exchangeable", 0.2, 3)
        assert ex[0, 1] == ex[0, 2] == 0.2 and ex[0, 0] == 1.0
        ar = working_correlation("ar1", 0.5, 3)
        assert ar[0, 1] == 0.5 and np.isclose(ar[0, 2], 0.25)


class TestKernel:
    def test_identical_clusters_info_and_hat(self):
        # N identical clusters: hat-block nonzero eigenvalues are 1/N
        n_clusters = 5
        rows = []
        for i in range(n_clusters):
            rows.extend([(i, 0.0, (0.5,), None), (i, 1.0, (-0.25,), None)])
        ds = validate_dataset(rows)
        kern = assemble_kernel(np.array([0.2, 0.1]), "exchangeable", 0.2, 1.0, ds)
        assert np.allclose(kern.info[0], n_clusters * kern.infos[0, 0])
        eigs = np.linalg.eigvals(kern.hat_block(0))
        nonzero = np.sort(np.abs(eigs))[-2:]
        assert np.allclose(nonzero, 1.0 / n_clusters, atol=1e-10)

    def test_hat_trace_sums_to_p(self, rng):
        for _ in range(5):
            kern = random_kernel(rng)
            total = sum(np.trace(kern.hat_block(i)) for i in range(kern.n_clusters))
            assert abs(total - kern.p) < 1e-8

    def test_hat_eigenvalues_in_unit_interval(self, rng):
        for _ in range(5):
            kern = random_kernel(rng)
            for i in range(kern.n_clusters):
                eigs = np.linalg.eigvals(kern.hat_block(i))
                assert np.max(np.abs(eigs.imag)) < 1e-8
                assert eigs.real.min() > -1e-10
                assert eigs.real.max() < 1.0 + 1e-10

    def test_push_through_identity(self, rng):
        kern = random_kernel(rng, n_clusters=5)
        for i, q in enumerate(kernel_literals(kern)):
            n = q.mu.shape[0]
            lhs = np.linalg.solve(np.eye(n) - kern.hat_block(i), q.dmat)
            rhs = q.dmat @ np.linalg.solve(kern.info[0] - kern.infos[0, i], kern.info[0])
            assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-10)

    def test_info_positive_definite(self, rng):
        kern = random_kernel(rng)
        assert np.linalg.eigvalsh(kern.info).min() > 0

    def test_singular_information_detected(self):
        # A covariate that never varies duplicates the intercept.
        rows = []
        for i in range(6):
            rows.extend([(i, 0.0, (1.0,), None), (i, 1.0, (1.0,), None)])
        ds = validate_dataset(rows)
        with pytest.raises(SingularInformation):
            assemble_kernel(np.zeros(2), "independence", 0.0, 1.0, ds)

    def test_take_keeps_row_leverage(self, rng, monkeypatch):
        # a block of three replications at different betas; a tolerance
        # between the two smallest leverage gaps makes exactly one singular
        ds = random_dataset(rng, n_clusters=10)
        beta = rng.normal(scale=0.5, size=(3, ds.p))
        alpha, phi = np.full(3, 0.25), np.ones(3)
        cinvs = whitening_factors("exchangeable", alpha, ds)
        y = np.repeat(ds.y[None], 3, axis=0)[:, ds.kernel_rows]
        block = assemble_block(beta, "exchangeable", alpha, phi, ds, y, cinvs)
        assert not block.ill.any()
        gap = np.sort(1.0 - block.max_leverage.max(axis=1))
        monkeypatch.setattr(pgee.core, "LEVERAGE_TOL", gap[:2].mean())
        assert block.singular_leverage.sum() == 1
        for r in range(3):
            row = block.take([r])
            assert row.ill.shape == (1,) and row.ill[0] == block.ill[r]
            assert row.max_leverage.shape == (1, 10)
            assert np.array_equal(row.max_leverage[0], block.max_leverage[r])
            assert row.singular_leverage[0] == block.singular_leverage[r]
            assert row.gaps.shape == (1, 10, ds.p)
            assert np.array_equal(row.gaps[0], block.gaps[r])
            want = 1.0 if block.singular_leverage[r] else 1.0 - block.leverage[0][r]
            assert np.array_equal(row.gaps[0], np.broadcast_to(want, row.gaps[0].shape))

    def test_with_residuals_replaces_scores(self, rng):
        kern = random_kernel(rng)
        new_res = [np.zeros(n) for n in kern.cluster_sizes]
        k2 = with_residuals(kern, new_res)
        assert np.allclose(gee_score(k2), 0.0)
        assert np.array_equal(k2.info, kern.info)


class TestScore:
    def test_zero_residuals_zero_score(self, rng):
        kern = random_kernel(rng)
        k2 = with_residuals(kern, [np.zeros(n) for n in kern.cluster_sizes])
        assert np.allclose(gee_score(k2), 0.0)

    def test_intercept_only_independence_score(self):
        # U = sum_ij (y_ij - mu): dmat' vinv r = (w X)' W^{-1} r = sum r
        ds = intercept_only_dataset([0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1])
        beta = np.array([0.3])
        kern = assemble_kernel(beta, "independence", 0.0, 1.0, ds)
        mu = 1.0 / (1.0 + np.exp(-0.3))
        expected = sum(c.y.sum() - mu * len(c.y) for c in ds.clusters)
        assert np.allclose(gee_score(kern), expected)


class TestFirthPenalty:
    def test_zero_at_half_means(self):
        ds = intercept_only_dataset([0, 1] * 10)
        kern = assemble_kernel(np.zeros(1), "independence", 0.0, 1.0, ds)
        assert np.allclose(firth_penalty(kern), 0.0, atol=1e-14)

    def test_scalar_closed_form(self):
        # intercept-only at mu = 1/4: b = (1 - 2 mu) / 2 = 1/4
        ds = intercept_only_dataset([0, 1] * 10)
        beta = np.array([np.log(0.25 / 0.75)])
        kern = assemble_kernel(beta, "independence", 0.0, 1.0, ds)
        assert np.allclose(firth_penalty(kern), 0.25, atol=1e-12)

    @pytest.mark.parametrize(
        "structure,alpha", [("independence", 0.0), ("exchangeable", 0.25), ("ar1", 0.4)]
    )
    def test_matches_finite_differences(self, rng, structure, alpha):
        for _ in range(4):
            ds = random_dataset(rng)
            beta = rng.normal(scale=0.6, size=ds.p)
            kern = assemble_kernel(beta, structure, alpha, 1.0, ds)
            analytic = firth_penalty(kern)
            numeric = firth_penalty_fd(beta, structure, alpha, 1.0, ds)
            scale = max(np.max(np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_phi_free(self, rng):
        ds = random_dataset(rng)
        beta = rng.normal(scale=0.4, size=ds.p)
        values = [
            firth_penalty(assemble_kernel(beta, "exchangeable", 0.2, phi, ds))
            for phi in (0.5, 1.0, 2.0)
        ]
        assert np.allclose(values[0], values[1], rtol=1e-10)
        assert np.allclose(values[1], values[2], rtol=1e-10)

    def test_bounded_under_cluster_duplication(self, rng):
        # duplicating every cluster m times leaves the penalty O(1)
        base_rows = []
        for i in range(6):
            x = float(rng.integers(0, 2))
            for _ in range(3):
                base_rows.append((i, float(rng.random() < 0.4), (x, rng.uniform(-1, 1)), None))
        beta = rng.normal(scale=0.5, size=3)

        def penalty_for(m):
            rows = []
            for rep in range(m):
                for (cid, y, xs, t) in base_rows:
                    rows.append((f"{cid}-{rep}", y, xs, t))
            ds = validate_dataset(rows)
            kern = assemble_kernel(beta, "exchangeable", 0.2, 1.0, ds)
            return np.linalg.norm(firth_penalty(kern))

        b1 = penalty_for(1)
        for m in (2, 4, 8):
            assert penalty_for(m) <= 2.0 * b1


def _interleaved_dataset(rng, sizes, owners=None):
    """Clusters of the given sizes in the given order; ``owners`` maps a
    cluster index to the extra covariate column that only it carries."""
    owners = owners or {}
    n_extra = len(set(owners.values()))
    rows = []
    for i, n in enumerate(sizes):
        x = float(i % 2)
        for j in range(n):
            extra = [0.0] * n_extra
            if i in owners:
                extra[owners[i]] = float(j % 2)
            covs = (x, float(rng.uniform(-1, 1)), *extra)
            rows.append((f"c{i}", float(rng.random() < 0.4), covs, None))
    return validate_dataset(rows)


def _max_rel(a, b) -> np.ndarray:
    """(R,) largest |a - b| of each replication's (n, k) matrices, relative
    to the largest |b|."""
    return np.abs(a - b).max(axis=(-2, -1)) / np.abs(b).max(axis=(-2, -1))


def _positive_definite(structure, alpha, n) -> bool:
    """Whether the literal R_n(alpha) has only positive eigenvalues."""
    return np.linalg.eigvalsh(working_correlation(structure, alpha, n))[0] > 0


class TestWhiteningFactors:
    """The leading blocks of the closed-form R(alpha) factor against each
    size's factor in 50-digit arithmetic."""

    SIZES = (5, 2, 8, 3, 7, 4, 6, 2, 8, 3)

    @pytest.mark.parametrize(
        "structure,alphas",
        [("independence", (0.0,)),
         ("exchangeable", (-1 / 7 + ALPHA_MARGIN, -1 / 7 + 1e-7, -0.1, 0.25, 1 - ALPHA_MARGIN,
                           1 - 1e-7)),
         ("ar1", (-1 + ALPHA_MARGIN, -1 + 1e-7, -0.4, 0.4, 1 - ALPHA_MARGIN, 1 - 1e-7))],
    )
    def test_each_size_is_whitened_by_its_own_factor(self, rng, structure, alphas):
        # the factor of size n is inv(cholesky(R_n)) in mpmath to 1e-15
        # relative, at ALPHA_MARGIN and 1e-7 from each bound of n_max = 8.
        # Near the exchangeable lower bound the rounding of alpha in
        # 1 + 7 alpha dominates (2.0e-12 at ALPHA_MARGIN); there the factor
        # is no worse than LAPACK's, which is up to 2.2e-9 off near the AR(1)
        # bounds.  The block's whitened rows are that factor times the
        # unwhitened rows.
        ds = _interleaved_dataset(rng, self.SIZES)
        n_reps = len(alphas)
        alpha, phi = np.array(alphas), np.linspace(0.7, 2.0, n_reps)
        beta = rng.normal(scale=0.5, size=(n_reps, ds.p))
        y = (rng.random((n_reps, ds.n_total)) < 0.4).astype(float)[:, ds.kernel_rows]
        factor = whitening_factors(structure, alpha, ds)
        assert factor.shape == (n_reps, 8, 8)
        kern = assemble_block(beta, structure, alpha, phi, ds, y, factor)
        z = pgee.core.beta_stage(beta, ds, y).z
        low = (alpha < -0.14) & (structure == "exchangeable")
        for g in ds.size_groups:
            n = g.rows.shape[1]
            want = np.array([literal_whitening_factor(structure, a, n) for a in alphas])
            lapack = np.linalg.inv(np.linalg.cholesky(working_correlation(structure, alpha, n)))
            got = factor[:, :n, :n]
            err = _max_rel(got, want)
            assert np.all(err[~low] <= 1e-15), (n, err)
            assert np.all(err[low] <= np.maximum(_max_rel(lapack, want)[low], 1e-15)), (n, err)
            whitened = got @ g.view(z).reshape(n_reps, n, -1) / np.sqrt(phi)[:, None, None]
            tol = 1e-13 * np.linalg.cond(want)
            assert np.all(_max_rel(g.view(kern.zt).reshape(n_reps, n, -1), whitened) <= tol), n

    @pytest.mark.parametrize("n_max", range(2, 9))
    def test_mask_is_some_size_not_positive_definite(self, rng, n_max):
        # exchangeable alphas just below and above -1/(n - 1), the bound of
        # size n, for every n in 2..8, on clusters of sizes 2..n_max:
        # assemble_kernel refuses exactly those at which a literal R_n of
        # some size has a non-positive eigenvalue, naming the first cluster
        # of the smallest such size (sizes are in increasing order)
        sizes = tuple(range(2, n_max + 1)) * 4
        ds = _interleaved_dataset(rng, sizes)
        alphas = [-1 / (n - 1) + d for n in range(2, 9) for d in (-1e-9, 1e-9)]
        refused = []
        for a in alphas:
            bad = [n for n in range(2, n_max + 1) if not _positive_definite("exchangeable", a, n)]
            try:
                assemble_kernel(np.zeros(ds.p), "exchangeable", a, 1.0, ds)
            except SingularV as exc:
                assert bad and str(exc).startswith(f"cluster c{sizes.index(bad[0])}:"), (a, bad)
                refused.append(a)
            else:
                assert not bad, (a, bad)
        assert 0 < len(refused) < len(alphas)
        # independence takes any alpha: its R_n is the identity
        kern = assemble_kernel(np.zeros(ds.p), "independence", -1.5, 1.0, ds)
        assert np.array_equal(kern.zt, assemble_kernel(np.zeros(ds.p), "independence", 0.0, 1.0, ds).zt)


class TestSizeGroupParity:
    """The size-grouped arrays against a literal loop over clusters."""

    SIZES = (3, 2, 5, 2, 3, 5, 4, 2, 3, 4, 5, 2)

    @pytest.mark.parametrize(
        "structure,alpha", [("independence", 0.0), ("exchangeable", 0.25), ("ar1", 0.4)]
    )
    def test_matches_literal_loop(self, rng, structure, alpha):
        ds = _interleaved_dataset(rng, self.SIZES)
        beta = np.array([-0.3, 0.5, 0.8])
        phi = 1.3
        kern = assemble_kernel(beta, structure, alpha, phi, ds)
        ref = literal_clusters(beta, structure, alpha, phi, ds)

        def close(a, b, tol=1e-10):
            scale = max(np.max(np.abs(b)), 1e-300)
            return np.max(np.abs(np.asarray(a) - b)) / scale < tol

        for g in kernel_groups(kern):
            for k, i in enumerate(g.idx):
                assert np.array_equal(g.X[k], ref[i].X), i
                for name in ("mu", "w", "resid"):
                    assert close(getattr(g, name)[0, k], getattr(ref[i], name)), (i, name)
        for i, r in enumerate(ref):
            assert close(kern.infos[0, i], r.info), i
            assert close(kern.scores[0, i], r.score), i
        info = sum(r.info for r in ref)
        info_inv = np.linalg.inv(info)
        assert close(kern.info[0], info)
        assert close(gee_score(kern), sum(r.score for r in ref))
        assert close(
            firth_penalty(kern), literal_penalty(ref, info_inv, structure, alpha, phi)
        )
        for c in (0.5, 1.0):
            rows = kern.corrected(c)[0]
            for i, r in enumerate(ref):
                assert close(kern.hat_block(i), literal_hat(r, info_inv))
                assert close(rows[i], info_inv @ literal_leverage_score(r, info_inv, c), 1e-8)

    @pytest.mark.parametrize(
        "structure,alphas",
        [("independence", (0.0, 0.0, 0.0)), ("exchangeable", (0.25, -0.1, 0.5)),
         ("ar1", (0.4, -0.3, 0.7))],
    )
    def test_block_views_match_literal_loop(self, rng, structure, alphas):
        # three replications with their own y, beta, alpha and phi on
        # interleaved sizes: every group view, in every replication, is its
        # clusters' literal quantities, and so are the sums and the penalty
        ds = _interleaved_dataset(rng, self.SIZES)
        n_reps = 3
        beta = rng.normal(scale=0.5, size=(n_reps, ds.p))
        alpha, phi = np.array(alphas), np.array([1.3, 0.7, 2.0])
        y = (rng.random((n_reps, ds.n_total)) < 0.4).astype(float)
        cinvs = whitening_factors(structure, alpha, ds)
        kern = assemble_block(beta, structure, alpha, phi, ds, y[:, ds.kernel_rows], cinvs)
        assert not kern.ill.any()
        penalty = firth_penalty(kern)

        def close(a, b, tol=1e-12):
            scale = max(np.max(np.abs(b)), 1e-300)
            return np.max(np.abs(np.asarray(a) - b)) / scale < tol

        for r in range(n_reps):
            ref = literal_clusters(beta[r], structure, alpha[r], phi[r],
                                   dataclasses.replace(ds, y=y[r]))
            for g in kernel_groups(kern):
                for k, i in enumerate(g.idx):
                    chol = np.linalg.cholesky(ref[i].vmat)
                    want = {"mu": ref[i].mu, "w": ref[i].w, "resid": ref[i].resid,
                            "dt": np.linalg.solve(chol, ref[i].dmat),
                            "rt": np.linalg.solve(chol, ref[i].resid)}
                    for name, value in want.items():
                        assert close(getattr(g, name)[r, k], value), (r, i, name)
            info = sum(q.info for q in ref)
            assert close(kern.info[r], info), r
            assert close(kern.score[r], sum(q.score for q in ref)), r
            want = literal_penalty(ref, np.linalg.inv(info), structure, alpha[r], phi[r])
            assert close(penalty[r], want), r

    def test_singular_v_names_first_cluster_in_order(self, rng):
        # alpha = -0.28 is admissible for n <= 4 only; the size-6 cluster at
        # position 2 precedes every size-5 cluster, whose group comes first.
        ds = _interleaved_dataset(rng, (3, 2, 6, 2, 5, 3, 5, 6))
        with pytest.raises(SingularV, match="^cluster c2:"):
            assemble_kernel(np.zeros(ds.p), "exchangeable", -0.28, 1.0, ds)

    def test_singular_leverage_names_first_cluster_in_order(self, rng):
        # cluster 1 (size 3) alone carries the 4th covariate and cluster 3
        # (size 2, in the first group) alone carries the 5th.
        ds = _interleaved_dataset(rng, (2, 3, 2, 2, 2, 3, 2), owners={1: 0, 3: 1})
        kern = assemble_kernel(np.zeros(ds.p), "independence", 0.0, 1.0, ds)
        with pytest.raises(SingularLeverage) as err:
            overcorrection_diagnostic(kern)
        assert err.value.cluster_id == "c1"
