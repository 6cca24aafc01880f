"""Covariance estimators: catalog identities, oracles, diagnostic, Wald."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import stdtr, stdtrit

import pgee.core
import pgee.variance
from pgee import (
    EstimatorId,
    FitKernel,
    LEVERAGE_IDS,
    POOLING_IDS,
    Scenario,
    WorkingModel,
    assemble_kernel,
    calibrate_intercept,
    estimate_all,
    estimate_variance,
    fit,
    fit_block,
    overcorrection_diagnostic,
    parse_config,
    wald_test,
)
from pgee.core import assemble_block, whitening_factors
from pgee.data import validate_dataset
from pgee.errors import SingularLeverage, ZeroSE
from pgee.harness import MAX_ATTEMPTS, draw_block
from pgee.variance import t_critical, t_tail

from conftest import balanced_dataset, random_kernel, two_arm_dataset
from oracle import (
    kernel_literals,
    literal_covariances,
    literal_leverage_score,
    whitened_clusters,
    whitening,
    with_residuals,
)


def _balanced_kernel(rng, **kw):
    ds = balanced_dataset(rng, **kw)
    beta = rng.normal(scale=0.4, size=ds.p)
    return assemble_kernel(beta, "exchangeable", 0.2, 1.0, ds)


class TestLeverageScores:
    def test_c_zero_is_plain_scores(self, rng):
        kern = random_kernel(rng)
        g = kern.corrected(0.0)[0]
        assert np.array_equal(g, kern.scores[0] @ kern.info_inv[0])
        for gi, q in zip(g, kernel_literals(kern)):
            want = kern.info_inv[0] @ literal_leverage_score(q, kern.info_inv[0], 0.0)
            assert np.allclose(gi, want, rtol=1e-10)

    def test_identical_clusters_scalar_factor(self):
        # p = 1 identical clusters: hat eigenvalue 1/N, so c = 1 scales
        # scores by N / (N - 1)
        n_clusters = 6
        rows = []
        for i in range(n_clusters):
            rows.extend([(i, 1.0, (0.4,), None), (i, 0.0, (-0.2,), None)])
        ds = validate_dataset(rows)
        ds = validate_dataset(
            [(i, y, (), None) for i in range(n_clusters) for y in (1.0, 0.0)]
        )
        kern = assemble_kernel(np.array([0.1]), "exchangeable", 0.15, 1.0, ds)
        f0 = kern.corrected(0.0)[0]
        f1 = kern.corrected(1.0)[0]
        factor = n_clusters / (n_clusters - 1)
        for a, b in zip(f0, f1):
            assert np.allclose(b, factor * a, rtol=1e-10)

    def test_dense_inverse_oracle(self, rng):
        kern = random_kernel(rng, n_clusters=6)
        for c in (0.5, 1.0):
            rows = kern.corrected(c)[0]
            for i, q in enumerate(kernel_literals(kern)):
                n = q.mu.shape[0]
                m = np.eye(n) - kern.hat_block(i)
                power = np.linalg.inv(m) if c == 1.0 else _principal_inv_sqrt(m)
                oracle = kern.info_inv[0] @ q.dmat.T @ q.vinv @ power @ q.resid
                assert np.allclose(rows[i], oracle, rtol=1e-8, atol=1e-12)

    def test_exponent_domain(self, rng, monkeypatch):
        # the catalog corrects by (I - H)^{-c} only for c in {0, 1/2, 1},
        # through the corrected rows or the pooled residuals, and an
        # estimator asks for some c > 0, and reads the leverage
        # factorization, exactly when it is one of LEVERAGE_IDS, the
        # estimators flagged by a singular (I - H)
        kern = _balanced_kernel(rng)
        seen = {}
        asked = set()
        corrected, pooled = FitKernel.corrected, pgee.variance._pooled

        def recording(self, c):
            asked.add(c)
            return corrected(self, c)

        def recording_pooled(kernel, c, denom):
            asked.add(c)
            return pooled(kernel, c, denom)

        monkeypatch.setattr(FitKernel, "corrected", recording)
        monkeypatch.setattr(pgee.variance, "_pooled", recording_pooled)
        for est in EstimatorId:
            asked.clear()
            fresh = kern.take(slice(None))
            assert estimate_variance(fresh, est).computable
            seen[est] = set(asked)
            assert ("leverage" in fresh.__dict__) == (est in LEVERAGE_IDS), est
        assert set().union(*seen.values()) == {0.0, 0.5, 1.0}
        for est, cs in seen.items():
            assert any(c > 0 for c in cs) == (est in LEVERAGE_IDS), est

    def test_singular_leverage_detected(self):
        # covariate present only in cluster "a": the rest of the design
        # carries no information in that direction
        rows = [
            ("a", 1.0, (1.0,), None),
            ("a", 0.0, (1.0,), None),
            ("b", 1.0, (0.0,), None),
            ("b", 0.0, (0.0,), None),
            ("c", 0.0, (0.0,), None),
            ("c", 1.0, (0.0,), None),
        ]
        ds = validate_dataset(rows)
        kern = assemble_kernel(np.zeros(2), "independence", 0.0, 1.0, ds)
        assert kern.singular_leverage[0]
        assert np.isfinite(kern.corrected(1.0)[0]).all()
        ve = estimate_variance(kern, EstimatorId.MD)
        assert not ve.computable
        assert ve.incomputable_reason == "SingularLeverage"
        assert estimate_variance(kern, EstimatorId.LZ).computable


def test_singular_leverage_flags_only_its_replication(rng, monkeypatch):
    # a block of two replications at different betas; a tolerance between
    # their leverage gaps makes exactly one of them singular
    ds = balanced_dataset(rng, n_clusters=8)
    beta = np.stack([np.zeros(ds.p), rng.normal(scale=0.8, size=ds.p)])
    alpha, phi = np.full(2, 0.2), np.ones(2)
    cinvs, _ = whitening_factors("exchangeable", alpha, ds)
    y = np.stack([ds.y, ds.y])[:, ds.kernel_rows]
    block, ill = assemble_block(beta, "exchangeable", alpha, phi, ds, y, cinvs)
    assert not ill.any()
    gap = 1.0 - block.max_leverage.max(axis=1)
    assert gap[0] != gap[1]
    monkeypatch.setattr(pgee.core, "LEVERAGE_TOL", gap.mean())
    assert block.singular_leverage.sum() == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = estimate_all(block)
        for r in range(2):
            alone = estimate_all(block.take([r]))
            for est, ve in alone.items():
                assert together[est].incomputable_reason[r] == ve.incomputable_reason[0]
                if ve.computable[0]:
                    assert np.array_equal(together[est].se[r], ve.se[0])
                else:
                    assert np.isnan(together[est].cov[r]).all()
    assert set(together[EstimatorId.MD].incomputable_reason) == {"SingularLeverage", None}
    for est, ve in together.items():
        flagged = block.singular_leverage & (est in LEVERAGE_IDS)
        assert np.array_equal(ve.computable, ~flagged), est


def _owned_direction_fit():
    # only cluster c0 has x1 = 1, so the other clusters carry no
    # information on x1 and (I - H) of c0 is singular at the fit
    rows = [(f"c{i}", float((i + 2 * j) % 3 == 0), (float(i == 0),), None)
            for i in range(10) for j in range(2)]
    wm = WorkingModel(structure="exchangeable", alpha="estimate", dispersion=1.0)
    return fit(validate_dataset(rows), wm)


def test_owned_direction_flags_leverage_ids_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kern = _owned_direction_fit().kernel
        assert kern.single and kern.singular_leverage[0]
        for c in (0.5, 1.0):
            assert np.isfinite(kern.corrected(c)[0]).all()
        for est, ve in estimate_all(kern).items():
            if est in LEVERAGE_IDS:
                assert (ve.computable, ve.incomputable_reason) == (False, "SingularLeverage")
                assert ve.cov is None and ve.se is None
            else:
                assert ve.computable, est
                assert np.isfinite(ve.se).all()


#: The [unbalanced] section of the perfbench grid (base seed 1), two cells
#: whose one treated cluster (id 1) makes (I - H) singular in every
#: replication, and the c09 acceptance cell (N = 10 clusters of 4).
LITERAL_CELLS = {
    "unbalanced": parse_config(
        "[unbalanced]\nN = 10\nn = 2/6\nevent_rate = 0.2\nrho = 0.2\ntrue = exchangeable\n",
        base_seed=1,
    )[0].scenario,
    "one-treated": Scenario(n_clusters=10, gamma=0.1, seed=15),
    "one-treated-2/6": Scenario(n_clusters=10, n_pattern=(2, 6), gamma=0.1, seed=15),
    "c09": Scenario(n_clusters=10, event_rate=0.1, rho=0.2, beta1=0.0, seed=20260808),
}

#: Relative SE error allowed against the 60-digit literal covariances.
LITERAL_TOL = 1e-8


def _cell_block(cell, reps):
    """The fit of replications ``reps`` of a LITERAL_CELLS cell, as the
    harness draws and fits them."""
    scen = LITERAL_CELLS[cell]
    design, y, invalid = draw_block(scen, reps, calibrate_intercept(scen))
    assert np.all(invalid < MAX_ATTEMPTS)
    return fit_block(design, y, WorkingModel(scen.working_structure, "estimate", 1.0))


def _check_literal(kern, exact):
    """Every estimator of the block of one ``kern`` against its ``exact``
    literal covariance: SEs within LITERAL_TOL, a negative exact variance
    flagged NegativeDiagonal, and every estimator the literal leaves out
    flagged with its reason (only the leverage estimators, and only when
    (I - H) is singular; the pooling ones on unbalanced data)."""
    got = estimate_all(kern)
    for tag, cov in exact.items():
        ve = got[EstimatorId[tag]]
        if np.any(np.diag(cov) < 0):
            assert ve.incomputable_reason[0] == "NegativeDiagonal", tag
            continue
        err = np.max(np.abs(ve.se[0] / np.sqrt(np.diag(cov)) - 1.0))
        assert err <= LITERAL_TOL, (tag, err)
    pooling = set() if kern.balanced else POOLING_IDS
    undefined = set(EstimatorId) - pooling - {EstimatorId[tag] for tag in exact}
    assert undefined == (LEVERAGE_IDS - pooling if kern.singular_leverage[0] else set())
    for est in undefined:
        assert got[est].incomputable_reason[0] == "SingularLeverage", est
    for est in pooling:
        assert got[est].incomputable_reason[0] == "UnbalancedPooling", est


@pytest.mark.parametrize(
    "cell,rep",
    # 1 - max hat eigenvalue is 3.2e-6 and 4.7e-6 at unbalanced reps 135
    # and 774, where alpha sits at its clamp; the one-treated reps are
    # singular, so only LZ, DF, FG and MBN are defined there
    [("unbalanced", 135), ("unbalanced", 774), ("one-treated-2/6", 195),
     ("one-treated-2/6", 549)],
)
def test_near_singular_matches_mpmath(cell, rep):
    # dt and rt are taken as exact, so only the estimator layer is checked;
    # an exact covariance with a negative variance must be flagged, and so
    # must the leverage estimators that are undefined
    pytest.importorskip("mpmath")
    res = _cell_block(cell, [rep])
    assert res.converged[0]
    kern = res.kernel
    _check_literal(kern, literal_covariances(*whitened_clusters(kern), kern.n_total))


@pytest.mark.parametrize(
    "cell,rep",
    # the one-treated reps are singular, so WL and WB must be flagged
    # there; the c09 reps are regular, and all fourteen are checked
    [("one-treated", 195), ("one-treated", 549), ("c09", 0), ("c09", 1), ("c09", 2)],
)
def test_balanced_matches_mpmath(cell, rep):
    # the pooling estimators and FG against their observation-space
    # definitions, from the whitened dt, rt and whitening factors
    pytest.importorskip("mpmath")
    res = _cell_block(cell, [rep])
    assert res.converged[0]
    kern = res.kernel
    assert kern.balanced and kern.singular_leverage[0] == (cell == "one-treated")
    exact = literal_covariances(*whitened_clusters(kern), kern.n_total, whitening(kern))
    assert {EstimatorId[tag] for tag in exact} >= POOLING_IDS - LEVERAGE_IDS | {EstimatorId.FG}
    _check_literal(kern, exact)


@pytest.mark.parametrize("cell", ["one-treated", "one-treated-2/6", "unbalanced", "owned"])
def test_diagnostic_singular_exactly_when_leverage_is(cell):
    # one criterion: the diagnostic raises SingularLeverage for a
    # replication exactly when its leverage estimators are flagged, naming
    # the cluster that owns the direction
    if cell == "owned":
        kern, owner = _owned_direction_fit().kernel, "c0"
    else:
        reps = [135, 774] if cell == "unbalanced" else range(32)
        kern, owner = _cell_block(cell, reps).kernel, 1
    flagged = 0
    for r in range(kern.beta.shape[0]):
        row = kern.take([r])
        if row.singular_leverage[0]:
            flagged += 1
            with pytest.raises(SingularLeverage) as err:
                overcorrection_diagnostic(row)
            assert err.value.cluster_id == owner
            assert str(err.value) == f"cluster {owner}: remaining information singular"
        else:
            assert np.all(np.isfinite(overcorrection_diagnostic(row).matrix))
    assert flagged == (0 if cell == "unbalanced" else kern.beta.shape[0])


@pytest.mark.parametrize(
    "cell,reps",
    # unbalanced reps 135 and 774 sit beside ordinary ones; FZ is
    # NegativeDiagonal at 774.  The one-treated reps have their own
    # design, so they form their own blocks: every rep is singular, on
    # unbalanced (2/6) and on balanced clusters
    [("unbalanced", [135, 0, 774, 1, 2, 3]), ("one-treated-2/6", [195, 549, 0, 1]),
     ("one-treated", [195, 549, 0, 1]), ("c09", [0, 1, 2, 3])],
)
def test_table_columns_match_each_replication_alone(monkeypatch, cell, reps):
    # one pass over the (R, E) table gives each replication's estimates
    # bitwise as it has them alone, with the same reasons and NaNs
    kern = _cell_block(cell, reps).kernel
    if cell == "unbalanced":
        # a tolerance between the gaps of reps 135 and 774 makes 135
        # singular in the block where 774's FZ is NegativeDiagonal
        gap = 1.0 - kern.max_leverage.max(axis=1)
        monkeypatch.setattr(pgee.core, "LEVERAGE_TOL", 0.5 * (gap[0] + gap[2]))
    ids = list(EstimatorId)
    cov, se, computable, why = pgee.variance.estimator_table(kern, ids)
    seen = set()
    for r in range(len(reps)):
        row = kern.take([r])
        for j, est in enumerate(ids):
            ve = estimate_variance(row, est)
            assert (ve.computable[0], ve.incomputable_reason[0]) == (computable[r, j], why[r, j])
            assert ve.cov[0].tobytes() == cov[r, j].tobytes(), (r, est)
            assert ve.se[0].tobytes() == se[r, j].tobytes(), (r, est)
            seen.add(why[r, j])
    assert np.array_equal(np.isnan(se).all(axis=-1), ~computable)
    expected = {
        "unbalanced": {None, "UnbalancedPooling", "SingularLeverage", "NegativeDiagonal"},
        "one-treated-2/6": {None, "UnbalancedPooling", "SingularLeverage"},
        "one-treated": {None, "SingularLeverage"},
        "c09": {None},
    }[cell]
    assert seen == expected
    if cell == "unbalanced":
        fz = why[:, ids.index(EstimatorId.FZ)]
        assert (fz[0], fz[2]) == ("SingularLeverage", "NegativeDiagonal")
        assert not np.isnan(cov[2, ids.index(EstimatorId.FZ)]).any()


def _principal_inv_sqrt(m):
    vals, vecs = np.linalg.eig(np.linalg.inv(m))
    return (vecs @ np.diag(np.sqrt(vals)) @ np.linalg.inv(vecs)).real


class TestEstimatorCatalog:
    def test_family_identities(self, rng):
        kern = _balanced_kernel(rng)
        v = estimate_all(kern)
        n_cl, p = kern.n_clusters, kern.p

        def gram(rows):
            return sum(np.outer(g, g) for g in rows)

        assert np.allclose(v[EstimatorId.LZ].cov, gram(kern.corrected(0.0)[0]), rtol=1e-12)
        assert np.allclose(v[EstimatorId.KC].cov, gram(kern.corrected(0.5)[0]), rtol=1e-12)
        assert np.allclose(v[EstimatorId.MD].cov, gram(kern.corrected(1.0)[0]), rtol=1e-12)
        assert np.allclose(
            v[EstimatorId.DF].cov, n_cl / (n_cl - p) * v[EstimatorId.LZ].cov, rtol=1e-12
        )
        assert np.allclose(
            v[EstimatorId.FW].cov,
            0.5 * (v[EstimatorId.KC].cov + v[EstimatorId.MD].cov),
            rtol=1e-12,
        )

    def test_ar_centering_identity(self, rng):
        kern = _balanced_kernel(rng)
        g = kern.corrected(1.0)[0]
        n_cl, p, n_star = kern.n_clusters, kern.p, kern.n_total
        gbar = np.mean(g, axis=0)
        v_md = sum(np.outer(x, x) for x in g)
        c_n = (n_star - 1) / (n_star - p) * n_cl / (n_cl - 1)
        expected = c_n * (v_md - n_cl * np.outer(gbar, gbar))
        assert np.allclose(estimate_variance(kern, EstimatorId.AR).cov, expected, rtol=1e-10)

    def test_ar_equals_scaled_md_when_scores_centered(self, rng):
        # clusters with identical geometry and mirrored residuals: the
        # corrected scores cancel pairwise, so AR = c_N * MD exactly
        rows = []
        for i in range(6):
            for j, z in enumerate((-0.6, 0.1, 0.8)):
                rows.append((i, float(j % 2), (z,), None))
        ds = validate_dataset(rows)
        kern = assemble_kernel(np.array([0.1, -0.2]), "exchangeable", 0.2, 1.0, ds)
        base = [q.resid for q in kernel_literals(kern)]
        mirrored = [base[0], -base[0], base[2], -base[2], base[4], -base[4]]
        k2 = with_residuals(kern, mirrored)
        g = k2.corrected(1.0)[0]
        assert np.allclose(np.sum(g, axis=0), 0.0, atol=1e-12)
        n_cl, p, n_star = k2.n_clusters, k2.p, k2.n_total
        c_n = (n_star - 1) / (n_star - p) * n_cl / (n_cl - 1)
        v_md = estimate_variance(k2, EstimatorId.MD).cov
        v_ar = estimate_variance(k2, EstimatorId.AR).cov
        assert np.allclose(v_ar, c_n * v_md, rtol=1e-12)

    def test_ar_vs_md_scale_factor(self, rng):
        # c_N - 1 = (39/37)(10/9) - 1 at N = 10, n* = 40, p = 3
        ds = balanced_dataset(rng, n_clusters=10, size=4)
        assert ds.p == 3 and ds.n_total == 40
        kern = assemble_kernel(rng.normal(scale=0.3, size=3), "exchangeable", 0.2, 1.0, ds)
        c_n = (40 - 1) / (40 - 3) * 10 / 9
        assert c_n - 1 == pytest.approx(0.171, abs=5e-4)
        g = kern.corrected(1.0)[0]
        v_md = sum(np.outer(x, x) for x in g)
        gbar = np.mean(g, axis=0)
        v_ar = estimate_variance(kern, EstimatorId.AR).cov
        assert np.allclose(v_ar, c_n * (v_md - 10 * np.outer(gbar, gbar)), rtol=1e-8)

    def test_fg_literal_formula(self, rng):
        # g_i = (1 - min(0.75, diag(A_i info_inv)))^{-1/2} * U_i
        kern = random_kernel(rng, n_clusters=6)
        m = np.zeros((kern.p, kern.p))
        for info, score in zip(kern.infos[0], kern.scores[0]):
            lev = np.array([(info @ kern.info_inv[0])[s, s] for s in range(kern.p)])
            g = (1.0 - np.minimum(0.75, lev)) ** -0.5 * score
            m += np.outer(g, g)
        expected = kern.info_inv[0] @ m @ kern.info_inv[0]
        got = estimate_variance(kern, EstimatorId.FG)
        assert got.computable
        assert np.allclose(got.cov, expected, rtol=1e-12, atol=0)

    def test_fg_clip_binds(self):
        # p = 1 and N = 2 identical clusters: diag(A_i info_inv) = 1/2 is
        # below the clip, so FG inflates each score by (1/2)^{-1/2}
        ds = validate_dataset([(i, y, (), None) for i in range(2) for y in (1.0, 0.0)])
        kern = assemble_kernel(np.array([0.1]), "exchangeable", 0.1, 1.0, ds)
        lz = estimate_variance(kern, EstimatorId.LZ).cov
        assert np.allclose(estimate_variance(kern, EstimatorId.FG).cov, 2.0 * lz, rtol=1e-12)
        # a cluster carrying most of the information hits the 0.75 clip
        rows = [("a", y, (1.0,), None) for y in (1.0, 1.0, 1.0, 0.0)]
        rows += [(b, y, (0.0,), None) for b in "bcd" for y in (1.0, 0.0)]
        rows += [("e", 1.0, (1.0,), None), ("e", 0.0, (0.0,), None)]
        kern = assemble_kernel(np.zeros(2), "independence", 0.0, 1.0, validate_dataset(rows))
        lev = np.diag(kern.infos[0, 0] @ kern.info_inv[0])
        assert lev.max() > 0.75 and np.all(kern.scores[0, 0] != 0)
        m = np.zeros((2, 2))
        for info, score in zip(kern.infos[0], kern.scores[0]):
            g = (1.0 - np.minimum(0.75, np.diag(info @ kern.info_inv[0]))) ** -0.5 * score
            m += np.outer(g, g)
        expected = kern.info_inv[0] @ m @ kern.info_inv[0]
        assert np.allclose(estimate_variance(kern, EstimatorId.FG).cov, expected, rtol=1e-12)

    def test_mbn_literal_formula(self, rng):
        # c_N info_inv C info_inv + kappa delta_N info_inv, C centered outer
        for kern in (random_kernel(rng, n_clusters=7), _balanced_kernel(rng, n_clusters=12)):
            n_cl, p, n_star = kern.n_clusters, kern.p, kern.n_total
            u = kern.scores[0]
            ubar = u.mean(axis=0)
            c = sum(np.outer(x - ubar, x - ubar) for x in u)
            c_n = (n_star - 1) / (n_star - p) * n_cl / (n_cl - 1)
            kappa = max(1.0, np.trace(kern.info_inv[0] @ c) / p)
            delta_n = min(0.5, p / (n_cl - p))
            expected = (
                c_n * kern.info_inv[0] @ c @ kern.info_inv[0] + kappa * delta_n * kern.info_inv[0]
            )
            got = estimate_variance(kern, EstimatorId.MBN)
            assert got.computable
            assert np.allclose(got.cov, expected, rtol=1e-12, atol=0)

    def test_mbn_ridge_psd_and_vanishing(self, rng):
        kern = _balanced_kernel(rng, n_clusters=10)
        p, n_cl = kern.p, kern.n_clusters
        delta_n = min(0.5, p / (n_cl - p))
        arr = kern.scores[0]
        centered = arr - arr.mean(axis=0)
        i1c = centered.T @ centered
        kappa = max(1.0, float(np.trace(kern.info_inv[0] @ i1c)) / p)
        ridge = kappa * delta_n * kern.info_inv[0]
        assert np.linalg.eigvalsh(ridge).min() >= 0
        assert delta_n == p / (n_cl - p)  # below the 0.5 clip at N = 10
        big = _balanced_kernel(np.random.default_rng(5), n_clusters=60)
        assert min(0.5, big.p / (big.n_clusters - big.p)) < delta_n

    def test_pooling_oracles_balanced(self, rng):
        kern = _balanced_kernel(rng)
        n_cl, p = kern.n_clusters, kern.p
        n = kern.cluster_sizes[0]
        v = estimate_all(kern)
        literals = kernel_literals(kern)
        # dense reconstruction of the pooled middles
        def pooled(c_exp, denom):
            ru = np.zeros((n, n))
            for i, q in enumerate(literals):
                h = kern.hat_block(i)
                corr = np.linalg.matrix_power(np.eye(n), 1)
                if c_exp == 1.0:
                    r = np.linalg.inv(np.eye(n) - h) @ q.resid
                elif c_exp == 0.5:
                    r = _principal_inv_sqrt(np.eye(n) - h) @ q.resid
                else:
                    r = q.resid
                e = r / np.sqrt(q.w)
                ru += np.outer(e, e)
            ru /= denom
            m = np.zeros((p, p))
            for q in literals:
                tmat = q.dmat.T @ q.vinv @ np.diag(np.sqrt(q.w))
                m += tmat @ ru @ tmat.T
            return kern.info_inv[0] @ m @ kern.info_inv[0]

        assert np.allclose(v[EstimatorId.PAN].cov, pooled(0.0, n_cl), rtol=1e-8)
        assert np.allclose(v[EstimatorId.GST].cov, pooled(0.0, n_cl - p), rtol=1e-8)
        assert np.allclose(v[EstimatorId.WL].cov, pooled(1.0, n_cl), rtol=1e-8)
        assert np.allclose(v[EstimatorId.WB].cov, pooled(0.5, n_cl), rtol=1e-8)
        # RS = PAN + ridge
        m_pan = kern.info[0] @ v[EstimatorId.PAN].cov @ kern.info[0]
        d_det = max(1.0, abs(np.linalg.det(kern.info_inv[0] @ m_pan)) ** (1 / p))
        delta_n = min(0.5, p / (n_cl - p))
        expected = v[EstimatorId.PAN].cov + delta_n * d_det * kern.info_inv[0]
        assert np.allclose(v[EstimatorId.RS].cov, expected, rtol=1e-8)

    def test_pooling_refuses_unbalanced(self, rng):
        kern = random_kernel(rng)  # ragged sizes
        assert not kern.balanced
        for est in POOLING_IDS:
            ve = estimate_variance(kern, est)
            assert not ve.computable
            assert ve.incomputable_reason == "UnbalancedPooling"
            assert ve.cov is None

    def test_fz_dense_block_oracle(self, rng):
        # brute-force double loop over explicit dense blocks, 3+ clusters
        ds = balanced_dataset(rng, n_clusters=5, size=3)
        kern = assemble_kernel(rng.normal(scale=0.3, size=ds.p), "exchangeable", 0.15, 1.0, ds)
        p = kern.p
        m = np.zeros((p, p))
        literals = kernel_literals(kern)
        for i, qi in enumerate(literals):
            n = qi.mu.shape[0]
            inner = np.outer(qi.resid, qi.resid)
            for j, qj in enumerate(literals):
                if j == i:
                    continue
                h_ij = qi.dmat @ kern.info_inv[0] @ qj.dmat.T @ qj.vinv
                inner -= h_ij @ np.outer(qj.resid, qj.resid) @ h_ij.T
            g_i = qi.dmat.T @ qi.vinv @ np.linalg.inv(np.eye(n) - kern.hat_block(i))
            m += g_i @ inner @ g_i.T
        oracle = kern.info_inv[0] @ m @ kern.info_inv[0]
        got = estimate_variance(kern, EstimatorId.FZ)
        assert np.allclose(got.cov, 0.5 * (oracle + oracle.T), rtol=1e-8)

    def test_symmetry_and_psd(self, rng):
        for _ in range(6):
            kern = _balanced_kernel(rng)
            for est, ve in estimate_all(kern).items():
                if not ve.computable and ve.cov is None:
                    continue
                v = ve.cov
                assert np.max(np.abs(v - v.T)) <= 1e-10 * max(np.max(np.abs(v)), 1e-30)
                if est not in (EstimatorId.FW, EstimatorId.FZ):
                    scale = np.linalg.eigvalsh(v).max()
                    assert np.linalg.eigvalsh(v).min() >= -1e-10 * scale

    def test_morel_term_phi_invariant(self, rng):
        # the sandwiched mean-centered middle is invariant to fixed phi
        ds = balanced_dataset(rng)
        beta = rng.normal(scale=0.4, size=ds.p)
        ref = None
        for phi in (0.5, 1.0, 2.0, 10.0):
            kern = assemble_kernel(beta, "exchangeable", 0.2, phi, ds)
            scores = kern.scores[0]
            centered = scores - scores.mean(axis=0)
            term = kern.info_inv[0] @ (centered.T @ centered) @ kern.info_inv[0]
            if ref is None:
                ref = term
            else:
                assert np.allclose(term, ref, atol=1e-10 * (1 + np.max(np.abs(ref))))


class TestOvercorrectionDiagnostic:
    def test_identical_clusters_scalar(self):
        n_clusters = 8
        ds = validate_dataset(
            [(i, y, (), None) for i in range(n_clusters) for y in (1.0, 0.0)]
        )
        kern = assemble_kernel(np.array([0.2]), "exchangeable", 0.1, 1.0, ds)
        diag = overcorrection_diagnostic(kern)
        a = kern.infos[0, 0, 0, 0]
        assert diag.matrix[0, 0] == pytest.approx(n_clusters * a / (n_clusters - 1), rel=1e-10)
        assert diag.ratios[0] == pytest.approx(1.0 / (n_clusters - 1), rel=1e-10)

    @pytest.mark.parametrize("n0,n1", [(5, 5), (3, 7), (2, 8)])
    def test_two_arm_eigenvalues(self, n0, n1):
        ds = two_arm_dataset(n0, n1)
        kern = assemble_kernel(np.array([0.25, -0.35]), "exchangeable", 0.2, 1.0, ds)
        diag = overcorrection_diagnostic(kern)
        expected = sorted([1.0 / (n0 - 1), 1.0 / (n1 - 1)])
        assert np.allclose(np.sort(diag.eigenvalues), expected, atol=1e-8)
        if (n0, n1) == (5, 5):
            # worst-case inflation of the expected corrected middle: 1.25
            assert 1.0 + np.max(diag.eigenvalues) == pytest.approx(1.25, abs=1e-8)

    def test_treatment_ratio_small_arm(self):
        # two treated clusters: rho for the treatment column is 1/(N1-1) = 1
        ds = two_arm_dataset(8, 2)
        kern = assemble_kernel(np.array([0.1, -0.2]), "exchangeable", 0.15, 1.0, ds)
        diag = overcorrection_diagnostic(kern)
        assert diag.ratios[1] == pytest.approx(1.0, rel=1e-10)

    def test_matrix_psd(self, rng):
        for _ in range(5):
            kern = random_kernel(rng)
            diag = overcorrection_diagnostic(kern)
            assert np.linalg.eigvalsh(diag.matrix).min() >= -1e-10
            assert np.all(diag.ratios >= 0)

    def test_singular_when_one_cluster_owns_direction(self):
        rows = [
            ("a", 1.0, (1.0,), None),
            ("a", 0.0, (1.0,), None),
            ("b", 1.0, (0.0,), None),
            ("b", 0.0, (0.0,), None),
            ("c", 0.0, (0.0,), None),
            ("c", 1.0, (0.0,), None),
        ]
        ds = validate_dataset(rows)
        kern = assemble_kernel(np.zeros(2), "independence", 0.0, 1.0, ds)
        with pytest.raises(SingularLeverage) as err:
            overcorrection_diagnostic(kern)
        assert err.value.cluster_id == "a"
        assert str(err.value) == "cluster a: remaining information singular"
        # a block names the first such cluster of its first such replication
        alpha, phi = np.zeros(2), np.ones(2)
        cinvs, _ = whitening_factors("independence", alpha, ds)
        y = np.stack([ds.y, ds.y])[:, ds.kernel_rows]
        beta = np.array([[0.0, 0.0], [0.3, -0.2]])
        block, ill = assemble_block(beta, "independence", alpha, phi, ds, y, cinvs)
        assert not ill.any()
        with pytest.raises(SingularLeverage) as err:
            overcorrection_diagnostic(block)
        assert str(err.value) == "cluster a: remaining information singular"

    @pytest.mark.parametrize("n_pattern", [(4,), (2, 3, 4, 5, 6, 7, 8)])
    def test_block_rows_match_replications_alone(self, n_pattern):
        # each row of a 32-replication block's diagnostic is, bitwise, the
        # diagnostic of that replication taken alone
        scen = Scenario(n_clusters=28, n_pattern=n_pattern, event_rate=0.3, rho=0.2, seed=3)
        design, y, invalid = draw_block(scen, range(32), calibrate_intercept(scen))
        assert np.all(invalid < MAX_ATTEMPTS)
        wm = WorkingModel(structure="exchangeable", alpha="estimate", dispersion=1.0)
        res = fit_block(design, y, wm)
        assert res.converged.all()
        diag = overcorrection_diagnostic(res.kernel)
        assert diag.matrix.shape == (32, design.p, design.p)
        for r in range(32):
            alone = overcorrection_diagnostic(res.kernel.take([r]))
            for name in ("matrix", "ratios", "eigenvalues"):
                assert np.array_equal(getattr(diag, name)[r], getattr(alone, name)[0]), (r, name)


def _t_cdf_quadrature(x, dof):
    from math import lgamma, pi, exp

    const = exp(lgamma((dof + 1) / 2) - lgamma(dof / 2)) / np.sqrt(dof * pi)
    pdf = lambda u: const * (1 + u * u / dof) ** (-(dof + 1) / 2)
    val, _ = quad(pdf, -np.inf, x)
    return val


#: Relative tolerance of Wald p-values and confidence limits against
#: scipy.stats.t, the one ``check_wald`` in perfbench/reference.py applies.
WALD_TOL = 1e-10

#: dof and |t| over which the t tail is checked.
TAIL_DOFS = [*range(1, 61), 97, 200, 997, 2000, 10**4, 10**5]
TAIL_TS = np.logspace(-8, 4, 61).tolist()


class TestWald:
    def test_null_value_gives_unit_p(self):
        wr = wald_test(0.4, 0.2, 12, 3, null_value=0.4)
        assert wr.t == 0.0
        assert wr.p_value == pytest.approx(1.0)

    def test_dof8_table_value(self):
        # |t| = 2.306 at dof 8 is the classic two-sided 5% point
        wr = wald_test(2.306, 1.0, 11, 3)
        assert wr.dof == 8
        assert wr.p_value == pytest.approx(0.05, abs=2e-4)
        oracle = 2 * (1 - _t_cdf_quadrature(2.306, 8))
        assert wr.p_value == pytest.approx(oracle, abs=1e-10)

    def test_dof2_wide_critical_value(self):
        # N = 5, p = 3: dof 2, critical value near 4.303
        wr = wald_test(1.0, 1.0, 5, 3)
        assert wr.dof == 2
        half_width = (wr.ci_high - wr.ci_low) / 2
        assert half_width == pytest.approx(4.302652729911275, abs=1e-6)
        assert 2 * (1 - _t_cdf_quadrature(4.303, 2)) == pytest.approx(0.05, abs=1e-4)

    def test_p_values_match_quadrature(self, rng):
        for _ in range(5):
            t = float(rng.uniform(-4, 4))
            dof = int(rng.integers(2, 30))
            wr = wald_test(t, 1.0, dof + 3, 3)
            oracle = 2 * (1 - _t_cdf_quadrature(abs(t), dof))
            assert wr.p_value == pytest.approx(oracle, abs=1e-9)

    def test_ci_symmetric(self):
        wr = wald_test(1.3, 0.4, 15, 3)
        assert wr.ci_high - wr.estimate == pytest.approx(wr.estimate - wr.ci_low)

    def test_elementwise_matches_scalar(self, rng):
        est = rng.normal(size=(3, 2))
        se = rng.uniform(0.1, 2.0, size=(3, 2))
        wr = wald_test(est, se, 12, 3, null_value=0.1)
        for i in np.ndindex(est.shape):
            one = wald_test(est[i], se[i], 12, 3, null_value=0.1)
            for name in ("t", "p_value", "ci_low", "ci_high"):
                assert getattr(wr, name)[i] == getattr(one, name)
        with pytest.raises(ZeroSE):
            wald_test(est, np.where(est > 0, se, 0.0), 12, 3)

    def test_tail_matches_scipy(self):
        for dof in TAIL_DOFS:
            for t in TAIL_TS:
                want = 2.0 * stdtr(dof, -t)
                # below 1e-300 the tail runs into subnormals; at dof 1 and
                # |t| < 1e-6 stdtr itself is off by up to 3e-9 (checked
                # against mpmath in the next test)
                if want < 1e-300 or (dof == 1 and t < 1e-6):
                    continue
                got = t_tail(t, dof)
                assert abs(got - want) <= WALD_TOL * want, (dof, t, got, want)
                assert t_tail(-t, dof) == got

    def test_tail_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for dof in TAIL_DOFS:
                for t in TAIL_TS:
                    if 2.0 * stdtr(dof, -t) < 1e-300:
                        continue
                    got = t_tail(t, dof)
                    x = mpmath.mpf(dof) / (dof + mpmath.mpf(t) ** 2)
                    want = mpmath.betainc(dof / 2, 0.5, 0, x, regularized=True)
                    assert abs(got - want) <= 1e-12 * want, (dof, t, got, want)

    def test_critical_value_matches_scipy(self):
        for dof in [*range(1, 101), *np.unique(np.logspace(2, 4, 40).astype(int)).tolist()]:
            want = stdtrit(dof, 0.975)
            assert abs(t_critical(dof, 0.05) - want) <= 1e-13 * want, dof

    def test_tail_special_values(self):
        assert t_tail(0.0, 5) == 1.0
        assert t_tail(np.inf, 5) == 0.0
        assert t_tail(-np.inf, 5) == 0.0
        assert np.isnan(t_tail(np.nan, 5))
        wr = wald_test(np.array([0.0, np.inf, np.nan]), np.ones(3), 12, 3)
        assert wr.p_value[:2].tolist() == [1.0, 0.0]
        assert np.isnan(wr.p_value[2])

    def test_zero_se_rejected(self):
        with pytest.raises(ZeroSE):
            wald_test(1.0, 0.0, 10, 3)
        # an array of SEs is reported by count, on one line
        se = np.ones((100, 3))
        se[[4, 50], 1] = 0.0
        with pytest.raises(ZeroSE) as exc:
            wald_test(np.ones_like(se), se, 10, 3)
        assert str(exc.value) == "standard error must be positive; 2 of 300 are not"
        with pytest.raises(ValueError):
            wald_test(1.0, 1.0, 3, 3)
