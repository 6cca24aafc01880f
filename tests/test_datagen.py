"""Correlated binary generation: weights, moments, calibration, datasets."""

import math

import numpy as np
import pytest
from scipy.special import expit

from pgee import (
    Scenario,
    calibrate_intercept,
    generate_dataset,
)
from pgee.core import conditional_regression
from pgee.datagen import design_columns
from pgee.errors import BracketFailure

from oracle import clf_sample, literal_clf_coefficients, literal_clf_dataset, working_correlation


class TestCalibration:
    def test_symmetric_rate_gives_zero(self):
        scen = Scenario(n_clusters=10, event_rate=0.5, rho=0.1, beta1=0.0, beta2=0.0)
        assert calibrate_intercept(scen) == pytest.approx(0.0, abs=1e-8)

    def test_closed_form_no_covariates(self):
        scen = Scenario(n_clusters=10, event_rate=0.1, rho=0.1, beta1=0.0, beta2=0.0)
        assert calibrate_intercept(scen) == pytest.approx(math.log(1 / 9), abs=1e-7)

    def test_design_average_hits_target(self):
        scen = Scenario(
            n_clusters=10,
            event_rate=0.2,
            rho=0.1,
            beta1=math.log(2),
            beta2=0.2,
            gamma=0.3,
        )
        b0 = calibrate_intercept(scen)
        _, treat, time = design_columns(scen)
        mean = np.mean(expit(b0 + math.log(2) * treat + 0.2 * time))
        assert mean == pytest.approx(0.2, abs=1e-8)

    def test_unreachable_rate_raises(self):
        scen = Scenario(n_clusters=10, event_rate=1e-10, rho=0.1)
        with pytest.raises(BracketFailure):
            calibrate_intercept(scen)


class TestClfCoefficients:
    def test_independent_weights_zero(self):
        b = conditional_regression("exchangeable", 0.0, 4)[0]
        assert np.allclose(b, 0.0)

    def test_ar1_single_lag(self):
        b = conditional_regression("ar1", 0.4, 5)[0]
        for j in range(1, 5):
            assert b[j, j - 1] == pytest.approx(0.4, abs=1e-12)
            assert np.allclose(b[j, : j - 1], 0.0, atol=1e-12)

    def test_exchangeable_common_weight(self):
        rho = 0.25
        b = conditional_regression("exchangeable", rho, 5)[0]
        for j in range(1, 5):
            expected = rho / (1 + (j - 1) * rho)  # j previous positions
            assert np.allclose(b[j, :j], expected, atol=1e-12)

    @pytest.mark.parametrize(
        "structure,rhos",
        [("exchangeable", (-1 / 7 + 1e-6, -0.1, 0.25, 0.7, 1 - 1e-6, 1 - 1e-7)),
         ("ar1", (-1 + 1e-6, -0.4, 0.4, 0.7, 1 - 1e-6, 1 - 1e-7))],
    )
    def test_weights_solve_the_literal_system(self, structure, rhos):
        # each row solves R[:j, :j] b = R[:j, j] to a residual of 2 eps; at
        # |rho| <= 0.7 it is the solved row to 1e-15 (near a bound, the
        # dense solve is the less accurate side)
        for rho in rhos:
            for n in range(2, 9):
                b = conditional_regression(structure, rho, n)[0]
                r = working_correlation(structure, rho, n)
                assert np.array_equal(b, np.tril(b, -1))
                for j in range(1, n):
                    assert np.abs(r[:j, :j] @ b[j, :j] - r[:j, j]).max() <= 2.3e-16, (rho, n, j)
                if abs(rho) <= 0.7:
                    want = literal_clf_coefficients(structure, rho, n)
                    assert np.abs(b - want).max() <= 1e-15, (rho, n)


class TestClfDraws:
    def test_two_point_joint_law(self):
        # P(y1=1, y2=1) = mu1 mu2 + rho sqrt(w1 w2) by enumeration of the
        # sequential construction
        mu = np.array([0.5, 0.5])
        rho = 0.3
        b = conditional_regression("exchangeable", rho, len(mu))[0]
        lam_given_1 = mu[1] + b[1, 0] * (1 - mu[0])
        p11 = mu[0] * lam_given_1
        assert p11 == pytest.approx(0.325, abs=1e-12)
        rng = np.random.default_rng(11)
        draws, invalid = clf_sample(mu, "exchangeable", rho, rng, 100_000)
        assert invalid == 0
        freq = np.mean((draws[:, 0] == 1) & (draws[:, 1] == 1))
        assert freq == pytest.approx(p11, abs=0.005)

    def test_independent_means(self):
        rng = np.random.default_rng(5)
        mu = np.array([0.2, 0.5, 0.7])
        draws, invalid = clf_sample(mu, "exchangeable", 0.0, rng, 100_000)
        assert invalid == 0
        assert np.allclose(draws.mean(axis=0), mu, atol=0.005)

    @pytest.mark.parametrize("structure", ["exchangeable", "ar1"])
    def test_pairwise_correlations(self, structure):
        rng = np.random.default_rng(17)
        mu = np.full(4, 0.2)
        draws, invalid = clf_sample(mu, structure, 0.2, rng, 100_000)
        assert invalid == 0
        corr = np.corrcoef(draws.T)
        for j in range(4):
            for k in range(j + 1, 4):
                target = 0.2 if structure == "exchangeable" else 0.2 ** (k - j)
                assert corr[j, k] == pytest.approx(target, abs=0.02)

    def test_single_draw_shape(self):
        rng = np.random.default_rng(1)
        draws, invalid = clf_sample(np.full(4, 0.3), "ar1", 0.2, rng, size=1)
        assert invalid == 0
        assert draws.shape == (1, 4)
        assert set(np.unique(draws)) <= {0.0, 1.0}

    def test_invalid_draws_counted_not_clamped(self):
        # strong negative correlation with high means: a zero at position 1
        # pushes the next conditional mean above 1
        mu = np.array([0.9, 0.9, 0.5])
        rng = np.random.default_rng(3)
        draws, invalid = clf_sample(mu, "exchangeable", -0.45, rng, 2000)
        assert invalid > 0
        assert draws.shape[0] == 2000 - invalid
        # the retained rows all had conditional means inside (0, 1)
        assert set(np.unique(draws)) <= {0.0, 1.0}


class TestGenerateDataset:
    def _scenario(self, **kw):
        base = dict(
            n_clusters=10,
            n_pattern=(4,),
            event_rate=0.2,
            rho=0.2,
            true_structure="exchangeable",
            working_structure="exchangeable",
            seed=77,
        )
        base.update(kw)
        return Scenario(**base)

    def test_treated_count(self):
        scen = self._scenario()
        ds = generate_dataset(scen, np.random.default_rng(0))
        treated = [c for c in ds.clusters if c.X[0, 1] == 1.0]
        assert len(treated) == 3
        assert all(c.X[0, 1] == 1.0 for c in ds.clusters[:3])

    def test_alternating_pattern(self):
        scen = self._scenario(n_pattern=(2, 6))
        ds = generate_dataset(scen, np.random.default_rng(0))
        assert ds.cluster_sizes == (2, 6) * 5

    def test_time_grid(self):
        scen = self._scenario()
        ds = generate_dataset(scen, np.random.default_rng(0))
        assert ds.has_time
        assert np.allclose(ds.clusters[0].X[:, -1], [0.2, 0.4, 0.6, 0.8])

    def test_reduced_model_has_no_time(self):
        scen = self._scenario(model="reduced")
        ds = generate_dataset(scen, np.random.default_rng(0))
        assert ds.p == 2
        assert not ds.has_time

    def test_event_rate_monte_carlo(self):
        scen = self._scenario(n_clusters=2000, beta1=0.0, beta2=0.0, event_rate=0.2)
        ds = generate_dataset(scen, np.random.default_rng(4))
        pooled = np.concatenate([c.y for c in ds.clusters]).mean()
        assert pooled == pytest.approx(0.2, abs=0.01)

    def test_same_seed_bitwise_identical(self):
        scen = self._scenario()
        d1 = generate_dataset(scen, np.random.default_rng(np.random.SeedSequence((7, 0))))
        d2 = generate_dataset(scen, np.random.default_rng(np.random.SeedSequence((7, 0))))
        for a, b in zip(d1.clusters, d2.clusters):
            assert np.array_equal(a.y, b.y)

    def test_different_streams_differ(self):
        scen = self._scenario()
        d1 = generate_dataset(scen, np.random.default_rng(np.random.SeedSequence((7, 0))))
        d2 = generate_dataset(scen, np.random.default_rng(np.random.SeedSequence((7, 1))))
        ys1 = np.concatenate([c.y for c in d1.clusters])
        ys2 = np.concatenate([c.y for c in d2.clusters])
        assert not np.array_equal(ys1, ys2)


#: Cells of the literal-draw comparison; the last has ~95% invalid draws.
_LITERAL_CELLS = {
    "balanced-exchangeable": dict(n_clusters=10, n_pattern=(4,), beta1=math.log(2)),
    "unbalanced-2/6": dict(n_clusters=10, n_pattern=(2, 6)),
    "ar1-3/8": dict(n_clusters=12, n_pattern=(3, 8), true_structure="ar1"),
    "reduced": dict(n_clusters=15, n_pattern=(5,), model="reduced", beta1=0.7),
    "invalid-heavy": dict(n_clusters=20, n_pattern=(4,), event_rate=0.3, rho=-0.2),
}


@pytest.mark.parametrize("cell", list(_LITERAL_CELLS))
def test_grouped_draw_matches_literal_cluster_loop(cell):
    scen = Scenario(**{"event_rate": 0.2, "rho": 0.2, "seed": 31, **_LITERAL_CELLS[cell]})
    intercept = calibrate_intercept(scen)
    valid = 0
    for k in range(200):
        got, want = (
            f(scen, np.random.default_rng(np.random.SeedSequence((31, k))), intercept)
            for f in (generate_dataset, literal_clf_dataset)
        )
        assert (got is None) == (want is None), f"substream {k}"
        if want is not None:
            valid += 1
            assert got.y.tobytes() == want.y.tobytes(), f"substream {k}"
            assert got.X.tobytes() == want.X.tobytes(), f"substream {k}"
    # every cell exercises both outcomes it is meant to
    assert valid > 0
    if cell == "invalid-heavy":
        assert valid < 40


class TestScenarioValidation:
    def test_rho_admissibility(self):
        with pytest.raises(ValueError):
            Scenario(n_clusters=10, rho=-0.5, true_structure="exchangeable")
        with pytest.raises(ValueError):
            Scenario(n_clusters=10, rho=1.2, true_structure="ar1")

    def test_empty_arm_rejected(self):
        with pytest.raises(ValueError):
            Scenario(n_clusters=10, gamma=0.01)

    def test_independence_truth_rejected(self):
        with pytest.raises(ValueError):
            Scenario(n_clusters=10, true_structure="independence")

    def test_tiny_cluster_rejected(self):
        with pytest.raises(ValueError):
            Scenario(n_clusters=10, n_pattern=(1, 4))

    @pytest.mark.parametrize("pattern,sizes", [("4", (4,)), ("2/6", (2, 6)), (3, (3,))])
    def test_size_pattern_forms(self, pattern, sizes):
        assert Scenario(n_clusters=10, n_pattern=pattern).n_pattern == sizes

    @pytest.mark.parametrize("pattern", ["2/x", "", "2//6", "2.5"])
    def test_bad_size_pattern_named(self, pattern):
        with pytest.raises(ValueError, match=f"cluster-size pattern {pattern!r}"):
            Scenario(n_clusters=10, n_pattern=pattern)

    @pytest.mark.parametrize("field,value", [("n_pattern", (2.7, 6.9)), ("n_pattern", 2.5),
                                             ("n_pattern", None), ("n_clusters", 10.7),
                                             ("n_clusters", "10")])
    def test_non_integer_size_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            Scenario(**{"n_clusters": 10, field: value})

    @pytest.mark.parametrize("n_clusters,pattern", [(10**20, (4,)), (10_001, (4,)),
                                                    (10, "2/21"), (10, (10**20,))])
    def test_desk_scale_bound(self, n_clusters, pattern):
        # N <= 10 000 and sizes <= 20 (README), checked in __post_init__,
        # before cluster_sizes builds an N-long list
        with pytest.raises(ValueError, match="exceed the desk-scale bounds"):
            Scenario(n_clusters=n_clusters, n_pattern=pattern)

    def test_desk_scale_bound_admits_its_edge(self):
        scen = Scenario(n_clusters=10_000, n_pattern=(2, 20))
        assert scen.n_clusters == 10_000 and scen.n_pattern == (2, 20)

    def test_integral_sizes_accepted(self):
        scen = Scenario(n_clusters=np.int64(10), n_pattern=(np.int64(2), 6))
        assert type(scen.n_clusters) is int and scen.n_clusters == 10
        assert scen.n_pattern == (2, 6) and all(type(n) is int for n in scen.n_pattern)
        assert scen.cluster_sizes() == [2, 6] * 5
        assert Scenario(n_clusters=10, n_pattern=np.int64(3)).n_pattern == (3,)
