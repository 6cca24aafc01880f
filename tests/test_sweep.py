"""A derandomized sweep of the fit and the estimator table against the
literal references in ``oracle``.

Each example is a design (balanced, or cluster sizes 2..8 in interleaved
order), a working structure, a number of clusters down to N = p + 1, a
working correlation that is estimated or fixed within 1e-3 of a bound of
its admissible interval, and a block of R replications with their own
responses.  ``fit_block`` must follow ``literal_fit`` exactly, replication
by replication, and each converged replication's row of
``estimator_table`` must match ``literal_covariances`` from its whitened
rows at LITERAL_TOL.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgee import EstimatorId, LEVERAGE_IDS, POOLING_IDS, WorkingModel, fit_block, validate_dataset
from pgee.data import exchangeable_alpha_bounds
from pgee.fitting import FitOptions
from pgee.variance import estimator_table

from oracle import literal_covariances, literal_fit, whitened_clusters, whitening

#: Relative SE error allowed against the 60-digit literal covariances
#: (as in test_variance.py).
LITERAL_TOL = 1e-8

ESTIMATORS = list(EstimatorId)


def _design(seed, p, n_clusters, balanced):
    """Intercept, a treatment alternating over clusters and (p = 3) a
    within-cluster uniform covariate; sizes all 4, or drawn from 2..8."""
    rng = np.random.default_rng(seed)
    sizes = np.full(n_clusters, 4) if balanced else rng.integers(2, 9, n_clusters)
    rows = []
    for i, n in enumerate(sizes):
        for _ in range(n):
            covs = (float(i % 2), float(rng.uniform(-1.0, 1.0)))[: p - 1]
            rows.append((f"c{i}", 0.0, covs, None))
    return validate_dataset(rows), rng


def _alpha(structure, mode, delta, n_max):
    if structure == "independence" or mode == "estimate":
        return "estimate" if structure != "independence" else 0.0
    lo, hi = exchangeable_alpha_bounds(n_max) if structure == "exchangeable" else (-1.0, 1.0)
    return lo + delta if mode == "low" else hi - delta


@st.composite
def _cases(draw):
    p = draw(st.integers(1, 3))
    return dict(
        structure=draw(st.sampled_from(["independence", "exchangeable", "ar1"])),
        p=p,
        n_clusters=draw(st.integers(p + 1, 9)),
        balanced=draw(st.booleans()),
        mode=draw(st.sampled_from(["estimate", "low", "high"])),
        delta=draw(st.floats(1e-5, 1e-3)),
        n_reps=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


def _case(structure, p, n_clusters, balanced, mode, delta, n_reps, seed):
    return dict(structure=structure, p=p, n_clusters=n_clusters, balanced=balanced,
                mode=mode, delta=delta, n_reps=n_reps, seed=seed)


def _check_estimators(kern, r):
    """Replication r of the block's estimator table against the literal
    covariances of its whitened rows."""
    dt, rt = whitened_clusters(kern, r)
    factors = whitening(kern, r) if kern.balanced else None
    exact = literal_covariances(dt, rt, kern.n_total, factors)
    _, se, computable, why = estimator_table(kern, ESTIMATORS)
    for tag, cov in exact.items():
        j = ESTIMATORS.index(EstimatorId[tag])
        if np.any(np.diag(cov) < 0):
            assert why[r, j] == "NegativeDiagonal", tag
            continue
        assert computable[r, j], (tag, why[r, j])
        err = np.max(np.abs(se[r, j] / np.sqrt(np.diag(cov)) - 1.0))
        assert err <= LITERAL_TOL, (tag, err)
    pooling = set() if kern.balanced else POOLING_IDS
    for est in pooling:
        assert why[r, ESTIMATORS.index(est)] == "UnbalancedPooling", est
    undefined = set(EstimatorId) - pooling - {EstimatorId[tag] for tag in exact}
    assert undefined == (LEVERAGE_IDS - pooling if kern.singular_leverage[r] else set())
    for est in undefined:
        assert why[r, ESTIMATORS.index(est)] == "SingularLeverage", est


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=_cases())
# N = p + 1 on interleaved sizes, a fixed alpha 1e-3 inside each bound,
# and blocks of three
@example(case=_case("exchangeable", 3, 4, False, "low", 1e-3, 3, 11))
@example(case=_case("exchangeable", 2, 3, False, "high", 1e-3, 3, 12))
@example(case=_case("ar1", 3, 4, True, "high", 1e-3, 3, 13))
@example(case=_case("ar1", 2, 9, False, "low", 1e-3, 3, 14))
@example(case=_case("independence", 3, 9, False, "estimate", 1e-3, 3, 15))
@example(case=_case("exchangeable", 3, 9, True, "estimate", 1e-3, 3, 16))
def test_fit_and_table_match_literal_references(case):
    pytest.importorskip("mpmath")
    data, rng = _design(case["seed"], case["p"], case["n_clusters"], case["balanced"])
    y = (rng.random((case["n_reps"], data.n_total)) < 0.4).astype(float)
    wm = WorkingModel(case["structure"],
                      _alpha(case["structure"], case["mode"], case["delta"], max(data.cluster_sizes)),
                      1.0)
    opts = FitOptions()
    res = fit_block(data, y, wm, opts)
    for r, yr in enumerate(y):
        ref = literal_fit(data, yr, wm, opts)
        assert np.array_equal(res.beta[r], ref.beta), r
        got = (res.alpha[r], res.phi[r], res.converged[r], res.iterations[r],
               res.diverged_reason[r])
        assert got == (ref.alpha, ref.phi, ref.converged, ref.iterations, ref.reason), r
        if ref.kernel is not None:
            assert np.array_equal(res.kernel.info_inv[r], ref.kernel.info_inv[0]), r
            assert np.array_equal(res.kernel.score[r], ref.kernel.score[0]), r
        if res.converged[r]:
            _check_estimators(res.kernel, r)
