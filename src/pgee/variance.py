"""Sandwich covariance estimators, overcorrection diagnostic, Wald inference.

Fourteen estimators are indexed by :class:`~pgee.data.EstimatorId`.  Each
is ``info_inv @ M @ info_inv + r * info_inv``, where the middle M is below
and the ridge scalar r is zero except for the two entries of ``_RIDGES``.
The table ``_COVARIANCES`` computes the first term, symmetrized once, as
sums of outer products of rows already scaled by info_inv.  Every middle
is a short formula over shared ingredients:

    f_c      cluster scores corrected by (I - H)^{-c}, c in {0, 1/2, 1}
             (f_0 are the plain scores U_i), held as the (N, p) rows
             g_c = info_inv f_c; outer(f) is sum_i f_i f_i' and
             centered(f) the same after mean-centering
    RU_c     pooled correlation of the corrected residuals
             W^{-1/2} (I - H)^{-c} r, with T_i = dmat_i' vinv_i W_i^{1/2}
    factors  N / (N - p); c_N = (n* - 1) / (n* - p) * N / (N - 1), the
             finite-population and Bessel factor; delta_N =
             min(1/2, p / (N - p)); kappa; the determinant ridge
    FZ term  sum_i P_i info_inv (sum_{j != i} U_j U_j') info_inv P_i',
             the cross-cluster contamination, P_i = dmat_i' vinv_i
             (I - H)^{-1} dmat_i

    LZ   outer(f_0)
    DF   N / (N - p) * outer(f_0)
    KC   outer(f_1/2)
    MD   outer(f_1)
    FG   outer(f_0) with U_i scaled by (1 - min(0.75, diag(A_i info_inv)))^-1/2
    MBN  c_N * centered(f_0), ridge delta_N * kappa,
         kappa = max(1, trace(info_inv centered(f_0)) / p)
    PAN  sum_i T_i RU_0 T_i' with RU_0 over N
    GST  the same with RU_0 over N - p
    WL   RU_1 over N
    WB   RU_1/2 over N
    RS   the PAN middle, ridge delta_N * max(1, |det(info_inv M)|^{1/p})
    FW   (outer(f_1/2) + outer(f_1)) / 2, the average of KC and MD
    FZ   outer(f_1) minus the FZ term; the middle can be indefinite
    AR   c_N * centered(f_1): the score-level leverage correction kept,
         then the finite-sample translation

Leverage corrections are p x p algebra on ``FitKernel.leverage``, one
eigendecomposition per cluster (see ``pgee.core``): FZ's E_i = info_inv
P_i info_inv is L0^{-T} Q lam / (1 - lam) Q' L0^{-1}, and the
overcorrection matrix is L0 (sum_i Q lam^2 / (1 - lam) Q') L0'.  Scaling
rows before the outer products keeps the digits that forming M first loses
when info is ill conditioned.

Every kernel is a block and every covariance carries its replication axis in
front.  ``estimator_table`` evaluates the requested estimators in one pass
over the (R, E) table of replications and estimators: each middle once
(with its ridge) for all replications, stacked to (R, E, p, p), then the
symmetrization, the NaN masks, the ``NegativeDiagonal`` test and the
standard errors once over the table.  ``harness.run_block`` reads the
table; ``estimate_all`` and ``estimate_variance`` are views of its
columns, and they and ``overcorrection_diagnostic`` drop the replication
axis for a ``single`` kernel (one dataset).  Wald tests work elementwise
on arrays of estimates and standard errors.

The t(N - p) reference is computed here from the math module alone.
``t_tail`` is the two-sided tail for an integer dof, the incomplete beta
ratio I_{dof/(dof+t^2)}(dof/2, 1/2) by continued fraction, within
1e-12 relative of the exact value for dof up to 1e5; its log-beta is taken
from Stirling's series at large dof, where lgamma differences cancel.
``t_critical`` inverts it by Newton's method, within 1e-13 of the tabled
quantiles for dof up to 1e4, and is cached per dof and level.

Computability is decided by masks over the table before a covariance is
evaluated, and an estimator flagged for every replication is not
evaluated.  Pooling estimators (``POOLING_IDS``) require equal cluster
sizes; on unbalanced data they are reported as not computable (never a
wrong number).  A numerically singular (I - H) marks the ``LEVERAGE_IDS``
estimators as not computable, for its replication only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FitKernel, masked_cholesky
from .data import EstimatorId, LEVERAGE_IDS, POOLING_IDS
from .errors import SingularLeverage, ZeroSE

#: Pooled leverage exponent of the WB estimator.
WB_EXPONENT = 0.5

#: Clipping threshold of the FG diagonal leverage inflation.
FG_CLIP = 0.75

_REASON_UNBALANCED = "UnbalancedPooling"
_REASON_SINGULAR = "SingularLeverage"
_REASON_NEGDIAG = "NegativeDiagonal"


@dataclass(frozen=True)
class VarianceEstimate:
    """One estimator's p x p covariance with a computability flag.

    For a block kernel every field but ``id`` carries the replication
    axis: ``cov`` and ``se`` hold NaN where they are not available, and
    ``computable`` and ``incomputable_reason`` are (R,) arrays.  For a
    ``single`` kernel they are one replication's: ``cov`` (p, p) and ``se``
    (p,), None where not available, and ``computable`` a bool.
    """

    id: EstimatorId
    cov: Optional[np.ndarray]
    se: Optional[np.ndarray]
    computable: bool
    incomputable_reason: Optional[str] = None


@dataclass(frozen=True)
class OvercorrectionDiagnostic:
    """Leverage-overcorrection matrix, per-parameter ratios, and the
    eigenvalues of info_inv @ matrix: (R, p, p), (R, p) and (R, p) for a
    block, (p, p), (p,) and (p,) for a ``single`` kernel."""

    matrix: np.ndarray
    ratios: np.ndarray
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class WaldResult:
    """Two-sided Wald t-test with N - p degrees of freedom and 95% CI;
    array fields when the test is run on arrays."""

    estimate: float
    se: float
    t: float
    dof: int
    p_value: float
    ci_low: float
    ci_high: float


def _gram(g: np.ndarray) -> np.ndarray:
    """sum_i g_i g_i' over the rows of each replication's g."""
    return g.swapaxes(-1, -2) @ g


def _centered(kernel: FitKernel, c: float) -> np.ndarray:
    """Outer-product sum of the corrected rows after mean-centering,
    evaluated once per kernel and exponent."""
    def compute():
        g = kernel.corrected(c)
        return _gram(g - g.mean(axis=-2, keepdims=True))
    return kernel.memo(("centered", c), compute)


def _pooled(kernel: FitKernel, c: float, denom: float) -> np.ndarray:
    """info_inv (sum_i T_i RU T_i') info_inv over denom: with one cluster
    size and u = L^{-1} (I - H)^{-c} r, the Cholesky factor of R cancels
    and this is sum_i e_i' (sum_j u_j u_j') e_i, e_i = dt_i info_inv.
    By push-through u = rt + dt L0^{-T} Q h(lam) Q' L0^{-1} U_i with
    h(lam) = ((1 - lam)^{-c} - 1) / lam, and h(0) = c.  The rows are
    (R, n, N, .) views of the one size group, its clusters in order."""
    n_reps, p = kernel.beta.shape
    (g,) = kernel.data.size_groups
    dt, u = g.view(kernel.zt[..., :p]), g.view(kernel.zt[..., p])
    if c:
        lam = 1.0 - kernel.gaps
        h = np.divide(np.expm1(-c * np.log(kernel.gaps)), lam, out=np.full_like(lam, c),
                      where=lam != 0.0)
        u = u + (dt.swapaxes(1, 2) @ kernel.spectral_rows(h)[..., None])[..., 0].swapaxes(1, 2)
    e = dt @ kernel.info_inv[:, None]
    spread = (u @ u.swapaxes(-1, -2) / denom) @ e.reshape(*dt.shape[:2], -1)
    rows = e.reshape(n_reps, -1, p)
    return rows.swapaxes(-1, -2) @ spread.reshape(rows.shape)


def _fg(kernel: FitKernel) -> np.ndarray:
    """Scores inflated by (1 - min(FG_CLIP, diag(A_i info_inv)))^{-1/2}, times info_inv."""
    lev = np.sum(kernel.infos * kernel.info_inv.swapaxes(-1, -2)[:, None], axis=-1)
    return _gram((1.0 - np.minimum(FG_CLIP, lev)) ** -0.5 * kernel.scores @ kernel.info_inv)


def _fz(kernel: FitKernel) -> np.ndarray:
    """MD covariance minus each cluster's cross-cluster contamination
    E_i (sum_{j != i} U_j U_j') E_i', E_i = info_inv P_i info_inv.

    The contamination sums to sum_i E_i outer(U) E_i' - outer(E_i U_i).
    With F_i = Q lam / (1 - lam) Q' and z_i = L0^{-1} U_i, E_i = L0^{-T}
    F_i L0^{-1} and the first term is L0^{-T} (sum_i F_i outer(z) F_i) L0^{-1}.
    """
    _, q, l0inv = kernel.leverage
    ratio = (1.0 - kernel.gaps) / kernel.gaps
    f = (q * ratio[..., None, :]) @ q.swapaxes(-1, -2)
    z = kernel.scores @ l0inv.swapaxes(-1, -2)
    spread = l0inv.swapaxes(-1, -2) @ np.sum(f @ _gram(z)[:, None] @ f, axis=1) @ l0inv
    return _gram(kernel.corrected(1.0)) - spread + _gram(kernel.spectral_rows(ratio))


def _fpc_bessel(kernel: FitKernel) -> float:
    n_star, n_clusters, p = kernel.n_total, kernel.n_clusters, kernel.p
    return (n_star - 1) / (n_star - p) * n_clusters / (n_clusters - 1)


def _delta_n(kernel: FitKernel) -> float:
    return min(0.5, kernel.p / (kernel.n_clusters - kernel.p))


#: Covariance of each estimator before its ridge.
_COVARIANCES = {
    EstimatorId.LZ: lambda k: _gram(k.corrected(0.0)),
    EstimatorId.DF: lambda k: k.n_clusters / (k.n_clusters - k.p) * _gram(k.corrected(0.0)),
    EstimatorId.KC: lambda k: _gram(k.corrected(0.5)),
    EstimatorId.MD: lambda k: _gram(k.corrected(1.0)),
    EstimatorId.FG: _fg,
    EstimatorId.MBN: lambda k: _fpc_bessel(k) * _centered(k, 0.0),
    EstimatorId.PAN: lambda k: k.memo("PAN", lambda: _pooled(k, 0.0, k.n_clusters)),
    EstimatorId.GST: lambda k: _pooled(k, 0.0, k.n_clusters - k.p),
    EstimatorId.WL: lambda k: _pooled(k, 1.0, k.n_clusters),
    EstimatorId.WB: lambda k: _pooled(k, WB_EXPONENT, k.n_clusters),
    EstimatorId.RS: lambda k: _COVARIANCES[EstimatorId.PAN](k),  # PAN's, evaluated once
    EstimatorId.FW: lambda k: 0.5 * (_gram(k.corrected(0.5)) + _gram(k.corrected(1.0))),
    EstimatorId.FZ: _fz,
    EstimatorId.AR: lambda k: _fpc_bessel(k) * _centered(k, 1.0),
}

#: Ridge scalar r of the estimators that add r * info_inv, given the kernel
#: and C = info_inv M info_inv: C info is similar to info_inv M.
_RIDGES = {
    EstimatorId.MBN: lambda k, cov: _delta_n(k)
    * np.maximum(1.0, np.trace(_centered(k, 0.0) @ k.info, axis1=-2, axis2=-1) / k.p),
    EstimatorId.RS: lambda k, cov: _delta_n(k)
    * np.maximum(1.0, np.abs(np.linalg.det(cov @ k.info)) ** (1.0 / k.p)),
}


def estimator_table(kernel: FitKernel, estimators) -> tuple:
    """The estimators ``estimators`` (distinct) at a kernel, in one pass
    over the (R, E) table of replications and estimators.

    Returns ``cov`` (R, E, p, p), ``se`` (R, E, p), ``computable`` and the
    reasons ``why`` (R, E).  The reasons are decided by masks first; each
    estimator that is computable somewhere is evaluated once, its ridge
    added to its symmetrized covariance, and the symmetrization, the NaN
    masks, the ``NegativeDiagonal`` test and the SEs then run once over
    the table.  ``cov`` and ``se`` are NaN where not available, but a
    ``NegativeDiagonal`` covariance is kept.
    """
    n_reps, p = kernel.beta.shape
    estimators = list(estimators)
    why = np.full((n_reps, len(estimators)), None, dtype=object)
    pooling = [e in POOLING_IDS for e in estimators]
    unbalanced = any(pooling) and not kernel.balanced
    if unbalanced:
        why[:, pooling] = _REASON_UNBALANCED
    # a singular (I - H) flags only its own replications
    leverage = [e in LEVERAGE_IDS and not (pool and unbalanced)
                for e, pool in zip(estimators, pooling)]
    if any(leverage) and kernel.singular_leverage.any():
        why[np.ix_(kernel.singular_leverage, leverage)] = _REASON_SINGULAR
    flagged = np.not_equal(why, None)  # a reason is truthy, None is not
    needed = np.any(~flagged, axis=0).tolist()
    cov = np.full((n_reps, len(estimators), p, p), np.nan)
    if not any(needed):
        return cov, cov[..., 0], np.zeros(flagged.shape, bool), why
    for j, estimator in enumerate(estimators):
        if not needed[j]:
            continue
        c = _COVARIANCES[estimator](kernel)
        if estimator in _RIDGES:
            # symmetrized before the ridge reads it; info_inv is exactly
            # symmetric, so the ridge keeps it symmetric and the table's
            # symmetrization below leaves it unchanged
            c = 0.5 * (c + c.swapaxes(-1, -2))
            c = c + _RIDGES[estimator](kernel, c)[:, None, None] * kernel.info_inv
        cov[:, j] = c
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    if flagged.any():
        # NaN rows compare false below, so they keep their reason
        cov[flagged] = np.nan
    diag = np.diagonal(cov, axis1=-2, axis2=-1)
    roundoff = 1e-12 * (1.0 + np.max(np.abs(diag), axis=-1))
    # Only FZ can produce an indefinite middle; its covariance is reported
    # but its standard errors are flagged as unavailable.
    why[np.any(diag < -roundoff[..., None], axis=-1)] = _REASON_NEGDIAG
    computable = np.equal(why, None)
    se = np.sqrt(np.clip(diag, 0.0, None))
    if not computable.all():
        se[~computable] = np.nan
    return cov, se, computable, why


def _estimate(table: tuple, j: int, estimator: EstimatorId, single: bool) -> VarianceEstimate:
    """Column ``j`` of an ``estimator_table``, as a VarianceEstimate of a
    block, or of one replication when ``single``."""
    cov, se, computable, why = (a[:, j] for a in table)
    if not single:
        return VarianceEstimate(estimator, cov, se, computable, why)
    reason = why[0]
    return VarianceEstimate(
        id=estimator,
        cov=cov[0] if reason in (None, _REASON_NEGDIAG) else None,
        se=se[0] if reason is None else None,
        computable=reason is None,
        incomputable_reason=reason,
    )


def estimate_variance(kernel: FitKernel, estimator: EstimatorId) -> VarianceEstimate:
    """Evaluate one covariance estimator at an assembled kernel.

    The covariance is ``info_inv @ M @ info_inv + r * info_inv`` for the
    estimator's middle M and ridge r (zero unless listed in ``_RIDGES``).
    Pooling estimators on unbalanced data and leverage estimators on
    clusters with singular (I - H) come back flagged as not computable;
    an indefinite FZ middle with a negative variance diagonal is flagged
    likewise rather than reporting an invalid standard error.
    """
    return _estimate(estimator_table(kernel, [estimator]), 0, estimator, kernel.single)


def estimate_all(kernel: FitKernel, estimators=None) -> dict:
    """Evaluate several estimators at one kernel (or block), as the
    columns of one ``estimator_table``.

    The leverage corrections they share are solved once per exponent by
    ``FitKernel.corrected``, and the PAN covariance once for PAN and RS.
    """
    estimators = list(dict.fromkeys(EstimatorId if estimators is None else estimators))
    table = estimator_table(kernel, estimators)
    return {e: _estimate(table, j, e, kernel.single) for j, e in enumerate(estimators)}


def overcorrection_diagnostic(kernel: FitKernel) -> OvercorrectionDiagnostic:
    """Overcorrection matrix sum_i A_i (I0 - A_i)^{-1} A_i and ratios.

    ``ratios[s]`` divides the diagonal of the matrix by the diagonal of
    the sensitivity matrix; ``eigenvalues`` are those of info_inv times
    the matrix (computed on a symmetric similar form, so real).
    Raises SingularLeverage when some (I - H) is numerically singular, by
    the criterion of ``FitKernel.singular_leverage`` (one cluster carries
    all information in some direction), naming the first such cluster in
    (replication, cluster) order.
    """
    if kernel.singular_leverage.any():
        cluster_id = kernel.data.ids[np.argwhere(kernel.singular_clusters)[0, 1]]
        raise SingularLeverage(
            f"cluster {cluster_id}: remaining information singular", cluster_id=cluster_id
        )
    # A_i (I0 - A_i)^{-1} A_i = L0 Q lam^2 / (1 - lam) Q' L0', and the sum of
    # the brackets is v' v for the rows |lam_k| / sqrt(1 - lam_k) q_k' of v.
    lam, q, _ = kernel.leverage
    v = (q * (np.abs(lam) / np.sqrt(kernel.gaps))[..., None, :]).swapaxes(-1, -2)
    v = v.reshape(v.shape[0], -1, kernel.p)
    blev = _gram(v @ masked_cholesky(kernel.info)[0].swapaxes(-1, -2))
    ratios = np.diagonal(blev, axis1=-2, axis2=-1) / np.diagonal(kernel.info, axis1=-2, axis2=-1)
    eigenvalues = np.linalg.eigvalsh(_gram(v))
    if kernel.single:
        blev, ratios, eigenvalues = blev[0], ratios[0], eigenvalues[0]
    return OvercorrectionDiagnostic(matrix=blev, ratios=ratios, eigenvalues=eigenvalues)


#: log Gamma(1/2) = log sqrt(pi).
_LGAMMA_HALF = 0.5 * math.log(math.pi)

#: Coefficients B_2k / (2k (2k - 1)) of Stirling's series for log Gamma.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)

#: Floor of the modified Lentz recurrences, which divide by their terms.
_TINY = 1e-300


def _stirling(x: float) -> float:
    """log Gamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi)), for x >= 10."""
    z = 1.0 / (x * x)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * z + c
    return acc / x


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2).

    For large a, lgamma(a) and lgamma(a + 1/2) are O(a log a) and their
    difference only O(log a), so the rounding of each would cost about
    a * 1e-16 of relative accuracy; from a = 10 on the difference is taken
    from Stirling's series instead, where nothing large cancels.
    """
    if a < 10.0:
        return math.lgamma(a) + _LGAMMA_HALF - math.lgamma(a + 0.5)
    return (_LGAMMA_HALF - 0.5 * math.log(a) - a * math.log1p(0.5 / a) + 0.5
            + _stirling(a) - _stirling(a + 0.5))


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction f with I_x(a, b) = x^a y^b / (B(a, b) f), y = 1 - x.

    This is the fraction of DiDonato and Morris (1992, BFRAC), evaluated by
    the modified Lentz method.  Its terms take x and y separately, so none
    of them cancels near x = 1.  It converges quickly for x < (a + 1) /
    (a + b + 2), in under 70 terms for every dof up to 1e12 when b = 1/2.
    """
    c0 = a * y - b * x + 1.0
    f = a * c0 / (a + 1.0)
    c, d = f, 0.0
    for m in range(1, 1000):
        den = a + 2 * m - 1
        an = (m * (a + m - 1) / den) * ((a + b + m - 1) / den) * (b - m) * x * x
        bn = m + m * (b - m) * x / den + (a + m) * (c0 + m * (2.0 - x)) / (den + 2)
        d = bn + an * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = bn + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= 2.2e-16:
            break
    return f


def t_tail(t: float, dof: int) -> float:
    """Two-sided tail P(|T| >= |t|) of Student's t with ``dof`` degrees of
    freedom: the incomplete beta ratio I_x(dof/2, 1/2) at
    x = dof / (dof + t^2).

    Within 1e-12 relative of the exact value for dof up to 1e5 and |t| up
    to 1e4 (down to 1e-300).  x and 1 - x are formed from r = t^2 / dof or
    its inverse, whichever is at most 1, so neither cancels or overflows.
    """
    t = abs(t)
    if math.isnan(t):
        return math.nan
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    a, b = 0.5 * dof, 0.5
    log_ratio = 2.0 * math.log(t) - math.log(dof)  # log(t^2 / dof)
    if log_ratio < 0.0:
        r = t / dof * t
        log_x, log_y = -math.log1p(r), log_ratio - math.log1p(r)
        x, y = 1.0 / (1.0 + r), r / (1.0 + r)
    else:
        r = dof / t / t
        log_x, log_y = -log_ratio - math.log1p(r), -math.log1p(r)
        x, y = r / (1.0 + r), 1.0 / (1.0 + r)
    front = math.exp(a * log_x + b * log_y - _log_beta_half(a))
    if x < (a + 1.0) / (a + b + 2.0):
        return front / _beta_fraction(a, b, x, y)
    return 1.0 - front / _beta_fraction(b, a, y, x)


@functools.cache
def t_critical(dof: int, level: float) -> float:
    """The t with t_tail(t, dof) = level: the 1 - level/2 quantile of t(dof).

    Newton's method from t = 0.  The tail is convex and decreasing in t > 0,
    so every step lands at or below the root and the iterates rise to it
    monotonically, in at most a dozen steps at level 0.05.  Cached: each
    (dof, level) is solved once per process.
    """
    log_norm = 0.5 * math.log(dof) + _log_beta_half(0.5 * dof)
    t = 0.0
    for _ in range(100):
        # the tail falls at twice the t density, (1 + t^2/dof)^(-(dof+1)/2) / (sqrt(dof) B)
        slope = 2.0 * math.exp(-0.5 * (dof + 1) * math.log1p(t / dof * t) - log_norm)
        step = (t_tail(t, dof) - level) / slope
        t += step
        if step <= 4e-16 * t:
            break
    return t


def wald_test(
    estimate,
    se,
    n_clusters: int,
    n_params: int,
    null_value: float = 0.0,
) -> WaldResult:
    """Two-sided Wald t-test with N - p degrees of freedom and a 95% CI,
    elementwise over arrays of estimates and standard errors."""
    if n_clusters <= n_params:
        raise ValueError("need more clusters than parameters for the t-test")
    positive = np.greater(se, 0)
    if not np.all(positive):
        raise ZeroSE(
            f"standard error must be positive; {np.size(se) - np.count_nonzero(positive)}"
            f" of {np.size(se)} are not"
        )
    dof = n_clusters - n_params
    tstat = (estimate - null_value) / se
    crit = t_critical(dof, 0.05)
    p_value = np.reshape([t_tail(t, dof) for t in np.ravel(tstat).tolist()], np.shape(tstat))
    out = float if np.ndim(tstat) == 0 else np.asarray
    return WaldResult(
        estimate=out(estimate),
        se=out(se),
        t=out(tstat),
        dof=dof,
        p_value=out(p_value),
        ci_low=out(estimate - crit * se),
        ci_high=out(estimate + crit * se),
    )
