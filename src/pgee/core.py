"""Marginal-model quantities and the estimating-equation kernel.

For a cluster with n observations and p covariates (canonical logit link):

    mu      marginal means, logistic(X beta), clamped away from {0, 1}
    w       variance-function diagonal mu * (1 - mu)
    dmat    derivative matrix W X (n x p)
    vmat    working covariance phi * W^{1/2} R(alpha) W^{1/2}
    info    cluster information dmat' vmat^{-1} dmat (p x p)
    score   cluster score contribution dmat' vmat^{-1} (y - mu)

All clusters of one size share R(alpha), so the kernel works on the
dataset's size groups (``LongitudinalDataset.size_groups``): arrays stacked
over the clusters of each distinct size.  With C the Cholesky factor of R,
the Cholesky factor of vmat is ``L = sqrt(phi) W^{1/2} C``, so one n x n
factorization per size whitens every cluster of that size:

    dt      L^{-1} dmat = C^{-1} W^{1/2} X / sqrt(phi)
    rt      L^{-1} (y - mu)
    info    dt' dt          score   dt' rt

vmat is positive definite exactly when R is, so an inadmissible alpha is
reported for the first cluster, in cluster order, of a size whose R fails.

The kernel sums cluster informations into the sensitivity matrix and its
inverse, keeps the per-cluster informations and scores in cluster order,
and computes on demand the leverage geometry and the leverage-corrected
scores.  Its only per-cluster accessor is ``FitKernel.hat_block``, which
rebuilds one cluster's hat block from the group arrays for checks.

The bias-reduction penalty is one half the trace of ``info_inv`` times the
analytic derivative of the sensitivity matrix in each coordinate, treating
alpha and phi as constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from .data import LongitudinalDataset, SizeGroup
from .errors import SingularInformation, SingularLeverage, SingularV

#: Linear predictors are clamped to +/- this value before exponentiation.
ETA_CAP = 700.0

#: Probabilities are clamped to [MU_EPS, 1 - MU_EPS] before forming weights.
MU_EPS = 1e-12

#: Condition-number threshold beyond which the sensitivity matrix is
#: treated as singular.
COND_LIMIT = 1e12

#: (I - H) is declared singular when 1 - max eigenvalue of the symmetrized
#: hat block falls at or below this threshold.
LEVERAGE_TOL = 1e-10


def working_correlation(structure: str, alpha: float, n: int) -> np.ndarray:
    """Working correlation matrix R(alpha) of size n for the given structure."""
    if structure == "independence":
        return np.eye(n)
    if structure == "exchangeable":
        R = np.full((n, n), alpha)
        np.fill_diagonal(R, 1.0)
        return R
    if structure == "ar1":
        idx = np.arange(n)
        return alpha ** np.abs(idx[:, None] - idx[None, :])
    raise ValueError(f"unknown structure {structure!r}")


def mean_response(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Clamped logistic means for a covariate matrix or a stack of them."""
    eta = np.clip(X @ beta, -ETA_CAP, ETA_CAP)
    return np.clip(expit(eta), MU_EPS, 1.0 - MU_EPS)


class KernelGroup(NamedTuple):
    """Kernel arrays of one size group, stacked over its N_s clusters.

    ``cinv`` is the inverse Cholesky factor of R(alpha) for this size;
    ``dt`` (N_s, n, p) and ``rt`` (N_s, n) are the whitened derivative
    matrices and residuals.
    """

    idx: np.ndarray
    X: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    resid: np.ndarray
    cinv: np.ndarray
    dt: np.ndarray
    rt: np.ndarray


class LeverageGeometry(NamedTuple):
    """Eigendecomposition ``lam``, ``Q`` of the symmetric hat forms
    ``dt @ info_inv @ dt'`` of one size group, each similar to its
    cluster's hat block."""

    lam: np.ndarray
    Q: np.ndarray


def _kernel_group(
    beta: np.ndarray, structure: str, alpha: float, phi: float, group: SizeGroup
) -> KernelGroup:
    """Whitened kernel arrays of one size group.

    Raises np.linalg.LinAlgError when R(alpha) is not positive definite.
    """
    if phi <= 0:
        raise ValueError(f"phi must be positive, got {phi}")
    X = group.X
    mu = mean_response(X, beta)
    w = mu * (1.0 - mu)
    resid = group.y - mu
    chol = np.linalg.cholesky(working_correlation(structure, alpha, X.shape[1]))
    cinv = np.linalg.inv(chol)
    sw = np.sqrt(w)
    scaled = cinv / np.sqrt(phi)
    dt = np.einsum("ij,sjp->sip", scaled, sw[:, :, None] * X)
    rt = np.einsum("ij,sj->si", scaled, resid / sw)
    return KernelGroup(group.idx, X, mu, w, resid, cinv, dt, rt)


def _readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array the kernel hands out and keeps as read-only."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FitKernel:
    """Assembled kernel: size-group arrays plus the sensitivity matrix.

    ``scores`` (N, p) and ``infos`` (N, p, p) hold the cluster score
    contributions and informations in cluster order; ``info`` is their
    p x p sum and ``info_inv`` its inverse.  ``geometry`` and the
    corrected scores are computed on first use; ``hat_block`` is the only
    per-cluster accessor.
    """

    beta: np.ndarray
    structure: str
    alpha: float
    phi: float
    data: LongitudinalDataset
    groups: tuple
    scores: np.ndarray
    infos: np.ndarray
    info: np.ndarray
    info_inv: np.ndarray
    _corrections: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n_clusters(self) -> int:
        return self.data.n_clusters

    @property
    def p(self) -> int:
        return self.info.shape[0]

    @property
    def n_total(self) -> int:
        return self.data.n_total

    @property
    def cluster_sizes(self) -> tuple:
        return self.data.cluster_sizes

    @property
    def balanced(self) -> bool:
        return self.data.balanced

    @cached_property
    def geometry(self) -> tuple[LeverageGeometry, ...]:
        """Per-group :class:`LeverageGeometry`, in the order of ``groups``."""
        out = []
        for g in self.groups:
            t = np.einsum("snp,pq->snq", g.dt, self.info_inv)
            lam, Q = np.linalg.eigh(np.einsum("snq,smq->snm", t, g.dt))
            out.append(LeverageGeometry(lam, Q))
        return tuple(out)

    def corrected(self, c: float) -> tuple:
        """Scores and whitened residuals corrected by (I - H)^{-c}.

        Returns (f, u): f is the (N, p) array, in cluster order, whose rows
        are dmat' vinv (I - H)^{-c} r, and u holds one (N_s, n) array per
        group of ``L^{-1} (I - H)^{-c} r``.  c = 0 gives ``scores`` and the
        ``rt``.  Each exponent is solved once per kernel.  Raises
        SingularLeverage, naming the first such cluster in cluster order,
        when c > 0 and some (I - H) is numerically singular.
        """
        if c == 0.0:
            return self.scores, tuple(g.rt for g in self.groups)
        if c not in self._corrections:
            lmax = np.empty(self.n_clusters)
            for g, geo in zip(self.groups, self.geometry):
                lmax[g.idx] = geo.lam[:, -1]
            singular = np.flatnonzero(1.0 - lmax <= LEVERAGE_TOL)
            if singular.size:
                i = singular[0]
                cluster_id = self.data.ids[i]
                raise SingularLeverage(
                    f"cluster {cluster_id}: (I - H) numerically singular "
                    f"(max hat eigenvalue {lmax[i]:.12g})",
                    cluster_id=cluster_id,
                )
            f = np.empty_like(self.scores)
            us = []
            for g, geo in zip(self.groups, self.geometry):
                z = np.einsum("snk,sn->sk", geo.Q, g.rt) * (1.0 - geo.lam) ** (-c)
                u = np.einsum("snk,sk->sn", geo.Q, z)
                f[g.idx] = np.einsum("snp,sn->sp", g.dt, u)
                us.append(_readonly(u))
            self._corrections[c] = (_readonly(f), tuple(us))
        return self._corrections[c]

    def hat_block(self, i: int) -> np.ndarray:
        """Hat-matrix block of cluster i, dmat @ info_inv @ dmat' @ vinv.

        With vinv = L^{-T} L^{-1} this is dmat @ info_inv @ dt' @ L^{-1},
        where dmat = W X and L^{-1} = C^{-1} W^{-1/2} / sqrt(phi).
        """
        g = next(g for g in self.groups if i in g.idx)
        k = int(np.searchsorted(g.idx, i))
        dmat = g.w[k][:, None] * g.X[k]
        linv = g.cinv / np.sqrt(self.phi * g.w[k])
        return dmat @ self.info_inv @ g.dt[k].T @ linv


def assemble_kernel(
    beta: np.ndarray,
    structure: str,
    alpha: float,
    phi: float,
    data: LongitudinalDataset,
) -> FitKernel:
    """Assemble the kernel at one parameter point.

    Raises SingularV when some working covariance is not positive definite
    and SingularInformation when the summed information is not positive
    definite or its condition number exceeds COND_LIMIT.
    """
    beta = np.asarray(beta, dtype=float)
    groups, failed = [], []
    for group in data.size_groups:
        try:
            groups.append(_kernel_group(beta, structure, alpha, phi, group))
        except np.linalg.LinAlgError:
            failed.append(group.idx[0])
    if failed:
        raise SingularV(
            f"cluster {data.ids[min(failed)]}: working covariance not positive definite"
        )
    scores = np.empty((data.n_clusters, data.p))
    infos = np.empty((data.n_clusters, data.p, data.p))
    for g in groups:
        scores[g.idx] = np.einsum("snp,sn->sp", g.dt, g.rt)
        infos[g.idx] = np.einsum("snp,snq->spq", g.dt, g.dt)
    info = infos.sum(axis=0)
    info = 0.5 * (info + info.T)
    eigvals = np.linalg.eigvalsh(info)
    if eigvals[0] <= 0 or eigvals[-1] / eigvals[0] > COND_LIMIT:
        raise SingularInformation(
            f"sensitivity matrix ill-conditioned (eigenvalues {eigvals[0]:.3e}"
            f" .. {eigvals[-1]:.3e})"
        )
    info_inv = cho_solve(cho_factor(info, lower=True), np.eye(data.p))
    info_inv = 0.5 * (info_inv + info_inv.T)
    return FitKernel(
        beta=beta,
        structure=structure,
        alpha=alpha,
        phi=phi,
        data=data,
        groups=tuple(groups),
        scores=_readonly(scores),
        infos=_readonly(infos),
        info=info,
        info_inv=info_inv,
    )


def gee_score(kernel: FitKernel) -> np.ndarray:
    """Estimating-function value: sum of per-cluster score contributions."""
    return kernel.scores.sum(axis=0)


def firth_penalty(kernel: FitKernel) -> np.ndarray:
    """Bias-reduction penalty b with b_r = trace(info_inv @ d info/d beta_r) / 2.

    The derivative of the sensitivity matrix is taken analytically in beta
    with alpha and phi held constant, using the chain rule through the
    square-root weight matrix:

        d W^{1/2} / d beta_r = W^{-1/2} diag{w * (1 - 2 mu) * x_r} / 2

    Collapsing the traces leaves one weighted column sum per cluster:

        b = X' diag{w^{1/2} (1 - 2 mu)} q / (2 sqrt(phi)),
        q_j = (C^{-T} dt)_j . (X info_inv)_j

    The penalty is invariant to the fixed dispersion because info_inv and
    the derivative scale inversely.
    """
    b = np.zeros(kernel.p)
    for g in kernel.groups:
        xd = np.einsum("snp,pq->snq", g.X, kernel.info_inv)
        q = np.einsum("kn,skp,snp->sn", g.cinv, g.dt, xd)
        b += np.einsum("snr,sn->r", g.X, np.sqrt(g.w) * (1.0 - 2.0 * g.mu) * q)
    return 0.5 * b / np.sqrt(kernel.phi)
