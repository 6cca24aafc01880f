"""Per-cluster marginal-model quantities and the estimating-equation kernel.

For a cluster with n observations and p covariates (canonical logit link):

    mu      marginal means, logistic(X beta), clamped away from {0, 1}
    w       variance-function diagonal mu * (1 - mu)
    dmat    derivative matrix W X (n x p)
    vmat    working covariance phi * W^{1/2} R(alpha) W^{1/2}
    info    cluster information dmat' vmat^{-1} dmat (p x p)
    score   cluster score contribution dmat' vmat^{-1} (y - mu)

The kernel aggregates cluster information into the sensitivity matrix
(sum of cluster informations) and its inverse, and exposes hat-matrix
blocks ``hat_block(i) = dmat_i @ info_inv @ dmat_i' @ vinv_i`` on demand.
Sums always run in cluster order so results are reproducible.

The bias-reduction penalty is one half the trace of ``info_inv`` times the
analytic derivative of the sensitivity matrix in each coordinate, treating
alpha and phi as constants; a central finite-difference fallback is
provided for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular, LinAlgError
from scipy.special import expit

from .data import LongitudinalDataset, Cluster
from .errors import SingularInformation, SingularV

#: Linear predictors are clamped to +/- this value before exponentiation.
ETA_CAP = 700.0

#: Probabilities are clamped to [MU_EPS, 1 - MU_EPS] before forming weights.
MU_EPS = 1e-12

#: Condition-number threshold beyond which the sensitivity matrix is
#: treated as singular.
COND_LIMIT = 1e12


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
    """Clamped logistic means for one covariate matrix."""
    eta = np.clip(X @ beta, -ETA_CAP, ETA_CAP)
    return np.clip(expit(eta), MU_EPS, 1.0 - MU_EPS)


@dataclass(frozen=True)
class ClusterQuantities:
    """Cached per-cluster matrices at a fixed (beta, alpha, phi)."""

    mu: np.ndarray
    w: np.ndarray
    dmat: np.ndarray
    vmat: np.ndarray
    vinv: np.ndarray
    resid: np.ndarray
    info: np.ndarray
    score: np.ndarray


def cluster_quantities(
    beta: np.ndarray,
    structure: str,
    alpha: float,
    phi: float,
    cluster: Cluster,
) -> ClusterQuantities:
    """Evaluate all per-cluster quantities at one parameter point.

    Raises SingularV when the working covariance cannot be factorized as
    symmetric positive definite (e.g. inadmissible alpha).
    """
    if phi <= 0:
        raise ValueError(f"phi must be positive, got {phi}")
    X = cluster.X
    mu = mean_response(X, beta)
    w = mu * (1.0 - mu)
    dmat = w[:, None] * X
    resid = cluster.y - mu
    n = cluster.n
    if structure == "independence":
        vdiag = phi * w
        vmat = np.diag(vdiag)
        vinv = np.diag(1.0 / vdiag)
        vinv_d = dmat / vdiag[:, None]
        vinv_r = resid / vdiag
    else:
        sw = np.sqrt(w)
        R = working_correlation(structure, alpha, n)
        vmat = phi * (sw[:, None] * R * sw[None, :])
        try:
            cho = cho_factor(vmat, lower=True, check_finite=False)
        except (LinAlgError, np.linalg.LinAlgError) as exc:
            raise SingularV(
                f"cluster {cluster.id}: working covariance not positive definite"
            ) from exc
        solved = cho_solve(
            cho,
            np.hstack([np.eye(n), dmat, resid[:, None]]),
            check_finite=False,
        )
        vinv = solved[:, :n]
        vinv = 0.5 * (vinv + vinv.T)
        vinv_d = solved[:, n:-1]
        vinv_r = solved[:, -1]
    info = dmat.T @ vinv_d
    info = 0.5 * (info + info.T)
    score = dmat.T @ vinv_r
    return ClusterQuantities(
        mu=mu, w=w, dmat=dmat, vmat=vmat, vinv=vinv, resid=resid, info=info, score=score
    )


class LeverageGeometry(NamedTuple):
    """Residual-independent leverage factorization of one cluster.

    ``L`` is the Cholesky factor of vmat, ``dt = L^{-1} dmat``, and
    ``lam``, ``Q`` the eigendecomposition of the symmetric hat form
    ``dt @ info_inv @ dt'``, which is similar to the hat block.
    """

    L: np.ndarray
    dt: np.ndarray
    lam: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True)
class FitKernel:
    """Assembled kernel: per-cluster quantities plus the sensitivity matrix.

    ``info`` is the p x p sum of cluster informations and ``info_inv`` its
    inverse.  ``geometry`` holds each cluster's leverage factorization,
    computed on first use.
    """

    beta: np.ndarray
    structure: str
    alpha: float
    phi: float
    data: LongitudinalDataset
    cq: tuple
    info: np.ndarray
    info_inv: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.cq)

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
        """Per-cluster :class:`LeverageGeometry`, in cluster order."""
        out = []
        for q in self.cq:
            L = np.linalg.cholesky(q.vmat)
            dt = solve_triangular(L, q.dmat, lower=True, check_finite=False)
            S = dt @ self.info_inv @ dt.T
            lam, Q = np.linalg.eigh(0.5 * (S + S.T))
            out.append(LeverageGeometry(L, dt, lam, Q))
        return tuple(out)

    def hat_block(self, i: int) -> np.ndarray:
        """Hat-matrix block of cluster i: dmat @ info_inv @ dmat' @ vinv."""
        q = self.cq[i]
        return q.dmat @ self.info_inv @ q.dmat.T @ q.vinv

    def with_residuals(self, residuals) -> "FitKernel":
        """Copy of this kernel with residuals (and scores) replaced.

        The fitted geometry (means, covariances, informations) is retained;
        only per-cluster residual vectors and score contributions change.
        Used to evaluate estimator middles on externally constructed
        residuals, e.g. expansion-based simulation checks.
        """
        new_cq = []
        for q, r in zip(self.cq, residuals):
            r = np.asarray(r, dtype=float)
            new_cq.append(replace(q, resid=r, score=q.dmat.T @ (q.vinv @ r)))
        return replace(self, cq=tuple(new_cq))


def assemble_kernel(
    beta: np.ndarray,
    structure: str,
    alpha: float,
    phi: float,
    data: LongitudinalDataset,
) -> FitKernel:
    """Assemble the kernel at one parameter point.

    Raises SingularInformation when the summed information is not positive
    definite or its condition number exceeds COND_LIMIT.
    """
    beta = np.asarray(beta, dtype=float)
    cq = tuple(
        cluster_quantities(beta, structure, alpha, phi, c) for c in data.clusters
    )
    info = np.zeros((data.p, data.p))
    for q in cq:
        info += q.info
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
        cq=cq,
        info=info,
        info_inv=info_inv,
    )


def gee_score(kernel: FitKernel) -> np.ndarray:
    """Estimating-function value: sum of per-cluster score contributions."""
    u = np.zeros(kernel.p)
    for q in kernel.cq:
        u += q.score
    return u


def firth_penalty(kernel: FitKernel) -> np.ndarray:
    """Bias-reduction penalty b with b_r = trace(info_inv @ d info/d beta_r) / 2.

    The derivative of the sensitivity matrix is taken analytically in beta
    with alpha and phi held constant, using the chain rule through the
    square-root weight matrix:

        d W^{1/2} / d beta_r = W^{-1/2} diag{w * (1 - 2 mu) * x_r} / 2

    The penalty is invariant to the fixed dispersion because info_inv and
    the derivative scale inversely.
    """
    p = kernel.p
    delta = kernel.info_inv
    b = np.zeros(p)
    for q, cluster in zip(kernel.cq, kernel.data.clusters):
        X = cluster.X
        sw = np.sqrt(q.w)
        bmat = sw[:, None] * X
        # R^{-1} recovered from the stored inverse covariance.
        rinv = kernel.phi * (sw[:, None] * q.vinv * sw[None, :])
        kmat = bmat.T @ rinv
        # b_r = trace(delta @ (S_r + S_r')) / (2 phi) with
        # S_r = kmat @ diag(c_r) @ X and c_r = sw (1 - 2 mu) X[:, r] / 2;
        # collapsing the traces gives one weighted column sum per cluster.
        qvec = np.einsum("aj,aj->j", kmat, delta @ X.T)
        cvec = 0.5 * sw * (1.0 - 2.0 * q.mu) * qvec
        b += (X.T @ cvec) / kernel.phi
    return b


def firth_penalty_fd(
    beta: np.ndarray,
    structure: str,
    alpha: float,
    phi: float,
    data: LongitudinalDataset,
    rel_step: float = 1e-5,
) -> np.ndarray:
    """Finite-difference fallback for the penalty.

    Central differences of the assembled sensitivity matrix are pushed
    through the trace formula; the analytic path must agree to 1e-5
    relative.
    """
    beta = np.asarray(beta, dtype=float)
    p = beta.shape[0]
    center = assemble_kernel(beta, structure, alpha, phi, data)
    b = np.zeros(p)
    for r in range(p):
        h = rel_step * max(1.0, abs(beta[r]))
        bp = beta.copy()
        bp[r] += h
        bm = beta.copy()
        bm[r] -= h
        info_p = assemble_kernel(bp, structure, alpha, phi, data).info
        info_m = assemble_kernel(bm, structure, alpha, phi, data).info
        dinfo = (info_p - info_m) / (2.0 * h)
        b[r] = 0.5 * np.sum(center.info_inv * dinfo)
    return b
