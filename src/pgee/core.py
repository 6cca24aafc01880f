"""Marginal-model quantities and the estimating-equation kernel.

For a cluster with n observations and p covariates (canonical logit link):

    mu      marginal means, expit(X beta) = 1 / (1 + exp(-X beta)) with
            X beta clamped to +/- ETA_CAP, then clamped away from {0, 1}
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

A kernel is assembled for a block of R replications that share the design
(X and the cluster sizes) and differ in y, beta, alpha and phi: every
per-replication array carries the replication axis in front, and each
replication has its own R(alpha) factor per size.  Assembly runs in two
stages: ``beta_stage`` (eta -> mu, w, r and the unwhitened
``z = [W^{1/2} X | W^{-1/2} r]``) and ``whiten_block`` (z, the factors and
phi -> the Gram matrix, info, ``info_inv`` and dt), so a new alpha or phi
at an unchanged beta reuses the beta stage; ``assemble_block`` is the two
in sequence.  Every kernel is a block, whose arrays and computations keep
the replication axis: one dataset is a block of one, marked ``single`` by
``assemble_kernel``, and ``FitKernel.take`` selects replications as a
block, so a replication gives the same numbers alone and inside a block.

The kernel keeps the summed information and score and its inverse, and
computes on demand, in cluster order, the cluster informations A_i and
scores U_i, and the leverage: with info = L0 L0', one p x p
eigendecomposition Q diag(lam) Q' per cluster of B_i = L0^{-1} A_i L0^{-T},
whose eigenvalues are the hat block's nonzero ones.  By push-through the
leverage-corrected rows g_c,i = info_inv dmat' vinv (I - H)^{-c} r are
L0^{-T} Q (1 - lam)^{-c} Q' L0^{-1} U_i, or (info - A_i)^{-1} U_i at c = 1.
The gaps 1 - lam of a replication with a singular (I - H) are all 1, so
its rows stay finite.  ``FitKernel.hat_block`` rebuilds one cluster's hat
block for checks.

The bias-reduction penalty is one half the trace of ``info_inv`` times the
analytic derivative of the sensitivity matrix in each coordinate, treating
alpha and phi as constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import LongitudinalDataset
from .errors import SingularInformation, SingularV

#: Linear predictors are clamped to +/- this value before exponentiation.
ETA_CAP = 700.0

#: Probabilities are clamped to [MU_EPS, 1 - MU_EPS] before forming weights.
MU_EPS = 1e-12

#: Condition-number threshold beyond which the sensitivity matrix is
#: treated as singular.
COND_LIMIT = 1e12

#: (I - H) is declared singular when 1 - max eigenvalue of the cluster's
#: B_i (its hat block's largest) falls at or below this threshold.
LEVERAGE_TOL = 1e-10


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise.

    numpy's exp is within 1 ulp of the C library's, so this agrees with a
    C implementation of the same formula to 2.2 eps relative on
    [-ETA_CAP, ETA_CAP].  Below about -709 exp overflows and the result is 0.
    """
    return 1.0 / (1.0 + np.exp(-x))


def working_correlation(structure: str, alpha, n: int) -> np.ndarray:
    """Working correlation matrix R(alpha) of size n for the given structure;
    an array of alphas gives the stack of their matrices."""
    alpha = np.asarray(alpha, dtype=float)
    if structure == "independence":
        return np.broadcast_to(np.eye(n), (*alpha.shape, n, n))
    if structure == "exchangeable":
        return np.where(np.eye(n, dtype=bool), 1.0, alpha[..., None, None])
    if structure == "ar1":
        idx = np.arange(n)
        return alpha[..., None, None] ** np.abs(idx[:, None] - idx[None, :])
    raise ValueError(f"unknown structure {structure!r}")


def masked_cholesky(a: np.ndarray) -> tuple:
    """Cholesky factors of a stack of matrices, and the mask of those that
    are not positive definite (their factor is the identity)."""
    bad = np.zeros(a.shape[:-2], bool)
    try:
        return np.linalg.cholesky(a), bad
    except np.linalg.LinAlgError:
        chol = np.empty(a.shape)
        for k in np.ndindex(bad.shape):
            try:
                chol[k] = np.linalg.cholesky(a[k])
            except np.linalg.LinAlgError:
                chol[k], bad[k] = np.eye(a.shape[-1]), True
        return chol, bad


def whitening_factors(structure: str, alpha: np.ndarray, data: LongitudinalDataset):
    """Inverse Cholesky factors of R(alpha), one (R, n, n) stack per size
    group of ``data`` for the (R,) alphas, and the (R, groups) mask of the
    sizes whose R(alpha) is not positive definite."""
    sizes = [g.X.shape[1] for g in data.size_groups]
    out = [masked_cholesky(working_correlation(structure, alpha, n)) for n in sizes]
    return tuple(np.linalg.inv(c) for c, _ in out), np.stack([b for _, b in out], axis=-1)


class KernelGroup(NamedTuple):
    """Kernel arrays of one size group, stacked over its N_s clusters.

    ``idx`` and ``X`` (N_s, n, p) are the design's.  The others carry the
    replication axis R in front: ``cinv`` (R, n, n) is the inverse Cholesky
    factor of R(alpha) for this size; ``mu``, ``w`` and ``resid`` are
    (R, N_s, n); ``dt`` (R, N_s, n, p) and ``rt`` (R, N_s, n) are the
    whitened derivative matrices and residuals.
    """

    idx: np.ndarray
    X: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    resid: np.ndarray
    cinv: np.ndarray
    dt: np.ndarray
    rt: np.ndarray


#: The KernelGroup fields that hold one entry per replication.
_REPLICATED = ("mu", "w", "resid", "cinv", "dt", "rt")


def _readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array the kernel caches and hands out as read-only."""
    a.setflags(write=False)
    return a


def _cluster_order(kernel, per_group: list, trailing: tuple) -> np.ndarray:
    """Scatter per-group (R, N_s, *trailing) arrays into a read-only
    (R, N, *trailing) array in cluster order."""
    out = np.empty((kernel.beta.shape[0], kernel.n_clusters, *trailing))
    for g, a in zip(kernel.groups, per_group):
        out[:, g.idx] = a
    return _readonly(out)


def _rows(a: np.ndarray) -> np.ndarray:
    """(R, N_s, n, k) group array as (R, N_s * n, k) stacked rows."""
    return a.reshape(a.shape[0], -1, a.shape[-1])


@dataclass(frozen=True)
class FitKernel:
    """Assembled kernel: size-group arrays plus the sensitivity matrix.

    Every kernel is a block of R replications: ``beta`` is (R, p),
    ``alpha`` and ``phi`` are (R,), the group arrays carry the replication
    axis, ``score`` (R, p) and ``info`` (R, p, p) are the summed cluster
    scores and informations and ``info_inv`` the inverses.  ``scores``
    (R, N, p) and ``infos`` (R, N, p, p), in cluster order, the leverage
    and the corrected rows are computed on first use (``memo``); ``hat_block`` is
    the only per-cluster accessor.  ``single`` marks the block of one that
    ``assemble_kernel`` or ``fit`` returns for one dataset: its arrays keep
    the axis, and ``estimate_variance`` and ``overcorrection_diagnostic``
    return its results without it.
    """

    beta: np.ndarray
    structure: str
    alpha: np.ndarray
    phi: np.ndarray
    data: LongitudinalDataset
    groups: tuple
    score: np.ndarray
    info: np.ndarray
    info_inv: np.ndarray
    single: bool = False
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_clusters(self) -> int:
        return self.data.n_clusters

    @property
    def p(self) -> int:
        return self.data.p

    @property
    def n_total(self) -> int:
        return self.data.n_total

    @property
    def cluster_sizes(self) -> tuple:
        return self.data.cluster_sizes

    @property
    def balanced(self) -> bool:
        return self.data.balanced

    def take(self, index) -> "FitKernel":
        """Kernel of the replications ``index`` (an index array or a
        slice) selects on the block's leading axis."""
        return replace(
            self,
            beta=self.beta[index],
            alpha=self.alpha[index],
            phi=self.phi[index],
            groups=tuple(
                g._replace(**{f: getattr(g, f)[index] for f in _REPLICATED})
                for g in self.groups
            ),
            score=self.score[index],
            info=self.info[index],
            info_inv=self.info_inv[index],
        )

    @cached_property
    def scores(self) -> np.ndarray:
        """Cluster score contributions dt' rt, in cluster order."""
        return _cluster_order(
            self, [(g.dt.swapaxes(-1, -2) @ g.rt[..., None])[..., 0] for g in self.groups],
            (self.p,),
        )

    @cached_property
    def infos(self) -> np.ndarray:
        """Cluster informations dt' dt, in cluster order."""
        return _cluster_order(
            self, [g.dt.swapaxes(-1, -2) @ g.dt for g in self.groups], (self.p, self.p)
        )

    @cached_property
    def leverage(self) -> tuple:
        """(lam, Q, l0inv): the eigendecompositions of the B_i, (R, N, p)
        and (R, N, p, p) in cluster order, and L0^{-1} (R, p, p)."""
        l0inv = np.linalg.inv(masked_cholesky(self.info)[0])
        lam, q = np.linalg.eigh(l0inv[:, None] @ self.infos @ l0inv.swapaxes(-1, -2)[:, None])
        return _readonly(lam), _readonly(q), _readonly(l0inv)

    @cached_property
    def max_leverage(self) -> np.ndarray:
        """(R, N) largest hat eigenvalue of each cluster, in cluster order."""
        return self.leverage[0][..., -1]

    @cached_property
    def singular_clusters(self) -> np.ndarray:
        """(R, N) mask of the clusters with a numerically singular (I - H)."""
        return 1.0 - self.max_leverage <= LEVERAGE_TOL

    @cached_property
    def singular_leverage(self) -> np.ndarray:
        """(R,) mask of the replications with a numerically singular (I - H)."""
        return np.any(self.singular_clusters, axis=-1)

    @cached_property
    def gaps(self) -> np.ndarray:
        """(R, N, p) leverage gaps 1 - lam, all 1 in the replications with
        ``singular_leverage`` so that their corrections stay finite."""
        singular = self.singular_leverage[:, None, None]
        return _readonly(np.where(singular, 1.0, 1.0 - self.leverage[0]))

    def spectral_rows(self, weights: np.ndarray) -> np.ndarray:
        """(R, N, p) rows L0^{-T} Q diag(weights) Q' L0^{-1} U_i, for
        (R, N, p) ``weights`` of the eigenvalues of each B_i."""
        _, q, l0inv = self.leverage
        z = (self.scores @ l0inv.swapaxes(-1, -2))[..., None]
        z = q @ (weights[..., None] * (q.swapaxes(-1, -2) @ z))
        return z[..., 0] @ l0inv

    def memo(self, key, compute) -> np.ndarray:
        """``compute()``, evaluated once per kernel and ``key`` and kept read-only."""
        if key not in self._memo:
            self._memo[key] = _readonly(compute())
        return self._memo[key]

    def corrected(self, c: float) -> np.ndarray:
        """(R, N, p) rows g_c,i in cluster order: ``scores @ info_inv`` for
        c = 0, else ``spectral_rows`` of gaps^{-c}.  Each exponent is solved
        once per kernel; in a replication with ``singular_leverage`` the
        rows are the uncorrected ones."""
        return self.memo(c, lambda: self.scores @ self.info_inv if c == 0.0
                         else self.spectral_rows(self.gaps ** -c))

    def hat_block(self, i: int) -> np.ndarray:
        """Hat-matrix block of cluster i of replication 0,
        dmat @ info_inv @ dmat' @ vinv.

        With vinv = L^{-T} L^{-1} this is dmat @ info_inv @ dt' @ L^{-1},
        where dmat = W X and L^{-1} = C^{-1} W^{-1/2} / sqrt(phi).
        """
        g = next(g for g in self.groups if i in g.idx)
        k = int(np.searchsorted(g.idx, i))
        w = g.w[0, k]
        dmat = w[:, None] * g.X[k]
        linv = g.cinv[0] / np.sqrt(self.phi[0] * w)
        return dmat @ self.info_inv[0] @ g.dt[0, k].T @ linv


class BetaStage(NamedTuple):
    """What a kernel's size group takes from beta alone: the means ``mu``,
    weights ``w`` and residuals ``resid`` (R, N_s, n), and the unwhitened
    ``z = [W^{1/2} X | W^{-1/2} r]`` (R, N_s, n, p + 1)."""

    mu: np.ndarray
    w: np.ndarray
    resid: np.ndarray
    z: np.ndarray


def beta_stage(beta: np.ndarray, data: LongitudinalDataset, ys: tuple) -> tuple:
    """The :class:`BetaStage` of each size group of ``data`` at (R, p)
    ``beta``, given each group's (R, N_s, n) responses ``ys``."""
    n_reps, p = beta.shape
    stages = []
    for group, y in zip(data.size_groups, ys):
        n_s, n, _ = group.X.shape
        eta = (group.X.reshape(n_s * n, p) @ beta[:, :, None]).reshape(n_reps, n_s, n)
        mu = np.clip(expit(np.clip(eta, -ETA_CAP, ETA_CAP)), MU_EPS, 1.0 - MU_EPS)
        w = mu * (1.0 - mu)
        resid = y - mu
        sw = np.sqrt(w)
        z = np.concatenate((sw[..., None] * group.X, (resid / sw)[..., None]), axis=-1)
        stages.append(BetaStage(mu, w, resid, z))
    return tuple(stages)


def whiten_block(
    beta: np.ndarray,
    structure: str,
    alpha: np.ndarray,
    phi: np.ndarray,
    data: LongitudinalDataset,
    stages: tuple,
    cinvs: tuple,
) -> tuple:
    """Kernel of a block of R replications from each size group's
    :class:`BetaStage` at (R, p) ``beta`` and R(alpha) factor ``cinvs``
    (see ``whitening_factors``), at (R,) ``alpha`` and ``phi``.

    Returns (kernel, ill): ``ill`` (R,) marks the replications whose
    sensitivity matrix is not positive definite or has a condition number
    above COND_LIMIT; their ``info_inv`` is the identity.
    """
    p = beta.shape[1]
    root_phi = np.sqrt(phi)[:, None, None]
    groups = []
    gram = 0.0
    for group, st, cinv in zip(data.size_groups, stages, cinvs):
        # whiten z in one product; its Gram matrix holds the information
        # and, in its last column, the score
        zt = (cinv / root_phi)[:, None] @ st.z
        rows = _rows(zt)
        gram = gram + rows.swapaxes(-1, -2) @ rows
        # contiguous copies: a block and the replications taken from it
        # then run the same (bitwise) products
        dt, rt = np.ascontiguousarray(zt[..., :p]), np.ascontiguousarray(zt[..., p])
        groups.append(KernelGroup(group.idx, group.X, st.mu, st.w, st.resid, cinv, dt, rt))
    info = gram[:, :p, :p]
    info = 0.5 * (info + info.swapaxes(-1, -2))
    eig = np.linalg.eigvalsh(info)
    ill = (eig[:, 0] <= 0) | (eig[:, -1] > COND_LIMIT * eig[:, 0])
    info_inv = np.linalg.inv(np.where(ill[:, None, None], np.eye(p), info) if ill.any() else info)
    info_inv = 0.5 * (info_inv + info_inv.swapaxes(-1, -2))
    kernel = FitKernel(
        beta=beta,
        structure=structure,
        alpha=alpha,
        phi=phi,
        data=data,
        groups=tuple(groups),
        score=gram[:, :p, p],
        info=info,
        info_inv=info_inv,
    )
    return kernel, ill


def assemble_block(
    beta: np.ndarray,
    structure: str,
    alpha: np.ndarray,
    phi: np.ndarray,
    data: LongitudinalDataset,
    ys: tuple,
    cinvs: tuple,
) -> tuple:
    """Kernel of a block of R replications at (R, p) ``beta`` and (R,)
    ``alpha`` and ``phi``, given each size group's (R, N_s, n) responses
    ``ys`` and R(alpha) factors ``cinvs``: :func:`beta_stage`, then
    :func:`whiten_block`, whose (kernel, ill) it returns.
    """
    stages = beta_stage(beta, data, ys)
    return whiten_block(beta, structure, alpha, phi, data, stages, cinvs)


def assemble_kernel(
    beta: np.ndarray,
    structure: str,
    alpha: float,
    phi: float,
    data: LongitudinalDataset,
) -> FitKernel:
    """Assemble the kernel of one dataset at one parameter point: a block
    of one, marked ``single``.

    Raises SingularV when some working covariance is not positive definite
    and SingularInformation when the summed information is not positive
    definite or its condition number exceeds COND_LIMIT.
    """
    if phi <= 0:
        raise ValueError(f"phi must be positive, got {phi}")
    alpha, phi = np.array([alpha], float), np.array([phi], float)
    cinvs, not_pd = whitening_factors(structure, alpha, data)
    if not_pd.any():
        first = min(g.idx[0] for g, bad in zip(data.size_groups, not_pd[0]) if bad)
        raise SingularV(
            f"cluster {data.ids[first]}: working covariance not positive definite"
        )
    ys = tuple(g.y[None] for g in data.size_groups)
    beta = np.asarray(beta, dtype=float)[None]
    kernel, ill = assemble_block(beta, structure, alpha, phi, data, ys, cinvs)
    if ill[0]:
        eig = np.linalg.eigvalsh(kernel.info[0])
        raise SingularInformation(
            f"sensitivity matrix ill-conditioned (eigenvalues {eig[0]:.3e}"
            f" .. {eig[-1]:.3e})"
        )
    return replace(kernel, single=True)


def gee_score(kernel: FitKernel) -> np.ndarray:
    """Estimating-function value: sum of per-cluster score contributions,
    (R, p)."""
    return kernel.score


def firth_penalty(kernel: FitKernel) -> np.ndarray:
    """Bias-reduction penalty b with b_r = trace(info_inv @ d info/d beta_r) / 2,
    (R, p).

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
    b = 0.0
    for g in kernel.groups:
        x = g.X.reshape(-1, kernel.p)
        xd = x @ kernel.info_inv
        ct = _rows(g.cinv.swapaxes(-1, -2)[:, None] @ g.dt)
        v = (np.sqrt(g.w) * (1.0 - 2.0 * g.mu)).reshape(xd.shape[:2])
        b = b + ((v * np.sum(ct * xd, axis=-1))[:, None] @ x)[:, 0]
    return 0.5 * b / np.sqrt(kernel.phi)[:, None]
