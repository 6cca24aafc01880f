"""Marginal-model quantities and the estimating-equation kernel.

For a cluster with n observations and p covariates (canonical logit link):

    mu      marginal means expit(X beta) = 1 / (1 + exp(-X beta)), clamped
            away from {0, 1} (expit clamps X beta to +/- ETA_CAP)
    w       variance-function diagonal mu * (1 - mu)
    dmat    derivative matrix W X (n x p)
    vmat    working covariance phi * W^{1/2} R(alpha) W^{1/2}
    info    cluster information dmat' vmat^{-1} dmat (p x p)
    score   cluster score contribution dmat' vmat^{-1} (y - mu)

With C the Cholesky factor of R(alpha), the Cholesky factor of vmat is
``L = sqrt(phi) W^{1/2} C``.  Row j of C^{-1} is (e_j - b_j) / sqrt(d_j),
b_j and d_j the weights and residual variance of position j regressed on
the earlier ones (``conditional_regression``, Qaqish 2003).  R_n(alpha)
and C_n^{-1} are the leading blocks of R_{n_max}(alpha) and C_{n_max}^{-1},
so one n_max x n_max factor whitens every cluster:

    dt      L^{-1} dmat = C^{-1} W^{1/2} X / sqrt(phi)
    rt      L^{-1} (y - mu)
    info    dt' dt          score   dt' rt

vmat is positive definite exactly when R_n is, that is when alpha lies in
``data.alpha_bounds(structure, n)``; an inadmissible alpha is reported
for the first cluster, in cluster order, of a size that excludes it.

The kernel keeps its per-observation arrays as flat rows in kernel order
(``LongitudinalDataset.kernel_rows``): by cluster size, then
position-major, so each size is one slice whose (R, n, N_s, k) reshape
puts the position in front.  Each stage is one pass over all rows, and
C_n^{-1} whitens a size in one (n x n) @ (n x N_s k) product.

A kernel is assembled for a block of R replications that share the design
(X and the cluster sizes) and differ in y, beta, alpha and phi: every
per-replication array carries the replication axis in front, and each
replication has its own R(alpha) factor.  Assembly runs in two
stages: ``beta_stage`` (eta -> mu, w, r and the unwhitened
``z = [W^{1/2} X | W^{-1/2} r]``) and ``whiten_block`` (z, the factor and
phi -> the whitened rows ``[dt | rt]`` and their one Gram matrix, which
holds info and the score, then ``info_inv``), so a new alpha or phi
at an unchanged beta reuses the beta stage; ``assemble_block`` is the two
in sequence.  ``whiten_block`` alone judges the summed information: its
verdict, ``FitKernel.ill``, marks each replication whose info is not
finite, not positive definite or worse conditioned than COND_LIMIT, and
the fit, ``assemble_kernel`` and the Cholesky factor read it.  Every
kernel is a block, whose arrays and computations keep the replication
axis: one dataset is a block of one, marked ``single`` by
``assemble_kernel``, and ``FitKernel.take`` selects replications as a
block, so a replication gives the same numbers alone and inside a block.

The kernel keeps the summed information and score and its inverse, and
computes on demand, in cluster order, the cluster informations A_i and
scores U_i, and the leverage: with info = L0 L0' (``info_chol``), one p x p
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

from .data import LongitudinalDataset, alpha_bounds
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
    """The logistic function 1 / (1 + exp(-x)), elementwise, with x clamped
    to +/- ETA_CAP, so exp(-x) cannot overflow.

    numpy's exp is within 1 ulp of the C library's, so this agrees with a
    C implementation of the same formula to 2.2 eps relative on
    [-ETA_CAP, ETA_CAP].
    """
    return 1.0 / (1.0 + np.exp(-np.clip(x, -ETA_CAP, ETA_CAP)))


def conditional_regression(structure: str, alpha, n: int) -> tuple:
    """Each position of R_n(alpha) regressed on the earlier ones, at (...)
    alphas in ``data.alpha_bounds(structure, n)``: the strictly lower (..., n, n)
    weights b and (..., n) residual variances d.  AR(1): b_j,j-1 = alpha, d_0 = 1,
    d_j = (1 - alpha)(1 + alpha); exchangeable: b_jk = alpha / den_j, d_j =
    (1 - alpha)(1 + j alpha) / den_j, den_j = 1 + (j - 1) alpha; independence: 0, 1."""
    alpha = np.asarray(alpha, dtype=float)[..., None]
    j = np.arange(n)
    if structure == "exchangeable":
        den = 1.0 + (j - 1) * alpha
        return (j[:, None] > j) * (alpha / den)[..., None], (1.0 - alpha) * (1.0 + j * alpha) / den
    b = np.zeros((*alpha.shape[:-1], n, n))
    if structure == "independence":
        return b, np.ones(b.shape[:-1])
    if structure == "ar1":
        b[..., j[1:], j[:-1]] = alpha
        return b, np.where(j == 0, 1.0, (1.0 - alpha) * (1.0 + alpha))
    raise ValueError(f"unknown structure {structure!r}")


def whitening_factors(structure: str, alpha: np.ndarray, data: LongitudinalDataset) -> np.ndarray:
    """The (R, n_max, n_max) inverse Cholesky factors of R_{n_max}(alpha) at
    (R,) alphas in ``data.alpha_bounds(structure, n_max)``, n_max the largest
    cluster size of ``data``: row j is (e_j - b_j) / sqrt(d_j)."""
    b, d = conditional_regression(structure, alpha, data.n_max)
    return (np.eye(data.n_max) - b) / np.sqrt(d)[..., None]


#: The FitKernel fields that hold one entry per replication.
_REPLICATED = ("beta", "alpha", "phi", "mu", "w", "resid", "cinv", "zt", "score", "info",
               "info_inv", "ill")


def _readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array the kernel caches and hands out as read-only."""
    a.setflags(write=False)
    return a


def _cluster_sums(data: LongitudinalDataset, rows: np.ndarray) -> np.ndarray:
    """Sums of (R, n_total, ...) row terms in kernel order over each
    cluster's rows: a read-only (R, N, ...) array in cluster order."""
    out = np.empty((rows.shape[0], data.n_clusters, *rows.shape[2:]))
    for g in data.size_groups:
        out[:, g.idx] = g.view(rows).sum(1)
    return _readonly(out)


def _per_size(data: LongitudinalDataset, factor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(R, n_total, k) rows in kernel order with each size's rows
    multiplied by the leading (R, n, n) block of ``factor``: one product
    per size, whose position-major slice is (R, n, N_s k)."""
    out = np.empty(rows.shape)
    for g in data.size_groups:
        n_s, n = g.rows.shape
        shape = (rows.shape[0], n, n_s * rows.shape[-1])
        np.matmul(factor[:, :n, :n], g.view(rows).reshape(shape), out=g.view(out).reshape(shape))
    return out


@dataclass(frozen=True)
class FitKernel:
    """Assembled kernel: flat rows, R(alpha) factors and the sensitivity matrix.

    Every kernel is a block of R replications: ``beta`` is (R, p),
    ``alpha`` and ``phi`` are (R,); ``mu``, ``w`` and ``resid`` (R, n_total)
    and the whitened rows ``zt = [dt | rt]`` (R, n_total, p + 1) are in
    kernel order, and ``cinv`` (R, n_max, n_max) is the inverse Cholesky
    factor of R_{n_max}(alpha), whose leading n x n block is size n's.
    ``score`` (R, p) and ``info`` (R, p, p) are the summed cluster
    scores and informations and ``info_inv`` the inverses.  ``ill`` (R,)
    marks the replications whose information is unusable (see
    ``whiten_block``): their ``info_inv`` and ``info_chol`` are the
    identity, and no result is read from them.  ``scores``
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
    mu: np.ndarray
    w: np.ndarray
    resid: np.ndarray
    cinv: np.ndarray
    zt: np.ndarray
    score: np.ndarray
    info: np.ndarray
    info_inv: np.ndarray
    ill: np.ndarray
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
        """Kernel of the replications that ``index`` (an index array or a
        slice) selects on the block's leading axis."""
        return replace(self, **{f: getattr(self, f)[index] for f in _REPLICATED})

    @cached_property
    def scores(self) -> np.ndarray:
        """Cluster score contributions dt' rt, in cluster order."""
        return _cluster_sums(self.data, self.zt[..., :-1] * self.zt[..., -1:])

    @cached_property
    def infos(self) -> np.ndarray:
        """Cluster informations dt' dt, in cluster order."""
        dt = self.zt[..., :-1]
        return _cluster_sums(self.data, dt[..., :, None] * dt[..., None, :])

    @cached_property
    def info_chol(self) -> np.ndarray:
        """(R, p, p) lower Cholesky factor L0 of ``info``, the identity
        where ``ill``."""
        return _readonly(np.linalg.cholesky(np.where(self.ill[:, None, None], np.eye(self.p),
                                                     self.info)))

    @cached_property
    def leverage(self) -> tuple:
        """(lam, Q, l0inv): the eigendecompositions of the B_i, (R, N, p)
        and (R, N, p, p) in cluster order, and L0^{-1} (R, p, p)."""
        l0inv = np.linalg.inv(self.info_chol)
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
        g = next(g for g in self.data.size_groups if i in g.idx)
        k = int(np.searchsorted(g.idx, i))
        n = g.rows.shape[1]
        w = g.view(self.w)[0, :, k]
        dmat = w[:, None] * self.data.X[g.rows[k]]
        linv = self.cinv[0, :n, :n] / np.sqrt(self.phi[0] * w)
        return dmat @ self.info_inv[0] @ g.view(self.zt)[0, :, k, :-1].T @ linv


class BetaStage(NamedTuple):
    """What a kernel takes from beta alone, in kernel order: the means
    ``mu``, weights ``w`` and residuals ``resid`` (R, n_total), and the
    unwhitened rows ``z = [W^{1/2} X | W^{-1/2} r]`` (R, n_total, p + 1)."""

    mu: np.ndarray
    w: np.ndarray
    resid: np.ndarray
    z: np.ndarray


def beta_stage(beta: np.ndarray, data: LongitudinalDataset, y: np.ndarray) -> BetaStage:
    """The :class:`BetaStage` of ``data`` at (R, p) ``beta``, given the
    (R, n_total) responses ``y`` in kernel order."""
    x = data.kernel_X
    p = x.shape[1]
    eta = (x @ beta[:, :, None])[..., 0]
    mu = np.clip(expit(eta), MU_EPS, 1.0 - MU_EPS)
    w = mu * (1.0 - mu)
    resid = y - mu
    sw = np.sqrt(w)
    z = np.empty((*w.shape, p + 1))
    np.multiply(sw[..., None], x, out=z[..., :p])
    np.divide(resid, sw, out=z[..., p])
    return BetaStage(mu, w, resid, z)


def whiten_block(
    beta: np.ndarray,
    structure: str,
    alpha: np.ndarray,
    phi: np.ndarray,
    data: LongitudinalDataset,
    stage: BetaStage,
    cinv: np.ndarray,
) -> FitKernel:
    """Kernel of a block of R replications from the :class:`BetaStage`
    at (R, p) ``beta`` and the R(alpha) factor ``cinv`` (see
    ``whitening_factors``), at (R,) ``alpha`` and ``phi``.

    This is the one test of the summed information: ``kernel.ill`` (R,)
    marks the replications whose sensitivity matrix has a non-finite
    entry, is not positive definite or has a condition number above
    COND_LIMIT (a NaN eigenvalue fails every comparison, so it is ill).
    A non-finite matrix is replaced by the identity before its
    eigenvalues are taken, and every ill one before the inverse, so an
    ill replication's ``info_inv`` is the identity.
    """
    p = beta.shape[1]
    # whiten z, one product per size; the Gram matrix of the whitened rows
    # holds the information and, in its last column, the score
    zt = _per_size(data, cinv / np.sqrt(phi)[:, None, None], stage.z)
    gram = zt.swapaxes(-1, -2) @ zt
    info = gram[:, :p, :p]
    info = 0.5 * (info + info.swapaxes(-1, -2))
    finite = np.isfinite(info).all(axis=(1, 2))
    safe = info if finite.all() else np.where(finite[:, None, None], info, np.eye(p))
    eig = np.linalg.eigvalsh(safe)
    ill = ~(finite & (eig[:, 0] > 0) & (eig[:, -1] <= COND_LIMIT * eig[:, 0]))
    info_inv = np.linalg.inv(np.where(ill[:, None, None], np.eye(p), info) if ill.any() else info)
    info_inv = 0.5 * (info_inv + info_inv.swapaxes(-1, -2))
    return FitKernel(beta=beta, structure=structure, alpha=alpha, phi=phi, data=data,
                     mu=stage.mu, w=stage.w, resid=stage.resid, cinv=cinv, zt=zt,
                     score=gram[:, :p, p], info=info, info_inv=info_inv, ill=ill)


def assemble_block(
    beta: np.ndarray,
    structure: str,
    alpha: np.ndarray,
    phi: np.ndarray,
    data: LongitudinalDataset,
    y: np.ndarray,
    cinv: np.ndarray,
) -> FitKernel:
    """Kernel of a block of R replications at (R, p) ``beta`` and (R,)
    ``alpha`` and ``phi``, given the (R, n_total) responses ``y`` in kernel
    order and the R(alpha) factor ``cinv``: :func:`beta_stage`, then
    :func:`whiten_block`.
    """
    stage = beta_stage(beta, data, y)
    return whiten_block(beta, structure, alpha, phi, data, stage, cinv)


def assemble_kernel(
    beta: np.ndarray,
    structure: str,
    alpha: float,
    phi: float,
    data: LongitudinalDataset,
) -> FitKernel:
    """Assemble the kernel of one dataset at one parameter point: a block
    of one, marked ``single``.

    Raises SingularV when alpha is outside ``alpha_bounds`` of some cluster
    size (independence takes any alpha) and SingularInformation when the
    summed information is ill (``FitKernel.ill``).
    """
    if phi <= 0:
        raise ValueError(f"phi must be positive, got {phi}")
    bounds = [(g.idx[0], alpha_bounds(structure, g.rows.shape[1])) for g in data.size_groups]
    outside = [i for i, (lo, hi) in bounds if structure != "independence" and not lo < alpha < hi]
    if outside:
        raise SingularV(f"cluster {data.ids[min(outside)]}: working covariance not positive definite")
    alpha, phi = np.array([alpha], float), np.array([phi], float)
    cinv = whitening_factors(structure, alpha, data)
    y = data.y[data.kernel_rows][None]
    beta = np.asarray(beta, dtype=float)[None]
    kernel = assemble_block(beta, structure, alpha, phi, data, y, cinv)
    if kernel.ill[0]:
        info = kernel.info[0]
        if not np.isfinite(info).all():
            raise SingularInformation("sensitivity matrix not finite")
        eig = np.linalg.eigvalsh(info)
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

    Collapsing the traces leaves one weighted column sum over the rows:

        b = X' diag{w^{1/2} (1 - 2 mu)} q / (2 sqrt(phi)),
        q_j = (C^{-T} dt)_j . (X info_inv)_j

    taken over all rows in kernel order, with C_n^{-T} applied to each
    size in one product (to the whole whitened rows, whose last column q
    does not read).  The penalty is invariant to the fixed dispersion
    because info_inv and the derivative scale inversely.
    """
    p, x = kernel.p, kernel.data.kernel_X
    ct = _per_size(kernel.data, kernel.cinv.swapaxes(-1, -2), kernel.zt)
    v = np.sqrt(kernel.w) * (1.0 - 2.0 * kernel.mu)
    q = np.einsum("...s,...s->...", ct[..., :p], x @ kernel.info_inv)  # a reduce over p is slower
    return 0.5 * ((v * q)[:, None] @ x)[:, 0] / np.sqrt(kernel.phi)[:, None]
