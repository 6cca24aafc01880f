"""Slow, literal references, one cluster at a time.

Each kernel quantity is computed from its textbook definition with dense
inverses, independently of the size-grouped arrays in ``pgee.core``; the
correlated-binary draw is the sequential construction run cluster by
cluster, independently of the grouped loop in ``pgee.datagen``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from pgee import (
    LongitudinalDataset,
    assemble_kernel,
    calibrate_intercept,
    clf_coefficients,
    working_correlation,
)
from pgee.core import ETA_CAP, MU_EPS
from pgee.datagen import TIME_STEP


def firth_penalty_fd(beta, structure, alpha, phi, data, rel_step=1e-5) -> np.ndarray:
    """Finite-difference reference for the penalty.

    Central differences of the assembled sensitivity matrix are pushed
    through the trace formula b_r = trace(info_inv d info / d beta_r) / 2;
    the analytic path must agree to 1e-5 relative.
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


class LiteralCluster(NamedTuple):
    X: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    dmat: np.ndarray
    vmat: np.ndarray
    vinv: np.ndarray
    resid: np.ndarray
    info: np.ndarray
    score: np.ndarray


def literal_clusters(beta, structure, alpha, phi, data) -> list:
    """Per-cluster quantities by a plain loop with dense inverses."""
    out = []
    for c in data.clusters:
        eta = np.clip(c.X @ beta, -ETA_CAP, ETA_CAP)
        mu = np.clip(expit(eta), MU_EPS, 1.0 - MU_EPS)
        w = mu * (1.0 - mu)
        dmat = w[:, None] * c.X
        sw = np.sqrt(w)
        vmat = phi * np.outer(sw, sw) * working_correlation(structure, alpha, len(c.y))
        vinv = np.linalg.inv(vmat)
        resid = c.y - mu
        out.append(
            LiteralCluster(
                c.X, mu, w, dmat, vmat, vinv, resid,
                dmat.T @ vinv @ dmat, dmat.T @ vinv @ resid,
            )
        )
    return out


def kernel_literals(kernel) -> list:
    """``literal_clusters`` at an assembled kernel's parameter point."""
    return literal_clusters(
        kernel.beta, kernel.structure, kernel.alpha, kernel.phi, kernel.data
    )


def literal_penalty(clusters, info_inv, structure, alpha, phi) -> np.ndarray:
    """b_r = trace(info_inv d info / d beta_r) / 2, differentiating
    info_i = X' W^{1/2} R^{-1} W^{1/2} X / phi through
    d w^{1/2} / d beta_r = w^{1/2} (1 - 2 mu) x_r / 2."""
    p = info_inv.shape[0]
    b = np.zeros(p)
    for q in clusters:
        sw = np.sqrt(q.w)
        rinv = np.linalg.inv(working_correlation(structure, alpha, q.mu.shape[0]))
        for r in range(p):
            e_r = np.diag(0.5 * sw * (1.0 - 2.0 * q.mu) * q.X[:, r])
            half = q.X.T @ e_r @ rinv @ np.diag(sw) @ q.X / phi
            b[r] += 0.5 * np.trace(info_inv @ (half + half.T))
    return b


def matrix_power(m, c) -> np.ndarray:
    """m^{-c} through an eigendecomposition of the (diagonalizable) m."""
    vals, vecs = np.linalg.eig(m)
    return (vecs @ np.diag(vals ** (-c)) @ np.linalg.inv(vecs)).real


def literal_hat(q: LiteralCluster, info_inv) -> np.ndarray:
    return q.dmat @ info_inv @ q.dmat.T @ q.vinv


def literal_leverage_score(q: LiteralCluster, info_inv, c) -> np.ndarray:
    """dmat' vinv (I - H_ii)^{-c} r."""
    n = q.mu.shape[0]
    power = matrix_power(np.eye(n) - literal_hat(q, info_inv), c)
    return q.dmat.T @ q.vinv @ power @ q.resid


def with_residuals(kernel, residuals):
    """Copy of a one-replication ``kernel`` with its residuals, given in
    cluster order, and its scores replaced; means, covariances and
    informations are kept.  Evaluates estimator middles on externally
    constructed residuals."""
    block = kernel.source
    groups = []
    score = np.zeros_like(block.score)
    for g in block.groups:
        r = np.array([residuals[i] for i in g.idx], dtype=float)[None]
        linv = g.cinv / np.sqrt(block.phi)[:, None, None]
        rt = np.einsum("rij,rsj->rsi", linv, r / np.sqrt(g.w))
        score += np.einsum("rsnp,rsn->rp", g.dt, rt)
        groups.append(g._replace(resid=r, rt=rt))
    return replace(block, groups=tuple(groups), score=score).take(0)


def literal_clf_dataset(scenario, rng, intercept=None):
    """``generate_dataset`` drawn cluster by cluster.

    Each cluster takes its own ``rng.random((1, n))`` and solves its own
    weight table, and the first invalid cluster ends the draw with None.
    """
    if intercept is None:
        intercept = calibrate_intercept(scenario)
    sizes = scenario.cluster_sizes()
    full = scenario.model == "full"
    starts = np.cumsum([0, *sizes])
    treat = np.repeat(np.arange(len(sizes)) < scenario.n_treated, sizes).astype(float)
    time = TIME_STEP * (np.arange(starts[-1]) - np.repeat(starts[:-1], sizes) + 1)
    eta = intercept + scenario.beta1 * treat
    if full:
        eta = eta + scenario.beta2 * time
    mu = expit(eta)
    y = np.empty(starts[-1])
    for a, b in zip(starts[:-1], starts[1:]):
        m = mu[a:b]
        n = b - a
        sw = np.sqrt(m * (1.0 - m))
        coef = clf_coefficients(m, scenario.true_structure, scenario.rho)
        scaled = coef * (sw[:, None] / sw[None, :])
        unif = rng.random((1, n))
        resid = np.empty((1, n))
        for j in range(n):
            lam = m[j] + resid[:, :j] @ scaled[j, :j]
            if lam[0] <= 0.0 or lam[0] >= 1.0:
                return None
            y[a + j] = float(unif[0, j] < lam[0])
            resid[0, j] = y[a + j] - m[j]
    return LongitudinalDataset(
        ids=tuple(range(1, len(sizes) + 1)),
        sizes=sizes,
        y=y,
        X=np.column_stack([np.ones_like(y), treat, time][: scenario.p]),
        colnames=("intercept", "treat", "time")[: scenario.p],
        has_time=full,
    )
