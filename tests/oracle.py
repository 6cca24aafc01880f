"""Slow, literal references, one cluster, replication or cell at a time.

Each kernel quantity is computed from its textbook definition with dense
inverses, independently of the size-grouped arrays in ``pgee.core``; the
correlated-binary draw is the sequential construction run cluster by
cluster, independently of the grouped loop in ``pgee.datagen``.  The fit
is one replication's Fisher loop with sequential step halving, apart from
the lockstep loop of ``pgee.fitting``, and the Monte Carlo cells are
reduced one (estimator, coefficient) pair at a time, apart from the
grouped reduction of ``pgee.harness.aggregate``.  The CSV reader is
the record-by-record loop, apart from the column-wise ``pgee.data.read_csv``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from pgee import (
    LongitudinalDataset,
    assemble_kernel,
    calibrate_intercept,
    estimate_alpha,
    estimate_phi,
    firth_penalty,
)
from pgee.core import (
    ETA_CAP, LEVERAGE_TOL, MU_EPS, assemble_block, whitening_factors, working_correlation,
)
from pgee.datagen import TIME_STEP, _clf_rows, clf_coefficients
from pgee.errors import DatasetError
from pgee.fitting import BETA_CAP, MAX_HALVINGS
from pgee.harness import _COEF_INDEX, EstimatorCell


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
    """``literal_clusters`` at the parameter point of replication 0 of an
    assembled kernel."""
    return literal_clusters(
        kernel.beta[0], kernel.structure, kernel.alpha[0], kernel.phi[0], kernel.data
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


class KernelGroup(NamedTuple):
    """Kernel arrays of one size group, stacked over its N_s clusters.

    ``idx`` and ``X`` (N_s, n, p) are the design's.  The others carry the
    replication axis R in front: ``cinv`` (R, n, n) is the inverse Cholesky
    factor of R(alpha) for this size; ``mu``, ``w`` and ``resid`` are
    (R, N_s, n); ``dt`` (R, N_s, n, p) and ``rt`` (R, N_s, n) are the
    whitened derivative matrices and residuals, views of the flat rows.
    """

    idx: np.ndarray
    X: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    resid: np.ndarray
    cinv: np.ndarray
    dt: np.ndarray
    rt: np.ndarray


def kernel_groups(kernel) -> tuple:
    """One :class:`KernelGroup` per size group of a kernel: views of its
    flat rows per cluster, and the leading n x n block of its factor."""
    rows = (kernel.mu, kernel.w, kernel.resid, kernel.zt[..., :-1], kernel.zt[..., -1])
    groups = []
    for g in kernel.data.size_groups:
        n = g.rows.shape[1]
        mu, w, resid, dt, rt = (g.view(a).swapaxes(1, 2) for a in rows)
        groups.append(KernelGroup(g.idx, kernel.data.X[g.rows], mu, w, resid,
                                  kernel.cinv[:, :n, :n], dt, rt))
    return tuple(groups)


def whitened_clusters(kernel, r=0) -> tuple:
    """The whitened (dt_i, rt_i) of replication ``r`` of a kernel, as two
    lists in cluster order."""
    dt, rt = [None] * kernel.n_clusters, [None] * kernel.n_clusters
    for g in kernel_groups(kernel):
        for k, i in enumerate(g.idx):
            dt[i], rt[i] = g.dt[r, k], g.rt[r, k]
    return dt, rt


def whitening(kernel, r=0) -> tuple:
    """The whitening of replication ``r`` of a kernel: the variance weights
    w_i and inverse Cholesky factors C^{-1} of R(alpha), as two lists in
    cluster order, and phi.  The whitening is L_i^{-1} = C^{-1} W_i^{-1/2}
    / sqrt(phi), so dmat_i = L_i dt_i, r_i = L_i rt_i and V_i = L_i L_i'."""
    w, cinv = [None] * kernel.n_clusters, [None] * kernel.n_clusters
    for g in kernel_groups(kernel):
        for k, i in enumerate(g.idx):
            w[i], cinv[i] = g.w[r, k], g.cinv[r]
    return w, cinv, float(kernel.phi[r])


def literal_covariances(dt, rt, n_total, factors=None, dps=60) -> dict:
    """LZ, DF, FG, MBN, KC, MD, FW, AR and FZ covariances of one
    replication from its whitened (dt_i, rt_i), and with the ``whitening``
    ``factors`` of a balanced replication also PAN, GST, RS, WL and WB,
    taken as exact inputs, by their observation-space definitions in
    ``mpmath`` at ``dps`` digits.

    With info = sum dt_i' dt_i, K = info^{-1} and the symmetric hat forms
    S_i = dt_i K dt_i', the corrected scores are f_c,i = dt_i' (I - S_i)^{-c}
    rt_i, the power taken through an eigendecomposition of S_i, and each
    covariance is K M K (MBN and RS add their ridges r K).  FG scales U_i
    elementwise by (1 - min(0.75, diag(A_i K)))^{-1/2}, A_i = dt_i' dt_i.
    FZ's middle is sum_i T_i (rt_i rt_i' - sum_{j != i} H_ij rt_j rt_j' H_ij')
    T_i' with T_i = dt_i' (I - S_i)^{-1} and H_ij = dt_i K dt_j'.  The
    pooling middles are sum_i P_i RU_c P_i' with P_i = dmat_i' V_i^{-1}
    W_i^{1/2} and RU_c = sum_j e_j e_j' / denom over the observation-space
    residuals e_j = W_j^{-1/2} (I - H_jj)^{-c} r_j, H_jj = dmat_j K dmat_j'
    V_j^{-1}, its power taken by an inverse and a matrix square root.
    Leverage estimators are left out when some S_i has an eigenvalue
    within LEVERAGE_TOL of 1 or above, the criterion of
    ``FitKernel.singular_leverage``.  Returns float (p, p) arrays by tag.
    """
    import mpmath

    with mpmath.workdps(dps):
        d = [mpmath.matrix(x.tolist()) for x in dt]
        r = [mpmath.matrix(x.tolist()) for x in rt]
        n_cl, p = len(d), d[0].cols
        info = mpmath.zeros(p, p)
        for x in d:
            info += x.T * x
        k = mpmath.inverse(info)

        eig = [mpmath.eigsy(x * k * x.T) for x in d]

        def power(i, c):
            lam, q = eig[i]
            return q * mpmath.diag([(1 - e) ** -c for e in lam]) * q.T

        def gram(rows):
            m = mpmath.zeros(p, p)
            for f in rows:
                m += f * f.T
            return m

        def cov(m):
            return np.array((k * m * k).tolist(), dtype=float)

        def centered(rows):
            fbar = sum(rows, mpmath.zeros(p, 1)) / n_cl
            return gram(x - fbar for x in rows)

        c_n = mpmath.mpf(n_total - 1) / (n_total - p) * n_cl / (n_cl - 1)
        delta_n = min(mpmath.mpf(1) / 2, mpmath.mpf(p) / (n_cl - p))
        u = [x.T * y for x, y in zip(d, r)]
        kappa = max(1, sum((k * centered(u))[s, s] for s in range(p)) / p)
        out = {"LZ": cov(gram(u))}
        out["DF"] = n_cl / (n_cl - p) * out["LZ"]
        lev = [x.T * x * k for x in d]
        clip = mpmath.mpf(3) / 4
        out["FG"] = cov(gram(
            mpmath.diag([(1 - min(clip, a[s, s])) ** -0.5 for s in range(p)]) * y
            for a, y in zip(lev, u)
        ))
        out["MBN"] = cov(c_n * centered(u) + delta_n * kappa * info)
        if factors is not None and len({x.rows for x in d}) == 1:
            w, cinv, phi = factors
            sw = [mpmath.diag([mpmath.sqrt(v) for v in x]) for x in w]
            lmat = [mpmath.sqrt(phi) * s * mpmath.inverse(mpmath.matrix(c.tolist()))
                    for s, c in zip(sw, cinv)]
            dmat = [lm * x for lm, x in zip(lmat, d)]
            resid = [lm * y for lm, y in zip(lmat, r)]
            vinv = [mpmath.inverse(lm * lm.T) for lm in lmat]
            n = d[0].rows
            gap = [mpmath.eye(n) - x * k * x.T * vi for x, vi in zip(dmat, vinv)]

            def pooled(c, denom):
                pw = {0: lambda m: mpmath.eye(n), 1: mpmath.inverse,
                      0.5: lambda m: mpmath.inverse(mpmath.sqrtm(m))}[c]
                e = [mpmath.inverse(s) * pw(g) * y for s, g, y in zip(sw, gap, resid)]
                ru = sum((x * x.T for x in e), mpmath.zeros(n, n)) / denom
                m = mpmath.zeros(p, p)
                for x, vi, s in zip(dmat, vinv, sw):
                    t = x.T * vi * s
                    m += t * ru * t.T
                return m

            m_pan = pooled(0, n_cl)
            out["PAN"], out["GST"] = cov(m_pan), cov(pooled(0, n_cl - p))
            ridge = delta_n * max(1, abs(mpmath.det(k * m_pan)) ** (mpmath.mpf(1) / p))
            out["RS"] = cov(m_pan + ridge * info)
        if 1 - max(max(lam) for lam, _ in eig) <= LEVERAGE_TOL:
            return out
        if "PAN" in out:
            out["WL"], out["WB"] = cov(pooled(1, n_cl)), cov(pooled(0.5, n_cl))
        f = {c: [d[i].T * power(i, c) * r[i] for i in range(n_cl)] for c in (0.5, 1)}
        out["KC"], out["MD"] = cov(gram(f[0.5])), cov(gram(f[1]))
        out["FW"] = 0.5 * (out["KC"] + out["MD"])
        out["AR"] = cov(c_n * centered(f[1]))
        fz = mpmath.zeros(p, p)
        for i in range(n_cl):
            inner = r[i] * r[i].T
            for j in range(n_cl):
                if j != i:
                    h = d[i] * k * d[j].T * r[j]
                    inner -= h * h.T
            t = d[i].T * power(i, 1)
            fz += t * inner * t.T
        out["FZ"] = cov(fz)
    return out


def with_residuals(kernel, residuals):
    """Copy of a block-of-one ``kernel`` with its residuals, given in
    cluster order, and its scores replaced; means, covariances and
    informations are kept.  Evaluates estimator middles on externally
    constructed residuals."""
    resid = np.concatenate(residuals).astype(float)[kernel.data.kernel_rows][None]
    kernel = replace(kernel, resid=resid, zt=kernel.zt.copy())
    score = np.zeros_like(kernel.score)
    for g in kernel_groups(kernel):  # g.rt is a view of the copied zt
        linv = g.cinv / np.sqrt(kernel.phi)[:, None, None]
        g.rt[...] = np.einsum("rij,rsj->rsi", linv, g.resid / np.sqrt(g.w))
        score += np.einsum("rsnp,rsn->rp", g.dt, g.rt)
    return replace(kernel, score=score)


def clf_sample(mu, structure, rho, rng, size) -> tuple:
    """Draw ``size`` correlated binary vectors with the target moments.

    Returns (draws, n_invalid): draws is a (valid, n) 0/1 array containing
    only rows whose conditional means all stayed inside (0, 1); invalid
    rows are counted and dropped.  Each row consumes exactly n uniforms,
    so the stream layout does not depend on the realized values.
    """
    mu = np.asarray(mu, dtype=float)
    coef = clf_coefficients(mu, structure, rho)
    y, invalid = _clf_rows(mu, coef, rng.random((size, mu.shape[0])))
    return y[~invalid], int(invalid.sum())


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


def _skewness(x: np.ndarray) -> float:
    """Biased sample skewness m3 / m2^{3/2} from the central moments."""
    d = x - x.mean()
    return float(np.mean(d**3) / np.mean(d**2) ** 1.5)


def literal_cell(tag, name, ses, rejects, sim_se) -> EstimatorCell:
    """The EstimatorCell of one (estimator, coefficient) pair from the SEs
    and 0/1 reject flags of its computable replications; every metric is
    None when there are none."""
    n_comp = len(ses)
    if n_comp == 0:
        return EstimatorCell(tag, name, 0)
    rate = float(np.mean(rejects))
    med = float(np.median(ses))
    mean_se = float(np.mean(ses))
    degenerate = np.ptp(ses) <= 1e-12 * max(mean_se, 1e-300)
    p95, p99 = np.percentile(ses, [95, 99])
    return EstimatorCell(
        estimator=tag,
        coefficient=name,
        n_computable=n_comp,
        rejection_rate=rate,
        mc_se=math.sqrt(rate * (1.0 - rate) / n_comp),
        median_se_ratio=med / sim_se if sim_se > 0 else None,
        cv_se=float(np.std(ses, ddof=1)) / mean_se if n_comp > 1 else None,
        skewness_se=None if n_comp <= 2 else 0.0 if degenerate else _skewness(ses),
        p95_over_p50=float(p95) / med,
        p99_over_p50=float(p99) / med,
    )


def literal_cells(blocks, spec, estimators) -> tuple:
    """``aggregate``'s cells, one (estimator, coefficient) pair and one
    replication at a time; the blocks' estimator columns are ``estimators``."""
    rows = [(b, k) for b in blocks for k in range(len(b.converged)) if b.converged[k]]
    betas = np.array([b.beta[k] for b, k in rows])
    cells = []
    for col, est in enumerate(estimators):
        usable = [(b, k) for b, k in rows if b.computable[k, col]]
        for ci, name in enumerate(spec.test_coefs):
            sim_se = float(np.std(betas[:, _COEF_INDEX[name]], ddof=1))
            ses = np.array([b.se[k, col, ci] for b, k in usable], float)
            rejects = np.array([b.reject[k, col, ci] for b, k in usable], float)
            cells.append(literal_cell(est.name, name, ses, rejects, sim_se))
    return tuple(cells)


class LiteralFit(NamedTuple):
    beta: np.ndarray
    alpha: float
    phi: float
    converged: bool
    iterations: int
    reason: object
    kernel: object
    steps: tuple


def literal_fit(data, y, wm, opts) -> LiteralFit:
    """One replication's Fisher scoring with sequential step halving.

    Every kernel is an ``assemble_block`` block of one; the R(alpha)
    factors are formed when the kernel's alpha or phi moves, and each
    halving candidate h = 0, 1, ... is assembled in turn until one reduces
    the penalized score norm.  ``kernel`` is the last kernel the fit
    accepted, None when it never had one.  ``steps`` holds, per completed
    halving, the accepted h and whether it reduced the norm (else it is
    the first best of all the candidates).
    """
    y = y[None, data.kernel_rows]
    beta = np.zeros((1, data.p))
    alpha = np.zeros(1) if wm.estimates_alpha else np.array([float(wm.alpha)])
    phi = np.ones(1) if wm.estimates_dispersion else np.array([float(wm.dispersion)])

    def assemble(at, cinv):
        k, ill = assemble_block(at, wm.structure, alpha, phi, data, y, cinv)
        g = k.score + firth_penalty(k) if opts.penalized else k.score
        return k, bool(ill[0]), g

    def refresh():
        cinv, not_pd = whitening_factors(wm.structure, alpha, data)
        k, ill, g = assemble(beta, cinv)
        return k, g, cinv, not (ill or not_pd[0])

    kernel = cinv = None
    converged, reason, steps = False, "max_iter", []
    for it in range(1, opts.max_iter + 1):
        if kernel is None:
            k, g, c, ok = refresh()
            if not ok:
                reason = "singular_information"
                break
            kernel, cinv = k, c
        if wm.estimates_dispersion or wm.estimates_alpha:
            if wm.estimates_dispersion:
                phi = estimate_phi(kernel)
            if wm.estimates_alpha:
                alpha = estimate_alpha(kernel)
            if alpha[0] != kernel.alpha[0] or phi[0] != kernel.phi[0]:
                k, g, c, ok = refresh()
                if not ok:
                    reason = "singular_information"
                    break
                kernel, cinv = k, c
        gnorm = np.sqrt(np.sum(g * g, axis=-1))[0]
        step = (kernel.info_inv @ g[:, :, None])[:, :, 0]
        start, best, taken = beta, np.inf, None
        for h in range(MAX_HALVINGS + 1):
            cand = start + 0.5**h * step
            k, ill, gc = assemble(cand, cinv)
            cn = np.inf if ill else np.sqrt(np.sum(gc * gc, axis=-1))[0]
            if cn < best:
                best, beta, kernel, g, taken = cn, cand, k, gc, h
            if not cn >= gnorm:
                break
        steps.append((taken, bool(best < gnorm)))
        if best == np.inf:
            reason = "singular_information"
            break
        if np.max(np.abs(beta)) > BETA_CAP:
            reason = "beta_cap"
            break
        if np.max(np.abs(beta - start)) < opts.tol:
            converged, reason = True, None
            break
    return LiteralFit(
        beta[0], float(alpha[0]), float(phi[0]), converged, it, reason, kernel, tuple(steps)
    )


def literal_read_csv(path) -> LongitudinalDataset:
    """The canonical CSV read one record at a time: each record is checked
    and converted in file order, and each cluster id takes the next code
    when it first appears."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "cluster" or header[1] != "y":
            raise DatasetError(
                f"{path}: header must be 'cluster,y,x1..xk[,t]', got {header}"
            )
        has_time = header[-1] == "t"
        xnames = header[2 : -1 if has_time else len(header)]
        if not xnames and not has_time:
            raise DatasetError(f"{path}: no covariate columns")
        cids, values = [], []
        for lineno, parts in enumerate(reader, start=2):
            if not parts or (len(parts) == 1 and not parts[0].strip()):
                continue
            if len(parts) != len(header):
                raise DatasetError(f"{path}:{lineno}: wrong number of fields")
            try:
                values.extend(map(float, parts[1:]))
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-numeric value") from None
            cids.append(parts[0])
    if not cids:
        raise DatasetError("no input rows")
    table = np.array(values).reshape(len(cids), len(header) - 1)
    rank: dict = {}
    codes = np.array([rank.setdefault(cid, len(rank)) for cid in cids], dtype=np.intp)
    table = table[np.argsort(codes, kind="stable")]
    return LongitudinalDataset(
        ids=tuple(rank),
        sizes=np.bincount(codes),
        y=table[:, 0],
        X=np.hstack([np.ones((len(cids), 1)), table[:, 1:]]),
        colnames=("intercept", *xnames, *(("t",) if has_time else ())),
        has_time=has_time,
    )
