"""Iterative solution of the (penalized) estimating equation.

Fisher scoring with the assembled kernel:

    beta <- beta + info^{-1} [ U(beta) + b(beta) ]

with the penalty term included when ``penalized`` is set.  The working
correlation and dispersion are refreshed from current residuals at each
outer iteration when in estimate mode.  Step halving (up to MAX_HALVINGS
halvings) guards against overshoot when the penalized score norm fails to
decrease.

One loop fits a block of replications that share the design, in lockstep:
each alpha/phi refresh and each halving stage is one kernel evaluation
over the replications it concerns.  Every replication keeps its own beta,
alpha, phi, iteration count, step-halving choices and stopping reason,
exactly as if it were fitted alone: a replication that has converged or
diverged leaves the loop.  The loop carries the state of its active
replications only: beta, the alpha and phi of its current R(alpha)
factor (one (n_max, n_max) array per replication, whose leading blocks
whiten the smaller sizes), the current ``info_inv`` and penalized
score, the beta stage (``core.beta_stage``: mu, w, r and the unwhitened
z) and the responses.  When replications stop, their final
values are written to the (R,) outputs and the state is compacted to the
others, so an iteration in which none stops indexes nothing: a refresh
and a step whose every candidate improves are bound as the new state.
When any active replication's alpha or phi moves, the refresh whitens the
beta stage of every active replication at its alpha and phi with a fresh
factor; one whose estimates did not move gets back the bits it had.  A
replication whose fresh information is ill-conditioned stops with the
factor and kernel it had.  A halving candidate forms its own beta stage
and whitens it with the current factor.  Halving runs in two stages: the
full step for every replication, then, for those it does not improve, the
other MAX_HALVINGS candidates in one evaluation.  Each takes the first
candidate that improves, else the first with the least norm, as
sequential halving would.  After the loop one assembly builds every
replication's final kernel at its point and last factor.  ``fit`` is
this loop on a block of one dataset, and its kernel is that block of one,
marked ``single`` (see ``core.FitKernel``).

The responses are put in the kernel's row order once per fit
(``LongitudinalDataset.kernel_rows``: by cluster size, then
position-major), so the beta stage, the penalty and the phi moment each
take all clusters in one pass over flat rows, the whitening takes one
product per size, by the leading block of the factor, and the alpha
moment reads each size as an (R, n, N_s) slice of the rows.

Non-convergence is a result state, not an exception: fits that exceed the
parameter cap, exhaust iterations, or hit a singular information matrix
come back with ``converged=False`` and a reason tag, so simulation code
can condition on convergence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    BetaStage,
    FitKernel,
    assemble_block,
    assemble_kernel,  # noqa: F401  (re-exported: perfbench/spans.py resolves this name)
    beta_stage,
    firth_penalty,
    gee_score,
    whiten_block,
    whitening_factors,
)
from .data import LongitudinalDataset, WorkingModel, alpha_bounds
from .errors import DatasetError, NonBinaryOutcome

#: Clamp margin keeping estimated correlations in the open admissible set.
ALPHA_MARGIN = 1e-6

#: Floor for a degenerate estimated dispersion.
PHI_FLOOR = 1e-6

#: A fit diverges when the max-norm of beta exceeds this cap.
BETA_CAP = 50.0

#: Halvings of a Fisher step tried before the best candidate is taken.
MAX_HALVINGS = 10


@dataclass(frozen=True)
class FitOptions:
    """Solver controls; defaults follow the package conventions."""

    penalized: bool = True
    max_iter: int = 50
    tol: float = 1e-6

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class PgeeFit:
    """Converged (or flagged) parameter state plus the kernel at beta_hat.

    From ``fit_block`` every field but ``penalized`` carries the
    replication axis: ``beta`` (R, p); ``alpha``, ``phi``, ``converged``,
    ``iterations`` and ``diverged_reason`` (R,); ``kernel`` is the block
    kernel, whose entry for a replication is its final kernel: at its last
    accepted beta, with the alpha and phi of its last factor (a
    replication that stopped in its first iteration, before its step, has
    none).  From ``fit`` the fields are one replication's and ``kernel``
    is its block of one.
    """

    beta: np.ndarray
    alpha: float
    phi: float
    converged: bool
    iterations: int
    kernel: Optional[FitKernel]
    diverged_reason: Optional[str] = None
    penalized: bool = True


def estimate_alpha(kernel: FitKernel, structure: Optional[str] = None):
    """Moment estimator of the working-correlation parameter.

    Pearson residuals e = r / sqrt(w * phi) feed the lag products; the
    denominator is the pair count minus p, at least N - p >= 1 on a valid
    dataset (N >= p + 1 clusters of at least 2 rows).  The estimate is
    clamped to the admissible open interval (``data.alpha_bounds``) shrunk
    by ALPHA_MARGIN.  Returns one estimate per replication, (R,).
    """
    return _alpha_moment(structure or kernel.structure, kernel.data, kernel.resid, kernel.w,
                         kernel.phi)


def _alpha_moment(structure, data, resid, w, phi) -> np.ndarray:
    """``estimate_alpha`` from (R, n_total) residuals and weights in kernel
    order at (R,) dispersions ``phi``."""
    if structure == "independence":
        return np.zeros(phi.shape)
    e = resid / np.sqrt(w * phi[:, None])
    num, den = 0.0, -data.p
    for g in data.size_groups:
        n_s, n = g.rows.shape
        es = g.view(e)  # (R, position, cluster)
        if structure == "exchangeable":
            num = num + 0.5 * np.sum(es.sum(axis=1) ** 2 - np.sum(es**2, axis=1), axis=-1)
            den += n_s * n * (n - 1) // 2
        else:  # ar1
            num = num + np.sum(es[:, :-1] * es[:, 1:], axis=(-2, -1))
            den += n_s * (n - 1)
    lo, hi = alpha_bounds(structure, data.n_max)
    return np.clip(num / den, lo + ALPHA_MARGIN, hi - ALPHA_MARGIN)


def estimate_phi(kernel: FitKernel):
    """Pearson plug-in dispersion: sum of e_ij^2 over (n_total - p), e at
    phi = 1; one per replication, (R,)."""
    return _phi_moment(kernel.data, kernel.resid, kernel.w)


def _phi_moment(data, resid, w) -> np.ndarray:
    """``estimate_phi`` from (R, n_total) residuals and weights."""
    phi = np.sum(resid**2 / w, axis=-1) / (data.n_total - data.p)
    if np.any(phi < PHI_FLOOR):
        warnings.warn(
            f"estimated dispersion fell below {PHI_FLOOR} and was floored there",
            RuntimeWarning,
            stacklevel=3,
        )
        phi = np.maximum(phi, PHI_FLOOR)
    return phi


def _norm(g: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    return np.sqrt(np.sum(g * g, axis=-1))


def _penalized_score(kernel: FitKernel, penalized: bool) -> np.ndarray:
    g = gee_score(kernel)
    if penalized:
        g = g + firth_penalty(kernel)
    return g


def fit_block(
    data: LongitudinalDataset,
    y: np.ndarray,
    wm: WorkingModel,
    opts: Optional[FitOptions] = None,
) -> PgeeFit:
    """Fit R replications that share the design of ``data`` and whose
    responses are the rows of ``y`` (R, n_total), in lockstep.

    Each replication follows the iteration of ``fit`` on its own; see
    :class:`PgeeFit` for the shape of the result.  Only the design of
    ``data`` is read; ``y`` is checked as its responses would be.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != data.n_total:
        raise DatasetError(f"y must be (R, {data.n_total}), got shape {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise NonBinaryOutcome("y values must be 0 or 1")
    return _lockstep(data, y, wm, opts or FitOptions())[0]


def fit(
    data: LongitudinalDataset,
    wm: WorkingModel,
    opts: Optional[FitOptions] = None,
) -> PgeeFit:
    """Solve the (penalized) estimating equation by Fisher scoring.

    beta starts at 0; alpha and phi start at 0 and 1 (or their fixed
    values) and are refreshed each outer iteration in estimate mode.
    Convergence: max-norm of the step below ``tol``.  Divergence: max-norm
    of beta above BETA_CAP, ill-conditioned information, or exhausted
    iterations; these return ``converged=False`` with a reason tag.
    """
    res, has_kernel = _lockstep(data, data.y[None], wm, opts or FitOptions())
    return PgeeFit(
        beta=res.beta[0],
        alpha=float(res.alpha[0]),
        phi=float(res.phi[0]),
        converged=bool(res.converged[0]),
        iterations=int(res.iterations[0]),
        kernel=replace(res.kernel, single=True) if has_kernel[0] else None,
        diverged_reason=res.diverged_reason[0],
        penalized=res.penalized,
    )


def _lockstep(data, y, wm, opts) -> tuple:
    """The lockstep Fisher scoring loop; returns the block PgeeFit and the
    (R,) mask of replications that have a kernel."""
    n_reps, p = y.shape[0], data.p
    structure = wm.structure
    y = y[:, data.kernel_rows]
    if wm.estimates_alpha:
        alpha = np.zeros(n_reps)
    else:
        wm.check_alpha(float(wm.alpha), data.n_max)
        alpha = np.full(n_reps, float(wm.alpha))
    phi = np.ones(n_reps) if wm.estimates_dispersion else np.full(n_reps, float(wm.dispersion))

    # What a replication leaves when it stops: its point, estimates, the
    # alpha and phi of its last factor and that factor, (R,) first.
    out_beta, out_alpha, out_phi = np.empty((n_reps, p)), np.empty(n_reps), np.empty(n_reps)
    out_kalpha, out_kphi = np.empty(n_reps), np.empty(n_reps)
    out_factor = np.empty((n_reps, data.n_max, data.n_max))
    has_kernel = np.zeros(n_reps, bool)
    converged = np.zeros(n_reps, bool)
    iterations = np.zeros(n_reps, int)
    reason = np.full(n_reps, None, dtype=object)

    # The state of the active replications ``ids`` only: the point beta;
    # the alpha and phi of its current R(alpha) factor and kernel
    # (``kalpha``, ``kphi``; the estimates ``alpha`` and ``phi`` move
    # ahead of them until the refresh binds them all); that kernel's
    # ``info_inv`` and penalized ``score``; the (n_max, n_max) factor, the
    # BetaStage at beta and the responses.  The state is rebound, never
    # written in place, except for arrays made in the same step.
    ids = np.arange(n_reps)
    beta = np.zeros((n_reps, p))
    kalpha, kphi = alpha, phi
    stage = beta_stage(beta, data, y)
    act_y = y
    factor, info_inv, score = None, None, None

    def finish(gone, why, it, with_kernel):
        """Write the final values of the active replications ``gone`` (a
        mask) to the outputs, with reasons ``why`` (None is converged),
        and drop them from the state."""
        nonlocal ids, beta, alpha, phi, kalpha, kphi, info_inv, score, stage, factor, act_y
        rows = ids[gone]
        out_beta[rows], out_alpha[rows], out_phi[rows] = beta[gone], alpha[gone], phi[gone]
        out_kalpha[rows], out_kphi[rows], out_factor[rows] = kalpha[gone], kphi[gone], factor[gone]
        iterations[rows], has_kernel[rows] = it, with_kernel
        reason[rows] = why if np.ndim(why) == 0 else why[gone]
        converged[rows] = np.equal(reason[rows], None)
        keep = ~gone
        ids, beta, alpha, phi = ids[keep], beta[keep], alpha[keep], phi[keep]
        kalpha, kphi, info_inv, score = kalpha[keep], kphi[keep], info_inv[keep], score[keep]
        stage = BetaStage._make(a[keep] for a in stage)
        factor, act_y = factor[keep], act_y[keep]

    def evaluate(point, a, ph, st, cinv):
        """Kernel of the candidates ``point`` at alphas ``a`` and phis
        ``ph``: (kernel, ill, penalized score)."""
        k, ill = whiten_block(point, structure, a, ph, data, st, cinv)
        return k, ill, _penalized_score(k, opts.penalized)

    def refresh():
        """Kernels of every active replication at its point with a fresh
        R(alpha) factor: (factor, info_inv, penalized score, failed)."""
        cinv, not_pd = whitening_factors(structure, alpha, data)
        k, ill, g = evaluate(beta, alpha, phi, stage, cinv)
        return cinv, k.info_inv, g, ill | not_pd

    factor, info_inv, score, failed = refresh()
    if failed.any():
        finish(failed, "singular_information", 1, False)
    halvings = np.array([0.5**h for h in range(1, MAX_HALVINGS + 1)])
    for it in range(1, opts.max_iter + 1):
        if not ids.size:
            break
        if wm.estimates_dispersion:
            phi = _phi_moment(data, stage.resid, stage.w)
        if wm.estimates_alpha:
            alpha = _alpha_moment(structure, data, stage.resid, stage.w, kphi)
        if np.any((alpha != kalpha) | (phi != kphi)):
            fresh = refresh()
            failed = fresh[-1]
            if failed.any():
                finish(failed, "singular_information", it, it > 1)
                if not ids.size:
                    break
                fresh = [a[~failed] for a in fresh]
            factor, info_inv, score, _ = fresh
            kalpha, kphi = alpha, phi

        gnorm = _norm(score)
        step = (info_inv @ score[:, :, None])[:, :, 0]
        start = beta

        # Step halving: each replication accepts its first candidate that
        # reduces the penalized score norm, else the first best of all
        # (an ill candidate counts as infinite).  The full step is tried
        # for every replication; those it does not improve try the other
        # MAX_HALVINGS candidates in one evaluation.  When every full step
        # is finite and improves, it is bound as the new state.
        cand = start + 0.5**0 * step
        st = beta_stage(cand, data, act_y)
        k, ill, gc = evaluate(cand, alpha, phi, st, factor)
        cn = np.where(ill, np.inf, _norm(gc))
        beta, stage, info_inv, score = cand, st, k.info_inv, gc
        if not np.all(cn < gnorm):
            late = np.flatnonzero(cn >= gnorm)
            best = np.where(cn < np.inf, cn, np.inf)
            if late.size:
                cand_h = (start[late, None] + halvings[:, None] * step[late, None]).reshape(-1, p)
                st_h = beta_stage(cand_h, data, np.repeat(act_y[late], MAX_HALVINGS, axis=0))
                k_h, ill_h, gc_h = evaluate(
                    cand_h, np.repeat(alpha[late], MAX_HALVINGS),
                    np.repeat(phi[late], MAX_HALVINGS), st_h,
                    np.repeat(factor[late], MAX_HALVINGS, axis=0),
                )
                cn_h = np.where(ill_h, np.inf, _norm(gc_h)).reshape(late.size, MAX_HALVINGS)
                norms = np.concatenate([best[late, None], cn_h], axis=1)
                improves = norms < gnorm[late, None]
                h = np.where(improves.any(axis=1), improves.argmax(axis=1), norms.argmin(axis=1))
                best[late] = norms[np.arange(late.size), h]
                halved = h > 0
                took, sel = late[halved], np.flatnonzero(halved) * MAX_HALVINGS + h[halved] - 1
                beta[took], info_inv[took], score[took] = cand_h[sel], k_h.info_inv[sel], gc_h[sel]
                for a, b in zip(stage, st_h):
                    a[took] = b[sel]
            stepped = best < np.inf
            beta[~stepped] = start[~stepped]
        else:
            stepped = np.ones(ids.size, bool)

        capped = stepped & (np.max(np.abs(beta), axis=-1) > BETA_CAP)
        done = stepped & ~capped & (np.max(np.abs(beta - start), axis=-1) < opts.tol)
        gone = ~stepped | capped | done
        if gone.any():
            why = np.full(ids.size, None, dtype=object)
            why[~stepped], why[capped] = "singular_information", "beta_cap"
            finish(gone, why, it, True)
    if ids.size:
        finish(np.ones(ids.size, bool), "max_iter", opts.max_iter, True)

    # every replication's final kernel, at its point and last factor
    kernel, _ = assemble_block(out_beta, structure, out_kalpha, out_kphi, data, y, out_factor)
    result = PgeeFit(
        beta=out_beta,
        alpha=out_alpha,
        phi=out_phi,
        converged=converged,
        iterations=iterations,
        kernel=kernel,
        diverged_reason=reason,
        penalized=opts.penalized,
    )
    return result, has_kernel
