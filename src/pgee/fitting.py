"""Iterative solution of the (penalized) estimating equation.

Fisher scoring with the assembled kernel:

    beta <- beta + info^{-1} [ U(beta) + b(beta) ]

with the penalty term included when ``penalized`` is set.  The working
correlation and dispersion are refreshed from current residuals at each
outer iteration when in estimate mode.  Step halving (up to MAX_HALVINGS
halvings) guards against overshoot when the penalized score norm fails to
decrease.

One loop fits a block of replications that share the design, in lockstep:
each iteration, each refresh and each halving round is one kernel
assembly over the replications it concerns.  Every replication keeps its
own beta, alpha, phi, iteration count, step-halving choices and stopping
reason, exactly as if it were fitted alone: a replication that has
converged or diverged is masked out of later iterations, and one whose
halving has found its step is masked out of later rounds.  The R(alpha)
factors are computed once per refresh and reused by every halving
candidate, and the step reuses the kernel's ``info_inv``.  ``fit`` is this
loop on a block of one dataset.

Non-convergence is a result state, not an exception: fits that exceed the
parameter cap, exhaust iterations, or hit a singular information matrix
come back with ``converged=False`` and a reason tag, so simulation code
can condition on convergence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    FitKernel,
    as_block,
    assemble_block,
    assemble_kernel,  # noqa: F401  (re-exported: perfbench/spans.py resolves this name)
    firth_penalty,
    gee_score,
    whitening_factors,
)
from .data import LongitudinalDataset, WorkingModel, exchangeable_alpha_bounds
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
    kernel, whose entry for a replication is its final kernel when it
    converged.
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
    denominators carry the usual (pairs - p) correction.  The estimate is
    clamped to the admissible open interval shrunk by ALPHA_MARGIN; a
    non-positive denominator yields 0 with a warning.  A block gives one
    estimate per replication.
    """
    block, single = as_block(kernel)
    structure = structure or block.structure
    if structure == "independence":
        alpha = np.zeros(block.phi.shape)
        return float(alpha[0]) if single else alpha
    num = 0.0
    den = -float(block.p)
    for g in block.groups:
        e = g.resid / np.sqrt(g.w * block.phi[:, None, None])
        _, n_s, n = e.shape
        if structure == "exchangeable":
            num = num + 0.5 * np.sum(e.sum(axis=-1) ** 2 - np.sum(e**2, axis=-1), axis=-1)
            den += 0.5 * n_s * n * (n - 1)
        else:  # ar1
            num = num + np.sum(e[..., :-1] * e[..., 1:], axis=(-2, -1))
            den += n_s * (n - 1)
    if den <= 0:
        warnings.warn(
            "correlation denominator non-positive; falling back to alpha = 0",
            RuntimeWarning,
            stacklevel=2,
        )
        alpha = np.zeros(block.phi.shape)
    else:
        if structure == "exchangeable":
            lo, hi = exchangeable_alpha_bounds(max(block.cluster_sizes))
        else:
            lo, hi = -1.0, 1.0
        alpha = np.clip(num / den, lo + ALPHA_MARGIN, hi - ALPHA_MARGIN)
    return float(alpha[0]) if single else alpha


def estimate_phi(kernel: FitKernel):
    """Pearson plug-in dispersion: sum of e_ij^2 over (n_total - p), e at
    phi = 1; one per replication for a block."""
    block, single = as_block(kernel)
    num = sum(np.sum(g.resid**2 / g.w, axis=(-2, -1)) for g in block.groups)
    phi = num / (block.n_total - block.p)
    if np.any(phi < PHI_FLOOR):
        warnings.warn(
            f"estimated dispersion fell below {PHI_FLOOR} and was floored there",
            RuntimeWarning,
            stacklevel=2,
        )
        phi = np.maximum(phi, PHI_FLOOR)
    return float(phi[0]) if single else phi


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
        kernel=res.kernel.take(0) if has_kernel[0] else None,
        diverged_reason=res.diverged_reason[0],
        penalized=res.penalized,
    )


def _lockstep(data, y, wm, opts) -> tuple:
    """The lockstep Fisher scoring loop; returns the block PgeeFit and the
    (R,) mask of replications that have a kernel."""
    n_reps, p = y.shape[0], data.p
    ys = tuple(y[:, g.rows] for g in data.size_groups)
    beta = np.zeros((n_reps, p))
    if wm.estimates_alpha:
        alpha = np.zeros(n_reps)
    else:
        wm.check_alpha(float(wm.alpha), max(data.cluster_sizes))
        alpha = np.full(n_reps, float(wm.alpha))
    phi = np.ones(n_reps) if wm.estimates_dispersion else np.full(n_reps, float(wm.dispersion))

    # ``kernel`` holds each replication's current kernel and ``score`` its
    # penalized score; rows are overwritten as replications move.
    kernel: Optional[FitKernel] = None
    score = np.empty((n_reps, p))
    active = np.ones(n_reps, bool)
    has_kernel = np.zeros(n_reps, bool)
    converged = np.zeros(n_reps, bool)
    iterations = np.zeros(n_reps, int)
    reason = np.full(n_reps, None, dtype=object)

    def stop(rows, why):
        if rows.size:
            reason[rows] = why
            active[rows] = False

    def put(rows, k, sel):
        """Make the replications ``sel`` of k the current kernels of ``rows``."""
        nonlocal kernel
        if rows.size == n_reps and sel.all():
            kernel = k
        elif rows.size:
            kernel.assign(rows, k, sel)

    def assemble(rows, at, cinvs):
        k, ill = assemble_block(
            at, wm.structure, alpha[rows], phi[rows], data,
            tuple(yg[rows] for yg in ys), cinvs,
        )
        return k, ill, _penalized_score(k, opts.penalized)

    def refresh(rows):
        """Kernels at the current points of ``rows`` with fresh R(alpha)
        factors; the rows that fail stop as singular."""
        nonlocal kernel
        cinvs, not_pd = whitening_factors(wm.structure, alpha[rows], data)
        k, ill, g = assemble(rows, beta[rows], cinvs)
        ok = ~(ill | not_pd.any(axis=-1))
        if kernel is None:
            kernel = k
        else:
            put(rows[ok], k, ok)
        score[rows[ok]] = g[ok]
        stop(rows[~ok], "singular_information")

    for it in range(1, opts.max_iter + 1):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        iterations[rows] = it
        if kernel is None:
            refresh(rows)
            rows = np.flatnonzero(active)
        if wm.estimates_dispersion or wm.estimates_alpha:
            base = kernel if rows.size == n_reps else kernel.take(rows)
            if wm.estimates_dispersion:
                phi[rows] = estimate_phi(base)
            if wm.estimates_alpha:
                alpha[rows] = estimate_alpha(base)
            moved = (alpha[rows] != base.alpha) | (phi[rows] != base.phi)
            if moved.any():
                refresh(rows[moved])
                rows = np.flatnonzero(active)
        has_kernel[rows] = True

        g = score[rows]
        gnorm = _norm(g)
        step = (kernel.info_inv[rows] @ g[:, :, None])[:, :, 0]
        start = beta[rows]

        # Step halving: each replication accepts its first candidate that
        # reduces the penalized score norm, else the best it tried; a
        # candidate that beats the ones before it becomes current at once.
        best = np.full(rows.size, np.inf)
        todo = np.arange(rows.size)
        for h in range(MAX_HALVINGS + 1):
            sub = rows[todo]
            cand = start[todo] + 0.5**h * step[todo]
            cinvs = tuple(kg.cinv[sub] for kg in kernel.groups)
            k, ill, gc = assemble(sub, cand, cinvs)
            cn = np.where(ill, np.inf, _norm(gc))
            better = cn < best[todo]
            best[todo[better]] = cn[better]
            put(sub[better], k, better)
            score[sub[better]] = gc[better]
            beta[sub[better]] = cand[better]
            todo = todo[cn >= gnorm[todo]]
            if not todo.size:
                break
        stepped = best < np.inf
        stop(rows[~stepped], "singular_information")
        capped = stepped & (np.max(np.abs(beta[rows]), axis=-1) > BETA_CAP)
        stop(rows[capped], "beta_cap")
        done = stepped & ~capped & (np.max(np.abs(beta[rows] - start), axis=-1) < opts.tol)
        converged[rows[done]] = True
        active[rows[done]] = False
    reason[active] = "max_iter"

    result = PgeeFit(
        beta=beta,
        alpha=alpha,
        phi=phi,
        converged=converged,
        iterations=iterations,
        kernel=kernel,
        diverged_reason=reason,
        penalized=opts.penalized,
    )
    return result, has_kernel
