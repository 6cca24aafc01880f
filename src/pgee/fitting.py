"""Iterative solution of the (penalized) estimating equation.

Fisher scoring with the assembled kernel:

    beta <- beta + info^{-1} [ U(beta) + b(beta) ]

with the penalty term included when ``penalized`` is set.  The working
correlation and dispersion are refreshed from current residuals at each
outer iteration when in estimate mode.  Step halving (up to 10 halvings)
guards against overshoot when the penalized score norm fails to decrease.

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
from scipy.linalg import cho_factor, cho_solve

from .core import FitKernel, assemble_kernel, firth_penalty, gee_score
from .data import LongitudinalDataset, WorkingModel, exchangeable_alpha_bounds
from .errors import SingularInformation, SingularV

#: Clamp margin keeping estimated correlations in the open admissible set.
ALPHA_MARGIN = 1e-6

#: Floor for a degenerate estimated dispersion.
PHI_FLOOR = 1e-6


@dataclass(frozen=True)
class FitOptions:
    """Solver controls; defaults follow the package conventions."""

    penalized: bool = True
    max_iter: int = 50
    tol: float = 1e-6
    beta_cap: float = 50.0
    max_halvings: int = 10

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not 0.0 < self.beta_cap < np.inf:
            raise ValueError(f"beta_cap must be positive and finite, got {self.beta_cap}")


@dataclass(frozen=True)
class PgeeFit:
    """Converged (or flagged) parameter state plus the kernel at beta_hat."""

    beta: np.ndarray
    alpha: float
    phi: float
    converged: bool
    iterations: int
    kernel: Optional[FitKernel]
    diverged_reason: Optional[str] = None
    penalized: bool = True


def estimate_alpha(kernel: FitKernel, structure: Optional[str] = None) -> float:
    """Moment estimator of the working-correlation parameter.

    Pearson residuals e = r / sqrt(w * phi) feed the lag products; the
    denominators carry the usual (pairs - p) correction.  The estimate is
    clamped to the admissible open interval shrunk by ALPHA_MARGIN; a
    non-positive denominator yields 0 with a warning.
    """
    structure = structure or kernel.structure
    if structure == "independence":
        return 0.0
    num = 0.0
    den = -float(kernel.p)
    for g in kernel.groups:
        e = g.resid / np.sqrt(g.w * kernel.phi)
        n_s, n = e.shape
        if structure == "exchangeable":
            num += 0.5 * float(np.sum(e.sum(axis=1) ** 2 - np.sum(e**2, axis=1)))
            den += 0.5 * n_s * n * (n - 1)
        else:  # ar1
            num += float(np.sum(e[:, :-1] * e[:, 1:]))
            den += n_s * (n - 1)
    if den <= 0:
        warnings.warn(
            "correlation denominator non-positive; falling back to alpha = 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    alpha = num / den
    if structure == "exchangeable":
        lo, hi = exchangeable_alpha_bounds(max(kernel.cluster_sizes))
    else:
        lo, hi = -1.0, 1.0
    return float(np.clip(alpha, lo + ALPHA_MARGIN, hi - ALPHA_MARGIN))


def estimate_phi(kernel: FitKernel) -> float:
    """Pearson plug-in dispersion: sum of e_ij^2 over (n_total - p), e at phi = 1."""
    num = sum(float(np.sum(g.resid**2 / g.w)) for g in kernel.groups)
    phi = num / (kernel.n_total - kernel.p)
    if phi < PHI_FLOOR:
        warnings.warn(
            f"estimated dispersion fell below {PHI_FLOOR} and was floored there",
            RuntimeWarning,
            stacklevel=2,
        )
        return PHI_FLOOR
    return phi


def _penalized_score(kernel: FitKernel, penalized: bool) -> np.ndarray:
    g = gee_score(kernel)
    if penalized:
        g = g + firth_penalty(kernel)
    return g


def fit(
    data: LongitudinalDataset,
    wm: WorkingModel,
    opts: Optional[FitOptions] = None,
) -> PgeeFit:
    """Solve the (penalized) estimating equation by Fisher scoring.

    beta starts at 0; alpha and phi start at 0 and 1 (or their fixed
    values) and are refreshed each outer iteration in estimate mode.
    Convergence: max-norm of the step below ``tol``.  Divergence: max-norm
    of beta above ``beta_cap``, ill-conditioned information, or exhausted
    iterations; these return ``converged=False`` with a reason tag.
    """
    opts = opts or FitOptions()
    p = data.p
    n_max = max(data.cluster_sizes)
    beta = np.zeros(p)

    if wm.estimates_alpha:
        alpha = 0.0
    else:
        alpha = float(wm.alpha)
        wm.check_alpha(alpha, n_max)
    phi = 1.0 if wm.estimates_dispersion else float(wm.dispersion)

    kernel: Optional[FitKernel] = None
    reason: Optional[str] = None
    converged = False
    iterations = 0

    for it in range(1, opts.max_iter + 1):
        iterations = it
        # From the second iteration on, the accepted step-halving kernel
        # is already the kernel at the current (beta, alpha, phi).
        base = kernel
        if base is None:
            try:
                base = assemble_kernel(beta, wm.structure, alpha, phi, data)
            except (SingularV, SingularInformation):
                reason = "singular_information"
                break
        if wm.estimates_dispersion:
            phi = estimate_phi(base)
        if wm.estimates_alpha:
            alpha = estimate_alpha(base)
        if alpha != base.alpha or phi != base.phi:
            try:
                base = assemble_kernel(beta, wm.structure, alpha, phi, data)
            except (SingularV, SingularInformation):
                reason = "singular_information"
                break
        kernel = base

        g = _penalized_score(base, opts.penalized)
        gnorm = float(np.linalg.norm(g))
        step = cho_solve(cho_factor(base.info, lower=True), g)

        # Step halving: accept the first candidate that reduces the
        # penalized score norm, else the best of the tried candidates.
        best_beta = None
        best_kernel = None
        best_norm = np.inf
        scale = 1.0
        for _ in range(opts.max_halvings + 1):
            cand = beta + scale * step
            try:
                ck = assemble_kernel(cand, wm.structure, alpha, phi, data)
                cn = float(np.linalg.norm(_penalized_score(ck, opts.penalized)))
            except (SingularV, SingularInformation):
                ck, cn = None, np.inf
            if cn < best_norm:
                best_beta, best_kernel, best_norm = cand, ck, cn
            if cn < gnorm:
                break
            scale *= 0.5
        if best_kernel is None:
            reason = "singular_information"
            break

        delta = best_beta - beta
        beta = best_beta
        kernel = best_kernel
        if float(np.max(np.abs(beta))) > opts.beta_cap:
            reason = "beta_cap"
            break
        if float(np.max(np.abs(delta))) < opts.tol:
            converged = True
            break
    else:
        reason = "max_iter"

    if not converged and reason is None:
        reason = "max_iter"
    return PgeeFit(
        beta=beta,
        alpha=alpha,
        phi=phi,
        converged=converged,
        iterations=iterations,
        kernel=kernel,
        diverged_reason=None if converged else reason,
        penalized=opts.penalized,
    )
