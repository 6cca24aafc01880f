"""Correlated binary data generation via sequential conditional means.

A cluster with target means mu and correlation matrix R (exchangeable or
AR(1)) is drawn one position at a time.  Position j is Bernoulli with
conditional mean

    lam_j = mu_j + sum_{k<j} b_jk sqrt(w_j / w_k) (y_k - mu_k),

where w = mu (1 - mu) and the weights b solve
``R[1:j-1, 1:j-1] b = R[1:j-1, j]``.  This construction reproduces the
target means and pairwise correlations exactly whenever every realized
conditional mean stays inside (0, 1); a draw whose conditional mean
leaves (0, 1) is reported as invalid (counted, never clamped).

The weights depend only on R and the cluster size, and the means only on
the arm and the position, so a scenario's design (``clf_design``) is
built and validated once: X, one weight table per size and the means of
each (size, arm) group.  ``ClfDesign.draw`` then draws any number of
datasets in one pass, running the position loop once per (size, arm)
group over the rows of all their clusters; only their 0/1 responses
differ.  A dataset consumes exactly one uniform per row, in cluster
order, whether or not its draw is valid.

Scenarios describe the simulation designs: N clusters whose first
``round(gamma N)`` members are treated, observation times ``0.2 j``, and a
logistic marginal model with intercept calibrated so the design-average
event probability hits the target rate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .core import expit, working_correlation
from .data import LongitudinalDataset, alpha_bounds, normalize_structure
from .errors import BracketFailure, SingularR

#: Observation time step: t_ij = TIME_STEP * j.
TIME_STEP = 0.2

#: The calibrated design-average event probability is within this of the target.
CALIBRATION_TOL = 1e-8

_TRUE_STRUCTURES = ("exchangeable", "ar1")


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: design, truth, and working assumptions."""

    n_clusters: int
    n_pattern: tuple = (4,)
    event_rate: float = 0.2
    rho: float = 0.2
    true_structure: str = "exchangeable"
    working_structure: str = "exchangeable"
    gamma: float = 0.3
    beta1: float = 0.0
    beta2: float = 0.2
    model: str = "full"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "true_structure", normalize_structure(self.true_structure)
        )
        object.__setattr__(
            self, "working_structure", normalize_structure(self.working_structure)
        )
        if self.true_structure not in _TRUE_STRUCTURES:
            raise ValueError(
                f"true structure must be one of {_TRUE_STRUCTURES}, "
                f"got {self.true_structure!r}"
            )
        try:
            object.__setattr__(self, "n_clusters", operator.index(self.n_clusters))
        except TypeError:
            raise ValueError(f"n_clusters must be an integer, got {self.n_clusters!r}") from None
        pattern = self.n_pattern
        if isinstance(pattern, str):
            pattern = pattern.split("/")  # "4" or "2/6"
        elif np.ndim(pattern) == 0:  # one size
            pattern = (pattern,)
        try:
            pattern = tuple(int(n) if isinstance(n, str) else operator.index(n) for n in pattern)
        except ValueError:
            raise ValueError(f"bad cluster-size pattern {self.n_pattern!r}") from None
        except TypeError:
            raise ValueError(f"n_pattern sizes must be integers, got {self.n_pattern!r}") from None
        if not pattern or any(n < 2 for n in pattern):
            raise ValueError(f"cluster sizes must all be >= 2, got {pattern}")
        object.__setattr__(self, "n_pattern", pattern)
        if not 0.0 < self.event_rate < 1.0:
            raise ValueError(f"event rate must lie in (0, 1), got {self.event_rate}")
        lo, hi = alpha_bounds(self.true_structure, max(pattern))
        if not lo < self.rho < hi:
            raise ValueError(f"rho {self.rho} inadmissible for {self.true_structure}")
        if not (np.isfinite(self.beta1) and np.isfinite(self.beta2)):
            raise ValueError(
                f"beta1 and beta2 must be finite, got {self.beta1}, {self.beta2}"
            )
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        n_treated = round(self.gamma * self.n_clusters)
        if n_treated < 1 or self.n_clusters - n_treated < 1:
            raise ValueError(
                f"gamma {self.gamma} leaves an empty arm at N = {self.n_clusters}"
            )
        if self.model not in ("full", "reduced"):
            raise ValueError(f"model must be 'full' or 'reduced', got {self.model!r}")

    @property
    def n_treated(self) -> int:
        return round(self.gamma * self.n_clusters)

    @property
    def p(self) -> int:
        return 3 if self.model == "full" else 2

    def cluster_sizes(self) -> list:
        pattern = self.n_pattern
        return [pattern[i % len(pattern)] for i in range(self.n_clusters)]


def design_columns(scenario: Scenario) -> tuple:
    """The cluster sizes and the treatment and time columns of the design,
    pooled over clusters: the first ``n_treated`` clusters are treated and
    observation j (from 1) of a cluster is at time ``TIME_STEP * j``."""
    sizes = np.array(scenario.cluster_sizes())
    starts = np.cumsum([0, *sizes])
    treat = np.repeat(np.arange(len(sizes)) < scenario.n_treated, sizes).astype(float)
    time = TIME_STEP * (np.arange(starts[-1]) - np.repeat(starts[:-1], sizes) + 1)
    return sizes, treat, time


def calibrate_intercept(scenario: Scenario) -> float:
    """Intercept making the design-average event probability hit the target.

    Bisection on [-20, 20] (``expit`` clamps the linear predictors), to
    within CALIBRATION_TOL of the rate on a bracket below 1e-12; raises
    BracketFailure when the target rate is unreachable there.
    """
    _, treat, time = design_columns(scenario)
    shift = scenario.beta1 * treat
    if scenario.model == "full":
        shift = shift + scenario.beta2 * time

    def excess(b0: float) -> float:
        return float(np.mean(expit(b0 + shift))) - scenario.event_rate

    lo, hi = -20.0, 20.0
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo > 0 or f_hi < 0:
        raise BracketFailure(
            f"event rate {scenario.event_rate} unreachable on [{lo}, {hi}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = excess(mid)
        if abs(f_mid) <= CALIBRATION_TOL and hi - lo <= 1e-12:
            return mid
        if f_mid < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clf_coefficients(mu: np.ndarray, structure: str, rho: float) -> np.ndarray:
    """Lower-triangular table of conditional regression weights.

    Row j holds the weights of the standardized history y_1..y_{j-1} on
    position j, obtained by solving R[:j, :j] b = R[:j, j].  Closed forms
    emerge: AR(1) gives a single-lag weight rho; exchangeable gives the
    common weight rho / (1 + (j - 2) rho).
    """
    n = len(mu)
    R = working_correlation(structure, rho, n)
    coef = np.zeros((n, n))
    for j in range(1, n):
        try:
            coef[j, :j] = np.linalg.solve(R[:j, :j], R[:j, j])
        except np.linalg.LinAlgError as exc:
            raise SingularR(
                f"target correlation singular at position {j + 1}"
            ) from exc
    return coef


def _clf_rows(mu: np.ndarray, coef: np.ndarray, unif: np.ndarray) -> tuple:
    """Sequential draw of rows sharing the means ``mu`` and weights ``coef``.

    ``unif`` is (m, n), one uniform per position.  Returns the (m, n) 0/1
    draws and the (m,) mask of rows whose conditional mean left (0, 1).
    """
    w = mu * (1.0 - mu)
    sw = np.sqrt(w)
    scaled = coef * (sw[:, None] / sw[None, :])
    m, n = unif.shape
    y = np.empty((m, n))
    resid = np.empty((m, n))
    invalid = np.zeros(m, dtype=bool)
    for j in range(n):
        lam = mu[j] + resid[:, :j] @ scaled[j, :j]
        invalid |= (lam <= 0.0) | (lam >= 1.0)
        yj = (unif[:, j] < np.clip(lam, 0.0, 1.0)).astype(float)
        y[:, j] = yj
        resid[:, j] = yj - mu[j]
    return y, invalid


class ClfDesign(NamedTuple):
    """A scenario's design, built once for any number of CLF draws.

    ``data`` is the validated design dataset (its responses all 0); each
    entry of ``groups`` is one (size, arm) group: the (m, n) row indices of
    its clusters, their common means (n,) and the weight table (n, n) of
    that size.
    """

    data: LongitudinalDataset
    groups: tuple

    def draw(self, unif: np.ndarray) -> tuple:
        """Responses of R draws from their uniforms ``unif`` (R, n_total).

        Runs the position loop once per (size, arm) group over the R·m
        rows of its clusters.  Returns the (R, n_total) 0/1 responses and
        the (R,) mask of draws in which some conditional mean left (0, 1);
        the responses of such a draw are meaningless.
        """
        n_reps = unif.shape[0]
        y = np.empty_like(unif)
        invalid = np.zeros(n_reps, dtype=bool)
        for rows, mu, coef in self.groups:
            m, n = rows.shape
            draws, bad = _clf_rows(mu, coef, unif[:, rows].reshape(n_reps * m, n))
            y[:, rows] = draws.reshape(n_reps, m, n)
            invalid |= bad.reshape(n_reps, m).any(axis=1)
        return y, invalid


def clf_design(scenario: Scenario, intercept: Optional[float] = None) -> ClfDesign:
    """The design of a scenario's datasets: sizes, X, the means of each
    (size, arm) group and one weight table per cluster size.  Passing a
    pre-calibrated ``intercept`` skips re-calibration.  ``expit`` clamps
    the linear predictor to +/- ETA_CAP; a mean of 1 in floating point
    (weight w = 0, so the CLF weights divide 0 by 0) raises ValueError."""
    if intercept is None:
        intercept = calibrate_intercept(scenario)
    sizes, treat, time = design_columns(scenario)
    full = scenario.model == "full"
    starts = np.cumsum([0, *sizes])
    treated = treat[starts[:-1]] == 1.0
    eta = intercept + scenario.beta1 * treat
    if full:
        eta = eta + scenario.beta2 * time
    mu = expit(eta)
    if np.any(mu == 1.0):
        raise ValueError(f"marginal mean 1 at linear predictor {eta.max():.6g}: CLF draw undefined")
    groups = []
    for n in np.unique(sizes):
        coef = clf_coefficients(np.empty(n), scenario.true_structure, scenario.rho)
        for arm in (treated, ~treated):
            first = starts[:-1][arm & (sizes == n)]
            if first.size:
                rows = first[:, None] + np.arange(n)
                groups.append((rows, mu[rows[0]], coef))
    data = LongitudinalDataset(
        ids=tuple(range(1, len(sizes) + 1)),
        sizes=sizes,
        y=np.zeros(starts[-1]),
        X=np.column_stack([np.ones(starts[-1]), treat, time][: scenario.p]),
        colnames=("intercept", "treat", "time")[: scenario.p],
        has_time=full,
    )
    return ClfDesign(data, tuple(groups))


def generate_dataset(
    scenario: Scenario,
    rng: np.random.Generator,
    intercept: Optional[float] = None,
) -> Optional[LongitudinalDataset]:
    """Draw one dataset for a scenario, or None when any cluster draw is invalid.

    One block of ``n_total`` uniforms is drawn and cluster i takes rows
    ``offsets[i]:offsets[i + 1]`` of it, so a dataset consumes exactly
    ``n_total`` uniforms in cluster order, valid or not, the same stream
    as one ``rng.random((1, n_i))`` draw per cluster.  This is
    :meth:`ClfDesign.draw` on one row.  The caller decides the retry
    policy for invalid draws (the simulation harness regenerates on the
    next substream and counts the event).  Passing a pre-calibrated
    ``intercept`` skips re-calibration.
    """
    design = clf_design(scenario, intercept)
    y, invalid = design.draw(rng.random((1, design.data.n_total)))
    return None if invalid[0] else replace(design.data, y=y[0])
