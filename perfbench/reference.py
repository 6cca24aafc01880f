"""Dense NumPy reference for the benchmark's correctness checks.

Everything here is computed from textbook definitions, independently of
the algorithms in ``pgee``: the working covariance V_i is inverted
directly, the hat matrix is ``H = D info^{-1} D' V^{-1}`` (the full
block-diagonal ``N*n`` matrix when it is small, its diagonal blocks
otherwise), and ``(I - H_ii)^{-c}`` comes from an eigendecomposition of
the (non-symmetric) block.  Each ``check_*`` function returns a list of
failure messages; an empty list means the output passed.

Only numpy, scipy.linalg.block_diag, scipy.special.expit and
scipy.stats.t are used.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.linalg import block_diag
from scipy.special import expit
from scipy.stats import t as student_t

#: Relative tolerance for estimator standard errors, hat blocks and rho_s.
REL_TOL = 1e-8

#: Largest allowed Newton step from the dense penalized score (max-norm).
ROOT_TOL = 1e-5

#: Relative tolerance for Wald p-values and confidence limits.
WALD_TOL = 1e-10

#: Above this many observations the full N*n hat matrix is not formed
#: (the 5000-row CSV would need a 200 MB matrix); its diagonal blocks are
#: computed one cluster at a time instead.
FULL_HAT_MAX_ROWS = 600

POOLING_TAGS = ("PAN", "GST", "WL", "WB", "RS")

#: Reference estimators that need (I - H_ii)^{-1}; the program may report
#: them as not computable when some hat block has an eigenvalue this close
#: to 1.
LEVERAGE_TAGS = ("KC", "MD", "FW")
SINGULAR_TOL = 1e-6


def correlation(structure: str, alpha: float, n: int) -> np.ndarray:
    idx = np.arange(n)
    lag = np.abs(idx[:, None] - idx[None, :])
    if structure == "independence":
        return np.eye(n)
    if structure == "exchangeable":
        return np.where(lag == 0, 1.0, alpha)
    if structure == "ar1":
        return np.power(alpha, lag)
    raise ValueError(f"unknown structure {structure!r}")


class DenseFit:
    """All reference quantities of one fit at (beta, alpha, phi)."""

    def __init__(self, Xs, ys, beta, structure, alpha, phi):
        self.Xs = [np.asarray(X, dtype=float) for X in Xs]
        self.ys = [np.asarray(y, dtype=float) for y in ys]
        self.beta = np.asarray(beta, dtype=float)
        self.structure, self.alpha, self.phi = structure, float(alpha), float(phi)
        self.N, self.p = len(self.Xs), self.beta.shape[0]
        self.sizes = [X.shape[0] for X in self.Xs]
        self.mu = [expit(X @ self.beta) for X in self.Xs]
        self.w = [m * (1.0 - m) for m in self.mu]
        self.D = [w[:, None] * X for w, X in zip(self.w, self.Xs)]
        self.r = [y - m for y, m in zip(self.ys, self.mu)]
        self.V = [
            self.phi * np.sqrt(w)[:, None] * correlation(structure, alpha, len(w))
            * np.sqrt(w)[None, :]
            for w in self.w
        ]
        self.Vinv = [np.linalg.inv(V) for V in self.V]
        self.A = [D.T @ Vi @ D for D, Vi in zip(self.D, self.Vinv)]
        self.info = sum(self.A)
        self.info_inv = np.linalg.inv(self.info)
        self.U = [D.T @ Vi @ r for D, Vi, r in zip(self.D, self.Vinv, self.r)]
        self.H = self._hat_blocks()

    def _hat_blocks(self) -> list:
        if sum(self.sizes) <= FULL_HAT_MAX_ROWS:
            D = np.vstack(self.D)
            H = D @ self.info_inv @ D.T @ block_diag(*self.Vinv)
            edges = np.cumsum([0] + self.sizes)
            return [H[a:b, a:b] for a, b in zip(edges[:-1], edges[1:])]
        return [D @ self.info_inv @ D.T @ Vi for D, Vi in zip(self.D, self.Vinv)]

    def leverage_power(self, i: int, c: float) -> np.ndarray:
        """(I - H_ii)^{-c} by eigendecomposition."""
        lam, P = np.linalg.eig(np.eye(self.sizes[i]) - self.H[i])
        return np.real(P @ np.diag(lam.astype(complex) ** (-c)) @ np.linalg.inv(P))

    def max_leverage(self) -> float:
        return max(float(np.max(np.real(np.linalg.eigvals(h)))) for h in self.H)

    def _sandwich_var(self, middle: np.ndarray) -> np.ndarray:
        return np.diag(self.info_inv @ middle @ self.info_inv)

    def _corrected_middle(self, c: float) -> np.ndarray:
        scores = [
            D.T @ Vi @ self.leverage_power(i, c) @ r
            for i, (D, Vi, r) in enumerate(zip(self.D, self.Vinv, self.r))
        ]
        return sum(np.outer(f, f) for f in scores)

    def variances(self) -> dict:
        """Reference variances (covariance diagonals) for LZ, DF, KC, MD, FW
        and, on balanced data, PAN."""
        lz = sum(np.outer(u, u) for u in self.U)
        kc, md = self._corrected_middle(0.5), self._corrected_middle(1.0)
        out = {
            "LZ": self._sandwich_var(lz),
            "DF": self._sandwich_var(lz * self.N / (self.N - self.p)),
            "KC": self._sandwich_var(kc),
            "MD": self._sandwich_var(md),
        }
        cov_kc = self.info_inv @ kc @ self.info_inv
        cov_md = self.info_inv @ md @ self.info_inv
        out["FW"] = np.diag(0.5 * (cov_kc + cov_md))
        if len(set(self.sizes)) == 1:
            e = [r / np.sqrt(w) for r, w in zip(self.r, self.w)]
            ru = sum(np.outer(v, v) for v in e) / self.N
            pan = sum(
                D.T @ Vi @ np.diag(np.sqrt(w)) @ ru @ np.diag(np.sqrt(w)) @ Vi @ D
                for D, Vi, w in zip(self.D, self.Vinv, self.w)
            )
            out["PAN"] = self._sandwich_var(pan)
        return out

    def info_at(self, beta: np.ndarray) -> np.ndarray:
        """Summed information at another beta, alpha and phi held fixed."""
        total = np.zeros((self.p, self.p))
        for X in self.Xs:
            mu = expit(X @ beta)
            w = mu * (1.0 - mu)
            D = w[:, None] * X
            V = self.phi * np.sqrt(w)[:, None] * correlation(
                self.structure, self.alpha, len(w)
            ) * np.sqrt(w)[None, :]
            total += D.T @ np.linalg.solve(V, D)
        return total

    def newton_step(self, rel_step: float = 1e-5) -> np.ndarray:
        """info^{-1} (U + b) with the penalty b by central differences."""
        b = np.zeros(self.p)
        for r in range(self.p):
            h = rel_step * max(1.0, abs(self.beta[r]))
            e = np.zeros(self.p)
            e[r] = h
            dinfo = (self.info_at(self.beta + e) - self.info_at(self.beta - e)) / (2 * h)
            b[r] = 0.5 * np.sum(self.info_inv * dinfo)
        return self.info_inv @ (sum(self.U) + b)

    def overcorrection_ratios(self) -> np.ndarray:
        """diag(sum_i A_i (I0 - A_i)^{-1} A_i) / diag(I0)."""
        blev = sum(A @ np.linalg.inv(self.info - A) @ A for A in self.A)
        return np.diag(blev) / np.diag(self.info)


def relerr(got, want) -> float:
    """Largest absolute difference relative to the largest reference entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


def check_fit(ref: DenseFit, ses: dict, incomputable: dict, penalized=True,
              converged=True, hat_blocks=None) -> list:
    """Compare one fit's estimator output with the dense reference.

    ``ses`` maps tag -> {coefficient index: SE} for the computable
    estimators, ``incomputable`` maps tag -> reason for the others, and
    ``hat_blocks`` (optional) holds the program's H_ii blocks.
    """
    errors = []
    if hat_blocks is not None:
        worst = max(relerr(h, hr) for h, hr in zip(hat_blocks, ref.H))
        if worst > REL_TOL:
            errors.append(f"hat blocks differ from dense H by {worst:.3g}")
        trace = sum(float(np.trace(h)) for h in hat_blocks)
        if abs(trace - ref.p) > REL_TOL * ref.p:
            errors.append(f"sum of tr(H_ii) = {trace!r}, expected p = {ref.p}")
    singular = ref.max_leverage() >= 1.0 - SINGULAR_TOL
    for tag, want in ref.variances().items():
        got = ses.get(tag)
        if got is None:
            if not (singular and tag in LEVERAGE_TAGS
                    and incomputable.get(tag) == "SingularLeverage"):
                errors.append(f"{tag}: not computable ({incomputable.get(tag)}) "
                              "but the reference computes it")
            continue
        # Variances, relative to the largest: a direction the data do not
        # inform has a variance at roundoff level whose square root does
        # not repeat to 1e-8.
        idx = sorted(got)
        err = relerr([got[k] ** 2 for k in idx], want[idx])
        if err > REL_TOL:
            errors.append(f"{tag} SE{idx} = {[got[k] for k in idx]!r} vs dense "
                          f"{np.sqrt(np.clip(want[idx], 0, None)).tolist()!r} "
                          f"(variances rel {err:.3g})")
    if len(set(ref.sizes)) > 1:
        for tag in POOLING_TAGS:
            if tag in ses or incomputable.get(tag) != "UnbalancedPooling":
                errors.append(f"{tag}: computable on unbalanced data")
    if penalized and converged:
        step = float(np.max(np.abs(ref.newton_step())))
        if step > ROOT_TOL:
            errors.append(f"beta is not a root: Newton step {step:.3g} > {ROOT_TOL}")
    return errors


def check_wald(estimate, se, dof, p_value, ci=None) -> list:
    """Recompute a two-sided t(dof) test of beta = 0 and its 95% CI with
    scipy.stats.t."""
    tstat = estimate / se
    want_p = 2.0 * float(student_t.sf(abs(tstat), dof))
    errors = []
    if relerr(p_value, want_p) > WALD_TOL:
        errors.append(f"Wald p = {p_value!r}, scipy.stats.t gives {want_p!r}")
    if ci is not None:
        crit = float(student_t.ppf(0.975, dof))
        want = (estimate - crit * se, estimate + crit * se)
        if relerr(ci, want) > WALD_TOL:
            errors.append(f"CI {list(ci)!r}, scipy.stats.t gives {list(want)!r}")
    return errors


def check_rho(ref: DenseFit, rho) -> list:
    want = ref.overcorrection_ratios()
    err = relerr(rho, want)
    if err > REL_TOL:
        return [f"rho_s {list(rho)!r} vs dense {list(want)!r} (rel {err:.3g})"]
    return []


def read_long_csv(path) -> tuple:
    """Parse ``cluster,y,x1..xk[,t]`` into per-cluster (X, y), intercept first."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    groups = {}
    for r in rows[1:]:
        if r:
            groups.setdefault(r[0], []).append([float(v) for v in r[1:]])
    Xs, ys = [], []
    for block in map(np.array, groups.values()):
        ys.append(block[:, 0])
        Xs.append(np.hstack([np.ones((block.shape[0], 1)), block[:, 1:]]))
    return ["intercept"] + rows[0][2:], Xs, ys


def check_results_csv(text: str, scenarios: dict, estimators: list) -> list:
    """Grid output: one row per scenario x estimator x tested coefficient,
    rates in [0, 1], pooling estimators never computable when unbalanced.

    ``scenarios`` maps scenario id -> (balanced, tested coefficients).
    """
    rows = list(csv.DictReader(text.splitlines()))
    errors = []
    want = {(s, e, c) for s, (_, coefs) in scenarios.items()
            for e in estimators for c in coefs}
    got = [(r["scenario"], r["estimator"], r["coefficient"]) for r in rows]
    if len(got) != len(set(got)) or set(got) != want:
        errors.append(f"results.csv has {len(got)} rows, expected {len(want)} "
                      "(one per scenario x estimator x coefficient)")
    for r in rows:
        for key in ("rejection_rate", "convergence_rate"):
            if r[key] != "" and not 0.0 <= float(r[key]) <= 1.0:
                errors.append(f"{r['scenario']} {r['estimator']}: {key} {r[key]}")
        balanced = scenarios.get(r["scenario"], (True,))[0]
        if not balanced and r["estimator"] in POOLING_TAGS and r["n_computable"] != "0":
            errors.append(f"{r['scenario']} {r['estimator']}: pooling estimator "
                          f"computable in {r['n_computable']} unbalanced replications")
    return errors

