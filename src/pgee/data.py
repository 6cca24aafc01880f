"""Domain types and dataset validation for clustered binary outcomes.

A dataset is an ordered collection of independent clusters (subjects).
Each cluster carries a binary response vector ``y`` and a covariate matrix
``X`` whose first column is an all-ones intercept.  The canonical file
format is a long-format CSV with header ``cluster,y,x1..xk[,t]``: the
intercept column is synthesized on read, and a trailing ``t`` column is
treated as the within-cluster time covariate (it enters ``X`` as the last
column and is also kept separately on the cluster).

All types are immutable after construction; arrays are marked read-only so
instances can be shared freely across threads and processes.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    DatasetError,
    NonBinaryOutcome,
    RaggedCovariates,
    SingletonCluster,
    TooFewClusters,
)

STRUCTURES = ("independence", "exchangeable", "ar1")

_STRUCTURE_ALIASES = {
    "ind": "independence",
    "independence": "independence",
    "exch": "exchangeable",
    "exchangeable": "exchangeable",
    "ar1": "ar1",
    "ar(1)": "ar1",
}


def normalize_structure(name: str) -> str:
    """Map a structure name or common alias to its canonical form."""
    try:
        return _STRUCTURE_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown working-correlation structure {name!r}; "
            f"expected one of {STRUCTURES}"
        ) from None


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Cluster:
    """One subject: n_i >= 2 repeated binary observations plus covariates."""

    id: Hashable
    y: np.ndarray
    X: np.ndarray
    t: Optional[np.ndarray] = None

    def __post_init__(self):
        y = _readonly(np.atleast_1d(self.y))
        X = _readonly(np.atleast_2d(self.X))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        if y.ndim != 1 or X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise DatasetError(f"cluster {self.id}: y and X shapes do not match")
        if y.shape[0] < 2:
            raise SingletonCluster(
                f"cluster {self.id} has a single observation; n_i >= 2 required"
            )
        if not np.all((y == 0.0) | (y == 1.0)):
            raise NonBinaryOutcome(f"cluster {self.id}: y values must be 0 or 1")
        if not np.all(np.isfinite(X)):
            raise DatasetError(f"cluster {self.id}: non-finite covariate entry")
        if self.t is not None:
            t = _readonly(np.atleast_1d(self.t))
            if t.shape[0] != y.shape[0]:
                raise DatasetError(f"cluster {self.id}: t length does not match y")
            object.__setattr__(self, "t", t)

    @property
    def n(self) -> int:
        return self.y.shape[0]


class SizeGroup(NamedTuple):
    """The clusters of one size n, stacked in cluster order."""

    idx: np.ndarray  # (N_s,) positions of the clusters in the dataset
    X: np.ndarray  # (N_s, n, p)
    y: np.ndarray  # (N_s, n)


@dataclass(frozen=True)
class LongitudinalDataset:
    """Ordered clusters sharing a common covariate dimension p."""

    clusters: tuple
    colnames: tuple

    def __post_init__(self):
        clusters = tuple(self.clusters)
        colnames = tuple(str(c) for c in self.colnames)
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "colnames", colnames)
        if not clusters:
            raise DatasetError("dataset has no clusters")
        p = len(colnames)
        for c in clusters:
            if c.X.shape[1] != p:
                raise RaggedCovariates(
                    f"cluster {c.id} has {c.X.shape[1]} covariate columns, expected {p}"
                )
        ids = [c.id for c in clusters]
        if len(set(ids)) != len(ids):
            raise DatasetError("cluster ids are not unique")
        if len(clusters) < p + 1:
            raise TooFewClusters(
                f"need at least p + 1 = {p + 1} clusters for N - p dof, got {len(clusters)}"
            )

    @property
    def p(self) -> int:
        return len(self.colnames)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @cached_property
    def n_total(self) -> int:
        return sum(c.n for c in self.clusters)

    @cached_property
    def cluster_sizes(self) -> tuple:
        return tuple(c.n for c in self.clusters)

    @cached_property
    def size_groups(self) -> tuple:
        """One read-only :class:`SizeGroup` per distinct cluster size, in
        increasing size, built on first use."""
        sizes = np.array(self.cluster_sizes)
        groups = []
        for n in np.unique(sizes):
            idx = np.flatnonzero(sizes == n)
            arrays = (
                idx,
                np.stack([self.clusters[i].X for i in idx]),
                np.stack([self.clusters[i].y for i in idx]),
            )
            for a in arrays:
                a.setflags(write=False)
            groups.append(SizeGroup(*arrays))
        return tuple(groups)

    @property
    def balanced(self) -> bool:
        sizes = self.cluster_sizes
        return len(set(sizes)) == 1

    @property
    def has_time(self) -> bool:
        return self.clusters[0].t is not None


def exchangeable_alpha_bounds(n_max: int) -> tuple:
    """Open admissibility interval for an exchangeable correlation of size n_max."""
    return (-1.0 / (n_max - 1), 1.0)


@dataclass(frozen=True)
class WorkingModel:
    """Working-correlation structure plus alpha/dispersion estimation modes.

    ``alpha`` is either a fixed float or the string ``"estimate"``;
    ``dispersion`` is either a fixed float (default 1.0) or the string
    ``"pearson-plugin"``.  Independence forces alpha = 0.
    """

    structure: str = "exchangeable"
    alpha: Union[float, str] = "estimate"
    dispersion: Union[float, str] = 1.0

    def __post_init__(self):
        structure = normalize_structure(self.structure)
        object.__setattr__(self, "structure", structure)
        alpha = self.alpha
        if isinstance(alpha, str):
            if alpha != "estimate":
                raise ValueError(f"alpha must be a number or 'estimate', got {alpha!r}")
        else:
            alpha = float(alpha)
            object.__setattr__(self, "alpha", alpha)
        if structure == "independence":
            if isinstance(alpha, float) and alpha != 0.0:
                raise ValueError("independence structure forces alpha = 0")
            object.__setattr__(self, "alpha", 0.0)
        elif isinstance(self.alpha, float):
            if structure == "ar1" and not -1.0 < self.alpha < 1.0:
                raise ValueError(f"ar1 alpha must lie in (-1, 1), got {self.alpha}")
            if structure == "exchangeable" and not -1.0 < self.alpha < 1.0:
                raise ValueError(
                    f"exchangeable alpha must lie in (-1/(n_max-1), 1), got {self.alpha}"
                )
        disp = self.dispersion
        if isinstance(disp, str):
            if disp != "pearson-plugin":
                raise ValueError(
                    f"dispersion must be a number or 'pearson-plugin', got {disp!r}"
                )
        else:
            disp = float(disp)
            if disp <= 0:
                raise ValueError(f"dispersion must be positive, got {disp}")
            object.__setattr__(self, "dispersion", disp)

    @property
    def estimates_alpha(self) -> bool:
        return self.alpha == "estimate" and self.structure != "independence"

    @property
    def estimates_dispersion(self) -> bool:
        return self.dispersion == "pearson-plugin"

    def check_alpha(self, alpha: float, n_max: int) -> None:
        """Raise if a fixed alpha is inadmissible for clusters of size n_max."""
        if self.structure == "independence":
            if alpha != 0.0:
                raise ValueError("independence requires alpha = 0")
        elif self.structure == "exchangeable":
            lo, hi = exchangeable_alpha_bounds(n_max)
            if not lo < alpha < hi:
                raise ValueError(
                    f"exchangeable alpha {alpha} outside admissible ({lo:.6g}, {hi})"
                )
        else:
            if not -1.0 < alpha < 1.0:
                raise ValueError(f"ar1 alpha {alpha} outside admissible (-1, 1)")


class EstimatorId(enum.Enum):
    """Closed enumeration of the fourteen covariance estimators."""

    LZ = "LZ"
    DF = "DF"
    KC = "KC"
    MD = "MD"
    FG = "FG"
    MBN = "MBN"
    PAN = "PAN"
    GST = "GST"
    WL = "WL"
    WB = "WB"
    RS = "RS"
    FW = "FW"
    FZ = "FZ"
    AR = "AR"

    @classmethod
    def parse(cls, tag: str) -> "EstimatorId":
        try:
            return cls[tag.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown estimator tag {tag!r}; expected one of "
                f"{[m.name for m in cls]}"
            ) from None


#: Estimators that pool residual outer products across clusters and therefore
#: require equal cluster sizes.
POOLING_IDS = frozenset(
    {EstimatorId.PAN, EstimatorId.GST, EstimatorId.WL, EstimatorId.WB, EstimatorId.RS}
)


def validate_dataset(
    rows: Iterable[tuple],
    colnames: Optional[Sequence[str]] = None,
) -> LongitudinalDataset:
    """Group long-format records into a validated dataset.

    Each record is ``(cluster_id, y, covariates, t)`` where ``covariates``
    is a sequence of floats (without intercept) and ``t`` is a float or
    None.  Clusters appear in first-appearance order and rows keep their
    input order within a cluster; the intercept column is synthesized.
    """
    groups: dict = {}
    order: list = []
    k = None
    has_time = None
    for rec in rows:
        cid, y, xs, t = rec
        xs = tuple(float(v) for v in xs)
        if k is None:
            k = len(xs)
            has_time = t is not None
        elif len(xs) != k or (t is not None) != has_time:
            raise RaggedCovariates(
                f"row for cluster {cid} has inconsistent covariate count"
            )
        if cid not in groups:
            groups[cid] = []
            order.append(cid)
        groups[cid].append((float(y), xs, None if t is None else float(t)))
    if not order:
        raise DatasetError("no input rows")

    if colnames is None:
        colnames = [f"x{i + 1}" for i in range(k)]
    names = ["intercept", *colnames]
    if has_time:
        names.append("t")

    clusters = []
    for cid in order:
        recs = groups[cid]
        y = np.array([r[0] for r in recs])
        xmat = np.array([r[1] for r in recs], dtype=float).reshape(len(recs), k)
        ones = np.ones((len(recs), 1))
        if has_time:
            t = np.array([r[2] for r in recs], dtype=float)
            X = np.hstack([ones, xmat, t[:, None]])
            clusters.append(Cluster(id=cid, y=y, X=X, t=t))
        else:
            X = np.hstack([ones, xmat])
            clusters.append(Cluster(id=cid, y=y, X=X))
    return LongitudinalDataset(clusters=tuple(clusters), colnames=tuple(names))


def read_csv(path) -> LongitudinalDataset:
    """Read the canonical long-format CSV ``cluster,y,x1..xk[,t]``."""
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
        rows = []
        for lineno, parts in enumerate(reader, start=2):
            if not parts or (len(parts) == 1 and not parts[0].strip()):
                continue
            if len(parts) != len(header):
                raise DatasetError(f"{path}:{lineno}: wrong number of fields")
            try:
                y = float(parts[1])
                if has_time:
                    xs = [float(v) for v in parts[2:-1]]
                    t = float(parts[-1])
                else:
                    xs = [float(v) for v in parts[2:]]
                    t = None
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-numeric value") from None
            rows.append((parts[0], y, xs, t))
    return validate_dataset(rows, colnames=xnames)


def write_csv(dataset: LongitudinalDataset, path) -> None:
    """Write a dataset back to the canonical CSV (17 significant digits)."""
    has_time = dataset.has_time
    xnames = list(dataset.colnames[1:])
    if has_time:
        xnames = xnames[:-1]
    header = ["cluster", "y", *xnames] + (["t"] if has_time else [])
    x_stop = dataset.p - 1 if has_time else dataset.p
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for c in dataset.clusters:
            for j in range(c.n):
                row = [str(c.id), f"{c.y[j]:g}"]
                row.extend(f"{v:.17g}" for v in c.X[j, 1:x_stop])
                if has_time:
                    row.append(f"{c.X[j, -1]:.17g}")
                writer.writerow(row)
