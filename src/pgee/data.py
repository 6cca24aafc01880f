"""Domain types and dataset validation for clustered binary outcomes.

A dataset is an ordered collection of independent clusters (subjects),
stored as one flat record: the cluster ids and sizes in cluster order, a
response vector ``y`` and a covariate matrix ``X`` holding every row, the
rows of each cluster contiguous.  The first column of ``X`` is an all-ones
intercept.  The canonical file format is a long-format CSV with header
``cluster,y,x1..xk[,t]``: the intercept column is synthesized on read, and
a trailing ``t`` column is the within-cluster time covariate (it enters
``X`` as the last column).  The kernel reads the dataset through
``size_groups``, the row indices of all clusters of one size stacked,
in its row order ``kernel_rows``: by cluster size and, within a size,
position-major (position j of every cluster of the size, then j + 1).

All types are immutable after construction; arrays are marked read-only so
instances can be shared freely across threads and processes.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
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


def _readonly(a, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


class Cluster(NamedTuple):
    """Read-only view of one cluster's rows of a dataset."""

    id: Hashable
    y: np.ndarray  # (n_i,)
    X: np.ndarray  # (n_i, p)


class SizeGroup(NamedTuple):
    """The clusters of one size n, stacked in cluster order."""

    idx: np.ndarray  # (N_s,) positions of the clusters in the dataset
    rows: np.ndarray  # (N_s, n) their row indices into y and X
    span: slice  # their rows in kernel order: kernel_rows[span] is rows.T.ravel()

    def view(self, a: np.ndarray) -> np.ndarray:
        """This group's rows of an (R, n_total, ...) array in kernel order,
        as an (R, n, N_s, ...) view: position j of its cluster k at [:, j, k]."""
        n_s, n = self.rows.shape
        return a[:, self.span].reshape(a.shape[0], n, n_s, *a.shape[2:])


@dataclass(frozen=True, eq=False)
class LongitudinalDataset:
    """Clusters stored as flat arrays, in cluster order.

    Cluster ``i`` is ``ids[i]`` and owns rows ``offsets[i]:offsets[i + 1]``
    of ``y`` (n_total,) and ``X`` (n_total, p); ``sizes[i]`` is its number
    of rows.  When ``has_time`` is set the last column of X is the
    within-cluster time covariate.  Construction validates the record:
    every cluster has at least two rows, binary y and finite X; ids and
    column names are unique and there are at least p + 1 clusters.
    """

    ids: tuple
    sizes: np.ndarray
    y: np.ndarray
    X: np.ndarray
    colnames: tuple
    has_time: bool = False

    def __post_init__(self):
        ids = tuple(self.ids)
        sizes = _readonly(self.sizes, np.intp)
        y = _readonly(self.y, float)
        X = _readonly(self.X, float)
        colnames = tuple(str(c) for c in self.colnames)
        for name, value in (
            ("ids", ids), ("sizes", sizes), ("y", y), ("X", X),
            ("colnames", colnames), ("has_time", bool(self.has_time)),
        ):
            object.__setattr__(self, name, value)
        if not ids:
            raise DatasetError("dataset has no clusters")
        if (
            sizes.shape != (len(ids),)
            or np.any(sizes < 0)
            or y.shape != (sizes.sum(),)
            or X.ndim != 2
            or X.shape[0] != y.shape[0]
        ):
            raise DatasetError("ids, sizes, y and X shapes do not match")
        self._check_clusters()
        p = len(colnames)
        if X.shape[1] != p:
            raise RaggedCovariates(f"X has {X.shape[1]} covariate columns, expected {p}")
        repeated = [c for i, c in enumerate(colnames) if c in colnames[:i]]
        if repeated:
            raise DatasetError(f"duplicate column name {repeated[0]!r}")
        if len(set(ids)) != len(ids):
            raise DatasetError("cluster ids are not unique")
        if len(ids) < p + 1:
            raise TooFewClusters(
                f"need at least p + 1 = {p + 1} clusters for N - p dof, got {len(ids)}"
            )

    def _check_clusters(self) -> None:
        """Raise the fault of the first faulty cluster in cluster order;
        within a cluster a single row is reported before a non-binary y,
        and a non-binary y before a non-finite X."""
        binary = (self.y == 0.0) | (self.y == 1.0)
        bad_rows = np.flatnonzero(~binary | ~np.all(np.isfinite(self.X), axis=1))
        faulty = list(np.flatnonzero(self.sizes < 2)[:1])
        if bad_rows.size:
            faulty.append(np.searchsorted(self.offsets, bad_rows[0], side="right") - 1)
        if not faulty:
            return
        i = min(faulty)
        cid = self.ids[i]
        if self.sizes[i] < 2:
            raise SingletonCluster(
                f"cluster {cid} has a single observation; n_i >= 2 required"
            )
        if not np.all(binary[self.offsets[i] : self.offsets[i + 1]]):
            raise NonBinaryOutcome(f"cluster {cid}: y values must be 0 or 1")
        raise DatasetError(f"cluster {cid}: non-finite covariate entry")

    @property
    def p(self) -> int:
        return len(self.colnames)

    @property
    def n_clusters(self) -> int:
        return len(self.ids)

    @property
    def n_total(self) -> int:
        return self.y.shape[0]

    @cached_property
    def offsets(self) -> np.ndarray:
        """(N + 1,) row offsets: cluster i is rows offsets[i]:offsets[i + 1]."""
        return _readonly(np.concatenate(([0], np.cumsum(self.sizes))), np.intp)

    @cached_property
    def cluster_sizes(self) -> tuple:
        return tuple(self.sizes.tolist())

    @cached_property
    def clusters(self) -> tuple:
        """One read-only :class:`Cluster` view per cluster, built on first use."""
        o = self.offsets
        return tuple(
            Cluster(cid, self.y[a:b], self.X[a:b])
            for cid, a, b in zip(self.ids, o[:-1], o[1:])
        )

    @cached_property
    def size_groups(self) -> tuple:
        """One read-only :class:`SizeGroup` per distinct cluster size, in
        increasing size, built on first use."""
        groups = []
        for n in np.unique(self.sizes):
            idx = np.flatnonzero(self.sizes == n)
            rows = self.offsets[idx, None] + np.arange(n)
            idx.setflags(write=False)
            rows.setflags(write=False)
            start = int(self.sizes[self.sizes < n].sum())
            groups.append(SizeGroup(idx, rows, slice(start, start + rows.size)))
        return tuple(groups)

    @cached_property
    def kernel_rows(self) -> np.ndarray:
        """(n_total,) row indices in kernel order: by cluster size, then
        position-major within a size (see ``SizeGroup.span``)."""
        return _readonly(np.concatenate([g.rows.T.ravel() for g in self.size_groups]), np.intp)

    @cached_property
    def kernel_X(self) -> np.ndarray:
        """(n_total, p) X in kernel order."""
        return _readonly(self.X[self.kernel_rows], float)

    @cached_property
    def balanced(self) -> bool:
        return len(set(self.cluster_sizes)) == 1

    @cached_property
    def n_max(self) -> int:
        """The largest cluster size."""
        return int(self.sizes.max())


def alpha_bounds(structure: str, n_max: int) -> tuple:
    """The open interval of alpha on which the exchangeable or AR(1)
    R(alpha) of size n_max is positive definite."""
    return (-1.0 / (n_max - 1) if structure == "exchangeable" else -1.0), 1.0


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
            self.check_alpha(alpha, 2)  # no cluster size yet: the widest interval
        if structure == "independence":
            object.__setattr__(self, "alpha", 0.0)
        disp = self.dispersion
        if isinstance(disp, str):
            if disp != "pearson-plugin":
                raise ValueError(
                    f"dispersion must be a number or 'pearson-plugin', got {disp!r}"
                )
        else:
            disp = float(disp)
            if not 0.0 < disp < np.inf:
                raise ValueError(
                    f"dispersion phi must be positive and finite, got {disp}"
                )
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
            return
        lo, hi = alpha_bounds(self.structure, n_max)
        if not lo < alpha < hi:
            raise ValueError(
                f"{self.structure} alpha {alpha} outside admissible ({lo:.6g}, {hi:.6g})"
            )


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


def estimator_columns(estimators=None) -> list:
    """The requested estimators (default all), each once, in order."""
    return list(dict.fromkeys(EstimatorId if estimators is None else estimators))


#: Estimators that pool residual outer products across clusters and therefore
#: require equal cluster sizes.
POOLING_IDS = frozenset(
    {EstimatorId.PAN, EstimatorId.GST, EstimatorId.WL, EstimatorId.WB, EstimatorId.RS}
)

#: Estimators that read the leverage gaps of (I - H), and therefore are not
#: computable in a replication where some (I - H) is numerically singular.
LEVERAGE_IDS = frozenset(EstimatorId[e] for e in ("KC", "MD", "WL", "WB", "FW", "FZ", "AR"))


def _grouped(cids: list, table: np.ndarray, xnames, has_time: bool):
    """Dataset from long-format columns.

    ``cids`` holds one cluster id per row; column 0 of ``table`` is y and
    the others are the covariates without intercept, time last when
    ``has_time``.  Clusters appear in first-appearance order and rows keep
    their input order within a cluster; the intercept column is synthesized.
    """
    if not cids:
        raise DatasetError("no input rows")
    rank = dict(zip(dict.fromkeys(cids), count()))
    codes = np.fromiter(map(rank.__getitem__, cids), np.intp, len(cids))
    table = table[np.argsort(codes, kind="stable")]
    names = ("intercept", *xnames, *(("t",) if has_time else ()))
    return LongitudinalDataset(
        ids=tuple(rank),
        sizes=np.bincount(codes),
        y=table[:, 0],
        X=np.hstack([np.ones((table.shape[0], 1)), table[:, 1:]]),
        colnames=names,
        has_time=has_time,
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
    rows = list(rows)
    k = len(rows[0][2]) if rows else 0
    has_time = bool(rows) and rows[0][3] is not None
    for cid, _, xs, t in rows:
        if len(xs) != k or (t is not None) != has_time:
            raise RaggedCovariates(
                f"row for cluster {cid} has inconsistent covariate count"
            )
    table = np.array(
        [(y, *xs, *((t,) if has_time else ())) for _, y, xs, t in rows], dtype=float
    ).reshape(len(rows), 1 + k + has_time)
    if colnames is None:
        colnames = [f"x{i + 1}" for i in range(k)]
    return _grouped([r[0] for r in rows], table, colnames, has_time)


def _blank(parts: tuple) -> bool:
    return not parts or (len(parts) == 1 and not parts[0].strip())


def _first_fault(path, records, width: int) -> None:
    """Raise the DatasetError of the first faulty record of ``records``, the
    records after the header, walked in file order."""
    lineno = 1
    try:
        for lineno, parts in enumerate(records, start=2):
            if _blank(parts):
                continue
            if len(parts) != width:
                raise DatasetError(f"{path}:{lineno}: wrong number of fields") from None
            try:
                list(map(float, parts[1:]))
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-numeric value") from None
    except csv.Error as exc:  # the record after the last one read
        raise DatasetError(f"{path}:{lineno + 1}: {exc}") from None


def read_csv(path) -> LongitudinalDataset:
    """Read the canonical long-format CSV ``cluster,y,x1..xk[,t]`` a column at a
    time; only a faulty file is walked line by line, to name its first fault."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise DatasetError(f"{path}:1: {exc}") from None
        if header is None:
            raise DatasetError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "cluster" or header[1] != "y":
            raise DatasetError(
                f"{path}: header must be 'cluster,y,x1..xk[,t]', got {header}"
            )
        has_time = header[-1] == "t"
        xnames = header[2 : -1 if has_time else len(header)]
        if not xnames and not has_time:
            raise DatasetError(f"{path}: no covariate columns")
        width = len(header)
        try:
            records = list(map(tuple, reader))  # tuples of str leave the cyclic GC's view
        except csv.Error:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            _first_fault(path, reader, width)
            raise
    rows = records if set(map(len, records)) == {width} else [r for r in records if not _blank(r)]
    try:  # a ragged row fails the strict zip, rows all of a wrong width the reshape
        cids, *columns = zip(*rows, strict=True) if rows else [()] * width
        values = np.fromiter(map(float, chain.from_iterable(columns)), float)
        table = values.reshape(width - 1, len(rows)).T
    except ValueError:
        _first_fault(path, records, width)
        raise
    return _grouped(cids, table, xnames, has_time)


def write_csv(dataset: LongitudinalDataset, path) -> None:
    """Write a dataset back to the canonical CSV (17 significant digits)."""
    xnames = list(dataset.colnames[1 : dataset.p - dataset.has_time])
    header = ["cluster", "y", *xnames] + (["t"] if dataset.has_time else [])
    labels = (
        str(cid) for cid, n in zip(dataset.ids, dataset.cluster_sizes) for _ in range(n)
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for label, y, x in zip(labels, dataset.y.tolist(), dataset.X[:, 1:].tolist()):
            writer.writerow([label, f"{y:g}", *(f"{v:.17g}" for v in x)])
