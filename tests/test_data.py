"""Dataset validation, CSV round-trips, working-model checks."""

import csv
import io
import re
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgee import (
    EstimatorId,
    LongitudinalDataset,
    WorkingModel,
    read_csv,
    write_csv,
)
from pgee.data import validate_dataset
from pgee.errors import (
    DatasetError,
    NonBinaryOutcome,
    RaggedCovariates,
    SingletonCluster,
    TooFewClusters,
)
from oracle import literal_read_csv


def _balanced_rows(n_clusters=10, size=7, k=2):
    rows = []
    rng = np.random.default_rng(3)
    for i in range(n_clusters):
        x = float(i % 2)
        for j in range(size):
            rows.append((f"c{i}", float(rng.random() < 0.4), (x, j * 0.1), 0.2 * (j + 1)))
    return rows


def test_balanced_grouping():
    ds = validate_dataset(_balanced_rows())
    assert ds.n_clusters == 10
    assert ds.cluster_sizes == (7,) * 10
    assert ds.p == 4  # intercept + 2 covariates + time
    assert ds.colnames[0] == "intercept"
    assert ds.colnames[-1] == "t"
    assert ds.balanced
    # intercept synthesized, time in last column
    c = ds.clusters[0]
    assert np.all(c.X[:, 0] == 1.0)
    assert np.array_equal(c.X[:, -1], [0.2 * (j + 1) for j in range(7)])


def test_cluster_order_is_first_appearance():
    rows = [
        ("b", 0.0, (1.0,), None),
        ("a", 1.0, (0.0,), None),
        ("b", 1.0, (1.0,), None),
        ("a", 0.0, (0.0,), None),
        ("c", 0.0, (1.0,), None),
        ("c", 1.0, (1.0,), None),
    ]
    ds = validate_dataset(rows)
    assert [c.id for c in ds.clusters] == ["b", "a", "c"]
    assert np.array_equal(ds.clusters[0].y, [0.0, 1.0])


def test_singleton_cluster_rejected():
    rows = _balanced_rows()
    rows.append(("lonely", 1.0, (0.0, 0.0), 0.2))
    with pytest.raises(SingletonCluster):
        validate_dataset(rows)


def test_non_binary_outcome_rejected():
    rows = _balanced_rows()
    rows[3] = (rows[3][0], 2.0, rows[3][2], rows[3][3])
    with pytest.raises(NonBinaryOutcome):
        validate_dataset(rows)


def test_ragged_covariates_rejected():
    rows = _balanced_rows()
    rows[5] = (rows[5][0], rows[5][1], (1.0,), rows[5][3])
    with pytest.raises(RaggedCovariates):
        validate_dataset(rows)


def test_too_few_clusters_rejected():
    rows = [
        ("a", 0.0, (1.0, 0.5), None),
        ("a", 1.0, (1.0, 0.2), None),
        ("b", 0.0, (0.0, 0.1), None),
        ("b", 1.0, (0.0, 0.7), None),
    ]
    # p = 3 (intercept + 2) needs at least 4 clusters
    with pytest.raises(TooFewClusters):
        validate_dataset(rows)


def test_non_finite_covariate_rejected():
    rows = _balanced_rows()
    rows[0] = (rows[0][0], rows[0][1], (float("nan"), 0.0), rows[0][3])
    with pytest.raises(DatasetError):
        validate_dataset(rows)


def test_first_faulty_cluster_is_reported():
    # cluster "a" has a non-finite covariate, the later "b" a single row: the
    # earlier cluster's fault wins although singletons are checked first
    rows = _balanced_rows()
    rows.insert(0, ("a", 1.0, (float("inf"), 0.0), 0.2))
    rows.insert(1, ("a", 0.0, (0.0, 0.0), 0.4))
    rows.append(("b", 1.0, (0.0, 0.0), 0.2))
    with pytest.raises(DatasetError) as info:
        validate_dataset(rows)
    assert type(info.value) is DatasetError
    assert "cluster a:" in str(info.value)


def test_flat_record_checks():
    ok = dict(ids=("a", "b", "c"), sizes=[2, 2, 2], y=[0, 1] * 3,
              X=np.ones((6, 2)), colnames=("intercept", "x1"))
    ds = LongitudinalDataset(**ok)
    assert ds.cluster_sizes == (2, 2, 2) and list(ds.offsets) == [0, 2, 4, 6]
    assert np.array_equal(ds.clusters[1].y, [0.0, 1.0])
    with pytest.raises(DatasetError, match="shapes do not match"):
        LongitudinalDataset(**{**ok, "sizes": [2, 2, 3]})
    with pytest.raises(DatasetError, match="not unique"):
        LongitudinalDataset(**{**ok, "ids": ("a", "b", "a")})
    with pytest.raises(RaggedCovariates):
        LongitudinalDataset(**{**ok, "colnames": ("intercept",)})
    with pytest.raises(DatasetError, match="duplicate column name 'x1'"):
        LongitudinalDataset(**{**ok, "X": np.ones((6, 3)),
                               "colnames": ("intercept", "x1", "x1")})


def test_non_numeric_field_names_its_line(tmp_path):
    lines = ["cluster,y,x1,t"]
    lines += [f"c{i},{i % 2},0.5,{0.2 * j}" for i in range(10) for j in range(1, 5)]
    lines.insert(3, "")  # blank lines are skipped but still counted
    lines[37] = "c8,1,abc,0.4"
    lines.append("c9,1,0.5")  # a later ragged line does not take precedence
    path = tmp_path / "late.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:38: non-numeric value$"):
        read_csv(path)


def test_csv_round_trip_identity(tmp_path):
    ds = validate_dataset(_balanced_rows())
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    back = read_csv(path)
    assert [c.id for c in back.clusters] == [str(c.id) for c in ds.clusters]
    for a, b in zip(ds.clusters, back.clusters):
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.X, b.X)  # exact: 17 significant digits round-trip


def test_read_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,outcome,x1\n1,0,0.5\n")
    with pytest.raises(DatasetError):
        read_csv(path)


def test_arrays_are_immutable():
    ds = validate_dataset(_balanced_rows())
    with pytest.raises(ValueError):
        ds.clusters[0].y[0] = 1.0
    with pytest.raises(ValueError):
        ds.clusters[0].X[0, 0] = 2.0


def test_working_model_validation():
    wm = WorkingModel(structure="exch", alpha=0.3)
    assert wm.structure == "exchangeable"
    assert not wm.estimates_alpha
    assert WorkingModel(structure="ind").alpha == 0.0
    with pytest.raises(ValueError):
        WorkingModel(structure="independence", alpha=0.2)
    with pytest.raises(ValueError):
        WorkingModel(structure="ar1", alpha=1.5)
    with pytest.raises(ValueError):
        WorkingModel(structure="exchangeable", alpha="adaptive")
    with pytest.raises(ValueError):
        WorkingModel(dispersion=-1.0)
    with pytest.raises(ValueError):
        WorkingModel(structure="toeplitz")
    # per-dataset admissibility
    wm = WorkingModel(structure="exchangeable", alpha=-0.4)
    with pytest.raises(ValueError):
        wm.check_alpha(-0.4, n_max=5)
    wm.check_alpha(-0.4, n_max=3)


def test_estimator_id_closed_enumeration():
    assert len(EstimatorId) == 14
    assert EstimatorId.parse("kc") is EstimatorId.KC
    with pytest.raises(ValueError):
        EstimatorId.parse("XX")


def _read_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")
        return read_csv(path)


_FIELDS = st.one_of(
    st.sampled_from(["0", "1", "", " ", "nan", "inf", "-inf", "1e400", "abc", "2", "0.5"]),
    st.floats().map(repr),
    st.text(alphabet=string.printable, max_size=4),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    header=st.sampled_from(["cluster,y,x1", "cluster,y,x1,t", "cluster,y,t", "cluster,y,a,b",
                            "cluster,y,a,a", "cluster,y,intercept"]),
    rows=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]), st.lists(_FIELDS, max_size=5)),
        max_size=25,
    ),
)
def test_read_csv_fuzz_raises_only_dataset_errors(header, rows):
    text = header + "\n" + "".join(
        ",".join([cid, *fields]) + "\n" for cid, fields in rows
    )
    try:
        ds = _read_text(text)
    except DatasetError:
        return
    assert ds.n_clusters == len(ds.ids) >= ds.p + 1
    assert len(set(ds.colnames)) == ds.p


@st.composite
def _valid_csv(draw):
    k = draw(st.integers(0, 2))
    has_time = draw(st.booleans()) or k == 0
    width = 1 + k + has_time
    n_clusters = draw(st.integers(width + 1, 7))
    ids = draw(
        st.lists(
            st.text(alphabet=string.ascii_letters + string.digits + " ,\"'", max_size=3),
            min_size=n_clusters, max_size=n_clusters, unique=True,
        )
    )
    rows = []
    for cid in ids:
        for _ in range(draw(st.integers(2, 4))):
            values = draw(
                st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=width - 1, max_size=width - 1)
            )
            rows.append([cid, draw(st.sampled_from(["0", "1", "1.0", "0e3"])),
                         *map(repr, values)])
    rows = draw(st.permutations(rows))
    header = ["cluster", "y", *(f"x{i + 1}" for i in range(k))] + (["t"] if has_time else [])
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    return text.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=_valid_csv())
def test_write_csv_read_csv_round_trip_fuzz(text):
    first = _read_text(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv(first, path)
        again = read_csv(path)
    assert again.ids == first.ids
    assert np.array_equal(again.sizes, first.sizes)
    assert np.array_equal(again.y, first.y)
    assert np.array_equal(again.X, first.X)
    assert again.colnames == first.colnames and again.has_time == first.has_time


#: Cluster ids that need quoting: a comma, a quote, embedded newlines.
_QUOTED_IDS = ["a", "b,c", 'd"e', "f\ng", "h\r\ni", " j ", "k,\"l\"\nm"]
#: Spellings that Python's float reads, some of which numpy's parser rejects.
_SPELLINGS = ["0", "1", "0.5", "-2", "1_0", " 1 ", "+3", ".5", "1e-400", "-0.0"]
_NON_FINITE = ["nan", "inf", "-inf", "1e400"]
_BLANKS = ["\n", "   \n", "\t\n", '""\n']


def _csv_line(record: list) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(record)
    return out.getvalue()


@st.composite
def _messy_csv(draw):
    """A canonical CSV with quoted ids, blank lines, odd float spellings and
    perhaps faulty records: ragged ones and ones with a non-numeric field."""
    k = draw(st.integers(0, 2))
    has_time = draw(st.booleans()) or k == 0
    header = ["cluster", "y", *(f"x{i + 1}" for i in range(k))] + (["t"] if has_time else [])
    records = []
    ids = st.lists(st.sampled_from(_QUOTED_IDS), min_size=len(header), unique=True)
    for cid in draw(st.one_of(st.just([]), ids)):
        for _ in range(draw(st.integers(2, 3))):
            records.append([cid, draw(st.sampled_from(["0", "1", " 1 ", "0e3"])),
                            *draw(st.lists(st.sampled_from(_SPELLINGS),
                                           min_size=len(header) - 2, max_size=len(header) - 2))])
    records = draw(st.permutations(records))
    if records and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(records))
        row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(_NON_FINITE))
    faults, valid = st.sampled_from(["short", "long", "text", "empty"]), list(records)
    for fault in draw(st.one_of(st.just([]), st.lists(faults, min_size=1, max_size=2))):
        row = list(draw(st.sampled_from(valid))) if valid else ["a", "0", *["1"] * k]
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append("0")
        else:
            row[draw(st.integers(1, len(row) - 1))] = "abc" if fault == "text" else ""
        records.insert(draw(st.integers(0, len(records))), row)
    lines = [_csv_line(r) for r in records]
    for blank in draw(st.lists(st.sampled_from(_BLANKS), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), blank)
    return _csv_line(header) + "".join(lines)


def _read_outcome(reader, path):
    """The dataset's arrays as bytes, or the DatasetError's type and message."""
    try:
        ds = reader(path)
    except DatasetError as exc:
        return type(exc), str(exc)
    return (ds.ids, ds.sizes.dtype, ds.sizes.tobytes(), ds.y.tobytes(), ds.X.shape,
            ds.X.tobytes(), ds.colnames, ds.has_time)


_HEAD = "cluster,y,x1,t\n"
_OK = "".join(f"{c},{i % 2},{int(c == 'b')},{0.2 * i}\n" for c in "abcd" for i in range(3))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=_messy_csv())
@example(text=_HEAD)  # only a header line
@example(text=_HEAD + "\n  \n")  # only a header and blank lines
@example(text=_HEAD.replace(",t", "") + '"b,c",0,1_0\n" 1 ",1, 1 \n"b,c",1,nan\n" 1 ",0,1e400\n')
@example(text=_HEAD + '"q""x\ny",1,0,0\n"q""x\ny",0,1_0,0.2\nz,1,1,0\nz,0,0,0.4\n'
         + "w,1,1,0\nw,1,0,0.2\nv,0,1,0\nv,1,0,0.2\n")
@example(text=_HEAD + _OK + "a,1,0\n\n" + _OK.replace("0.2", "x", 1))  # ragged first
@example(text=_HEAD + _OK + "a,1,x,0\n\n" + _OK + "a,1,0\n")  # non-numeric first
@example(text=_HEAD + _OK)  # a valid file
@example(text=_HEAD + re.sub(",[^,]*\n", "\n", _OK))  # every row one field short
@example(text=_HEAD + _OK.replace("\n", ",0\n"))  # every row one field long
def test_read_csv_matches_literal_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _read_outcome(read_csv, path) == _read_outcome(literal_read_csv, path)
