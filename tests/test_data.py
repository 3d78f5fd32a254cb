"""Dataset assembly, CSV ingestion with collected violations, round-trips."""

import numpy as np
import pytest

from kernelnc.data import (
    Dataset,
    Schema,
    format_float,
    from_arrays,
    ingest,
    population_from_csv,
    write_dataset_csv,
    write_table_csv,
)
from kernelnc.errors import IngestError, InputError


def test_from_arrays_roles_and_names():
    rng = np.random.default_rng(97)
    data = from_arrays(
        rng.normal(size=5), rng.normal(size=5), rng.normal(size=(5, 3)),
        rng.normal(size=5), rng.normal(size=(5, 2)),
    )
    assert data.n == 5
    assert data.names("x") == ("x1", "x2", "x3")
    assert data.names("w") == ("w1", "w2")
    assert data.names("d") == ("d",)
    assert data.block("x").shape == (5, 3)
    assert not data.has_role("v")
    np.testing.assert_array_equal(data.y, data.block("y")[:, 0])


def test_from_arrays_categorical_codes():
    data = from_arrays(
        np.zeros(4), np.array([0.0, 1.0, 1.0, 0.0]), np.zeros(4), np.zeros(4),
        np.zeros(4), d_categorical=True,
    )
    col = data.columns[data.role_indices("d")[0]]
    assert col.categorical and col.labels == ("0", "1")
    with pytest.raises(InputError):
        from_arrays(np.zeros(3), np.array([0.0, 0.5, 1.0]), np.zeros(3),
                    np.zeros(3), np.zeros(3), d_categorical=True)


def test_dataset_validation():
    cols = from_arrays(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3),
                       np.zeros(3)).columns
    with pytest.raises(InputError):
        Dataset(cols, np.zeros((3, 2)))
    with pytest.raises(InputError):
        Dataset(cols, np.full((3, 5), np.nan))
    with pytest.raises(InputError):
        from_arrays(np.zeros((3, 2)), np.zeros(3), np.zeros(3), np.zeros(3),
                    np.zeros(3))


def test_subset_and_blocks():
    rng = np.random.default_rng(101)
    data = from_arrays(rng.normal(size=6), rng.normal(size=6),
                       rng.normal(size=(6, 2)), rng.normal(size=6),
                       rng.normal(size=6))
    sub = data.subset(np.array([1, 3, 5]))
    np.testing.assert_array_equal(sub.values, data.values[[1, 3, 5]])
    mask = data.block("d")[:, 0] > 0
    assert data.subset(mask).n == int(mask.sum())
    with pytest.raises(InputError):
        data.subset(np.zeros(6, dtype=bool))


def test_ingest_three_rows(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "outcome,dose,age,exposure,marker\n"
        "1.5,0.2,33,0.9,-0.1\n"
        "-2.25,0.4,41,1.1,0.3\n"
        "0.125,0.6,29,0.7,0.5\n"
    )
    schema = Schema(y="outcome", d="dose", x=("age",), z=("exposure",),
                    w=("marker",))
    data = ingest(path, schema)
    assert data.n == 3
    np.testing.assert_array_equal(data.y, [1.5, -2.25, 0.125])
    np.testing.assert_array_equal(data.block("x")[:, 0], [33.0, 41.0, 29.0])
    assert data.names("w") == ("marker",)


def test_ingest_collects_every_violation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "y,d,x,z,w\n"
        "1.0,0.1,oops,0.5,0.6\n"
        "2.0,,0.3,inf,0.7\n"
        "3.0,0.3,0.4,0.8\n"
    )
    schema = Schema(y="y", d="d", x=("x",), z=("z",), w=("w",))
    with pytest.raises(IngestError) as err:
        ingest(path, schema)
    text = str(err.value)
    assert "non-numeric value 'oops'" in text
    assert "missing value at row 3" in text  # empty d cell
    assert "non-finite value 'inf'" in text
    assert "missing value at row 4" in text  # short row drops w


def test_ingest_header_violations(tmp_path):
    path = tmp_path / "head.csv"
    path.write_text("y,d,x,z\n1,2,3,4\n")
    schema = Schema(y="y", d="d", x=("x",), z=("z",), w=("w",))
    with pytest.raises(IngestError, match="'w' column 'w' not found"):
        ingest(path, schema)
    with pytest.raises(IngestError, match="assigned to both"):
        ingest(path, Schema(y="y", d="y", x=("x",), z=("z",), w=("d",)))


@pytest.mark.parametrize(
    "fields, message",
    [({"categorical": frozenset({"treatment"})},
      r"categorical names columns that no role assigns: \['treatment'\]"),
     ({"categorical": "dd"}, "categorical must be a list of names, got 'dd'"),
     ({"z": "zz"}, "z must be a list of names, got 'zz'"),
     ({"v": None}, "v must be a list of names, got None"),
     ({"x": ()}, "x must name at least one column"),
     ({"d": ""}, "d must be a column name, got ''")],
)
def test_schema_refuses_what_it_cannot_assign(fields, message):
    # a categorical name that no role assigns would leave its column on a
    # Gaussian kernel, and a string would be read as one name per character
    roles = {"y": "yy", "d": "dd", "x": ("x1",), "z": ("zz",), "w": ("ww",)}
    with pytest.raises(InputError, match=message) as err:
        Schema(**{**roles, **fields})
    assert err.value.field == next(iter(fields))
    schema = Schema(**{**roles, "x": ["x1"]}, categorical=["dd"])
    assert schema.x == ("x1",) and schema.categorical == frozenset({"dd"})


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(103)
    n = 10_000
    data = from_arrays(
        rng.normal(size=n) * 1e3, rng.integers(0, 3, size=n).astype(float),
        rng.normal(size=(n, 2)) / 7.0, rng.exponential(size=n),
        rng.normal(size=n), d_categorical=True,
    )
    path = tmp_path / "round.csv"
    write_dataset_csv(data, path)
    schema = Schema(y="y", d="d", x=("x1", "x2"), z=("z",), w=("w",),
                    categorical=frozenset(["d"]))
    back = ingest(path, schema)
    assert np.array_equal(back.values, data.values)
    assert back.names("x") == data.names("x")


def test_format_float_shortest_round_trip():
    assert format_float(0.1) == "0.1"
    assert format_float(1.0 / 3.0) == "0.3333333333333333"
    assert float(format_float(np.pi)) == np.pi


def test_write_table_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_table_csv(path, ["a", "b"], [[1.0 / 3.0, "x"], [0.25, "y"]])
    lines = path.read_text().splitlines()
    assert lines == ["a,b", "0.3333333333333333,x", "0.25,y"]


def test_population_from_csv(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("x1,x2,w\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
    pop = population_from_csv(path, {"x": ("x1", "x2"), "w": ("w",)})
    assert set(pop) == {"x", "w"}
    np.testing.assert_array_equal(pop["x"], [[0.1, 0.2], [0.4, 0.5]])
    with pytest.raises(IngestError, match="at least one 'x'"):
        population_from_csv(path, {"w": ("w",)})
    with pytest.raises(IngestError, match="not found"):
        population_from_csv(path, {"x": ("x9",), "w": ("w",)})
    with pytest.raises(InputError, match="x must be a list of names, got 'x1'"):
        population_from_csv(path, {"x": "x1", "w": ("w",)})
    # the header and assignment checks of ingest
    with pytest.raises(IngestError, match="assigned to both 'x' and 'w'"):
        population_from_csv(path, {"x": ("w",), "w": ("w",)})
    path.write_text("a,a,w\n0.1,0.2,0.3\n")
    with pytest.raises(IngestError, match="duplicate header column 'a'"):
        population_from_csv(path, {"x": ("a",), "w": ("w",)})


def test_population_from_csv_collects_every_bad_cell(tmp_path):
    # the same cell check as a continuous column of ingest
    path = tmp_path / "pop.csv"
    path.write_text("x1,x2,w\n0.1,nan,0.3\n0.4,oops,-inf\n0.7,0.8\n")
    with pytest.raises(IngestError) as err:
        population_from_csv(path, {"x": ("x1", "x2"), "w": ("w",)})
    assert err.value.violations == [
        "non-finite value 'nan' at row 2, column 'x2'",
        "non-numeric value 'oops' at row 3, column 'x2'",
        "missing value at row 4, column 'w'",
        "non-finite value '-inf' at row 3, column 'w'",
    ]
