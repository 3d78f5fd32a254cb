"""Role-tagged numeric tables and CSV round-tripping.

A Dataset is a dense float matrix plus per-column metadata. Roles:

- ``y``: outcome, exactly one column
- ``d``: treatment, exactly one column
- ``x``: covariates, one or more
- ``z``: negative control exposures, one or more
- ``w``: negative control outcomes, one or more
- ``v``: subgroup covariates, optional

Categorical columns hold small integer codes; the label table maps code
i to ``labels[i]``. Continuous cells are written with shortest
round-trip formatting so write-then-ingest is bit-exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import IngestError, InputError, _names

ROLES = ("y", "d", "x", "z", "w", "v")
_REQUIRED_SINGLE = ("y", "d")
_REQUIRED_MANY = ("x", "z", "w")


@dataclass(frozen=True)
class Column:
    name: str
    role: str
    categorical: bool = False
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise InputError(f"unknown role {self.role!r} for column {self.name!r}")
        if self.categorical and self.labels is None:
            raise InputError(f"categorical column {self.name!r} needs a label table")
        if not self.categorical and self.labels is not None:
            raise InputError(f"continuous column {self.name!r} cannot carry labels")


@dataclass(frozen=True, eq=False)
class Dataset:
    columns: tuple[Column, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[0] == 0:
            raise InputError("values must be a non-empty 2-D array")
        if vals.shape[1] != len(self.columns):
            raise InputError(
                f"{len(self.columns)} columns declared but values have "
                f"{vals.shape[1]}"
            )
        if not np.all(np.isfinite(vals)):
            raise InputError("values contain non-finite entries")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise InputError("duplicate column names")
        counts = {role: sum(c.role == role for c in self.columns) for role in ROLES}
        for role in _REQUIRED_SINGLE:
            if counts[role] != 1:
                raise InputError(f"need exactly one {role!r} column, got {counts[role]}")
        for role in _REQUIRED_MANY:
            if counts[role] < 1:
                raise InputError(f"need at least one {role!r} column")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def role_indices(self, role: str) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.role == role]

    def block(self, role: str) -> np.ndarray:
        """Columns of one role as an (n, k) array, declared order."""
        idx = self.role_indices(role)
        if not idx:
            raise InputError(f"dataset has no {role!r} columns")
        return self.values[:, idx]

    def has_role(self, role: str) -> bool:
        return any(c.role == role for c in self.columns)

    @property
    def y(self) -> np.ndarray:
        return self.block("y")[:, 0]

    def names(self, role: str) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.role == role)

    def categorical_flags(self, role: str) -> tuple[bool, ...]:
        return tuple(c.categorical for c in self.columns if c.role == role)

    def subset(self, rows) -> "Dataset":
        """New dataset restricted to the given row indices or boolean mask."""
        picked = self.values[np.asarray(rows)]
        if picked.ndim != 2 or picked.shape[0] == 0:
            raise InputError("subset selects no rows")
        return Dataset(self.columns, picked)


def _default_names(prefix: str, k: int) -> list[str]:
    return [prefix if k == 1 else f"{prefix}{j + 1}" for j in range(k)]


def _code_labels(values: np.ndarray, name: str) -> tuple[str, ...]:
    codes = np.unique(values)
    if not np.all(codes == np.round(codes)):
        raise InputError(f"categorical column {name!r} must hold integer codes")
    top = int(codes.max()) if codes.size else -1
    if codes.min() < 0:
        raise InputError(f"categorical column {name!r} has negative codes")
    return tuple(str(i) for i in range(top + 1))


def from_arrays(
    y,
    d,
    x,
    z,
    w,
    v=None,
    *,
    d_categorical: bool = False,
    v_categorical: bool = False,
) -> Dataset:
    """Assemble a dataset from per-role arrays with generated names.

    Categorical blocks must already hold codes 0..k-1; labels default to
    the code digits.
    """
    blocks: list[tuple[str, np.ndarray, bool]] = []
    for role, arr, cat in (
        ("y", y, False),
        ("d", d, d_categorical),
        ("x", x, False),
        ("z", z, False),
        ("w", w, False),
        ("v", v, v_categorical),
    ):
        if arr is None:
            continue
        mat = np.asarray(arr, dtype=float)
        if mat.ndim == 1:
            mat = mat[:, None]
        blocks.append((role, mat, cat))
    columns: list[Column] = []
    parts: list[np.ndarray] = []
    for role, mat, cat in blocks:
        for j, name in enumerate(_default_names(role, mat.shape[1])):
            labels = _code_labels(mat[:, j], name) if cat else None
            columns.append(Column(name, role, cat, labels))
        parts.append(mat)
    return Dataset(tuple(columns), np.hstack(parts))


@dataclass(frozen=True)
class Schema:
    """Column-to-role assignment used when ingesting a CSV file.

    y and d name one column each, x, z and w one or more, v any number,
    and `categorical` only columns of these roles; a field that does
    not raises InputError naming it (a string is not a list of names).
    """

    y: str
    d: str
    x: tuple[str, ...]
    z: tuple[str, ...]
    w: tuple[str, ...]
    v: tuple[str, ...] = ()
    categorical: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for role in _REQUIRED_SINGLE:
            name = getattr(self, role)
            if not (isinstance(name, str) and name):
                raise InputError(f"{role} must be a column name, got {name!r}", role)
        for role in ("x", "z", "w", "v"):
            object.__setattr__(self, role, _names(role, getattr(self, role)))
            if role in _REQUIRED_MANY and not getattr(self, role):
                raise InputError(f"{role} must name at least one column", role)
        categorical = frozenset(_names("categorical", self.categorical))
        object.__setattr__(self, "categorical", categorical)
        unknown = sorted(categorical.difference(name for name, _ in self.role_of()))
        if unknown:
            message = f"categorical names columns that no role assigns: {unknown}"
            raise InputError(message, "categorical")

    def role_of(self) -> list[tuple[str, str]]:
        pairs = [(self.y, "y"), (self.d, "d")]
        for role, group in (("x", self.x), ("z", self.z), ("w", self.w), ("v", self.v)):
            pairs.extend((name, role) for name in group)
        return pairs


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise IngestError([f"{path}: file is empty"])
    return rows[0], rows[1:]


def _column_cells(
    body: list[list[str]], idx: int, name: str, violations: list[str]
) -> list[str]:
    """Stripped cells of one column; each missing one is a violation."""
    cells = []
    for r, row in enumerate(body):
        cell = row[idx].strip() if idx < len(row) else ""
        if cell == "":
            violations.append(f"missing value at row {r + 2}, column {name!r}")
        cells.append(cell)
    return cells


def _continuous(cells: list[str], name: str, violations: list[str]) -> np.ndarray:
    """Finite floats of continuous cells, nan where a cell is bad.

    Every non-numeric or non-finite cell is a violation; missing ones
    were already reported by :func:`_column_cells`.
    """
    out = np.full(len(cells), np.nan)
    for r, cell in enumerate(cells):
        if cell == "":
            continue
        try:
            parsed = float(cell)
        except ValueError:
            problem = "non-numeric"
        else:
            if math.isfinite(parsed):
                out[r] = parsed
                continue
            problem = "non-finite"
        violations.append(f"{problem} value {cell!r} at row {r + 2}, column {name!r}")
    return out


def _read_columns(
    path, pairs: Sequence[tuple[str, str]], categorical=frozenset(), problems=()
) -> tuple[np.ndarray, dict[str, dict[str, int]]]:
    """The columns that (name, role) `pairs` assign, read from a CSV file.

    Returns one value column per pair, in order, and the label -> code
    map of each `categorical` column. Every violation is reported at
    once: a repeated header name, a name assigned twice or absent from
    the header, the caller's own `problems` and an empty body first,
    then every missing, non-numeric or non-finite cell.
    """
    header, body = _read_rows(Path(path))
    violations: list[str] = []
    seen: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in seen:
            violations.append(f"duplicate header column {name!r}")
        seen[name] = i
    assigned: dict[str, str] = {}
    for name, role in pairs:
        if name in assigned:
            violations.append(f"column {name!r} assigned to both "
                              f"{assigned[name]!r} and {role!r}")
        assigned[name] = role
        if name not in seen:
            violations.append(f"{role!r} column {name!r} not found in header")
    violations.extend(problems)
    if not body:
        violations.append("no data rows")
    if violations:
        raise IngestError(violations)

    values = np.empty((len(body), len(pairs)))
    label_maps: dict[str, dict[str, int]] = {}
    for j, (name, _) in enumerate(pairs):
        cells = _column_cells(body, seen[name], name, violations)
        if name in categorical:
            labels = sorted(set(c for c in cells if c != ""))
            label_maps[name] = {lab: code for code, lab in enumerate(labels)}
            values[:, j] = [label_maps[name].get(cell, np.nan) for cell in cells]
        else:
            values[:, j] = _continuous(cells, name, violations)
    if violations:
        raise IngestError(violations)
    return values, label_maps


def ingest(path, schema: Schema) -> Dataset:
    """Read a CSV under a schema, reporting every violation at once."""
    pairs = schema.role_of()
    values, label_maps = _read_columns(path, pairs, schema.categorical)
    columns = []
    for name, role in pairs:
        if name in schema.categorical:
            labels = tuple(sorted(label_maps[name], key=label_maps[name].get))
            columns.append(Column(name, role, True, labels))
        else:
            columns.append(Column(name, role, False))
    return Dataset(tuple(columns), values)


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def write_dataset_csv(data: Dataset, path) -> None:
    """Write a dataset; continuous cells round-trip bit-exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([c.name for c in data.columns])
        for row in data.values:
            cells = []
            for col, val in zip(data.columns, row):
                if col.categorical:
                    cells.append(col.labels[int(val)])
                else:
                    cells.append(format_float(val))
            writer.writerow(cells)


def write_table_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Generic CSV writer; floats get shortest round-trip formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, float) else v for v in row]
            )


def population_from_csv(path, columns: Mapping[str, Sequence[str]]) -> dict[str, np.ndarray]:
    """Read an alternative population: named x/w (and optional v) blocks.

    Relaxed counterpart to :func:`ingest` for distribution-shift targets,
    which carry no outcome or treatment; the header, the assignment and
    every cell are checked as for a continuous column of :func:`ingest`.
    Each role's names must be a list (see :class:`Schema`).
    """
    roles = [role for role in ("x", "w", "v") if columns.get(role)]
    pairs = [(name, role) for role in roles for name in _names(role, columns[role])]
    problems = [] if {"x", "w"} <= set(roles) else [
        "population needs at least one 'x' and one 'w' column"]
    values, _ = _read_columns(path, pairs, problems=problems)
    return {
        role: values[:, [j for j, (_, r) in enumerate(pairs) if r == role]]
        for role in roles
    }
