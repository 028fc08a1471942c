"""Dataset model shared by the whole toolkit.

A Variable carries a measurement level (nominal, ordinal or numeric) and, for
categorical levels, its declared category order. A Dataset is an immutable
table over those variables, validated once on construction so that
downstream code can assume a clean rectangle: no missing cells, every
categorical cell a declared category, every numeric cell finite, every row
id unique (a row without an id is known by its position).

A Dataset is stored by column: categorical columns as integer codes into the
declared categories, numeric columns as float64 (so an integer cell is
written back as 3.0). Cells are checked column by column; if a check fails,
a row-major rescan names the first bad cell. `subset` is fancy indexing with
no second validation. Observation is only the row form for building a
Dataset and for its JSON form.

A QuantificationMap records the numeric values assigned to categories together
with the affine standardization applied to numeric columns, so that any column
can be reproduced as a plain real vector via `column_as_quantified`.

Instances of every public type are immutable and safe to share between
threads. Arrays returned by accessors are freshly allocated.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, finite_number, json_list, json_object, parse_json

NOMINAL = "nominal"
ORDINAL = "ordinal"
NUMERIC = "numeric"
LEVELS = (NOMINAL, ORDINAL, NUMERIC)

PREDICTOR = "predictor"
DEPENDENT = "dependent"
ROLES = (PREDICTOR, DEPENDENT)

DATASET_SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class Variable:
    """A named column: measurement level, declared categories, and model role."""

    name: str
    level: str
    categories: tuple[str, ...] = ()
    role: str = PREDICTOR

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("variable name must be a non-empty string")
        if self.level not in LEVELS:
            raise ValidationError(
                f"variable '{self.name}': level must be one of {LEVELS}, got {self.level!r}"
            )
        if self.role not in ROLES:
            raise ValidationError(
                f"variable '{self.name}': role must be one of {ROLES}, got {self.role!r}"
            )
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.level == NUMERIC:
            if self.categories:
                raise ValidationError(
                    f"numeric variable '{self.name}' must not declare categories"
                )
        else:
            if len(self.categories) < 2:
                raise ValidationError(
                    f"categorical variable '{self.name}' needs at least two declared categories"
                )
            if not all(isinstance(cat, str) and cat for cat in self.categories):
                raise ValidationError(
                    f"variable '{self.name}': categories must be non-empty strings"
                )
            if len(set(self.categories)) != len(self.categories):
                raise ValidationError(f"variable '{self.name}' declares duplicate categories")

    @property
    def is_categorical(self) -> bool:
        return self.level != NUMERIC


@dataclass(frozen=True)
class Observation:
    """One row: a value per declared variable, plus an optional identifier."""

    values: tuple
    row_id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.row_id is not None and not isinstance(self.row_id, str):
            raise ValidationError("row_id must be a string when present")


class Dataset:
    """An immutable, validated table over declared variables, stored by column."""

    def __init__(self, variables, rows):
        variables = tuple(variables)
        names = [v.name for v in variables]
        if not names:
            raise ValidationError("dataset declares no variables")
        if len(set(names)) != len(names):
            raise ValidationError("variable names must be unique")
        dependents = [v for v in variables if v.role == DEPENDENT]
        if len(dependents) != 1:
            raise ValidationError(
                f"dataset must declare exactly one dependent variable, found {len(dependents)}"
            )
        if dependents[0].level != NUMERIC:
            raise ValidationError("the dependent variable must be numeric")
        rows = tuple(rows)
        if len(rows) < 2:
            raise ValidationError("dataset needs at least two rows")
        try:
            columns = _columns_of(variables, rows)
        except (ValueError, KeyError, TypeError, OverflowError):
            _raise_first_error(variables, rows)
            raise
        ids = tuple(row.row_id if row.row_id is not None else str(i) for i, row in enumerate(rows))
        repeated = [rid for rid, count in Counter(ids).items() if count > 1]
        if repeated:
            raise ValidationError(f"row ids must be unique; '{repeated[0]}' occurs more than once")
        self._init(variables, ids, columns)

    def _init(self, variables, ids, columns) -> "Dataset":
        for col in columns:
            col.flags.writeable = False
        self.variables, self._ids, self._columns = variables, ids, columns
        self._index = {v.name: j for j, v in enumerate(variables)}
        return self

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.variables == other.variables
            and self._ids == other._ids
            and all(map(np.array_equal, self._columns, other._columns))
        )

    @property
    def rows(self) -> tuple[Observation, ...]:
        """The table as Observations, rebuilt on each access (the adapter form)."""
        return tuple(map(Observation, self._row_values(), self._ids))

    def _row_values(self) -> list:
        """The cells row by row: labels for categorical, floats for numeric variables."""
        return np.column_stack([self._cells(j) for j in range(len(self.variables))]).tolist()

    def _cells(self, j: int) -> np.ndarray:
        categories = self.variables[j].categories
        if categories:
            return np.array(categories, dtype=object)[self._columns[j]]
        return self._columns[j].astype(object)

    @property
    def n(self) -> int:
        return len(self._ids)

    @property
    def dependent(self) -> Variable:
        return next(v for v in self.variables if v.role == DEPENDENT)

    @property
    def predictors(self) -> tuple[Variable, ...]:
        return tuple(v for v in self.variables if v.role == PREDICTOR)

    def variable(self, name: str) -> Variable:
        return self.variables[self.index(name)]

    def index(self, name: str, categorical: bool | None = None) -> int:
        """Position of a variable; errors if unknown or not of the asked kind."""
        if name not in self._index:
            raise ValidationError(f"unknown variable '{name}'")
        j = self._index[name]
        if categorical is not None and self.variables[j].is_categorical != categorical:
            use = "use labels() or codes()" if categorical is False else "use column()"
            kind = "categorical" if self.variables[j].is_categorical else "numeric"
            raise ValidationError(f"variable '{name}' is {kind}; {use}")
        return j

    def row_id(self, i: int) -> str:
        return self._ids[i]

    def value(self, i: int, name: str):
        j = self.index(name)
        cell, categories = self._columns[j][i], self.variables[j].categories
        return categories[cell] if categories else float(cell)

    def column(self, name: str) -> np.ndarray:
        """Numeric column as a float array. Errors on categorical variables."""
        return self._columns[self.index(name, categorical=False)].copy()

    def labels(self, name: str) -> tuple[str, ...]:
        """Categorical column as its raw labels."""
        return tuple(self._cells(self.index(name, categorical=True)).tolist())

    def category_codes(self, name: str) -> np.ndarray:
        """Categorical column as integer codes into the declared categories."""
        return self._columns[self.index(name, categorical=True)].copy()

    def codes(self, name: str) -> tuple[np.ndarray, tuple[str, ...]]:
        """Categorical column as integer codes over the observed categories.

        Observed categories keep the declared order; codes index into that
        tuple. Unobserved declared categories do not appear.
        """
        declared = self.category_codes(name)
        cats = self.variable(name).categories
        present = np.bincount(declared, minlength=len(cats)) > 0
        observed = tuple(c for c, p in zip(cats, present) if p)
        return (np.cumsum(present) - 1)[declared], observed

    def subset(self, indices) -> "Dataset":
        """New dataset with the same variables over the selected rows, each at most once."""
        idx = np.array([operator.index(i) for i in indices], dtype=np.intp)
        ids = tuple(self._ids[i] for i in idx.tolist())
        if len(set(ids)) != len(ids):
            raise ValidationError("subset indices must not repeat")
        if len(ids) < 2:
            raise ValidationError("dataset needs at least two rows")
        columns = [col[idx] for col in self._columns]
        return object.__new__(Dataset)._init(self.variables, ids, columns)


def _columns_of(variables, rows) -> list:
    """Validated column arrays; raises (without naming the cell) if any cell is bad."""
    width = len(variables)
    if any(len(row.values) != width for row in rows):
        raise ValueError("ragged rows")
    columns = []
    for var, cells in zip(variables, zip(*(row.values for row in rows))):
        if var.is_categorical:
            lookup = {c: k for k, c in enumerate(var.categories)}
            columns.append(np.fromiter(map(lookup.__getitem__, cells), np.intp, len(cells)))
            continue
        if not (set(map(type, cells)) <= {float, int} or all(map(finite_number, cells))):
            raise ValueError("not a number")
        col = np.array(cells, dtype=float)
        if not np.isfinite(col).all():
            raise ValueError("not finite")
        columns.append(col)
    return columns


def _raise_first_error(variables, rows) -> None:
    """Scan row-major and raise the validation error of the first bad cell."""
    width = len(variables)
    for i, row in enumerate(rows):
        rid = row.row_id if row.row_id is not None else str(i)
        if len(row.values) != width:
            raise ValidationError(f"row {rid}: expected {width} values, got {len(row.values)}")
        for var, cell in zip(variables, row.values):
            where = f"row {rid}, variable '{var.name}'"
            if var.is_categorical:
                if not isinstance(cell, str):
                    raise ValidationError(f"{where}: expected a category label")
                if cell not in var.categories:
                    raise ValidationError(f"{where}: '{cell}' is not a declared category")
            elif not finite_number(cell):
                raise ValidationError(
                    f"{where}: numeric cell must be a finite number, got {cell!r}"
                )


def population_standardize(values) -> tuple[np.ndarray, float, float]:
    """Center and scale to mean 0, mean square 1 (population convention).

    Returns (standardized array, mean, scale) with scale = sqrt(mean((x - mean)^2)),
    so the sum of squares of the result equals n. Errors on zero variance.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("standardization needs a 1-d array of length >= 2")
    mean = float(x.mean())
    scale = float(np.sqrt(np.mean((x - mean) ** 2)))
    if scale == 0.0 or not math.isfinite(scale):
        raise ValidationError("cannot standardize a zero-variance column")
    return (x - mean) / scale, mean, scale


@dataclass(frozen=True)
class QuantificationMap:
    """Numeric values for categories plus affine standardizations for numeric columns.

    categorical: variable name -> {category label -> quantified value}
    numeric:     variable name -> (mean, scale) of the standardization applied

    Treat both mappings as read-only after construction.
    """

    categorical: dict = field(default_factory=dict)
    numeric: dict = field(default_factory=dict)


def column_as_quantified(
    dataset: Dataset, variable: str, quantifications: QuantificationMap
) -> np.ndarray:
    """Reproduce a column as a real vector under the given quantification map.

    Categorical columns map labels through the recorded quantification;
    numeric columns get the recorded (mean, scale) standardization. Pure
    function: identical inputs yield bit-identical outputs.
    """
    var = dataset.variable(variable)
    if var.is_categorical:
        mapping = quantifications.categorical.get(variable)
        if mapping is None:
            raise ValidationError(
                f"no quantification recorded for categorical variable '{variable}'"
            )
        codes = dataset.category_codes(variable)
        known = np.array([c in mapping for c in var.categories])
        if not known[codes].all():
            label = var.categories[codes[np.argmin(known[codes])]]
            raise ValidationError(
                f"category '{label}' of variable '{variable}' has no quantification"
            )
        return np.array([mapping.get(c, 0.0) for c in var.categories], dtype=float)[codes]
    entry = quantifications.numeric.get(variable)
    if entry is None:
        raise ValidationError(
            f"no standardization recorded for numeric variable '{variable}'"
        )
    mean, scale = entry
    if scale <= 0 or not math.isfinite(scale):
        raise ValidationError(f"invalid scale recorded for variable '{variable}'")
    return (dataset.column(variable) - mean) / scale


def dataset_to_json(dataset: Dataset) -> dict:
    """Canonical JSON form of a dataset (schema version 1)."""
    return {
        "schema_version": DATASET_SCHEMA_VERSION,
        "variables": [
            {"name": v.name, "level": v.level, "categories": list(v.categories), "role": v.role}
            for v in dataset.variables
        ],
        "rows": [
            {"id": rid, "values": values}
            for rid, values in zip(dataset._ids, dataset._row_values())
        ],
    }


def dataset_from_json(obj) -> Dataset:
    """Parse the canonical JSON form back into a Dataset. Rejects unknown fields."""
    json_object(obj, {"schema_version", "variables", "rows"}, "dataset document")
    if obj.get("schema_version") != DATASET_SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported dataset schema version {obj.get('schema_version')!r}; "
            f"expected {DATASET_SCHEMA_VERSION!r}"
        )
    variables = []
    for entry in json_list(obj.get("variables", []), "variables"):
        json_object(entry, {"name", "level", "categories", "role"}, "variable entry")
        categories = tuple(json_list(entry.get("categories", []), "categories"))
        role = entry.get("role", PREDICTOR)
        variables.append(Variable(entry.get("name"), entry.get("level"), categories, role))
    rows = []
    for entry in json_list(obj.get("rows", []), "rows"):
        json_object(entry, {"id", "values"}, "row entry")
        values = tuple(json_list(entry.get("values", []), "row values"))
        rows.append(Observation(values, row_id=entry.get("id")))
    return Dataset(tuple(variables), tuple(rows))


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_json(dataset), fh, indent=2)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return dataset_from_json(parse_json(fh.read()))
