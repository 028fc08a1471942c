"""Dataset model shared by the whole toolkit.

A Variable carries a measurement level (nominal, ordinal or numeric) and, for
categorical levels, its declared category order. A Dataset is an immutable
table over those variables, validated once on construction so that
downstream code can assume a clean rectangle: no missing cells, every
categorical cell a declared category, every numeric cell finite, every row
id unique (a row without an id is known by its position).

A Dataset is stored by column: categorical columns as integer codes into the
declared categories, numeric columns as float64 (so an integer cell is
written back as 3.0). It is built from Observations or straight from columns
of cells (as ingest and the JSON reader do); either way each column is
checked once, and only a column whose check fails is searched cell by cell.
The error names the first bad cell in row-major order: the earliest row, and
within it the first variable in declared order. Given rows, a ragged row is
named only if no bad cell comes before it. `subset` is fancy indexing with no
second validation; an integer index array is used as it is, and repeats are
found by counting indices. Observation is only the row form of a Dataset.

The JSON form is written from the columns with the bytes of `json.dump(...,
indent=2)`, each row its cells joined with fixed separators. The reader checks
each row field in one pass, and reads rows one by one only to name a bad one.

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
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as json_string

import numpy as np

from .errors import NumericalError, ValidationError, finite_number, json_list, json_object, read_json

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
        _check_row_id(self.row_id)


def _check_row_id(row_id) -> None:
    if row_id is not None and not isinstance(row_id, str):
        raise ValidationError("row_id must be a string when present")


class Dataset:
    """An immutable, validated table over declared variables, stored by column."""

    def __init__(self, variables, rows=(), *, columns=None, ids=None):
        """Validate and store a table given row by row, or column by column.

        `rows` holds Observations. Alternatively `columns` holds one cell
        sequence per variable (labels or numbers, as in an Observation) and
        `ids` one row id or None per row; `rows` is then ignored.
        """
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
        if columns is None:
            rows = tuple(rows)
            ids = [row.row_id for row in rows]
        elif ids is None:
            raise ValidationError("a dataset given by columns needs one row id or None per row")
        elif not set(map(type, ids)) <= {str}:
            for rid in ids:
                _check_row_id(rid)
        if len(ids) < 2:
            raise ValidationError("dataset needs at least two rows")
        ids = tuple(str(i) if rid is None else rid for i, rid in enumerate(ids))
        ragged = None
        if columns is None:
            # the rows before the first ragged one are checked; a bad cell there comes first
            values = [row.values for row in rows]
            ragged = next((i for i, cells in enumerate(values) if len(cells) != len(names)), None)
            columns = list(zip(*values[:ragged])) or [()] * len(names)
        elif len(columns) != len(variables) or any(len(cells) != len(ids) for cells in columns):
            raise ValidationError("dataset needs one column per variable and one cell per row id")
        arrays, bad = _columns_of(variables, columns)
        if bad:
            raise ValidationError(f"row {ids[bad[0]]}, {bad[1]}")
        if ragged is not None:
            raise ValidationError(
                f"row {ids[ragged]}: expected {len(names)} values, got {len(values[ragged])}"
            )
        if len(dict.fromkeys(ids)) < len(ids):  # a dict: a set of 20k ids peaks 4x larger
            first = next(rid for rid, count in Counter(ids).items() if count > 1)
            raise ValidationError(f"row ids must be unique; '{first}' occurs more than once")
        self._init(variables, ids, arrays)

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

    def _row_values(self) -> list:
        """The cells row by row: labels for categorical, floats for numeric variables."""
        return np.column_stack([
            np.array(v.categories, dtype=object)[col] if v.categories else col.astype(object)
            for v, col in zip(self.variables, self._columns)
        ]).tolist()

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
            use = "use codes() or category_codes()" if categorical is False else "use column()"
            kind = "categorical" if self.variables[j].is_categorical else "numeric"
            raise ValidationError(f"variable '{name}' is {kind}; {use}")
        return j

    def value(self, i: int, name: str):
        j = self.index(name)
        cell, categories = self._columns[j][i], self.variables[j].categories
        return categories[cell] if categories else float(cell)

    def column(self, name: str) -> np.ndarray:
        """Numeric column as a float array. Errors on categorical variables."""
        return self._columns[self.index(name, categorical=False)].copy()

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
        """New dataset with the same variables over the selected rows, each at most once.

        A negative index counts from the end, as in numpy; one outside [-n, n),
        a bool, a non-integer or a non-iterable `indices` is a ValidationError.
        """
        try:
            if (isinstance(indices, np.ndarray) and indices.ndim == 1
                    and indices.dtype.kind in "iu" and np.can_cast(indices.dtype, np.intp)):
                idx = indices.astype(np.intp)
            else:
                indices = [_index(i) for i in indices]
                idx = np.array(indices, dtype=np.intp)
            ids = tuple(map(self._ids.__getitem__, idx.tolist()))
        except (IndexError, OverflowError):  # an index outside [-n, n), or past intp
            i = next(i for i in indices if not -self.n <= i < self.n)
            raise ValidationError(f"subset index {i} is out of range for {self.n} rows") from None
        except TypeError:  # `indices` is not iterable
            raise ValidationError("subset indices must be a sequence of integers") from None
        if (np.bincount(idx % self.n) > 1).any():  # every index is in range here
            raise ValidationError("subset indices must not repeat")
        if len(ids) < 2:
            raise ValidationError("dataset needs at least two rows")
        columns = [col[idx] for col in self._columns]
        return object.__new__(Dataset)._init(self.variables, ids, columns)


def _index(i) -> int:
    """A subset index as an int; a bool or any other non-integer is a ValidationError."""
    if isinstance(i, (bool, np.bool_)) or not hasattr(type(i), "__index__"):
        raise ValidationError(f"subset index {i!r} is not an integer")
    return operator.index(i)


def _columns_of(variables, columns) -> tuple:
    """The column arrays and the first bad cell as (row, message), or None if there is none.

    Each column names its own first bad cell. The earliest row wins, and
    within a row the variable declared first.
    """
    arrays, errors = [], []  # errors: (row, message), the first bad cell of a column
    for var, cells in zip(variables, columns):
        if var.is_categorical:
            lookup = {c: k for k, c in enumerate(var.categories)}
            try:
                arrays.append(np.fromiter(map(lookup.__getitem__, cells), np.intp, len(cells)))
                continue
            except (KeyError, TypeError):  # an undeclared or an unhashable cell
                i = next(i for i, c in enumerate(cells) if not (isinstance(c, str) and c in lookup))
            problem = (f"'{cells[i]}' is not a declared category" if isinstance(cells[i], str)
                       else "expected a category label")
        else:
            col = None
            if {float, int}.issuperset(map(type, cells)) or all(map(finite_number, cells)):
                try:
                    col = np.array(cells, dtype=float)
                except OverflowError:  # an integer past the float range
                    pass
            if col is not None and np.isfinite(col).all():
                arrays.append(col)
                continue
            i = next(i for i, c in enumerate(cells) if not finite_number(c))
            problem = f"numeric cell must be a finite number, got {cells[i]!r}"
        errors.append((i, f"variable '{var.name}': {problem}"))
    return arrays, min(errors, key=operator.itemgetter(0), default=None)


def population_standardize(values) -> tuple[np.ndarray, float, float]:
    """Center and scale to mean 0, mean square 1 (population convention).

    Returns (standardized array, mean, scale) with scale = sqrt(mean((x - mean)^2)),
    so the sum of squares of the result equals n. Errors on zero or overflowing spread.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("standardization needs a 1-d array of length >= 2")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(x.mean())
        scale = float(np.sqrt(np.mean((x - mean) ** 2)))
    if scale == 0.0:
        raise ValidationError("cannot standardize a zero-variance column")
    if not math.isfinite(scale):
        raise NumericalError("cannot standardize a column whose spread overflows the float range")
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


def _document_head(dataset: Dataset) -> dict:
    """The canonical JSON form without its rows."""
    return {
        "schema_version": DATASET_SCHEMA_VERSION,
        "variables": [
            {"name": v.name, "level": v.level, "categories": list(v.categories), "role": v.role}
            for v in dataset.variables
        ],
    }


def dataset_to_json(dataset: Dataset) -> dict:
    """Canonical JSON form of a dataset (schema version 1)."""
    rows = zip(dataset._ids, dataset._row_values())
    return {**_document_head(dataset), "rows": [{"id": rid, "values": v} for rid, v in rows]}


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
    values, ids = _row_fields(json_list(obj.get("rows", []), "rows"))
    if set(map(len, values)) - {len(variables)}:
        # the row form names the first bad row after checking the variables
        return Dataset(variables, map(Observation, values, ids))
    flat = list(chain.from_iterable(values))
    columns = [flat[j::len(variables)] for j in range(len(variables))]
    del flat  # so that it is not held while the columns are checked
    return Dataset(variables, columns=columns, ids=ids)


def _row_fields(rows: list) -> tuple[list, list]:
    """The `values` and the `id` of every row entry, each field checked in one pass."""
    if set(map(type, rows)) <= {dict} and {"id", "values"}.issuperset(chain.from_iterable(rows)):
        values = list(map(dict.get, rows, repeat("values"), repeat([])))
        ids = list(map(dict.get, rows, repeat("id")))
        if set(map(type, values)) <= {list} and set(map(type, ids)) <= {str, type(None)}:
            return values, ids
    values, ids = [], []
    for entry in rows:  # one by one, to name the first bad entry
        json_object(entry, {"id", "values"}, "row entry")
        values.append(json_list(entry.get("values", []), "row values"))
        ids.append(entry.get("id"))
        _check_row_id(ids[-1])
    return values, ids


_WRITE_ROWS = 2048  # rows encoded per write, so the file text is never held whole


def save_dataset(dataset: Dataset, path) -> None:
    """Write the canonical JSON form, byte for byte what json.dump(..., indent=2) writes.

    Every row sits at the same depth, so it is its cells joined with fixed
    separators: ids and labels encoded by the json module's ASCII encoder (each
    label once per variable), numbers by float.__repr__, as json does it.
    """
    head = json.dumps({**_document_head(dataset), "rows": []}, indent=2)
    labels = [np.array(list(map(json_string, v.categories)), dtype=object)
              for v in dataset.variables]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[: -len("[]\n}")] + "[\n")
        for start in range(0, dataset.n, _WRITE_ROWS):
            part = slice(start, start + _WRITE_ROWS)
            texts = [repeat('    {\n      "id": '), map(json_string, dataset._ids[part])]
            for j, (var, col) in enumerate(zip(dataset.variables, dataset._columns)):
                texts += [repeat(",\n        " if j else ',\n      "values": [\n        '),
                          labels[j][col[part]].tolist() if var.is_categorical
                          else map(float.__repr__, col[part].tolist())]
            texts.append(repeat("\n      ]\n    }"))
            fh.write((",\n" if start else "") + ",\n".join(map("".join, zip(*texts))))
        fh.write("\n  ]\n}\n")


def load_dataset(path) -> Dataset:
    return dataset_from_json(read_json(path))
