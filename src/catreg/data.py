"""Dataset model shared by the whole toolkit.

A Variable carries a measurement level (nominal, ordinal or numeric) and, for
categorical levels, its declared category order. A Dataset is an immutable
table over those variables, validated once on construction so that
downstream code can assume a clean rectangle: no missing cells, every
categorical cell a declared category, every numeric cell finite, every row
id unique (a row without an id is known by its position).

A Dataset is stored by column: categorical columns as integer codes into the
declared categories, numeric columns as float64 (so an integer cell is
written back as 3.0). It is built from columns of cells and row ids; each
column is checked once, and only a column whose check fails is searched cell
by cell. The error names the first bad cell in row-major order: the earliest
row, and within it the first variable in declared order. `subset` is fancy
indexing with no second validation; an integer index array is used as it is,
and repeats are found by counting indices.

The JSON form is written from the columns with the bytes of `json.dump(...,
indent=2)`, each row its cells joined with fixed separators. `load_dataset`
reads a file's bytes whole but never holds its text or its object tree whole.
In the writer's layout (the `_ROWS_OPEN`, `_ROW_END`, `_ROW_BREAK` and
`_ROWS_CLOSE` strings) the head up to the rows is decoded on its own, and the
rows in blocks of about `_READ_BLOCK` bytes, each cut at a row break: a JSON
string holds no raw newline, so a row break can only be structure. Each
block's rows are checked and written into column arrays sized by counting the
row breaks. Any other file, and any file the block path finds fault with (a
bad row, cell or id, a ragged row, bytes that do not decode or parse), is read
again whole by `dataset_from_json(read_json(path))`, which names the error.
That reader checks each row field in one pass, and reads rows one by one only
to name a bad one. Its rows become columns by `rows_to_columns`, as the CSV
reader's do: only the rows before the first ragged one are checked, and a
ragged row is named only if no bad cell comes before it.

A QuantificationMap records the numeric values assigned to categories together
with the affine standardization applied to numeric columns, so that any column
can be reproduced as a plain real vector via `column_as_quantified`.

Instances of every public type are immutable and safe to share between
threads. Arrays returned by public accessors are freshly allocated; the
package's own modules read the stored read-only columns (`Dataset._stored`)
instead of copying them.
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

from .errors import (CatregError, NumericalError, ValidationError, finite_number, json_list,
                     json_object, parse_json, read_json)

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


def _check_row_id(row_id) -> None:
    if row_id is not None and not isinstance(row_id, str):
        raise ValidationError("row_id must be a string when present")


class Dataset:
    """An immutable, validated table over declared variables, stored by column."""

    def __init__(self, variables, columns, ids):
        """Validate and store one cell sequence per variable in `columns` (category
        labels or numbers) and one row id or None per row in `ids`."""
        variables, ids = _variables_and_ids(variables, ids)
        if len(columns) != len(variables) or any(len(cells) != len(ids) for cells in columns):
            raise ValidationError("dataset needs one column per variable and one cell per row id")
        arrays = _columns_of(variables, columns, ids)
        _check_unique(ids)
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

    def _stored(self, name: str) -> np.ndarray:
        """The variable's stored column itself, read-only and not copied: float64
        for a numeric variable, declared category codes for a categorical one."""
        return self._columns[self.index(name)]

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
        return _observed_codes(self.category_codes(name), self.variable(name).categories)[:2]

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


def _observed_codes(declared: np.ndarray, categories: tuple) -> tuple:
    """(codes, observed categories, counts) of a column of declared category codes.

    Observed categories keep the declared order and the codes index into them;
    counts are each observed category's rows, all three from one bincount.
    """
    counts = np.bincount(declared, minlength=len(categories))
    present = counts > 0
    if present.all():
        return declared, categories, counts
    observed = tuple(c for c, p in zip(categories, present) if p)
    return (np.cumsum(present) - 1)[declared], observed, counts[present]


def _index(i) -> int:
    """A subset index as an int; a bool or any other non-integer is a ValidationError."""
    if isinstance(i, (bool, np.bool_)) or not hasattr(type(i), "__index__"):
        raise ValidationError(f"subset index {i!r} is not an integer")
    return operator.index(i)


def _variables_and_ids(variables, ids) -> tuple:
    """The checked variables and row ids as tuples, a row's position for a None id."""
    variables = tuple(variables)
    if not variables:
        raise ValidationError("dataset declares no variables")
    if len({v.name for v in variables}) != len(variables):
        raise ValidationError("variable names must be unique")
    dependents = [v for v in variables if v.role == DEPENDENT]
    if len(dependents) != 1:
        raise ValidationError(
            f"dataset must declare exactly one dependent variable, found {len(dependents)}"
        )
    if dependents[0].level != NUMERIC:
        raise ValidationError("the dependent variable must be numeric")
    if ids is None:
        raise ValidationError("a dataset given by columns needs one row id or None per row")
    if set(map(type, ids)) <= {str}:
        ids = tuple(ids)
    else:
        for rid in ids:
            _check_row_id(rid)
        ids = tuple(str(i) if rid is None else rid for i, rid in enumerate(ids))
    if len(ids) < 2:
        raise ValidationError("dataset needs at least two rows")
    return variables, ids


def _check_unique(ids: tuple) -> None:
    if len(dict.fromkeys(ids)) < len(ids):  # a dict: a set of 20k ids peaks 4x larger
        first = next(rid for rid, count in Counter(ids).items() if count > 1)
        raise ValidationError(f"row ids must be unique; '{first}' occurs more than once")


def _columns_of(variables, columns, ids) -> list:
    """The column arrays; raises a ValidationError naming the first bad cell by its row id.

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
        errors.append((i, f"row {ids[i]}, variable '{var.name}': {problem}"))
    if errors:
        raise ValidationError(min(errors, key=operator.itemgetter(0))[1])
    return arrays


def rows_to_columns(rows, width: int) -> tuple[list, int | None]:
    """The columns of the rows before the first ragged one, and that row's index.

    A ragged row has other than `width` cells; the index is None if no row
    is ragged. Each column is a strided slice of one list of the rows' cells.
    """
    ragged = None
    if set(map(len, rows)) - {width}:
        ragged = next(i for i, row in enumerate(rows) if len(row) != width)
    flat = list(chain.from_iterable(rows[:ragged]))
    return [flat[j::width] for j in range(width)], ragged


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
        codes = dataset._stored(variable)
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
    return (dataset._stored(variable) - mean) / scale


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
    cells = np.column_stack([  # row by row: labels for categorical, floats for numeric cells
        np.array(v.categories, dtype=object)[col] if v.categories else col.astype(object)
        for v, col in zip(dataset.variables, dataset._columns)
    ]).tolist()
    rows = [{"id": rid, "values": v} for rid, v in zip(dataset._ids, cells)]
    return {**_document_head(dataset), "rows": rows}


def dataset_from_json(obj) -> Dataset:
    """Parse the canonical JSON form back into a Dataset. Rejects unknown fields."""
    variables = _head_variables(obj)
    values, ids = _row_fields(json_list(obj.get("rows", []), "rows"))
    columns, ragged = rows_to_columns(values, len(variables))
    if ragged is None:
        return Dataset(variables, columns, ids)
    # the checks Dataset makes first, then the ragged row
    variables, ids = _variables_and_ids(variables, ids)
    _columns_of(variables, columns, ids)
    raise ValidationError(
        f"row {ids[ragged]}: expected {len(variables)} values, got {len(values[ragged])}"
    )


def _head_variables(obj) -> list:
    """The variables of a dataset document, after checking its fields and version."""
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
    return variables


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
_READ_BLOCK = 1 << 18  # bytes of rows decoded at a time, so the file's tree is never held whole
# The writer's layout, which the reader's block path relies on: the document's
# last key opens the rows, each row ends at indent 4, rows are joined by a
# comma and a newline, and the document ends with the rows.
_ROWS_OPEN = '\n  "rows": [\n'
_ROW_END = "\n    }"
_ROW_BREAK = ",\n"
_ROWS_CLOSE = "\n  ]\n}\n"


def save_dataset(dataset: Dataset, path) -> None:
    """Write the canonical JSON form, byte for byte what json.dump(..., indent=2) writes.

    Every row sits at the same depth, so it is its cells joined with fixed
    separators: ids and labels encoded by the json module's ASCII encoder (each
    label once per variable), numbers by float.__repr__, as json does it.
    """
    head = json.dumps(_document_head(dataset), indent=2)
    labels = [np.array(list(map(json_string, v.categories)), dtype=object)
              for v in dataset.variables]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[: -len("\n}")] + "," + _ROWS_OPEN)
        for start in range(0, dataset.n, _WRITE_ROWS):
            part = slice(start, start + _WRITE_ROWS)
            texts = [repeat('    {\n      "id": '), map(json_string, dataset._ids[part])]
            for j, (var, col) in enumerate(zip(dataset.variables, dataset._columns)):
                texts += [repeat(",\n        " if j else ',\n      "values": [\n        '),
                          labels[j][col[part]].tolist() if var.is_categorical
                          else map(float.__repr__, col[part].tolist())]
            texts.append(repeat("\n      ]" + _ROW_END))
            fh.write((_ROW_BREAK if start else "") + _ROW_BREAK.join(map("".join, zip(*texts))))
        fh.write(_ROWS_CLOSE)


def load_dataset(path) -> Dataset:
    """Read a dataset file written by `save_dataset`, or any JSON file of its form.

    The file's bytes are read once. In the writer's layout its rows are
    decoded a block at a time; any other file, or one whose block decode
    finds a fault, is parsed whole by `dataset_from_json(read_json(path))`,
    so every error is that reader's, with its message.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        dataset = _blocks_dataset(data)
    except (ValueError, CatregError):  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        dataset = None
    return dataset if dataset is not None else dataset_from_json(read_json(path))


def _blocks_dataset(data: bytes) -> Dataset | None:
    """The dataset of a file's bytes in the writer's layout, decoded a block of rows
    at a time; None for other bytes or a ragged row, and an error for any other fault."""
    opened, close = data.find(_ROWS_OPEN.encode()), len(data) - len(_ROWS_CLOSE)
    if opened < 0 or not data.endswith(_ROWS_CLOSE.encode()):
        return None
    start = opened + len(_ROWS_OPEN)
    variables = _head_variables(parse_json(data[:start].decode("utf-8") + "]}"))
    cut = (_ROW_END + _ROW_BREAK).encode()
    # every row but the last ends in a row break, and among rows that pass their
    # checks nothing else can, so n is exact for every file this path returns
    n = data.count(cut, start, close) + 1
    arrays = [np.empty(n, np.intp if v.is_categorical else float) for v in variables]
    ids = []
    while start < close:
        end = data.find(cut, start + _READ_BLOCK, close)
        end = close if end < 0 else end + len(_ROW_END)
        values, block_ids = _row_fields(parse_json("[" + data[start:end].decode("utf-8") + "]"))
        columns, ragged = rows_to_columns(values, len(variables))
        if ragged is not None or len(ids) + len(values) > n:
            return None
        for array, col in zip(arrays, _columns_of(variables, columns, block_ids)):
            array[len(ids): len(ids) + len(col)] = col
        ids += block_ids
        start = end + len(_ROW_BREAK)
    variables, ids = _variables_and_ids(variables, ids)
    _check_unique(ids)
    return object.__new__(Dataset)._init(variables, ids, arrays)
