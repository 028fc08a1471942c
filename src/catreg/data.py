"""Dataset model shared by the whole toolkit.

A Variable carries a measurement level (nominal, ordinal or numeric) and, for
categorical levels, its declared category order. A Dataset is an immutable
table of Observations over those variables, validated on construction so that
downstream code can assume a clean rectangle: no missing cells, every
categorical cell a declared category, every numeric cell finite.

A QuantificationMap records the numeric values assigned to categories together
with the affine standardization applied to numeric columns, so that any column
can be reproduced as a plain real vector via `column_as_quantified`.

All public types are frozen dataclasses; instances are safe to share between
threads. Arrays returned by accessors are freshly allocated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, json_object

NOMINAL = "nominal"
ORDINAL = "ordinal"
NUMERIC = "numeric"
LEVELS = (NOMINAL, ORDINAL, NUMERIC)

PREDICTOR = "predictor"
DEPENDENT = "dependent"
ROLES = (PREDICTOR, DEPENDENT)

DATASET_SCHEMA_VERSION = "1"


def _is_real(value) -> bool:
    # bool is an int subclass; it is not a valid numeric cell
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
            if len(set(self.categories)) != len(self.categories):
                raise ValidationError(
                    f"variable '{self.name}' declares duplicate categories"
                )
            for cat in self.categories:
                if not isinstance(cat, str) or not cat:
                    raise ValidationError(
                        f"variable '{self.name}': categories must be non-empty strings"
                    )

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


@dataclass(frozen=True)
class Dataset:
    """An immutable, validated table of observations over declared variables."""

    variables: tuple[Variable, ...]
    rows: tuple[Observation, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "rows", tuple(self.rows))
        names = [v.name for v in self.variables]
        if not names:
            raise ValidationError("dataset declares no variables")
        if len(set(names)) != len(names):
            raise ValidationError("variable names must be unique")
        dependents = [v for v in self.variables if v.role == DEPENDENT]
        if len(dependents) != 1:
            raise ValidationError(
                f"dataset must declare exactly one dependent variable, found {len(dependents)}"
            )
        if dependents[0].level != NUMERIC:
            raise ValidationError("the dependent variable must be numeric")
        if len(self.rows) < 2:
            raise ValidationError("dataset needs at least two rows")
        width = len(self.variables)
        for i, row in enumerate(self.rows):
            if len(row.values) != width:
                raise ValidationError(
                    f"row {self._rid(row, i)}: expected {width} values, got {len(row.values)}"
                )
            for var, cell in zip(self.variables, row.values):
                if var.is_categorical:
                    if not isinstance(cell, str):
                        raise ValidationError(
                            f"row {self._rid(row, i)}, variable '{var.name}': expected a category label"
                        )
                    if cell not in var.categories:
                        raise ValidationError(
                            f"row {self._rid(row, i)}, variable '{var.name}': "
                            f"'{cell}' is not a declared category"
                        )
                else:
                    if not _is_real(cell) or not math.isfinite(cell):
                        raise ValidationError(
                            f"row {self._rid(row, i)}, variable '{var.name}': "
                            f"numeric cell must be a finite number, got {cell!r}"
                        )

    @staticmethod
    def _rid(row: Observation, index: int) -> str:
        return row.row_id if row.row_id is not None else str(index)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def dependent(self) -> Variable:
        for v in self.variables:
            if v.role == DEPENDENT:
                return v
        raise AssertionError("unreachable: validated on construction")

    @property
    def predictors(self) -> tuple[Variable, ...]:
        return tuple(v for v in self.variables if v.role == PREDICTOR)

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise ValidationError(f"unknown variable '{name}'")

    def index(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise ValidationError(f"unknown variable '{name}'")

    def row_id(self, i: int) -> str:
        return self._rid(self.rows[i], i)

    def value(self, i: int, name: str):
        return self.rows[i].values[self.index(name)]

    def column(self, name: str) -> np.ndarray:
        """Numeric column as a float array. Errors on categorical variables."""
        j = self.index(name)
        if self.variables[j].is_categorical:
            raise ValidationError(
                f"variable '{name}' is categorical; use labels() or codes()"
            )
        return np.array([row.values[j] for row in self.rows], dtype=float)

    def labels(self, name: str) -> tuple[str, ...]:
        """Categorical column as its raw labels."""
        j = self.index(name)
        if not self.variables[j].is_categorical:
            raise ValidationError(f"variable '{name}' is numeric; use column()")
        return tuple(row.values[j] for row in self.rows)

    def codes(self, name: str) -> tuple[np.ndarray, tuple[str, ...]]:
        """Categorical column as integer codes over the observed categories.

        Observed categories keep the declared order; codes index into that
        tuple. Unobserved declared categories do not appear.
        """
        var = self.variable(name)
        labels = self.labels(name)
        present = set(labels)
        observed = tuple(c for c in var.categories if c in present)
        lookup = {c: k for k, c in enumerate(observed)}
        codes = np.array([lookup[lbl] for lbl in labels], dtype=int)
        return codes, observed

    def subset(self, indices) -> "Dataset":
        """New dataset with the same variables over the selected rows."""
        rows = []
        for i in indices:
            row = self.rows[i]
            rows.append(Observation(row.values, row_id=self._rid(row, i)))
        return Dataset(self.variables, tuple(rows))


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
        out = np.empty(dataset.n, dtype=float)
        for i, label in enumerate(dataset.labels(variable)):
            if label not in mapping:
                raise ValidationError(
                    f"category '{label}' of variable '{variable}' has no quantification"
                )
            out[i] = mapping[label]
        return out
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
            {
                "name": v.name,
                "level": v.level,
                "categories": list(v.categories),
                "role": v.role,
            }
            for v in dataset.variables
        ],
        "rows": [
            {"id": dataset.row_id(i), "values": list(row.values)}
            for i, row in enumerate(dataset.rows)
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
    for entry in obj.get("variables", []):
        json_object(entry, {"name", "level", "categories", "role"}, "variable entry")
        variables.append(
            Variable(
                name=entry.get("name"),
                level=entry.get("level"),
                categories=tuple(entry.get("categories", ())),
                role=entry.get("role", PREDICTOR),
            )
        )
    rows = []
    for entry in obj.get("rows", []):
        json_object(entry, {"id", "values"}, "row entry")
        rows.append(Observation(tuple(entry.get("values", ())), row_id=entry.get("id")))
    return Dataset(tuple(variables), tuple(rows))


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_json(dataset), fh, indent=2)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return dataset_from_json(json.load(fh))
