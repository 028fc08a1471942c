"""CSV ingestion: questionnaire responses to a modeling-ready dataset.

The input is one CSV with a header row: an optional `id` column, the 22
question columns Q1..Q22 (one choice letter each), one or more `sloc:<Language>`
columns, and the metric columns `duration`, `developers`, `defects`. The
items and their choice letters are fixed; a schema sets only their levels.

Processing order: load and validate against the questionnaire schema, convert
source lines to function points through the gearing table (backfiring), apply
natural-log transforms to the size/effort/outcome metrics, then drop flagged
rows (and, optionally, log-scale z-score outliers) to produce a Dataset.

Cells that are present but wrong (an unknown choice letter, a non-numeric
metric, negative source lines) raise ValidationError naming the row and
column. Cells that are merely empty flag the row for removal instead; a blank
sloc cell counts as 0 (a project that does not use that language), and a row
whose total sloc is 0 is flagged. Rows never have values imputed, and
surviving cells are carried through unchanged.

Every stage works on a RawTable held by column: the stripped choice letters
per item, a float array per language and per metric (NaN where a row has no
value), and removal reasons only for the rows that have one. The columns
come from `data.rows_to_columns`, under the dataset reader's ragged-row
rule. The CSV is checked once, column by column, and only a column whose
check fails is searched cell by cell. The error names the first bad cell a
row-at-a-time reader would meet: the earliest row, and within it the
answers, then the sloc columns in header order, then the metrics. A UTF-8
byte-order mark and blank lines at the end of the file are ignored. FP is a
column sum over the languages in declared order, the same float additions as
`backfire`, and the logs are math.log's. The Dataset is built from the
surviving columns.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .data import DEPENDENT, NOMINAL, NUMERIC, ORDINAL, Dataset, Variable, rows_to_columns
from .errors import NumericalError, ValidationError, finite_number, json_object, read_json

# choice-set sizes of the fixed 22-item questionnaire
_QUESTION_CHOICE_COUNTS = {
    "Q1": 3, "Q2": 6, "Q3": 4, "Q4": 5, "Q5": 3, "Q6": 3, "Q7": 3, "Q8": 4,
    "Q9": 5, "Q10": 5, "Q11": 5, "Q12": 3, "Q13": 3, "Q14": 2, "Q15": 5,
    "Q16": 2, "Q17": 2, "Q18": 5, "Q19": 5, "Q20": 5, "Q21": 3, "Q22": 4,
}

_LETTERS = "ABCDEFGHIJ"

SLOC_PREFIX = "sloc:"
ID_COLUMN = "id"

# CSV metric column -> canonical field name
_METRIC_COLUMNS = {
    "duration": "Duration",
    "developers": "Developer",
    "defects": "Defect",
}

LOG_FIELDS = ("FP", "Duration", "Developer", "Defect")


@dataclass(frozen=True)
class QuestionnaireSchema:
    """The fixed 22-item questionnaire and the scaling level of each item.

    `items` are the dataset Variables of Q1..Q22: each item's scaling level
    and its choice letters from `_QUESTION_CHOICE_COUNTS`, as predictors.
    `levels` maps item ids to "ordinal" or "nominal"; items it leaves out are
    ordinal, and the schema keeps its own copy with all 22.
    """

    levels: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.levels, dict):
            raise ValidationError("schema 'levels' must be an object")
        bad = set(self.levels) - set(_QUESTION_CHOICE_COUNTS)
        if bad:
            raise ValidationError(f"schema overrides unknown items: {sorted(bad)}")
        levels = {qid: self.levels.get(qid, ORDINAL) for qid in _QUESTION_CHOICE_COUNTS}
        for qid, level in levels.items():
            if level not in (ORDINAL, NOMINAL):
                raise ValidationError(f"schema item {qid}: level must be ordinal or nominal")
        object.__setattr__(self, "levels", levels)

    @property
    def items(self) -> tuple[Variable, ...]:
        return tuple(
            Variable(qid, self.levels[qid], tuple(_LETTERS[:count]))
            for qid, count in _QUESTION_CHOICE_COUNTS.items()
        )

    @classmethod
    def from_json(cls, obj) -> "QuestionnaireSchema":
        """Parse {"levels": {"Q7": "nominal", ...}}; unlisted items stay ordinal."""
        return cls(json_object(obj, {"levels"}, "schema document").get("levels", {}))


def load_schema(path) -> QuestionnaireSchema:
    return QuestionnaireSchema.from_json(read_json(path))


@dataclass(frozen=True)
class GearingTable:
    """Language -> source lines per function point. Values must be positive.

    Ratios are calibration data, not constants: always load them from
    configuration.
    """

    factors: dict

    def __post_init__(self):
        if not self.factors:
            raise ValidationError("gearing table must list at least one language")
        for lang, ratio in self.factors.items():
            if not isinstance(lang, str) or not lang:
                raise ValidationError("gearing languages must be non-empty strings")
            if isinstance(ratio, bool) or not isinstance(ratio, (int, float)):
                raise ValidationError(f"gearing factor for '{lang}' must be a number")
            if not finite_number(ratio) or not ratio > 0:
                raise ValidationError(f"gearing factor for '{lang}' must be positive")

    def factor(self, language: str) -> float:
        if language not in self.factors:
            raise ValidationError(f"no gearing factor for language '{language}'")
        return float(self.factors[language])

    @classmethod
    def from_json(cls, obj) -> "GearingTable":
        if isinstance(obj, dict):  # keys starting with "_" are comments
            obj = {k: v for k, v in obj.items() if not k.startswith("_")}
        factors = json_object(obj, {"factors"}, "gearing document").get("factors")
        if not isinstance(factors, dict):
            raise ValidationError("gearing document needs a 'factors' object")
        return cls(factors=dict(factors))


def load_gearing(path) -> GearingTable:
    return GearingTable.from_json(read_json(path))


@dataclass
class RawTable:
    """Loaded responses, stored by column, plus the schema and the language columns seen.

    answers: item id -> stripped choice letters, "" where blank
    sloc:    language -> float array, 0.0 where blank
    fields:  field name -> float array, NaN where the row has no value
    flags:   row index -> removal reasons, only for rows that have one
    """

    schema: QuestionnaireSchema
    languages: tuple
    ids: list
    answers: dict
    sloc: dict
    fields: dict
    flags: dict

    @property
    def n(self) -> int:
        return len(self.ids)

    def flag(self, i: int, reason: str) -> None:
        self.flags.setdefault(i, []).append(reason)


def load_responses(path, schema: QuestionnaireSchema | None = None) -> RawTable:
    """Read, validate and flag a responses CSV (see module docstring)."""
    schema = schema or QuestionnaireSchema()
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            records = list(reader)
        except csv.Error as exc:
            raise ValidationError(f"responses CSV, line {reader.line_num}: {exc}") from None
    while records and not records[-1]:  # blank lines at the end of the file
        records.pop()
    if not records:
        raise ValidationError("responses CSV is empty")
    header = [cell.strip() for cell in records.pop(0)]

    if len(set(header)) != len(header):
        raise ValidationError("responses CSV has duplicate column names")
    qids = [item.name for item in schema.items]
    sloc_columns = [c for c in header if c.startswith(SLOC_PREFIX)]
    languages = tuple(c[len(SLOC_PREFIX) :] for c in sloc_columns)
    if any(not lang for lang in languages):
        raise ValidationError("sloc column with an empty language name")
    allowed = {ID_COLUMN, *qids, *_METRIC_COLUMNS, *sloc_columns}
    unknown = [c for c in header if c not in allowed]
    if unknown:
        raise ValidationError(f"responses CSV has unknown columns: {unknown}")
    missing = [c for c in (*qids, *_METRIC_COLUMNS) if c not in header]
    if missing:
        raise ValidationError(f"responses CSV is missing columns: {missing}")
    if not sloc_columns:
        raise ValidationError("responses CSV needs at least one sloc:<Language> column")

    columns, ragged = rows_to_columns(records, len(header))
    table = _parse_columns(dict(zip(header, columns)), schema, languages)
    if ragged is not None:
        raise ValidationError(
            f"row {ragged + 1}: expected {len(header)} cells, got {len(records[ragged])} "
            "(malformed CSV)"
        )
    if len(set(table.ids)) != table.n:
        raise ValidationError("responses CSV has duplicate row identifiers")
    return table


def _parse_columns(cells: dict, schema: QuestionnaireSchema, languages: tuple) -> RawTable:
    """The columns of a rectangular CSV; a bad cell raises the first one's ValidationError.

    Each column names its own first bad cell. The earliest row wins, and
    within a row the column checked first: the answers, the sloc columns in
    header order, then the metrics.
    """
    ids = [str(i) for i in range(len(cells[schema.items[0].name]))]
    if ID_COLUMN in cells:
        ids = [cell.strip() or ids[i] for i, cell in enumerate(cells[ID_COLUMN])]
    table = RawTable(schema, languages, ids, {}, {}, {}, {})
    errors = []  # (row, message): the first bad cell of each column that has one
    for item in schema.items:
        col = cells[item.name]
        allowed = {"", *item.categories}
        seen = set(col)
        if any(cell != cell.strip() for cell in seen):  # an answer column has few distinct cells
            col = list(map(str.strip, col))
            seen = set(col)
        if not seen <= allowed:
            i = next(i for i, cell in enumerate(col) if cell not in allowed)
            errors.append((i, f"row {i + 1}, column {item.name}: '{col[i]}' is not one of "
                              f"{''.join(item.categories)}"))
        for i in _blank_rows(col):
            table.flag(i, f"missing answer for {item.name}")
        table.answers[item.name] = col
    for lang in languages:
        # a blank sloc cell means the language is unused
        column = SLOC_PREFIX + lang
        table.sloc[lang], _ = _floats(column, cells[column], 0.0,
                                      "source line counts must be >= 0", errors)
    for column, canonical in _METRIC_COLUMNS.items():
        values, blank = _floats(column, cells[column], -math.inf, "value must be finite", errors)
        if blank and not errors:  # a table with a bad cell is never returned
            values[blank] = math.nan
            for i in blank:
                table.flag(i, f"missing {column}")
        table.fields[canonical] = values
    if errors:
        raise ValidationError(min(errors, key=operator.itemgetter(0))[1])
    return table


def _floats(column: str, cells: list, minimum: float, rule: str, errors: list) -> tuple:
    """The cells of a column, stripped, as floats (blank cells as 0.0) and the blank rows.

    The first cell that is not a number, or whose value is not finite or is
    below `minimum`, goes into `errors` as (row, message); the array then
    stops at the first non-numeric cell.
    """
    col = list(map(str.strip, cells))
    blank = _blank_rows(col)
    for i in blank:
        col[i] = "0"
    try:
        values = np.array(list(map(float, col)))
    except ValueError:  # read the cells before the first non-numeric one
        parsed = []
        for cell in col:
            try:
                parsed.append(float(cell))
            except ValueError:
                break
        values = np.array(parsed)
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= minimum)))
    if bad.size:
        i = bad[0].item()
        errors.append((i, f"row {i + 1}, column {column}: {rule}"))
    elif len(values) < len(col):
        i = len(values)
        errors.append((i, f"row {i + 1}, column {column}: non-numeric cell '{col[i]}'"))
    return values, blank


def _blank_rows(col: list) -> list:
    rows = []
    for _ in range(col.count("")):
        rows.append(col.index("", rows[-1] + 1 if rows else 0))
    return rows


_FP_OVERFLOW = "function point total overflows the float range"


def backfire(sloc_by_language, gearing: GearingTable) -> float:
    """Function points from source lines: sum of sloc / gearing over languages.

    Additive over languages by construction. Errors on an unknown language or
    a zero total; a total past the float range is a NumericalError.
    """
    total = 0.0
    for language, lines in sloc_by_language.items():
        if isinstance(lines, bool) or not isinstance(lines, (int, float)):
            raise ValidationError(f"sloc for '{language}' must be a number")
        if not finite_number(lines):
            raise ValidationError(f"sloc for '{language}' must be finite")
        if lines < 0:
            raise ValidationError(f"sloc for '{language}' must be >= 0")
        total += lines / gearing.factor(language)
    if total <= 0.0:
        raise ValidationError("total source line count is zero; cannot backfire")
    if not math.isfinite(total):
        raise NumericalError(_FP_OVERFLOW)
    return total


def apply_backfire(table: RawTable, gearing: GearingTable) -> RawTable:
    """Add the FP column; rows with zero total sloc are flagged.

    FP is summed over the languages in declared order from 0.0, the same
    float additions as `backfire` makes for one row.
    """
    factors = [gearing.factor(language) for language in table.languages]
    total = np.zeros(table.n)
    with np.errstate(over="ignore"):  # an infinite total is reported below
        for language, factor in zip(table.languages, factors):
            total = total + table.sloc[language] / factor
    zero = total <= 0.0
    overflow = np.flatnonzero(~np.isfinite(total))
    if overflow.size:
        raise NumericalError(f"row {table.ids[overflow[0]]}: {_FP_OVERFLOW}")
    for i in np.flatnonzero(zero).tolist():
        table.flag(i, "zero total sloc")
    table.fields["FP"] = np.where(zero, math.nan, total)
    return table


def log_transform(table: RawTable) -> RawTable:
    """Replace each of LOG_FIELDS with Ln(<field>); nonpositive values flag the row.

    Rows already missing a field (flagged upstream) are left alone. The logs
    are math.log's, value by value.
    """
    for name in LOG_FIELDS:
        if name not in table.fields:
            continue
        values = table.fields.pop(name)
        for i in np.flatnonzero(values <= 0).tolist():
            table.flag(i, f"nonpositive {name} ({values[i].item():g}); cannot take its log")
        positive = values > 0
        logs = np.full(table.n, math.nan)
        logs[positive] = list(map(math.log, values[positive].tolist()))
        table.fields[f"Ln({name})"] = logs
    return table


def filter_rows(table: RawTable, outlier_zmax: float | None = None):
    """Drop flagged rows (and optional log-scale outliers); build the Dataset.

    Returns (dataset, removal_report) where the report maps row id -> reason.
    Outlier screening, when enabled, computes population z-scores per
    Ln(<field>) column over the unflagged rows and removes any row whose
    absolute z exceeds outlier_zmax on any column. Surviving cell values are
    carried through unchanged.
    """
    if outlier_zmax is not None and not (outlier_zmax > 0):
        raise ValidationError("outlier_zmax must be positive when given")
    ids = table.ids
    removal = {ids[i]: "; ".join(table.flags[i]) for i in sorted(table.flags)}
    survivors = np.setdiff1d(np.arange(table.n), list(table.flags))

    if outlier_zmax is not None and survivors.size:
        flagged: dict = {}
        for name in [name for name in table.fields if name.startswith("Ln(")]:
            values = table.fields[name][survivors]
            scale = float(np.sqrt(np.mean((values - values.mean()) ** 2)))
            if scale == 0.0:
                continue
            z = np.abs((values - values.mean()) / scale)
            hits = z > outlier_zmax
            for i, score in zip(survivors[hits].tolist(), z[hits].tolist()):
                flagged.setdefault(i, []).append(
                    f"outlier on {name} (|z| = {score:.2f} > {outlier_zmax:g})"
                )
        if flagged:
            survivors = np.setdiff1d(survivors, list(flagged))
            for i, reasons in flagged.items():
                removal[ids[i]] = "; ".join(reasons)

    if len(survivors) < 2:
        raise ValidationError(
            f"only {len(survivors)} rows survive filtering; at least 2 are required"
        )

    needed = ("Ln(FP)", "Ln(Developer)", "Ln(Duration)", "Ln(Defect)")
    for name in needed:
        if name not in table.fields:
            raise ValidationError(
                f"row {ids[survivors[0]]} lacks {name}; run backfiring and the log "
                "transform before filtering"
            )
    take = operator.itemgetter(*survivors.tolist())  # a tuple, as at least 2 rows survive
    items = table.schema.items
    variables = (*items, *(Variable(name, NUMERIC) for name in needed[:-1]),
                 Variable(needed[-1], NUMERIC, role=DEPENDENT))
    columns = [take(table.answers[item.name]) for item in items]
    columns += [table.fields[name][survivors].tolist() for name in needed]
    return Dataset(variables, columns, take(ids)), removal


def ingest_dataset(
    responses_path,
    gearing: GearingTable,
    schema: QuestionnaireSchema | None = None,
    outlier_zmax: float | None = None,
):
    """Full ingest: load, backfire, log-transform, filter. Deterministic."""
    table = load_responses(responses_path, schema)
    apply_backfire(table, gearing)
    log_transform(table)
    return filter_rows(table, outlier_zmax)
