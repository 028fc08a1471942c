"""CSV ingestion: questionnaire responses to a modeling-ready dataset.

The input is one CSV with a header row: an optional `id` column, the 22
question columns Q1..Q22 (one choice letter each), one or more `sloc:<Language>`
columns, and the metric columns `duration`, `developers`, `defects`.

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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .data import (
    DEPENDENT,
    NUMERIC,
    ORDINAL,
    PREDICTOR,
    Dataset,
    Observation,
    Variable,
)
from .errors import NumericalError, ValidationError, finite_number, json_object, parse_json

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
class SchemaItem:
    """One questionnaire item: id, its choice letters, and its scaling level."""

    qid: str
    choices: tuple[str, ...]
    level: str

    def __post_init__(self):
        if self.level not in (ORDINAL, "nominal"):
            raise ValidationError(
                f"schema item {self.qid}: level must be ordinal or nominal"
            )


@dataclass(frozen=True)
class QuestionnaireSchema:
    """The fixed 22-item questionnaire.

    The structure (item ids Q1..Q22 and their choice counts) is pinned; a JSON
    override may only change per-item scaling levels, which default to
    ordinal.
    """

    items: tuple[SchemaItem, ...]

    def __post_init__(self):
        expected = [f"Q{i}" for i in range(1, 23)]
        if [item.qid for item in self.items] != expected:
            raise ValidationError("schema must declare exactly Q1..Q22, in order")
        for item in self.items:
            want = tuple(_LETTERS[: _QUESTION_CHOICE_COUNTS[item.qid]])
            if item.choices != want:
                raise ValidationError(
                    f"schema item {item.qid}: choices must be {''.join(want)}"
                )

    @classmethod
    def default(cls) -> "QuestionnaireSchema":
        items = tuple(
            SchemaItem(qid, tuple(_LETTERS[:count]), ORDINAL)
            for qid, count in _QUESTION_CHOICE_COUNTS.items()
        )
        return cls(items)

    @classmethod
    def from_json(cls, obj) -> "QuestionnaireSchema":
        """Parse {"levels": {"Q7": "nominal", ...}}; unlisted items stay ordinal."""
        levels = json_object(obj, {"levels"}, "schema document").get("levels", {})
        if not isinstance(levels, dict):
            raise ValidationError("schema 'levels' must be an object")
        bad = set(levels) - set(_QUESTION_CHOICE_COUNTS)
        if bad:
            raise ValidationError(f"schema overrides unknown items: {sorted(bad)}")
        items = tuple(
            SchemaItem(
                qid,
                tuple(_LETTERS[:count]),
                levels.get(qid, ORDINAL),
            )
            for qid, count in _QUESTION_CHOICE_COUNTS.items()
        )
        return cls(items)


def load_schema(path) -> QuestionnaireSchema:
    with open(path, "r", encoding="utf-8") as fh:
        return QuestionnaireSchema.from_json(parse_json(fh.read()))


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
        if not isinstance(obj, dict):
            raise ValidationError("gearing document must be a JSON object")
        # keys starting with "_" are comments
        meaningful = {k: v for k, v in obj.items() if not k.startswith("_")}
        unknown = set(meaningful) - {"factors"}
        if unknown:
            raise ValidationError(f"gearing document has unknown fields: {sorted(unknown)}")
        factors = meaningful.get("factors")
        if not isinstance(factors, dict):
            raise ValidationError("gearing document needs a 'factors' object")
        return cls(factors=dict(factors))


def load_gearing(path) -> GearingTable:
    with open(path, "r", encoding="utf-8") as fh:
        return GearingTable.from_json(parse_json(fh.read()))


@dataclass
class RawRow:
    """One response row while it moves through the ingest steps."""

    row_id: str
    answers: dict
    sloc: dict
    fields: dict
    flags: list = field(default_factory=list)


@dataclass
class RawTable:
    """Loaded responses plus the schema and the language columns seen."""

    schema: QuestionnaireSchema
    languages: tuple
    rows: list


def load_responses(path, schema: QuestionnaireSchema | None = None) -> RawTable:
    """Read, validate and flag a responses CSV (see module docstring)."""
    schema = schema or QuestionnaireSchema.default()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise ValidationError("responses CSV is empty") from None
        records = list(reader)

    if len(set(header)) != len(header):
        raise ValidationError("responses CSV has duplicate column names")
    qids = [item.qid for item in schema.items]
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
    col = {name: header.index(name) for name in header}

    rows: list[RawRow] = []
    for i, record in enumerate(records):
        where = f"row {i + 1}"
        if len(record) != len(header):
            raise ValidationError(
                f"{where}: expected {len(header)} cells, got {len(record)} (malformed CSV)"
            )
        row_id = record[col[ID_COLUMN]].strip() if ID_COLUMN in col else str(i)
        if ID_COLUMN in col and not row_id:
            row_id = str(i)
        flags: list[str] = []
        answers: dict = {}
        for item in schema.items:
            cell = record[col[item.qid]].strip()
            if not cell:
                flags.append(f"missing answer for {item.qid}")
                continue
            if cell not in item.choices:
                raise ValidationError(
                    f"{where}, column {item.qid}: '{cell}' is not one of "
                    f"{''.join(item.choices)}"
                )
            answers[item.qid] = cell
        sloc: dict = {}
        for lang, column in zip(languages, sloc_columns):
            cell = record[col[column]].strip()
            if not cell:
                sloc[lang] = 0.0  # blank sloc means the language is unused
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{where}, column {column}: non-numeric cell '{cell}'"
                ) from None
            if value < 0 or not math.isfinite(value):
                raise ValidationError(
                    f"{where}, column {column}: source line counts must be >= 0"
                )
            sloc[lang] = value
        fields: dict = {}
        for column, canonical in _METRIC_COLUMNS.items():
            cell = record[col[column]].strip()
            if not cell:
                flags.append(f"missing {column}")
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{where}, column {column}: non-numeric cell '{cell}'"
                ) from None
            if not math.isfinite(value):
                raise ValidationError(f"{where}, column {column}: value must be finite")
            fields[canonical] = value
        rows.append(RawRow(row_id=row_id, answers=answers, sloc=sloc, fields=fields, flags=flags))
    ids = [row.row_id for row in rows]
    if len(set(ids)) != len(ids):
        raise ValidationError("responses CSV has duplicate row identifiers")
    return RawTable(schema=schema, languages=languages, rows=rows)


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
        raise NumericalError("function point total overflows the float range")
    return total


def apply_backfire(table: RawTable, gearing: GearingTable) -> RawTable:
    """Add the FP field to every row; rows with zero total sloc are flagged."""
    for language in table.languages:
        gearing.factor(language)  # unknown language is a configuration error
    for row in table.rows:
        try:
            row.fields["FP"] = backfire(row.sloc, gearing)
        except ValidationError:
            row.flags.append("zero total sloc")
        except NumericalError as exc:
            raise NumericalError(f"row {row.row_id}: {exc}") from None
    return table


def log_transform(table: RawTable, fields=LOG_FIELDS) -> RawTable:
    """Replace each named field with Ln(<field>); nonpositive values flag the row.

    Rows already missing a field (flagged upstream) are left alone.
    """
    for row in table.rows:
        for name in fields:
            if name not in row.fields:
                continue
            value = row.fields.pop(name)
            if value <= 0:
                row.flags.append(f"nonpositive {name} ({value:g}); cannot take its log")
                continue
            row.fields[f"Ln({name})"] = math.log(value)
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
    removal: dict = {}
    survivors: list[RawRow] = []
    for row in table.rows:
        if row.flags:
            removal[row.row_id] = "; ".join(row.flags)
        else:
            survivors.append(row)

    if outlier_zmax is not None and survivors:
        ln_fields = [name for name in survivors[0].fields if name.startswith("Ln(")]
        flagged: dict = {}
        for name in ln_fields:
            values = np.array([row.fields[name] for row in survivors], dtype=float)
            scale = float(np.sqrt(np.mean((values - values.mean()) ** 2)))
            if scale == 0.0:
                continue
            z = (values - values.mean()) / scale
            for row, score in zip(survivors, z):
                if abs(score) > outlier_zmax:
                    flagged.setdefault(row.row_id, []).append(
                        f"outlier on {name} (|z| = {abs(score):.2f} > {outlier_zmax:g})"
                    )
        if flagged:
            survivors = [row for row in survivors if row.row_id not in flagged]
            for row_id, reasons in flagged.items():
                removal[row_id] = "; ".join(reasons)

    if len(survivors) < 2:
        raise ValidationError(
            f"only {len(survivors)} rows survive filtering; at least 2 are required"
        )

    variables = [
        Variable(item.qid, item.level, item.choices, PREDICTOR)
        for item in table.schema.items
    ]
    variables += [
        Variable("Ln(FP)", NUMERIC, role=PREDICTOR),
        Variable("Ln(Developer)", NUMERIC, role=PREDICTOR),
        Variable("Ln(Duration)", NUMERIC, role=PREDICTOR),
        Variable("Ln(Defect)", NUMERIC, role=DEPENDENT),
    ]
    observations = []
    needed = ("Ln(FP)", "Ln(Developer)", "Ln(Duration)", "Ln(Defect)")
    for row in survivors:
        for name in needed:
            if name not in row.fields:
                raise ValidationError(
                    f"row {row.row_id} lacks {name}; run backfiring and the log "
                    "transform before filtering"
                )
        values = [row.answers[item.qid] for item in table.schema.items]
        values += [row.fields[name] for name in needed]
        observations.append(Observation(tuple(values), row_id=row.row_id))
    dataset = Dataset(tuple(variables), tuple(observations))
    return dataset, removal


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
