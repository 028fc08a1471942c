"""End-to-end modeling: quantify, select, iterate to a stable predictor set.

Round r fits the optimal-scaling regression on the current predictor set, then
reruns stepwise selection with every categorical column replaced by its
quantified (standardized) values. Numeric predictors and the response stay on
their raw (log) scale so the selected model's unstandardized coefficients and
intercept apply directly to quantified categories and logged numerics. The
loop stops as soon as one round's selection matches its own input set, or
after max_rounds (flagged as not converged). An empty selection halts with a
flagged, model-less result.

On tall data (more than `stats.BLOCK_ROWS` rows) `catreg_fit` hands the round
its cross products (`stats.Round`), taken from its sweeps' M where it built
one: `stepwise_fit` decides on them, and both final fits read them. Neither
builds the round's quantified columns; the round forms Z' = Q'[1, round
columns, y] (and the columns with it) only where a decision is left to a scan,
an event's p-value is read or a fit is refused (see `stats`). Shorter data,
the sample corpus included, keep their bits.

The final model serializes to a small JSON document (schema version 1):
variable descriptions, category quantifications, coefficients and intercept.
Quantifications may be null placeholders in hand-authored reference files; a
prediction then needs a numeric quantified value instead of a category label.
`predict` applies the recorded input transform (natural log or identity) to
raw numeric inputs and returns both the log-scale estimate and its
exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import LEVELS, NUMERIC, Dataset, column_as_quantified
from .errors import UnseenCategoryError, ValidationError, finite_number, json_list, json_object
from .errors import encode_json, read_json, require_number
from .evaluate import (
    BASELINE,
    CONTENDER,
    EvaluationReport,
    MethodConfigs,
    back_transform,
    crossval,
)
from .scaling import CatregConfig, CatregFit, catreg_fit
from .stats import BLOCK_ROWS
from .stepwise import StepwiseConfig, StepwiseTrace, stepwise_fit

MODEL_SCHEMA_VERSION = "1"

LN_TRANSFORM = "ln"
IDENTITY_TRANSFORM = "identity"


@dataclass(frozen=True)
class RoundRecord:
    """One quantify-then-select round."""

    index: int
    predictors: tuple[str, ...]
    catreg_r2: float
    catreg_adj_r2: float
    trace: StepwiseTrace
    selected: tuple[str, ...]


@dataclass(frozen=True)
class PipelineResult:
    """All rounds plus the final model (None when selection came up empty)."""

    rounds: tuple[RoundRecord, ...]
    converged: bool
    empty_model: bool
    model: "SerializedModel | None"


def _split_ln_name(name: str) -> tuple[str, str]:
    """Map a variable name to (input_field, transform) for prediction inputs."""
    if name.startswith("Ln(") and name.endswith(")") and len(name) > 4:
        return name[3:-1], LN_TRANSFORM
    return name, IDENTITY_TRANSFORM


@dataclass(frozen=True)
class ModelVariable:
    """One model term: categorical with its quantifiable categories, or
    numeric with the transform applied to its raw input."""

    name: str
    level: str
    categories: tuple[str, ...] = ()
    input_field: str = ""
    transform: str = ""

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("model variable name must be a non-empty string")
        if self.level not in LEVELS:
            raise ValidationError(
                f"model variable '{self.name}': unknown level {self.level!r}"
            )
        object.__setattr__(self, "categories", tuple(self.categories))

    @property
    def is_categorical(self) -> bool:
        return self.level != NUMERIC


@dataclass(frozen=True)
class SerializedModel:
    """A fitted (or hand-authored) linear model over quantified inputs.

    quantifications maps each categorical variable to {category -> value}, or
    to None as an explicit placeholder. Every variable carries exactly one
    coefficient; the intercept sits on the same (log) scale as the response
    the model was fitted to.
    """

    variables: tuple[ModelVariable, ...]
    quantifications: dict
    coefficients: dict
    intercept: float

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValidationError("model variables must be unique")
        if set(self.coefficients) != set(names):
            raise ValidationError(
                "coefficients must cover exactly the declared model variables"
            )
        for v in self.variables:
            if v.is_categorical:
                if v.name not in self.quantifications:
                    raise ValidationError(
                        f"categorical variable '{v.name}' needs a quantification entry"
                    )
                qmap = self.quantifications[v.name]
                if qmap is not None:
                    missing = [c for c in v.categories if c not in qmap]
                    if missing:
                        raise ValidationError(
                            f"variable '{v.name}': categories without quantification: {missing}"
                        )
            else:
                if v.transform not in (LN_TRANSFORM, IDENTITY_TRANSFORM):
                    raise ValidationError(
                        f"variable '{v.name}': transform must be '{LN_TRANSFORM}' or "
                        f"'{IDENTITY_TRANSFORM}'"
                    )
                if not isinstance(v.input_field, str) or not v.input_field:
                    raise ValidationError(
                        f"numeric variable '{v.name}' needs an input_field"
                    )

    def linear_estimate(self, values) -> float:
        """Log-scale estimate from already-transformed values keyed by variable name.

        Categorical values may be labels (mapped through the quantification)
        or numbers (used directly as quantified values). Numeric values are
        taken as already being on the model's own scale.
        """
        total = self.intercept
        for v in self.variables:
            if v.name not in values:
                raise ValidationError(f"missing value for model variable '{v.name}'")
            raw = values[v.name]
            coef = self.coefficients[v.name]
            if v.is_categorical:
                total += coef * self._quantify(v, raw)
            else:
                if not finite_number(raw):
                    raise ValidationError(
                        f"variable '{v.name}' expects a finite number, got {raw!r}"
                    )
                total += coef * float(raw)
        return float(total)

    def _quantify(self, variable: ModelVariable, raw) -> float:
        if finite_number(raw):
            return float(raw)
        if not isinstance(raw, str):
            raise ValidationError(
                f"variable '{variable.name}' expects a category label or finite number, "
                f"got {raw!r}"
            )
        qmap = self.quantifications.get(variable.name)
        if qmap is None:
            raise ValidationError(
                f"variable '{variable.name}' has a placeholder quantification; "
                "supply a numeric quantified value instead of a label"
            )
        if raw not in qmap:
            raise UnseenCategoryError(
                f"category '{raw}' of variable '{variable.name}' was not seen at fit time"
            )
        return float(qmap[raw])

    def to_dict(self) -> dict:
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "variables": [
                (
                    {"name": v.name, "level": v.level, "categories": list(v.categories)}
                    if v.is_categorical
                    else {
                        "name": v.name,
                        "level": v.level,
                        "input_field": v.input_field,
                        "transform": v.transform,
                    }
                )
                for v in self.variables
            ],
            "quantifications": {
                name: (dict(qmap) if qmap is not None else None)
                for name, qmap in self.quantifications.items()
            },
            "coefficients": dict(self.coefficients),
            "intercept": self.intercept,
        }

    @classmethod
    def from_dict(cls, obj) -> "SerializedModel":
        fields = {"schema_version", "variables", "quantifications", "coefficients", "intercept"}
        json_object(obj, fields, "model document")
        if obj.get("schema_version") != MODEL_SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported model schema version {obj.get('schema_version')!r}; "
                f"expected {MODEL_SCHEMA_VERSION!r}"
            )
        variables = []
        for entry in json_list(obj.get("variables", []), "model variables"):
            level = entry.get("level") if isinstance(entry, dict) else None
            fields = {"input_field", "transform"} if level == NUMERIC else {"categories"}
            json_object(entry, {"name", "level", *fields}, "variable entry")
            if level == NUMERIC:
                extra = {key: entry.get(key, "") for key in fields}
            else:
                extra = {"categories": tuple(json_list(entry.get("categories", []), "categories"))}
            variables.append(ModelVariable(name=entry.get("name"), level=level, **extra))
        quantifications = obj.get("quantifications", {})
        if not isinstance(quantifications, dict):
            raise ValidationError("quantifications must be an object")
        coefficients = obj.get("coefficients", {})
        if not isinstance(coefficients, dict):
            raise ValidationError("coefficients must be an object")
        for name, qmap in quantifications.items():
            if qmap is not None and not (
                isinstance(qmap, dict) and all(map(finite_number, qmap.values()))
            ):
                raise ValidationError(f"quantifications of '{name}' must be finite numbers")
        for name, value in [*coefficients.items(), ("intercept", obj.get("intercept"))]:
            if not finite_number(value):
                raise ValidationError(f"model value '{name}' must be a finite number")
        return cls(
            variables=tuple(variables),
            quantifications={
                name: (dict(qmap) if qmap is not None else None)
                for name, qmap in quantifications.items()
            },
            coefficients={name: float(v) for name, v in coefficients.items()},
            intercept=float(obj["intercept"]),
        )


def save_model(model: SerializedModel, path) -> None:
    text = encode_json(model.to_dict())  # first, so a failed encode leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path) -> SerializedModel:
    return SerializedModel.from_dict(read_json(path))


def run_pipeline(
    dataset: Dataset,
    catreg_config: CatregConfig | None = None,
    stepwise_config: StepwiseConfig | None = None,
    max_rounds: int = 10,
) -> PipelineResult:
    """Iterate quantification and selection until the predictor set is stable.

    Convergence means a round selected exactly the set it was fitted on
    (order-insensitive). A round selecting nothing halts the loop with
    empty_model=True and no model.
    """
    require_number("max_rounds", max_rounds, integer=True)
    if max_rounds < 1:
        raise ValidationError("max_rounds must be >= 1")
    y = dataset.column(dataset.dependent.name)
    declared = [v.name for v in dataset.predictors]
    if not declared:
        raise ValidationError("the dataset declares no predictors")

    current, tall = list(declared), dataset.n > BLOCK_ROWS
    rounds: list[RoundRecord] = []
    for r in range(1, max_rounds + 1):
        cfit = catreg_fit(dataset, current, catreg_config, _share_round=tall)
        if tall:  # the round's cross products stand for its columns
            columns = dict.fromkeys(current)
        else:
            columns = {name: column_as_quantified(dataset, name, cfit.quantifications)
                       if dataset.variable(name).is_categorical else dataset.column(name)
                       for name in current}
        trace = stepwise_fit(columns, y, stepwise_config, _round=cfit._round)
        rounds.append(RoundRecord(r, tuple(current), cfit.r2, cfit.adj_r2, trace, trace.selected))
        converged = set(trace.selected) == set(current)
        if not trace.selected or converged:
            break
        # next round works on the selection, kept in declared dataset order
        current = [name for name in declared if name in trace.selected]

    model = _build_model(dataset, cfit, trace) if trace.selected else None
    return PipelineResult(tuple(rounds), converged, model is None, model)


def _build_model(dataset: Dataset, cfit: CatregFit, trace: StepwiseTrace) -> SerializedModel:
    fit = trace.fit
    variables = []
    quantifications: dict = {}
    coefficients: dict = {}
    for idx, name in enumerate(fit.names):
        var = dataset.variable(name)
        coefficients[name] = float(fit.coef[idx])
        if var.is_categorical:
            qmap = cfit.quantifications.categorical[name]
            variables.append(ModelVariable(name, var.level, categories=tuple(qmap)))
            quantifications[name] = dict(qmap)
        else:
            field, transform = _split_ln_name(name)
            variables.append(ModelVariable(name, NUMERIC, input_field=field, transform=transform))
    return SerializedModel(
        variables=tuple(variables),
        quantifications=quantifications,
        coefficients=coefficients,
        intercept=float(fit.intercept),
    )


def predict(model: SerializedModel, inputs) -> dict:
    """Evaluate the model on raw inputs.

    inputs is a mapping keyed by each categorical variable's name and each
    numeric variable's input_field. Numeric inputs are transformed per the
    model (ln requires a strictly positive value). Returns the log-scale
    estimate and its exponential.
    """
    if not isinstance(inputs, dict):
        raise ValidationError("inputs must be a mapping")
    expected = {v.name if v.is_categorical else v.input_field for v in model.variables}
    supplied = set(inputs)
    missing = expected - supplied
    if missing:
        raise ValidationError(f"missing inputs: {sorted(missing)}")
    extra = supplied - expected
    if extra:
        raise ValidationError(f"unknown inputs: {sorted(extra)}")
    values = {}
    for v in model.variables:
        if v.is_categorical:
            values[v.name] = inputs[v.name]
            continue
        raw = inputs[v.input_field]
        if not finite_number(raw):
            raise ValidationError(f"input '{v.input_field}' must be a finite number")
        if v.transform == LN_TRANSFORM:
            if not (raw > 0):
                raise ValidationError(
                    f"input '{v.input_field}' must be strictly positive for the log transform"
                )
            values[v.name] = math.log(raw)
        else:
            values[v.name] = float(raw)
    ln_estimate = model.linear_estimate(values)
    return {"ln_estimate": ln_estimate, "defect_estimate": back_transform(ln_estimate)}


def compare_baseline(
    dataset: Dataset, k: int, seed: int, configs: MethodConfigs | None = None
) -> EvaluationReport:
    """Paired k-fold comparison of the dummy-coded baseline and the pipeline."""
    configs = configs or MethodConfigs()
    base = crossval(dataset, k, seed, BASELINE, configs)
    ours = crossval(dataset, k, seed, CONTENDER, configs)
    return EvaluationReport.from_methods(base, ours)
