"""Optimal-scaling categorical regression with stepwise selection and
cross-validated MMRE benchmarking against a dummy-coded baseline."""

import types

from .data import (
    DEPENDENT,
    NOMINAL,
    NUMERIC,
    ORDINAL,
    PREDICTOR,
    Dataset,
    QuantificationMap,
    Variable,
    column_as_quantified,
    dataset_from_json,
    dataset_to_json,
    load_dataset,
    population_standardize,
    save_dataset,
)
from .errors import CatregError, NumericalError, UnseenCategoryError, ValidationError
from .evaluate import (
    BASELINE,
    CONTENDER,
    DummyDesign,
    EvaluationReport,
    FoldPlan,
    MethodConfigs,
    MethodEvaluation,
    crossval,
    dummy_design,
    fold_plan,
    mmre,
    mre,
)
from .ingest import (
    GearingTable,
    QuestionnaireSchema,
    apply_backfire,
    backfire,
    filter_rows,
    ingest_dataset,
    load_gearing,
    load_responses,
    load_schema,
    log_transform,
)
from .pipeline import (
    PipelineResult,
    RoundRecord,
    SerializedModel,
    compare_baseline,
    load_model,
    predict,
    run_pipeline,
    save_model,
)
from .scaling import CatregConfig, CatregFit, catreg_fit, pava
from .stats import OlsFit, adjusted_r2, ols_fit, t_pvalue
from .stepwise import StepwiseConfig, StepwiseEvent, StepwiseTrace, stepwise_fit

__version__ = "0.1.0"

# every public name imported above; the submodules are attributes, not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
