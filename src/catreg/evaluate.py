"""Prediction-quality evaluation: MRE/MMRE, dummy-coded baseline, k-fold CV.

The magnitude of relative error of one prediction is |actual - predicted| /
actual, which requires a strictly positive actual. MMRE averages those over
paired arrays of actual and predicted values. By default predictions made on
the log scale are exponentiated back to counts before the error is taken
("count" scale); "log" keeps the raw scale and is flagged in every report.

Fold plans are deterministic: a seeded uniform shuffle followed by round-robin
assignment, so fold sizes differ by at most one and the same (n, k, seed)
always yields the same plan. Two methods share one plan in a comparison, and
test rows showing a category unseen in their training part are excluded from
scoring and counted per fold.

The baseline method dummy-codes categorical predictors (c-1 indicators against
the first observed category) and fits plain least squares; the contender runs
the full quantify-then-select pipeline per training fold. The baseline's one
design is `dummy_design`'s levels and scalings; its `encode` writes matrices.

A fold is a pair of index arrays, and its training part the `Dataset.subset`
over the first. Once every training part has over `stats.BLOCK_ROWS` rows, the
baseline takes the full data's design once, and codes and factorizes each
fold's rows once, keeping only their 0/1 indicators: a training part's R is
that of the other folds' factors, its numeric columns moved to the part's own
mean and scale (a part lacking a category is fitted alone), and the fold's test
rows are its indicators with its numeric columns at that scale. Otherwise the
training part's design codes its rows and the fold's test rows (the contender
maps test rows through the model's quantification tables), and the test rows
are predicted with one matrix product. A row whose category the training part
never showed is masked out of scoring. Each fold is then scored on two arrays,
the actual and predicted values of its scored rows, with one MMRE call. On the
count scale both are first exponentiated by math.exp; only when a value has no
finite count, or a predicted count underflows to 0.0, are the pairs scanned in
row order, so the first value rejected is the one reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .data import Dataset, population_standardize
from .errors import CatregError, NumericalError, ValidationError, require_number
from .scaling import CatregConfig
from .stats import BLOCK_ROWS, _ols, blockwise, ols_fit
from .stepwise import StepwiseConfig

BASELINE = "dummy-ols"
CONTENDER = "catreg-stepwise"
METHODS = (BASELINE, CONTENDER)

COUNT_SCALE = "count"
LOG_SCALE = "log"
MRE_SCALES = (COUNT_SCALE, LOG_SCALE)


def mre(actual, predicted):
    """Magnitude of relative error |actual - predicted| / actual (actual > 0),
    elementwise over paired scalars or arrays; the first bad pair is reported."""
    actual, predicted = np.asarray(actual, dtype=float), np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ValidationError("mre requires paired actual and predicted values")
    bad = ~((actual > 0) & np.isfinite(actual) & np.isfinite(predicted))
    if bad.any():
        first = float(actual[bad][0])
        if not (first > 0) or not math.isfinite(first):
            raise ValidationError(f"mre requires a strictly positive actual, got {first}")
        raise ValidationError("mre requires a finite prediction")
    return np.abs(actual - predicted) / actual


def _count(ln_value: float) -> float:
    # exp of a log-scale value; a value or result that is not finite is a NumericalError
    try:
        count = math.exp(ln_value)
    except OverflowError:
        count = math.inf
    if not (math.isfinite(ln_value) and math.isfinite(count)):
        raise NumericalError(f"log-scale value {ln_value} has no finite count")
    return count


def back_transform(ln_value: float) -> float:
    """exp of a log-scale estimate. A value or count that is not finite, or a count
    that underflows to 0.0, is a NumericalError; a subnormal count is kept."""
    count = _count(ln_value)
    if count == 0.0:
        raise NumericalError(f"log-scale value {ln_value} underflows to a count of 0.0")
    return count


def _counts(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Paired log-scale arrays as the two rows of an array of counts, each by
    math.exp (np.exp can differ in the last bit). When a value has no finite
    count or an estimate a count of 0.0, the pairs are converted again in row
    order and the first is reported; an actual count of 0.0 is left to `mre`."""
    pairs = actual.tolist(), predicted.tolist()
    try:
        counts = np.array([list(map(math.exp, values)) for values in pairs])
        if np.isfinite(counts).all() and counts[1].all():
            return counts
    except OverflowError:
        pass
    return np.array([(_count(a), back_transform(p)) for a, p in zip(*pairs)]).T


def mmre(actual, predicted) -> float:
    """Mean MRE over paired actual and predicted values (non-empty)."""
    errors = mre(actual, predicted)
    if not errors.size:
        raise ValidationError("mmre requires at least one pair")
    return float(np.mean(errors))


@dataclass(frozen=True)
class MethodConfigs:
    """Settings shared by both evaluation methods.

    catreg/stepwise/max_rounds configure the contender pipeline; mre_scale
    controls whether errors are taken on back-transformed counts (default) or
    on the raw log scale.
    """

    catreg: CatregConfig = CatregConfig()
    stepwise: StepwiseConfig = StepwiseConfig()
    max_rounds: int = 10
    mre_scale: str = COUNT_SCALE

    def __post_init__(self):
        require_number("max_rounds", self.max_rounds, integer=True)
        if self.mre_scale not in MRE_SCALES:
            raise ValidationError(f"mre_scale must be one of {MRE_SCALES}")
        if self.max_rounds < 1:
            raise ValidationError("max_rounds must be >= 1")


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic assignment of each row index to a fold in 0..k-1."""

    k: int
    seed: int
    assignment: tuple[int, ...]

    @cached_property
    def _folds(self) -> np.ndarray:
        """The assignment as an intp array, built on first read."""
        return np.fromiter(self.assignment, np.intp, len(self.assignment))

    def fold_indices(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train_indices, test_indices) for one fold: ascending intp arrays."""
        require_number("fold", fold, integer=True)
        if not (0 <= fold < self.k):
            raise ValidationError(f"fold must lie in [0, {self.k})")
        return np.flatnonzero(self._folds != fold), np.flatnonzero(self._folds == fold)


def fold_plan(n: int, k: int, seed: int) -> FoldPlan:
    """Shuffle row indices with the seed, then deal them round-robin into k folds."""
    for name, value in (("n", n), ("k", k), ("seed", seed)):
        require_number(name, value, integer=True)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if n < 2:
        raise ValidationError("fold_plan requires n >= 2")
    if not (2 <= k <= n):
        raise ValidationError(f"k must satisfy 2 <= k <= n (k={k}, n={n})")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % k
    return FoldPlan(k=k, seed=seed, assignment=tuple(assignment.tolist()))


@dataclass(frozen=True)
class DummyDesign:
    """Dummy-coded design: c-1 indicators per categorical (first declared
    observed category as reference), numeric columns standardized. It holds
    the levels and scalings; `encode` writes the matrix of any rows."""

    variables: tuple[str, ...]
    names: tuple[str, ...]
    categorical_levels: dict
    numeric_scaling: dict

    def encode(self, dataset: Dataset, rows) -> tuple[np.ndarray, np.ndarray]:
        """Dummy-code the given rows of dataset with this design's levels and scalings.

        Returns the matrix and a mask that is False on rows showing a category
        the design never observed; their matrix rows carry no meaning. Each
        column is written in place into one column-major float64 matrix, the
        order in which `ols_fit` copies it into LAPACK's buffer. A product with
        the test rows' matrix is taken in row-major order: its sums then run
        along each row as they always have, and give the same bits.
        """
        rows = np.asarray(rows, dtype=np.intp)
        seen = np.ones(rows.size, dtype=bool)
        matrix = np.empty((rows.size, len(self.names)), order="F")
        columns = iter(matrix.T)  # views of matrix's columns, in order
        for name in self.variables:
            if name in self.categorical_levels:
                declared = dataset.variable(name).categories
                observed = [declared.index(c) for c in self.categorical_levels[name]]
                codes = dataset._stored(name)[rows]
                known = np.zeros(len(declared), dtype=bool)
                known[observed] = True
                seen &= known[codes]
                for k in observed[1:]:
                    np.equal(codes, k, out=next(columns))
            else:
                mean, scale = self.numeric_scaling[name]
                next(columns)[:] = (dataset._stored(name)[rows] - mean) / scale
        return matrix, seen


def dummy_design(dataset: Dataset) -> DummyDesign:
    """The dummy-coded design of the dataset's predictors: observed levels and
    numeric scalings, read off the stored columns; `encode` writes the matrix."""
    counts = {v.name: np.bincount(dataset._stored(v.name), minlength=len(v.categories))
              for v in dataset.predictors if v.is_categorical}
    return _design(dataset, counts)


def _design(dataset: Dataset, counts: dict) -> DummyDesign:
    """`dummy_design`, given each categorical predictor's rows per declared category."""
    names = [v.name for v in dataset.predictors]
    if not names:
        raise ValidationError("dummy_design needs at least one predictor")
    col_names: list[str] = []
    categorical_levels: dict = {}
    numeric_scaling: dict = {}
    for var, name in zip(dataset.predictors, names):
        if var.is_categorical:
            observed = tuple(c for c, k in zip(var.categories, counts[name]) if k)
            if len(observed) < 2:
                raise ValidationError(
                    f"categorical predictor '{name}' has a single observed category"
                )
            categorical_levels[name] = observed
            col_names.extend(f"{name}={cat}" for cat in observed[1:])
        else:
            _, mean, scale = population_standardize(dataset._stored(name))
            numeric_scaling[name] = (mean, scale)
            col_names.append(name)
    return DummyDesign(tuple(names), tuple(col_names), categorical_levels, numeric_scaling)


@dataclass(frozen=True)
class FoldOutcome:
    """Scores for one fold of one method."""

    fold: int
    n_train: int
    n_test: int
    n_excluded: int
    mmre_value: float
    note: str = ""


@dataclass(frozen=True)
class MethodEvaluation:
    """Per-fold MMRE for one method under one fold plan."""

    method: str
    k: int
    seed: int
    mre_scale: str
    plan: FoldPlan
    folds: tuple[FoldOutcome, ...]
    average: float

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "k": self.k,
            "seed": self.seed,
            "mre_scale": self.mre_scale,
            "folds": [
                {"fold": f.fold + 1, "n_train": f.n_train, "n_test": f.n_test,
                 "excluded": f.n_excluded, "mmre": f.mmre_value, "note": f.note}
                for f in self.folds
            ],
            "average_mmre": self.average,
        }


def _dummy_fitter(train: Dataset, full: Dataset, rows, configs: MethodConfigs):
    design, y = dummy_design(train), train._stored(full.dependent.name)
    fit = ols_fit(design.encode(train, np.arange(train.n))[0], y, names=design.names)
    matrix, seen = design.encode(full, rows)
    return fit.intercept + np.ascontiguousarray(matrix) @ fit.coef, seen, ""  # see encode


def _shared_dummy_fitter(dataset: Dataset, plan: FoldPlan):
    """fit(fold, train_idx, test_idx) -> `_dummy_fitter`'s triple and errors, or None if
    the training part lacks a category; None if a part is a block or less or the full design fails."""
    n_train = dataset.n - np.bincount(plan._folds).max()  # the smallest training part
    if n_train <= BLOCK_ROWS:
        return None
    counts = {}  # counts[name][f, code]: rows of fold f; their sum gives the observed levels
    for var in dataset.predictors:
        if var.is_categorical:
            c = len(var.categories)
            counts[var.name] = np.bincount(plan._folds * c + dataset._stored(var.name),
                                           minlength=plan.k * c).reshape(plan.k, c)
    try:
        design = _design(dataset, {name: f.sum(axis=0) for name, f in counts.items()})
    except CatregError:
        return None
    y, qr = dataset._stored(dataset.dependent.name), partial(np.linalg.qr, mode="r")

    def code(rows):  # R of the rows [1, X, y] coded with the full data's design, and X as 0/1 bytes
        block = np.c_[np.ones(len(rows)), design.encode(dataset, rows)[0], y[rows]]
        return blockwise(block, qr), block[:, 1:-1].astype(bool).view(np.uint8)  # block is freed

    factors, indicators = zip(*(code(np.flatnonzero(plan._folds == f)) for f in range(plan.k)))
    lacks, numeric, j = np.zeros(plan.k, dtype=bool), [], 1  # j: a column of [1, X, y]
    for name in design.variables:
        if name in design.numeric_scaling:
            numeric.append((j, dataset._stored(name), *design.numeric_scaling[name]))
            j += 1
            continue
        f = counts[name]  # a fold holding all of a category's rows leaves its part without it
        lacks |= ((f == f.sum(axis=0)) & (f > 0)).any(axis=1)
        j += len(design.categorical_levels[name]) - 1

    def fit(fold, train_idx, test_idx):
        if lacks[fold]:
            return None
        R = blockwise(np.vstack(factors[:fold] + factors[fold + 1:]), qr)
        # the test rows, row-major: see encode (numpy casts column-major uint8 to it fast, bool slowly)
        matrix = indicators[fold].astype(float, order="C")
        for j, x, m, s in numeric:  # dummy_design's standardizations, in declared order
            _, m_f, s_f = population_standardize(x[train_idx])
            R[:, j] = R[:, j] * (s / s_f) + R[:, 0] * ((m - m_f) / s_f)
            matrix[:, j - 1] = (x[test_idx] - m_f) / s_f  # as `encode` scales them
        ols = _ols(R, y[train_idx], design.names)  # ols_fit's checks, on R's rows
        # every test row is seen: the levels are the full data's, all in the training part
        return ols.intercept + matrix @ ols.coef, np.ones(len(test_idx), dtype=bool), ""

    return fit


def _contender_fitter(train: Dataset, full: Dataset, rows, configs: MethodConfigs):
    # imported here: pipeline depends on this module for reporting types
    from .pipeline import run_pipeline

    result = run_pipeline(
        train,
        catreg_config=configs.catreg,
        stepwise_config=configs.stepwise,
        max_rounds=configs.max_rounds,
    )
    if result.model is None:
        fallback = float(train._stored(full.dependent.name).mean())
        note = "empty selection; intercept-only fallback"
        return np.full(len(rows), fallback), np.ones(len(rows), dtype=bool), note
    model = result.model
    columns = []
    for mv in model.variables:
        if mv.is_categorical:
            # a category without a quantification was unseen in training: NaN
            qmap = model.quantifications[mv.name]
            table = [qmap.get(c, np.nan) for c in full.variable(mv.name).categories]
            columns.append(np.array(table, dtype=float)[full._stored(mv.name)[rows]])
        else:
            columns.append(full._stored(mv.name)[rows])
    matrix = np.column_stack(columns)
    coef = np.array([model.coefficients[mv.name] for mv in model.variables])
    return model.intercept + matrix @ coef, ~np.isnan(matrix).any(axis=1), ""


# fitter(train, full, rows, configs) -> (estimates for full's rows, a mask that
# is False on rows showing a category train never showed, a note for the report)
_FITTERS = {BASELINE: _dummy_fitter, CONTENDER: _contender_fitter}


def crossval(
    dataset: Dataset,
    k: int,
    seed: int,
    method: str,
    configs: MethodConfigs | None = None,
) -> MethodEvaluation:
    """Evaluate one method under the deterministic k-fold plan for (n, k, seed).

    Preconditions follow from the method itself: every training part must be
    fittable (enough rows, enough observed categories). Test rows whose
    category never occurs in their training part are excluded and counted.
    """
    configs = configs or MethodConfigs()
    if method not in METHODS:
        raise ValidationError(f"method must be one of {METHODS}, got {method!r}")
    plan = fold_plan(dataset.n, k, seed)
    y = dataset._stored(dataset.dependent.name)
    fitter, outcomes = _FITTERS[method], []
    shared = _shared_dummy_fitter(dataset, plan) if fitter is _dummy_fitter else None
    for fold in range(k):
        train_idx, test_idx = plan.fold_indices(fold)
        fitted = shared and shared(fold, train_idx, test_idx)
        estimates, seen, note = fitted or fitter(dataset.subset(train_idx), dataset, test_idx, configs)
        if not seen.any():
            raise ValidationError(
                f"fold {fold + 1}: every test row was excluded; nothing to score"
            )
        actual, predicted = y[test_idx][seen], estimates[seen]
        if configs.mre_scale == COUNT_SCALE:
            actual, predicted = _counts(actual, predicted)
        excluded = len(test_idx) - int(seen.sum())
        outcomes.append(FoldOutcome(fold, len(train_idx), len(test_idx), excluded,
                                    mmre(actual, predicted), note))
    average = float(np.mean([f.mmre_value for f in outcomes]))
    return MethodEvaluation(method, k, seed, configs.mre_scale, plan, tuple(outcomes), average)


@dataclass(frozen=True)
class EvaluationReport:
    """Paired per-fold comparison of the two methods under one fold plan.

    improvement is baseline minus contender, per fold and on the averages;
    excluded counts are reported per method and fold.
    """

    k: int
    seed: int
    mre_scale: str
    baseline: tuple[float, ...]
    contender: tuple[float, ...]
    improvement: tuple[float, ...]
    baseline_avg: float
    contender_avg: float
    improvement_avg: float
    baseline_excluded: tuple[int, ...]
    contender_excluded: tuple[int, ...]
    notes: tuple[str, ...] = ()

    @classmethod
    def from_fold_mmres(
        cls,
        baseline,
        contender,
        k: int | None = None,
        seed: int = 0,
        mre_scale: str = COUNT_SCALE,
        baseline_excluded=None,
        contender_excluded=None,
        notes=(),
    ) -> "EvaluationReport":
        baseline = tuple(float(v) for v in baseline)
        contender = tuple(float(v) for v in contender)
        if len(baseline) != len(contender) or not baseline:
            raise ValidationError("per-fold MMRE lists must be non-empty and paired")
        improvement = tuple(b - m for b, m in zip(baseline, contender))
        return cls(
            k=k if k is not None else len(baseline),
            seed=seed,
            mre_scale=mre_scale,
            baseline=baseline,
            contender=contender,
            improvement=improvement,
            baseline_avg=float(np.mean(baseline)),
            contender_avg=float(np.mean(contender)),
            improvement_avg=float(np.mean(improvement)),
            baseline_excluded=tuple(baseline_excluded or (0,) * len(baseline)),
            contender_excluded=tuple(contender_excluded or (0,) * len(contender)),
            notes=tuple(notes),
        )

    @classmethod
    def from_methods(
        cls, baseline: MethodEvaluation, contender: MethodEvaluation
    ) -> "EvaluationReport":
        if baseline.plan != contender.plan:
            raise ValidationError("paired comparison requires one shared fold plan")
        notes = []
        for src in (baseline, contender):
            for f in src.folds:
                if f.note:
                    notes.append(f"{src.method} fold {f.fold + 1}: {f.note}")
        return cls.from_fold_mmres(
            [f.mmre_value for f in baseline.folds],
            [f.mmre_value for f in contender.folds],
            k=baseline.k,
            seed=baseline.seed,
            mre_scale=baseline.mre_scale,
            baseline_excluded=[f.n_excluded for f in baseline.folds],
            contender_excluded=[f.n_excluded for f in contender.folds],
            notes=notes,
        )

    def as_dict(self) -> dict:
        folds = [
            {
                "fold": i + 1,
                BASELINE: self.baseline[i],
                CONTENDER: self.contender[i],
                "improvement": self.improvement[i],
                "excluded": {
                    BASELINE: self.baseline_excluded[i],
                    CONTENDER: self.contender_excluded[i],
                },
            }
            for i in range(len(self.baseline))
        ]
        return {
            "k": self.k,
            "seed": self.seed,
            "mre_scale": self.mre_scale,
            "folds": folds,
            "average": {
                BASELINE: self.baseline_avg,
                CONTENDER: self.contender_avg,
                "improvement": self.improvement_avg,
            },
            "notes": list(self.notes),
        }

    def as_table(self) -> str:
        """Aligned text table: one row per fold plus the average row."""
        header = ["fold", BASELINE, CONTENDER, "improvement"]
        rows = [
            [str(i + 1), *(f"{v:.4f}" for v in values)]
            for i, values in enumerate(zip(self.baseline, self.contender, self.improvement))
        ]
        averages = (self.baseline_avg, self.contender_avg, self.improvement_avg)
        rows.append(["average", *(f"{v:.4f}" for v in averages)])
        widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))]
        lines = [
            f"MMRE by fold ({self.mre_scale} scale, k={self.k}, seed={self.seed})",
            "  ".join(h.ljust(widths[c]) for c, h in enumerate(header)),
        ]
        for r in rows:
            lines.append("  ".join(r[c].ljust(widths[c]) for c in range(len(header))))
        excluded_total = sum(self.baseline_excluded) + sum(self.contender_excluded)
        if excluded_total:
            lines.append(
                f"excluded rows (unseen categories): {BASELINE} "
                f"{sum(self.baseline_excluded)}, {CONTENDER} {sum(self.contender_excluded)}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
