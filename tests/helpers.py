"""Shared dataset builders and test-only oracles. Everything is seeded."""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

import catreg.stats
from catreg import (
    DEPENDENT,
    NUMERIC,
    ORDINAL,
    PREDICTOR,
    CatregConfig,
    Dataset,
    NumericalError,
    QuantificationMap,
    QuestionnaireSchema,
    UnseenCategoryError,
    ValidationError,
    Variable,
    backfire,
    dataset_to_json,
    dummy_design,
    ols_fit,
    pava,
    population_standardize,
    run_pipeline,
)
from catreg.data import rows_to_columns
from catreg.stats import FLAT_RESPONSE, NONFINITE, RANK_DEFICIENT, TOO_FEW_ROWS
from catreg.stats import BLOCK_ROWS, _ols, adjusted_r2, entry_scan, removal_scan, rotation
from catreg.stats import t_pvalue
from catreg.stepwise import ENTERED, REMOVED, StepwiseConfig, StepwiseEvent, StepwiseTrace

LETTERS = "ABCDEFGHIJ"


def assert_raises_exactly(call, exc_type, message: str) -> None:
    """call() raises exc_type itself (not a subclass) with exactly this message."""
    with pytest.raises(exc_type) as info:
        call()
    assert type(info.value) is exc_type
    assert str(info.value) == message


def dataset_of_rows(variables, rows, ids=None) -> Dataset:
    """A Dataset from rectangular rows of cells, built by column; `ids` defaults
    to None for every row, so that a row is known by its position."""
    variables, rows = tuple(variables), list(rows)
    columns, ragged = rows_to_columns(rows, len(variables))
    assert ragged is None, f"row {ragged} has {len(rows[ragged])} cells, not {len(variables)}"
    return Dataset(variables, columns, [None] * len(rows) if ids is None else ids)


def numeric_dataset(seed: int, n: int, p: int) -> Dataset:
    """Random linear signal over p numeric predictors plus noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    beta = rng.normal(size=p)
    y = X @ beta + rng.normal(scale=0.5, size=n)
    variables = tuple(
        [Variable(f"x{j + 1}", "numeric") for j in range(p)]
        + [Variable("y", "numeric", role="dependent")]
    )
    rows = (tuple(float(v) for v in X[i]) + (float(y[i]),) for i in range(n))
    return dataset_of_rows(variables, rows)


def _codes_with_all_categories(rng, n: int, n_cats: int) -> np.ndarray:
    codes = np.concatenate([np.arange(n_cats), rng.integers(0, n_cats, n - n_cats)])
    rng.shuffle(codes)
    return codes


def single_cat_dataset(seed: int, n: int, n_cats: int, level: str = "nominal") -> Dataset:
    """One categorical predictor with per-category effects plus noise."""
    rng = np.random.default_rng(seed)
    codes = _codes_with_all_categories(rng, n, n_cats)
    effects = rng.normal(size=n_cats)
    if level == "ordinal":
        effects = np.sort(effects)
    y = effects[codes] + rng.normal(scale=0.6, size=n)
    cats = tuple(LETTERS[:n_cats])
    variables = (
        Variable("c", level, cats),
        Variable("y", "numeric", role="dependent"),
    )
    rows = ((cats[codes[i]], float(y[i])) for i in range(n))
    return dataset_of_rows(variables, rows)


def mixed_dataset(seed: int, n: int = 80) -> Dataset:
    """Ordinal + nominal + two numeric predictors with genuine signal."""
    rng = np.random.default_rng(seed)
    o1 = _codes_with_all_categories(rng, n, 4)
    n1 = _codes_with_all_categories(rng, n, 3)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = (
        np.array([0.0, 0.7, 1.5, 2.1])[o1]
        + np.array([0.0, 1.2, -0.8])[n1]
        + 0.9 * x1
        + rng.normal(scale=0.5, size=n)
    )
    A = tuple(LETTERS[:4])
    B = tuple(LETTERS[:3])
    variables = (
        Variable("ord1", "ordinal", A),
        Variable("nom1", "nominal", B),
        Variable("num1", "numeric"),
        Variable("num2", "numeric"),
        Variable("y", "numeric", role="dependent"),
    )
    rows = ((A[o1[i]], B[n1[i]], float(x1[i]), float(x2[i]), float(y[i])) for i in range(n))
    return dataset_of_rows(variables, rows)


def planted_pipeline_dataset(seed: int, n: int = 160) -> Dataset:
    """Three informative predictors (ordinal, nominal, numeric) plus two noise
    predictors (ordinal, numeric). The informative set is {ord1, nom1, num1}."""
    rng = np.random.default_rng(seed)
    o1 = _codes_with_all_categories(rng, n, 4)
    n1 = _codes_with_all_categories(rng, n, 3)
    o2 = _codes_with_all_categories(rng, n, 3)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = (
        np.array([0.0, 0.8, 1.6, 2.4])[o1]
        + np.array([0.0, 1.5, -1.0])[n1]
        + 1.2 * x1
        + rng.normal(scale=0.5, size=n)
    )
    A = tuple(LETTERS[:4])
    B = tuple(LETTERS[:3])
    variables = (
        Variable("ord1", "ordinal", A),
        Variable("nom1", "nominal", B),
        Variable("ord2", "ordinal", B),
        Variable("num1", "numeric"),
        Variable("num2", "numeric"),
        Variable("y", "numeric", role="dependent"),
    )
    rows = (
        (A[o1[i]], B[n1[i]], B[o2[i]], float(x1[i]), float(x2[i]), float(y[i]))
        for i in range(n)
    )
    return dataset_of_rows(variables, rows)


PLANTED_SET = {"ord1", "nom1", "num1"}


def assert_quantification_constraints(dataset: Dataset, fit, tol: float = 1e-9) -> None:
    """Every quantified categorical column must have mean ~0 and mean square ~1."""
    for name, mapping in fit.quantifications.categorical.items():
        categories = dataset.variable(name).categories
        values = np.array([mapping[categories[k]] for k in dataset._stored(name)])
        assert abs(values.mean()) < tol, f"{name}: mean {values.mean()}"
        assert abs(np.mean(values**2) - 1.0) < tol, f"{name}: ms {np.mean(values**2)}"
    for name, (mean, scale) in fit.quantifications.numeric.items():
        col = (dataset.column(name) - mean) / scale
        assert abs(col.mean()) < tol
        assert abs(np.mean(col**2) - 1.0) < tol


def assert_ordinal_monotone(dataset: Dataset, fit) -> None:
    """Ordinal quantifications must be non-decreasing in declared category order."""
    for name, mapping in fit.quantifications.categorical.items():
        var = dataset.variable(name)
        if var.level != "ordinal":
            continue
        values = [mapping[c] for c in var.categories if c in mapping]
        for a, b in zip(values, values[1:]):
            assert a <= b, f"{name}: quantification not monotone ({values})"


def assert_trace_monotone(fit, tol: float = 1e-12) -> None:
    trace = fit.r2_trace
    for a, b in zip(trace, trace[1:]):
        assert b - a >= -tol, f"R^2 trace decreased: {a} -> {b}"


def count_pvalues(monkeypatch) -> list:
    """Record every evaluation of `catreg.stats.t_pvalue`, the package's only
    p-value path, as (t, df); returns the growing record."""
    calls = []

    def counted(t, df):
        calls.append((t, df))
        return t_pvalue(t, df)

    monkeypatch.setattr(catreg.stats, "t_pvalue", counted)
    return calls


# --- oracles ---------------------------------------------------------------
# The straightforward implementations that the library replaced: a least
# squares fit by SVD rank screen + QR solve + inv(R), a stepwise entry scan
# that refits every candidate from scratch, and (further down) the ALS loop
# before it was simplified. Kept only to check the library code against.


def oracle_ols_fit(design, response, names=None):
    """Intercept model fit by SVD rank screen, QR solve and inv(R)."""
    X0 = np.asarray(design, dtype=float)
    if X0.ndim == 1:
        X0 = X0.reshape(-1, 1)
    y = np.asarray(response, dtype=float)
    if not np.all(np.isfinite(X0)) or not np.all(np.isfinite(y)):
        raise ValidationError("design and response must be finite")
    n, p = X0.shape
    if n <= p + 1:
        raise ValidationError(
            f"too few rows for inference: n={n} must exceed {p + 1} fitted parameters"
        )
    X = np.column_stack([np.ones(n), X0])
    singular = np.linalg.svd(X, compute_uv=False)
    if singular[0] == 0.0 or singular[-1] <= singular[0] * 1e-10:
        raise NumericalError(
            "design matrix is rank-deficient (singular value ratio below 1e-10)"
        )
    Q, R = np.linalg.qr(X)
    b = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ b
    sse = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    if sst <= 0.0 or np.ptp(y) == 0.0:
        raise ValidationError("response has zero variance")
    r2 = min(1.0, max(0.0, 1.0 - sse / sst))
    df = n - p - 1
    Rinv = np.linalg.inv(R)
    se = np.sqrt(np.maximum(sse / df * np.einsum("ij,ij->i", Rinv, Rinv), 0.0))
    tstat = np.empty(p + 1)
    pvalue = np.empty(p + 1)
    for j in range(p + 1):
        if se[j] == 0.0:
            tstat[j] = 0.0 if b[j] == 0.0 else math.copysign(math.inf, b[j])
            pvalue[j] = 1.0 if b[j] == 0.0 else 0.0
        else:
            tstat[j] = b[j] / se[j]
            pvalue[j] = t_pvalue(tstat[j], df)
    return SimpleNamespace(
        names=tuple(names) if names is not None else tuple(f"x{j + 1}" for j in range(p)),
        coef=b[1:],
        intercept=float(b[0]),
        stderr=se[1:],
        tstat=tstat[1:],
        pvalue=pvalue[1:],
        r2=r2,
        adj_r2=adjusted_r2(r2, n, p),
    )


def _oracle_fit_or_none(cols, names, y, diagnostics, step, context):
    try:
        return oracle_ols_fit(np.column_stack([cols[name] for name in names]), y, names)
    except (NumericalError, ValidationError) as exc:
        diagnostics.append(f"step {step}: {context} skipped ({exc})")
        return None


def oracle_stepwise_fit(columns, response, config=None) -> StepwiseTrace:
    """Stepwise selection that refits every entry candidate with oracle_ols_fit."""
    cfg = config or StepwiseConfig()
    names = list(columns)
    y = np.asarray(response, dtype=float)
    cols = {name: np.asarray(columns[name], dtype=float) for name in names}
    max_steps = cfg.max_steps if cfg.max_steps is not None else 2 * len(names)
    included: list[str] = []
    events: list[StepwiseEvent] = []
    diagnostics: list[str] = []
    for step in range(1, max_steps + 1):
        changed = False
        best_name, best_p = None, None
        for name in names:
            if name in included:
                continue
            fit = _oracle_fit_or_none(
                cols, included + [name], y, diagnostics, step, f"candidate '{name}'"
            )
            if fit is None:
                continue
            p = float(fit.pvalue[-1])
            if best_p is None or p < best_p:
                best_name, best_p = name, p
        if best_name is not None and best_p < cfg.alpha_enter:
            included.append(best_name)
            events.append(StepwiseEvent(step, best_name, ENTERED, best_p))
            changed = True
        while included:
            fit = _oracle_fit_or_none(cols, included, y, diagnostics, step, "included set")
            if fit is None:
                raise NumericalError(
                    f"step {step}: the included set {included} cannot be fitted"
                )
            worst_idx, worst_p = None, None
            for idx in sorted(range(len(included)), key=lambda i: names.index(included[i])):
                p = float(fit.pvalue[idx])
                if worst_p is None or p > worst_p:
                    worst_idx, worst_p = idx, p
            if worst_p > cfg.alpha_remove:
                events.append(StepwiseEvent(step, included.pop(worst_idx), REMOVED, worst_p))
                changed = True
            else:
                break
        if not changed:
            break
    final = oracle_ols_fit(
        np.column_stack([cols[name] for name in included]), y, included
    ) if included else None
    return StepwiseTrace(tuple(events), tuple(included), final, tuple(diagnostics))



def reference_stepwise_fit(columns, response, config=None) -> StepwiseTrace:
    """The stepwise loop before its decisions were read off the cross-product
    matrix: every entry and removal decided by `stats.entry_scan` and
    `stats.removal_scan` on Z' = Q'[1, finite columns, y], and every step that
    entered nothing still scanning for removals. The reported fit is `ols_fit`
    on the data, read off Z' above BLOCK_ROWS rows and where the data's rank
    screen refuses the set. Kept to check the library's events, selection,
    diagnostics and fit against, bit for bit."""
    cfg = config or StepwiseConfig()
    if not columns:
        raise ValidationError("stepwise_fit needs at least one candidate column")
    names = list(columns.keys())
    y = np.asarray(response, dtype=float)
    if y.ndim != 1:
        raise ValidationError("response must be a 1-d array")
    cols: dict[str, np.ndarray] = {}
    for name in names:
        arr = np.asarray(columns[name], dtype=float)
        if arr.ndim != 1 or arr.size != y.size:
            raise ValidationError(
                f"column '{name}' must be 1-d and match the response length"
            )
        cols[name] = arr
    max_steps = cfg.max_steps if cfg.max_steps is not None else 2 * len(names)
    n = y.size

    finite = []
    if np.isfinite(y).all():
        finite = [name for name in names if np.isfinite(cols[name]).all()]
    flat = bool(finite) and (np.ptp(y) == 0.0 or float(((y - y.mean()) ** 2).sum()) <= 0.0)
    at = {name: j + 1 for j, name in enumerate(finite)}  # column of Z
    if finite:
        Z = rotation([cols[name] for name in finite], y)

    included: list[str] = []
    events: list[StepwiseEvent] = []
    diagnostics: list[str] = []

    for step in range(1, max_steps + 1):
        changed = False

        pending = [name for name in names if name not in included]
        reasons = dict.fromkeys(pending, NONFINITE)
        scored = [name for name in pending if name in at]
        k = len(included) + 1
        if scored and n <= k + 1:
            reasons.update(dict.fromkeys(scored, TOO_FEW_ROWS.format(n, k + 1)))
        elif scored:
            best, best_p, deficient = entry_scan(
                Z[:, [0, *(at[name] for name in included)]],
                Z[:, [at[name] for name in scored]],
                Z[:, -1],
                n,
            )
            for name, bad in zip(scored, deficient):
                reasons[name] = RANK_DEFICIENT if bad else (FLAT_RESPONSE if flat else None)
            if not flat and best is not None and best_p < cfg.alpha_enter:
                included.append(scored[best])
                events.append(StepwiseEvent(step, scored[best], ENTERED, best_p))
                changed = True
        diagnostics.extend(
            f"step {step}: candidate '{name}' skipped ({why})"
            for name, why in reasons.items()
            if why is not None
        )

        while included:
            z_cols = [at[name] for name in included]
            try:
                worst, worst_p = removal_scan(Z[:, [0, *z_cols, -1]], n, z_cols, cfg.alpha_remove)
            except (NumericalError, ValidationError) as exc:
                raise NumericalError(
                    f"step {step}: the included set {included} cannot be fitted") from exc
            if worst is None:
                break
            events.append(StepwiseEvent(step, included.pop(worst), REMOVED, worst_p))
            changed = True

        if not changed:
            break

    fit = None
    if included:
        try:
            if n <= BLOCK_ROWS:
                try:
                    fit = ols_fit(np.column_stack([cols[name] for name in included]), y,
                                  names=included)
                except NumericalError:
                    pass
            if fit is None:
                fit = _ols(Z[:, [0, *(at[name] for name in included), -1]], y, included)
        except (NumericalError, ValidationError) as exc:
            raise NumericalError(
                f"step {step}: the included set {included} cannot be fitted") from exc
    return StepwiseTrace(tuple(events), tuple(included), fit, tuple(diagnostics))

# The row-tuple Dataset and the per-row fold prediction that the columnar
# Dataset and the batch fold predictors replaced.


@dataclass(frozen=True)
class OracleRow:
    """One row of an OracleDataset: a cell per declared variable, and an optional id."""

    values: tuple
    row_id: str | None = None


@dataclass(frozen=True)
class OracleDataset:
    """The row-tuple table that catreg.Dataset replaced: cells kept as given,
    validated row by row, re-validated by subset."""

    variables: tuple[Variable, ...]
    rows: tuple[OracleRow, ...]

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
                    if isinstance(cell, bool) or not isinstance(cell, (int, float)) or not math.isfinite(cell):
                        raise ValidationError(
                            f"row {self._rid(row, i)}, variable '{var.name}': "
                            f"numeric cell must be a finite number, got {cell!r}"
                        )

    @staticmethod
    def _rid(row: OracleRow, index: int) -> str:
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

    def subset(self, indices) -> "OracleDataset":
        """New dataset with the same variables over the selected rows."""
        rows = []
        for i in indices:
            row = self.rows[i]
            rows.append(OracleRow(row.values, row_id=self._rid(row, i)))
        return OracleDataset(self.variables, tuple(rows))



def _oracle_row_vector(design, values):
    """One dummy-coded row ({variable -> raw value}); None if a category is unseen."""
    parts: list[float] = []
    for var in design.variables:
        if var in design.categorical_levels:
            observed = design.categorical_levels[var]
            label = values[var]
            if label not in observed:
                return None
            parts.extend(1.0 if label == cat else 0.0 for cat in observed[1:])
        else:
            mean, scale = design.numeric_scaling[var]
            parts.append((float(values[var]) - mean) / scale)
    return np.array(parts, dtype=float)


def oracle_fold_predictions(method: str, train: Dataset, full: Dataset, rows, configs):
    """Per-row estimates for full's rows after fitting on train; None marks an excluded row."""
    if method == "dummy-ols":
        design = dummy_design(train)
        matrix = design.encode(train, np.arange(train.n))[0]
        fit = ols_fit(matrix, train.column(full.dependent.name), names=design.names)
        out = []
        for i in rows:
            vec = _oracle_row_vector(design, {name: full.value(i, name) for name in design.variables})
            out.append(None if vec is None else fit.intercept + float(vec @ fit.coef))
        return out
    result = run_pipeline(
        train,
        catreg_config=configs.catreg,
        stepwise_config=configs.stepwise,
        max_rounds=configs.max_rounds,
    )
    if result.model is None:
        return [float(train.column(full.dependent.name).mean())] * len(rows)
    out = []
    for i in rows:
        try:
            out.append(
                result.model.linear_estimate(
                    {mv.name: full.value(i, mv.name) for mv in result.model.variables}
                )
            )
        except UnseenCategoryError:
            out.append(None)
    return out


def oracle_pava(values, weights, increasing: bool = True) -> np.ndarray:
    """Pool-adjacent-violators on parallel mean/weight/count stacks."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not increasing:
        return -oracle_pava(-v, w)
    means: list[float] = []
    wsum: list[float] = []
    counts: list[int] = []
    for y, wt in zip(v, w):
        means.append(float(y))
        wsum.append(float(wt))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, w2, c2 = means.pop(), wsum.pop(), counts.pop()
            m1, w1, c1 = means.pop(), wsum.pop(), counts.pop()
            tot = w1 + w2
            means.append((m1 * w1 + m2 * w2) / tot)
            wsum.append(tot)
            counts.append(c1 + c2)
    out = np.empty_like(v)
    pos = 0
    for m, c in zip(means, counts):
        out[pos : pos + c] = m
        pos += c
    return out


# The ALS loop as it stood before its per-predictor records: one namedtuple
# type per level, the public (validating) `pava` for both directions and the
# fitted values summed afresh at the start and at the end of every sweep.
_OracleNum = namedtuple("_OracleNum", "name x mean scale")
_OracleCat = namedtuple("_OracleCat", "name ordinal codes cats counts")


def _oracle_standardize(w, counts, n: int):
    mean = float((w * counts).sum() / n)
    centered = w - mean
    ms = float((counts * centered**2).sum() / n)
    if ms <= 1e-24:
        return None
    return centered / math.sqrt(ms)


def _oracle_orient_nominal(v):
    for val in v:
        if val != 0.0:
            return -v if val > 0 else v
    return v


def oracle_catreg_fit(dataset: Dataset, predictors=None, config=None):
    """catreg_fit's result fields (no `ols`) from the loop written out in full."""
    cfg = config or CatregConfig()
    names = list(predictors) if predictors is not None else [v.name for v in dataset.predictors]
    n = dataset.n
    z, _, _ = population_standardize(dataset.column(dataset.dependent.name))

    states: list = []
    for name in names:
        var = dataset.variable(name)
        if var.level == NUMERIC:
            x, mean, scale = population_standardize(dataset.column(name))
            states.append(_OracleNum(name, x, mean, scale))
        else:
            codes, cats = dataset.codes(name)
            counts = np.bincount(codes, minlength=len(cats)).astype(float)
            states.append(_OracleCat(name, var.level == ORDINAL, codes, cats, counts))

    def default_init(st):
        return _oracle_standardize(np.arange(len(st.cats), dtype=float), st.counts, n)

    def run(init_for):
        quants: list = []
        columns: list = []
        for st in states:
            if isinstance(st, _OracleNum):
                quants.append(None)
                columns.append(st.x)
            else:
                v = init_for(st)
                quants.append(v)
                columns.append(v[st.codes])
        beta = np.zeros(len(states))
        degenerate = [False] * len(states)
        trace: list[float] = []
        converged = False
        iterations = 0
        for _ in range(cfg.max_iterations):
            iterations += 1
            yhat = np.zeros(n)
            for j in range(len(states)):
                yhat += beta[j] * columns[j]
            for j, st in enumerate(states):
                u = z - yhat + beta[j] * columns[j]
                if isinstance(st, _OracleNum):
                    new_beta = float(st.x @ u) / n
                    yhat += (new_beta - beta[j]) * st.x
                    beta[j] = new_beta
                    continue
                means = np.bincount(st.codes, weights=u, minlength=len(st.cats)) / st.counts
                if st.ordinal:
                    inc = pava(means, st.counts, increasing=True)
                    dec = pava(means, st.counts, increasing=False)
                    sse_inc = float((st.counts * (means - inc) ** 2).sum())
                    sse_dec = float((st.counts * (means - dec) ** 2).sum())
                    w = inc if sse_inc <= sse_dec else -dec
                else:
                    w = means
                v = _oracle_standardize(w, st.counts, n)
                if v is None:
                    yhat -= beta[j] * columns[j]
                    beta[j] = 0.0
                    degenerate[j] = True
                    continue
                if not st.ordinal:
                    v = _oracle_orient_nominal(v)
                degenerate[j] = False
                col = v[st.codes]
                new_beta = float(col @ u) / n
                yhat += new_beta * col - beta[j] * columns[j]
                quants[j] = v
                columns[j] = col
                beta[j] = new_beta
            yhat = np.zeros(n)
            for j in range(len(states)):
                yhat += beta[j] * columns[j]
            resid = z - yhat
            r2 = 1.0 - float(resid @ resid) / n
            trace.append(r2)
            if len(trace) >= 2 and trace[-1] - trace[-2] < cfg.epsilon:
                converged = True
                break

        active = [j for j in range(len(states)) if not degenerate[j]]
        if not active:
            raise NumericalError("every predictor's quantification collapsed; nothing to fit")
        design = np.column_stack([columns[j] for j in active])
        ols = ols_fit(design, z, names=[states[j].name for j in active])
        return SimpleNamespace(
            ols=ols, quants=quants, trace=trace, iterations=iterations,
            converged=converged, degenerate=degenerate,
        )

    best = run(default_init)

    categorical_map: dict = {}
    numeric_map: dict = {}
    df_effective = 0
    coef: dict = {}
    pvalues: dict = {}
    diagnostics: list[str] = []
    ols_index = {name: k for k, name in enumerate(best.ols.names)}
    for j, st in enumerate(states):
        if isinstance(st, _OracleNum):
            numeric_map[st.name] = (st.mean, st.scale)
        else:
            v = best.quants[j]
            categorical_map[st.name] = {cat: float(v[k]) for k, cat in enumerate(st.cats)}
        if best.degenerate[j]:
            coef[st.name] = 0.0
            pvalues[st.name] = math.nan
            diagnostics.append(
                f"predictor '{st.name}': quantification collapsed to a single value; "
                "excluded from the final fit"
            )
            continue
        if isinstance(st, _OracleNum):
            df_effective += 1
        elif st.ordinal:
            df_effective += len(set(best.quants[j].tolist())) - 1
        else:
            df_effective += len(st.cats) - 1
        k = ols_index[st.name]
        coef[st.name] = float(best.ols.coef[k])
        pvalues[st.name] = float(best.ols.pvalue[k])
    if not best.converged:
        diagnostics.append(
            f"did not converge within {cfg.max_iterations} iterations "
            f"(last R^2 gain >= {cfg.epsilon})"
        )
    r2 = best.ols.r2
    return SimpleNamespace(
        predictors=tuple(names),
        quantifications=QuantificationMap(categorical=categorical_map, numeric=numeric_map),
        coef=coef,
        pvalues=pvalues,
        r2=r2,
        adj_r2=adjusted_r2(r2, n, df_effective) if n > df_effective + 1 else math.nan,
        iterations=best.iterations,
        converged=best.converged,
        r2_trace=tuple(best.trace),
        degenerate=tuple(st.name for j, st in enumerate(states) if best.degenerate[j]),
        diagnostics=tuple(diagnostics),
        n=n,
    )


# --- ingest and dataset-writer oracles --------------------------------------
# The row-at-a-time ingest that the columnar stages replaced: one record of
# dicts per CSV row, `backfire` once per row, and one row of cells per
# surviving row. And the writer it replaced: the json module's indent=2 dump.

_ORACLE_METRICS = {"duration": "Duration", "developers": "Developer", "defects": "Defect"}


@dataclass
class _OracleRow:
    row_id: str
    answers: dict
    sloc: dict
    fields: dict
    flags: list


def _oracle_load_responses(path, schema):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise ValidationError("responses CSV is empty") from None
        records = list(reader)

    if len(set(header)) != len(header):
        raise ValidationError("responses CSV has duplicate column names")
    qids = [item.name for item in schema.items]
    sloc_columns = [c for c in header if c.startswith("sloc:")]
    languages = tuple(c[len("sloc:"):] for c in sloc_columns)
    if any(not lang for lang in languages):
        raise ValidationError("sloc column with an empty language name")
    allowed = {"id", *qids, *_ORACLE_METRICS, *sloc_columns}
    unknown = [c for c in header if c not in allowed]
    if unknown:
        raise ValidationError(f"responses CSV has unknown columns: {unknown}")
    missing = [c for c in (*qids, *_ORACLE_METRICS) if c not in header]
    if missing:
        raise ValidationError(f"responses CSV is missing columns: {missing}")
    if not sloc_columns:
        raise ValidationError("responses CSV needs at least one sloc:<Language> column")
    col = {name: header.index(name) for name in header}

    rows = []
    for i, record in enumerate(records):
        where = f"row {i + 1}"
        if len(record) != len(header):
            raise ValidationError(
                f"{where}: expected {len(header)} cells, got {len(record)} (malformed CSV)"
            )
        row_id = record[col["id"]].strip() if "id" in col else str(i)
        if "id" in col and not row_id:
            row_id = str(i)
        flags, answers = [], {}
        for item in schema.items:
            cell = record[col[item.name]].strip()
            if not cell:
                flags.append(f"missing answer for {item.name}")
                continue
            if cell not in item.categories:
                raise ValidationError(
                    f"{where}, column {item.name}: '{cell}' is not one of "
                    f"{''.join(item.categories)}"
                )
            answers[item.name] = cell
        sloc = {}
        for lang, column in zip(languages, sloc_columns):
            cell = record[col[column]].strip()
            if not cell:
                sloc[lang] = 0.0
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
        fields = {}
        for column, canonical in _ORACLE_METRICS.items():
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
        rows.append(_OracleRow(row_id, answers, sloc, fields, flags))
    ids = [row.row_id for row in rows]
    if len(set(ids)) != len(ids):
        raise ValidationError("responses CSV has duplicate row identifiers")
    return languages, rows


def oracle_ingest(path, gearing, schema=None, outlier_zmax=None):
    """Load, backfire, log-transform and filter row by row; (dataset, removal)."""
    schema = schema or QuestionnaireSchema()
    languages, rows = _oracle_load_responses(path, schema)
    for language in languages:
        gearing.factor(language)
    for row in rows:
        try:
            row.fields["FP"] = backfire(row.sloc, gearing)
        except ValidationError:
            row.flags.append("zero total sloc")
        except NumericalError as exc:
            raise NumericalError(f"row {row.row_id}: {exc}") from None
    for row in rows:
        for name in ("FP", "Duration", "Developer", "Defect"):
            if name not in row.fields:
                continue
            value = row.fields.pop(name)
            if value <= 0:
                row.flags.append(f"nonpositive {name} ({value:g}); cannot take its log")
                continue
            row.fields[f"Ln({name})"] = math.log(value)

    if outlier_zmax is not None and not (outlier_zmax > 0):
        raise ValidationError("outlier_zmax must be positive when given")
    removal, survivors = {}, []
    for row in rows:
        if row.flags:
            removal[row.row_id] = "; ".join(row.flags)
        else:
            survivors.append(row)
    if outlier_zmax is not None and survivors:
        ln_fields = [name for name in survivors[0].fields if name.startswith("Ln(")]
        flagged = {}
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
    needed = ("Ln(FP)", "Ln(Developer)", "Ln(Duration)", "Ln(Defect)")
    variables = [Variable(item.name, item.level, item.categories, PREDICTOR)
                 for item in schema.items]
    variables += [Variable(name, NUMERIC, role=PREDICTOR) for name in needed[:3]]
    variables.append(Variable(needed[3], NUMERIC, role=DEPENDENT))
    rows = [
        tuple(row.answers[item.name] for item in schema.items)
        + tuple(row.fields[name] for name in needed)
        for row in survivors
    ]
    return dataset_of_rows(variables, rows, [row.row_id for row in survivors]), removal


def oracle_save_text(dataset: Dataset) -> str:
    """The dataset file's text as the json module's indent=2 dump writes it."""
    return json.dumps(dataset_to_json(dataset), indent=2) + "\n"
