"""Categorical regression with optimal scaling, fitted by alternating least squares.

Each categorical predictor receives a numeric quantification (one value per
observed category), standardized to mean 0 / mean square 1 over the dataset
(population convention: the quantified column's sum of squares equals n).
Numeric predictors and the response are standardized the same way.

The fit alternates, in declared predictor order, between re-quantifying one
predictor against the working residual of all the others and refreshing its
regression weight. Ordinal predictors are projected onto the monotone cone
with PAVA in whichever direction fits the unconstrained category means better;
the stored quantification is always non-decreasing, with a descending
relationship carried by a negative coefficient. Nominal quantifications are
the unconstrained category means, oriented so the first observed category's
value is negative (a quantification and its negation are otherwise
interchangeable).

Every update minimizes the residual sum of squares over the block it touches,
so the per-iteration R^2 trace is non-decreasing. Iteration stops when the R^2
gain drops below `epsilon` or `max_iterations` is reached (the latter yields a
fit flagged as non-converged, not an exception). Coefficients, p-values and
R^2 are read off a final joint least-squares pass over the quantified columns.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .data import (
    DEPENDENT,
    NUMERIC,
    ORDINAL,
    PREDICTOR,
    Dataset,
    QuantificationMap,
    population_standardize,
)
from .errors import NumericalError, ValidationError, require_number
from .stats import OlsFit, adjusted_r2, ols_fit

# mean square below this is treated as a collapsed (degenerate) quantification
_DEGENERATE_MS = 1e-24


@dataclass(frozen=True)
class CatregConfig:
    """Tuning knobs for the alternating least squares loop.

    epsilon: stop once the per-iteration R^2 gain falls below this.
    max_iterations: hard cap on full sweeps; hitting it flags the fit.
    seed / random_restarts: optional mode that reruns the loop from seeded
        random quantifications and keeps the best final R^2. Off by default;
        the standard initialization (standardized category indices) is
        deterministic.
    """

    epsilon: float = 1e-6
    max_iterations: int = 200
    seed: int | None = None
    random_restarts: int = 0

    def __post_init__(self):
        require_number("epsilon", self.epsilon)
        require_number("max_iterations", self.max_iterations, integer=True)
        require_number("random_restarts", self.random_restarts, integer=True)
        if not (self.epsilon > 0):
            raise ValidationError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.random_restarts < 0:
            raise ValidationError("random_restarts must be >= 0")


def pava(values, weights=None, increasing: bool = True) -> np.ndarray:
    """Weighted isotonic projection by pool-adjacent-violators.

    Returns the monotone vector minimizing sum(w * (v - out)^2). Weights must
    be strictly positive; direction is controlled by `increasing`.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValidationError("pava requires a non-empty 1-d array")
    if weights is None:
        w = np.ones_like(v)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != v.shape:
            raise ValidationError("values and weights must have equal length")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be strictly positive and finite")
    if not np.all(np.isfinite(v)):
        raise ValidationError("values must be finite")
    if not increasing:
        return -_pava_increasing(-v, w)
    return _pava_increasing(v, w)


def _pava_increasing(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    # classic stack of blocks; merge while the last two violate the order
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


@dataclass(frozen=True)
class CatregFit:
    """Result of catreg_fit.

    coef/pvalues are keyed by predictor name; both refer to the standardized
    problem (response and quantified columns at mean 0, mean square 1), read
    off the final joint least-squares pass. Degenerate predictors (whose
    quantification collapsed to a single value) are excluded from that pass
    and reported with coefficient 0 and p-value NaN. adj_r2 is the apparent
    adjusted R^2 charging each predictor its effective quantification
    parameters, not just one slope.
    """

    predictors: tuple[str, ...]
    quantifications: QuantificationMap
    coef: dict
    pvalues: dict
    r2: float
    adj_r2: float
    iterations: int
    converged: bool
    r2_trace: tuple[float, ...]
    degenerate: tuple[str, ...]
    diagnostics: tuple[str, ...]
    ols: OlsFit
    n: int


# per-predictor inputs of the ALS loop
_NumState = namedtuple("_NumState", "name x mean scale")
_CatState = namedtuple("_CatState", "name ordinal codes cats counts")


def _standardize_category_values(w: np.ndarray, counts: np.ndarray, n: int):
    """Standardize per-category values to weighted mean 0 / mean square 1.

    Returns None when the values (weighted by category counts) carry no
    variance, i.e. the quantification has collapsed.
    """
    mean = float((w * counts).sum() / n)
    centered = w - mean
    ms = float((counts * centered**2).sum() / n)
    if ms <= _DEGENERATE_MS:
        return None
    return centered / math.sqrt(ms)


def _orient_nominal(v: np.ndarray) -> np.ndarray:
    # deterministic orientation: first observed category with a nonzero value
    # must be negative (matches the category-index initialization)
    for val in v:
        if val != 0.0:
            return -v if val > 0 else v
    return v


def catreg_fit(dataset: Dataset, predictors=None, config: CatregConfig | None = None) -> CatregFit:
    """Fit the optimal-scaling regression of the dataset's dependent variable.

    predictors: names to include, in sweep order; defaults to every declared
    predictor in dataset order. Requires every categorical predictor to show
    at least two observed categories and n to exceed the total number of free
    quantification parameters.
    """
    cfg = config or CatregConfig()
    dep = dataset.dependent
    names = list(predictors) if predictors is not None else [v.name for v in dataset.predictors]
    if not names:
        raise ValidationError("catreg_fit needs at least one predictor")
    if len(set(names)) != len(names):
        raise ValidationError("duplicate predictor names")
    n = dataset.n
    y = dataset.column(dep.name)
    z, _, _ = population_standardize(y)

    states: list = []
    free_params = 0
    for name in names:
        var = dataset.variable(name)
        if var.role != PREDICTOR:
            raise ValidationError(f"variable '{name}' is not a predictor")
        if var.level == NUMERIC:
            x, mean, scale = population_standardize(dataset.column(name))
            states.append(_NumState(name, x, mean, scale))
            free_params += 1
        else:
            codes, cats = dataset.codes(name)
            if len(cats) < 2:
                raise ValidationError(
                    f"categorical predictor '{name}' needs at least two observed categories"
                )
            counts = np.bincount(codes, minlength=len(cats)).astype(float)
            states.append(_CatState(name, var.level == ORDINAL, codes, cats, counts))
            free_params += len(cats) - 1
    if n <= free_params:
        raise ValidationError(
            f"n = {n} must exceed the {free_params} free quantification parameters"
        )

    def default_init(st: _CatState) -> np.ndarray:
        v = _standardize_category_values(
            np.arange(len(st.cats), dtype=float), st.counts, n
        )
        assert v is not None  # >= 2 observed categories with positive counts
        return v

    def run(init_for) -> SimpleNamespace:
        quants: list = []
        columns: list = []
        for st in states:
            if isinstance(st, _NumState):
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
                if isinstance(st, _NumState):
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
                    # keep the better-fitting direction; store non-decreasing
                    # values and let the coefficient carry the sign
                    w = inc if sse_inc <= sse_dec else -dec
                else:
                    w = means
                v = _standardize_category_values(w, st.counts, n)
                if v is None:
                    # collapsed this sweep: contribute nothing, keep the old
                    # (still standardized) quantification for bookkeeping
                    yhat -= beta[j] * columns[j]
                    beta[j] = 0.0
                    degenerate[j] = True
                    continue
                if not st.ordinal:
                    v = _orient_nominal(v)
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
            raise NumericalError(
                "every predictor's quantification collapsed; nothing to fit"
            )
        design = np.column_stack([columns[j] for j in active])
        ols = ols_fit(design, z, names=[states[j].name for j in active])
        return SimpleNamespace(
            ols=ols, quants=quants, trace=trace, iterations=iterations,
            converged=converged, degenerate=degenerate,
        )

    best = run(default_init)
    if cfg.random_restarts > 0:
        rng = np.random.default_rng(cfg.seed)

        def random_init(st: _CatState) -> np.ndarray:
            while True:
                v = _standardize_category_values(
                    rng.normal(size=len(st.cats)), st.counts, n
                )
                if v is not None:
                    return v

        for _ in range(cfg.random_restarts):
            candidate = run(random_init)
            if candidate.ols.r2 > best.ols.r2:
                best = candidate

    categorical_map: dict = {}
    numeric_map: dict = {}
    df_effective = 0
    coef: dict = {}
    pvalues: dict = {}
    diagnostics: list[str] = []
    ols_index = {name: k for k, name in enumerate(best.ols.names)}
    for j, st in enumerate(states):
        if isinstance(st, _NumState):
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
        if isinstance(st, _NumState):
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
    adj = adjusted_r2(r2, n, df_effective) if n > df_effective + 1 else math.nan

    return CatregFit(
        predictors=tuple(names),
        quantifications=QuantificationMap(categorical=categorical_map, numeric=numeric_map),
        coef=coef,
        pvalues=pvalues,
        r2=r2,
        adj_r2=adj,
        iterations=best.iterations,
        converged=best.converged,
        r2_trace=tuple(best.trace),
        degenerate=tuple(st.name for j, st in enumerate(states) if best.degenerate[j]),
        diagnostics=tuple(diagnostics),
        ols=best.ols,
        n=n,
    )
