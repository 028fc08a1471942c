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

The loop keeps one record per predictor (a numeric one holds its standardized
column; a categorical one its codes, labels, counts and level) and one
category update, `_quantify`. The fitted values are summed afresh once per
sweep, at its end, for R^2; that sum is also where the next sweep starts. The
category update works on short lists of Python floats (one per category), not
on numpy arrays, whose per-call overhead dominates at a handful of categories;
every n-length step (category sums, column rebuilds, dot products) stays in
numpy. Its reductions go through `_sum`, which adds in numpy's pairwise order,
so every number is bit for bit what the array arithmetic gave. The ALS calls
the PAVA kernel without `pava`'s checks: its weights are category counts (each
at least 1) and its values are finite category means.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add

import numpy as np

from .data import (
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
    """

    epsilon: float = 1e-6
    max_iterations: int = 200

    def __post_init__(self):
        require_number("epsilon", self.epsilon)
        require_number("max_iterations", self.max_iterations, integer=True)
        if not (self.epsilon > 0):
            raise ValidationError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")


def pava(values, weights=None, increasing: bool = True) -> np.ndarray:
    """Weighted isotonic projection by pool-adjacent-violators.

    Returns the monotone vector minimizing sum(w * (v - out)^2). Weights must
    be strictly positive; direction is controlled by `increasing`. Raises
    NumericalError when a pooled value overflows.
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
    if increasing:
        out = np.array(_pava(v.tolist(), w.tolist()))
    else:
        out = -np.array(_pava((-v).tolist(), w.tolist()))
    if not np.all(np.isfinite(out)):
        raise NumericalError("pava: a pooled weighted sum overflowed")
    return out


def _pava(values: list, weights: list) -> list:
    """The non-decreasing PAVA fit of a list of floats, as a list (`values`
    itself when nothing pools).

    A stack of (mean, weight, size) blocks; each value opens a block, merged
    into the one before it while that one's mean (`last`) is larger.
    """
    blocks: list = []
    last = None
    for y, wt in zip(values, weights):
        size = 1
        while blocks and last > y:
            _, w1, s1 = blocks.pop()
            tot = w1 + wt
            y, wt, size = (last * w1 + y * wt) / tot, tot, size + s1
            last = blocks[-1][0] if blocks else None
        blocks.append((y, wt, size))
        last = y
    if len(blocks) == len(values):
        return values
    out: list = []
    for m, _, size in blocks:
        out += [m] * size
    return out


def _sum(xs: list) -> float:
    """The sum of a list of floats, bit for bit as numpy's `sum` of its array.

    numpy adds pairwise from 0.0: below 8 elements left to right; up to 128 in
    eight interleaved running sums, combined as a tree, then the remainder
    left to right; above 128 it splits at a multiple of 8 near the middle and
    adds the two halves. The leading `0.0 +` turns a sum of -0.0s into 0.0,
    as numpy does.
    """
    n = len(xs)
    if n < 8:
        return reduce(add, xs, 0.0)
    if n > 128:
        h = n // 2 - (n // 2) % 8
        # a half's own leading 0.0 + cannot change the total's bits
        return _sum(xs[:h]) + _sum(xs[h:])
    m = n - n % 8
    r = [reduce(add, xs[j + 8 : m : 8], xs[j]) for j in range(8)]
    tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return 0.0 + reduce(add, xs[m:], tree)


@dataclass(frozen=True)
class CatregFit:
    """Result of catreg_fit.

    coef/pvalues are keyed by predictor name; both refer to the standardized
    problem (response and quantified columns at mean 0, mean square 1), read
    off the final joint least-squares pass, `_final`. Degenerate predictors
    (whose quantification collapsed to a single value) are excluded from that
    pass and reported with coefficient 0 and p-value NaN. The p-values are
    computed on first read. adj_r2 is the apparent adjusted R^2 charging each
    predictor its effective quantification parameters, not just one slope.
    """

    predictors: tuple[str, ...]
    quantifications: QuantificationMap
    coef: dict
    r2: float
    adj_r2: float
    iterations: int
    converged: bool
    r2_trace: tuple[float, ...]
    degenerate: tuple[str, ...]
    diagnostics: tuple[str, ...]
    n: int
    _final: OlsFit = field(repr=False, compare=False)

    @cached_property
    def pvalues(self) -> dict:
        pvalues = dict.fromkeys(self.predictors, math.nan)
        pvalues.update(zip(self._final.names, self._final.pvalue.tolist()))
        return pvalues


# one record per predictor: a numeric one carries its standardized column x
# (codes None); a categorical one its codes, observed labels, category counts
# and whether it is ordinal
_Predictor = namedtuple("_Predictor", "name x codes cats counts ordinal")


def _weighted_ss(xs: list, counts: list) -> float:
    """numpy's (counts * xs**2).sum(); numpy squares as x * x."""
    return _sum([c * (x * x) for x, c in zip(xs, counts)])


def _standardize_category_values(w: list, counts: list, n: int):
    """Per-category values at count-weighted mean 0 / mean square 1; None if they collapse."""
    mean = _sum([x * c for x, c in zip(w, counts)]) / n
    centered = [x - mean for x in w]
    ms = _weighted_ss(centered, counts) / n
    if ms <= _DEGENERATE_MS:
        return None
    scale = math.sqrt(ms)
    return [x / scale for x in centered]


def _quantify(means: list, counts: list, n: int, ordinal: bool):
    """The standardized quantification fitted to the category means, or None
    when it collapses.

    An ordinal item takes the PAVA fit in whichever direction has the lower
    weighted SSE, stored non-decreasing (the coefficient carries the sign). A
    nominal item takes the means, oriented so that its first nonzero value is
    negative, as in the category-index initialization.
    """
    w = means
    if ordinal:
        inc = _pava(means, counts)
        neg = _pava([-m for m in means], counts)  # the non-increasing fit, negated
        sse_inc = _weighted_ss([m - f for m, f in zip(means, inc)], counts)
        sse_dec = _weighted_ss([m + f for m, f in zip(means, neg)], counts)
        w = inc if sse_inc <= sse_dec else neg
    v = _standardize_category_values(w, counts, n)
    if v is not None and not ordinal and next((x for x in v if x != 0.0), 0.0) > 0:
        return [-x for x in v]
    return v


def catreg_fit(dataset: Dataset, predictors=None, config: CatregConfig | None = None) -> CatregFit:
    """Fit the optimal-scaling regression of the dataset's dependent variable.

    predictors: names to include, in sweep order; defaults to every declared
    predictor in dataset order. Requires every categorical predictor to show
    at least two observed categories and n to exceed the total number of free
    quantification parameters.
    """
    cfg = config or CatregConfig()
    names = list(predictors) if predictors is not None else [v.name for v in dataset.predictors]
    if not names:
        raise ValidationError("catreg_fit needs at least one predictor")
    if len(set(names)) != len(names):
        raise ValidationError("duplicate predictor names")
    n = dataset.n
    z, _, _ = population_standardize(dataset.column(dataset.dependent.name))

    records: list[_Predictor] = []
    numeric_map: dict = {}
    free_params = 0
    for name in names:
        var = dataset.variable(name)
        if var.role != PREDICTOR:
            raise ValidationError(f"variable '{name}' is not a predictor")
        if var.level == NUMERIC:
            x, mean, scale = population_standardize(dataset.column(name))
            numeric_map[name] = (mean, scale)
            records.append(_Predictor(name, x, None, None, None, False))
            free_params += 1
        else:
            codes, cats = dataset.codes(name)
            if len(cats) < 2:
                raise ValidationError(
                    f"categorical predictor '{name}' needs at least two observed categories"
                )
            counts = np.bincount(codes, minlength=len(cats)).astype(float).tolist()
            records.append(_Predictor(name, None, codes, cats, counts, var.level == ORDINAL))
            free_params += len(cats) - 1
    if n <= free_params:
        raise ValidationError(
            f"n = {n} must exceed the {free_params} free quantification parameters"
        )
    # the first sweep starts from beta = 0, so no start value enters the fit; the
    # standardized category indices (>= 2 observed, so never collapsed) are only
    # what a predictor that collapses in every sweep reports
    quants = [
        None if p.codes is None
        else _standardize_category_values([float(c) for c in range(len(p.cats))], p.counts, n)
        for p in records
    ]
    columns = [p.x if v is None else np.array(v)[p.codes] for p, v in zip(records, quants)]
    beta = [0.0] * len(records)
    collapsed = [False] * len(records)
    trace: list[float] = []
    yhat = np.zeros(n)  # the fit of beta = 0, where the first sweep starts
    while True:
        for j, p in enumerate(records):
            old = beta[j] * columns[j]  # this predictor's share of yhat
            u = z - yhat + old
            if p.codes is None:
                new_beta = float(p.x @ u) / n
                yhat += (new_beta - beta[j]) * p.x
                beta[j] = new_beta
                continue
            sums = np.bincount(p.codes, weights=u, minlength=len(p.cats)).tolist()
            v = _quantify([s / c for s, c in zip(sums, p.counts)], p.counts, n, p.ordinal)
            collapsed[j] = v is None
            if v is None:
                # collapsed this sweep: contribute nothing, keep the old
                # (still standardized) quantification for bookkeeping
                yhat -= old
                beta[j] = 0.0
                continue
            col = np.array(v)[p.codes]
            new_beta = float(col @ u) / n
            yhat += new_beta * col - old
            quants[j], columns[j], beta[j] = v, col, new_beta
        # the fit summed afresh gives this sweep's R^2 and the next start
        yhat = np.zeros(n)
        for b, col in zip(beta, columns):
            yhat += b * col
        resid = z - yhat
        trace.append(1.0 - float(resid @ resid) / n)
        converged = len(trace) >= 2 and trace[-1] - trace[-2] < cfg.epsilon
        if converged or len(trace) == cfg.max_iterations:
            break

    active = [j for j in range(len(records)) if not collapsed[j]]
    if not active:
        raise NumericalError("every predictor's quantification collapsed; nothing to fit")
    design = np.column_stack([columns[j] for j in active])
    ols = ols_fit(design, z, names=[records[j].name for j in active])

    degenerate = [p.name for p, d in zip(records, collapsed) if d]
    diagnostics = [
        f"predictor '{name}': quantification collapsed to a single value; "
        "excluded from the final fit"
        for name in degenerate
    ]
    if not converged:
        diagnostics.append(
            f"did not converge within {cfg.max_iterations} iterations "
            f"(last R^2 gain >= {cfg.epsilon})"
        )
    # effective parameters: a numeric slope counts 1, an ordinal item its
    # distinct values - 1, a nominal item its categories - 1
    df_effective = sum(
        1 if v is None else len(set(v)) - 1 if p.ordinal else len(p.cats) - 1
        for p, v, d in zip(records, quants, collapsed)
        if not d
    )
    coef = dict.fromkeys(names, 0.0)
    coef.update(zip(ols.names, ols.coef.tolist()))
    categorical_map = {
        p.name: dict(zip(p.cats, v))
        for p, v in zip(records, quants)
        if v is not None
    }
    return CatregFit(
        predictors=tuple(names),
        quantifications=QuantificationMap(categorical=categorical_map, numeric=numeric_map),
        coef=coef,
        r2=ols.r2,
        adj_r2=adjusted_r2(ols.r2, n, df_effective) if n > df_effective + 1 else math.nan,
        iterations=len(trace),
        converged=converged,
        r2_trace=tuple(trace),
        degenerate=tuple(degenerate),
        diagnostics=tuple(diagnostics),
        n=n,
        _final=ols,
    )
