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
In a tall pipeline round it reads the round's cross products instead of n
rows (`_round`, a `stats.Round` kept for stepwise): the Gram matrix of
[1, standardized numeric and quantified columns, z], active columns only,
through `stats.gram_solve`; where that refuses, the rows of Z' = Q'[1, raw
numeric or quantified columns, raw y] (`stats.rotation`), a numeric column
(Z'_j - mean Z'_0) / scale, z (Z'_y - mean_y Z'_0) / s_y, a quantified one
Z'_j. SST is z's either way.

The loop keeps one record per predictor (a numeric one holds its standardized
column; a categorical one its codes, labels, counts and level) and one
category update, `_quantify`, on short lists of Python floats (one per
category): numpy's per-call overhead dominates at a handful of categories.
Its reductions go through `_sum`, which adds as numpy does, so every number
is bit for bit what the array arithmetic gave. The ALS calls the PAVA kernel
without `pava`'s checks: its weights are category counts (each at least 1)
and its values are finite category means.

On tall data (over `stats.BLOCK_ROWS` rows) with a narrow category set the
sweeps leave n-space: `_cross_sweep` builds M = A'A once per fit (once per
pipeline run, see below), where A is [each predictor's columns (one 0/1
column per observed category), z], by BLOCK_ROWS-row blocks, the one-hot
products in float32 (counts of at most 2,048 are exact) and the rest in
float64. Each block sets its rows' one-hot entries item by item, so the build
holds z, the numeric columns and one block, never an n x items index. With b = A'z
and a stacking beta_k q_k, predictor j's category sums are
s = b_j - sum_{k != j} M_jk a_k, its new weight q.s/n and a sweep's R^2
1 - (z'z - 2a'b + a'Ma)/n; results agree with the row loop to about 1e-12.
Narrow means width^2 <= _NARROW * predictors (width: A's columns): at
n = 19,781 on one core a row sweep took 64-76 us per predictor and M
0.33-0.36 us per width^2 at width 89, so M costs at most the two sweeps
every converged fit runs up to width^2 = 380-440 each.
A later pipeline round refits a subset of the last round's predictors on the
same rows, so its M, b, z'z and 1'A are a principal slice of that round's
(`_CrossSweep.restrict`) and its records are that round's: it passes over no
rows to sweep, and sweeps on the slice even where `_NARROW` would call its set
wide. The slice agrees with a build of its own to about 1e-15 (with no numeric
predictor numpy forms z's products and sum by its one-column kernels). Every
fit takes an item's codes, observed categories and counts from one bincount
(`data._observed_codes`) of the dataset's stored read-only column
(`Dataset._stored`): a fully observed item's record holds that column
itself, never written, and a numeric one only its standardized copy.

A pipeline round's cross products come from the same M: with 1'A (the
category counts and one sum per numeric column and z, outside M) it gives
K = B'B for B = [1, A], and every round column is B T for a small T (a
numeric one mean e_0 + scale e_j, a quantified one its values on its one-hot
block, y mean_y e_0 + s_y e_z), so the round's Gram matrix is T'KT without
another n-row pass. K's entries are sums over at most n rows, exact between
one-hot columns; the round's error bound (`stats.Round`) counts u n for them,
and its decisions also allow Z' its own (`stats.rotation_error`).
Z' is formed only when stepwise or a final fit needs it, from the dataset's
numeric columns, the fit's category codes and final quantifications. A tall fit whose sweeps ran on rows
forms Z' at once and takes K = Z''Z'.
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
    _observed_codes,
    population_standardize,
)
from .errors import NumericalError, ValidationError, require_number
from .stats import BLOCK_ROWS, OlsFit, Round, adjusted_r2, ols_fit, rotation, rotation_error

# mean square below this is treated as a collapsed (degenerate) quantification
_DEGENERATE_MS = 1e-24
_NARROW = 400  # a tall fit's width^2 bound per predictor (see the module docstring)


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
    """numpy's `sum` of a list of floats, bit for bit; below 8 elements it adds
    left to right from 0.0 (so -0.0s sum to 0.0), as numpy does, without an array."""
    if len(xs) < 8:
        return reduce(add, xs, 0.0)
    return float(np.sum(xs))


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
    _round: Round | None = field(default=None, repr=False, compare=False)
    _sweep: _CrossSweep | None = field(default=None, repr=False, compare=False)

    @cached_property
    def pvalues(self) -> dict:
        pvalues = dict.fromkeys(self.predictors, math.nan)
        pvalues.update(zip(self._final.names, self._final.pvalue.tolist()))
        return pvalues


# one record per predictor: a numeric one carries its standardized column x
# and its (mean, scale) (codes None); a categorical one its codes, observed
# labels, category counts and whether it is ordinal
_Predictor = namedtuple("_Predictor", "name x codes cats counts ordinal mean_scale")


def _record(dataset: Dataset, var) -> _Predictor:
    """A predictor's record, read off the dataset's stored columns: a fully
    observed item's codes are the stored column itself, never written."""
    column = dataset._stored(var.name)
    if var.level == NUMERIC:
        x, mean, scale = population_standardize(column)
        return _Predictor(var.name, x, None, None, None, False, (mean, scale))
    codes, cats, counts = _observed_codes(column, var.categories)
    return _Predictor(var.name, None, codes, cats, counts.astype(float).tolist(),
                      var.level == ORDINAL, None)


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


def _starts(records) -> list:
    """Each predictor's first column in A, and A's width last."""
    return np.cumsum([0] + [1 if p.codes is None else len(p.cats) for p in records]).tolist()


def _column(p: _Predictor, v) -> np.ndarray:
    """The predictor's n-length column: standardized, or quantification v per row."""
    return p.x if v is None else np.array(v)[p.codes]


class _CrossSweep:
    """The sweeps in category space (see the module docstring)."""

    def __init__(self, records, AA, ones, n: int):
        self.records, self.starts, self.AA, self.ones, self.n = records, _starts(records), AA, ones, n
        self.M, self.b, self.zz = AA[:-1, :-1], AA[:-1, -1], AA[-1, -1]
        self.a = np.zeros(len(self.b))

    def restrict(self, names) -> "_CrossSweep":
        """The sweep of the predictors `names` (a subset, in any order): their
        records, and A'A and 1'A at their columns and z's, read off this one."""
        at = {p.name: j for j, p in enumerate(self.records)}
        keep = [at[name] for name in names]
        idx = [i for j in keep for i in range(*self.starts[j:j + 2])] + [len(self.AA) - 1]
        return type(self)([self.records[j] for j in keep], self.AA[np.ix_(idx, idx)],
                          self.ones[idx], self.n)

    def step(self, j: int):
        p, k, a = self.records[j], slice(*self.starts[j:j + 2]), self.a
        a[k] = 0.0
        s = self.b[k] - self.M[k] @ a
        v = None if p.codes is None else _quantify(
            (s / p.counts).tolist(), p.counts, self.n, p.ordinal)
        q = np.array(v) if v else np.full(len(s), float(p.codes is None))  # collapsed: all 0
        a[k] = q * (beta := float(q @ s) / self.n)
        return beta, v

    def r2(self) -> float:
        a = self.a
        return 1.0 - (self.zz - 2.0 * float(a @ self.b) + float(a @ self.M @ a)) / self.n

    def basis(self, quants, shift, scale):
        """(K, T, nonneg) of a `stats.Round` over B = [1, A]: K = B'B from M and
        1'A, and T maps B to [1, raw or quantified columns, raw y]."""
        K = np.empty((len(self.AA) + 1,) * 2)
        K[0, 0], K[0, 1:], K[1:, 0], K[1:, 1:] = self.n, self.ones, self.ones, self.AA
        T, nonneg = np.zeros((len(K), len(shift))), np.zeros(len(K), bool)
        T[0], T[-1, -1], nonneg[0] = shift, scale[-1], True
        T[0, 0] = 1.0
        for j, (p, v) in enumerate(zip(self.records, quants), 1):
            k = slice(self.starts[j - 1] + 1, self.starts[j] + 1)
            T[k, j], nonneg[k] = (scale[j], False) if p.codes is None else (v, True)
        return K, T, nonneg


def _cross_sweep(records, z) -> _CrossSweep:
    """The sweep of `records` and z, with A'A and 1'A from one pass over the rows."""
    starts = _starts(records)
    items = [(p.codes, s) for p, s in zip(records, starts) if p.codes is not None]
    num = [s for p, s in zip(records, starts) if p.codes is None] + [starts[-1]]
    F = np.column_stack([p.x for p in records if p.codes is None] + [z])
    M = np.zeros((starts[-1] + 1,) * 2)
    for i in range(0, len(z), BLOCK_ROWS):
        rows = slice(i, i + BLOCK_ROWS)
        H = np.zeros((len(F[rows]), len(M)), np.float32)
        flat, at = H.reshape(-1), np.arange(len(H)) * len(M)  # at: each row's start in flat
        for codes, s in items:  # the item's one-hot column of A on each row
            flat[at + codes[rows] + s] = 1.0
        M += H.T @ H
        M[:, num] += H.astype(float).T @ F[rows]
    M[num] = M[:, num].T
    M[np.ix_(num, num)] = F.T @ F
    ones = np.concatenate([p.counts or [0.0] for p in records] + [[0.0]])
    ones[num] = F.sum(axis=0)  # 1'A: the category counts and the column sums
    return _CrossSweep(records, M, ones, len(z))


def catreg_fit(
    dataset: Dataset, predictors=None, config: CatregConfig | None = None, *,
    _share_round: bool = False, _sweep: _CrossSweep | None = None,
) -> CatregFit:
    """Fit the optimal-scaling regression of the dataset's dependent variable.

    predictors: names to include, in sweep order; defaults to every declared
    predictor in dataset order. Requires every categorical predictor to show
    at least two observed categories and n to exceed the total number of free
    quantification parameters. _share_round: read the final fit off a pipeline
    round's cross products (see the module docstring), kept as `_round`. A fit
    that sweeps in category space keeps its sweep as `_sweep`. _sweep: an
    earlier fit's `_sweep` on this dataset over a superset of `predictors`; the
    fit sweeps on its restriction (`_CrossSweep.restrict`) and takes its
    predictors' records from it, without a pass over the rows.
    """
    cfg = config or CatregConfig()
    names = list(predictors) if predictors is not None else [v.name for v in dataset.predictors]
    if not names:
        raise ValidationError("catreg_fit needs at least one predictor")
    if len(set(names)) != len(names):
        raise ValidationError("duplicate predictor names")
    n = dataset.n
    y = dataset._stored(dataset.dependent.name)
    z, y_mean, y_scale = population_standardize(y)

    kept = {p.name: p for p in _sweep.records} if _sweep is not None else None
    records: list[_Predictor] = []
    free_params = 0
    for name in names:
        var = dataset.variable(name)
        if var.role != PREDICTOR:
            raise ValidationError(f"variable '{name}' is not a predictor")
        p = kept[name] if kept is not None else _record(dataset, var)
        if p.codes is not None and len(p.cats) < 2:
            raise ValidationError(
                f"categorical predictor '{name}' needs at least two observed categories"
            )
        records.append(p)
        free_params += 1 if p.codes is None else len(p.cats) - 1
    numeric_map = {p.name: p.mean_scale for p in records if p.codes is None}
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
    width = sum(1 if p.codes is None else len(p.cats) for p in records) + 1
    if _sweep is not None:  # a slice costs nothing, so it serves a wide set too
        cross = _sweep.restrict(names)
    elif n > BLOCK_ROWS and width * width <= _NARROW * len(records):
        cross = _cross_sweep(records, z)
    else:
        cross = None
    tall = cross is not None
    columns = [_column(p, v) for p, v in zip(records, quants)] if not tall else None
    beta = [0.0] * len(records)
    collapsed = [False] * len(records)
    trace: list[float] = []
    yhat = np.zeros(n)  # the fit of beta = 0, where the first sweep starts
    while True:
        for j, p in enumerate(records):
            if tall:
                beta[j], v = cross.step(j)
                collapsed[j], quants[j] = p.codes is not None and v is None, v or quants[j]
                continue
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
        if tall:
            trace.append(cross.r2())
        else:
            # the fit summed afresh gives this sweep's R^2 and the next start
            yhat = sum((b * col for b, col in zip(beta, columns)), np.zeros(n))
            resid = z - yhat
            trace.append(1.0 - float(resid @ resid) / n)
        converged = len(trace) >= 2 and trace[-1] - trace[-2] < cfg.epsilon
        if converged or len(trace) == cfg.max_iterations:
            break

    active = [j for j in range(len(records)) if not collapsed[j]]
    if not active:
        raise NumericalError("every predictor's quantification collapsed; nothing to fit")
    active_names = [records[j].name for j in active]
    shared = None
    if _share_round:
        shared = _round(dataset, records, quants, numeric_map, y, (y_mean, y_scale), cross)
        ols = shared.fit([j + 1 for j in active], z, active_names, standardized=True)
    else:
        design = np.column_stack([_column(records[j], quants[j]) for j in active])
        ols = ols_fit(design, z, names=active_names)

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
        _round=shared,
        _sweep=cross,
    )


def _round(dataset, records, quants, numeric_map, y, y_map, cross) -> Round:
    """The round's `stats.Round`: over [1, A] from M when the sweeps built it,
    else over [1, X, y] from Z', formed now. Z' is Q'[1, raw numeric or
    quantified columns, raw y]; a raw column is shift + scale * standardized."""
    shift, scale = np.array([(0.0, 1.0), *(numeric_map.get(p.name, (0.0, 1.0))
                                           for p in records), y_map]).T
    items = [(p.name, p.codes, v) for p, v in zip(records, quants)]

    def rotate():
        return rotation([dataset._stored(name) if codes is None else np.array(v)[codes]
                         for name, codes, v in items], y)

    if cross is None:
        rotated = rotate()
        with np.errstate(all="ignore"):
            K = rotated.T @ rotated
        return Round(K, np.eye(len(K)), np.zeros(len(K), bool), shift, scale, 0.0,
                     lambda: rotated)
    K, T, nonneg = cross.basis(quants, shift, scale)
    # M's sums run over at most n rows, 1'A's too, T'KT's over len(K) terms twice,
    # and a raw numeric column mean + scale * standardized is its own to 4 u;
    # Z', formed apart from M, is Q'(Z + dZ) within its own rotation_error
    u = np.finfo(float).eps / 2
    return Round(K, T, nonneg, shift, scale, u * (cross.n + 2 * len(K) + 8), rotate,
                 rotation_error(cross.n, len(shift)))
