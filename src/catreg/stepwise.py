"""Stepwise linear regression gated by coefficient p-values (Efroymson 1960).

Each step first enters the best not-yet-included candidate: the one whose
coefficient p-value, fitted alongside the current set, is smallest, if that
p-value is below alpha_enter. It then removes, one at a time, the included
variable with the largest p-value while that exceeds alpha_remove; a step that
entered nothing removes nothing, as the last scan cleared the same set. Among
exactly equal p-values, p underflowing to 0 included, the first declared wins
either way. Steps repeat until a full step changes nothing or max_steps is
hit. alpha_enter must not exceed alpha_remove, which rules out enter/remove
cycling.

Every fit of a run regresses y on 1 and some of the same columns, so the run
factorizes once: Z = [1, finite candidates, y] = Q R, and every decision works
on Z' = Q'Z, which has at most (candidates + 2) rows and gives every such fit
the same coefficients and residual sum of squares; degrees of freedom use the
real n. Z' is formed as the product Q'Z, not taken as R: a product treats every
column alike, and scaling a column by a power of two commutes exactly with it,
so an exact copy or a +-2^k multiple of a column ties with it bit for bit, and
the first declared enters. R does not keep such ties: QR sets the entries below
each pivot to exact zeros, while a later copy of that column keeps rounding
noise there. `ols_fit` has no ties to keep and takes R alone. Above
`stats.BLOCK_ROWS` rows, `stats.rotation` forms Z' by row blocks Z_i: S stacks
the products Q_i'Z_i, and Z' = Q_S'S. Both steps are left products, so the ties
survive. A pipeline round hands its Z' in (`_rotated`), formed once for the
round.

The decisions are those of two scans on Z' (`stats.entry_scan`,
`stats.removal_scan`), but most are read off G = Z''Z' (Goodnight 1979, "A
tutorial on the SWEEP operator"): the Cholesky factor L of each included set's
block of G gives every candidate's and every included column's t, each within
a margin (see `_ETA`). A scan decides whatever the margins leave open: a
p-value near an alpha or near underflow, the best two too close, a near-perfect
fit, a failed factor. Rank is decided by a cross-product certificate on
trace(G) ||L^-1||_F^2 over [1, set, candidate], else by the scan's SVD screen.
Event p-values are the scans', replayed on first read where G decided.

Candidates that cannot be fitted next to the included set (a non-finite cell,
too few rows, a rank-deficient design by the singular value ratio test of
`ols_fit`, or a response without variance) are skipped for that step and
noted in the diagnostics, in declared order, with `ols_fit`'s message;
non-finite cells and the response are screened once per run. The trace
records every entry and removal with its triggering p-value. The reported fit
is `ols_fit`'s of the selected columns: on their data at or below
`stats.BLOCK_ROWS` rows, and above that through `ols_fit`'s checks on the rows
Z'[:, [0, selected, -1]] (SST from y), with no n-row pass; a failure raises
that the included set cannot be fitted.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import stats
from .errors import NumericalError, ValidationError, require_number
from .stats import FLAT_RESPONSE, NONFINITE, RANK_DEFICIENT, TOO_FEW_ROWS, OlsFit
from .stats import BLOCK_ROWS, _ols, entry_scan, ols_fit, removal_scan, rotation

ENTERED = "entered"
REMOVED = "removed"

# Margins. Cholesky on G and the scans' QR on Z' are exact for Z' perturbed by
# |dG_ij| <= eta sqrt(G_ii G_jj), eta = _ETA (rows + columns of Z') (Higham 2002,
# 10.1, 19.3). A Schur complement (a pivot d^2, or y's SSE) of column c then
# moves by eta amp G_cc, amp = 2 (1 + k ||L^-1 D||_F^2), D^2 = diag(G) over the
# set's k columns: by eta amp / ratio of itself, for the pivot ratio d^2 / G_cc
# or the residual ratio SSE / G_yy. t = sqrt(df) e / (d sqrt(SSE)) moves by at
# most eta amp (sqrt(df) + 3|t|) / (pivot * residual ratio), plus, for the SVD
# in removal_scan, eta cond (|b| / se + |t|). Past _TRUST, near-perfect fits and
# near-collinear columns among them, the scan decides.
_ETA = 64 * np.finfo(float).eps
_TRUST = 1e-3
_RANK_BOUND = (2.0 * stats._RANK_TOL) ** 2  # twice the scan's singular value ratio, squared
_RANGE = 1e100  # G's diagonal bound, so no product of two entries over- or underflows
_UNDECIDED = object()  # a choice the margins leave to the scan


@dataclass(frozen=True)
class StepwiseConfig:
    """Entry/removal thresholds and the step budget.

    max_steps defaults to twice the number of candidate columns when None.
    Requires 0 < alpha_enter <= alpha_remove < 1.
    """

    alpha_enter: float = 0.05
    alpha_remove: float = 0.10
    max_steps: int | None = None

    def __post_init__(self):
        require_number("alpha_enter", self.alpha_enter)
        require_number("alpha_remove", self.alpha_remove)
        if self.max_steps is not None:
            require_number("max_steps", self.max_steps, integer=True)
        if not (0.0 < self.alpha_enter < 1.0) or not (0.0 < self.alpha_remove < 1.0):
            raise ValidationError("alpha thresholds must lie strictly between 0 and 1")
        if self.alpha_enter > self.alpha_remove:
            raise ValidationError(
                "alpha_enter must not exceed alpha_remove (prevents enter/remove cycling)"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise ValidationError("max_steps must be >= 1 when given")


@dataclass(frozen=True, eq=False)
class StepwiseEvent:
    """One audited action: which variable entered or left at which step, and why.

    p is the p-value, or a callable that `pvalue` calls on first read. Events
    are equal when step, variable, action and pvalue are."""

    step: int
    variable: str
    action: str
    p: float | Callable[[], float]

    @cached_property
    def pvalue(self) -> float:
        return self.p() if callable(self.p) else self.p

    def _key(self):
        return self.step, self.variable, self.action, self.pvalue

    def __eq__(self, other):
        return isinstance(other, StepwiseEvent) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class StepwiseTrace:
    """Full audit of a stepwise run.

    selected preserves entry order (minus removals). fit is None when nothing
    survived selection.
    """

    events: tuple[StepwiseEvent, ...]
    selected: tuple[str, ...]
    fit: OlsFit | None
    diagnostics: tuple[str, ...]


def stepwise_fit(
    columns, response, config: StepwiseConfig | None = None, *, _rotated=None
) -> StepwiseTrace:
    """Run p-value-gated stepwise selection over named columns.

    columns: ordered mapping of name -> 1-d numeric array (insertion order is
    the declared order used for tie-breaking). response: 1-d numeric array of
    the same length. _rotated, when given, is `stats.rotation` of every column
    and the response, all finite, as a pipeline round shares it.
    """
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

    # screened once: a candidate with a non-finite cell (every candidate, when
    # the response has one) is skipped at every step, and a response without
    # variance lets nothing enter
    finite = []
    if np.isfinite(y).all():
        finite = [name for name in names if np.isfinite(cols[name]).all()]
    flat = bool(finite) and (np.ptp(y) == 0.0 or float(((y - y.mean()) ** 2).sum()) <= 0.0)
    at = {name: j + 1 for j, name in enumerate(finite)}  # column of Z
    if finite:
        # Z' = Q'[1, finite columns, y] as a product; see the module docstring
        Z = _rotated if _rotated is not None else rotation([cols[name] for name in finite], y)
        gram = _Gram(Z, n)

    included: list[str] = []
    events: list[StepwiseEvent] = []
    diagnostics: list[str] = []

    for step in range(1, max_steps + 1):
        changed = False

        # entry phase: the candidate with the smallest p-value next to the
        # included set, first declared among equal p-values
        pending = [name for name in names if name not in included]
        reasons = dict.fromkeys(pending, NONFINITE)
        scored = [name for name in pending if name in at]
        base = [0, *(at[name] for name in included)]  # columns of Z, in entry order
        k = len(base)
        if scored and n <= k + 1:
            reasons.update(dict.fromkeys(scored, TOO_FEW_ROWS.format(n, k + 1)))
        elif scored:
            cand = [at[name] for name in scored]
            best = _UNDECIDED if flat else gram.entry(base, cand, cfg.alpha_enter)
            if best is _UNDECIDED:
                best, best_p, deficient = entry_scan(Z[:, base], Z[:, cand], Z[:, -1], n)
                if flat or best is None or not best_p < cfg.alpha_enter:
                    best = None
            else:
                deficient = [False] * len(cand)
                best_p = lambda b=base, c=cand: entry_scan(Z[:, b], Z[:, c], Z[:, -1], n)[1]
            for name, bad in zip(scored, deficient):
                reasons[name] = RANK_DEFICIENT if bad else (FLAT_RESPONSE if flat else None)
            if best is not None:
                included.append(scored[best])
                events.append(StepwiseEvent(step, scored[best], ENTERED, best_p))
                changed = True
        diagnostics.extend(
            f"step {step}: candidate '{name}' skipped ({why})"
            for name, why in reasons.items()
            if why is not None
        )

        # removal phase: repeatedly drop the worst offender above alpha_remove
        while changed and included:
            z_cols = [at[name] for name in included]  # columns of Z, in entry order
            scan = partial(removal_scan, Z[:, [0, *z_cols, -1]], n, z_cols, cfg.alpha_remove)
            worst = gram.removal([0, *z_cols], cfg.alpha_remove)
            if worst is _UNDECIDED:
                try:
                    worst, worst_p = scan()
                except (NumericalError, ValidationError) as exc:
                    raise _unfittable(step, included) from exc
            else:
                worst_p = lambda scan=scan: scan()[1]
            if worst is None:
                break
            events.append(StepwiseEvent(step, included.pop(worst), REMOVED, worst_p))

        if not changed:
            break

    fit = None
    if included:
        try:
            if n > BLOCK_ROWS:
                fit = _ols(Z[:, [0, *(at[name] for name in included), -1]], y, included)
            else:
                fit = ols_fit(np.column_stack([cols[name] for name in included]), y, names=included)
        except (NumericalError, ValidationError) as exc:
            raise _unfittable(step, included) from exc
    return StepwiseTrace(
        events=tuple(events),
        selected=tuple(included),
        fit=fit,
        diagnostics=tuple(diagnostics),
    )


class _Gram:
    """The scans' decisions read off G = Z''Z' for Z' over n rows, or _UNDECIDED."""

    def __init__(self, Z, n):
        with np.errstate(all="ignore"):
            self.G = Z.T @ Z
        self.g, self.n, self.eta = self.G.diagonal(), n, _ETA * sum(Z.shape)
        self.views = {} if ((self.g > 1.0 / _RANGE) & (self.g < _RANGE)).all() else None

    @np.errstate(all="ignore")
    def view(self, base):
        # per set, None if L fails or G is out of range: L^-1, W = L^-1 G[base],
        # every column's residual cross-products with itself and with y (Schur
        # complements), amp, diag(G[base]^-1), trace(G[base]) and ||L^-1||_F^2
        if self.views is None:
            return None
        if (key := tuple(base)) not in self.views:
            rows, g = self.G[base], self.g[base]
            try:
                Linv = np.linalg.inv(np.linalg.cholesky(rows[:, base]))
            except np.linalg.LinAlgError:
                return self.views.setdefault(key, None)
            W, v = Linv @ rows, (Linv * Linv).sum(axis=0)
            self.views[key] = (Linv, W, self.g - np.einsum("ij,ij->j", W, W),
                               self.G[-1] - W[:, -1] @ W,
                               2.0 * (1.0 + len(base) * float(v @ g)), v, g.sum(), v.sum())
        return self.views[key]

    @np.errstate(all="ignore")
    def entry(self, base, cand, alpha):
        """Index into cand of the candidate that enters, None, or _UNDECIDED."""
        if (view := self.view(base)) is None:
            return _UNDECIDED
        _, _, resid, cross, amp, _, trace, fro = view
        g, d2, e, df = self.g[cand], resid[cand], cross[cand], self.n - len(base) - 1
        sse = resid[-1] - e * e / d2
        rel = self.eta * amp / ((d2 / g) * (sse / self.g[-1]))
        # the certificate of [1, set, candidate], from its factor's last row
        cond2 = (trace + g) * (fro + (1.0 + g * fro) / (d2 * (1.0 - rel)))
        t = e * np.sqrt(df / d2 / sse)
        return _choose(t, rel, cond2, rel * (math.sqrt(df) + 3.0 * np.abs(t)), df, alpha, True)

    @np.errstate(all="ignore")
    def removal(self, base, alpha):
        """Index into base[1:] of the column that leaves, None, or _UNDECIDED."""
        if (view := self.view(base)) is None:
            return _UNDECIDED
        Linv, W, resid, _, amp, v, trace, fro = view
        b, v, df, cond2 = Linv.T @ W[:, -1], v[1:], self.n - len(base), trace * fro
        rel = self.eta * amp * self.g[base[1:]] * v / (resid[-1] / self.g[-1])
        t = b[1:] / (se := np.sqrt(resid[-1] / df * v))
        err = rel * (math.sqrt(df) + 3.0 * np.abs(t))
        err += self.eta * math.sqrt(cond2) * (np.linalg.norm(b) / se + np.abs(t))
        return _choose(t, rel, cond2, err, df, alpha, False)


def _choose(t, rel, cond2, err, df, alpha, enter):
    """The scan's choice among t known to within err, or _UNDECIDED unless every
    rel < _TRUST and cond2 passes _RANK_BOUND. q = s p falls as s |t| grows (s = 1
    to enter, -1 to remove), so the scan's q lies in [q(near), q(far)]; it picks
    the smallest q, if below s alpha (None if not), the first declared on ties."""
    if not ((rel < _TRUST).all() and (cond2 * _RANK_BOUND < 1.0).all() and np.isfinite(err).all()):
        return _UNDECIDED
    s, a = (1.0 if enter else -1.0), np.abs(t)
    near, far = np.maximum(a + s * err, 0.0), np.maximum(a - s * err, 0.0)

    def q(x):
        return s * stats.t_pvalue(float(x), df)

    if not enter and q(near.min()) >= s * alpha:  # removals are rare: check that first
        return None
    j = int(np.argmax(s * a))
    if (q_j := q(far[j])) >= s * alpha:  # even j may keep the set
        return None if q(near[np.argmax(s * near)]) >= s * alpha else _UNDECIDED
    if q_j == 0.0:  # entry: the first declared among those whose p underflows to 0
        zero = []
        for i in np.argsort(-near, kind="stable"):
            if q(far[i]) == 0.0:
                zero.append(int(i))
            elif q(near[i]) > 0.0:
                break  # and so at every smaller near
            else:
                return _UNDECIDED
        return min(zero)
    near[j] = 0.0 if enter else math.inf  # near now bounds the rivals
    return j if q(near[np.argmax(s * near)]) > q_j else _UNDECIDED


def _unfittable(step: int, included: list[str]) -> NumericalError:
    return NumericalError(f"step {step}: the included set {included} cannot be fitted")
