"""Stepwise linear regression gated by coefficient p-values (Efroymson 1960).

Each step first enters the best not-yet-included candidate: the one whose
coefficient p-value, fitted alongside the current set, is smallest, if that
p-value is below alpha_enter. It then removes, one at a time, the included
variable with the largest p-value while that exceeds alpha_remove. Among
exactly equal p-values, p underflowing to 0 included, the first declared wins
either way. Two scans make these choices (`stats.entry_scan`,
`stats.removal_scan`) and evaluate only the p-values they need; those of the
reported fit are computed when first read. Steps repeat until a full step
changes nothing or max_steps is hit. alpha_enter must not exceed
alpha_remove, which rules out enter/remove cycling.

Every fit of a run regresses y on 1 and some of the same columns, so the run
factorizes once: Z = [1, finite candidates, y] = Q R, and all entry and
removal scans work on Z' = Q'Z, which has at most (candidates + 2)
rows and gives every such fit the same coefficients and residual sum of
squares; degrees of freedom use the real n. Z' is formed as the product Q'Z,
not taken as R: a product treats every column alike, and scaling a column by a
power of two commutes exactly with it, so an exact copy or a +-2^k multiple of
a column ties with it bit for bit, and the first declared enters. R does not
keep such ties: QR sets the entries below each pivot to exact zeros, while a
later copy of that column keeps rounding noise there. `ols_fit` has no ties to
keep and takes R alone. Above `stats.BLOCK_ROWS` rows, Z' is formed by row
blocks Z_i: S stacks the products Q_i'Z_i, and Z' = Q_S'S. Both steps are left
products, so the ties survive.

Candidates that cannot be fitted next to the included set (a non-finite cell,
too few rows, a rank-deficient design by the singular value ratio test of
`ols_fit`, or a response without variance) are skipped for that step and
noted in the diagnostics, in declared order, with `ols_fit`'s message;
non-finite cells and the response are screened once per run. The trace
records every entry and removal with its triggering p-value; the reported fit
is one `ols_fit` on the data of the selected columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, require_number
from .stats import FLAT_RESPONSE, NONFINITE, RANK_DEFICIENT, TOO_FEW_ROWS, OlsFit
from .stats import blockwise, entry_scan, ols_fit, removal_scan

ENTERED = "entered"
REMOVED = "removed"


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


@dataclass(frozen=True)
class StepwiseEvent:
    """One audited action: which variable entered or left at which step, and why."""

    step: int
    variable: str
    action: str
    pvalue: float


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


def stepwise_fit(columns, response, config: StepwiseConfig | None = None) -> StepwiseTrace:
    """Run p-value-gated stepwise selection over named columns.

    columns: ordered mapping of name -> 1-d numeric array (insertion order is
    the declared order used for tie-breaking). response: 1-d numeric array of
    the same length.
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
        Z = np.array([np.ones(n), *(cols[name] for name in finite), y]).T  # column-major
        Z = blockwise(Z, lambda rows: np.linalg.qr(rows)[0].T @ rows)

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

        # removal phase: repeatedly drop the worst offender above alpha_remove
        while included:
            z_cols = [at[name] for name in included]  # ascending in declared order
            try:
                worst, worst_p = removal_scan(Z[:, [0, *z_cols, -1]], n, z_cols, cfg.alpha_remove)
            except (NumericalError, ValidationError) as exc:
                raise _unfittable(step, included) from exc
            if worst is None:
                break
            events.append(StepwiseEvent(step, included.pop(worst), REMOVED, worst_p))
            changed = True

        if not changed:
            break

    fit = None
    if included:
        try:
            fit = ols_fit(np.column_stack([cols[name] for name in included]), y, names=included)
        except (NumericalError, ValidationError) as exc:
            raise _unfittable(step, included) from exc
    return StepwiseTrace(
        events=tuple(events),
        selected=tuple(included),
        fit=fit,
        diagnostics=tuple(diagnostics),
    )


def _unfittable(step: int, included: list[str]) -> NumericalError:
    return NumericalError(f"step {step}: the included set {included} cannot be fitted")
