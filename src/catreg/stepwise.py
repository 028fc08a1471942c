"""Stepwise linear regression gated by coefficient p-values (Efroymson 1960).

Each step first tries to enter the best not-yet-included candidate: the one
whose coefficient p-value, fitted alongside the current set, is smallest
enters if that p-value is below alpha_enter. One scan (`stats.entry_scan`)
scores all candidates from a single QR factorization of the included set and
evaluates p-values only from the largest |t| down to the first one that is
larger; among exactly equal p-values, p underflowing to 0 included, the first
declared candidate wins. The step then removes, one at a time, the included
variable with the largest p-value while it exceeds alpha_remove (ties again
to the first declared). Steps repeat until a full step changes nothing or
max_steps is hit. alpha_enter must not exceed alpha_remove, which rules out
enter/remove cycling.

Candidates that cannot be fitted next to the included set (a non-finite cell,
too few rows, a rank-deficient design by the singular value ratio test of
`ols_fit`, or a response without variance) are skipped for that step and
noted in the diagnostics, in declared order, with `ols_fit`'s message. The
trace records every entry and removal with its triggering p-value; the reported
fit is the last removal-phase fit, made from scratch on the selected columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, require_number
from .stats import OlsFit, entry_scan, ols_fit

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

    included: list[str] = []
    fit: OlsFit | None = None
    events: list[StepwiseEvent] = []
    diagnostics: list[str] = []

    for step in range(1, max_steps + 1):
        changed = False

        # entry phase: the candidate with the smallest p-value next to the
        # included set, first declared among equal p-values
        pending = [name for name in names if name not in included]
        if pending:
            best, best_p, reasons = entry_scan(
                [cols[name] for name in included], [cols[name] for name in pending], y
            )
            diagnostics.extend(
                f"step {step}: candidate '{name}' skipped ({why})"
                for name, why in zip(pending, reasons)
                if why is not None
            )
            if best is not None and best_p < cfg.alpha_enter:
                included.append(pending[best])
                events.append(StepwiseEvent(step, pending[best], ENTERED, best_p))
                changed = True

        # removal phase: repeatedly drop the worst offender above alpha_remove
        while included:
            try:
                design = np.column_stack([cols[name] for name in included])
                fit = ols_fit(design, y, names=included)
            except (NumericalError, ValidationError) as exc:
                raise NumericalError(
                    f"step {step}: the included set {included} cannot be fitted"
                ) from exc
            order = sorted(range(len(included)), key=lambda i: names.index(included[i]))
            worst = max(order, key=lambda i: fit.pvalue[i])  # first declared among ties
            worst_p = float(fit.pvalue[worst])
            if worst_p <= cfg.alpha_remove:
                break
            events.append(StepwiseEvent(step, included.pop(worst), REMOVED, worst_p))
            changed = True

        if not changed:
            break

    return StepwiseTrace(
        events=tuple(events),
        selected=tuple(included),
        fit=fit if included else None,
        diagnostics=tuple(diagnostics),
    )
