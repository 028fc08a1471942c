"""p-value gated forward/backward variable selection."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catreg import (
    NumericalError,
    StepwiseConfig,
    StepwiseEvent,
    ValidationError,
    compare_baseline,
    ingest_dataset,
    load_gearing,
    ols_fit,
    stepwise,
    stepwise_fit,
)
from catreg.stats import BLOCK_ROWS, fit_rows, removal_scan, t_pvalue
from catreg.stepwise import ENTERED, REMOVED
from helpers import (
    assert_raises_exactly,
    oracle_ols_fit,
    oracle_stepwise_fit,
    reference_stepwise_fit,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def _planted(seed: int = 0, n: int = 50):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    return {"x1": x1, "x2": x2}, 2.0 * x1


class TestConfig:
    def test_defaults(self):
        cfg = StepwiseConfig()
        assert cfg.alpha_enter == 0.05
        assert cfg.alpha_remove == 0.10

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValidationError):
            StepwiseConfig(alpha_enter=0.2, alpha_remove=0.1)
        with pytest.raises(ValidationError):
            StepwiseConfig(alpha_enter=0.0)
        with pytest.raises(ValidationError):
            StepwiseConfig(alpha_remove=1.0)


class TestSelection:
    def test_planted_single_signal(self):
        cols, y = _planted()
        trace = stepwise_fit(cols, y, StepwiseConfig())
        assert trace.selected == ("x1",)
        assert [e.action for e in trace.events] == [ENTERED]
        assert trace.events[0].variable == "x1"

    def test_pure_noise_selects_nothing(self):
        rng = np.random.default_rng(0)
        cols = {f"x{j}": rng.normal(size=50) for j in range(1, 6)}
        y = rng.normal(size=50)
        trace = stepwise_fit(cols, y, StepwiseConfig())
        assert trace.selected == ()
        assert trace.events == ()
        assert trace.fit is None
        # oracle: no candidate clears the gate even marginally
        for col in cols.values():
            assert ols_fit(col.reshape(-1, 1), y).pvalue[0] > 0.05

    def test_nine_strong_predictors_all_significant(self):
        rng = np.random.default_rng(42)
        n = 194
        X = rng.normal(size=(n, 9))
        beta = np.linspace(0.4, 1.2, 9)
        y = X @ beta + rng.normal(scale=0.8, size=n)
        cols = {f"x{j + 1}": X[:, j] for j in range(9)}
        trace = stepwise_fit(cols, y, StepwiseConfig())
        assert len(trace.selected) == 9
        assert all(p < 0.05 for p in trace.fit.pvalue)

    def test_enter_then_remove_path(self):
        # x3 is a noisy proxy for x1+x2: it wins the first step, then becomes
        # redundant once the real signals are both in, and gets dropped
        rng = np.random.default_rng(0)
        n = 120
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        x3 = (x1 + x2) / np.sqrt(2.0) + 0.3 * rng.normal(size=n)
        y = x1 + x2 + 0.8 * rng.normal(size=n)
        trace = stepwise_fit({"x1": x1, "x2": x2, "x3": x3}, y, StepwiseConfig())
        assert set(trace.selected) == {"x1", "x2"}
        path = [(e.variable, e.action) for e in trace.events]
        assert path[0] == ("x3", ENTERED)
        assert ("x3", REMOVED) in path
        # alternation: the proxy entered once and was removed once
        x3_actions = [a for v, a in path if v == "x3"]
        assert x3_actions == [ENTERED, REMOVED]

    def test_event_pvalues_respect_gates(self):
        rng = np.random.default_rng(0)
        n = 120
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        x3 = (x1 + x2) / np.sqrt(2.0) + 0.3 * rng.normal(size=n)
        y = x1 + x2 + 0.8 * rng.normal(size=n)
        cfg = StepwiseConfig()
        trace = stepwise_fit({"x1": x1, "x2": x2, "x3": x3}, y, cfg)
        assert trace.events
        for event in trace.events:
            if event.action == ENTERED:
                assert event.pvalue < cfg.alpha_enter
            else:
                assert event.pvalue > cfg.alpha_remove

    def test_final_coefficients_below_alpha_remove(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(80, 6))
            y = X[:, 0] + 0.7 * X[:, 1] + rng.normal(size=80)
            cols = {f"x{j + 1}": X[:, j] for j in range(6)}
            cfg = StepwiseConfig()
            trace = stepwise_fit(cols, y, cfg)
            if trace.fit is not None:
                assert all(p < cfg.alpha_remove for p in trace.fit.pvalue)


class TestAuditability:
    def test_final_fit_matches_scratch_refit(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(70, 5))
        y = X[:, 2] + 0.6 * X[:, 4] + rng.normal(size=70)
        cols = {f"x{j + 1}": X[:, j] for j in range(5)}
        trace = stepwise_fit(cols, y, StepwiseConfig())
        assert trace.selected
        design = np.column_stack([cols[name] for name in trace.selected])
        scratch = ols_fit(design, y, names=list(trace.selected))
        # the reported fit is this same ols_fit, so it matches exactly
        np.testing.assert_array_equal(trace.fit.coef, scratch.coef)
        np.testing.assert_array_equal(trace.fit.pvalue, scratch.pvalue)
        assert trace.fit.intercept == scratch.intercept
        assert trace.fit.r2 == scratch.r2

    def test_determinism(self):
        cols, y = _planted(seed=9, n=80)
        a = stepwise_fit(cols, y, StepwiseConfig())
        b = stepwise_fit(cols, y, StepwiseConfig())
        assert a.selected == b.selected
        assert [(e.variable, e.action, e.pvalue) for e in a.events] == [
            (e.variable, e.action, e.pvalue) for e in b.events
        ]

    def test_raising_alpha_enter_never_shrinks_first_entry(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 4))
        y = 0.5 * X[:, 1] + rng.normal(size=60)
        cols = {f"x{j + 1}": X[:, j] for j in range(4)}
        previous: set = set()
        for alpha in (0.001, 0.01, 0.05, 0.2, 0.5):
            trace = stepwise_fit(
                cols, y, StepwiseConfig(alpha_enter=alpha, alpha_remove=0.9)
            )
            first = {trace.events[0].variable} if trace.events else set()
            assert previous <= first or previous == first
            previous = first


class TestDegenerateCandidates:
    # 2049 and 5000 rows are more than one block of stats.BLOCK_ROWS
    @pytest.mark.parametrize("n", [50, 2049, 5000])
    def test_collinear_candidate_skipped_with_diagnostic(self, n):
        # each pair ties exactly (a copy, or a power-of-two multiple, of x1):
        # the first declared enters, the other is then rank-deficient next to it.
        # The noise grows with n (t near 47, 7 and 5), so p stays above 0, where
        # any two candidates would tie whatever their bits.
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=n)
        y = 2.0 * x1 + rng.normal(scale=0.3 * n / 50, size=n)
        for cols in (
            {"x1": x1, "dup": 2.0 * x1},
            {"x1": x1, "dup": x1.copy()},
            {"x1": x1, "dup": -2.0 * x1},
            {"x1": x1, "dup": 0.25 * x1},
            {"dup": 2.0 * x1, "x1": x1},
            {"dup": -4.0 * x1, "x1": x1},
        ):
            first, second = cols
            trace = stepwise_fit(cols, y, StepwiseConfig())
            assert trace.selected == (first,), cols
            assert any(f"'{second}' skipped (design matrix is rank-deficient" in d
                       for d in trace.diagnostics)

    @pytest.mark.parametrize("scale", [1e150, 1e160])
    def test_candidate_whose_square_overflows_is_rank_deficient(self, scale):
        # at 1e160 the candidate's squared residual norm overflows to inf and
        # its SVD to NaN; the screen must skip it as at 1e150, as ols_fit does
        x = np.array([1.0, -1.0, 1.0, -1.0, 2.0, -2.0]) * scale
        y = np.array([1.0, 2.0, 3.0, 5.0, 4.0, 7.0])
        trace = stepwise_fit({"x": x}, y)
        assert (trace.events, trace.selected) == ((), ())
        assert trace.diagnostics == (
            "step 1: candidate 'x' skipped (design matrix is rank-deficient "
            "(singular value ratio below 1e-10))",
        )
        with pytest.raises(NumericalError, match="rank-deficient"):
            ols_fit(x[:, None], y)

    def test_no_candidates_rejected(self):
        with pytest.raises(ValidationError):
            stepwise_fit({}, np.arange(5.0), StepwiseConfig())

    def test_underflowing_pvalues_tie_to_the_first_declared(self):
        # both candidates reach p = 0 exactly; "b" has the larger |t| but "a"
        # is declared first and enters first, as when every candidate was refit
        rng = np.random.default_rng(8)
        a, z, noise = rng.normal(size=(3, 2000))
        b = a + 0.5 * z
        y = a + 2.0 * b + 0.01 * noise
        trace = stepwise_fit({"a": a, "b": b}, y, StepwiseConfig())
        assert [(e.variable, e.pvalue) for e in trace.events] == [("a", 0.0), ("b", 0.0)]
        assert trace.events == oracle_stepwise_fit({"a": a, "b": b}, y).events

    def test_max_steps_caps_work(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(90, 4))
        y = X.sum(axis=1) + 0.5 * rng.normal(size=90)
        cols = {f"x{j + 1}": X[:, j] for j in range(4)}
        trace = stepwise_fit(cols, y, StepwiseConfig(max_steps=1))
        assert len(trace.selected) == 1


TWISTS = ("proxy", "duplicate", "scaled", "collinear", "constant", "nonfinite", "flat_response")


@st.composite
def designs(draw):
    """Random selection problems, some with a degenerate candidate or response."""
    n = draw(st.one_of(st.integers(8, 16), st.integers(8, 300)))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, m))
    beta = rng.normal(size=m) * (rng.random(m) < 0.5)
    y = X @ beta + draw(st.sampled_from((0.05, 0.5, 2.0))) * rng.normal(size=n)
    twists = draw(st.lists(st.sampled_from(TWISTS), max_size=2, unique=True))
    for twist in sorted(twists, key=TWISTS.index):
        j, i, k = rng.choice(m, size=3, replace=m < 3)
        if twist == "proxy":  # enters early, then is removed once i and k are in
            X[:, j] = (X[:, i] + X[:, k]) / np.sqrt(2.0) + 0.3 * rng.normal(size=n)
            y = X[:, i] + X[:, k] + 0.8 * rng.normal(size=n)
        elif twist == "duplicate":
            X[:, j] = X[:, i]
        elif twist == "scaled":
            X[:, j] = -2.0 * X[:, i]
        elif twist == "collinear":
            X[:, j] = 0.7 * X[:, i] - 1.3 * X[:, k] + 2.0
        elif twist == "constant":
            X[:, j] = 3.0
        elif twist == "nonfinite":
            X[rng.integers(0, n), j] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
        else:
            y = np.full(n, 1.7)
    alpha_enter = draw(st.sampled_from((0.05, 0.2)))
    cfg = StepwiseConfig(alpha_enter=alpha_enter, alpha_remove=max(0.1, alpha_enter))
    return {f"v{j + 1}": X[:, j].copy() for j in range(m)}, y, cfg


def _oracle_pvalue(cols, y, included, name):
    # the p-value the oracle gives `name` with `included` fitted alongside it
    names = included + [name] if name not in included else included
    fit = oracle_ols_fit(np.column_stack([cols[v] for v in names]), y)
    return float(fit.pvalue[names.index(name)])


class TestAgainstOracle:
    """The one-factorization entry scan and the SVD fit make the same choices
    as refitting every candidate with SVD + QR + inv(R)."""

    @given(designs())
    @settings(max_examples=300, deadline=None)
    def test_same_selection_events_and_diagnostics(self, problem):
        cols, y, cfg = problem
        new = stepwise_fit(cols, y, cfg)
        old = oracle_stepwise_fit(cols, y, cfg)
        included: list[str] = []
        for a, b in zip(new.events, old.events):
            if (a.step, a.variable, a.action) != (b.step, b.variable, b.action):
                # two candidates whose p-values agree in exact arithmetic (a
                # column and a combination that differs from it only by
                # included columns) are ordered by rounding; nothing else may
                # make the paths part
                assert (a.step, a.action) == (b.step, b.action)
                pa = _oracle_pvalue(cols, y, included, a.variable)
                pb = _oracle_pvalue(cols, y, included, b.variable)
                assert pa == pytest.approx(pb, rel=1e-9)
                return
            assert a.pvalue == pytest.approx(b.pvalue, rel=1e-9)
            if a.action == ENTERED:
                included.append(a.variable)
            else:
                included.remove(a.variable)
        assert len(new.events) == len(old.events)
        assert new.selected == old.selected
        assert new.diagnostics == old.diagnostics
        if old.fit is not None:
            assert new.fit.coef == pytest.approx(old.fit.coef, rel=1e-7, abs=1e-9)
            assert new.fit.pvalue == pytest.approx(old.fit.pvalue, rel=1e-9)


class TestAboveOneBlock:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_events_and_selection_as_the_oracle(self, seed):
        # n = 5000 rows, so Z' and the reported fit are formed by row blocks; a
        # proxy of v2 + v3 enters first and leaves once both are in
        rng = np.random.default_rng(seed)
        n = 5000
        X = rng.normal(size=(n, 8))
        X[:, 7] = (X[:, 1] + X[:, 2]) / np.sqrt(2.0) + 0.3 * rng.normal(size=n)
        beta = np.array([0.05, 1.0, 1.0, 0.0, 0.04, 0.0, 0.03, 0.0])
        y = X @ beta + 5.0 * rng.normal(size=n)
        cols = {f"v{j + 1}": X[:, j] for j in range(8)}
        new, old = stepwise_fit(cols, y), oracle_stepwise_fit(cols, y)
        assert [(e.step, e.variable, e.action) for e in new.events] == [
            (e.step, e.variable, e.action) for e in old.events]
        assert [e.pvalue for e in new.events] == pytest.approx(
            [e.pvalue for e in old.events], rel=1e-9)
        assert new.selected == old.selected
        assert new.diagnostics == old.diagnostics


REMOVAL_TWISTS = ("zero", "huge", "perfect", "copy", "scaled")


@st.composite
def removal_problems(draw):
    """Rows of a fit as `fit_rows` takes them, the declared place of each column
    of X, and the twists applied.

    "data" rows are random [1, X, y]; the others are a triangle R of [1, X, y].
    A diagonal triangle gives column j the t-statistic r_j sign(d_j) / s with
    every rounding step the same for all columns, so a copy of a column (the
    same d and r) or a +-2^k multiple of it (d scaled by +-2^k) ties with it
    on |t| bit for bit. "zero" plants a zero coefficient (t = 0, p = 1),
    "huge" one whose p underflows to 0, and "perfect" a perfect fit (every
    other t is +-inf and its p is 0).
    """
    k = draw(st.integers(1, 8))  # columns of X
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("data", "triangle", "diagonal")))
    rank = rng.permutation(k)
    if kind == "data":
        n = k + 2 + draw(st.integers(0, 60))
        return np.column_stack([np.ones(n), rng.normal(size=(n, k + 1))]), n, rank, ()
    size = k + 1
    rows = np.triu(rng.normal(size=(size + 1, size + 1)))
    signs = rng.choice([-1.0, 1.0], size)
    if kind == "triangle":
        rows[range(size), range(size)] = signs * (1.0 + rng.random(size))
    else:
        rows[:size, :size] = np.diag(signs * 2.0 ** rng.integers(-3, 4, size))
    pool = REMOVAL_TWISTS if k > 1 else REMOVAL_TWISTS[:3]  # a copy needs two columns
    twists = [] if kind == "triangle" else draw(st.lists(st.sampled_from(pool), max_size=4))
    for twist in sorted(twists, key=REMOVAL_TWISTS.index):  # the last copy keeps its tie
        i, j = rng.choice(np.arange(1, size), size=2, replace=k < 2)
        if twist == "copy":
            rows[j, j], rows[j, -1] = rows[i, i], rows[i, -1]
        elif twist == "scaled":
            scale = rng.choice([-1.0, 1.0]) * 2.0 ** rng.integers(-3, 4)
            rows[j, j], rows[j, -1] = scale * rows[i, i], rows[i, -1]
        elif twist == "zero":
            rows[j, -1] = 0.0
        elif twist == "huge":
            rows[j, -1] = 1e30
        else:
            rows[-1, -1] = 0.0
    return rows, size + 1 + draw(st.integers(0, 200)), rank, tuple(twists)


def _removal_by_max(rows, n, rank):
    # the rule the scan replaces: every p-value, the largest taken, first
    # declared among equal ones
    t = fit_rows(rows, n)[2]
    p = [t_pvalue(float(v), n - t.size - 1) for v in t]
    worst = max(sorted(range(t.size), key=lambda j: rank[j]), key=lambda j: p[j])
    return worst, p[worst]


class TestRemovalScan:
    @given(removal_problems())
    @settings(max_examples=400, deadline=None)
    def test_picks_the_largest_pvalue_first_declared_among_ties(self, problem):
        rows, n, rank, twists = problem
        if {"copy", "scaled"} & set(twists):
            t = fit_rows(rows, n)[2]
            assert np.unique(np.abs(t)).size < t.size  # the planted tie holds
        worst, worst_p = _removal_by_max(rows, n, rank)
        assert removal_scan(rows, n, rank, -math.inf) == (worst, worst_p)
        for alpha in (0.0, 0.05, 0.1, 0.5):
            got, p = removal_scan(rows, n, rank, alpha)
            assert got == (worst if worst_p > alpha else None)
            assert p == worst_p



EXACT_TWISTS = ("scales", "copy", "near_collinear", "close_t", "underflow", "perfect", "huge",
                "tall", "near_alpha")


@st.composite
def exact_scan_problems(draw):
    """Selection problems around the margins of the cross-product decisions.

    "scales" scales and shifts each column by up to 1e4; "copy" is an exact
    copy or a +-2^k multiple of a column; "near_collinear" a column whose pivot
    ratio next to [1, x_i] is 1e-5 to 1e-9; "close_t" two orthogonal
    candidates whose |t| differ by about 1e-7 relative, or by a few rounding
    errors; "underflow" several candidates whose p underflows to 0;
    "perfect" a near-perfect fit; "huge" a column scaled by 1e150 or 1e160;
    "tall" more than BLOCK_ROWS rows; "near_alpha" sets alpha_enter or
    alpha_remove within 1e-3 (relative) of a p-value of the run, or to it.
    """
    twists = draw(st.lists(st.sampled_from(EXACT_TWISTS), min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if "tall" in twists:
        n = int(rng.integers(BLOCK_ROWS + 1, BLOCK_ROWS + 400))
    else:
        n = int(rng.integers(200, 800) if "underflow" in twists else rng.integers(8, 200))
    m = int(rng.integers(3, 9))
    mix = np.eye(m) + rng.choice([0.0, 0.3, 1.0]) * rng.normal(size=(m, m))
    X = rng.normal(size=(n, m)) @ mix
    y = X @ (rng.normal(size=m) * (rng.random(m) < 0.5))
    y += rng.choice([0.3, 1.0, 3.0]) * rng.normal(size=n)
    for twist in sorted(twists, key=EXACT_TWISTS.index):
        i, j, k = (int(v) for v in rng.choice(m, size=3, replace=False))
        if twist == "scales":
            X = X * 10.0 ** rng.uniform(-4, 4, size=m) + 10.0 ** rng.uniform(-4, 4, size=m)
        elif twist == "copy":
            X[:, j] = rng.choice([-1.0, 1.0]) * 2.0 ** int(rng.integers(-3, 4)) * X[:, i]
        elif twist == "near_collinear":
            Q = np.linalg.qr(np.column_stack([np.ones(n), X[:, i]]))[0]
            e = rng.normal(size=n)
            e -= Q @ (Q.T @ e)
            e *= 10.0 ** -rng.uniform(5, 9) * np.linalg.norm(X[:, i]) / np.linalg.norm(e)
            X[:, j] = X[:, i] + e
        elif twist == "close_t":
            Q = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, 3))]))[0]
            X[:, i], X[:, j] = Q[:, 1] * math.sqrt(n), Q[:, 2] * math.sqrt(n)
            r = 10.0 ** rng.choice([rng.uniform(-7.5, -6.5), rng.uniform(-17, -15.5)])
            r *= rng.choice([-1.0, 1.0])
            y = X[:, i] + (1.0 + r) * X[:, j] + rng.uniform(0.5, 3.0) * math.sqrt(n) * Q[:, 3]
        elif twist == "underflow":
            X[:, j] = X[:, i] + 0.1 * rng.normal(size=n)
            X[:, k] = X[:, i] - 0.05 * rng.normal(size=n)
            y = X[:, i] + 1e-6 * rng.normal(size=n)
        elif twist == "perfect":
            y = X[:, i] - 0.5 * X[:, j] + rng.choice([0.0, 1e-13, 1e-9]) * rng.normal(size=n)
        elif twist == "huge":
            X[:, j] *= rng.choice([1e150, 1e160])
    cols = {f"v{j + 1}": X[:, j].copy() for j in range(m)}
    cfg = StepwiseConfig()
    if "near_alpha" in twists:
        try:
            events = reference_stepwise_fit(cols, y, StepwiseConfig(0.5, 0.5)).events
        except NumericalError:
            events = ()
        events = [e for e in events if 0.0 < e.pvalue < 1.0]
        if events:
            event = events[int(rng.integers(len(events)))]
            shift = draw(st.sampled_from((-1e-3, -1e-9, 0.0, 1e-12, 1e-9, 1e-3)))
            alpha = min(event.pvalue * (1.0 + shift), 1.0 - 1e-12)
            if event.action == ENTERED:
                cfg = StepwiseConfig(alpha, max(alpha, 0.5))
            else:
                cfg = StepwiseConfig(min(alpha, 0.5), alpha)
    return cols, y, cfg


def _outcome(fit, cols, y, cfg):
    # everything a run reports, the event p-values and the fit's arrays as bits
    try:
        trace = fit(cols, y, cfg)
    except NumericalError as exc:
        return str(exc)
    final = trace.fit
    if final is not None:
        final = (final.names, final.coef.tobytes(), final.intercept, final.stderr.tobytes(),
                 final.tstat.tobytes(), final.r2, final.adj_r2, final.n, final.p)
    return ([(e.step, e.variable, e.action, e.pvalue) for e in trace.events],
            trace.selected, trace.diagnostics, final)


def _count_decisions(monkeypatch) -> dict:
    """Count the exact scans stepwise runs and the cross-product decisions it
    tries: entry_scan and removal_scan calls, p-value replays included."""
    calls = dict.fromkeys(("entry_scan", "removal_scan", "entry", "removal"), 0)

    def counted(owner, name):
        original = getattr(owner, name)

        def count(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, count)

    for owner, name in ((stepwise, "entry_scan"), (stepwise, "removal_scan"),
                        (stepwise._Gram, "entry"), (stepwise._Gram, "removal")):
        counted(owner, name)
    return calls


class TestCrossProductDecisions:
    """Entries and removals read off the cross-product matrix decide exactly
    what the exact scans decide, and leave them only the close calls."""

    @given(exact_scan_problems())
    @settings(max_examples=500, deadline=None)
    def test_same_outcome_as_the_exact_scans_bit_for_bit(self, problem):
        cols, y, cfg = problem
        assert _outcome(stepwise_fit, cols, y, cfg) == _outcome(
            reference_stepwise_fit, cols, y, cfg)

    def test_the_sample_comparison_runs_no_exact_scan(self, monkeypatch):
        dataset, _ = ingest_dataset(
            str(DATA / "responses.sample.csv"), load_gearing(str(DATA / "gearing.sample.json")))
        calls = _count_decisions(monkeypatch)
        compare_baseline(dataset, k=6, seed=42)
        assert calls == {"entry_scan": 0, "removal_scan": 0, "entry": 126, "removal": 119}

    def test_an_underflowing_winner_on_20k_rows_runs_no_exact_scan(self, monkeypatch):
        # v1, v2 and v3 all reach p = 0 at step 1, where v2 has the largest |t|
        # and v1, a proxy of v2 declared first, enters; v1 leaves once v2 is in
        rng = np.random.default_rng(5)
        n = 20_000
        X = rng.normal(size=(n, 8))
        X[:, 0] = X[:, 1] + 0.3 * rng.normal(size=n)
        y = X[:, 1] + 0.5 * X[:, 2] + 0.3 * X[:, 4] + 0.5 * rng.normal(size=n)
        cols = {f"v{j + 1}": X[:, j] for j in range(8)}
        cfg = StepwiseConfig(1e-4, 1e-3)
        calls = _count_decisions(monkeypatch)
        trace = stepwise_fit(cols, y, cfg)
        assert calls == {"entry_scan": 0, "removal_scan": 0, "entry": 5, "removal": 5}
        assert [(e.step, e.variable, e.action) for e in trace.events] == [
            (1, "v1", ENTERED), (2, "v2", ENTERED), (2, "v1", REMOVED), (3, "v3", ENTERED),
            (4, "v5", ENTERED)]
        assert _outcome(lambda *a: trace, cols, y, cfg) == _outcome(
            reference_stepwise_fit, cols, y, cfg)
        assert [e.pvalue for e in trace.events if e.action == ENTERED] == [0.0] * 4
        # one replay per event, on first read
        assert (calls["entry_scan"], calls["removal_scan"]) == (4, 1)

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_step_that_enters_nothing_scans_no_removal(self, exact, monkeypatch):
        # x3 enters first and leaves once x1 and x2 are in: 3 entries and 1
        # removal take 3 + 1 removal scans, the last step's none
        if exact:
            for name in ("entry", "removal"):
                monkeypatch.setattr(stepwise._Gram, name, lambda *args: stepwise._UNDECIDED)
        calls = _count_decisions(monkeypatch)
        rng = np.random.default_rng(0)
        x1, x2, e3, noise = rng.normal(size=(4, 120))
        x3 = (x1 + x2) / np.sqrt(2.0) + 0.3 * e3
        trace = stepwise_fit({"x1": x1, "x2": x2, "x3": x3}, x1 + x2 + 0.8 * noise)
        assert [(e.step, e.action) for e in trace.events] == [
            (1, ENTERED), (2, ENTERED), (3, ENTERED), (3, REMOVED)]
        assert calls["removal"] == 4
        assert calls["removal_scan"] == (4 if exact else 0)

    def test_an_event_pvalue_is_a_float_or_computed_on_first_read(self):
        event = StepwiseEvent(1, "x", ENTERED, 0.01)
        assert event.pvalue == 0.01 and isinstance(event.pvalue, float)
        reads = []
        lazy = StepwiseEvent(1, "x", ENTERED, lambda: reads.append(1) or 0.01)
        assert reads == []
        assert lazy == event and lazy.pvalue == 0.01
        assert reads == [1]
        assert hash(lazy) == hash(event) and len({event, lazy}) == 1
        assert reads == [1]  # the hash reads the value computed above


def _underflow_point(df: int) -> float:
    """The smallest |t| whose p-value at df underflows to 0.0, by bisection."""
    lo, hi = 1.0, 1.0
    while t_pvalue(hi, df) > 0.0:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if t_pvalue(mid, df) > 0.0 else (lo, mid)
    return hi


class TestChooseUnderflow:
    """An entry whose best |t| underflows at both bounds, against one rival
    (declared first) whose bounds [|t| - err, |t| + err] lie around t*."""

    DF = 30

    @pytest.mark.parametrize("rival, want", [
        (1.0, stepwise._UNDECIDED),  # the rival's bounds straddle t*: left to the scan
        (0.5, 1),  # the rival's near bound is below t*: the best enters
        (1.5, 0),  # the rival underflows at both bounds: the first declared enters
    ])
    def test_the_rivals_bounds_against_the_underflow_point(self, rival, want):
        t_star = _underflow_point(self.DF)
        assert t_pvalue(t_star, self.DF) == 0.0 < t_pvalue(0.99 * t_star, self.DF)
        t, err = np.array([rival, 4.0]) * t_star, np.full(2, 0.01 * t_star)
        choice = stepwise._choose(t, np.zeros(2), np.ones(2), err, self.DF, 0.05, True)
        assert choice == want

# each validation raise that no other test reaches, with its full message
STEPWISE_VALIDATION_CASES = {
    "zero max_steps": (
        lambda: StepwiseConfig(max_steps=0),
        "max_steps must be >= 1 when given",
    ),
    "2-d response": (
        lambda: stepwise_fit({"a": [1.0, 2.0, 3.0]}, np.ones((3, 1))),
        "response must be a 1-d array",
    ),
    "short column": (
        lambda: stepwise_fit({"a": [1.0, 2.0]}, [1.0, 2.0, 3.0]),
        "column 'a' must be 1-d and match the response length",
    ),
}


@pytest.mark.parametrize("case", list(STEPWISE_VALIDATION_CASES))
def test_validation_raises(case):
    call, message = STEPWISE_VALIDATION_CASES[case]
    assert_raises_exactly(call, ValidationError, message)
