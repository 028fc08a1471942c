"""Tall pipeline rounds read off cross products; Z' only where a scan must decide.

Above `stats.BLOCK_ROWS` rows a pipeline round's `catreg_fit` hands stepwise a
`stats.Round`: the Gram matrix G of [1, round columns, y] and S, that of the
standardized columns, from the sweeps' M = A'A (from Z''Z' where the sweeps ran
on rows), and Z' = Q'[1, round columns, y] (`stats.rotation`) formed on first
use. Stepwise decides on G and both final fits read S (`stats.gram_solve`). Z'
is formed where a decision is left to a scan, where an event's p-value is read,
and where the gate refuses S; the fits then read Z' as every round did before.
`stepwise_fit` alone on a round's columns forms that same Z' and runs that
path, so it is the reference of the round tests. Setting BLOCK_ROWS to infinity
in `pipeline` and `stepwise` restores the path on which both final fits ran
`ols_fit` on the n data rows; the pipeline parity tests compare against it.
On both paths a later round sweeps on a slice of the last round's M
(`_CrossSweep.restrict`); `TestRestrictedSweep` compares a slice against a
fit building its own.
"""

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catreg import Dataset, NumericalError, StepwiseConfig, Variable
from catreg import compare_baseline, ingest_dataset, load_gearing, run_pipeline
from catreg import pipeline, scaling, stats, stepwise
from catreg.data import column_as_quantified, population_standardize
from catreg.stats import BLOCK_ROWS, RANK_DEFICIENT, Round, _ols, ols_fit, rotation, rotation_error
from catreg.stepwise import stepwise_fit
from helpers import assert_raises_exactly, mixed_dataset, planted_pipeline_dataset

DATA = Path(__file__).resolve().parent.parent / "data"
REL = 1e-10


@contextmanager
def final_fits_on_the_data():
    """Both final fits of every round on the n data rows, as before the rotation
    was shared."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "BLOCK_ROWS", math.inf)
        mp.setattr(stepwise, "BLOCK_ROWS", math.inf)
        yield


def _refuse(mp, owner, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{owner.__name__}.{name} was called")

    mp.setattr(owner, name, refuse)


def _count_rotations(mp) -> list:
    """The row count of every `stats.rotation` call, by scaling or by stepwise."""
    rows = []

    def counted(columns, response):
        rows.append(len(response))
        return rotation(columns, response)

    mp.setattr(scaling, "rotation", counted)
    mp.setattr(stepwise, "rotation", counted)
    return rows


def _fit_rows_row_counts(mp) -> list:
    rows = []
    fit_rows = stats.fit_rows

    def spy(rows_, n):
        rows.append(len(rows_))
        return fit_rows(rows_, n)

    mp.setattr(stats, "fit_rows", spy)
    return rows


def _gram_reads(mp) -> list:
    """Per `stats.gram_solve` call, whether it read the fit off S (not refused)."""
    reads = []
    solve = stats.gram_solve

    def spy(*args):
        solved = solve(*args)
        reads.append(solved is not None)
        return solved

    mp.setattr(stats, "gram_solve", spy)
    return reads


def _questionnaire_dataset(seed: int, n: int) -> Dataset:
    """The benchmark corpus's shape: 22 items of 2 to 6 choices, 8 of them
    nominal, and two numeric predictors; signal on four items and both."""
    rng = np.random.default_rng(seed)
    sizes = (3, 6, 4, 5, 3, 3, 3, 4, 5, 5, 5, 3, 3, 2, 5, 2, 2, 5, 5, 5, 3, 4)
    effects = {1: 0.08, 6: -0.25, 8: 0.07, 17: -0.1}
    fp, duration = rng.normal(4.0, 0.7, n), rng.normal(1.5, 0.5, n)
    y = 1.0 + 0.9 * fp + 0.3 * duration + rng.normal(scale=0.8, size=n)
    variables, columns = [], []
    for j, k in enumerate(sizes):
        codes = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(codes)
        y += effects.get(j, 0.0) * (codes if j != 6 else np.array([0, 1, -1])[codes])
        cats = tuple("ABCDEF"[:k])
        level = "nominal" if j in (0, 3, 5, 6, 11, 14, 18, 20) else "ordinal"
        variables.append(Variable(f"Q{j + 1}", level, cats))
        columns.append([cats[c] for c in codes])
    variables += [Variable("Ln(FP)", "numeric"), Variable("Ln(Duration)", "numeric"),
                  Variable("Ln(Defect)", "numeric", role="dependent")]
    columns += [fp.tolist(), duration.tolist(), y.tolist()]
    return Dataset(tuple(variables), columns, [None] * n)


def _wide_dataset(seed: int, n: int) -> Dataset:
    # one nominal item of 130 categories (width^2 = 131^2 keeps CATREG's row
    # loop) and a numeric predictor, both carrying signal
    rng = np.random.default_rng(seed)
    codes = np.concatenate([np.arange(130), rng.integers(0, 130, n - 130)])
    rng.shuffle(codes)
    x = rng.normal(size=n)
    y = rng.normal(size=130)[codes] + 0.8 * x + rng.normal(scale=0.5, size=n)
    cats = tuple(f"c{c:03d}" for c in range(130))
    variables = (Variable("item", "nominal", cats), Variable("x", "numeric"),
                 Variable("y", "numeric", role="dependent"))
    return Dataset(variables, [[cats[c] for c in codes], x.tolist(), y.tolist()], [None] * n)


class TestGate:
    def test_the_sample_corpus_never_shares_a_rotation(self, monkeypatch):
        for owner, name in ((scaling, "rotation"), (scaling, "_round"), (stats, "gram_solve"),
                            (stepwise, "_ols"), (scaling._CrossSweep, "restrict")):
            _refuse(monkeypatch, owner, name)
        passed = []
        fit = pipeline.stepwise_fit

        def spy(columns, response, config=None, *, _round=None):
            passed.append(_round)
            return fit(columns, response, config, _round=_round)

        monkeypatch.setattr(pipeline, "stepwise_fit", spy)
        ds = ingest_dataset(str(DATA / "responses.sample.csv"),
                            load_gearing(str(DATA / "gearing.sample.json")))[0]
        assert ds.n <= BLOCK_ROWS
        run_pipeline(ds)
        compare_baseline(ds, k=6, seed=42)
        assert passed and all(z is None for z in passed)

    @pytest.mark.parametrize("maker", [planted_pipeline_dataset, mixed_dataset])
    def test_a_tall_narrow_round_forms_no_rotation(self, maker, monkeypatch):
        n = 2500
        _refuse(monkeypatch, scaling, "ols_fit")
        _refuse(monkeypatch, stepwise, "ols_fit")
        rotations = _count_rotations(monkeypatch)
        fits = _fit_rows_row_counts(monkeypatch)
        reads = _gram_reads(monkeypatch)
        result = run_pipeline(maker(7, n))
        # every decision was read off G and both final fits of each round off S
        assert rotations == [] and fits == [] and reads == [True] * (2 * len(result.rounds))
        for r, record in enumerate(result.rounds, 1):
            assert record.trace.events[0].pvalue <= 0.05  # replayed on the round's Z'
            assert rotations == [n] * r
            assert all(e.pvalue <= 0.1 for e in record.trace.events)  # on the same Z'
            assert rotations == [n] * r

    @pytest.mark.parametrize("maker", [planted_pipeline_dataset, mixed_dataset])
    def test_a_tall_run_builds_its_cross_tables_once(self, maker, monkeypatch):
        ds = maker(7, 2500)
        built, coded, restricted = [], [], []
        sweep = scaling._CrossSweep  # constructed by the pass over the rows; a slice is not
        monkeypatch.setattr(scaling, "_CrossSweep",
                            lambda *args: built.append(1) or sweep(*args))
        read = Dataset._stored  # the package's read of a stored column, of either kind

        def spy(self, name):
            if self.variable(name).is_categorical:
                coded.append(name)
            return read(self, name)

        monkeypatch.setattr(Dataset, "_stored", spy)
        restrict = sweep.restrict
        monkeypatch.setattr(sweep, "restrict",
                            lambda self, names: restricted.append(list(names)) or restrict(self, names))
        result = run_pipeline(ds)
        assert len(result.rounds) >= 2 and len(built) == 1
        # round 1 reads each item's codes once; every later round slices the last sweep
        assert coded == [v.name for v in ds.predictors if v.is_categorical]
        assert restricted == [list(r.predictors) for r in result.rounds[1:]]

    @pytest.mark.parametrize("maker", [planted_pipeline_dataset, mixed_dataset])
    def test_a_rounds_cross_products_are_its_rotations_within_their_bound(self, maker):
        ds = maker(7, 2500)
        for cfit in (scaling.catreg_fit(ds, _share_round=True),
                     scaling.catreg_fit(ds, ["num1", "nom1"], _share_round=True)):
            shared = cfit._round
            Z = shared.rotated
            std = (Z - np.outer(Z[:, 0], shared.shift)) / shared.scale
            for G, want, eta in ((shared.G, Z.T @ Z, shared.eta),
                                 (shared.S, std.T @ std, shared._eta * shared._kappa2.max())):
                d = np.sqrt(G.diagonal())
                assert np.all(np.abs(G - want) <= eta * np.outer(d, d))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
    @pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 2500])
    @pytest.mark.parametrize("maker", [planted_pipeline_dataset, mixed_dataset])
    def test_each_term_of_a_rounds_margin_holds_on_its_own(self, maker, n):
        """Against the exact Gram matrix of the round's columns (long double
        products of their doubles): G and S within K's own rounding alone, per
        r_i r_j = || |B| |T_i| || || |B| |T_j| ||, and Z''Z' within 2
        rotation_error; the decisions' eta counts both."""
        ds = maker(3, n)
        cfit = scaling.catreg_fit(ds, _share_round=True)
        shared, cols, rs = cfit._round, [np.ones(n)], [np.ones(n)]
        for name in cfit.predictors:
            if name in cfit.quantifications.numeric:
                mean, scale = cfit.quantifications.numeric[name]
                x = population_standardize(ds.column(name))[0]
                cols.append(ds.column(name))
                rs.append(abs(mean) + scale * abs(x))
            else:
                codes, cats = ds.codes(name)
                values = cfit.quantifications.categorical[name]
                cols.append(np.array([values[c] for c in cats])[codes])
                rs.append(abs(cols[-1]))
        y = ds.column(ds.dependent.name)
        z, y_mean, y_scale = population_standardize(y)
        cols.append(y)
        rs.append(abs(y_mean) + y_scale * abs(z))
        C = np.array(cols, np.longdouble).T
        exact = C.T @ C
        std = (C - shared.shift) / shared.scale
        r = np.linalg.norm(rs, axis=1)
        r_std = np.linalg.norm(np.array(std, float), axis=0)  # here |B| |std_i| = |B std_i|
        for got, want, bound in ((shared.G, exact, np.outer(r, r)),
                                 (shared.S, std.T @ std, np.outer(r_std, r_std))):
            err = np.abs(got - want)
            assert err.max() > 0 and np.all(err <= shared.rounding * bound)
        Z = np.asarray(shared.rotated, np.longdouble)
        d = np.sqrt(exact.diagonal())
        phi = rotation_error(n, len(cols))
        assert np.all(np.abs(Z.T @ Z - exact) <= 2 * phi * np.outer(d, d))
        assert shared.eta >= shared.rounding + 2 * phi

    def test_a_questionnaire_shaped_run_forms_no_rotation(self, monkeypatch):
        rotations = _count_rotations(monkeypatch)
        reads = _gram_reads(monkeypatch)
        result = run_pipeline(_questionnaire_dataset(11, 20_000),
                              stepwise_config=StepwiseConfig(1e-4, 1e-3))
        assert len(result.rounds) == 2 and result.converged
        assert rotations == [] and reads == [True] * 4

    def test_a_wide_tall_round_keeps_the_row_loop_and_shares_the_rotation(self, monkeypatch):
        n = BLOCK_ROWS + 300
        _refuse(monkeypatch, scaling, "_CrossSweep")
        _refuse(monkeypatch, scaling, "ols_fit")
        _refuse(monkeypatch, stepwise, "ols_fit")
        rotations = _count_rotations(monkeypatch)
        result = run_pipeline(_wide_dataset(3, n))
        assert result.converged and result.rounds[-1].selected == ("item", "x")
        assert rotations == [n] * len(result.rounds)

    def test_stepwise_alone_reads_its_fit_off_its_rotation_only_when_tall(self, monkeypatch):
        rng = np.random.default_rng(2)
        calls = []
        monkeypatch.setattr(stepwise, "ols_fit",
                            lambda *a, **k: calls.append(1) or ols_fit(*a, **k))
        for n, fits_so_far in ((BLOCK_ROWS, 1), (BLOCK_ROWS + 1, 1)):
            X = rng.normal(size=(n, 3))
            trace = stepwise_fit({f"x{j}": X[:, j] for j in range(3)},
                                 X @ [1.0, 0.5, 0.0] + rng.normal(size=n))
            assert trace.selected == ("x0", "x1") and len(calls) == fits_so_far


@st.composite
def tall_selection_problems(draw):
    """Stepwise problems of n in (BLOCK_ROWS, BLOCK_ROWS + 400] rows whose
    candidates include exact copies and +-2^k multiples of numeric columns,
    declared before or after the column they copy."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(BLOCK_ROWS + 1, BLOCK_ROWS + 400))
    m = draw(st.integers(2, 6))
    mix = np.eye(m) + draw(st.sampled_from([0.0, 0.3])) * rng.normal(size=(m, m))
    X = rng.normal(size=(n, m)) @ mix * 10.0 ** rng.uniform(-2, 2, size=m)
    y = X @ (rng.normal(size=m) * (rng.random(m) < 0.6)) + rng.normal(size=n)
    cols = {f"v{j + 1}": X[:, j] for j in range(m)}
    names = list(cols)
    for t in range(draw(st.integers(0, 3))):
        source = draw(st.sampled_from(names[:m]))
        factor = draw(st.sampled_from([1.0, -1.0])) * 2.0 ** draw(st.integers(-3, 3))
        names.insert(draw(st.integers(0, len(names))), f"twin{t}")
        cols[f"twin{t}"] = factor * cols[source]
    return {name: cols[name] for name in names}, y


def _report(run):
    """Events, selection, diagnostics and the fit, or the error a run raised."""
    try:
        trace = run()
    except NumericalError as exc:
        return type(exc), str(exc)
    fit = trace.fit
    arrays = None if fit is None else (fit.names, fit.coef, fit.intercept, fit.stderr,
                                       fit.tstat, fit.r2, fit.adj_r2, fit.n, fit.p)
    return ([(e.step, e.variable, e.action, e.pvalue) for e in trace.events],
            trace.selected, trace.diagnostics), arrays


def _bits(report):
    decisions, fit = report
    return decisions, fit and tuple(x.tobytes() if isinstance(x, np.ndarray) else x for x in fit)


def _assert_close_fits(got, want):
    if got is None or want is None:
        assert got is want
        return
    assert got[0] == want[0] and got[-2:] == want[-2:]  # names, n and p
    for a, b in zip(got[1:-2], want[1:-2]):
        assert np.asarray(a) == pytest.approx(np.asarray(b), rel=REL)


def _numeric_round(cols, y) -> Round:
    """The `stats.Round` that `catreg_fit` builds for numeric predictors: the
    basis [1, each column standardized, z] and its cross products over n rows."""
    std, shift, scale = zip(*map(population_standardize, [*cols.values(), y]))
    B = np.column_stack([np.ones(y.size), *std])
    T = np.diag([1.0, *scale])
    T[0, 1:] = shift
    u = np.finfo(float).eps / 2
    return Round(B.T @ B, T, np.arange(len(T)) == 0, np.array([0.0, *shift]),
                 np.array([1.0, *scale]), u * (y.size + 2 * len(T) + 8),
                 lambda: rotation(list(cols.values()), y), rotation_error(y.size, len(T)))


class TestStepwiseParity:
    @given(tall_selection_problems())
    @settings(max_examples=100, deadline=None)
    def test_a_round_decides_as_its_rotation(self, problem):
        cols, y = problem
        got = _report(lambda: stepwise_fit(dict.fromkeys(cols), y, _round=_numeric_round(cols, y)))
        want = _report(lambda: stepwise_fit(cols, y))
        assert got[0] == want[0]  # events and their p-values, selection and diagnostics
        if want[0] is NumericalError:
            assert got == want
        else:
            _assert_close_fits(got[1], want[1])

    @given(tall_selection_problems())
    @settings(max_examples=100, deadline=None)
    def test_the_fit_read_off_the_rotation_matches_the_fit_on_the_data(self, problem):
        cols, y = problem
        got = _report(lambda: stepwise_fit(cols, y))
        with final_fits_on_the_data():
            want = _report(lambda: stepwise_fit(cols, y))
        assert got[0] == want[0]  # events, selection and diagnostics, or the error type
        if want[0] is NumericalError:
            assert got == want
        else:
            _assert_close_fits(got[1], want[1])

    @staticmethod
    def _two_signals():
        # three tall columns, x0 and x1 carrying the signal, so x0 enters at step 1
        rng = np.random.default_rng(1)
        n = BLOCK_ROWS + 200
        X = rng.normal(size=(n, 3))
        return {f"x{j}": X[:, j] for j in range(3)}, X @ [1.0, -0.5, 0.0] + rng.normal(size=n)

    def test_an_unfittable_final_set_names_the_same_step_and_set(self, monkeypatch):
        cols, y = self._two_signals()

        def deficient(*args, **kwargs):
            raise NumericalError(RANK_DEFICIENT)

        message = "step 3: the included set ['x0', 'x1'] cannot be fitted"
        monkeypatch.setattr(stepwise, "_ols", deficient)
        assert_raises_exactly(lambda: stepwise_fit(cols, y), NumericalError, message)
        monkeypatch.setattr(stepwise, "ols_fit", deficient)
        with final_fits_on_the_data():
            assert_raises_exactly(lambda: stepwise_fit(cols, y), NumericalError, message)

    def test_a_removal_scan_that_fails_names_its_step_and_set(self, monkeypatch):
        cols, y = self._two_signals()
        cause = NumericalError(RANK_DEFICIENT)

        def fails(*args, **kwargs):
            raise cause

        monkeypatch.setattr(stepwise._Gram, "removal", lambda *args: stepwise._UNDECIDED)
        monkeypatch.setattr(stepwise, "removal_scan", fails)
        with pytest.raises(NumericalError) as info:
            stepwise_fit(cols, y)
        assert str(info.value) == "step 1: the included set ['x0'] cannot be fitted"
        assert info.value.__cause__ is cause


@st.composite
def tall_pipeline_datasets(draw):
    """Datasets of n in (BLOCK_ROWS, BLOCK_ROWS + 400] rows: ordinal and nominal
    items of 2 to 6 categories and numeric predictors, some carrying signal,
    and at times a numeric predictor that is an exact copy or a +-2^k multiple
    of another."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(BLOCK_ROWS + 1, BLOCK_ROWS + 400))
    variables, columns, y = [], [], rng.normal(size=n)
    for j in range(draw(st.integers(1, 4))):
        k = int(rng.integers(2, 7))
        codes = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(codes)
        y += rng.choice([0.0, 1.0]) * rng.normal(size=k)[codes]
        cats = tuple(f"c{c}" for c in range(k))
        variables.append(Variable(f"q{j}", draw(st.sampled_from(["ordinal", "nominal"])), cats))
        columns.append([cats[c] for c in codes])
    numeric = rng.normal(size=(n, draw(st.integers(1, 3)))) * 10.0 ** rng.uniform(-1, 1)
    y += numeric @ (rng.normal(size=numeric.shape[1]) * (rng.random(numeric.shape[1]) < 0.7))
    for j, x in enumerate(numeric.T):
        variables.append(Variable(f"x{j}", "numeric"))
        columns.append(x.tolist())
    if draw(st.booleans()):
        factor = draw(st.sampled_from([1.0, -1.0])) * 2.0 ** draw(st.integers(-2, 2))
        variables.append(Variable("twin", "numeric"))
        columns.append((factor * numeric[:, 0]).tolist())
    variables.append(Variable("y", "numeric", role="dependent"))
    columns.append(y.tolist())
    return Dataset(tuple(variables), columns, [None] * n)


def _pipeline_report(ds):
    """Every round's CATREG fit and record and the model, or the error raised."""
    fits = []
    catreg_fit = pipeline.catreg_fit

    def keep(*args, **kwargs):
        fits.append(catreg_fit(*args, **kwargs))
        return fits[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "catreg_fit", keep)
        try:
            result = run_pipeline(ds, stepwise_config=StepwiseConfig(0.01, 0.05))
        except NumericalError as exc:
            return type(exc), str(exc)
    return fits, result


def _assert_close_catreg(a, b):
    """The same trace length and quantified categories; R^2 trace and
    quantifications within REL."""
    assert a.r2_trace == pytest.approx(b.r2_trace, rel=REL)
    qa, qb = a.quantifications, b.quantifications
    assert qa.numeric == qb.numeric
    assert {k: list(v) for k, v in qa.categorical.items()} == {
        k: list(v) for k, v in qb.categorical.items()}
    for name, values in qa.categorical.items():
        assert list(values.values()) == pytest.approx(list(qb.categorical[name].values()),
                                                      rel=REL)


def _assert_close_decisions(got, want):
    """The same events, selection and diagnostics; event p-values within REL."""
    (events, *rest), (want_events, *want_rest) = got, want
    assert [e[:3] for e in events] == [e[:3] for e in want_events] and rest == want_rest
    assert [e[3] for e in events] == pytest.approx([e[3] for e in want_events], rel=REL)


class TestPipelineParity:
    @given(tall_pipeline_datasets())
    @settings(max_examples=40, deadline=None)
    def test_same_rounds_and_fits_within_rounding(self, ds):
        got = _pipeline_report(ds)
        with final_fits_on_the_data():
            want = _pipeline_report(ds)
        if not isinstance(want[1], pipeline.PipelineResult):
            assert got == want
            return
        (got_fits, got), (want_fits, want) = got, want
        assert (got.converged, got.empty_model) == (want.converged, want.empty_model)
        assert [r.selected for r in got.rounds] == [r.selected for r in want.rounds]
        for a, b in zip(got_fits, want_fits, strict=True):
            assert (a.iterations, a.converged, a.degenerate) == (b.iterations, b.converged,
                                                                 b.degenerate)
            assert a.r2_trace == b.r2_trace and a.quantifications == b.quantifications
            assert (a.r2, a.adj_r2) == pytest.approx((b.r2, b.adj_r2), rel=REL)
            assert list(a.coef) == list(b.coef)
            # a noise item's coefficient can be near 0, below either path's rounding
            assert list(a.coef.values()) == pytest.approx(list(b.coef.values()), rel=REL,
                                                          abs=1e-14)
            assert list(a.pvalues.values()) == pytest.approx(list(b.pvalues.values()), rel=REL,
                                                            nan_ok=True)
        for a, b in zip(got.rounds, want.rounds):
            assert _report(lambda: a.trace)[0] == _report(lambda: b.trace)[0]
            _assert_close_fits(_report(lambda: a.trace)[1], _report(lambda: b.trace)[1])
        if want.model is not None:
            assert list(got.model.coefficients) == list(want.model.coefficients)
            assert list(got.model.coefficients.values()) == pytest.approx(
                list(want.model.coefficients.values()), rel=REL)
            assert got.model.intercept == pytest.approx(want.model.intercept, rel=REL)

    @pytest.mark.parametrize("factor", [1.0, 2.0, -0.25])
    def test_twin_numeric_predictors_fail_catreg_as_before(self, factor):
        ds = mixed_dataset(7, BLOCK_ROWS + 300)
        names = [v.name for v in ds.variables]
        columns = [ds.column(v.name).tolist() if v.level == "numeric"
                   else [v.categories[c] for c in ds._stored(v.name)] for v in ds.variables]
        columns[names.index("num2")] = (factor * ds.column("num1")).tolist()
        twins = Dataset(ds.variables, columns, [None] * ds.n)
        assert_raises_exactly(lambda: run_pipeline(twins), NumericalError, RANK_DEFICIENT)
        with final_fits_on_the_data():
            assert_raises_exactly(lambda: run_pipeline(twins), NumericalError, RANK_DEFICIENT)


def _round_columns(ds, cfit, names) -> dict:
    """A round's stepwise columns: raw numeric ones and quantified categorical ones."""
    return {name: column_as_quantified(ds, name, cfit.quantifications)
            if ds.variable(name).is_categorical else ds.column(name) for name in names}


def _catreg_fit_off_rotation(ds, cfit):
    """CATREG's final fit as a tall round read it off Z' before S: `_ols` on
    the affine map of Z' to the standardized columns."""
    names = list(cfit.predictors)
    y = ds.column(ds.dependent.name)
    z, y_mean, y_scale = population_standardize(y)
    Z = rotation(list(_round_columns(ds, cfit, names).values()), y)
    shift, scale = np.array([(0.0, 1.0), *(cfit.quantifications.numeric.get(name, (0.0, 1.0))
                                           for name in names), (y_mean, y_scale)]).T
    rows = (Z - np.outer(Z[:, 0], shift)) / scale
    active = [j for j, name in enumerate(names) if name not in cfit.degenerate]
    return _ols(rows[:, [0, *(j + 1 for j in active), -1]], z, [names[j] for j in active])


def _assert_rounds_decide_as_alone(ds, fits, result, bits: bool):
    """Each round's trace against `stepwise_fit` alone on the round's columns:
    the same events, p-values, selection and diagnostics, and the same fit bit
    for bit (bits) or within REL."""
    y = ds.column(ds.dependent.name)
    config = StepwiseConfig(0.01, 0.05)  # as `_pipeline_report` runs
    for cfit, record in zip(fits, result.rounds, strict=True):
        alone = _report(lambda: stepwise_fit(_round_columns(ds, cfit, record.predictors), y,
                                             config))
        got = _report(lambda: record.trace)
        assert got[0] == alone[0]
        if bits:
            assert _bits(got) == _bits(alone)
        else:
            _assert_close_fits(got[1], alone[1])


def _gate_dataset(case: str, n: int) -> Dataset:
    """An ordinal and a nominal item and two numeric predictors where a round's
    S fails the gate: a fit within 1e-6 of perfect, or two numeric predictors
    1e-7 apart."""
    rng = np.random.default_rng(5)
    o1, n1 = rng.integers(0, 4, n), rng.integers(0, 3, n)
    x1 = rng.normal(size=n)
    x2 = x1 + 1e-7 * rng.normal(size=n) if case == "near_collinear" else rng.normal(size=n)
    noise = 1e-6 if case == "near_perfect" else 0.5
    y = (np.array([0.0, 0.7, 1.5, 2.1])[o1] + np.array([0.0, 1.2, -0.8])[n1] + 0.9 * x1
         + noise * rng.normal(size=n))
    A, B = tuple("ABCD"), tuple("ABC")
    variables = (Variable("ord1", "ordinal", A), Variable("nom1", "nominal", B),
                 Variable("num1", "numeric"), Variable("num2", "numeric"),
                 Variable("y", "numeric", role="dependent"))
    columns = [[A[c] for c in o1], [B[c] for c in n1], x1.tolist(), x2.tolist(), y.tolist()]
    return Dataset(variables, columns, [None] * n)


class TestRoundParity:
    @pytest.mark.parametrize("case", ["near_perfect", "near_collinear"])
    def test_a_fit_the_gate_refuses_is_read_off_z_as_before(self, case, monkeypatch):
        ds = _gate_dataset(case, BLOCK_ROWS + 300)
        reads = _gram_reads(monkeypatch)
        fits, result = _pipeline_report(ds)
        # reads alternate CATREG's joint fit and stepwise's fit, round by round;
        # the near-perfect fit refuses all of them, the twins round 1's joint fit
        perfect = case == "near_perfect"
        assert reads == [False] * len(reads) if perfect else reads[0] is False
        for cfit, read in zip(fits, reads[::2]):
            if read:
                continue
            want, got = _catreg_fit_off_rotation(ds, cfit), cfit._final
            assert (got.names, got.intercept, got.r2, got.adj_r2) == (
                want.names, want.intercept, want.r2, want.adj_r2)
            for a, b in ((got.coef, want.coef), (got.stderr, want.stderr),
                         (got.tstat, want.tstat)):
                assert a.tobytes() == b.tobytes()
        _assert_rounds_decide_as_alone(ds, fits, result, bits=perfect)

    @given(tall_pipeline_datasets())
    @settings(max_examples=40, deadline=None)
    def test_each_round_decides_as_its_rotation(self, ds):
        report = _pipeline_report(ds)
        if isinstance(report[1], pipeline.PipelineResult):  # failures: TestPipelineParity
            _assert_rounds_decide_as_alone(ds, *report, bits=False)


@st.composite
def restricted_rounds(draw, case: str):
    """A dataset of n in (BLOCK_ROWS, BLOCK_ROWS + 400] rows, items (some
    declaring an unobserved category) and numeric predictors, whose full set
    is narrow, and a subset of its predictors by case: items only, numeric
    predictors only, an item of 20 to 30 categories in a set `_NARROW` calls
    wide, or any."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(BLOCK_ROWS + 1, BLOCK_ROWS + 400))
    sizes = [int(k) for k in rng.integers(2, 7, draw(st.integers(1, 5)))]
    if case == "wide":
        sizes = [draw(st.integers(20, 30))] + [int(k) for k in rng.integers(2, 4, 6)]
    variables, columns, y = [], [], rng.normal(size=n)
    for j, k in enumerate(sizes):
        codes = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(codes)
        y += rng.choice([0.0, 1.0]) * rng.normal(size=k)[codes]
        unobserved = int(rng.integers(0, 2))  # a declared category before the observed ones
        cats = tuple(f"c{c}" for c in range(k + unobserved))
        variables.append(Variable(f"q{j}", draw(st.sampled_from(["ordinal", "nominal"])), cats))
        columns.append([cats[c + unobserved] for c in codes])
    numeric = rng.normal(size=(n, draw(st.integers(1, 3)))) * 10.0 ** rng.uniform(-1, 1)
    y += numeric @ (rng.normal(size=numeric.shape[1]) * (rng.random(numeric.shape[1]) < 0.7))
    for j, x in enumerate(numeric.T):
        variables.append(Variable(f"x{j}", "numeric"))
        columns.append(x.tolist())
    variables.append(Variable("y", "numeric", role="dependent"))
    columns.append(y.tolist())
    ds = Dataset(tuple(variables), columns, [None] * n)
    items = [v.name for v in variables if v.is_categorical]
    numerics = [v.name for v in variables[:-1] if not v.is_categorical]
    pool = {"no_numeric": items, "only_numeric": numerics, "wide": items[1:] + numerics,
            "any": items + numerics}[case]
    subset = draw(st.lists(st.sampled_from(pool), min_size=case != "wide", unique=True))
    if case == "wide":
        subset = [items[0], *subset]
        while (sizes[0] + len(subset)) ** 2 <= 400 * len(subset):  # A's width at least
            subset.pop()
    return ds, subset


def _fit_or_error(fit):
    try:
        return fit()
    except NumericalError as exc:
        return type(exc), str(exc)


class TestRestrictedSweep:
    @pytest.mark.parametrize("case", ["no_numeric", "only_numeric", "wide", "any"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_a_round_off_a_slice_fits_as_one_building_its_own(self, case, data):
        ds, subset = data.draw(restricted_rounds(case))
        first = scaling.catreg_fit(ds, _share_round=True)
        assert first._sweep is not None
        got = _fit_or_error(lambda: scaling.catreg_fit(ds, subset, _share_round=True,
                                                       _sweep=first._sweep))
        want = _fit_or_error(lambda: scaling.catreg_fit(ds, subset, _share_round=True))
        if isinstance(want, tuple):
            assert got == want
            return
        if case == "wide":  # the slice serves a set that builds no sweep of its own
            assert want._sweep is None and got._sweep is not None
        assert (got.iterations, got.converged, got.degenerate) == (
            want.iterations, want.converged, want.degenerate)
        _assert_close_catreg(got, want)
        assert (got.r2, got.adj_r2) == pytest.approx((want.r2, want.adj_r2), rel=REL)
        assert list(got.coef.values()) == pytest.approx(list(want.coef.values()), rel=REL,
                                                        abs=1e-14)
        # G and S entrywise, relative to sqrt(G_ii G_jj)
        for a, b in ((got._round.G, want._round.G), (got._round.S, want._round.S)):
            d = np.sqrt(b.diagonal())
            assert np.all(np.abs(a - b) <= REL * np.outer(d, d))
        y = ds.column(ds.dependent.name)
        config = StepwiseConfig(0.01, 0.05)
        a, b = (_report(lambda: stepwise_fit(dict.fromkeys(subset), y, config, _round=fit._round))
                for fit in (got, want))
        if isinstance(b[0], type):
            assert a == b
            return
        _assert_close_decisions(a[0], b[0])
        _assert_close_fits(a[1], b[1])
