"""One rotation per tall pipeline round.

Above `stats.BLOCK_ROWS` rows a pipeline round forms stepwise's Z' =
Q'[1, round columns, y] once (`stats.rotation`, called by `catreg_fit`) and
reads both final fits off it: CATREG's joint fit through the affine map of its
standardized columns, and stepwise's reported fit. `stepwise_fit` alone reads
its reported fit off its own Z' above BLOCK_ROWS rows. Setting BLOCK_ROWS to
infinity in `pipeline` and `stepwise` restores the path on which both final
fits ran `ols_fit` on the n data rows; the parity tests compare against it.
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
from catreg.stats import BLOCK_ROWS, RANK_DEFICIENT, ols_fit, rotation
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
        _refuse(monkeypatch, scaling, "rotation")
        _refuse(monkeypatch, scaling, "_ols")
        _refuse(monkeypatch, stepwise, "_ols")
        passed = []
        fit = pipeline.stepwise_fit

        def spy(columns, response, config=None, *, _rotated=None):
            passed.append(_rotated)
            return fit(columns, response, config, _rotated=_rotated)

        monkeypatch.setattr(pipeline, "stepwise_fit", spy)
        ds = ingest_dataset(str(DATA / "responses.sample.csv"),
                            load_gearing(str(DATA / "gearing.sample.json")))[0]
        assert ds.n <= BLOCK_ROWS
        run_pipeline(ds)
        compare_baseline(ds, k=6, seed=42)
        assert passed and all(z is None for z in passed)

    @pytest.mark.parametrize("maker", [planted_pipeline_dataset, mixed_dataset])
    def test_a_tall_round_forms_one_rotation_and_fits_no_data_rows(self, maker, monkeypatch):
        n = 2500
        _refuse(monkeypatch, scaling, "ols_fit")
        _refuse(monkeypatch, stepwise, "ols_fit")
        rotations = _count_rotations(monkeypatch)
        fits = _fit_rows_row_counts(monkeypatch)
        result = run_pipeline(maker(7, n))
        assert rotations == [n] * len(result.rounds)
        # every least-squares fit of the run reads rows of a round's Z'
        assert fits and max(fits) < 8

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


class TestStepwiseParity:
    @given(tall_selection_problems())
    @settings(max_examples=100, deadline=None)
    def test_the_shared_rotation_gives_the_same_run_bit_for_bit(self, problem):
        cols, y = problem
        shared = _report(lambda: stepwise_fit(cols, y, _rotated=rotation(list(cols.values()), y)))
        alone = _report(lambda: stepwise_fit(cols, y))
        assert _bits(shared) == _bits(alone)

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

    def test_an_unfittable_final_set_names_the_same_step_and_set(self, monkeypatch):
        rng = np.random.default_rng(1)
        n = BLOCK_ROWS + 200
        X = rng.normal(size=(n, 3))
        cols, y = {f"x{j}": X[:, j] for j in range(3)}, X @ [1.0, -0.5, 0.0] + rng.normal(size=n)

        def deficient(*args, **kwargs):
            raise NumericalError(RANK_DEFICIENT)

        message = "step 3: the included set ['x0', 'x1'] cannot be fitted"
        monkeypatch.setattr(stepwise, "_ols", deficient)
        assert_raises_exactly(lambda: stepwise_fit(cols, y), NumericalError, message)
        monkeypatch.setattr(stepwise, "ols_fit", deficient)
        with final_fits_on_the_data():
            assert_raises_exactly(lambda: stepwise_fit(cols, y), NumericalError, message)


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
                   else [v.categories[c] for c in ds.category_codes(v.name)] for v in ds.variables]
        columns[names.index("num2")] = (factor * ds.column("num1")).tolist()
        twins = Dataset(ds.variables, columns, [None] * ds.n)
        assert_raises_exactly(lambda: run_pipeline(twins), NumericalError, RANK_DEFICIENT)
        with final_fits_on_the_data():
            assert_raises_exactly(lambda: run_pipeline(twins), NumericalError, RANK_DEFICIENT)
