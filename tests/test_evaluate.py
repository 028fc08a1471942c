"""MRE/MMRE metrics, fold planning, dummy coding, and k-fold comparison."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catreg import (
    CatregError,
    Dataset,
    EvaluationReport,
    MethodConfigs,
    NumericalError,
    Observation,
    StepwiseConfig,
    ValidationError,
    Variable,
    compare_baseline,
    crossval,
    dataset_to_json,
    dummy_design,
    fold_plan,
    ingest_dataset,
    load_gearing,
    mmre,
    mre,
)
from catreg import evaluate
from catreg.evaluate import (
    _FITTERS,
    BASELINE,
    CONTENDER,
    LOG_SCALE,
    _dummy_fitter,
    _shared_dummy_fitter,
    back_transform,
)
from catreg.stats import BLOCK_ROWS, FLAT_RESPONSE, RANK_DEFICIENT

from helpers import assert_raises_exactly, oracle_fold_predictions


class TestMre:
    def test_exact_prediction(self):
        assert mre(10.0, 10.0) == 0.0

    def test_under_and_over_prediction_symmetric(self):
        assert mre(10.0, 5.0) == 0.5
        assert mre(10.0, 15.0) == 0.5

    def test_nonpositive_actual_rejected(self):
        with pytest.raises(ValidationError):
            mre(0.0, 1.0)
        with pytest.raises(ValidationError):
            mre(-3.0, 1.0)

    def test_elementwise_with_the_first_bad_pair_reported(self):
        assert mre([10.0, 20.0], [5.0, 30.0]).tolist() == [0.5, 0.5]
        with pytest.raises(ValidationError, match="^mre requires a finite prediction$"):
            mre([1.0, 0.0], [math.inf, 1.0])
        with pytest.raises(ValidationError, match="got -1.0$"):
            mre([1.0, -1.0, 0.0], [1.0, 1.0, math.nan])


class TestBackTransform:
    def test_exp_of_a_log_value(self):
        assert back_transform(math.log(40.0)) == pytest.approx(40.0)

    def test_overflow_and_nan_are_numerical_errors(self):
        for value in (1e6, math.inf, math.nan):
            with pytest.raises(NumericalError):
                back_transform(value)

    def test_minus_infinity_is_a_numerical_error(self):
        # exp(-inf) is a finite 0.0, but the log-scale value itself is not finite
        with pytest.raises(NumericalError, match="^log-scale value -inf has no finite count$"):
            back_transform(-math.inf)


class TestMmre:
    def test_mean_of_pair_errors(self):
        assert mmre([10.0, 20.0], [5.0, 30.0]) == 0.5

    def test_single_pair_equals_mre(self):
        assert mmre([7.0], [3.0]) == mre(7.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mmre([], [])


class TestFoldPlan:
    def test_partition_and_balance(self):
        n = 23
        for k in (2, 6, 10, n):
            plan = fold_plan(n, k, seed=5)
            sizes = []
            seen: set = set()
            for fold in range(k):
                train, test = plan.fold_indices(fold)
                sizes.append(len(test))
                seen.update(test)
                assert set(train).isdisjoint(test)
                assert len(train) + len(test) == n
            assert seen == set(range(n))
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1

    def test_leave_one_out(self):
        plan = fold_plan(6, 6, seed=0)
        assert all(len(plan.fold_indices(f)[1]) == 1 for f in range(6))

    def test_determinism(self):
        a = fold_plan(40, 6, seed=42)
        b = fold_plan(40, 6, seed=42)
        assert a.assignment == b.assignment

    def test_seed_changes_assignment(self):
        a = fold_plan(40, 6, seed=1)
        b = fold_plan(40, 6, seed=2)
        assert a.assignment != b.assignment

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fold_indices_match_the_comprehension(self, data):
        n = data.draw(st.integers(2, 300))
        k = data.draw(st.integers(2, n))
        plan = fold_plan(n, k, seed=data.draw(st.integers(0, 2**32 - 1)))
        assert type(plan.assignment) is tuple
        assert all(type(a) is int for a in plan.assignment)
        for fold in range(k):
            train, test = plan.fold_indices(fold)
            assert train.dtype == test.dtype == np.intp
            assert train.tolist() == [i for i, a in enumerate(plan.assignment) if a != fold]
            assert test.tolist() == [i for i, a in enumerate(plan.assignment) if a == fold]

    def test_bounds_validated(self):
        with pytest.raises(ValidationError):
            fold_plan(10, 1, seed=0)
        with pytest.raises(ValidationError):
            fold_plan(10, 11, seed=0)

    # n, k, seed and fold must be integers, and the seed non-negative
    @pytest.mark.parametrize("call, message", [
        (lambda: fold_plan(10, 2.5, 0), "k must be an integer, got 2.5"),
        (lambda: crossval(_categorical_dataset(), 2.5, 0, BASELINE),
         "k must be an integer, got 2.5"),
        (lambda: fold_plan(10, 2, -1), "seed must be >= 0, got -1"),
        (lambda: fold_plan(10, 2, 0.5), "seed must be an integer, got 0.5"),
        (lambda: fold_plan(10.0, 2, 0), "n must be an integer, got 10.0"),
        (lambda: fold_plan(10, 2, 0).fold_indices(0.5), "fold must be an integer, got 0.5"),
    ], ids=["k", "crossval k", "negative seed", "seed", "n", "fold"])
    def test_non_integer_arguments_rejected(self, call, message):
        assert_raises_exactly(call, ValidationError, message)


def _categorical_dataset(n_per: int = 10):
    variables = (
        Variable("g", "nominal", ("A", "B", "C")),
        Variable("x", "numeric"),
        Variable("y", "numeric", role="dependent"),
    )
    rng = np.random.default_rng(8)
    rows = []
    for i, cat in enumerate(("A", "B", "C")):
        for j in range(n_per):
            rows.append(
                Observation(
                    (cat, float(rng.normal()), float(i + rng.normal(scale=0.2))),
                    row_id=f"{cat}{j}",
                )
            )
    return Dataset(variables, tuple(rows))


class TestDummyDesign:
    def test_binary_single_indicator(self):
        variables = (
            Variable("g", "nominal", ("A", "B")),
            Variable("y", "numeric", role="dependent"),
        )
        rows = tuple(
            Observation(v) for v in [("A", 1.0), ("B", 2.0), ("A", 3.0), ("B", 4.0)]
        )
        design = dummy_design(Dataset(variables, rows))
        assert design.names == ("g=B",)
        assert design.matrix[:, 0].tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_five_categories_make_four_columns(self):
        cats = ("A", "B", "C", "D", "E")
        variables = (
            Variable("g", "nominal", cats),
            Variable("y", "numeric", role="dependent"),
        )
        rows = tuple(Observation((c, float(i))) for i, c in enumerate(cats * 2))
        design = dummy_design(Dataset(variables, rows))
        assert len(design.names) == 4
        assert design.names == ("g=B", "g=C", "g=D", "g=E")

    def test_reference_category_row_is_all_zero(self):
        ds = _categorical_dataset()
        design = dummy_design(ds)
        g_columns = [j for j, name in enumerate(design.names) if name.startswith("g=")]
        assert [design.names[j] for j in g_columns] == ["g=B", "g=C"]
        # first row is category A, the declared reference
        assert ds.value(0, "g") == "A"
        assert design.matrix[0, g_columns].tolist() == [0.0, 0.0]

    def test_numeric_columns_standardized(self):
        ds = _categorical_dataset()
        design = dummy_design(ds)
        j = design.names.index("x")
        col = design.matrix[:, j]
        assert float(col.mean()) == pytest.approx(0.0, abs=1e-12)
        assert float((col**2).mean()) == pytest.approx(1.0, abs=1e-12)

    def test_single_observed_category_rejected(self):
        variables = (
            Variable("g", "nominal", ("A", "B")),
            Variable("y", "numeric", role="dependent"),
        )
        rows = tuple(Observation(("A", float(i))) for i in range(4))
        with pytest.raises(ValidationError):
            dummy_design(Dataset(variables, rows))

    def test_fold_encoder_maps_and_rejects_unseen(self):
        ds = _categorical_dataset()
        labels = [ds.value(i, "g") for i in range(ds.n)]
        b_row, c_row = labels.index("B"), labels.index("C")
        design = dummy_design(ds)
        matrix, seen = design.encode(ds, [b_row])
        assert matrix[0, design.names.index("g=B")] == 1.0
        assert matrix[0, design.names.index("g=C")] == 0.0
        assert seen.tolist() == [True]
        without_c = dummy_design(ds.subset([i for i in range(ds.n) if ds.value(i, "g") != "C"]))
        _, seen = without_c.encode(ds, [b_row, c_row])
        assert seen.tolist() == [True, False]


def _rare_levels_dataset(seed: int, n: int = 60):
    # R occurs once and S twice, so some test folds hold a level that their
    # training part lacks; g carries most of the signal, so the contender keeps it
    rng = np.random.default_rng(seed)
    levels = np.array(["A", "B", "C"])[rng.integers(0, 3, n)]
    levels[:3] = ["R", "S", "S"]
    effect = {"A": 0.0, "B": 1.5, "C": 3.0, "R": 2.0, "S": 4.0}
    x = rng.normal(size=n)
    y = np.array([effect[g] for g in levels]) + 0.8 * x + rng.normal(scale=0.3, size=n)
    variables = (
        Variable("g", "nominal", ("A", "B", "C", "R", "S")),
        Variable("x", "numeric"),
        Variable("y", "numeric", role="dependent"),
    )
    rows = tuple(Observation((levels[i], float(x[i]), float(y[i]))) for i in range(n))
    return Dataset(variables, rows)


@pytest.mark.parametrize("method", [BASELINE, CONTENDER])
@pytest.mark.parametrize("seed", range(3))
def test_fold_predictions_match_the_per_row_oracle(method, seed):
    ds = _rare_levels_dataset(seed)
    configs = MethodConfigs()
    plan = fold_plan(ds.n, 5, seed)
    excluded = 0
    for fold in range(plan.k):
        train_idx, test_idx = plan.fold_indices(fold)
        train = ds.subset(train_idx)
        estimates, seen, _ = _FITTERS[method](train, ds, test_idx, configs)
        want = oracle_fold_predictions(method, train, ds, test_idx, configs)
        assert seen.tolist() == [w is not None for w in want]
        np.testing.assert_allclose(estimates[seen], [w for w in want if w is not None], rtol=1e-12)
        excluded += len(want) - int(seen.sum())
    assert excluded > 0


def _numeric_crossval_dataset(n: int = 30, seed: int = 0, noise: float = 0.3, responses=None):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 4.0, size=n)
    y = 0.8 * x + 0.7 + noise * rng.normal(size=n)
    for i, value in (responses or {}).items():
        y[i] = value
    variables = (
        Variable("x", "numeric"),
        Variable("y", "numeric", role="dependent"),
    )
    rows = tuple(
        Observation((float(a), float(b)), row_id=str(i))
        for i, (a, b) in enumerate(zip(x, y))
    )
    return Dataset(variables, rows)


def _rare_category_dataset():
    # category R appears exactly once, so its row always lands in a test fold
    # whose training part has never seen it
    variables = (
        Variable("c", "nominal", ("A", "B", "R")),
        Variable("y", "numeric", role="dependent"),
    )
    rng = np.random.default_rng(3)
    rows = []
    for i in range(15):
        rows.append(Observation(("A", float(1.0 + rng.normal(scale=0.1))), row_id=f"a{i}"))
        rows.append(Observation(("B", float(3.0 + rng.normal(scale=0.1))), row_id=f"b{i}"))
    rows.append(Observation(("R", 2.0), row_id="rare"))
    return Dataset(variables, tuple(rows))


def _rare_category_noise_dataset():
    # the R row again, but the response is noise around 2, so stepwise
    # selection comes up empty in every training part
    variables = (
        Variable("c", "nominal", ("A", "B", "R")),
        Variable("y", "numeric", role="dependent"),
    )
    rng = np.random.default_rng(0)
    rows = []
    for i in range(15):
        rows.append(Observation(("A", float(2.0 + rng.normal())), row_id=f"a{i}"))
        rows.append(Observation(("B", float(2.0 + rng.normal())), row_id=f"b{i}"))
    rows.append(Observation(("R", 2.0), row_id="rare"))
    return Dataset(variables, tuple(rows))


class TestCrossval:
    def test_leave_one_out_fold_structure(self):
        ds = _numeric_crossval_dataset(n=8)
        result = crossval(ds, k=8, seed=0, method=BASELINE)
        assert len(result.folds) == 8
        assert all(f.n_test == 1 for f in result.folds)
        assert all(f.n_train == 7 for f in result.folds)

    def test_determinism_bit_for_bit(self):
        ds = _numeric_crossval_dataset()
        a = crossval(ds, k=6, seed=42, method=BASELINE)
        b = crossval(ds, k=6, seed=42, method=BASELINE)
        assert [f.mmre_value for f in a.folds] == [f.mmre_value for f in b.folds]
        assert a.average == b.average

    def test_k6_and_k10_same_structure(self):
        ds = _numeric_crossval_dataset()
        for k in (6, 10):
            result = crossval(ds, k=k, seed=1, method=BASELINE)
            assert result.k == k
            assert len(result.folds) == k
            assert result.average == pytest.approx(
                sum(f.mmre_value for f in result.folds) / k, abs=1e-12
            )

    def test_unknown_method_rejected(self):
        ds = _numeric_crossval_dataset()
        with pytest.raises(ValidationError):
            crossval(ds, k=3, seed=0, method="ridge")

    def test_unseen_category_rows_excluded_and_counted(self):
        ds = _rare_category_dataset()
        result = crossval(ds, k=5, seed=2, method=BASELINE)
        assert sum(f.n_excluded for f in result.folds) == 1
        flagged = [f for f in result.folds if f.n_excluded]
        assert len(flagged) == 1
        # the excluded row still counts toward the fold's test size
        assert flagged[0].n_test >= 1

    def test_fold_with_every_test_row_excluded_is_rejected(self):
        ds = _rare_category_dataset()
        rare_row = [ds.value(i, "c") for i in range(ds.n)].index("R")
        rare_fold = fold_plan(ds.n, ds.n, seed=0).assignment[rare_row]
        with pytest.raises(ValidationError) as exc:
            crossval(ds, k=ds.n, seed=0, method=BASELINE)
        assert str(exc.value) == (
            f"fold {rare_fold + 1}: every test row was excluded; nothing to score"
        )

    def test_contender_excludes_unseen_category_too(self):
        ds = _rare_category_dataset()
        result = crossval(ds, k=5, seed=2, method=CONTENDER)
        assert sum(f.n_excluded for f in result.folds) == 1

    def test_contender_on_pure_noise_falls_back_to_intercept(self):
        ds = _numeric_crossval_dataset(n=40, seed=5, noise=50.0)
        result = crossval(ds, k=4, seed=0, method=CONTENDER)
        assert len(result.folds) == 4
        assert any("intercept-only" in (f.note or "") for f in result.folds)
        assert all(math.isfinite(f.mmre_value) for f in result.folds)

    def test_log_scale_differs_from_count_scale(self):
        ds = _numeric_crossval_dataset()
        count = crossval(ds, k=5, seed=3, method=BASELINE)
        configs = MethodConfigs(mre_scale=LOG_SCALE)
        logged = crossval(ds, k=5, seed=3, method=BASELINE, configs=configs)
        assert logged.mre_scale == LOG_SCALE
        assert logged.average != count.average


    @pytest.mark.parametrize("k, first_bad", [(2, "0.0"), (5, "-2.0")])
    def test_log_scale_error_names_the_first_bad_actual_in_test_row_order(self, k, first_bad):
        ds = _numeric_crossval_dataset(responses={3: 0.0, 7: -2.0})
        plan = fold_plan(ds.n, k, seed=0)
        # k=2: rows 3 and 7 share the first fold; k=5: row 7's fold comes first
        if k == 2:
            assert plan.assignment[3] == plan.assignment[7] == 0
        else:
            assert plan.assignment[7] < plan.assignment[3]
        configs = MethodConfigs(mre_scale=LOG_SCALE)
        with pytest.raises(ValidationError) as exc:
            crossval(ds, k=k, seed=0, method=BASELINE, configs=configs)
        assert str(exc.value) == f"mre requires a strictly positive actual, got {first_bad}"

    @pytest.mark.parametrize("method", [BASELINE, CONTENDER])
    def test_count_scale_overflow_is_a_numerical_error(self, method):
        ds = _numeric_crossval_dataset(responses={3: 0.0, 7: 800.0})
        with pytest.raises(NumericalError) as exc:
            crossval(ds, k=5, seed=0, method=method)
        assert str(exc.value) == "log-scale value 800.0 has no finite count"

    @pytest.mark.parametrize("first", [750.0, math.nan])
    def test_count_scale_error_names_the_first_bad_value_in_row_order(self, monkeypatch, first):
        # row 0's prediction and row 1's actual both lack a finite count
        plan = fold_plan(30, 3, seed=0)
        test = plan.fold_indices(0)[1]
        ds = _numeric_crossval_dataset(responses={int(test[1]): 800.0})

        def fitter(train, full, rows, configs):
            estimates = np.ones(len(rows))
            estimates[0] = first
            return estimates, np.ones(len(rows), dtype=bool), ""

        monkeypatch.setitem(_FITTERS, BASELINE, fitter)
        with pytest.raises(NumericalError) as exc:
            crossval(ds, k=3, seed=0, method=BASELINE)
        assert str(exc.value) == f"log-scale value {first} has no finite count"

    def test_count_scale_nonpositive_actual_keeps_its_message(self, monkeypatch):
        # exp(-800) underflows to an actual count of 0.0; every prediction is finite
        test = fold_plan(30, 3, seed=0).fold_indices(0)[1]
        ds = _numeric_crossval_dataset(responses={int(test[1]): -800.0})
        monkeypatch.setitem(_FITTERS, BASELINE, lambda train, full, rows, configs: (
            np.ones(len(rows)), np.ones(len(rows), dtype=bool), ""))
        with pytest.raises(ValidationError) as exc:
            crossval(ds, k=3, seed=0, method=BASELINE)
        assert str(exc.value) == "mre requires a strictly positive actual, got 0.0"

    def test_count_scale_underflowing_prediction_is_a_numerical_error(self, monkeypatch):
        # exp(-740) is a subnormal count and is kept; exp(-800) underflows to 0.0,
        # which only an estimate may not: the earlier actual of 0.0 is left to mre
        test = fold_plan(30, 3, seed=0).fold_indices(0)[1]
        ds = _numeric_crossval_dataset(responses={int(test[0]): -900.0})

        def fitter(train, full, rows, configs):
            estimates = np.ones(len(rows))
            estimates[1], estimates[2] = -740.0, -800.0
            return estimates, np.ones(len(rows), dtype=bool), ""

        monkeypatch.setitem(_FITTERS, BASELINE, fitter)
        with pytest.raises(NumericalError) as exc:
            crossval(ds, k=3, seed=0, method=BASELINE)
        assert str(exc.value) == "log-scale value -800.0 underflows to a count of 0.0"


class TestEvaluationReport:
    BASE = (1.3690, 1.6432, 0.7784, 1.9725, 1.5635, 1.1229)
    CONT = (1.3657, 1.6425, 0.7747, 1.1736, 1.5581, 1.1216)

    def test_averages_are_fold_means(self):
        report = EvaluationReport.from_fold_mmres(self.BASE, self.CONT, k=6, seed=0)
        assert report.baseline_avg == pytest.approx(
            sum(self.BASE) / 6, abs=1e-12
        )
        assert report.contender_avg == pytest.approx(
            sum(self.CONT) / 6, abs=1e-12
        )
        assert report.improvement_avg == pytest.approx(
            report.baseline_avg - report.contender_avg, abs=1e-12
        )

    def test_reference_sixfold_averages(self):
        report = EvaluationReport.from_fold_mmres(self.BASE, self.CONT, k=6, seed=0)
        assert abs(report.baseline_avg - 1.4083) <= 5e-5 + 1e-12
        assert abs(report.contender_avg - 1.2727) <= 5e-5 + 1e-12
        assert abs(report.improvement_avg - 0.1356) <= 5e-5 + 1e-12

    def test_per_fold_improvement(self):
        report = EvaluationReport.from_fold_mmres(self.BASE, self.CONT, k=6, seed=0)
        for b, c, d in zip(report.baseline, report.contender, report.improvement):
            assert d == pytest.approx(b - c, abs=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            EvaluationReport.from_fold_mmres((1.0, 2.0), (1.0,), k=2, seed=0)

    def test_from_methods_requires_matching_plans(self):
        ds = _numeric_crossval_dataset()
        base = crossval(ds, k=4, seed=1, method=BASELINE)
        other = crossval(ds, k=4, seed=9, method=BASELINE)
        with pytest.raises(ValidationError):
            EvaluationReport.from_methods(base, other)

    def test_table_rendering(self):
        report = EvaluationReport.from_fold_mmres(
            self.BASE, self.CONT, k=6, seed=42
        )
        table = report.as_table()
        lines = table.splitlines()
        assert "k=6" in lines[0] and "seed=42" in lines[0]
        # title line, header line, six fold rows, average row
        fold_rows = [ln for ln in lines[2:] if ln.strip() and ln.split()[0].isdigit()]
        assert len(fold_rows) == 6
        assert any(ln.strip().startswith("average") for ln in lines)
        assert "1.3690" in table and "1.2727" in table
        assert BASELINE in lines[1] and CONTENDER in lines[1]

    def test_table_ends_with_excluded_rows_and_fallback_notes(self):
        table = compare_baseline(_rare_category_noise_dataset(), k=5, seed=2).as_table()
        assert table.splitlines()[-6:] == [
            "excluded rows (unseen categories): dummy-ols 1, catreg-stepwise 0",
            *(
                f"note: catreg-stepwise fold {fold}: empty selection; intercept-only fallback"
                for fold in range(1, 6)
            ),
        ]

    def test_dict_rendering(self):
        report = EvaluationReport.from_fold_mmres(self.BASE, self.CONT, k=6, seed=0)
        doc = report.as_dict()
        assert doc["k"] == 6
        assert doc["average"]["improvement"] == pytest.approx(
            report.improvement_avg
        )
        assert doc["average"][BASELINE] == pytest.approx(report.baseline_avg)
        assert len(doc["folds"]) == 6
        assert doc["folds"][0]["fold"] == 1


class TestDummyOlsEqualsNominalCatreg:
    def test_same_column_space(self):
        from catreg import catreg_fit, ols_fit

        ds = _categorical_dataset(n_per=8)
        design = dummy_design(ds)
        oracle = ols_fit(design.matrix, ds.column("y"), names=list(design.names))
        variables = tuple(
            Variable(v.name, "nominal", v.categories)
            if v.name == "g"
            else v
            for v in ds.variables
        )
        rows = [Observation(row["values"], row["id"]) for row in dataset_to_json(ds)["rows"]]
        fit = catreg_fit(Dataset(variables, rows))
        assert fit.r2 == pytest.approx(oracle.r2, abs=1e-8)


# each validation raise that no other test reaches, with its full message
EVALUATE_VALIDATION_CASES = {
    "unpaired mre": (
        lambda: mre([1.0, 2.0], [1.0]),
        "mre requires paired actual and predicted values",
    ),
    "unknown mre scale": (
        lambda: MethodConfigs(mre_scale="ratio"),
        "mre_scale must be one of ('count', 'log')",
    ),
    "zero max_rounds": (
        lambda: MethodConfigs(max_rounds=0),
        "max_rounds must be >= 1",
    ),
    "fold out of range": (
        lambda: fold_plan(4, 2, seed=0).fold_indices(2),
        "fold must lie in [0, 2)",
    ),
    "one-row fold plan": (
        lambda: fold_plan(1, 2, seed=0),
        "fold_plan requires n >= 2",
    ),
    "dummy design without predictors": (
        lambda: dummy_design(
            Dataset((Variable("y", "numeric", role="dependent"),), columns=[[1.0, 2.0]], ids=["a", "b"])
        ),
        "dummy_design needs at least one predictor",
    ),
}


@pytest.mark.parametrize("case", list(EVALUATE_VALIDATION_CASES))
def test_validation_raises(case):
    call, message = EVALUATE_VALIDATION_CASES[case]
    assert_raises_exactly(call, ValidationError, message)


def _tall_dataset(n: int, seed: int = 0, faults=(), rows=None, rare_rows=None):
    """Nominal g, ordinal o and numeric x1..x3 with a linear signal on a positive
    response. On `rows`, faults make x2 a copy of x1 ("rank"), x3 constant
    ("zero") or the response flat ("flat"); g is "R" on `rare_rows` only."""
    rng = np.random.default_rng(seed)
    g = np.array(["A", "B", "C", "D", "R"])[rng.integers(0, 4, n)]
    o = np.array(["lo", "mid", "high", "top", "max"])[rng.integers(0, 5, n)]
    x1, x2, x3 = rng.normal(3.0, 2.0, n), rng.uniform(-50.0, 200.0, n), rng.lognormal(0.0, 1.0, n)
    y = 3.0 + 0.3 * x1 + 0.01 * x2 + 0.2 * x3 + (g == "B") + rng.normal(0.0, 0.3, n)
    if "rank" in faults:
        x2[rows] = x1[rows]
    if "zero" in faults:
        x3[rows] = 1.5
    if "flat" in faults:
        y[rows] = 4.0
    if rare_rows is not None:
        g[rare_rows] = "R"
    variables = (
        Variable("g", "nominal", ("A", "B", "C", "D", "R")),
        Variable("x1", "numeric"),
        Variable("o", "ordinal", ("lo", "mid", "high", "top", "max")),
        Variable("x2", "numeric"),
        Variable("x3", "numeric"),
        Variable("y", "numeric", role="dependent"),
    )
    columns = [g.tolist(), x1.tolist(), o.tolist(), x2.tolist(), x3.tolist(), y.tolist()]
    return Dataset(variables, columns=columns, ids=[None] * n)


def _per_fold_only(monkeypatch):
    monkeypatch.setattr(evaluate, "_shared_dummy_fitter", lambda dataset, plan: None)


def _first_failure(fit_fold, k: int):
    # (fold, type, message) of the first fold whose fit raises, else None
    for fold in range(k):
        try:
            fit_fold(fold)
        except CatregError as exc:
            return fold, type(exc), str(exc)
    return None


class TestSharedFoldFactors:
    """The dummy baseline on training parts taller than a block factorizes each
    fold's rows once; what it reports must be what the per-fold fits report."""

    @pytest.mark.parametrize("k, n, smallest", [
        (2, 2 * BLOCK_ROWS + 2, BLOCK_ROWS + 1),  # so is every fold
        (2, 5000, 2500),  # folds taller than a block are factorized by blocks themselves
        (5, 2562, BLOCK_ROWS + 1),
        (10, 2300, 2070),
    ])
    def test_same_fits_as_the_per_fold_path(self, monkeypatch, k, n, smallest):
        ds, configs = _tall_dataset(n, seed=k), MethodConfigs()
        plan = fold_plan(n, k, seed=7)
        assert n - max(np.bincount(plan.assignment)) == smallest  # rows of a training part
        fit = _shared_dummy_fitter(ds, plan)
        assert fit is not None
        for fold in range(k):
            train_idx, test_idx = plan.fold_indices(fold)
            estimates, seen, note = fit(fold, train_idx, test_idx)
            want = _dummy_fitter(ds.subset(train_idx), ds, test_idx, configs)
            assert seen.tolist() == want[1].tolist() and note == want[2]
            np.testing.assert_allclose(estimates, want[0], rtol=1e-12)
        shared = crossval(ds, k, 7, BASELINE)
        _per_fold_only(monkeypatch)
        per_fold = crossval(ds, k, 7, BASELINE)
        assert [f.n_excluded for f in shared.folds] == [f.n_excluded for f in per_fold.folds]
        np.testing.assert_allclose([f.mmre_value for f in shared.folds],
                                   [f.mmre_value for f in per_fold.folds], rtol=1e-12)

    def test_a_training_part_of_a_block_or_less_runs_per_fold(self):
        n = 2 * BLOCK_ROWS
        assert _shared_dummy_fitter(_tall_dataset(n), fold_plan(n, 2, seed=0)) is None

    @pytest.mark.parametrize("k", [6, 197])
    def test_the_sample_corpus_never_enters_the_shared_path(self, monkeypatch, k):
        data = Path(__file__).resolve().parent.parent / "data"
        ds, _ = ingest_dataset(str(data / "responses.sample.csv"),
                               load_gearing(str(data / "gearing.sample.json")))
        calls = []
        monkeypatch.setattr(evaluate, "dummy_design",
                            lambda d, real=dummy_design: calls.append(d.n) or real(d))
        assert _shared_dummy_fitter(ds, fold_plan(ds.n, k, seed=42)) is None
        assert calls == []  # not even the full design is built

    def test_a_fold_holding_a_whole_category_is_fitted_alone(self, monkeypatch):
        n, k, fold = 2600, 5, 3
        plan = fold_plan(n, k, seed=1)
        rare = plan.fold_indices(fold)[1][:4]  # every "R" row is a test row of `fold`
        ds = _tall_dataset(n, rare_rows=rare)
        fit = _shared_dummy_fitter(ds, plan)
        fitted = [fit(f, *plan.fold_indices(f)) for f in range(k)]
        assert [f is None for f in fitted] == [f == fold for f in range(k)]
        shared = crossval(ds, k, 1, BASELINE)
        _per_fold_only(monkeypatch)
        per_fold = crossval(ds, k, 1, BASELINE)
        excluded = [f.n_excluded for f in shared.folds]
        assert excluded == [f.n_excluded for f in per_fold.folds] == [4 * (f == fold) for f in range(k)]
        np.testing.assert_allclose([f.mmre_value for f in shared.folds],
                                   [f.mmre_value for f in per_fold.folds], rtol=1e-12)

    ZERO_VARIANCE = "cannot standardize a zero-variance column"

    @pytest.mark.parametrize("faults, error, message", [
        (("rank",), NumericalError, RANK_DEFICIENT),
        (("flat",), ValidationError, FLAT_RESPONSE),
        (("zero",), ValidationError, ZERO_VARIANCE),
        # the rank screen comes before the flat response
        (("rank", "flat"), NumericalError, RANK_DEFICIENT),
        # standardization comes first, though x3 is declared after x1 and x2
        (("rank", "zero", "flat"), ValidationError, ZERO_VARIANCE),
    ])
    def test_the_same_error_at_the_same_fold(self, faults, error, message):
        n, k, fold = 2600, 5, 2
        plan, configs = fold_plan(n, k, seed=0), MethodConfigs()
        ds = _tall_dataset(n, faults=faults, rows=plan.fold_indices(fold)[0])
        fit = _shared_dummy_fitter(ds, plan)
        assert fit is not None  # the full data has no fault

        def per_fold(f):
            train_idx, test_idx = plan.fold_indices(f)
            return _dummy_fitter(ds.subset(train_idx), ds, test_idx, configs)

        shared = _first_failure(lambda f: fit(f, *plan.fold_indices(f)), k)
        assert shared == _first_failure(per_fold, k) == (fold, error, message)
        assert_raises_exactly(lambda: crossval(ds, k, 0, BASELINE), error, message)

    def test_a_full_design_that_fails_leaves_every_fold_to_the_per_fold_path(self):
        n = 2600
        ds = _tall_dataset(n, faults=("zero",), rows=np.arange(n))
        assert _shared_dummy_fitter(ds, fold_plan(n, 5, seed=0)) is None
        assert_raises_exactly(lambda: crossval(ds, 5, 0, BASELINE), ValidationError,
                              self.ZERO_VARIANCE)

    def test_each_data_row_goes_through_qr_once(self, monkeypatch):
        n, k = 2600, 5
        width = 1 + 3 + 4 + 3 + 1  # [1, X, y]: g (4 levels seen), o (5), x1..x3
        real_qr, calls = np.linalg.qr, []

        def qr(a, *args, **kwargs):
            calls.append(len(a))
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", qr)
        ds = _tall_dataset(n)
        crossval(ds, k, 0, BASELINE)
        # one call per fold on its own rows, then per training part the stack
        # of the other folds' factors and the fit's own factor of it
        assert calls[:k] == [n // k] * k
        assert calls[k:] == [(k - 1) * width, width] * k
        calls.clear()
        _per_fold_only(monkeypatch)
        crossval(ds, k, 0, BASELINE)
        assert sum(calls) >= (k - 1) * n  # each row once per training part it is in
