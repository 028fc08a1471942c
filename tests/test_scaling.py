"""Monotone regression and the alternating-least-squares categorical fitter."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catreg import (
    CatregConfig,
    Dataset,
    NumericalError,
    Observation,
    ValidationError,
    Variable,
    catreg_fit,
    column_as_quantified,
    dataset_to_json,
    ols_fit,
    pava,
    population_standardize,
)
from catreg.scaling import _sum
from helpers import (
    assert_ordinal_monotone,
    assert_quantification_constraints,
    assert_raises_exactly,
    assert_trace_monotone,
    mixed_dataset,
    numeric_dataset,
    oracle_catreg_fit,
    oracle_pava,
    single_cat_dataset,
)


class TestPava:
    def test_already_monotone_unchanged(self):
        assert pava([1.0, 2.0, 3.0]) == pytest.approx([1.0, 2.0, 3.0])

    def test_pools_violating_pair(self):
        assert pava([1.0, 3.0, 2.0]) == pytest.approx([1.0, 2.5, 2.5])

    def test_weighted_pooling(self):
        # pooled value is the weighted mean (3 + 3*2)/4
        got = pava([1.0, 3.0, 2.0], weights=[1.0, 1.0, 3.0])
        assert got == pytest.approx([1.0, 2.25, 2.25])

    def test_decreasing_direction(self):
        got = pava([2.0, 3.0, 1.0], increasing=False)
        assert got == pytest.approx([2.5, 2.5, 1.0])

    def test_single_element(self):
        assert pava([4.0]) == pytest.approx([4.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            pava([1.0, 2.0], weights=[1.0, 0.0])
        with pytest.raises(ValidationError):
            pava([1.0, 2.0], weights=[1.0, -2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            pava([1.0, 2.0], weights=[1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            pava([])

    def test_overflowing_pool_raises(self):
        # 1e308 * 1e308 overflows in the pooled weighted sum: inf - inf is NaN
        with pytest.raises(NumericalError):
            pava([1e308, -1e308], weights=[1e308, 1e308])
        with pytest.raises(NumericalError):
            pava([-1e308, 1e308], weights=[1e308, 1e308], increasing=False)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=12),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_projection_properties(self, values, data):
        weights = data.draw(
            st.lists(
                st.floats(0.1, 50),
                min_size=len(values),
                max_size=len(values),
            )
        )
        fitted = pava(values, weights=weights)
        # monotone output
        assert all(a <= b + 1e-9 for a, b in zip(fitted, fitted[1:]))
        # pooling preserves the weighted total
        assert float(np.dot(weights, fitted)) == pytest.approx(
            float(np.dot(weights, values)), rel=1e-9, abs=1e-9
        )
        # projection is idempotent
        assert pava(fitted, weights=weights) == pytest.approx(fitted, abs=1e-9)

    @given(
        st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, 3.5])),
                 min_size=1, max_size=15),
        st.data(),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_exactly(self, values, data, increasing):
        weights = data.draw(
            st.lists(st.one_of(st.floats(1e-3, 1e3), st.integers(1, 9)),
                     min_size=len(values), max_size=len(values))
        )
        got = pava(values, weights=weights, increasing=increasing)
        want = oracle_pava(values, weights, increasing)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_directions_are_mirror_images(self, values):
        dec = pava(values, increasing=False)
        mirrored = [-v for v in pava([-v for v in values])]
        assert dec == pytest.approx(mirrored, abs=1e-9)


class TestSum:
    def test_matches_numpy_sum_bit_for_bit(self):
        # every length on both sides of 8 and of numpy's split above 128;
        # numpy's sum of -0.0s is 0.0
        rng = np.random.default_rng(0)
        for n in range(301):
            a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5, 5, n)
            for xs in (a, np.where(rng.random(n) < 0.9, -0.0, a), np.full(n, -0.0)):
                got, want = _sum(xs.tolist()), float(xs.sum())
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)


class TestCatregConfig:
    def test_defaults(self):
        cfg = CatregConfig()
        assert cfg.epsilon == 1e-6
        assert cfg.max_iterations == 200
        # the ALS has no other knob: it starts from beta = 0, so a start value
        # (and with it a seeded restart) never changes a fit
        assert [f.name for f in dataclasses.fields(CatregConfig)] == ["epsilon", "max_iterations"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            CatregConfig(epsilon=0.0)
        with pytest.raises(ValidationError):
            CatregConfig(max_iterations=0)


def _collapsing_instance() -> Dataset:
    # c1's category means of the response (and of x) are equal, so its
    # quantification collapses no matter what beta_x is
    variables = (
        Variable("c1", "nominal", ("A", "B")),
        Variable("x", "numeric"),
        Variable("y", "numeric", role="dependent"),
    )
    base = [
        ("A", -1.0, 1.0),
        ("A", 1.0, 3.0),
        ("B", -1.0, 0.0),
        ("B", 1.0, 4.0),
    ]
    return Dataset(variables, tuple(Observation(r) for _ in range(3) for r in base))


@st.composite
def _mixed_items(draw) -> Dataset:
    """A random mix of ordinal, nominal and numeric items with planted effects."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.lists(st.sampled_from(["ordinal", "nominal", "numeric"]), min_size=1, max_size=4))
    # up to 20 categories, so that category sums of 8 or more terms take
    # numpy's pairwise order; n stays above the free parameters
    ks = [1 if level == "numeric" else draw(st.integers(2, 20)) for level in levels]
    free = sum(1 if level == "numeric" else k - 1 for level, k in zip(levels, ks))
    n = free + draw(st.integers(20, 90))
    variables, columns = [], []
    y = rng.normal(scale=draw(st.sampled_from([0.1, 0.6, 3.0])), size=n)
    for j, (level, k) in enumerate(zip(levels, ks)):
        if level == "numeric":
            x = rng.normal(size=n)
            y += rng.normal() * x
            variables.append(Variable(f"v{j}", level))
            columns.append(x.tolist())
            continue
        codes = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(codes)
        y += rng.normal(size=k)[codes]
        cats = tuple(f"c{c:02d}" for c in range(k))
        variables.append(Variable(f"v{j}", level, cats))
        columns.append([cats[c] for c in codes])
    variables.append(Variable("y", "numeric", role="dependent"))
    columns.append(y.tolist())
    return Dataset(tuple(variables), tuple(Observation(row) for row in zip(*columns)))


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _binary_hand_instance() -> Dataset:
    # group means 1.5 (A) and 3.5 (B); between/total variance = 1/1.25 = 0.8
    variables = (
        Variable("g", "nominal", ("A", "B")),
        Variable("y", "numeric", role="dependent"),
    )
    rows = tuple(
        Observation(v) for v in [("A", 1.0), ("A", 2.0), ("B", 3.0), ("B", 4.0)]
    )
    return Dataset(variables, rows)


class TestCatregFit:
    def test_binary_hand_instance(self):
        fit = catreg_fit(_binary_hand_instance())
        assert fit.r2 == pytest.approx(0.8, abs=1e-10)
        quant = fit.quantifications.categorical["g"]
        assert quant["A"] == pytest.approx(-1.0, abs=1e-10)
        assert quant["B"] == pytest.approx(1.0, abs=1e-10)
        assert fit.coef["g"] == pytest.approx(math.sqrt(0.8), abs=1e-10)
        assert fit.converged

    def test_all_numeric_matches_plain_ols(self):
        for seed in range(6):
            ds = numeric_dataset(seed, n=60, p=4)
            fit = catreg_fit(ds)
            X = np.column_stack([ds.column(f"x{j + 1}") for j in range(4)])
            y = ds.column("y")
            oracle = ols_fit(X, y)
            std_coef = oracle.coef * np.std(X, axis=0) / np.std(y)
            for j in range(4):
                assert fit.coef[f"x{j + 1}"] == pytest.approx(std_coef[j], abs=1e-8)
            assert fit.r2 == pytest.approx(oracle.r2, abs=1e-8)

    def test_single_nominal_matches_dummy_ols(self):
        for seed in range(8):
            ds = single_cat_dataset(seed, n=30, n_cats=4, level="nominal")
            fit = catreg_fit(ds)
            codes, observed = ds.codes("c")
            dummies = np.column_stack(
                [(codes == k).astype(float) for k in range(1, len(observed))]
            )
            oracle = ols_fit(dummies, ds.column("y"))
            assert fit.r2 == pytest.approx(oracle.r2, abs=1e-8)

    def test_monotone_means_make_ordinal_equal_nominal(self):
        # category means of y already ordered: the monotone projection is identity
        rng = np.random.default_rng(3)
        cats = ("A", "B", "C", "D")
        labels = [cats[int(k)] for k in rng.integers(0, 4, size=48)]
        y = [cats.index(c) * 1.0 + float(rng.normal(scale=0.05)) for c in labels]
        rows = tuple(Observation((c, v)) for c, v in zip(labels, y))
        ds_ord = Dataset(
            (
                Variable("c", "ordinal", cats),
                Variable("y", "numeric", role="dependent"),
            ),
            rows,
        )
        ds_nom = Dataset(
            (
                Variable("c", "nominal", cats),
                Variable("y", "numeric", role="dependent"),
            ),
            rows,
        )
        fit_o = catreg_fit(ds_ord)
        fit_n = catreg_fit(ds_nom)
        assert fit_o.r2 == pytest.approx(fit_n.r2, abs=1e-10)

    def test_decreasing_relationship_gets_negative_coefficient(self):
        # ordinal quantifications are stored non-decreasing; the sign lives in beta
        rng = np.random.default_rng(5)
        cats = ("A", "B", "C", "D")
        labels = [cats[int(k)] for k in rng.integers(0, 4, size=60)]
        y = [-1.1 * cats.index(c) + float(rng.normal(scale=0.3)) for c in labels]
        ds = Dataset(
            (
                Variable("c", "ordinal", cats),
                Variable("y", "numeric", role="dependent"),
            ),
            tuple(Observation((c, v)) for c, v in zip(labels, y)),
        )
        fit = catreg_fit(ds)
        assert fit.coef["c"] < 0
        assert_ordinal_monotone(ds, fit)
        assert fit.r2 > 0.8

    def test_label_permutation_invariance(self):
        ds = mixed_dataset(17)
        fit = catreg_fit(ds)

        renames = {"A": "z9", "B": "q2", "C": "m5", "D": "a0"}
        new_vars = []
        for v in ds.variables:
            if v.name == "ord1":
                new_vars.append(
                    Variable(v.name, v.level, tuple(renames[c] for c in v.categories))
                )
            else:
                new_vars.append(v)
        ord_idx = ds.index("ord1")
        new_rows = tuple(
            Observation(
                tuple(
                    renames[val] if j == ord_idx else val
                    for j, val in enumerate(row["values"])
                ),
                row_id=row["id"],
            )
            for row in dataset_to_json(ds)["rows"]
        )
        fit2 = catreg_fit(Dataset(tuple(new_vars), new_rows))

        assert fit2.r2 == fit.r2
        assert fit2.coef == {**fit.coef}
        quant = fit.quantifications.categorical["ord1"]
        quant2 = fit2.quantifications.categorical["ord1"]
        for old, new in renames.items():
            assert quant2[new] == quant[old]

    def test_degenerate_predictor_reported_and_excluded(self):
        fit = catreg_fit(_collapsing_instance())
        assert fit.degenerate == ("c1",)
        assert fit.coef["c1"] == 0.0
        assert math.isnan(fit.pvalues["c1"])
        assert any("c1" in d and "collapsed" in d for d in fit.diagnostics)
        # the healthy predictor carries the whole fit: R^2 = 0.9 by hand
        assert fit.r2 == pytest.approx(0.9, abs=1e-10)
        assert fit.coef["x"] == pytest.approx(math.sqrt(0.9), abs=1e-10)

    def test_all_degenerate_raises(self):
        variables = (
            Variable("c1", "nominal", ("A", "B")),
            Variable("y", "numeric", role="dependent"),
        )
        data = [("A", 1.0), ("A", 3.0), ("B", 0.0), ("B", 4.0)] * 2
        rows = tuple(Observation(r) for r in data)
        with pytest.raises(NumericalError, match="collapsed"):
            catreg_fit(Dataset(variables, rows))

    def test_iteration_cap_flags_nonconvergence(self):
        ds = mixed_dataset(2)
        fit = catreg_fit(ds, config=CatregConfig(max_iterations=1))
        assert not fit.converged
        assert fit.iterations == 1

    def test_trace_and_constraints_battery(self):
        for seed in range(5):
            ds = mixed_dataset(seed)
            fit = catreg_fit(ds)
            assert_trace_monotone(fit)
            assert_quantification_constraints(ds, fit)
            assert_ordinal_monotone(ds, fit)

    def test_substitution_equivalence(self):
        ds = mixed_dataset(11)
        fit = catreg_fit(ds)
        z, _, _ = population_standardize(ds.column("y"))
        names = [v.name for v in ds.predictors]
        design = np.column_stack(
            [column_as_quantified(ds, name, fit.quantifications) for name in names]
        )
        refit = ols_fit(design, z, names=names)
        assert refit.r2 == pytest.approx(fit.r2, abs=1e-8)
        std_coef = refit.coef * np.std(design, axis=0) / np.std(z)
        for j, name in enumerate(names):
            assert std_coef[j] == pytest.approx(fit.coef[name], abs=1e-8)

    def test_predictor_subset_argument(self):
        ds = mixed_dataset(4)
        fit = catreg_fit(ds, predictors=["ord1", "num1"])
        assert set(fit.coef) == {"ord1", "num1"}

    def test_unknown_predictor_rejected(self):
        ds = mixed_dataset(4)
        with pytest.raises(ValidationError):
            catreg_fit(ds, predictors=["nope"])

    def test_adjusted_r2_at_most_r2(self):
        for seed in range(4):
            fit = catreg_fit(mixed_dataset(seed))
            if not math.isnan(fit.adj_r2):
                assert fit.adj_r2 <= fit.r2 + 1e-12

    @given(
        st.one_of(_mixed_items(), st.just(_collapsing_instance())),
        st.one_of(st.integers(1, 3), st.just(200)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_exactly(self, ds, max_iterations):
        _assert_matches_oracle(ds, CatregConfig(max_iterations=max_iterations))

    @pytest.mark.parametrize("level", ["nominal", "ordinal"])
    def test_long_category_lists_match_oracle_exactly(self, level):
        # 8, 9 and 130 observed categories: their category sums take numpy's
        # pairwise order, and 130 terms cross numpy's split above 128
        rng = np.random.default_rng(5)
        n = 400
        y = rng.normal(size=n)
        variables, columns = [], []
        for j, k in enumerate((8, 9, 130)):
            codes = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
            rng.shuffle(codes)
            y += rng.normal(size=k)[codes]
            cats = tuple(f"c{c:03d}" for c in range(k))
            variables.append(Variable(f"v{j}", level, cats))
            columns.append([cats[c] for c in codes])
        variables.append(Variable("y", "numeric", role="dependent"))
        columns.append(y.tolist())
        ds = Dataset(tuple(variables), columns=columns, ids=[f"r{i}" for i in range(n)])
        _assert_matches_oracle(ds, CatregConfig())


def _assert_matches_oracle(ds, cfg):
    want = oracle_catreg_fit(ds, config=cfg)
    got = catreg_fit(ds, config=cfg)
    assert got.r2_trace == want.r2_trace
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert got.quantifications == want.quantifications
    assert got.coef == want.coef
    assert got.pvalues.keys() == want.pvalues.keys()
    assert all(_same(got.pvalues[k], want.pvalues[k]) for k in got.pvalues)
    assert (got.r2, got.n, got.predictors) == (want.r2, want.n, want.predictors)
    assert _same(got.adj_r2, want.adj_r2)
    assert got.degenerate == want.degenerate
    assert got.diagnostics == want.diagnostics


def _small_fit_dataset(q_cells):
    variables = (
        Variable("q", "nominal", ("A", "B", "C")),
        Variable("x", "numeric"),
        Variable("y", "numeric", role="dependent"),
    )
    n = len(q_cells)
    columns = [q_cells, [float(i * i) for i in range(n)], [float(i) for i in range(n)]]
    return Dataset(variables, columns=columns, ids=[f"r{i}" for i in range(n)])


# each validation raise that no other test reaches, with its full message
SCALING_VALIDATION_CASES = {
    "pava non-finite value": (
        lambda: pava([1.0, math.nan]),
        "values must be finite",
    ),
    "no predictors": (
        lambda: catreg_fit(_small_fit_dataset(list("ABCABC")), predictors=[]),
        "catreg_fit needs at least one predictor",
    ),
    "duplicate predictors": (
        lambda: catreg_fit(_small_fit_dataset(list("ABCABC")), predictors=["x", "x"]),
        "duplicate predictor names",
    ),
    "dependent as predictor": (
        lambda: catreg_fit(_small_fit_dataset(list("ABCABC")), predictors=["y"]),
        "variable 'y' is not a predictor",
    ),
    "one observed category": (
        lambda: catreg_fit(_small_fit_dataset(list("AAAAAA"))),
        "categorical predictor 'q' needs at least two observed categories",
    ),
    "too few rows": (
        lambda: catreg_fit(_small_fit_dataset(list("ABC"))),
        "n = 3 must exceed the 3 free quantification parameters",
    ),
}


@pytest.mark.parametrize("case", list(SCALING_VALIDATION_CASES))
def test_validation_raises(case):
    call, message = SCALING_VALIDATION_CASES[case]
    assert_raises_exactly(call, ValidationError, message)
