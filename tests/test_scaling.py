"""Monotone regression and the alternating-least-squares categorical fitter."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catreg import (
    CatregConfig,
    Dataset,
    NumericalError,
    ValidationError,
    Variable,
    catreg_fit,
    column_as_quantified,
    compare_baseline,
    dataset_to_json,
    ingest_dataset,
    load_gearing,
    ols_fit,
    pava,
    population_standardize,
    run_pipeline,
)
from catreg import scaling
from catreg.scaling import _sum
from catreg.stats import BLOCK_ROWS
from helpers import (
    assert_ordinal_monotone,
    assert_quantification_constraints,
    assert_raises_exactly,
    assert_trace_monotone,
    dataset_of_rows,
    mixed_dataset,
    numeric_dataset,
    oracle_catreg_fit,
    oracle_pava,
    single_cat_dataset,
)

DATA = Path(__file__).resolve().parent.parent / "data"


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
    return dataset_of_rows(variables, base * 3)


@st.composite
def _mixed_items(draw, tall: bool = False) -> Dataset:
    """A random mix of ordinal, nominal and numeric items with planted effects.

    A tall draw has n in (BLOCK_ROWS, BLOCK_ROWS + 400]. It may also hold
    every row twice, told apart only by a nominal item 'twin', whose two
    category means are then equal in every sweep, so that it collapses.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.lists(st.sampled_from(["ordinal", "nominal", "numeric"]), min_size=1, max_size=4))
    # up to 20 categories, so that category sums of 8 or more terms take
    # numpy's pairwise order; n stays above the free parameters
    ks = [1 if level == "numeric" else draw(st.integers(2, 20)) for level in levels]
    free = sum(1 if level == "numeric" else k - 1 for level, k in zip(levels, ks))
    twin = tall and draw(st.booleans())
    if twin:
        n = draw(st.integers(BLOCK_ROWS // 2 + 1, (BLOCK_ROWS + 400) // 2))
    elif tall:
        n = draw(st.integers(BLOCK_ROWS + 1, BLOCK_ROWS + 400))
    else:
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
    if twin:
        columns = [column * 2 for column in columns]
        variables.insert(-1, Variable("twin", "nominal", ("A", "B")))
        columns.insert(-1, ["A"] * n + ["B"] * n)
        n *= 2
    return Dataset(tuple(variables), columns, [None] * n)


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _binary_hand_instance() -> Dataset:
    # group means 1.5 (A) and 3.5 (B); between/total variance = 1/1.25 = 0.8
    variables = (
        Variable("g", "nominal", ("A", "B")),
        Variable("y", "numeric", role="dependent"),
    )
    return dataset_of_rows(variables, [("A", 1.0), ("A", 2.0), ("B", 3.0), ("B", 4.0)])


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
        rows = list(zip(labels, y))
        ds_ord = dataset_of_rows(
            (
                Variable("c", "ordinal", cats),
                Variable("y", "numeric", role="dependent"),
            ),
            rows,
        )
        ds_nom = dataset_of_rows(
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
        ds = dataset_of_rows(
            (
                Variable("c", "ordinal", cats),
                Variable("y", "numeric", role="dependent"),
            ),
            zip(labels, y),
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
        rows = dataset_to_json(ds)["rows"]
        new_rows = [
            tuple(renames[val] if j == ord_idx else val for j, val in enumerate(row["values"]))
            for row in rows
        ]
        fit2 = catreg_fit(dataset_of_rows(new_vars, new_rows, [row["id"] for row in rows]))

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
        with pytest.raises(NumericalError, match="collapsed"):
            catreg_fit(dataset_of_rows(variables, data))

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
        _assert_matches_oracle(_categorical_dataset(5, 400, (8, 9, 130), level), CatregConfig())


def _categorical_dataset(seed: int, n: int, ks, level: str) -> Dataset:
    """Categorical predictors of ks observed categories each, with planted effects."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    variables, columns = [], []
    for j, k in enumerate(ks):
        codes = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(codes)
        y += rng.normal(size=k)[codes]
        cats = tuple(f"c{c:03d}" for c in range(k))
        variables.append(Variable(f"v{j}", level, cats))
        columns.append([cats[c] for c in codes])
    variables.append(Variable("y", "numeric", role="dependent"))
    columns.append(y.tolist())
    return Dataset(tuple(variables), columns=columns, ids=[f"r{i}" for i in range(n)])


def _refuse_cross_sweep(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("the fit was to sweep on n-length columns")

    monkeypatch.setattr(scaling, "_CrossSweep", refuse)


def _sample_dataset() -> Dataset:
    return ingest_dataset(str(DATA / "responses.sample.csv"),
                          load_gearing(str(DATA / "gearing.sample.json")))[0]


class TestTallFit:
    """Above BLOCK_ROWS rows a narrow fit sweeps in category space; every other
    fit keeps the row loop, bit for bit."""

    @given(_mixed_items(tall=True), st.sampled_from([2, 200]))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, ds, max_iterations):
        cfg = CatregConfig(max_iterations=max_iterations)
        want = oracle_catreg_fit(ds, config=cfg)
        got = catreg_fit(ds, config=cfg)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert got.degenerate == want.degenerate
        assert got.diagnostics == want.diagnostics
        assert got.r2_trace == pytest.approx(want.r2_trace, rel=0, abs=1e-12)
        assert got.quantifications.numeric == want.quantifications.numeric
        got_cats, want_cats = got.quantifications.categorical, want.quantifications.categorical
        assert list(got_cats) == list(want_cats)
        for name, q in want_cats.items():
            assert list(got_cats[name]) == list(q)
            assert got_cats[name] == pytest.approx(q, rel=0, abs=1e-9)
        assert got.coef == pytest.approx(want.coef, rel=0, abs=1e-9)
        assert got.r2 == pytest.approx(want.r2, rel=0, abs=1e-12)

    @pytest.mark.parametrize("ds, builds", [
        (mixed_dataset(3, n=BLOCK_ROWS), 0),
        (mixed_dataset(3, n=BLOCK_ROWS + 1), 1),
        (_categorical_dataset(4, BLOCK_ROWS + 100, (19,), "nominal"), 1),
        (_categorical_dataset(4, BLOCK_ROWS + 100, (20,), "nominal"), 0),
    ], ids=["n=BLOCK_ROWS", "n=BLOCK_ROWS+1", "width 20", "width 21"])
    def test_which_fits_sweep_in_category_space(self, ds, builds, monkeypatch):
        # a lone predictor is narrow while width^2 = (categories + 1)^2 <= 400
        built = []
        cross = scaling._CrossSweep

        def spy(*args):
            built.append(args)
            return cross(*args)

        monkeypatch.setattr(scaling, "_CrossSweep", spy)
        catreg_fit(ds)
        assert len(built) == builds

    def test_sample_corpus_keeps_the_row_loop(self, monkeypatch):
        _refuse_cross_sweep(monkeypatch)
        ds = _sample_dataset()
        catreg_fit(ds)
        run_pipeline(ds)
        compare_baseline(ds, k=6, seed=42)

    def test_wide_tall_fit_keeps_the_row_loop_bit_for_bit(self, monkeypatch):
        # one predictor of 130 categories: width^2 = 131^2 is far above _NARROW
        _refuse_cross_sweep(monkeypatch)
        for level in ("nominal", "ordinal"):
            _assert_matches_oracle(_categorical_dataset(8, BLOCK_ROWS + 300, (130,), level),
                                   CatregConfig())


def _whole_n_cross_tables(records, z):
    """`_cross_sweep`'s A'A and 1'A with every row's one-hot columns of A indexed
    before the block loop, from the same float32 blocks and products."""
    starts = scaling._starts(records)
    items = [(p.codes, s) for p, s in zip(records, starts) if p.codes is not None]
    hot = np.array([codes + s for codes, s in items], np.intp).reshape(len(items), len(z)).T
    num = [s for p, s in zip(records, starts) if p.codes is None] + [starts[-1]]
    F = np.column_stack([p.x for p in records if p.codes is None] + [z])
    M = np.zeros((starts[-1] + 1,) * 2)
    for i in range(0, len(z), BLOCK_ROWS):
        block = hot[i:i + BLOCK_ROWS]
        H = np.zeros((len(block), len(M)), np.float32)
        H[np.arange(len(block))[:, None], block] = 1.0
        M += H.T @ H
        M[:, num] += H.astype(float).T @ F[i:i + BLOCK_ROWS]
    M[num] = M[:, num].T
    M[np.ix_(num, num)] = F.T @ F
    ones = np.concatenate([p.counts or [0.0] for p in records] + [[0.0]])
    ones[num] = F.sum(axis=0)
    return M, ones


class TestCrossSweepBlocks:
    """M's one-hot index is built one row block at a time; M, b, z'z and 1'A
    keep the bits of a build that indexes all n rows first."""

    @pytest.mark.parametrize("n", [2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1],
                             ids=["two full blocks", "a last block of one row"])
    @pytest.mark.parametrize("make", [
        lambda n: numeric_dataset(6, n, 3),
        lambda n: _categorical_dataset(6, n, (4, 7, 12), "ordinal"),
        lambda n: mixed_dataset(6, n),
    ], ids=["numeric only", "categorical only", "mixed"])
    def test_matches_a_whole_n_index_bit_for_bit(self, make, n):
        ds = make(n)
        records = [scaling._record(ds, var) for var in ds.predictors]
        z = population_standardize(ds.column(ds.dependent.name))[0]
        sweep = scaling._cross_sweep(records, z)
        M, ones = _whole_n_cross_tables(records, z)
        assert sweep.n == n
        for got, want in ((sweep.M, M[:-1, :-1]), (sweep.b, M[:-1, -1]),
                          (sweep.zz, M[-1, -1]), (sweep.ones, ones)):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
