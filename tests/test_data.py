"""Data model: validation, accessors, quantified columns, JSON round-trip."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catreg import (
    Dataset,
    NumericalError,
    Observation,
    QuantificationMap,
    ValidationError,
    Variable,
    column_as_quantified,
    dataset_from_json,
    dataset_to_json,
    population_standardize,
)

from helpers import OracleDataset, assert_raises_exactly, mixed_dataset


def small_dataset():
    variables = (
        Variable("q", "ordinal", ("A", "B", "C")),
        Variable("size", "numeric"),
        Variable("y", "numeric", role="dependent"),
    )
    rows = (
        Observation(("A", 1.0, 2.0), row_id="r1"),
        Observation(("B", 2.0, 3.0), row_id="r2"),
        Observation(("C", 3.0, 5.0), row_id="r3"),
        Observation(("B", 4.0, 6.0), row_id="r4"),
    )
    return Dataset(variables, rows)


class TestVariable:
    def test_levels_validated(self):
        with pytest.raises(ValidationError):
            Variable("x", "interval")

    def test_numeric_rejects_categories(self):
        with pytest.raises(ValidationError):
            Variable("x", "numeric", ("A", "B"))

    def test_categorical_needs_two_categories(self):
        with pytest.raises(ValidationError):
            Variable("x", "nominal", ("A",))

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValidationError):
            Variable("x", "ordinal", ("A", "A"))


class TestDataset:
    def test_exactly_one_dependent(self):
        v = (Variable("a", "numeric"), Variable("b", "numeric"))
        rows = (Observation((1.0, 2.0)), Observation((2.0, 1.0)))
        with pytest.raises(ValidationError):
            Dataset(v, rows)

    def test_unknown_category_cell_rejected(self):
        variables = (
            Variable("q", "ordinal", ("A", "B")),
            Variable("y", "numeric", role="dependent"),
        )
        rows = (Observation(("A", 1.0)), Observation(("Z", 2.0)))
        with pytest.raises(ValidationError, match="not a declared category"):
            Dataset(variables, rows)

    def test_missing_cells_rejected(self):
        variables = (
            Variable("x", "numeric"),
            Variable("y", "numeric", role="dependent"),
        )
        rows = (Observation((1.0, 1.0)), Observation((None, 2.0)))
        with pytest.raises(ValidationError):
            Dataset(variables, rows)

    def test_needs_two_rows(self):
        variables = (
            Variable("x", "numeric"),
            Variable("y", "numeric", role="dependent"),
        )
        with pytest.raises(ValidationError):
            Dataset(variables, (Observation((1.0, 2.0)),))

    def test_accessors(self):
        ds = small_dataset()
        assert ds.n == 4
        assert ds.dependent.name == "y"
        assert [v.name for v in ds.predictors] == ["q", "size"]
        assert [ds.value(i, "q") for i in range(ds.n)] == ["A", "B", "C", "B"]
        np.testing.assert_array_equal(ds.category_codes("q"), [0, 1, 2, 1])
        np.testing.assert_array_equal(ds.column("size"), [1.0, 2.0, 3.0, 4.0])
        codes, observed = ds.codes("q")
        assert observed == ("A", "B", "C")
        np.testing.assert_array_equal(codes, [0, 1, 2, 1])
        assert dataset_to_json(ds)["rows"][2]["id"] == "r3"
        with pytest.raises(ValidationError, match=r"^variable 'q' is categorical; use codes\(\) or category_codes\(\)$"):
            ds.column("q")

    def test_observed_categories_keep_declared_order(self):
        variables = (
            Variable("q", "ordinal", ("A", "B", "C", "D")),
            Variable("y", "numeric", role="dependent"),
        )
        rows = (Observation(("D", 1.0)), Observation(("B", 2.0)), Observation(("D", 3.0)))
        ds = Dataset(variables, rows)
        codes, observed = ds.codes("q")
        assert observed == ("B", "D")  # unobserved A, C dropped, order kept
        np.testing.assert_array_equal(codes, [1, 0, 1])

    def test_subset_keeps_row_ids(self):
        ds = small_dataset()
        sub = ds.subset([0, 3])
        assert sub.n == 2
        assert [row["id"] for row in dataset_to_json(sub)["rows"]] == ["r1", "r4"]
        assert [sub.value(i, "q") for i in range(sub.n)] == ["A", "B"]

    def test_subset_index_out_of_range_is_a_validation_error(self):
        ds = small_dataset()
        for indices in ([0, 4], [-5, 1], np.array([0, 9]), [0, 1 << 70]):
            with pytest.raises(ValidationError, match=r"^subset index \S+ is out of range for 4 rows$"):
                ds.subset(indices)
        # a negative index in [-n, 0) counts from the end, as in numpy
        assert [row["id"] for row in dataset_to_json(ds.subset([-1, 0]))["rows"]] == ["r4", "r1"]

    def test_non_integer_subset_index_is_a_validation_error(self):
        ds = small_dataset()
        cases = [
            ([0.5, 1], "subset index 0.5 is not an integer"),
            (["0", "1"], "subset index '0' is not an integer"),
            ([True, False], "subset index True is not an integer"),
            (np.array([True, False, True]), "subset index np.True_ is not an integer"),
            (np.array([0.0, 1.0]), "subset index np.float64(0.0) is not an integer"),
            (5, "subset indices must be a sequence of integers"),
            (None, "subset indices must be a sequence of integers"),
        ]
        for indices, message in cases:
            assert_raises_exactly(lambda: ds.subset(indices), ValidationError, message)
        # numpy integer scalars are integers
        assert ds.subset([np.int8(1), np.uint64(2)]).n == 2

    def test_columns_without_ids_are_a_validation_error(self):
        assert_raises_exactly(
            lambda: Dataset(small_dataset().variables, columns=[["A", "B"], [1.0, 2.0], [1.0, 2.0]]),
            ValidationError, "a dataset given by columns needs one row id or None per row",
        )


class TestStandardize:
    def test_three_values(self):
        z, mean, scale = population_standardize([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        # population convention: scale = sqrt(2/3), so z ends at +-1.2247
        np.testing.assert_allclose(z, [-1.22474487, 0.0, 1.22474487], atol=1e-8)
        assert np.mean(z**2) == pytest.approx(1.0, abs=1e-12)

    def test_sum_of_squares_equals_n(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=37) * 3 + 4
        z, _, _ = population_standardize(x)
        assert float(z @ z) == pytest.approx(37.0, abs=1e-9)

    def test_zero_variance_rejected(self):
        assert_raises_exactly(
            lambda: population_standardize([2.0, 2.0, 2.0]),
            ValidationError, "cannot standardize a zero-variance column",
        )

    @pytest.mark.parametrize("values", [
        [1e200, -1e200, 1e200, -1e200],  # the squared deviations overflow
        [1.7e308, 1.7e308, -1.0],  # the sum overflows
        [1.7e308, -1.7e308, *[0.0] * 6] * 2,  # numpy's pairwise sum adds inf - inf
    ])
    def test_overflowing_spread_is_a_numerical_error(self, values):
        assert_raises_exactly(
            lambda: population_standardize(values),
            NumericalError, "cannot standardize a column whose spread overflows the float range",
        )


class TestColumnAsQuantified:
    def test_binary_equal_counts_maps_to_unit_values(self):
        # standardizing a balanced two-level indicator gives -1/+1 exactly
        variables = (
            Variable("g", "nominal", ("A", "B")),
            Variable("y", "numeric", role="dependent"),
        )
        rows = tuple(
            Observation((lbl, float(i))) for i, lbl in enumerate(("A", "B", "A", "B"))
        )
        ds = Dataset(variables, rows)
        qmap = QuantificationMap(categorical={"g": {"A": -1.0, "B": 1.0}})
        np.testing.assert_array_equal(
            column_as_quantified(ds, "g", qmap), [-1.0, 1.0, -1.0, 1.0]
        )

    def test_numeric_standardization_applied(self):
        ds = small_dataset()
        qmap = QuantificationMap(numeric={"size": (2.5, 1.118033988749895)})
        out = column_as_quantified(ds, "size", qmap)
        assert abs(out.mean()) < 1e-12
        assert np.mean(out**2) == pytest.approx(1.0, abs=1e-12)

    def test_pure_function_bit_identical(self):
        ds = mixed_dataset(0)
        qmap = QuantificationMap(
            categorical={"ord1": {"A": -1.2, "B": -0.1, "C": 0.4, "D": 1.5}},
        )
        a = column_as_quantified(ds, "ord1", qmap)
        b = column_as_quantified(ds, "ord1", qmap)
        assert np.array_equal(a, b)

    def test_unknown_variable(self):
        ds = small_dataset()
        with pytest.raises(ValidationError, match="no quantification"):
            column_as_quantified(ds, "q", QuantificationMap())

    def test_category_without_quantification(self):
        ds = small_dataset()
        qmap = QuantificationMap(categorical={"q": {"A": -1.0, "B": 0.0}})
        with pytest.raises(ValidationError, match="has no quantification"):
            column_as_quantified(ds, "q", qmap)


class TestDatasetJson:
    def test_round_trip(self):
        ds = small_dataset()
        doc = dataset_to_json(ds)
        assert doc["schema_version"] == "1"
        back = dataset_from_json(json.loads(json.dumps(doc)))
        assert back == ds

    def test_unknown_fields_rejected(self):
        doc = dataset_to_json(small_dataset())
        doc["extra"] = 1
        with pytest.raises(ValidationError, match="unknown fields"):
            dataset_from_json(doc)

    def test_wrong_schema_version_rejected(self):
        doc = dataset_to_json(small_dataset())
        doc["schema_version"] = "2"
        with pytest.raises(ValidationError, match="schema version"):
            dataset_from_json(doc)


# --- the columnar Dataset against the row-tuple oracle -----------------------

# cells that break a rectangle: non-finite, wrong type, undeclared, unhashable
HOSTILE_CELLS = (None, True, float("nan"), float("inf"), -float("inf"), "A", "Z", 3, [1], {})


@st.composite
def tables(draw):
    """Variables plus rows: mostly valid cells, sometimes a hostile cell or a short row."""
    n_pred = draw(st.integers(1, 3))
    variables = []
    for j in range(n_pred):
        if draw(st.booleans()):
            cats = ("A", "B", "C", "D")[: draw(st.integers(2, 4))]
            variables.append(Variable(f"v{j}", draw(st.sampled_from(("nominal", "ordinal"))), cats))
        else:
            variables.append(Variable(f"v{j}", "numeric"))
    variables.insert(draw(st.integers(0, n_pred)), Variable("y", "numeric", role="dependent"))
    hostile = draw(st.booleans())
    rows = []
    for i in range(draw(st.integers(2, 12))):
        values = []
        for var in variables:
            if hostile and draw(st.integers(0, 9)) == 0:
                values.append(draw(st.sampled_from(HOSTILE_CELLS)))
            elif var.is_categorical:
                values.append(draw(st.sampled_from(var.categories)))
            else:
                values.append(draw(st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3))))
        if hostile and draw(st.integers(0, 19)) == 0:
            values = values[:-1]
        rows.append(Observation(tuple(values), row_id=draw(st.sampled_from((None, f"r{i}")))))
    return tuple(variables), tuple(rows)


def _rejected_rows(*rows):
    """A table in row form for the fixed cases; each row lacks an id, so its position names it."""
    variables = (Variable("c", "nominal", ("A", "B")), Variable("x", "numeric"),
                 Variable("y", "numeric", role="dependent"))
    return variables, tuple(map(Observation, rows))


def assert_same_table(ds, oracle):
    assert ds.n == oracle.n
    ids = [row["id"] for row in dataset_to_json(ds)["rows"]]
    assert ids == [oracle.row_id(i) for i in range(oracle.n)]
    for var in ds.variables:
        if var.is_categorical:
            want = [var.categories.index(label) for label in oracle.labels(var.name)]
            np.testing.assert_array_equal(ds.category_codes(var.name), want)
            codes, observed = ds.codes(var.name)
            want_codes, want_observed = oracle.codes(var.name)
            assert observed == want_observed
            np.testing.assert_array_equal(codes, want_codes)
        else:
            np.testing.assert_array_equal(ds.column(var.name), oracle.column(var.name))
        for i in range(ds.n):
            assert ds.value(i, var.name) == oracle.value(i, var.name)


class TestAgainstRowOracle:
    # every fixed case is rejected, so `data` is never drawn from
    # a later variable on an earlier row beats an earlier variable on a later row
    @example(table=_rejected_rows(("A", 1.0, 2.0), ("A", 1.0, float("nan")), ("Z", [1], 2.0)),
             data=None)
    @example(table=_rejected_rows(("A", True, 1.0), ({}, 1.0, 1.0)), data=None)
    # a ragged row after a bad cell, before one, in the same row, and first
    @example(table=_rejected_rows(("A", "B", 1.0), ("A", 1.0)), data=None)
    @example(table=_rejected_rows(("A", 1.0, 2.0), ("A", 1.0), ("Z", 1.0, 2.0)), data=None)
    @example(table=_rejected_rows(("A", 1.0, 2.0), ("Z", None)), data=None)
    @example(table=_rejected_rows(("A",), ("Z", 1.0, 2.0)), data=None)
    @given(tables(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_accessors_and_first_error(self, table, data):
        variables, rows = table
        try:
            oracle = OracleDataset(variables, rows)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                Dataset(variables, rows)
            assert str(got.value) == str(exc)
            return
        ds = Dataset(variables, rows)
        assert_same_table(ds, oracle)
        indices = data.draw(st.permutations(range(ds.n)))[: data.draw(st.integers(2, ds.n))]
        assert_same_table(ds.subset(indices), oracle.subset(indices))
        assert ds == Dataset(variables, oracle.rows)
        assert ds == dataset_from_json(json.loads(json.dumps(dataset_to_json(ds))))
        changed = list(oracle.rows)
        values = list(changed[0].values)
        j = data.draw(st.integers(0, len(variables) - 1))
        var = variables[j]
        values[j] = (
            next(c for c in var.categories if c != values[j]) if var.is_categorical
            else values[j] + 1.0
        )
        changed[0] = Observation(tuple(values), changed[0].row_id)
        assert ds != Dataset(variables, changed)


class TestColumnarDataset:
    def test_duplicate_row_ids_rejected(self):
        variables = (Variable("x", "numeric"), Variable("y", "numeric", role="dependent"))
        with pytest.raises(ValidationError, match="'r1' occurs more than once"):
            Dataset(variables, (Observation((1.0, 2.0), "r1"), Observation((2.0, 1.0), "r1")))
        # a missing id defaults to the row position, which can collide too
        with pytest.raises(ValidationError, match="'1' occurs more than once"):
            Dataset(variables, (Observation((1.0, 2.0), "1"), Observation((2.0, 1.0))))

    def test_duplicate_row_id_named_is_the_first_to_repeat(self):
        # 'a' occurs first of the repeated ids, though 'b' repeats sooner
        variables = (Variable("x", "numeric"), Variable("y", "numeric", role="dependent"))
        ids = ["c", "a", "b", "b", "a", "c"]
        with pytest.raises(ValidationError, match="^row ids must be unique; 'c' occurs"):
            Dataset(variables, columns=[range(6), range(6)], ids=ids)
        with pytest.raises(ValidationError, match="^row ids must be unique; 'a' occurs"):
            Dataset(variables, columns=[range(5), range(5)], ids=ids[1:])
        with pytest.raises(ValidationError, match="^row ids must be unique; '2' occurs"):
            Dataset(variables, columns=[range(4), range(4)], ids=["x", "2", None, None])

    def test_subset_rejects_repeated_rows(self):
        ds = small_dataset()
        with pytest.raises(ValidationError, match="must not repeat"):
            ds.subset([0, 1, 1])
        with pytest.raises(ValidationError, match="must not repeat"):
            ds.subset([3, -1])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_subset_of_an_index_array_matches_the_list(self, data):
        n = data.draw(st.integers(2, 12))
        ds = Dataset(
            small_dataset().variables,
            columns=[data.draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n)),
                     [float(i) for i in range(n)], [float(i * i) for i in range(n)]],
            ids=[f"r{i}" for i in range(n)],
        )
        dtype = data.draw(st.sampled_from((np.intp, np.int32, np.uint8, np.uint32, np.uint)))
        low = 0 if np.dtype(dtype).kind == "u" else -n - 2
        indices = data.draw(st.lists(st.integers(low, n + 2), max_size=n + 2))

        def outcome(given_indices):
            try:
                return ds.subset(given_indices)
            except Exception as exc:  # noqa: BLE001 - the type and message are compared
                return type(exc), str(exc)

        want = outcome(indices)
        got = outcome(np.array(indices, dtype=dtype))
        assert type(got) is type(want) and got == want

    def test_huge_integer_cell_is_not_finite(self):
        variables = (Variable("x", "numeric"), Variable("y", "numeric", role="dependent"))
        rows = (Observation((1.0, 2.0)), Observation((10**400, 1.0)))
        with pytest.raises(ValidationError, match="numeric cell must be a finite number"):
            Dataset(variables, rows)

    def test_integer_cells_are_stored_and_written_as_floats(self):
        variables = (Variable("x", "numeric"), Variable("y", "numeric", role="dependent"))
        ds = Dataset(variables, (Observation((3, 1)), Observation((4.5, 2))))
        doc = json.loads(json.dumps(dataset_to_json(ds)))
        assert doc["rows"][0]["values"] == [3.0, 1.0]
        assert all(isinstance(v, float) for row in doc["rows"] for v in row["values"])
        assert dataset_from_json(doc) == ds

    def test_accessor_arrays_are_copies(self):
        ds = small_dataset()
        ds.column("size")[0] = 99.0
        ds.category_codes("q")[0] = 2
        assert ds.value(0, "size") == 1.0 and ds.value(0, "q") == "A"


# each validation raise that no other test reaches, with its full message
DATA_VALIDATION_CASES = {
    "empty category": (
        lambda: Variable("q", "ordinal", ("A", "")),
        "variable 'q': categories must be non-empty strings",
    ),
    "categorical dependent": (
        lambda: Dataset(
            (Variable("y", "ordinal", ("A", "B"), role="dependent"),), columns=[["A", "B"]], ids=["a", "b"]
        ),
        "the dependent variable must be numeric",
    ),
    "standardize one value": (
        lambda: population_standardize([1.0]),
        "standardization needs a 1-d array of length >= 2",
    ),
    "no numeric standardization": (
        lambda: column_as_quantified(small_dataset(), "size", QuantificationMap()),
        "no standardization recorded for numeric variable 'size'",
    ),
    "zero recorded scale": (
        lambda: column_as_quantified(
            small_dataset(), "size", QuantificationMap(numeric={"size": (0.0, 0.0)})
        ),
        "invalid scale recorded for variable 'size'",
    ),
}


@pytest.mark.parametrize("case", list(DATA_VALIDATION_CASES))
def test_validation_raises(case):
    call, message = DATA_VALIDATION_CASES[case]
    assert_raises_exactly(call, ValidationError, message)
