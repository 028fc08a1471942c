"""Data model: validation, accessors, quantified columns, JSON round-trip."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catreg import (
    Dataset,
    NumericalError,
    QuantificationMap,
    ValidationError,
    Variable,
    column_as_quantified,
    dataset_from_json,
    dataset_to_json,
    population_standardize,
)

from catreg.data import _observed_codes, rows_to_columns
from helpers import OracleDataset, OracleRow, assert_raises_exactly, dataset_of_rows, mixed_dataset


def small_dataset():
    variables = (
        Variable("q", "ordinal", ("A", "B", "C")),
        Variable("size", "numeric"),
        Variable("y", "numeric", role="dependent"),
    )
    rows = [("A", 1.0, 2.0), ("B", 2.0, 3.0), ("C", 3.0, 5.0), ("B", 4.0, 6.0)]
    return dataset_of_rows(variables, rows, ["r1", "r2", "r3", "r4"])


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
        with pytest.raises(ValidationError):
            dataset_of_rows(v, [(1.0, 2.0), (2.0, 1.0)])

    def test_unknown_category_cell_rejected(self):
        variables = (
            Variable("q", "ordinal", ("A", "B")),
            Variable("y", "numeric", role="dependent"),
        )
        with pytest.raises(ValidationError, match="not a declared category"):
            dataset_of_rows(variables, [("A", 1.0), ("Z", 2.0)])

    def test_missing_cells_rejected(self):
        variables = (
            Variable("x", "numeric"),
            Variable("y", "numeric", role="dependent"),
        )
        with pytest.raises(ValidationError):
            dataset_of_rows(variables, [(1.0, 1.0), (None, 2.0)])

    def test_needs_two_rows(self):
        variables = (
            Variable("x", "numeric"),
            Variable("y", "numeric", role="dependent"),
        )
        with pytest.raises(ValidationError):
            dataset_of_rows(variables, [(1.0, 2.0)])

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
        ds = dataset_of_rows(variables, [("D", 1.0), ("B", 2.0), ("D", 3.0)])
        codes, observed = ds.codes("q")
        assert observed == ("B", "D")  # unobserved A, C dropped, order kept
        np.testing.assert_array_equal(codes, [1, 0, 1])

    @pytest.mark.parametrize("labels", [("D", "B", "D"), ("B", "A", "D", "C", "A")])
    def test_codes_match_the_observed_category_formula(self, labels):
        variables = (
            Variable("q", "ordinal", ("A", "B", "C", "D")),
            Variable("y", "numeric", role="dependent"),
        )
        ds = dataset_of_rows(variables, [(label, 1.0) for label in labels])
        declared = ds.category_codes("q")
        present = np.bincount(declared, minlength=4) > 0
        codes, observed = ds.codes("q")
        assert observed == tuple(c for c, p in zip("ABCD", present) if p)
        want = (np.cumsum(present) - 1)[declared]
        assert codes.dtype == want.dtype
        np.testing.assert_array_equal(codes, want)
        codes[:] = 0  # the caller's own array
        np.testing.assert_array_equal(ds.category_codes("q"), declared)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_the_observed_codes_rule_matches_the_oracle_and_counts_its_codes(self, data):
        k = data.draw(st.integers(2, 6))
        cats = tuple("ABCDEF"[:k])
        present = data.draw(st.lists(st.sampled_from(cats), min_size=1, max_size=k - 1,
                                     unique=True))  # at least one declared category unseen
        variables = (Variable("q", data.draw(st.sampled_from(["ordinal", "nominal"])), cats),
                     Variable("y", "numeric", role="dependent"))
        rows = [(label, 1.0) for label in
                data.draw(st.lists(st.sampled_from(present), min_size=2, max_size=30))]
        ds = dataset_of_rows(variables, rows)
        codes, observed, counts = _observed_codes(ds.category_codes("q"), cats)
        want_codes, want_observed = OracleDataset(variables, map(OracleRow, rows)).codes("q")
        assert observed == want_observed
        np.testing.assert_array_equal(codes, want_codes)
        np.testing.assert_array_equal(counts, np.bincount(codes, minlength=len(observed)))
        got_codes, got_observed = ds.codes("q")
        assert got_observed == observed
        np.testing.assert_array_equal(got_codes, codes)

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
            lambda: Dataset(small_dataset().variables, [["A", "B"], [1.0, 2.0], [1.0, 2.0]], None),
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
        ds = dataset_of_rows(variables, [(lbl, float(i)) for i, lbl in enumerate("ABAB")])
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
        rows.append(OracleRow(tuple(values), row_id=draw(st.sampled_from((None, f"r{i}")))))
    return tuple(variables), tuple(rows)


def _rejected_rows(*rows):
    """A table in row form for the fixed cases; each row lacks an id, so its position names it."""
    variables = (Variable("c", "nominal", ("A", "B")), Variable("x", "numeric"),
                 Variable("y", "numeric", role="dependent"))
    return variables, tuple(map(OracleRow, rows))


def _document(variables, rows) -> dict:
    """The dataset document of a table in row form, for the JSON reader."""
    return {
        "schema_version": "1",
        "variables": [{"name": v.name, "level": v.level, "categories": list(v.categories),
                       "role": v.role} for v in variables],
        "rows": [{"id": row.row_id, "values": list(row.values)} for row in rows],
    }


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
                dataset_from_json(_document(variables, rows))
            assert str(got.value) == str(exc)
            return
        ds = dataset_from_json(_document(variables, rows))
        assert_same_table(ds, oracle)
        indices = data.draw(st.permutations(range(ds.n)))[: data.draw(st.integers(2, ds.n))]
        assert_same_table(ds.subset(indices), oracle.subset(indices))
        ids = [row.row_id for row in rows]
        assert ds == dataset_of_rows(variables, [row.values for row in rows], ids)
        assert ds == dataset_from_json(json.loads(json.dumps(dataset_to_json(ds))))
        assert ds != 1  # not a Dataset: __eq__ leaves the answer to the other operand
        changed = [row.values for row in rows]
        values = list(changed[0])
        j = data.draw(st.integers(0, len(variables) - 1))
        var = variables[j]
        values[j] = (
            next(c for c in var.categories if c != values[j]) if var.is_categorical
            else values[j] + 1.0
        )
        changed[0] = tuple(values)
        assert ds != dataset_of_rows(variables, changed, ids)


class TestRowsToColumns:
    def test_rectangular_rows_become_their_columns(self):
        rows = [("a", 1), ("b", 2), ("c", 3)]
        assert rows_to_columns(rows, 2) == ([["a", "b", "c"], [1, 2, 3]], None)

    @pytest.mark.parametrize("ragged", [0, 2, 4])  # first, in the middle, last
    @pytest.mark.parametrize("cells", [(), ("x",), ("x", 9, 9)])  # short or long
    def test_only_the_rows_before_the_first_ragged_one_are_columns(self, ragged, cells):
        rows = [(f"r{i}", i) for i in range(5)]
        rows[ragged] = cells
        rows[-1] = (1, 2, 3)  # a later ragged row is not looked at
        want = [[f"r{i}" for i in range(ragged)], list(range(ragged))]
        assert rows_to_columns(rows, 2) == (want, ragged)

    def test_no_rows_make_empty_columns(self):
        assert rows_to_columns([], 3) == ([[], [], []], None)


class TestColumnarDataset:
    def test_duplicate_row_ids_rejected(self):
        variables = (Variable("x", "numeric"), Variable("y", "numeric", role="dependent"))
        with pytest.raises(ValidationError, match="'r1' occurs more than once"):
            dataset_of_rows(variables, [(1.0, 2.0), (2.0, 1.0)], ["r1", "r1"])
        # a missing id defaults to the row position, which can collide too
        with pytest.raises(ValidationError, match="'1' occurs more than once"):
            dataset_of_rows(variables, [(1.0, 2.0), (2.0, 1.0)], ["1", None])

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
        with pytest.raises(ValidationError, match="numeric cell must be a finite number"):
            dataset_of_rows(variables, [(1.0, 2.0), (10**400, 1.0)])

    def test_integer_cells_are_stored_and_written_as_floats(self):
        variables = (Variable("x", "numeric"), Variable("y", "numeric", role="dependent"))
        ds = dataset_of_rows(variables, [(3, 1), (4.5, 2)])
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
    "no variables": (
        lambda: Dataset((), [], []),
        "dataset declares no variables",
    ),
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
