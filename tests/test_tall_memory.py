"""A tall fit reads the dataset's stored columns and indexes M one row block at a time.

Above `stats.BLOCK_ROWS` rows a narrow `catreg_fit` keeps a fully observed
item's stored codes in its record, not a copy, and `_cross_sweep` builds each
row block's one-hot index inside its block loop. So a tall run's memory beyond
the dataset grows per row by a few float64 columns and the numeric
predictors, whatever the number of items. Numpy reports its allocations to
`tracemalloc`, whose peak measures this.
"""

import tracemalloc

import numpy as np
import pytest

from catreg import Dataset, Variable, catreg_fit, pipeline, run_pipeline
from catreg.stats import BLOCK_ROWS
from helpers import mixed_dataset, planted_pipeline_dataset


def _items_dataset(seed: int, n: int, items: int, numerics: int = 2,
                   unobserved: int = 0) -> Dataset:
    """`items` questionnaire items of three observed categories (the first
    `unobserved` of them declare a fourth that no row shows), `numerics`
    numeric predictors, and y planted on the first four items and one numeric."""
    rng = np.random.default_rng(seed)
    y = rng.normal(scale=0.7, size=n)
    variables, columns = [], []
    for j in range(items):
        labels = ("A", "B", "C", "D")[:4 if j < unobserved else 3]
        codes = rng.permutation(np.arange(n) % 3)
        if j < 4:
            y += (0.5 + 0.3 * j) * codes
        variables.append(Variable(f"q{j}", "ordinal" if j % 2 else "nominal", labels))
        columns.append([labels[c] for c in codes])
    for j in range(numerics):
        x = rng.normal(size=n)
        if j == 0:
            y += x
        variables.append(Variable(f"x{j}", "numeric"))
        columns.append(x.tolist())
    variables.append(Variable("y", "numeric", role="dependent"))
    columns.append(y.tolist())
    return Dataset(variables, columns, [None] * n)


@pytest.mark.parametrize("ds", [
    planted_pipeline_dataset(5, BLOCK_ROWS + 500),
    mixed_dataset(5, BLOCK_ROWS + 500),
    _items_dataset(5, BLOCK_ROWS + 500, items=8, unobserved=2),
], ids=["planted", "mixed", "unobserved categories"])
def test_tall_records_share_the_stored_columns(ds, monkeypatch):
    before = ds.subset(np.arange(ds.n))  # fancy indexing: a copy of every column
    fits, fit = [], pipeline.catreg_fit
    monkeypatch.setattr(pipeline, "catreg_fit",
                        lambda *args, **kwargs: fits.append(fit(*args, **kwargs)) or fits[-1])
    run_pipeline(ds)
    assert fits
    fits.append(catreg_fit(ds))
    for cfit in fits:
        for p in cfit._sweep.records:
            if p.codes is not None:
                declared = ds.variable(p.name).categories
                # a fully observed item's codes are its stored column; another's are rebuilt
                assert np.shares_memory(p.codes, ds._stored(p.name)) == (p.cats == declared)
    assert not any(ds._stored(v.name).flags.writeable for v in ds.variables)
    assert ds == before


def _traced_peak(ds: Dataset) -> int:
    """The traced peak of a run_pipeline on ds, above what was allocated before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_pipeline(ds)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("items", [10, 40])
def test_a_tall_runs_memory_grows_per_row_by_columns_not_items(items):
    numerics, rows = 2, (2 * BLOCK_ROWS, 4 * BLOCK_ROWS)
    small, large = (_items_dataset(3, n, items, numerics) for n in rows)
    run_pipeline(small)  # first calls allocate what later ones reuse
    per_row = (_traced_peak(large) - _traced_peak(small)) / (rows[1] - rows[0])
    # z and its copy in the sweep's numeric block, two float64 columns of slack,
    # and per numeric predictor its standardized record and its column of the block
    assert per_row <= 8 * (4 + 2 * numerics)
