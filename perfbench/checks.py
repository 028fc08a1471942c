"""Output checks: each digest against recorded references and numpy oracles.

Floats are compared at RTOL/ATOL, so that a later change that only moves
the last bits (a different factorization, say) is not a failure. Counts,
flags and selected sets must match exactly.

- compare_sample_k6: per-fold MMRE, averages and excluded counts recorded
  from the seed commit in reference.json; the averages must also round to
  the published table (0.4700 / 0.4040 / 0.0659).
- pipeline_synth_20k: the selected set (in any order), round count,
  converged flag, coefficients and intercept recorded from the seed commit
  for the run's corpus (every corpus seed has one), the planted predictors
  all selected, and coefficients and intercept equal to a numpy
  least-squares fit of Ln(Defect) on the model's own quantified columns.
- crossval_dummy_synth_20k: per-fold MMRE, excluded and test counts equal a
  numpy re-implementation of dummy-coded OLS under the same fold plan.
- ingest_synth_20k: rows kept and removed equal what the generator planted,
  and load(save(ds)) == ds.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import corpus
import workloads

RTOL = 1e-6
ATOL = 1e-9
PUBLISHED_AVERAGES = (0.4700, 0.4040, 0.0659)
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def close(a, b) -> bool:
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
                and len(a) == len(b) and all(close(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict) or isinstance(b, dict):
        return (isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys()
                and all(close(a[k], b[k]) for k in a))
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


class Table:
    """A dataset JSON read with the standard library, as column arrays."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.variables = doc["variables"]
        cells = list(zip(*(row["values"] for row in doc["rows"])))
        self.n = len(doc["rows"])
        self.columns = {}
        for var, col in zip(self.variables, cells):
            if var["categories"]:
                lookup = {c: k for k, c in enumerate(var["categories"])}
                self.columns[var["name"]] = np.array([lookup[c] for c in col])
            else:
                self.columns[var["name"]] = np.array(col, dtype=float)
        self.dependent = next(v["name"] for v in self.variables if v["role"] == "dependent")
        self.predictors = [v for v in self.variables if v["role"] != "dependent"]


def dummy_crossval_oracle(table: Table, k: int, seed: int) -> dict:
    """Dummy-coded OLS under the seeded round-robin fold plan, in plain numpy."""
    perm = np.random.default_rng(seed).permutation(table.n)
    fold_of = np.empty(table.n, dtype=int)
    fold_of[perm] = np.arange(table.n) % k
    y = table.columns[table.dependent]
    out = {"mmre": [], "excluded": [], "n_test": []}
    for fold in range(k):
        train, test = fold_of != fold, fold_of == fold
        design_train, design_test, seen = [], [], np.ones(int(test.sum()), dtype=bool)
        for var in table.predictors:
            x = table.columns[var["name"]]
            if var["categories"]:
                observed = np.unique(x[train])
                seen &= np.isin(x[test], observed)
                for code in observed[1:]:
                    design_train.append(x[train] == code)
                    design_test.append(x[test] == code)
            else:
                mean = x[train].mean()
                scale = np.sqrt(np.mean((x[train] - mean) ** 2))
                design_train.append((x[train] - mean) / scale)
                design_test.append((x[test] - mean) / scale)
        a = np.column_stack([np.ones(int(train.sum()))] + design_train).astype(float)
        beta = np.linalg.lstsq(a, y[train], rcond=None)[0]
        b = np.column_stack([np.ones(int(test.sum()))] + design_test).astype(float)
        pred, actual = np.exp(b[seen] @ beta), np.exp(y[test][seen])
        out["mmre"].append(float(np.mean(np.abs(actual - pred) / actual)))
        out["excluded"].append(int((~seen).sum()))
        out["n_test"].append(int(test.sum()))
    return out


def pipeline_oracle(table: Table, digest: dict) -> dict:
    """Least squares of Ln(Defect) on the model's quantified columns, in numpy."""
    columns = []
    for name in digest["selected"]:
        var = next(v for v in table.variables if v["name"] == name)
        x = table.columns[name]
        if var["categories"]:
            qmap = digest["quantifications"][name]
            values = np.array([qmap.get(c, np.nan) for c in var["categories"]])
            columns.append(values[x])
        else:
            columns.append(x)
    a = np.column_stack([np.ones(table.n)] + columns)
    beta = np.linalg.lstsq(a, table.columns[table.dependent], rcond=None)[0]
    return {"intercept": float(beta[0]),
            "coefficients": dict(zip(digest["selected"], map(float, beta[1:])))}


def expectations(workload: str, seed: int, work: str, reference: dict) -> dict:
    """What check() needs for one run, computed once before the operations."""
    if workload == "compare_sample_k6":
        return {"reference": reference["compare_sample_k6"]}
    if workload == "pipeline_synth_20k":
        return {"table": Table(os.path.join(work, "dataset.json")),
                "reference": reference["pipeline_synth_20k"][str(workloads.corpus_seed(seed))]}
    if workload == "crossval_dummy_synth_20k":
        return {"oracle": dummy_crossval_oracle(
            Table(os.path.join(work, "dataset.json")), k=5, seed=workloads.FOLD_SEED)}
    if workload == "ingest_synth_20k":
        with open(os.path.join(work, "expected.json"), "r", encoding="utf-8") as fh:
            return {"corpus": json.load(fh)}
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, digest: dict, expected: dict) -> list[str]:
    """Problems with one digest; empty when the output is correct."""
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    if workload == "compare_sample_k6":
        ref = expected["reference"]
        for key in ("baseline", "contender", "average"):
            need(close(digest[key], ref[key]), f"{key} MMRE differs from the reference")
        for key in ("baseline_excluded", "contender_excluded"):
            need(digest[key] == ref[key], f"{key} differs from the reference")
        need([round(v, 4) for v in digest["average"]] == list(PUBLISHED_AVERAGES),
             "averages do not round to the published table")
    elif workload == "pipeline_synth_20k":
        if digest["selected"] is None:
            return ["the pipeline selected nothing"]
        missing = set(corpus.PLANTED_PREDICTORS) - set(digest["selected"])
        need(not missing, f"planted predictors not selected: {sorted(missing)}")
        need(digest["converged"], "the pipeline did not converge")
        oracle = pipeline_oracle(expected["table"], digest)
        need(close(digest["intercept"], oracle["intercept"]), "intercept differs from lstsq")
        need(close(digest["coefficients"], oracle["coefficients"]),
             "coefficients differ from lstsq")
        ref = expected["reference"]
        need(set(digest["selected"]) == set(ref["selected"]),
             "selected set differs from the reference")
        need(digest["rounds"] == ref["rounds"], "round count differs from the reference")
        need(digest["converged"] == ref["converged"], "converged flag differs from the reference")
        need(close(digest["coefficients"], ref["coefficients"])
             and close(digest["intercept"], ref["intercept"]),
             "coefficients differ from the reference")
    elif workload == "crossval_dummy_synth_20k":
        oracle = expected["oracle"]
        need(close(digest["mmre"], oracle["mmre"]), "fold MMRE differs from the numpy oracle")
        need(digest["excluded"] == oracle["excluded"], "excluded counts differ from the oracle")
        need(digest["n_test"] == oracle["n_test"], "fold sizes differ from the oracle")
    elif workload == "ingest_synth_20k":
        want = expected["corpus"]
        need(digest["rows_kept"] == want["rows_kept"], "rows kept differ from the generator")
        need(digest["rows_removed"] == want["rows_removed"],
             "rows removed differ from the generator")
        need(digest["round_trip_equal"] is True, "load(save(ds)) != ds")
    return problems


def score(workload: str, digests: dict, errors: list, expected: dict):
    """(attempted, failed, problems) for one worker report.

    digests maps each distinct digest, as sorted-key JSON, to the number of
    operations that produced it; errors lists the operations that raised.
    """
    attempted = sum(digests.values()) + len(errors)
    failed = len(errors)
    problems = {}
    for key, count in digests.items():
        found = check(workload, json.loads(key), expected)
        if found:
            failed += count
            problems["; ".join(found)] = count
    return attempted, failed, problems
