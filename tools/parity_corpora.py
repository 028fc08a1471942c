"""Compare `run_pipeline` and the dummy baseline's cross-validation between two
source trees on the benchmark's corpora.

    python tools/parity_corpora.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository; its `src` is what runs. For every
corpus seed of `perfbench/workloads.py`'s CORPUS_SEEDS the synthetic corpus of
`perfbench/corpus.py` is generated at SYNTH_ROWS rows, ingested, and run
through `run_pipeline` with PIPELINE_ALPHA and through the dummy-ols `crossval`
at k=5 and FOLD_SEED (the crossval_dummy_synth_20k workload's operation), by
each tree in a process of its own at one BLAS thread. The corpus code is
imported from the `perfbench` directory next to this file, the same for both
trees.

The table lists, per quantity, how many values were compared and whether they
were identical, or the largest relative difference (the largest absolute one
for CATREG coefficients below 1e-2 in size, where relative agreement is below
either path's rounding).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SMALL_COEF = 1e-2


def _fit(fit) -> dict | None:
    if fit is None:
        return None
    return {"names": list(fit.names), "coef": fit.coef.tolist(), "intercept": fit.intercept,
            "stderr": fit.stderr.tolist(), "tstat": fit.tstat.tolist(), "r2": fit.r2,
            "adj_r2": fit.adj_r2}


def run_tree() -> list:
    """Per corpus seed, what this process's catreg makes of the corpus."""
    sys.path.insert(0, PERFBENCH)
    import corpus
    import workloads

    import catreg

    fits = []
    catreg_fit = catreg.pipeline.catreg_fit

    def keep(*args, **kwargs):
        fits.append(catreg_fit(*args, **kwargs))
        return fits[-1]

    catreg.pipeline.catreg_fit = keep
    config = catreg.stepwise.StepwiseConfig(*workloads.PIPELINE_ALPHA)
    out = []
    for seed in workloads.CORPUS_SEEDS:
        with tempfile.TemporaryDirectory() as work:
            info = corpus.write_corpus(work, workloads.corpus_seed(seed), workloads.SYNTH_ROWS)
            ds, _ = catreg.ingest.ingest_dataset(
                info["responses.csv"], catreg.ingest.load_gearing(info["gearing.json"]),
                catreg.ingest.load_schema(info["schema.json"]))
        try:
            cv = catreg.evaluate.crossval(ds, k=5, seed=workloads.FOLD_SEED, method="dummy-ols")
            crossval = {"mmre": [f.mmre_value for f in cv.folds],
                        "excluded": [f.n_excluded for f in cv.folds]}
        except (catreg.NumericalError, catreg.ValidationError) as exc:
            crossval = {"error": f"{type(exc).__name__}: {exc}"}
        fits.clear()
        try:
            result = catreg.pipeline.run_pipeline(ds, stepwise_config=config)
        except (catreg.NumericalError, catreg.ValidationError) as exc:
            out.append({"seed": seed, "crossval": crossval,
                        "error": f"{type(exc).__name__}: {exc}"})
            continue
        model = result.model
        out.append({
            "seed": seed,
            "crossval": crossval,
            "converged": bool(result.converged),
            "model": None if model is None else {
                "coefficients": model.coefficients, "intercept": model.intercept},
            "rounds": [{
                "predictors": list(r.predictors),
                "selected": list(r.selected),
                "events": [[e.step, e.variable, e.action] for e in r.trace.events],
                "event_pvalues": [e.pvalue for e in r.trace.events],
                "diagnostics": list(r.trace.diagnostics),
                "fit": _fit(r.trace.fit),
                "catreg": {"iterations": f.iterations, "converged": bool(f.converged),
                           "degenerate": list(f.degenerate), "r2": f.r2, "adj_r2": f.adj_r2,
                           "r2_trace": list(f.r2_trace), "coef": f.coef, "pvalues": f.pvalues},
            } for r, f in zip(result.rounds, fits, strict=True)],
        })
    return out


def _in_process(tree: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker"],
        env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{tree}: the worker exited {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


class Table:
    """Per quantity: values compared, values that differ, largest difference."""

    def __init__(self):
        self.rows: dict = {}

    def row(self, name: str):
        return self.rows.setdefault(name, [0, 0, 0.0, "rel"])

    def same(self, name: str, a, b):
        row = self.row(name)
        row[0] += 1
        row[1] += a != b

    def bits(self, name: str, xs, ys):
        row = self.row(name)
        for x, y in zip(xs, ys, strict=True):
            row[0] += 1
            row[1] += not (x == y or (math.isnan(x) and math.isnan(y)))

    def close(self, name: str, xs, ys, absolute: bool = False):
        row = self.row(name)
        row[3] = "abs" if absolute else "rel"
        for x, y in zip(xs, ys, strict=True):
            row[0] += 1
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            row[1] += 1
            scale = 1.0 if absolute else max(abs(x), abs(y))
            row[2] = max(row[2], abs(x - y) / scale)

    def print(self):
        width = max(map(len, self.rows))
        print(f"{'quantity':<{width}}  {'values':>7}  {'differ':>7}  result")
        for name, (count, differ, worst, kind) in self.rows.items():
            result = "identical" if not differ else f"max {kind} {worst:.2g}"
            print(f"{name:<{width}}  {count:>7}  {differ:>7}  {result}")


def compare(parent: list, change: list) -> Table:
    table = Table()
    for a, b in zip(parent, change, strict=True):
        cva, cvb = a["crossval"], b["crossval"]
        table.same("dummy-ols crossval errors", cva.get("error"), cvb.get("error"))
        if "error" not in cva and "error" not in cvb:
            table.close("dummy-ols crossval fold MMREs", cva["mmre"], cvb["mmre"])
            table.same("dummy-ols crossval excluded", cva["excluded"], cvb["excluded"])
        table.same("errors", a.get("error"), b.get("error"))
        if "error" in a or "error" in b:
            continue
        table.same("rounds", len(a["rounds"]), len(b["rounds"]))
        table.same("converged", a["converged"], b["converged"])
        for ra, rb in zip(a["rounds"], b["rounds"]):
            ca, cb = ra["catreg"], rb["catreg"]
            table.same("selections", ra["selected"], rb["selected"])
            table.same("event steps, variables, actions", ra["events"], rb["events"])
            table.bits("event p-values", ra["event_pvalues"], rb["event_pvalues"])
            table.same("stepwise diagnostics", ra["diagnostics"], rb["diagnostics"])
            table.same("ALS iterations", ca["iterations"], cb["iterations"])
            table.same("CATREG converged, degenerate", (ca["converged"], ca["degenerate"]),
                       (cb["converged"], cb["degenerate"]))
            table.close("CATREG R^2 trace", ca["r2_trace"], cb["r2_trace"])
            table.close("CATREG R^2", [ca["r2"]], [cb["r2"]])
            table.close("CATREG adjusted R^2", [ca["adj_r2"]], [cb["adj_r2"]])
            table.same("CATREG predictors", list(ca["coef"]), list(cb["coef"]))
            pairs = list(zip(ca["coef"].values(), cb["coef"].values()))
            big = [(x, y) for x, y in pairs if max(abs(x), abs(y)) >= SMALL_COEF]
            small = [(x, y) for x, y in pairs if max(abs(x), abs(y)) < SMALL_COEF]
            table.close("CATREG coefficients >= 1e-2", *zip(*big) if big else ((), ()))
            table.close("CATREG coefficients < 1e-2", *zip(*small) if small else ((), ()),
                        absolute=True)
            table.close("CATREG p-values", list(ca["pvalues"].values()),
                        list(cb["pvalues"].values()))
            fa, fb = ra["fit"], rb["fit"]
            table.same("stepwise fit names", fa and fa["names"], fb and fb["names"])
            if fa and fb:
                for key in ("coef", "stderr", "tstat"):
                    table.close(f"stepwise fit {key}", fa[key], fb[key])
                for key in ("intercept", "r2", "adj_r2"):
                    table.close(f"stepwise fit {key}", [fa[key]], [fb[key]])
        ma, mb = a["model"], b["model"]
        table.same("model variables", ma and list(ma["coefficients"]),
                   mb and list(mb["coefficients"]))
        if ma and mb:
            table.close("model coefficients", list(ma["coefficients"].values()),
                        list(mb["coefficients"].values()))
            table.close("model intercept", [ma["intercept"]], [mb["intercept"]])
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(run_tree(), sys.stdout)
        return
    if not (args.parent and args.change):
        parser.error("give the parent and the change source trees")
    parent, change = (_in_process(tree) for tree in (args.parent, args.change))
    print(f"{len(parent)} corpora, {args.parent} against {args.change}")
    compare(parent, change).print()


if __name__ == "__main__":
    main()
