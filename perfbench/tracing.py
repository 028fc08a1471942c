"""Per-layer tracing from outside the package.

`install(catreg)` replaces the public functions of the package's modules, at
every module that binds them, with wrappers that record one span per call:
its name, start, end and the span that was open when it started. Spans live
in flat arrays in memory and are turned into per-layer metrics once an
operation ends. Counters read from public return values (ALS sweeps,
pipeline rounds, stepwise events, excluded rows) sit beside the spans.

A binding that is expected but missing, or that no longer holds the function
it should, raises BindingError: a metric that silently reads 0 because a
refactor moved a call would look like a speed-up.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class BindingError(RuntimeError):
    """An expected module binding is gone or no longer holds the expected function."""


class Recorder:
    """Spans with parent links plus named counters, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def reset(self):
        """Drop the spans and zero the counters, keeping the wrappers attached."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self._stack.clear()
        self.counters = dict.fromkeys(self.counters, 0)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, fn, name: str, on_result=None):
        """Return fn wrapped so that each call records a span called `name`."""
        nid = self.intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        out = {name: {"calls": int(calls[j]), "s": float(total[j]), "self_s": float(own[j])}
               for j, name in enumerate(self.names)}
        # the span tree, folded by (parent name, child name)
        parent_names = np.where(has_parent, names[np.maximum(parents, 0)], -1)
        pairs, inverse = np.unique(np.column_stack([parent_names, names]), axis=0,
                                   return_inverse=True)
        inverse = inverse.ravel()
        edge_calls = np.bincount(inverse, minlength=len(pairs))
        edge_s = np.bincount(inverse, weights=dur, minlength=len(pairs))
        edges = {
            f"{self.names[p] if p >= 0 else '<op>'} > {self.names[c]}":
                {"calls": int(edge_calls[e]), "s": float(edge_s[e])}
            for e, (p, c) in enumerate(pairs)
        }
        return {"spans": out, "edges": edges, "counters": dict(self.counters)}


# (module, attribute, home module, span name): every binding that the package's
# own call paths go through. The span name carries the calling layer for
# functions that several layers bind, such as ols_fit.
BINDINGS = (
    ("stats", "t_pvalue", "stats", "stats.t_pvalue"),
    ("stepwise", "ols_fit", "stats", "stats.ols_fit@stepwise"),
    ("scaling", "ols_fit", "stats", "stats.ols_fit@scaling"),
    ("evaluate", "ols_fit", "stats", "stats.ols_fit@evaluate"),
    ("scaling", "pava", "scaling", "scaling.pava"),
    ("pipeline", "catreg_fit", "scaling", "scaling.catreg_fit"),
    ("pipeline", "stepwise_fit", "stepwise", "stepwise.stepwise_fit"),
    ("pipeline", "column_as_quantified", "data", "data.column_as_quantified"),
    ("pipeline", "run_pipeline", "pipeline", "pipeline.run_pipeline"),
    ("pipeline", "crossval", "evaluate", "evaluate.crossval"),
    ("evaluate", "crossval", "evaluate", "evaluate.crossval"),
    ("evaluate", "dummy_design", "evaluate", "evaluate.dummy_design"),
    ("evaluate", "mre", "evaluate", "evaluate.mre"),
    ("data", "save_dataset", "data", "data.save_dataset"),
    ("data", "load_dataset", "data", "data.load_dataset"),
    ("ingest", "ingest_dataset", "ingest", "ingest.ingest_dataset"),
    ("ingest", "load_responses", "ingest", "ingest.load_responses"),
    ("ingest", "apply_backfire", "ingest", "ingest.apply_backfire"),
    ("ingest", "log_transform", "ingest", "ingest.log_transform"),
    ("ingest", "filter_rows", "ingest", "ingest.filter_rows"),
)
DATASET_METHODS = (
    ("__init__", "data.Dataset.build"),
    ("subset", "data.Dataset.subset"),
    ("value", "data.Dataset.value"),
    ("codes", "data.Dataset.codes"),
    ("column", "data.Dataset.column"),
)


def _counters_for(span: str, recorder: Recorder):
    """Callbacks that read counters off public return values."""
    if span == "scaling.catreg_fit":
        return lambda fit: recorder.count("scaling.als_sweeps", fit.iterations)
    if span == "pipeline.run_pipeline":
        return lambda result: recorder.count("pipeline.rounds", len(result.rounds))
    if span == "stepwise.stepwise_fit":
        def on_trace(trace):
            recorder.count("stepwise.events", len(trace.events))
            recorder.count("stepwise.skipped", len(trace.diagnostics))
        return on_trace
    if span == "evaluate.crossval":
        return lambda ev: recorder.count(
            "evaluate.excluded_rows", sum(f.n_excluded for f in ev.folds))
    return None


def install(package, recorder: Recorder):
    """Wrap every binding in BINDINGS and DATASET_METHODS; return an undo function.

    `package` is the imported catreg package. Raises BindingError, before
    patching anything, if any expected binding is missing or holds another
    object than the function defined in its home module.
    """
    modules = {name: getattr(package, name) for name in
               ("stats", "stepwise", "scaling", "pipeline", "evaluate", "data", "ingest")}
    for module, attr, home, _ in BINDINGS:
        bound = modules[module].__dict__.get(attr)
        original = modules[home].__dict__.get(attr)
        if bound is None or original is None or bound is not original or not callable(bound):
            raise BindingError(
                f"catreg.{module}.{attr} no longer binds catreg.{home}.{attr}; "
                "update perfbench/tracing.py before trusting per-layer metrics")
    dataset_cls = modules["data"].Dataset
    for method, _ in DATASET_METHODS:
        if not callable(dataset_cls.__dict__.get(method)):
            raise BindingError(f"catreg.data.Dataset.{method} is gone")

    undo = []
    for module, attr, _, span in BINDINGS:
        mod = modules[module]
        original = mod.__dict__[attr]
        setattr(mod, attr, recorder.wrap(original, span, _counters_for(span, recorder)))
        undo.append((mod, attr, original))
    for method, span in DATASET_METHODS:
        original = dataset_cls.__dict__[method]
        setattr(dataset_cls, method, recorder.wrap(original, span))
        undo.append((dataset_cls, method, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one operation, from Recorder.summary()."""
    spans, counters = summary["spans"], summary["counters"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    ols = [f"stats.ols_fit@{layer}" for layer in ("stepwise", "scaling", "evaluate")]
    m = {}
    for name in ("stepwise.stepwise_fit", "scaling.catreg_fit",
                 "pipeline.run_pipeline", "evaluate.crossval"):
        for key in ("calls", "s", "self_s"):
            m[f"{name}.{key}"] = get(name, key)
    m["stats.ols_fit.calls"] = sum(get(n, "calls") for n in ols)
    m["stats.ols_fit.s"] = sum(get(n, "s") for n in ols)
    m["stats.ols_fit.self_s"] = sum(get(n, "self_s") for n in ols)
    for layer in ("stepwise", "scaling", "evaluate"):
        m[f"{layer}.ols_fit.calls"] = get(f"stats.ols_fit@{layer}", "calls")
    m["stepwise.ols_fit.s"] = get("stats.ols_fit@stepwise", "s")
    for name in ("stats.t_pvalue", "scaling.pava", "evaluate.dummy_design",
                 "data.column_as_quantified", *(span for _, span in DATASET_METHODS)):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    m["evaluate.mre.calls"] = get("evaluate.mre", "calls")
    for name in ("data.save_dataset", "data.load_dataset", "ingest.ingest_dataset",
                 "ingest.load_responses", "ingest.apply_backfire", "ingest.log_transform",
                 "ingest.filter_rows"):
        m[f"{name}.s"] = get(name, "s")
    for name in ("scaling.als_sweeps", "pipeline.rounds", "stepwise.events",
                 "stepwise.skipped", "evaluate.excluded_rows"):
        m[name] = counters.get(name, 0)
    attempted = m["stepwise.ols_fit.calls"]
    m["stepwise.events_per_fit"] = m["stepwise.events"] / attempted if attempted else 0.0
    return m
