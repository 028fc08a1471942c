"""catreg benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`. Workloads are listed in workloads.py. The seed picks one of the 64
recorded synthetic corpora (workloads.corpus_seed); compare_sample_k6 reads
the shipped sample corpus, so its input does not depend on the seed.

Steps: generate and prepare the inputs in a scratch directory under
perfbench/_work; run the workload in its own process (see worker.py) and
time set-up (import catreg plus loading the input) there and in
SETUP_RUNS - 1 more fresh processes; check every operation's output (see
checks.py); print a record line with the details (all samples, sample
count, tail percentile, failed_ratio, host probe, span tree when traced),
then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports run_ref_units, setup_s and peak_rss_mb. run_ref_units is
the median operation time in units of a fixed reference loop timed during
the operation (worker.HostSampler): the shared host's speed drifts by up to
2x, which the operation's seconds carry and this ratio cancels. The
seconds, run_s, are in the record line with their sample count and tail
percentile. --trace 1 reports the per-layer metrics of the traced
operations, the untraced run_s, and trace_overhead_s, the traced minus the
untraced median run_s of the same process. BLAS runs on one thread in every
process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SAMPLE_CSV = os.path.join(ROOT, "data", "responses.sample.csv")
SAMPLE_GEARING = os.path.join(ROOT, "data", "gearing.sample.json")
SETUP_RUNS = 7
# a run must end within 180 s; children still running after this are killed
DEADLINE_S = 170
# 1 - 10/n: the percentile with at least ten samples beyond it
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def run_child(args: list, deadline: float) -> dict:
    """Run worker.py with `args` and return its last stdout line as JSON.

    The child is killed, and BenchError raised, if it is still running at
    `deadline` (a time.monotonic() value).
    """
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} still running after {timeout:.0f} s; killed") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(workload: str, seed: int, work: str) -> None:
    """Write the workload's input files into `work`."""
    import corpus
    import workloads
    from catreg import data, ingest

    if workload == "compare_sample_k6":
        ds, _ = ingest.ingest_dataset(SAMPLE_CSV, ingest.load_gearing(SAMPLE_GEARING))
        data.save_dataset(ds, os.path.join(work, "dataset.json"))
        return
    info = corpus.write_corpus(work, workloads.corpus_seed(seed), workloads.SYNTH_ROWS)
    with open(os.path.join(work, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    if workload in workloads.LOADS_DATASET:
        ds, _ = ingest.ingest_dataset(info["responses.csv"],
                                      ingest.load_gearing(info["gearing.json"]),
                                      ingest.load_schema(info["schema.json"]))
        data.save_dataset(ds, os.path.join(work, "dataset.json"))
        for name in ("responses.csv", "schema.json", "gearing.json"):
            os.remove(info[name])


def tail_percentile(samples: list):
    """(p, value) for the highest listed percentile with >= 10 samples beyond it."""
    n = len(samples)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p, statistics.quantiles(samples, n=1000, method="inclusive")[int(p * 10) - 1]
    return None, None


def bench(workload: str, seed: int, seconds: float, trace: int, work: str) -> tuple[dict, dict]:
    import checks

    deadline = time.monotonic() + DEADLINE_S
    prepare(workload, seed, work)
    expected = checks.expectations(workload, seed, work, checks.load_reference())
    base = ["--workload", workload, "--work", work]
    # half the set-up probes before the workload process and half after, so
    # that a slow spell of a shared host does not hit all of them
    setups = [run_child(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_RUNS // 2)]
    report = run_child(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(report["setup_s"])
    setups += [run_child(base + ["--setup-only"], deadline)["setup_s"]
               for _ in range(SETUP_RUNS - 1 - SETUP_RUNS // 2)]
    if not os.path.samefile(os.path.dirname(report["catreg_file"]), os.path.join(SRC, "catreg")):
        raise BenchError(f"imported catreg from {report['catreg_file']}, not from {SRC}")

    attempted, failed, problems = checks.score(
        workload, report["digests"], report["errors"], expected)
    samples = report["samples"]
    if not samples:
        raise BenchError(f"no operation succeeded: {report['errors'][:3]}")
    p, p_value = tail_percentile(samples)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "run_s_samples": len(samples), "run_s_median": statistics.median(samples),
        "run_s_percentile": p, "run_s_at_percentile": p_value,
        "run_s_all": samples, "run_ref_units_all": report["ref_units"],
        "setup_s_all": setups,
        "failed_ratio": failed / attempted, "errors": report["errors"][:5],
        "check_problems": problems,
        "host_probe_s": {"start": report["probe_start_s"], "end": report["probe_end_s"]},
        "ref_loop_s": report["ref_loop_s"],
    }
    if trace:
        metrics = per_layer(report, record)
    else:
        metrics = {
            "run_ref_units": {"value": statistics.median(report["ref_units"]), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def per_layer(report: dict, record: dict) -> dict:
    layers = report["layers"]
    if not layers:
        raise BenchError("no traced operation completed")
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith((".s", "_s")):
            value, unit = statistics.median(values), "s"
        else:
            value = values[-1]
            unit = "ratio" if name.endswith("_per_fit") else "count"
            if any(v != value for v in values):
                raise BenchError(f"{name} differs between traced operations: {values}")
        metrics[name] = {"value": value, "unit": unit}
    traced = statistics.median(report["traced_samples"])
    untraced = statistics.median(report["samples"])
    metrics["run_s"] = {"value": untraced, "unit": "s"}
    metrics["trace_overhead_s"] = {"value": traced - untraced, "unit": "s"}
    metrics["host.probe_start_s"] = {"value": report["probe_start_s"], "unit": "s"}
    metrics["host.probe_end_s"] = {"value": report["probe_end_s"], "unit": "s"}
    metrics["host.ref_loop_s"] = {"value": report["ref_loop_s"], "unit": "s"}
    record["traced_run_s_median"] = traced
    record["span_edges"] = report["edges"]
    return metrics


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for needed in (os.path.join(SRC, "catreg", "__init__.py"), SAMPLE_CSV, SAMPLE_GEARING):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} is missing; run from a catreg source checkout",
                  file=sys.stderr)
            return 2

    sys.path.insert(0, SRC)
    os.environ.update(SINGLE_THREAD)  # before numpy loads in this process too
    scratch = os.path.join(HERE, "_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        record, result = bench(args.workload, args.seed, args.seconds, args.trace, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
