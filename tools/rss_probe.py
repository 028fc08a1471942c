"""Compare peak resident memory and page faults between two source trees.

    python tools/rss_probe.py PARENT_TREE CHANGE_TREE [--runs R] [--ops N] [--seed S]
        [--workload NAME]...

Each tree is a checkout of this repository; its `src` is what runs. The
inputs of every workload of `perfbench/workloads.py` are written once, by
`perfbench/run.py`'s `prepare` running on the parent tree, for the benchmark's
--seed S (seed 11 is the seed-11 corpus, 19,781 rows); given --workload, only
the workloads it names run. Then each workload runs R times in a fresh process
per tree, the trees alternating which goes first, at one BLAS thread. The
perfbench code is imported from the `perfbench` directory next to this file,
the same for both trees, and is not changed.

A process reports its peak resident memory (VmHWM of /proc/self/status, as
perfbench's `peak_rss_mb` reads it) after `import catreg`, after
`load_dataset` (for the workloads that load a dataset file) and after one
operation; then, over N more operations, the median operation time and the
minor page faults per operation (`resource.getrusage`). The table gives each
figure's median over the R processes, with their range.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
STAGES = ("import MiB", "load MiB", "one operation MiB", "operation ms", "minor faults / operation")


def run_workload(workload: str, work: str, ops: int) -> dict:
    """What one fresh process measures of the workload on the inputs in `work`."""
    sys.path.insert(0, PERFBENCH)
    import worker
    import workloads

    import catreg

    out = {"import MiB": worker.peak_rss_mb()}
    dataset = None
    path = os.path.join(work, "dataset.json")
    if os.path.exists(path):
        dataset = catreg.data.load_dataset(path)
        out["load MiB"] = worker.peak_rss_mb()
    op = workloads.operation(catreg, workload, work, dataset)
    workloads.digest(workload, op())
    out["one operation MiB"] = worker.peak_rss_mb()
    times, faults = [], resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(ops):
        start = time.perf_counter()
        result = op()
        times.append(time.perf_counter() - start)
        del result
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    out["operation ms"] = 1e3 * statistics.median(times)
    out["minor faults / operation"] = faults / ops
    return out


def _env(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(os.path.abspath(tree), "src"),
                                                        PERFBENCH]))
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    return env


def _child(tree: str, args: list) -> str:
    proc = subprocess.run([sys.executable, *args], env=_env(tree), capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{tree}: {' '.join(args)} exited {proc.returncode}\n{proc.stderr[-4000:]}")
    return proc.stdout


def _cell(values: list, digits: int) -> str:
    if not values:
        return "-"
    low, mid, high = min(values), statistics.median(values), max(values)
    return f"{mid:.{digits}f} ({low:.{digits}f}-{high:.{digits}f})"


def main(argv=None):
    sys.path.insert(0, PERFBENCH)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--runs", type=int, default=3, help="processes per tree and workload")
    parser.add_argument("--ops", type=int, default=20, help="timed operations per process")
    parser.add_argument("--seed", type=int, default=11, help="perfbench's --seed")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="run only this workload; repeatable (default: every workload)")
    parser.add_argument("--worker", nargs=3, metavar=("WORKLOAD", "WORK", "OPS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        workload, work, ops = args.worker
        print(json.dumps(run_workload(workload, work, int(ops))))
        return
    if not (args.parent and args.change):
        parser.error("give the parent and the change source trees")
    if args.runs < 1 or args.ops < 1:
        parser.error("--runs and --ops must be at least 1")
    chosen = [w for w in workloads.WORKLOADS if w in (args.workload or workloads.WORKLOADS)]
    trees = (args.parent, args.change)
    table = {}  # (workload, stage, tree index) -> values
    with tempfile.TemporaryDirectory(prefix="rss_probe-") as scratch:
        for workload in chosen:
            work = os.path.join(scratch, workload)
            os.makedirs(work)
            _child(args.parent, ["-c", "import sys, run; run.prepare(sys.argv[1], int(sys.argv[2]), "
                                 "sys.argv[3])", workload, str(args.seed), work])
            for run in range(args.runs):
                for side in ((0, 1) if run % 2 == 0 else (1, 0)):
                    report = json.loads(_child(trees[side], [
                        os.path.abspath(__file__), "--worker", workload, work, str(args.ops)]))
                    for stage, value in report.items():
                        table.setdefault((workload, stage, side), []).append(value)
    print(f"seed {args.seed}, {args.runs} processes per tree and workload, {args.ops} operations "
          f"each; median (range); {args.parent} -> {args.change}")
    print("| workload | figure | parent | change |")
    print("|---|---|---|---|")
    for workload in chosen:
        for stage in STAGES:
            digits = 1 if stage.startswith(("operation", "minor")) else 2
            cells = [_cell(table.get((workload, stage, side), []), digits) for side in (0, 1)]
            print(f"| `{workload}` | {stage} | {cells[0]} | {cells[1]} |")


if __name__ == "__main__":
    main()
