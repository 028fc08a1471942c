"""Record the references that checks.py compares outputs against.

    python3 perfbench/record.py

Run from the root of a source checkout at the commit whose outputs are the
reference. Writes perfbench/reference.json: the compare_sample_k6 digest and,
for each seed in workloads.CORPUS_SEEDS, the pipeline_synth_20k selected set,
round count, converged flag, coefficients and intercept.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402

# BLAS on one thread, as in the benchmark's runs, so that a re-recording at
# the same commit reproduces the file bit for bit
os.environ.update(run.SINGLE_THREAD)

import catreg  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def digest_of(workload: str, seed: int, scratch: str) -> dict:
    work = tempfile.mkdtemp(dir=scratch)
    run.prepare(workload, seed, work)
    dataset = catreg.data.load_dataset(os.path.join(work, "dataset.json"))
    return workloads.digest(workload, workloads.operation(catreg, workload, work, dataset)())


def main() -> int:
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "_work")) as scratch:
        compare = digest_of("compare_sample_k6", 0, scratch)
        pipeline = {}
        for seed in workloads.CORPUS_SEEDS:
            d = digest_of("pipeline_synth_20k", seed, scratch)
            pipeline[str(seed)] = {key: d[key] for key in
                                   ("selected", "rounds", "converged", "coefficients", "intercept")}
            print(f"seed {seed}: {d['selected']} in {d['rounds']} rounds", file=sys.stderr)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"compare_sample_k6": compare, "pipeline_synth_20k": pipeline}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
