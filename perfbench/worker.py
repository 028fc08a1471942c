"""One workload in its own process: set up, run a closed loop, report.

    python worker.py --workload NAME --work DIR --seconds S --trace 0|1
    python worker.py --workload NAME --work DIR --setup-only

The first thing timed is `import catreg` plus loading the workload's input
the way the CLI does, which is the set-up time. Then one caller runs the
operation back to back, a warm-up call and then samples, until the time is up;
HostSampler times a reference loop alongside the samples.
With --trace 1 the first half of the time runs untraced and the second half
with the tracing wrappers attached. The report is one JSON line on stdout.
Nothing here checks outputs: the orchestrator does, from the digests.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import sys
import time

MIN_SAMPLES = 2
REF_PERIOD_S = 0.05
REF_TABLE_SIZE = 300_000
REF_LOOKUPS = 1500
HOST_PROBE_TICKS = 20


def peak_rss_mb() -> float:
    """This process image's peak resident memory (VmHWM), in MiB.

    ru_maxrss is not used: on Linux a child starts from its parent's
    resident size at fork, which would hide a workload smaller than the
    orchestrator.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


class HostSampler:
    """A fixed reference loop timed every REF_PERIOD_S while operations run.

    A shared host's speed drifts by up to 2x within seconds and over minutes,
    and CPU time drifts with wall time, so it is the processor and its caches
    that slow, not the scheduler. The reference loop looks up REF_LOOKUPS
    fixed random keys in a REF_TABLE_SIZE-entry dict, a working set larger
    than a core's own caches: its time tracked the workloads' operations
    with a slope near 1 on a shared 2-core host, where a loop of arithmetic
    slowed only half as much as they did. A SIGALRM handler runs it at a
    fixed period; Python runs the handler between bytecodes, so it samples
    the host speed during the operation itself. `ticks` holds each loop's
    seconds and `spent` the handler's total seconds, which the caller
    subtracts from the operation's wall time.
    """

    def __init__(self):
        keys = [str(i) for i in range(REF_TABLE_SIZE)]
        self._table = dict.fromkeys(keys, 1)
        rng = random.Random(0)
        self._probe = [keys[rng.randrange(REF_TABLE_SIZE)] for _ in range(REF_LOOKUPS)]
        self.ticks: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        table = self._table
        t0 = time.perf_counter()
        total = 0
        for key in self._probe:
            total += table[key]
        t1 = time.perf_counter()
        self.ticks.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._tick(None, None)  # so that a call shorter than the period has a tick
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def closed_loop(op, summarize, seconds, sampler=None, min_calls=MIN_SAMPLES,
                on_start=None, on_end=None):
    """Run op back to back within `seconds`, and at least `min_calls` times.

    A call is not started when the previous one says it would end after the
    time is up. Returns (seconds of each successful call, the same in
    reference-loop units, digest counts, error strings, per-call extras from
    on_end). With a sampler, a call's seconds exclude the sampler's handler
    and its reference units divide them by the mean reference loop timed
    during the call, or by the last one timed before it when none fell
    inside; without one there are no reference units.
    """
    samples, units, digests, errors, extras = [], [], {}, [], []
    deadline = time.perf_counter() + seconds
    calls, last = 0, 0.0
    while calls < min_calls or time.perf_counter() + last < deadline:
        calls += 1
        if on_start is not None:
            on_start()
        first, spent = (len(sampler.ticks), sampler.spent) if sampler else (0, 0.0)
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        last = time.perf_counter() - t0
        if sampler:
            last -= sampler.spent - spent
            units.append(last / statistics.fmean(sampler.ticks[first:] or sampler.ticks[-1:]))
        samples.append(last)
        if on_end is not None:
            extras.append(on_end())
        key = json.dumps(summarize(out), sort_keys=True)
        del out  # the caller drops each result before asking for the next
        digests[key] = digests.get(key, 0) + 1
    return samples, units, digests, errors, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import catreg

    dataset = None
    if os.path.exists(os.path.join(args.work, "dataset.json")):
        dataset = catreg.data.load_dataset(os.path.join(args.work, "dataset.json"))
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    op = workloads.operation(catreg, args.workload, args.work, dataset)

    def summarize(out):
        return workloads.digest(args.workload, out)

    # The warm-up call is checked but not timed. The peak memory is read
    # after it and before the sampler's table exists, so it is set-up plus
    # one operation of the program's own.
    _, _, digests, errors, _ = closed_loop(op, summarize, 0, min_calls=1)
    report = {"setup_s": setup_s, "catreg_file": catreg.__file__,
              "peak_rss_mb": peak_rss_mb()}
    phase_seconds = args.seconds / 2 if args.trace else args.seconds
    with HostSampler() as sampler:
        samples, units, d, e, _ = closed_loop(op, summarize, phase_seconds, sampler)
        _merge(digests, d)
        errors += e
        report["samples"], report["ref_units"] = samples, units

        if args.trace:
            import tracing

            recorder = tracing.Recorder()
            uninstall = tracing.install(catreg, recorder)
            try:
                traced, _, d, e, layers = closed_loop(
                    op, summarize, phase_seconds, sampler, on_start=recorder.reset,
                    on_end=recorder.summary)
            finally:
                uninstall()
            _merge(digests, d)
            errors += e
            report["traced_samples"] = traced
            report["layers"] = [tracing.layer_metrics(s) for s in layers]
            report["edges"] = layers[-1]["edges"] if layers else {}
    ticks = sampler.ticks
    report["ref_loop_s"] = statistics.median(ticks)
    report["probe_start_s"] = statistics.median(ticks[:HOST_PROBE_TICKS])
    report["probe_end_s"] = statistics.median(ticks[-HOST_PROBE_TICKS:])
    report["digests"] = digests
    report["errors"] = errors
    print(json.dumps(report))
    return 0


def _merge(into: dict, more: dict) -> None:
    for key, count in more.items():
        into[key] = into.get(key, 0) + count


if __name__ == "__main__":
    sys.exit(main())
