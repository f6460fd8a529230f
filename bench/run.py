"""Benchmark of alphatail: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload from its seed ten times, then runs whole rounds until S
seconds have passed, building it three more times once a second between
two operations.  Each round is one pass over the fixed operation list,
every operation timed on its own, followed by the workload's
classify_numeric calls, timed apart.  The first round's outputs are checked
against references computed apart from the program; every later round must
reproduce them exactly.  Checks run outside the timed region.

Operation and verdict timings are the best of their rounds.  On a shared
host interference only adds time, and it comes in plateaus of one to a few
seconds in which the same code runs up to 1.8 times slower; the median of
all samples moved by 15-40% between runs of identical code, the best of the
rounds by 2-10% on cache-resident work.  Set-up time is the median of the
run's set-ups, some 80 to 100 of them: thick-tail's set-ups, back to back,
take about 4.7 ms, but now and then one takes 3 ms, so the fastest read
2.8-3.3 ms in some runs and 4.0-4.7 ms in others.  Set-ups are spread over
the whole run so that their median takes in the host's plateaus as the
rounds do.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a traced run (spans are written to
``.bench_out/``).  A summary goes to standard error.
"""

from __future__ import annotations

import os

# one thread per workload process; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import ctypes.util
import json
import math
import resource
import statistics
import sys
import time
import traceback


def keep_freed_memory() -> bool:
    """Let glibc's malloc keep freed memory instead of returning it.

    By default each array of 128 KiB or more (the threshold rises as large
    blocks are freed) gets fresh pages from the kernel and gives them back
    when freed, so every call pays a page fault per 4 KiB it touches: 480
    faults per build of ``power:lambda=1.5``, 165,000 to 246,000 per
    thick-tail round.  On a virtual machine the cost of a fault moves with
    the host's memory state; it made thick-tail's set-up 6 to 9 ms instead
    of 3 ms, and gave its median 3.1 ms in one set of ten runs of identical
    code and 6.4 ms in another.  Keeping freed blocks (up to 32 MiB, glibc's
    limit) leaves the arithmetic to be timed; a change that allocates less
    still shows as less work, but not as fewer faults.  Peak resident memory
    is unchanged.  Returns False where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_trim_threshold, 1 << 30) and mallopt(m_mmap_threshold, 32 << 20))


KEEPS_FREED_MEMORY = keep_freed_memory()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "verdict_ms": "ms",
    "cert_width_rel": "1",
    "peak_rss_mb": "MB",
}
SETUP_REPS = 10          # set-ups before the rounds
SETUP_BATCH = 3          # set-ups once a second, between two operations
SETUP_EVERY_S = 1.0
# relative certificate widths below this count as this value; it lies above
# every check's float-rounding allowance (at most about 1e-8), so an honest
# rounding term in trunc_error leaves the metric where it is
CERT_FLOOR = 1e-7
FAILED = object()


class Failures:
    def __init__(self):
        self.count = 0
        self.first = None     # traceback of the first failure

    def call(self, fn):
        try:
            return fn()
        except Exception:  # one failing operation must not end the run
            self.count += 1
            if self.first is None:
                self.first = traceback.format_exc()
            return FAILED


def cert_width_rel(certs) -> float:
    """Geometric mean of trunc_error / (value + trunc_error), floored."""
    logs = []
    for iv in certs:
        upper = iv.value + iv.trunc_error
        width = iv.trunc_error / upper if iv.trunc_error > 0.0 else 0.0
        logs.append(math.log(max(width, CERT_FLOOR)))
    return math.exp(sum(logs) / len(logs)) if logs else 1.0


def run(name: str, seed: int, seconds: float, tracer) -> dict:
    setup_times: list[float] = []

    def timed_setup():
        if tracer:
            tracer.begin_setup()
        t0 = time.perf_counter()
        plan = workloads.WORKLOADS[name](seed)
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.end_setup()
        return plan

    plan = timed_setup()
    for _ in range(SETUP_REPS - 1):
        timed_setup()

    best_op = [math.inf] * len(plan.ops)            # fastest round of each operation
    best_verdict = [math.inf] * len(plan.verdicts)
    failures = Failures()
    first = None
    mismatched = 0
    rounds = 0
    deadline = time.perf_counter() + seconds
    next_setup = time.perf_counter() + SETUP_EVERY_S

    def setups_if_due():
        nonlocal next_setup
        if time.perf_counter() >= next_setup:
            for _ in range(SETUP_BATCH):
                timed_setup()
            next_setup = time.perf_counter() + SETUP_EVERY_S

    while rounds == 0 or time.perf_counter() < deadline:
        outs = []
        for i, op in enumerate(plan.ops):
            t0 = time.perf_counter()
            outs.append(failures.call(op))
            best_op[i] = min(best_op[i], time.perf_counter() - t0)
            setups_if_due()
        vouts = []
        for i, verdict in enumerate(plan.verdicts):
            t0 = time.perf_counter()
            vouts.append(failures.call(verdict))
            best_verdict[i] = min(best_verdict[i], time.perf_counter() - t0)
            setups_if_due()
        if tracer:
            tracer.end_pass()
        if first is None:
            first = (outs, vouts)
        elif (outs, vouts) != first:
            mismatched += 1
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    def ok(outputs):
        return [None if o is FAILED else o for o in outputs]

    errors, certs = plan.check(ok(first[0]), ok(first[1]))
    if mismatched:
        errors.append(f"{mismatched} of {rounds - 1} later rounds differ from the first")
    if failures.count:
        errors.append(f"{failures.count} operations raised, so their outputs went unchecked")
    for msg in ([failures.first] if failures.first else []) + errors:
        print(msg, file=sys.stderr)

    n_ops, n_verdicts = len(plan.ops), len(plan.verdicts)
    summary = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n_ops / math.fsum(best_op),
        "latency_p50_ms": 1e3 * statistics.median(best_op),
        "latency_p90_ms": 1e3 * statistics.quantiles(best_op, n=10)[-1],
        "verdict_ms": 1e3 * statistics.median(best_verdict),
        "cert_width_rel": cert_width_rel(certs),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{name} seed={seed}: {rounds} rounds of {n_ops} operations and {n_verdicts} "
          f"verdicts, {len(setup_times)} set-ups" + (" (traced)" if tracer else "")
          + ("" if KEEPS_FREED_MEMORY else ", malloc returns freed memory"),
          file=sys.stderr)
    print("  " + ", ".join(f"{k}={v:.6g}" for k, v in summary.items()), file=sys.stderr)
    metrics, units = (tracer.metrics(), spans.UNITS) if tracer else (summary, UNITS)
    return {
        "correct": not errors,
        "attempted": rounds * (n_ops + n_verdicts),
        "failed": failures.count,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    result = run(args.workload, args.seed, args.seconds, tracer)
    if tracer:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
