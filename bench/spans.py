"""Per-layer tracing from the benchmark's own files.

``Tracer.install()`` replaces two sets of alphatail functions with wrappers
that record one span per call (name, start, end, parent):

* the public functions the workloads call, including the names ``classify``
  imports from the other modules;
* the public ``Distribution`` methods the layers call one another through.

A span's self time is its duration minus that of its child spans.  Counts
and times are summed per pass (one round of the operation list and its
verdicts) and per set-up; the per-layer metrics are medians over passes.
Spans of the set-ups before the first pass and of the first pass are kept
in memory and written out when the run ends; later passes and set-ups keep
only their sums, so memory stays flat.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter

from alphatail import classify, dominance, estimate, tail_index, zoo

# (module, attribute, span name)
FUNCTIONS = [
    (zoo, "parse_spec", "zoo.parse_spec"),
    (zoo, "make_distribution", "zoo.make_distribution"),
    (tail_index, "tn", "tail_index.tn"),
    (tail_index, "zeta1", "tail_index.zeta1"),
    (classify, "tn", "tail_index.tn"),
    (classify, "dominates", "dominance.dominates"),
    (classify, "classify_numeric", "classify.classify_numeric"),
    (dominance, "dominates", "dominance.dominates"),
    (estimate, "sample", "estimate.sample"),
    (estimate, "estimator_report", "estimate.estimator_report"),
]
METHODS = ["log_prob_block", "log_prob", "tail_mass_bound", "levels"]
BUILD_SPANS = ("zoo.parse_spec", "zoo.make_distribution")

# the per-layer metrics of a traced run and their units
UNITS = {
    "zoo.build_ms": "ms",
    "zoo.log_prob_block_ms": "ms",
    "zoo.log_prob_values": "count",
    "zoo.tail_mass_bound_calls": "count",
    "zoo.tail_mass_bound_ms": "ms",
    "zoo.log_prob_calls": "count",
    "zoo.levels_calls": "count",
    "zoo.levels_items": "count",
    "tail_index.tn_calls": "count",
    "tail_index.tn_self_ms": "ms",
    "tail_index.terms_used": "count",
    "tail_index.terms_per_ms": "1/ms",
    "tail_index.eps_met_frac": "1",
    "classify.self_ms": "ms",
    "classify.tn_calls_per_verdict": "count",
    "dominance.self_ms": "ms",
    "dominance.p_values_scanned": "count",
    "estimate.sample_self_ms": "ms",
    "estimate.cdf_values": "count",
    "estimate.cdf_per_max_letter": "ratio",
    "estimate.report_ms": "ms",
    "estimate.z1v_terms": "count",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tracer:
    def __init__(self):
        self.stack: list[list] = []      # open spans: [id, name, child seconds]
        self.spans: list[tuple] = []     # (id, name, start, end, parent id)
        self.keep_spans = True
        self.counts: Counter = Counter()
        self.setups: list[Counter] = []
        self.pass_counts: Counter = Counter()   # the pass a set-up interrupts
        self.passes: list[Counter] = []
        self.next_id = 0
        self.saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in FUNCTIONS:
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        for attr in METHODS:
            fn = getattr(zoo.Distribution, attr)
            self.saved.append((zoo.Distribution, attr, fn))
            setattr(zoo.Distribution, attr, self._wrap("zoo." + attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else None
            frame = [self.next_id, name, 0.0]
            self.next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            dur = end - start
            if parent is not None:
                parent[2] += dur
            if self.keep_spans:
                self.spans.append((frame[0], name, start, end,
                                   parent[0] if parent is not None else None))
            self._count(name, parent[1] if parent is not None else None,
                        dur, dur - frame[2], args, kwargs, out)
            return out

        return traced

    def _count(self, name, parent, dur, self_s, args, kwargs, out) -> None:
        c = self.counts
        c[name + ".calls"] += 1
        c[name + ".self_s"] += self_s
        c[name + ".total_s"] += dur
        if name in BUILD_SPANS and parent is None:
            c["build_s"] += dur
        elif name == "zoo.log_prob_block":
            c["log_prob_values"] += len(out)
            if parent == "dominance.dominates":
                c["dominance_values"] += len(out)
            elif parent == "estimate.sample":
                c["cdf_values"] += len(out)
        elif name == "zoo.levels":
            c["levels_items"] += len(out)
        elif name == "tail_index.tn":
            eps = args[2] if len(args) > 2 else kwargs.get("eps", tail_index.DEFAULT_EPS)
            c["terms_used"] += int(out.terms_used)
            c["eps_met"] += int(out.trunc_error <= eps)
            if parent == "classify.classify_numeric":
                c["verdict_tn_calls"] += 1
        elif name == "estimate.sample":
            c["max_letter"] += max(out.counts)
        elif name == "estimate.estimator_report":
            c["z1v_terms"] += len(out.v_values) * len(args[0].counts)

    # -- per-pass sums ---------------------------------------------------------

    def begin_setup(self) -> None:
        """Count a set-up apart; it may fall between two operations of a pass."""
        self.pass_counts, self.counts = self.counts, Counter()

    def end_setup(self) -> None:
        self.setups.append(self.counts)
        self.counts = self.pass_counts

    def end_pass(self) -> None:
        self.passes.append(self.counts)
        self.counts = Counter()
        self.keep_spans = False

    @staticmethod
    def pass_metrics(c: Counter) -> dict:
        ms = 1e3
        return {
            "zoo.log_prob_block_ms": ms * c["zoo.log_prob_block.self_s"],
            "zoo.log_prob_values": c["log_prob_values"],
            "zoo.tail_mass_bound_calls": c["zoo.tail_mass_bound.calls"],
            "zoo.tail_mass_bound_ms": ms * c["zoo.tail_mass_bound.self_s"],
            "zoo.log_prob_calls": c["zoo.log_prob.calls"],
            "zoo.levels_calls": c["zoo.levels.calls"],
            "zoo.levels_items": c["levels_items"],
            "tail_index.tn_calls": c["tail_index.tn.calls"],
            "tail_index.tn_self_ms": ms * (c["tail_index.tn.self_s"] + c["tail_index.zeta1.self_s"]),
            "tail_index.terms_used": c["terms_used"],
            "tail_index.terms_per_ms": _ratio(c["terms_used"], ms * c["tail_index.tn.total_s"]),
            "tail_index.eps_met_frac": _ratio(c["eps_met"], c["tail_index.tn.calls"]),
            "classify.self_ms": ms * c["classify.classify_numeric.self_s"],
            "classify.tn_calls_per_verdict": _ratio(c["verdict_tn_calls"],
                                                    c["classify.classify_numeric.calls"]),
            "dominance.self_ms": ms * c["dominance.dominates.self_s"],
            "dominance.p_values_scanned": c["dominance_values"],
            "estimate.sample_self_ms": ms * c["estimate.sample.self_s"],
            "estimate.cdf_values": c["cdf_values"],
            "estimate.cdf_per_max_letter": _ratio(c["cdf_values"], c["max_letter"]),
            "estimate.report_ms": ms * c["estimate.estimator_report.total_s"],
            "estimate.z1v_terms": c["z1v_terms"],
        }

    def metrics(self) -> dict:
        """Per-layer metrics: medians over passes, build time over set-ups."""
        per_pass = [self.pass_metrics(c) for c in self.passes]
        out = {"zoo.build_ms": 1e3 * statistics.median(c["build_s"] for c in self.setups)}
        for name in per_pass[0]:
            out[name] = statistics.median(p[name] for p in per_pass)
        return out

    def write(self, path: str) -> None:
        doc = {
            "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                      for i, n, s, e, p in self.spans],
            "passes": [dict(c) for c in self.passes],
            "setups": [dict(c) for c in self.setups],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
