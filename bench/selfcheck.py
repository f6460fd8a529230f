"""Run every workload of BENCHMARK.json and check what it prints.

    python3 bench/selfcheck.py [--seconds 1]

Each workload runs untraced and then traced with seed 1, each run in its
own process, one after another.  The check passes when every run exits 0
and its last line of output is a JSON object with exactly ``correct``
(true), ``attempted`` (at least 1), ``failed`` (0) and ``metrics``, where
the metrics are every end-to-end metric of BENCHMARK.json (untraced) or every
per-layer metric (traced), each a finite number with the listed unit.
With the default one second, a run makes one or a few rounds; the whole
check takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def problems_in(doc, spec: list) -> list[str]:
    if not isinstance(doc, dict) or set(doc) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys are {sorted(doc) if isinstance(doc, dict) else type(doc)}"]
    out = []
    if doc["correct"] is not True:
        out.append("correct is not true")
    if not isinstance(doc["attempted"], int) or doc["attempted"] < 1:
        out.append(f"attempted = {doc['attempted']!r}")
    if doc["failed"] != 0 or isinstance(doc["failed"], bool):
        out.append(f"failed = {doc['failed']!r}")
    metrics = doc["metrics"]
    names = [m["name"] for m in spec]
    if sorted(metrics) != sorted(names):
        out.append(f"metrics {sorted(metrics)} differ from {sorted(names)}")
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            out.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            out.append(f"{m['name']}: value {value!r}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run every workload briefly and check its output")
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures = 0
    for workload in bench["workloads"]:
        for traced, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = bench["command"] + [
                "--workload", workload["name"], "--seed", "1",
                "--seconds", str(args.seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                doc = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                doc = None
            problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
            problems += problems_in(doc, spec) if doc is not None else ["no JSON result line"]
            print(f"{workload['name']} trace={traced}: "
                  + (f"attempted={doc['attempted']} failed={doc['failed']} correct={doc['correct']}"
                     if isinstance(doc, dict) and "attempted" in doc else "no result"))
            if isinstance(doc, dict):
                for name, m in doc.get("metrics", {}).items():
                    print(f"  {name:32s} {m.get('value'):>14.6g} {m.get('unit')}")
            for p in problems:
                print(f"  PROBLEM: {p}")
            if problems:
                failures += 1
                sys.stdout.write(proc.stderr)
    print("self-check " + ("passed" if not failures else f"failed for {failures} runs"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
