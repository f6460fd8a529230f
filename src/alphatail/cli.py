"""Batch command-line front end.

Subcommands map one-to-one onto library calls and emit CSV (default for
tabular results) or JSON with identical field names.  Exit codes: 0 success,
2 validation error, 3 computation error; diagnostics go to stderr as one
line.  Output never contains NaN; a non-finite intermediate aborts with
exit 3.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Optional

from . import __version__
from .classify import (
    Thresholds,
    classify_analytic,
    classify_numeric,
    diffusion_transient_probes,
)
from .dominance import DEFAULT_DEPTH, DEFAULT_PROBE_LIMIT, dominates
from .errors import AlphatailError, InvalidParams, SpecParseError
from .estimate import estimator_report, sample
from .tail_index import DEFAULT_EPS, oscillation_t, tn
from .zoo import FamilyKind, catalog, format_spec, make_distribution, parse_spec

ENV_OUT_DIR = "ALPHATAIL_OUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTE = 3


def _parse_schedule(text: str) -> list[int]:
    """Geometric schedule 'start:stop:xFACTOR', e.g. 16:1048576:x4."""
    parts = text.split(":")
    if len(parts) != 3 or not parts[2].lower().startswith("x"):
        raise SpecParseError(f"schedule must be start:stop:xFACTOR, got {text!r}")
    start, stop = int(parts[0]), int(parts[1])
    factor = float(parts[2][1:])
    if start < 1 or stop < start or factor <= 1.0:
        raise SpecParseError("schedule needs start >= 1, stop >= start, factor > 1")
    out, n = [], start
    while n <= stop:
        out.append(int(n))
        nxt = n * factor
        n = int(nxt) if nxt == int(nxt) else math.floor(nxt)
        if out and n <= out[-1]:
            n = out[-1] + 1
    return out


def _parse_vrange(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _resolve_out(path: Optional[str]):
    if path is None:
        return sys.stdout, False
    base = os.environ.get(ENV_OUT_DIR)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return open(path, "w", encoding="utf-8", newline=""), True


def _check_finite(records: list[dict]) -> None:
    for rec in records:
        for key, val in rec.items():
            if isinstance(val, float) and not math.isfinite(val):
                raise AlphatailError(f"non-finite value for {key!r}")


def _emit(records: list[dict], header: list[str], fmt: str, out_path: Optional[str],
          extra: Optional[dict] = None) -> None:
    _check_finite(records)
    stream, owned = _resolve_out(out_path)
    try:
        if fmt == "json":
            doc: dict = {"records": records}
            if extra:
                doc.update(extra)
            json.dump(doc, stream, indent=2, default=str)
            stream.write("\n")
        else:
            w = csv.writer(stream, lineterminator="\n")
            w.writerow(header)
            for rec in records:
                w.writerow([rec[h] for h in header])
    finally:
        if owned:
            stream.close()


def _fmt_float(x: float) -> str:
    return repr(float(x))


# -- subcommand handlers -----------------------------------------------------

def _cmd_tn(args) -> int:
    dist = make_distribution(parse_spec(args.dist))
    sched = _parse_schedule(args.schedule)
    records = []
    for n in sched:
        iv = tn(dist, n, args.eps)
        records.append({"n": n, "t_n": iv.value, "trunc_error": iv.trunc_error,
                        "terms_used": iv.terms_used})
    # the CSV keeps its three columns; JSON records also carry terms_used
    _emit(records, ["n", "t_n", "trunc_error"], args.format or "csv", args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    dist = make_distribution(parse_spec(args.dist))
    if args.mode == "analytic":
        verdict = classify_analytic(dist)
    else:
        sched = _parse_schedule(args.schedule)
        probes = None
        if dist.kind is FamilyKind.DIFFUSION:
            probes = diffusion_transient_probes(dist)
        verdict = classify_numeric(dist, sched, Thresholds(), transient_probes=probes,
                                   eps=args.eps)
    doc = {
        "domain": verdict.domain.value,
        "method": verdict.method.value,
        "citation": verdict.citation,
        "evidence": [[n, v] for n, v in verdict.evidence],
        "diagnostics": verdict.diagnostics,
    }
    stream, owned = _resolve_out(args.out)
    try:
        json.dump(doc, stream, indent=2, default=str)
        stream.write("\n")
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def _cmd_oscillate(args) -> int:
    lo, hi, points = args.cmin, args.cmax, args.grid
    if not (0.0 < lo < hi) or points < 2:
        raise InvalidParams("need 0 < cmin < cmax and grid >= 2")
    records = []
    for i in range(points):
        c = lo + (hi - lo) * i / (points - 1)
        records.append({"c": c, "t_of_c": oscillation_t(c)})
    _emit(records, ["c", "t_of_c"], args.format or "csv", args.out)
    return EXIT_OK


def _cmd_dominates(args) -> int:
    q = make_distribution(parse_spec(args.q))
    p = make_distribution(parse_spec(args.p))
    report = dominates(q, p, depth=args.depth, probe_limit=args.probe_limit,
                       growth_threshold=args.growth_threshold)
    records = [{"k": k + 1, "count_in_interval": c} for k, c in enumerate(report.counts)]
    extra = {
        "verdict": report.verdict.value,
        "max_count": report.max_count,
        "complete": report.complete,
    }
    _emit(records, ["k", "count_in_interval"], args.format or "csv", args.out, extra)
    print(f"verdict: {report.verdict.value} (max_count={report.max_count})", file=sys.stderr)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    dist = make_distribution(parse_spec(args.dist))
    freq = sample(dist, args.n, args.seed)
    vs = _parse_vrange(args.v)
    rep = estimator_report(freq, vs)
    records = [
        {"v": v, "Z_1v": z, "t_hat": t}
        for v, z, t in zip(rep.v_values, rep.z1v, rep.t_hat)
    ]
    _emit(records, ["v", "Z_1v", "t_hat"], args.format or "csv", args.out)
    return EXIT_OK


def _cmd_zoo(args) -> int:
    stream, owned = _resolve_out(args.out)
    try:
        if (args.format or "csv") == "json":
            json.dump({"records": [{"spec": format_spec(s)} for s in catalog()]},
                      stream, indent=2)
            stream.write("\n")
        else:
            for spec in catalog():
                stream.write(format_spec(spec) + "\n")
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def _cmd_domain_t(args) -> int:
    dist = make_distribution(parse_spec(f"diffusion:stages={args.stages}"))
    records = []
    for run in dist.runs:
        t_n = tn(dist, run.n_probe)
        t_m = tn(dist, run.m_probe)
        records.append({
            "i": run.stage,
            "d_i": run.d,
            "run_exp": run.run_exponent,
            "n_i": run.n_probe,
            "t_n_i": t_n.value,
            "m_i": run.m_probe,
            "t_m_i": t_m.value,
        })
    _emit(records, ["i", "d_i", "run_exp", "n_i", "t_n_i", "m_i", "t_m_i"],
          args.format or "csv", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="alphatail",
        description="tail indices, domain classification, dominance checks and "
                    "unbiased estimation for distributions on countable alphabets",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt_default=None):
        p.add_argument("--format", choices=["csv", "json"], default=fmt_default)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("tn", help="tail index along a geometric schedule")
    p.add_argument("--dist", required=True)
    p.add_argument("--schedule", default="16:1048576:x4")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    common(p)
    p.set_defaults(run=_cmd_tn)

    p = sub.add_parser("classify", help="domain verdict (analytic or numeric)")
    p.add_argument("--dist", required=True)
    p.add_argument("--mode", choices=["analytic", "numeric"], default="analytic")
    p.add_argument("--schedule", default="16:4194304:x4")
    p.add_argument("--eps", type=float, default=1e-6)
    common(p, fmt_default="json")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("oscillate", help="limiting oscillation profile t(c)")
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--cmin", type=float, default=1.0)
    p.add_argument("--cmax", type=float, default=math.e)
    common(p)
    p.set_defaults(run=_cmd_oscillate)

    p = sub.add_parser("dominates", help="interval-count dominance report")
    p.add_argument("--q", required=True, help="dominating distribution spec")
    p.add_argument("--p", required=True, help="dominated-candidate spec")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--probe-limit", type=int, default=DEFAULT_PROBE_LIMIT)
    p.add_argument("--growth-threshold", type=int, default=8)
    common(p)
    p.set_defaults(run=_cmd_dominates)

    p = sub.add_parser("estimate", help="Z_{1,v} and t_hat from one seeded sample")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", default="1:1", help="single v or inclusive range lo:hi")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(run=_cmd_estimate)

    p = sub.add_parser("zoo", help="list the catalog family specs")
    common(p)
    p.set_defaults(run=_cmd_zoo)

    p = sub.add_parser("domain-t", help="diffusion run table with probe indices")
    p.add_argument("--stages", type=int, default=8)
    common(p)
    p.set_defaults(run=_cmd_domain_t)
    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (InvalidParams, SpecParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AlphatailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
