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
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .classify import (
    MAX_SCHEDULE_POINTS,
    Thresholds,
    classify_analytic,
    classify_numeric,
    diffusion_transient_probes,
)
from .dominance import DEFAULT_DEPTH, DEFAULT_PROBE_LIMIT, dominates
from .errors import AlphatailError, InvalidParams, InvalidV, SpecParseError
from .estimate import estimator_report, sample
from .tail_index import DEFAULT_EPS, evaluate_series, oscillation_t
from .zoo import FamilyKind, catalog, format_spec, make_distribution, parse_spec

ENV_OUT_DIR = "ALPHATAIL_OUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTE = 3


def _parse_schedule(text: str) -> list[int]:
    """Geometric schedule 'start:stop:xFACTOR', e.g. 16:1048576:x4, in exact
    integers: each n is floor(previous n * FACTOR), at least previous n + 1.
    A schedule of more than MAX_SCHEDULE_POINTS points is refused as soon as
    it reaches one more."""
    parts = text.split(":")
    if len(parts) != 3 or not parts[2].lower().startswith("x"):
        raise SpecParseError(f"schedule must be start:stop:xFACTOR, got {text!r}")
    try:
        start, stop, factor = int(parts[0]), int(parts[1]), Fraction(parts[2][1:])
    except ValueError as exc:
        raise SpecParseError(f"schedule must be start:stop:xFACTOR, got {text!r}") from exc
    if start < 1 or stop < start or factor <= 1:
        raise SpecParseError("schedule needs start >= 1, stop >= start, factor > 1")
    num, den = factor.as_integer_ratio()
    out, n = [], start
    while n <= stop:
        if len(out) == MAX_SCHEDULE_POINTS:
            raise SpecParseError(f"schedule {text!r} has more than {MAX_SCHEDULE_POINTS} points")
        out.append(n)
        n = max(n * num // den, n + 1)
    return out


def _parse_vrange(text: str, n: int) -> range:
    """Estimator orders from 'v' or the inclusive range 'lo:hi', checked to
    be nonempty and inside [1, n-1] before any order is built."""
    lo, sep, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise InvalidParams(f"v must be an integer or a range lo:hi, got {text!r}") from None
    if lo > hi:
        raise InvalidParams(f"v range {text!r} is empty")
    if lo < 1 or hi > n - 1:
        raise InvalidV(f"v must lie in [1, n-1], got {text!r} with n={n}")
    return range(lo, hi + 1)


def _exact_text(n: int) -> str:
    """An int too long for Python to print in decimal, written exactly:
    2^e, 2^e-1 (the forms of the diffusion probe indices) or hex."""
    e = n.bit_length()
    if n == 1 << (e - 1):
        return f"2^{e - 1}"
    if n == (1 << e) - 1:
        return f"2^{e}-1"
    return hex(n)


def _printable(value, key=None):
    """``value`` with every int that Python cannot print in decimal written
    as ``_exact_text``; refuses a NaN or infinite float anywhere in nested
    dicts and lists."""
    if isinstance(value, float) and not math.isfinite(value):
        raise AlphatailError(f"non-finite value for {key!r}")
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            return _exact_text(value)
    if isinstance(value, dict):
        return {k: _printable(v, k) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_printable(v, key) for v in value]
    return value


def _emit(doc: dict, fmt: str, out_path: Optional[str], header: Sequence[str] = ()) -> None:
    """Write one result, the only output path of every subcommand: ``doc``
    as JSON, or its records as CSV under a ``header`` row.  Records without
    a header (``zoo``) are written one value per line, unquoted."""
    doc = _printable(doc)
    if fmt == "json":
        text = json.dumps(doc, indent=2, default=str) + "\n"
    elif header:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows([rec[h] for h in header] for rec in doc["records"])
        text = buf.getvalue()
    else:
        text = "".join(f"{v}\n" for rec in doc["records"] for v in rec.values())
    if out_path is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(ENV_OUT_DIR)
    if base and not os.path.isabs(out_path):
        out_path = os.path.join(base, out_path)
    with open(out_path, "w", encoding="utf-8", newline="") as stream:
        stream.write(text)


# -- subcommand handlers -----------------------------------------------------

def _cmd_tn(args) -> None:
    dist = make_distribution(parse_spec(args.dist))
    records = [{"n": iv.n, "t_n": iv.value, "trunc_error": iv.trunc_error, "terms_used": iv.terms_used}
               for iv in evaluate_series(dist, _parse_schedule(args.schedule), args.eps)]
    # the CSV keeps its three columns; JSON records also carry terms_used
    _emit({"records": records}, args.format or "csv", args.out, ["n", "t_n", "trunc_error"])


def _cmd_classify(args) -> None:
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
    _emit(doc, "json", args.out)


def _cmd_oscillate(args) -> None:
    lo, hi, points = args.cmin, args.cmax, args.grid
    if not (0.0 < lo < hi) or not 2 <= points <= MAX_SCHEDULE_POINTS:
        raise InvalidParams(f"need 0 < cmin < cmax and 2 <= grid <= {MAX_SCHEDULE_POINTS}")
    records = []
    for i in range(points):
        c = lo + (hi - lo) * i / (points - 1)
        records.append({"c": c, "t_of_c": oscillation_t(c)})
    _emit({"records": records}, args.format or "csv", args.out, ["c", "t_of_c"])


def _cmd_dominates(args) -> None:
    q = make_distribution(parse_spec(args.q))
    p = make_distribution(parse_spec(args.p))
    report = dominates(q, p, depth=args.depth, probe_limit=args.probe_limit,
                       growth_threshold=args.growth_threshold)
    records = [{"k": k + 1, "count_in_interval": c} for k, c in enumerate(report.counts)]
    doc = {
        "records": records,
        "verdict": report.verdict.value,
        "max_count": report.max_count,
        "complete": report.complete,
    }
    _emit(doc, args.format or "csv", args.out, ["k", "count_in_interval"])
    print(f"verdict: {report.verdict.value} (max_count={report.max_count})", file=sys.stderr)


def _cmd_estimate(args) -> None:
    dist = make_distribution(parse_spec(args.dist))
    vs = _parse_vrange(args.v, args.n)
    rep = estimator_report(sample(dist, args.n, args.seed), vs)
    records = [{"v": v, "Z_1v": z, "t_hat": t}
               for v, z, t in zip(rep.v_values, rep.z1v, rep.t_hat)]
    _emit({"records": records}, args.format or "csv", args.out, ["v", "Z_1v", "t_hat"])


def _cmd_zoo(args) -> None:
    records = [{"spec": format_spec(s)} for s in catalog()]
    _emit({"records": records}, args.format or "csv", args.out)


def _cmd_domain_t(args) -> None:
    text = "diffusion:" if args.stages is None else f"diffusion:stages={args.stages}"
    dist = make_distribution(parse_spec(text))
    ns = sorted({n for run in dist.runs for n in (run.n_probe, run.m_probe)})
    t = dict(zip(ns, (iv.value for iv in evaluate_series(dist, ns))))
    records = [{
        "i": run.stage,
        "d_i": run.d,
        "run_exp": run.run_exponent,
        "n_i": run.n_probe,
        "t_n_i": t[run.n_probe],
        "m_i": run.m_probe,
        "t_m_i": t[run.m_probe],
    } for run in dist.runs]
    _emit({"records": records}, args.format or "csv", args.out,
          ["i", "d_i", "run_exp", "n_i", "t_n_i", "m_i", "t_m_i"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="alphatail",
        description="tail indices, domain classification, dominance checks and "
                    "unbiased estimation for distributions on countable alphabets",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, formats=("csv", "json")):
        p.add_argument("--format", choices=formats)
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
    common(p, formats=["json"])
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
    p.add_argument("--stages", type=int, help="diffusion stages (default: the family's)")
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
        args.run(args)
        return EXIT_OK
    except (InvalidParams, SpecParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AlphatailError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
