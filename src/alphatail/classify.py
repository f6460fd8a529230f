"""Assigning distributions to the four limit-behavior domains of t_n.

Domain 0: t_n -> 0 (exactly the finite-support distributions, at geometric
rate).  Domain 1: t_n bounded with positive limsup (geometric-type thin
tails).  Domain 2: t_n -> infinity (power and slower tails).  Transient:
none of the above, witnessed by one divergent and one bounded subsequence.

``classify_analytic`` maps catalogued families through the structural
results; ``classify_numeric`` semi-decides from a t_n trajectory using
documented thresholds.  The limits themselves are not finitely decidable, so
the numeric verdict records its thresholds and returns Inconclusive rather
than guess.  Verdict logic only leans on the sound side of each certified
evaluation: growth tests use lower bounds, smallness and band tests use
upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .dominance import DominanceVerdict, dominates
from .errors import FiniteSupport, InvalidParams, ScheduleTooShort, positive_integer
from .tail_index import IndexValue, evaluate_series, tn
from .zoo import Distribution, FamilyKind

_E_INV = math.exp(-1.0)

# the most n one call evaluates along an index range or a schedule:
# subsequence_probe's range, and the CLI's schedules and oscillate grid
MAX_SCHEDULE_POINTS = 10_000

CITE_FINITE = "finite-support equivalence (vanishing index iff finite alphabet)"
CITE_POWER = "power-tail divergence bound"
CITE_THIN = "thin-tail dominance inheritance (geometric-type families)"
CITE_TRANSIENT = "diffusion-run construction (divergent and bounded subsequences)"


class Domain(Enum):
    DOMAIN0 = "Domain0"
    DOMAIN1 = "Domain1"
    DOMAIN2 = "Domain2"
    TRANSIENT = "Transient"
    INCONCLUSIVE = "Inconclusive"


class Method(Enum):
    ANALYTIC = "Analytic"
    NUMERIC = "Numeric"


@dataclass(frozen=True)
class Thresholds:
    """Plain key-value configuration of the numeric semi-decision."""

    theta0: float = 1e-6
    theta2: float = 10.0
    band_floor: float = _E_INV - 0.1
    band_ceiling: float = 7.394          # see geometric_band_ceiling()
    min_decades: float = 4.0
    min_points: int = 8
    flat_slope: float = 0.05


@dataclass(frozen=True)
class DomainVerdict:
    domain: Domain
    method: Method
    evidence: list = field(default_factory=list)    # (n, t_n) pairs
    diagnostics: dict = field(default_factory=dict)
    citation: Optional[str] = None

    def __post_init__(self):
        if self.method is Method.ANALYTIC and self.domain is Domain.INCONCLUSIVE:
            raise InvalidParams("analytic verdicts are never inconclusive")
        if self.method is Method.NUMERIC and not self.evidence:
            raise InvalidParams("numeric verdicts carry evidence")


_PROBE_SCHEDULE = [2 ** j for j in range(4, 17)]


def classify_analytic(dist: Distribution) -> DomainVerdict:
    """Domain verdict by family structure.

    Constructed congregated/pair-averaged sequences inherit their base's
    Domain 1 membership only when the finite-depth dominance check confirms
    domination; otherwise the verdict falls back to a numeric Inconclusive
    carrying a short trajectory as evidence.
    """
    kind = dist.kind
    if kind is FamilyKind.FINITE:
        return DomainVerdict(Domain.DOMAIN0, Method.ANALYTIC, citation=CITE_FINITE)
    if kind in (FamilyKind.POWER, FamilyKind.LOG_POWER):
        return DomainVerdict(Domain.DOMAIN2, Method.ANALYTIC, citation=CITE_POWER)
    if kind in (FamilyKind.GEOMETRIC, FamilyKind.GAUSSIAN_TYPE, FamilyKind.TILTED_GEOMETRIC):
        return DomainVerdict(Domain.DOMAIN1, Method.ANALYTIC, citation=CITE_THIN)
    if kind is FamilyKind.DIFFUSION:
        return DomainVerdict(Domain.TRANSIENT, Method.ANALYTIC, citation=CITE_TRANSIENT)
    if kind in (FamilyKind.CONGREGATED, FamilyKind.PAIR_AVERAGED):
        base = dist.base
        base_verdict = classify_analytic(base)
        report = dominates(base, dist)
        if (base_verdict.domain is Domain.DOMAIN1
                and report.verdict is DominanceVerdict.DOMINATED_WITHIN):
            return DomainVerdict(
                Domain.DOMAIN1, Method.ANALYTIC,
                diagnostics={"dominance_max_count": report.max_count},
                citation=CITE_THIN + f"; domination by the base confirmed to depth {report.depth}",
            )
        evidence = [(n, tn(dist, n).value) for n in _PROBE_SCHEDULE[:8]]
        return DomainVerdict(
            Domain.INCONCLUSIVE, Method.NUMERIC, evidence=evidence,
            diagnostics={"dominance_max_count": report.max_count,
                         "dominance_verdict": report.verdict.value},
        )
    raise InvalidParams(f"uncatalogued family {kind!r}")  # pragma: no cover


def _fit_slope(pairs: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log t against log n, ignoring dead values."""
    pts = [(math.log(n), math.log(v)) for n, v in pairs if v > 0.0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0.0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _tn_at(dist: Distribution, ns: Sequence[int], eps: float) -> list[IndexValue]:
    """t_n at each n of ns, in their order, from one schedule evaluation of
    their distinct values."""
    distinct = sorted(set(ns))
    at = dict(zip(distinct, evaluate_series(dist, distinct, eps)))
    return [at[n] for n in ns]


def classify_numeric(
    dist: Distribution,
    schedule: Sequence[int],
    thresholds: Thresholds = Thresholds(),
    transient_probes: Optional[tuple[Sequence[int], Sequence[int]]] = None,
    eps: float = 1e-6,
) -> DomainVerdict:
    """Semi-decide the domain from the t_n trajectory on a schedule.

    ``transient_probes`` supplies (growing, bounded) subsequences of n; the
    transient verdict requires both, since generic subsequence discovery is
    an open-ended search.  Every n, of the schedule and of the probes, must
    be a positive integer (InvalidParams); the schedule may be unsorted and
    repeat a point.  The evidence lists the points in the given order; the
    verdict and its diagnostics read them in order of n.
    """
    schedule = [positive_integer(n) for n in schedule]
    if transient_probes is not None:
        growing_ns, bounded_ns = ([positive_integer(n) for n in ns] for ns in transient_probes)
    if len(schedule) < thresholds.min_points:
        raise ScheduleTooShort(f"need at least {thresholds.min_points} schedule points")
    decades = math.log10(max(schedule)) - math.log10(min(schedule))
    if decades < thresholds.min_decades:
        raise ScheduleTooShort(
            f"schedule spans {decades:.2f} decades; need {thresholds.min_decades}"
        )
    given = _tn_at(dist, schedule, eps)
    evidence = [(p.n, p.value) for p in given]
    # the verdict reads the trajectory as n grows, whatever the given order
    points = sorted(given, key=lambda p: p.n)
    half = len(points) // 2
    tail_pts = points[half:]

    uppers = [p.upper for p in points]
    lowers = [p.value for p in points]
    diagnostics = {
        "max_lower": max(lowers),
        "max_upper": max(uppers),
        "final_upper": uppers[-1],
        "growth_exponent": _fit_slope([(p.n, p.value) for p in tail_pts]),
        "thresholds": asdict(thresholds),
    }

    # Domain 0: certified collapse at a geometric rate
    tail_ratios_ok = all(
        b.upper < 0.5 * max(a.value, 1e-300) or b.upper < thresholds.theta0 * 1e-3
        for a, b in zip(tail_pts, tail_pts[1:])
    )
    if uppers[-1] < thresholds.theta0 and tail_ratios_ok:
        diagnostics["decay_rate"] = (
            math.log(max(lowers[-1], 1e-300)) - math.log(max(lowers[half], 1e-300))
        ) / (len(points) - 1 - half) if len(points) > half + 1 else 0.0
        return DomainVerdict(Domain.DOMAIN0, Method.NUMERIC, evidence, diagnostics)

    # Domain 2: certified growth through theta2
    growing = all(b.value > a.value for a, b in zip(tail_pts, tail_pts[1:]))
    if lowers[-1] > thresholds.theta2 and growing:
        return DomainVerdict(Domain.DOMAIN2, Method.NUMERIC, evidence, diagnostics)

    # Transient: caller-supplied witness subsequences
    if transient_probes is not None:
        probes = _tn_at(dist, growing_ns + bounded_ns, eps)
        gvals, bvals = probes[:len(growing_ns)], probes[len(growing_ns):]
        diagnostics["probe_growing"] = [(v.n, v.value) for v in gvals]
        diagnostics["probe_bounded"] = [(v.n, v.value) for v in bvals]
        g_ok = (len(gvals) >= 3
                and all(b.value > a.value for a, b in zip(gvals, gvals[1:]))
                and gvals[-1].value > thresholds.band_ceiling)
        b_ok = len(bvals) >= 3 and max(v.upper for v in bvals) <= thresholds.band_ceiling
        if g_ok and b_ok:
            return DomainVerdict(Domain.TRANSIENT, Method.NUMERIC, evidence, diagnostics)

    # Domain 1: bounded band with mass above the infinite-support floor
    in_band = (max(uppers) <= thresholds.band_ceiling
               and max(lowers) >= thresholds.band_floor)
    flat = abs(diagnostics["growth_exponent"]) <= thresholds.flat_slope
    if in_band and flat:
        return DomainVerdict(Domain.DOMAIN1, Method.NUMERIC, evidence, diagnostics)

    return DomainVerdict(Domain.INCONCLUSIVE, Method.NUMERIC, evidence, diagnostics)


def subsequence_probe(
    dist: Distribution,
    k_lo: int,
    k_hi: int,
    eps: float = 1e-6,
) -> list[tuple[int, int, float]]:
    """t evaluated along n_k = floor(1/p_k) for k in [k_lo, k_hi], all n_k
    in one schedule evaluation.

    Along this subsequence every infinite-support distribution keeps
    t_{n_k} above roughly 1/e, the uniform floor for limsup t_n.
    """
    if dist.support_size() is not None:
        raise FiniteSupport("subsequence probe needs infinite support")
    k_lo, k_hi = positive_integer(k_lo, "k_lo"), positive_integer(k_hi, "k_hi")
    if k_lo > k_hi:
        raise InvalidParams("need 1 <= k_lo <= k_hi")
    if k_hi - k_lo >= MAX_SCHEDULE_POINTS:
        raise InvalidParams(f"need at most {MAX_SCHEDULE_POINTS} indices, got {k_lo} to {k_hi}")
    ks = range(k_lo, k_hi + 1)
    ns = []
    for k in ks:
        p = dist.prob(k)
        if p <= 0.0:
            raise FiniteSupport(f"p_{k} vanished; support is not all-positive")
        inverse = 1.0 / p
        if inverse == math.inf:
            raise InvalidParams(f"n_{k} = floor(1/p_{k}) overflows a float: p_{k} = {p!r}")
        ns.append(math.floor(inverse))
    return [(k, n_k, iv.value) for k, n_k, iv in zip(ks, ns, _tn_at(dist, ns, eps))]


def diffusion_transient_probes(dist: Distribution, i_max: Optional[int] = None) -> tuple[list[int], list[int]]:
    """The canonical (growing, bounded) probe subsequences of the diffusion
    family: reciprocals of run values and of the value d+1 places before
    each run start."""
    if dist.kind is not FamilyKind.DIFFUSION:
        raise InvalidParams("transient probes are defined for the diffusion family")
    runs = dist.runs if i_max is None else [r for r in dist.runs if r.stage <= i_max]
    # the last couple of stages certify truncation rather than carry probes
    usable = runs[:-2] if len(runs) > 2 else runs
    return [r.n_probe for r in usable], [r.m_probe for r in usable]
