"""The four benchmark workloads.

``WORKLOADS[name](seed)`` parses and builds every distribution the workload
uses from its spec text, draws its inputs from the seed and returns a Plan.
A Plan holds the fixed operation list of one pass (timed one by one into the
latency sample), the classify_numeric calls (timed apart as verdict_ms; on
three of the workloads a verdict costs 5 to 150 times more or less than an
operation), and the check that runs on the first round's outputs outside
the timed region.

Each workload keeps operations of one cost class together: an earlier draft
that put 0.05 ms and 40 ms operations into one latency sample moved its
throughput by 9% between two sets of runs of identical code.

alphatail's functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import mpmath as mp

from alphatail import classify, dominance, estimate, tail_index, zoo

import oracles
import refs


@dataclass
class Plan:
    ops: list          # zero-argument calls: one pass of the latency sample
    verdicts: list     # zero-argument classify_numeric calls, timed apart
    # (op outputs, verdict outputs) -> (failures, IndexValues behind cert_width_rel)
    check: Callable


def build(spec: str):
    return zoo.make_distribution(zoo.parse_spec(spec))


def verdict_schedule(rng: random.Random) -> list[int]:
    """Ten sample sizes n0 * 4^j with n0 drawn from [16, 64]: 5.4 decades."""
    n0 = rng.randint(16, 64)
    return [n0 * 4 ** j for j in range(10)]


def expect_domain(label: str, verdict, domain) -> list[str]:
    if verdict is None or verdict.domain is domain:
        return []
    return [f"{label}: verdict {verdict.domain.value}, expected {domain.value}"]


# ---------------------------------------------------------------------------
# thick-tail: tn on power and log-power tails, which run to max_terms today
# ---------------------------------------------------------------------------

THICK_SPECS = list(refs.SPECS)
THICK_OP_GRID = (0, 47, 94)      # grid indices: n from 1e3, 10^5.35 and 10^7.7 ...
THICK_OP_JITTER = 7              # ... each up to 0.3 decade higher
THICK_VERDICT_STEP = 12          # 8 schedule points 0.6 decade apart: 4.2 decades
THICK_VERDICT_JITTER = 17        # schedule start in [1e3, 10^3.8]


def thick_tail(seed: int) -> Plan:
    rng = random.Random(seed)
    dists = {spec: build(spec) for spec in THICK_SPECS}
    ops, op_inputs, verdicts, schedules = [], [], [], []
    for spec, dist in dists.items():
        for base in THICK_OP_GRID:
            n = refs.grid_n(base + rng.randrange(THICK_OP_JITTER))
            ops.append(lambda d=dist, n=n: tail_index.tn(d, n))
            op_inputs.append((spec, n))
    for spec, dist in dists.items():
        start = rng.randrange(THICK_VERDICT_JITTER)
        sched = [refs.grid_n(start + THICK_VERDICT_STEP * j) for j in range(8)]
        verdicts.append(lambda d=dist, s=sched: classify.classify_numeric(d, s))
        schedules.append((spec, sched))

    def check(outs, vouts):
        table = refs.load()
        errors = []
        for (spec, n), iv in zip(op_inputs, outs):
            if iv is not None:
                errors += oracles.bracket(f"{spec} n={n}", iv, table[spec][n])
        for spec in THICK_SPECS:
            pts = sorted((n, iv) for (s, n), iv in zip(op_inputs, outs)
                         if s == spec and iv is not None)
            if any(b.value <= a.value for (_, a), (_, b) in zip(pts, pts[1:])):
                errors.append(f"{spec}: t_n does not increase along {[n for n, _ in pts]}")
            if spec == "power:lambda=2" and pts:
                # n^(1/2) zeta_n -> c^(1/lam) Gamma(1 - 1/lam) / lam, c = 1/zeta(2)
                n, iv = pts[-1]
                limit = float(mp.sqrt(1 / mp.zeta(2)) * mp.gamma(0.5) / 2)
                scaled = (iv.value + 0.5 * iv.trunc_error) / math.sqrt(n)
                if abs(scaled / limit - 1.0) > 0.01:
                    errors.append(f"{spec}: n^(1/2) zeta_n = {scaled} at n={n}, limit {limit}")
        for (spec, sched), verdict in zip(schedules, vouts):
            errors += expect_domain(spec, verdict, classify.Domain.DOMAIN2)
            if verdict is None:
                continue
            if [n for n, _ in verdict.evidence] != sched:
                errors.append(f"{spec}: verdict evidence is not on the schedule {sched}")
            for n, value in verdict.evidence:
                # a lower bound from at most 2^22 terms
                if value > table[spec][n] * (1.0 + 1e-9):
                    errors.append(f"{spec}: verdict evidence t_{n} = {value} above the reference")
        return errors, [iv for iv in outs if iv is not None]

    return Plan(ops, verdicts, check)


# ---------------------------------------------------------------------------
# thin-tail: per-call cost on Domain 0/1 families and the dominance scan
# ---------------------------------------------------------------------------

E_SPEC = f"geometric:a={math.e!r}"
# spec text -> its sequence, rebuilt apart from the program
THIN_SEQUENCES = {
    "geometric:a=2": lambda: oracles.geometric(2.0),
    E_SPEC: lambda: oracles.geometric(math.e),
    "gaussian:lambda=1": lambda: oracles.gaussian(1.0),
    "tilted:lambda=1,r=-1": lambda: oracles.tilted(1.0, -1.0),
    "tilted:lambda=1,r=1": lambda: oracles.tilted(1.0, 1.0),
    "congregated:base=(geometric:a=2)": oracles.congregated_geometric2,
    "pairavg:base=(geometric:a=2)": oracles.pairavg_geometric2,
}
THIN_POINTS = 13                 # tn calls per family, n log-uniform in [10, 1e8]
DOMINANCE_DEPTH = 50
DOMINANCE_Q = "geometric:a=2"    # q_k = 2^-k
# P scanned against Q, with the expected verdict
DOMINANCE_PAIRS = [
    ("congregated:base=(geometric:a=2)", dominance.DominanceVerdict.NOT_DOMINATED_AT_DEPTH),
    (E_SPEC, dominance.DominanceVerdict.DOMINATED_WITHIN),
    ("pairavg:base=(geometric:a=2)", dominance.DominanceVerdict.DOMINATED_WITHIN),
]


def thin_tail(seed: int) -> Plan:
    rng = random.Random(seed)
    weights = [rng.randint(1, 20) for _ in range(rng.randint(2, 6))]
    finite_spec = "finite:p=" + ";".join(repr(w / sum(weights)) for w in weights)
    oracle = {finite_spec: lambda: oracles.finite(weights), **THIN_SEQUENCES}
    dists = {spec: build(spec) for spec in oracle}
    ops, op_inputs = [], []
    for spec, dist in dists.items():
        for _ in range(THIN_POINTS):
            n = int(round(10 ** rng.uniform(1.0, 8.0)))
            ops.append(lambda d=dist, n=n: tail_index.tn(d, n))
            op_inputs.append((spec, n))
    for p_spec, _ in DOMINANCE_PAIRS:
        ops.append(lambda q=dists[DOMINANCE_Q], p=dists[p_spec]:
                   dominance.dominates(q, p, DOMINANCE_DEPTH))
    verdict_specs = [(finite_spec, classify.Domain.DOMAIN0),
                     ("geometric:a=2", classify.Domain.DOMAIN1),
                     (E_SPEC, classify.Domain.DOMAIN1)]
    sched = verdict_schedule(rng)
    verdicts = [lambda d=dists[spec]: classify.classify_numeric(d, sched)
                for spec, _ in verdict_specs]

    def check(outs, vouts):
        errors, certs = [], []
        for (spec, n), iv in zip(op_inputs, outs):
            if iv is None:
                continue
            errors += oracles.bracket(f"{spec} n={n}", iv, oracles.t_levels(oracle[spec](), n))
            certs.append(iv)
        for (p_spec, expected), report in zip(DOMINANCE_PAIRS, outs[len(op_inputs):]):
            if report is None:
                continue
            counts = oracles.interval_counts(oracles.dyadic, THIN_SEQUENCES[p_spec](), DOMINANCE_DEPTH)
            label = f"{DOMINANCE_Q} over {p_spec}"
            if report.counts != counts:
                errors.append(f"{label}: counts {report.counts}, recomputed {counts}")
            if report.verdict is not expected:
                errors.append(f"{label}: {report.verdict.value}, expected {expected.value}")
        for (spec, domain), verdict in zip(verdict_specs, vouts):
            errors += expect_domain(spec, verdict, domain)
        return errors, certs

    return Plan(ops, verdicts, check)


# ---------------------------------------------------------------------------
# diffusion: the run table at 14 stages through the large-n evaluator
# ---------------------------------------------------------------------------

DIFFUSION_STAGES = 14
DIFFUSION_CHECKED_STAGES = 6     # probes compared with an mpmath sum
DIFFUSION_REFERENCE_STAGES = 8   # the rebuilt prefix those sums run over
# the probes come from the benchmark's own rebuild, made once outside set-up
DIFFUSION_RUNS = oracles.diffusion_runs(DIFFUSION_STAGES)


def diffusion(seed: int) -> Plan:
    rng = random.Random(seed)
    dist = build(f"diffusion:stages={DIFFUSION_STAGES}")
    runs = DIFFUSION_RUNS
    probes = [(stage, "n", 2 ** e) for stage, _, e, _ in runs]
    probes += [(stage, "m", 2 ** b - 1) for stage, _, _, b in runs]
    rng.shuffle(probes)
    ops = [lambda n=n: tail_index.tn(dist, n) for _, _, n in probes]
    # the last two stages certify truncation rather than carry probes
    usable = runs[:-2]
    transient = ([2 ** e for _, _, e, _ in usable], [2 ** b - 1 for _, _, _, b in usable])
    sched = verdict_schedule(rng)
    verdicts = [lambda: classify.classify_numeric(dist, sched, transient_probes=transient)]

    def check(outs, vouts):
        errors = []
        got = {(stage, kind): (n, iv) for (stage, kind, n), iv in zip(probes, outs)
               if iv is not None}
        growing = [got[(s, "n")][1].value for s in range(1, DIFFUSION_STAGES + 1)
                   if (s, "n") in got]
        if growing and (any(b <= a for a, b in zip(growing, growing[1:]))
                        or growing[-1] <= oracles.BAND_CEILING):
            errors.append(f"t at n_i does not grow past {oracles.BAND_CEILING}: {growing}")
        for (stage, kind), (n, iv) in sorted(got.items()):
            if kind == "m" and not (iv.value >= oracles.BAND_FLOOR
                                    and iv.upper <= oracles.BAND_CEILING):
                errors.append(f"stage {stage}: t at m_i = [{iv.value}, {iv.upper}] leaves the band")
        levels = oracles.diffusion_levels(DIFFUSION_REFERENCE_STAGES)
        for (stage, kind), (n, iv) in sorted(got.items()):
            if stage <= DIFFUSION_CHECKED_STAGES:
                errors += oracles.bracket(f"stage {stage} {kind}_i", iv,
                                          oracles.t_levels(levels, n), abs(math.log(n)))
        for verdict in vouts:
            errors += expect_domain("diffusion", verdict, classify.Domain.TRANSIENT)
        return errors, list(got_iv for _, got_iv in got.values())

    return Plan(ops, verdicts, check)


# ---------------------------------------------------------------------------
# estimate: seeded estimation runs, sample + estimator_report
# ---------------------------------------------------------------------------

# (spec, n, p_k for the leading letters k = 1..3, computed apart).  Each run
# costs 3 to 12 ms, so a run of the benchmark times every one of them a few
# hundred times; at n = 1e6 and v up to 1000 they cost 35 to 110 ms, and
# the fastest of some 25 rounds moved by up to 27% between runs.
ESTIMATE_INPUTS = [
    ("geometric:a=2", 10 ** 5, lambda k: mp.mpf(2) ** -k),
    ("pairavg:base=(geometric:a=2)", 10 ** 5, lambda k: 3 * mp.mpf(2) ** -(2 * ((k + 1) // 2) + 1)),
    ("diffusion:stages=8", 10 ** 5, lambda k: mp.mpf(2) ** -k),
    ("power:lambda=2", 10 ** 4, lambda k: 6 / (mp.pi ** 2 * k * k)),
]
# Sample seeds are fixed (1, 2, 3 for every input), set before any cost was
# seen; the workload seed orders the operations and draws the verdict
# schedule.  A heavy-tailed draw makes the sampler's CDF as long as its
# largest letter, so seed-drawn sample seeds would move peak_rss_mb and the
# latencies from run to run by the luck of the draw.
ESTIMATE_SAMPLE_SEEDS = (1, 2, 3)
ESTIMATE_V = range(1, 101)
ESTIMATE_EXACT_V = (1, 10, 100)
ESTIMATE_MEAN_V = (1, 10)
ESTIMATE_VERDICT_SPECS = ["geometric:a=2", "pairavg:base=(geometric:a=2)"]


def _estimation_run(dist, n, sample_seed):
    freq = estimate.sample(dist, n, sample_seed)
    return freq, estimate.estimator_report(freq, ESTIMATE_V)


def estimate_workload(seed: int) -> Plan:
    rng = random.Random(seed)
    dists = {spec: build(spec) for spec, _, _ in ESTIMATE_INPUTS}
    op_inputs = [(spec, n, s) for spec, n, _ in ESTIMATE_INPUTS for s in ESTIMATE_SAMPLE_SEEDS]
    rng.shuffle(op_inputs)
    ops = [lambda d=dists[spec], n=n, s=s: _estimation_run(d, n, s) for spec, n, s in op_inputs]
    sched = verdict_schedule(rng)
    verdicts = [lambda d=dists[spec]: classify.classify_numeric(d, sched)
                for spec in ESTIMATE_VERDICT_SPECS]

    def check(outs, vouts):
        errors, certs = [], []
        for (spec, n, s), out in zip(op_inputs, outs):
            if out is None:
                continue
            freq, report = out
            label = f"{spec} n={n} seed={s}"
            counts = list(freq.counts.values())
            # z1v differences log-gamma values near n ln n beyond n = 30,
            # so its rounding grows with n; allow that where it passes 1e-9
            rtol = max(1e-9, 4.0 * math.lgamma(n + 1) * oracles.ULP)
            for v in ESTIMATE_EXACT_V:
                exact = float(oracles.z1v_exact(counts, n, v))
                got = report.z1v[v - 1]
                if abs(got - exact) > rtol * exact:
                    errors.append(f"{label}: Z_1,{v} = {got!r}, exact {exact!r}")
            p_of = next(p for sp, _, p in ESTIMATE_INPUTS if sp == spec)
            for k in (1, 2, 3):
                p = float(p_of(k))
                se = math.sqrt(p * (1.0 - p) / n)
                if abs(freq.counts.get(k, 0) / n - p) > 6.0 * se:
                    errors.append(f"{label}: letter {k} frequency {freq.counts.get(k, 0) / n}, p_k {p}")
        for spec, n, _ in ESTIMATE_INPUTS:
            reports = [out[1] for (sp, _, _), out in zip(op_inputs, outs)
                       if sp == spec and out is not None]
            if not reports:
                continue
            for v in ESTIMATE_MEAN_V:
                iv = tail_index.tn(dists[spec], v)
                certs.append(iv)
                mean = sum(r.t_hat[v - 1] for r in reports) / len(reports)
                half = v * oracles.hoeffding_halfwidth(n, v, len(reports))
                if not iv.value - half <= mean <= iv.upper + half:
                    errors.append(f"{spec}: mean t_hat_{v} = {mean} outside "
                                  f"[{iv.value}, {iv.upper}] +- {half:.3g}")
        for spec, verdict in zip(ESTIMATE_VERDICT_SPECS, vouts):
            errors += expect_domain(spec, verdict, classify.Domain.DOMAIN1)
        return errors, certs

    return Plan(ops, verdicts, check)


WORKLOADS = {
    "thick-tail": thick_tail,
    "thin-tail": thin_tail,
    "diffusion": diffusion,
    "estimate": estimate_workload,
}
