"""Domain verdicts: analytic mapping, numeric semi-decision, probes."""

import math

import pytest

from alphatail import classify
from alphatail.classify import MAX_SCHEDULE_POINTS
from alphatail import (
    Distribution,
    Domain,
    DomainVerdict,
    FamilyKind,
    FamilySpec,
    FiniteSupport,
    InvalidParams,
    Method,
    ScheduleTooShort,
    Thresholds,
    catalog,
    classify_analytic,
    classify_numeric,
    diffusion_transient_probes,
    format_spec,
    make_distribution,
    parse_spec,
    subsequence_probe,
    tn,
)

SCHEDULE = [2 ** j for j in range(4, 23)]
E_INV = math.exp(-1.0)


class TestAnalytic:
    @pytest.mark.parametrize("spec_text, want", [
        ("finite:p=0.5;0.5", Domain.DOMAIN0),
        ("finite:p=0.5;0.3;0.2", Domain.DOMAIN0),
        ("power:lambda=1.5", Domain.DOMAIN2),
        ("power:lambda=2", Domain.DOMAIN2),
        ("logpower:lambda=2,k0=2", Domain.DOMAIN2),
        ("geometric:a=2", Domain.DOMAIN1),
        ("gaussian:lambda=1", Domain.DOMAIN1),
        ("tilted:lambda=1,r=1", Domain.DOMAIN1),
        ("diffusion:stages=6", Domain.TRANSIENT),
    ])
    def test_family_mapping(self, spec_text, want):
        verdict = classify_analytic(make_distribution(parse_spec(spec_text)))
        assert verdict.domain is want
        assert verdict.method is Method.ANALYTIC
        assert verdict.citation

    def test_pair_averaged_inherits_base_domain(self, pairavg2):
        verdict = classify_analytic(pairavg2)
        assert verdict.domain is Domain.DOMAIN1
        assert verdict.method is Method.ANALYTIC
        assert "domination" in verdict.citation

    def test_congregated_falls_back_inconclusive(self, congregated2):
        verdict = classify_analytic(congregated2)
        assert verdict.domain is Domain.INCONCLUSIVE
        # the fallback is a numeric verdict so the analytic invariant holds
        assert verdict.method is Method.NUMERIC
        assert verdict.evidence
        assert verdict.diagnostics["dominance_verdict"] == "not_dominated_at_depth"

    def test_verdict_invariants(self):
        with pytest.raises(InvalidParams):
            DomainVerdict(Domain.INCONCLUSIVE, Method.ANALYTIC)
        with pytest.raises(InvalidParams):
            DomainVerdict(Domain.DOMAIN1, Method.NUMERIC, evidence=[])


class TestNumeric:
    def test_finite_uniform_is_domain0(self, uniform10):
        verdict = classify_numeric(uniform10, SCHEDULE[:17])
        assert verdict.domain is Domain.DOMAIN0
        assert verdict.diagnostics["final_upper"] < 1e-6

    def test_power_is_domain2_with_half_exponent(self, power2):
        verdict = classify_numeric(power2, SCHEDULE)
        assert verdict.domain is Domain.DOMAIN2
        # growth exponent fitted on log t_n vs log n approaches 1/lambda
        assert verdict.diagnostics["growth_exponent"] == pytest.approx(0.5, abs=0.05)

    def test_geometric_e_is_domain1(self, geom_e):
        verdict = classify_numeric(geom_e, SCHEDULE)
        assert verdict.domain is Domain.DOMAIN1
        assert verdict.diagnostics["max_upper"] <= Thresholds().band_ceiling

    @pytest.mark.parametrize("spec_text", [format_spec(s) for s in catalog()
                                           if "diffusion" not in format_spec(s)])
    def test_agreement_with_analytic(self, spec_text):
        """Numeric never contradicts an analytic verdict; it may abstain."""
        dist = make_distribution(parse_spec(spec_text))
        ana = classify_analytic(dist).domain
        num = classify_numeric(dist, SCHEDULE).domain
        assert num is Domain.INCONCLUSIVE or num is ana or ana is Domain.INCONCLUSIVE

    def test_schedule_validation(self, geom2):
        with pytest.raises(ScheduleTooShort):
            classify_numeric(geom2, [16, 32, 64])
        with pytest.raises(ScheduleTooShort):
            classify_numeric(geom2, list(range(10, 30)))

    @pytest.mark.parametrize("first", [2.5, 16.0, 0, -16, math.nan, "16"])
    def test_schedule_points_must_be_positive_integers(self, geom2, first, monkeypatch):
        # 2.5 was evaluated as n = 2, and 0, -16 and nan ended in a bare
        # ValueError from math.log10 or int()
        monkeypatch.setattr(classify, "_tn_at", None)     # nothing is evaluated
        with pytest.raises(InvalidParams):
            classify_numeric(geom2, [first] + SCHEDULE[1:])

    @pytest.mark.parametrize("probes", [([2.5, 64, 256], [16, 32, 48]), ([16, 32, 48], [0, 1, 2])])
    def test_probe_points_must_be_positive_integers(self, geom2, probes, monkeypatch):
        monkeypatch.setattr(classify, "_tn_at", None)
        with pytest.raises(InvalidParams):
            classify_numeric(geom2, SCHEDULE, transient_probes=probes)

    def test_schedule_past_float_range(self):
        # the span in decades is taken in logs, so an integer schedule far
        # past the float range is accepted as tn accepts it
        dist = make_distribution(parse_spec("diffusion:stages=1"))
        verdict = classify_numeric(dist, [16 * 4 ** j for j in range(600)])
        assert isinstance(verdict, DomainVerdict)
        assert len(verdict.evidence) == 600

    def test_points_equal_single_evaluations(self):
        # an unsorted schedule with a duplicate is evaluated as given, each
        # point bit for bit its own tn
        dist = make_distribution(parse_spec("power:lambda=1.5"))
        sched = [5623, 22387211, 89125, 354813, 5623, 1412538, 5623413, 22387, 89125094]
        verdict = classify_numeric(dist, sched)
        points = [tn(dist, n, 1e-6) for n in sched]
        assert verdict.evidence == [(p.n, p.value) for p in points]
        assert verdict.diagnostics["max_upper"] == max(p.upper for p in points)
        assert verdict.diagnostics["final_upper"] == points[-1].upper

    def test_decreasing_schedule_spans_its_decades(self, power2):
        # the span was read from the last point to the first: -5.42 decades
        sched = [16 * 4 ** j for j in range(9, -1, -1)]
        verdict = classify_numeric(power2, sched)
        assert [n for n, _ in verdict.evidence] == sched
        assert verdict.domain is Domain.DOMAIN2
        assert verdict.diagnostics == classify_numeric(power2, sched[::-1]).diagnostics

    def test_decreasing_schedule_reads_the_trajectory_as_n_grows(self):
        # read in the given order, t_n = n (1 - 1/1000)^n climbs from 1e-106
        # to 368 as n falls, which passed for growth through theta2: Domain 2
        uniform1000 = make_distribution(FamilySpec(FamilyKind.FINITE, {"p": [0.001] * 1000}))
        sched = [1000 * 4 ** j for j in range(9, -1, -1)]
        verdict = classify_numeric(uniform1000, sched)
        assert verdict.domain is Domain.DOMAIN0
        assert verdict.diagnostics == classify_numeric(uniform1000, sched[::-1]).diagnostics


class TestTransient:
    def test_diffusion_with_probes(self, diffusion14):
        probes = diffusion_transient_probes(diffusion14, i_max=12)
        verdict = classify_numeric(diffusion14, SCHEDULE[:15], transient_probes=probes)
        assert verdict.domain is Domain.TRANSIENT
        growing = verdict.diagnostics["probe_growing"]
        bounded = verdict.diagnostics["probe_bounded"]
        assert all(b[1] > a[1] for a, b in zip(growing, growing[1:]))
        assert max(v for _, v in bounded) < 4.0

    def test_probes_equal_single_evaluations(self, diffusion14):
        # the probes reach far past 2^53; one bounded probe is repeated
        growing, bounded = diffusion_transient_probes(diffusion14)
        bounded = bounded[::-1] + bounded[:1]
        verdict = classify_numeric(diffusion14, SCHEDULE, transient_probes=(growing, bounded))
        assert verdict.domain is Domain.TRANSIENT
        for key, ns in (("probe_growing", growing), ("probe_bounded", bounded)):
            assert verdict.diagnostics[key] == [(n, tn(diffusion14, n, 1e-6).value) for n in ns]

    def test_growing_probe_lower_bound(self, diffusion14):
        """Along run-start reciprocals the run alone forces
        t >= (d+1)(1-1/n)^n, a divergent floor."""
        for run in diffusion14.runs[:12]:
            n = run.n_probe
            if run.run_exponent < 50:
                floor = (run.d + 1) * (1 - 1 / n) ** n
            else:
                floor = (run.d + 1) * math.exp(-1.0) * (1 - 1e-9)
            assert tn(diffusion14, n).value >= floor

    def test_bounded_probe_stays_low(self, diffusion14):
        vals = [tn(diffusion14, run.m_probe).value for run in diffusion14.runs[:12]]
        assert max(vals) < 4.0

    def test_without_probes_no_transient_claim(self, diffusion14):
        verdict = classify_numeric(diffusion14, SCHEDULE[:15])
        assert verdict.domain is not Domain.TRANSIENT

    def test_probe_helper_only_for_diffusion(self, geom2):
        with pytest.raises(InvalidParams):
            diffusion_transient_probes(geom2)


class TestSubsequenceProbe:
    def test_floor_for_geometric(self, geom_e):
        rows = subsequence_probe(geom_e, 10, 25)
        assert len(rows) == 16
        assert min(t for _, _, t in rows) > E_INV - 0.05

    def test_floor_for_power(self, power2):
        rows = subsequence_probe(power2, 10, 25)
        assert min(t for _, _, t in rows) > E_INV - 0.05

    def test_probe_indices_monotone(self, geom_e):
        rows = subsequence_probe(geom_e, 5, 20)
        ns = [n for _, n, _ in rows]
        assert all(b >= a for a, b in zip(ns, ns[1:]))

    @pytest.mark.parametrize("fixture", ["geom_e", "power2"])
    def test_one_sweep_equals_one_tn_per_k(self, fixture, request, monkeypatch):
        dist = request.getfixturevalue(fixture)
        calls = []
        evaluate_series = classify.evaluate_series
        monkeypatch.setattr(classify, "evaluate_series", lambda *a: calls.append(a) or evaluate_series(*a))
        rows = subsequence_probe(dist, 5, 25)
        assert len(calls) == 1
        assert rows == [(k, n, tn(dist, n, 1e-6).value) for k, n, _ in rows]
        assert [k for k, _, _ in rows] == list(range(5, 26))
        assert [n for _, n, _ in rows] == [math.floor(1.0 / dist.prob(k)) for k in range(5, 26)]

    def test_finite_rejected(self, uniform2):
        with pytest.raises(FiniteSupport):
            subsequence_probe(uniform2, 1, 5)

    def test_subnormal_p_is_a_typed_refusal(self, geom2):
        # p_1030 = 2^-1030 is subnormal and 1/p overflows a float; floor(inf)
        # ended the probe in a bare OverflowError
        with pytest.raises(InvalidParams, match=r"n_1030 = floor\(1/p_1030\) overflows a float: p_1030 = 8\.69"):
            subsequence_probe(geom2, 1030, 1031)

    @pytest.mark.parametrize("k_lo, k_hi", [(1.5, 5), (1, 5.5), ("1", 5)], ids=repr)
    def test_indices_must_be_positive_integers(self, geom2, k_lo, k_hi):
        # k_lo = 1.5 ended in a bare TypeError
        with pytest.raises(InvalidParams, match="k_(lo|hi) must be a positive integer"):
            subsequence_probe(geom2, k_lo, k_hi)

    def test_index_range_cap_before_any_p_k(self, power2, monkeypatch):
        # 10^5 indices ran for 20 s; the cap is the CLI's schedule cap
        def unread(self, k):
            raise AssertionError("p_k was read")

        monkeypatch.setattr(Distribution, "prob", unread)
        for k_hi in (10 ** 5, MAX_SCHEDULE_POINTS + 1):
            with pytest.raises(InvalidParams, match=f"at most {MAX_SCHEDULE_POINTS} indices"):
                subsequence_probe(power2, 1, k_hi)
        with pytest.raises(AssertionError, match="p_k was read"):
            subsequence_probe(power2, 1, MAX_SCHEDULE_POINTS)

    def test_domain0_pointwise_rate(self, uniform10):
        # finite support: t_n is bounded by n (1-p_min)^n on the whole grid
        for n in [2 ** j for j in range(4, 21)]:
            assert tn(uniform10, n).value <= n * 0.9 ** n * (1 + 1e-9)
