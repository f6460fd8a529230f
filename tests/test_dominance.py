"""Interval-count dominance: the documented pair verdicts and edge behavior."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from alphatail import (
    DominanceReport,
    DominanceVerdict,
    FiniteSupport,
    InvalidParams,
    catalog,
    dominates,
    format_spec,
    make_distribution,
    parse_spec,
)
from alphatail.dominance import MAX_DEPTH, _ordered_q


def dist(text):
    return make_distribution(parse_spec(text))


class TestDocumentedPairs:
    def test_gaussian_under_geometric(self, geom_e):
        """Squared-exponent decay against plain exponential: eventually at
        most one value per interval."""
        p = dist("gaussian:lambda=1")
        rep = dominates(geom_e, p, depth=50)
        assert rep.verdict is DominanceVerdict.DOMINATED_WITHIN
        assert rep.max_count == 1

    def test_faster_base_under_slower(self):
        q = dist("geometric:a=2")
        p = dist("geometric:a=3")
        rep = dominates(q, p, depth=50)
        assert rep.verdict is DominanceVerdict.DOMINATED_WITHIN
        assert rep.max_count <= 2

    def test_negative_tilt_under_same_rate(self, geom_e):
        p = dist("tilted:lambda=1,r=-1")
        rep = dominates(geom_e, p, depth=50)
        assert rep.verdict is DominanceVerdict.DOMINATED_WITHIN
        assert rep.max_count <= 2

    def test_positive_tilt_under_half_rate(self):
        q = dist(f"geometric:a={math.exp(0.5)!r}")
        p = dist("tilted:lambda=1,r=1")
        rep = dominates(q, p, depth=50)
        assert rep.verdict is DominanceVerdict.DOMINATED_WITHIN
        assert rep.max_count <= 2

    def test_identical_mutual(self, geom2):
        a = dominates(geom2, geom2, depth=50)
        assert a.verdict is DominanceVerdict.DOMINATED_WITHIN
        assert a.max_count == 1
        other = dist("geometric:a=2")   # separately built, same family
        b = dominates(other, geom2, depth=50)
        c = dominates(geom2, other, depth=50)
        assert b.verdict is c.verdict is DominanceVerdict.DOMINATED_WITHIN
        assert b.max_count == c.max_count == 1

    def test_congregated_not_dominated(self, geom2, congregated2):
        rep = dominates(geom2, congregated2, depth=50)
        assert rep.verdict is DominanceVerdict.NOT_DOMINATED_AT_DEPTH
        # the count in interval m(m+1)/2 reaches m
        for m in (2, 3, 5, 9):
            assert rep.counts[m * (m + 1) // 2 - 1] >= m
        assert rep.max_count >= 9


class TestIndependenceOfNotions:
    def test_pair_averaged_dominated_without_thinner_tail(self, geom2, pairavg2):
        # p exceeds q at every even index, yet domination holds
        assert pairavg2.prob(2) > geom2.prob(2)
        rep = dominates(geom2, pairavg2, depth=50)
        assert rep.verdict is DominanceVerdict.DOMINATED_WITHIN
        assert rep.max_count == 2

    def test_congregated_thinner_tail_without_domination(self, geom2, congregated2):
        for k in range(2, 60):
            assert congregated2.prob(k) <= geom2.prob(k) * (1 + 1e-12)
        rep = dominates(geom2, congregated2, depth=50)
        assert rep.verdict is DominanceVerdict.NOT_DOMINATED_AT_DEPTH


def test_transitivity_instance():
    a = dist("geometric:a=2")
    b = dist("geometric:a=3")
    c = dist("geometric:a=9")
    ab = dominates(a, b, depth=50)
    bc = dominates(b, c, depth=50)
    ac = dominates(a, c, depth=50)
    assert ab.verdict is DominanceVerdict.DOMINATED_WITHIN
    assert bc.verdict is DominanceVerdict.DOMINATED_WITHIN
    assert ac.verdict is DominanceVerdict.DOMINATED_WITHIN


class TestContract:
    def test_probe_limit_surfaces_as_undetermined(self, geom2):
        q = dist("gaussian:lambda=1")
        rep = dominates(q, geom2, depth=50, probe_limit=3)
        assert rep.verdict is DominanceVerdict.UNDETERMINED
        assert not rep.complete

    def test_counts_shape(self, geom2):
        rep = dominates(geom2, geom2, depth=17)
        assert rep.depth == 17
        assert len(rep.counts) == 17
        assert rep.max_count == max(rep.counts)

    def test_finite_p_rejected(self, geom2, uniform2):
        with pytest.raises(FiniteSupport):
            dominates(geom2, uniform2)

    def test_finite_q_rejected(self, geom2, uniform2):
        with pytest.raises(FiniteSupport):
            dominates(uniform2, geom2)

    @pytest.mark.parametrize("kwargs", [
        dict(depth=0), dict(depth=2.5), dict(depth=math.nan),
        dict(probe_limit=0), dict(probe_limit=2.5), dict(probe_limit=-1),
        dict(growth_threshold=0), dict(growth_threshold=2.5),
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_integer_arguments_are_checked(self, geom2, kwargs):
        # growth_threshold = 0 reported geometric:a=2 as not dominated by
        # itself; probe_limit = 0 or 2.5 gave UNDETERMINED with no counts
        with pytest.raises(InvalidParams, match=f"{next(iter(kwargs))} must be a positive integer"):
            dominates(geom2, geom2, **kwargs)

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 10 ** 9])
    def test_depth_above_the_cap_is_refused_before_any_work(self, geom2, depth):
        # the scan holds about 30 bytes per interval: depth 10^9 asked for
        # about 30 GB and was killed instead of refused
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParams, match=f"depth must be at most {MAX_DEPTH}, got {depth}"):
                dominates(geom2, geom2, depth=depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_growth_threshold_below_two_is_refused(self, geom2):
        # Q against itself holds exactly one value per interval, so a
        # threshold of 1 reported geometric:a=2 as not dominated by itself
        with pytest.raises(InvalidParams, match="growth_threshold must be at least 2, got 1"):
            dominates(geom2, geom2, depth=50, growth_threshold=1)
        report = dominates(geom2, geom2, depth=50, growth_threshold=np.int64(2))
        assert (report.verdict, report.max_count) == (DominanceVerdict.DOMINATED_WITHIN, 1)
        assert type(report.growth_threshold) is int

    def test_growth_threshold_is_callers(self, geom2, congregated2):
        relaxed = dominates(geom2, congregated2, depth=50, growth_threshold=100)
        assert relaxed.verdict is DominanceVerdict.DOMINATED_WITHIN
        strict = dominates(geom2, congregated2, depth=50, growth_threshold=3)
        assert strict.verdict is DominanceVerdict.NOT_DOMINATED_AT_DEPTH


def dominates_by_fixed_blocks(q_dist, p_dist, depth, probe_limit, growth_threshold=8):
    """The scan in fixed blocks of 4,096 values, stopped by hand at the end
    of a level table, one index at a time past the head and counted with
    np.add.at; kept as the reference for the walk over prob_blocks."""
    q = _ordered_q(q_dist, depth + 1)
    counts = np.zeros(depth, dtype=np.int64)
    q_floor, q_top, q_asc = float(q[-1]), float(q[0]), q[::-1].copy()
    complete = False
    start = 1
    while start <= probe_limit:
        stop = min(start + 4096, probe_limit + 1)
        truncated_by_depth = False
        if p_dist.prefix_length is not None and stop > p_dist.prefix_length + 1:
            stop = p_dist.prefix_length + 1
            truncated_by_depth = True
            if stop <= start:
                break
        with np.errstate(under="ignore"):
            p_vals = np.exp(p_dist.log_prob_block(start, stop))
        cut = len(p_vals)
        for j in np.nonzero(p_vals <= q_floor)[0]:
            if start + int(j) > p_dist.k0_head:
                complete = True
                cut = int(j)
                break
        chunk = p_vals[:cut]
        inside = chunk[(chunk > q_floor) & (chunk <= q_top)]
        if inside.size:
            np.add.at(counts, depth - np.searchsorted(q_asc, inside, side="left"), 1)
        if complete or (truncated_by_depth and cut == len(p_vals)):
            break
        start = stop
    counts = counts.tolist()
    max_count = max(counts)
    if not complete:
        verdict = DominanceVerdict.UNDETERMINED
    elif max_count >= growth_threshold:
        verdict = DominanceVerdict.NOT_DOMINATED_AT_DEPTH
    else:
        verdict = DominanceVerdict.DOMINATED_WITHIN
    return DominanceReport(depth, counts, max_count, verdict, complete, growth_threshold)


REFERENCE_SPECS = [format_spec(s) for s in catalog() if not format_spec(s).startswith("finite")] + [
    "power:lambda=1.5", "tilted:lambda=0.5,r=3", "pairavg:base=(geometric:a=2),depth=2",
]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:   # the q side may run past a short table
        return type(exc)


@pytest.mark.parametrize("q_text, p_text", itertools.product(REFERENCE_SPECS, repeat=2))
def test_reports_equal_the_fixed_block_scan(q_text, p_text):
    q, p = dist(q_text), dist(p_text)
    for depth, probe_limit in itertools.product((5, 17, 50), (3, 100, 10 ** 6)):
        want = outcome(dominates_by_fixed_blocks, q, p, depth, probe_limit)
        assert outcome(dominates, q, p, depth, probe_limit) == want, (depth, probe_limit)


def test_reference_pairs_reach_every_verdict_and_a_table_end():
    reports = [outcome(dominates, dist(q), dist(p), depth, limit)
               for q, p in itertools.product(REFERENCE_SPECS, repeat=2)
               for depth, limit in itertools.product((5, 50), (3, 10 ** 6))]
    assert {getattr(r, "verdict", r) for r in reports} >= set(DominanceVerdict)
    # a short P table ends before any of its values falls below q_51
    short = dominates(dist("geometric:a=2"), dist("pairavg:base=(geometric:a=2),depth=2"), 50)
    assert short.verdict is DominanceVerdict.UNDETERMINED and sum(short.counts) == 4
