"""Sampling, the unbiased estimator, and the exact enumeration oracle."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatail import estimate
from alphatail import (
    DepthExceeded,
    FamilyKind,
    FamilySpec,
    FrequencyTable,
    InvalidParams,
    InvalidV,
    SamplerLimit,
    Statistic,
    TooLarge,
    catalog,
    estimator_report,
    exact_expectation,
    exact_zeta,
    format_spec,
    make_distribution,
    parse_spec,
    sample,
    t_hat,
    tn,
    true_missing_mass,
    turing,
    z1v,
    zeta1,
)


def z1v_product_form(freq: FrequencyTable, v: int) -> float:
    """Literal product form of the estimator; kept as a cross-check of the
    falling-factorial reformulation for small n."""
    n = freq.n
    if not 1 <= v <= n - 1:
        raise InvalidV(f"v must lie in [1, n-1], got v={v} with n={n}")
    front = n ** (1 + v) * factorial(n - 1 - v) / factorial(n)
    acc = 0.0
    for y in freq.counts.values():
        ph = y / n
        prod = ph
        for j in range(v):
            prod *= 1.0 - ph - j / n
        acc += prod
    return front * acc


def sample_by_lookup(dist, n: int, seed: int) -> FrequencyTable:
    """A second sampler, by inversion: n sorted uniforms counted against
    the running sum of p_k over ``prob_blocks``, one block at a time, until
    every draw is placed; a draw past the float sum of a finite table joins
    its last positive letter.  It shares no code with ``sample`` past
    ``prob_blocks``."""
    u = np.sort(np.random.default_rng(seed).random(n))
    counts, reached, below = {}, 0.0, 0
    for start, p in dist.prob_blocks(1 << 24):
        cdf = reached + np.cumsum(p)
        ends = np.searchsorted(u, cdf, side="left")  # draws below each entry
        ys = np.diff(ends, prepend=below)
        seen = np.flatnonzero(ys)
        counts.update(zip((seen + start).tolist(), ys[seen].tolist()))
        below, reached = int(ends[-1]), float(cdf[-1])
        if below == n:
            return FrequencyTable(n, counts)
        if p.any():
            last = start + int(np.flatnonzero(p)[-1])
    if dist.support_size() is None:
        raise SamplerLimit("a draw lies past the letters walked")
    counts[last] = counts.get(last, 0) + n - below
    return FrequencyTable(n, counts)


def normal_score(stat: float, df: int) -> float:
    """A chi-square statistic on df degrees of freedom as a standard normal
    score, by Wilson and Hilferty's cube root (1931)."""
    h = 2.0 / (9.0 * df)
    return ((stat / df) ** (1.0 / 3.0) - (1.0 - h)) / math.sqrt(h)


def chi_square_z(observed, expected) -> float:
    """Pearson's goodness of fit over the cells, those expecting fewer than
    5 pooled into one; a cell that expects nothing must see nothing."""
    o, e = np.asarray(observed, dtype=float), np.asarray(expected, dtype=float)
    assert not o[e <= 0.0].any()
    o, e = o[e > 0.0], e[e > 0.0]
    small = e < 5.0
    if small.any():
        o = np.append(o[~small], o[small].sum())
        e = np.append(e[~small], e[small].sum())
    return normal_score(float(((o - e) ** 2 / e).sum()), len(e) - 1)


def homogeneity_z(a: Counter, b: Counter) -> float:
    """Pearson's two-sample test that a and b count draws of one law, the
    keys seen fewer than 10 times in both pooled into one."""
    keys = sorted(set(a) | set(b))
    rare = [k for k in keys if a[k] + b[k] < 10]
    rows = [(a[k], b[k]) for k in keys if a[k] + b[k] >= 10]
    rows.append((sum(a[k] for k in rare), sum(b[k] for k in rare)))
    t = np.array([r for r in rows if sum(r)], dtype=float)
    if len(t) < 2:
        return -math.inf  # one cell: nothing to tell apart
    e = t.sum(axis=1, keepdims=True) * t.sum(axis=0) / t.sum()
    return normal_score(float(((t - e) ** 2 / e).sum()), len(t) - 1)


# a correct sampler fails a law test below with probability about 1e-6
# (one or two normal tails past 4.75); the seeds are fixed
LAW_Z = 4.75


def z1v_exact(counts, n: int, v: int) -> Fraction:
    """Z_{1,v} as a ratio of falling factorials in Python integers."""
    return Fraction(sum(y * math.perm(n - y, v) for y in counts), math.perm(n, v + 1))


FINITE_GRID = [
    [0.5, 0.5],
    [0.5, 0.3, 0.2],
    [0.4, 0.3, 0.2, 0.1],
]


def finite(vec):
    return make_distribution(FamilySpec(FamilyKind.FINITE, {"p": list(vec)}))


# mass on the letters either side of the first three block ends (64, 1,024,
# 3,072) and one past them: four blocks, each walked with a few draws
ACROSS_BLOCKS = [{1: 0.4, 64: 0.1, 65: 0.25, 1024: 0.1, 1025: 0.1, 3073: 0.05}.get(k, 0.0)
                 for k in range(1, 3074)]
CATALOG = [format_spec(s) for s in catalog()]


class TestFrequencyTable:
    def test_invariants(self):
        f = FrequencyTable(5, {1: 3, 2: 1, 7: 1})
        assert f.n1 == 2
        with pytest.raises(InvalidParams):
            FrequencyTable(4, {1: 3, 2: 2})
        with pytest.raises(InvalidParams):
            FrequencyTable(3, {1: 3, 2: 0})

    @pytest.mark.parametrize("counts", [{1: 1.5, 2: 1.5}, {1: 2.0, 2: 1}, {1: 2, 2: "1"}], ids=repr)
    def test_counts_must_be_positive_integers(self, counts):
        # counts of 1.5 were truncated to 1 by the estimator: Z_{1,1} read 0.667
        with pytest.raises(InvalidParams, match="count y must be a positive integer"):
            estimator_report(FrequencyTable(3, counts), [1])

    @pytest.mark.parametrize("letter", [0, -2, 1.5, "1"], ids=repr)
    def test_letters_must_be_positive_integers(self, letter):
        # letter 0 was taken here although from_csv refuses it
        with pytest.raises(InvalidParams, match="letter k must be a positive integer"):
            FrequencyTable(1, {letter: 1})

    def test_csv_round_trip(self):
        f = FrequencyTable(6, {3: 2, 1: 1, 12: 3})
        text = f.to_csv()
        assert text.splitlines()[0] == "k,y"
        assert FrequencyTable.from_csv(text) == f

    def test_csv_rejects_bad_header(self):
        with pytest.raises(InvalidParams):
            FrequencyTable.from_csv("a,b\n1,2\n")

    @pytest.mark.parametrize("text", [
        "k,y\n1,2\n1,3\n", "k,y\n0,2\n", "k,y\n-4,2\n",
        "k,y\n1\n", "k,y\n1,x\n", "k,y\n1,2,3\n", "k,y\n",
    ], ids=["repeated-letter", "letter-0", "letter-minus-4", "one-field", "not-an-integer",
            "three-fields", "no-rows"])
    def test_csv_rejects_bad_rows(self, text):
        with pytest.raises(InvalidParams):
            FrequencyTable.from_csv(text)


class TestSampling:
    def test_degenerate(self):
        f = sample(finite([1.0]), 5, seed=123)
        assert f.counts == {1: 5}
        assert f.n1 == 0

    def test_determinism(self, geom2):
        a = sample(geom2, 1000, seed=99)
        b = sample(geom2, 1000, seed=99)
        assert a == b

    def test_negative_seed_is_invalid(self, geom2):
        with pytest.raises(InvalidParams):
            sample(geom2, 10, seed=-1)

    @pytest.mark.parametrize("n, seed", [
        (2.5, 1), (0, 1), (-3, 1), (math.nan, 1), ("10", 1),
        (10, 2.5), (10, math.nan), (10, "1"), (10, -1),
    ], ids=repr)
    def test_n_and_seed_must_be_integers(self, geom2, n, seed):
        with pytest.raises(InvalidParams, match="n must be a positive|seed must be a nonnegative"):
            sample(geom2, n, seed)

    def test_seed_sensitivity(self, geom2):
        assert sample(geom2, 1000, seed=1) != sample(geom2, 1000, seed=2)

    def test_uniform_concentration(self, uniform2):
        f = sample(uniform2, 10 ** 5, seed=7)
        assert abs(f.counts[1] / 10 ** 5 - 0.5) < 0.01

    @pytest.mark.parametrize("spec_text", [
        "geometric:a=2", "power:lambda=2", "diffusion:stages=8",
        "congregated:base=(geometric:a=2)",
    ])
    def test_infinite_support_families(self, spec_text):
        dist = make_distribution(parse_spec(spec_text))
        f = sample(dist, 500, seed=11)
        assert sum(f.counts.values()) == 500
        assert all(k >= 1 for k in f.counts)

    def test_interior_zero_letters_never_drawn(self):
        d = finite([0.5, 0.0, 0.5])
        f = sample(d, 10 ** 4, seed=4)
        assert 2 not in f.counts
        assert set(f.counts) == {1, 3}

    def test_zero_run_inside_a_finite_vector(self):
        # a whole CDF block of zeros adds no mass, yet the vector goes on
        d = finite([0.5] + [0.0] * 200 + [0.5])
        f = sample(d, 10 ** 3, seed=5)
        assert set(f.counts) == {1, 202}

    def test_draw_beyond_prefix_raises(self):
        # a two-pair prefix only covers 93.75% of the mass, so a large
        # sample is certain to need letters the construction never built
        from alphatail import DepthExceeded
        shallow = make_distribution(parse_spec("pairavg:base=(geometric:a=2),depth=2"))
        with pytest.raises(DepthExceeded):
            sample(shallow, 500, seed=0)

    def test_heavy_draw_refused_before_growing(self, monkeypatch):
        # log-power keeps ~3% of its mass beyond 2^24 letters; the draws
        # there are counted before a block of p_k is walked
        d = make_distribution(parse_spec("logpower:lambda=2,k0=2"))
        walked = []
        monkeypatch.setattr(type(d), "prob_blocks", lambda self, stop: walked.append(stop))
        with pytest.raises(SamplerLimit):
            sample(d, 100, seed=1)
        shallow = make_distribution(parse_spec("pairavg:base=(geometric:a=2),depth=2"))
        with pytest.raises(DepthExceeded):
            sample(shallow, 500, seed=0)
        assert walked == []

    @pytest.mark.parametrize("spec_text, n, seed", [
        ("power:lambda=1.5", 10 ** 4, 2), ("power:lambda=1.5", 10 ** 6, 1),
        ("logpower:lambda=2,k0=2", 100, 1)])
    def test_draws_past_the_cap_are_refused(self, spec_text, n, seed):
        with pytest.raises(SamplerLimit, match="beyond letter 16777216"):
            sample(make_distribution(parse_spec(spec_text)), n, seed)

    def test_cap_inside_a_long_table(self, monkeypatch):
        # a level table longer than the cap is refused from its own mass
        # past the cap, about 6e-4 here: some 6 of 1e4 draws
        monkeypatch.setattr(estimate, "_MAX_LETTER", 1000)
        d = make_distribution(parse_spec("pairavg:base=(power:lambda=2),depth=4096"))
        assert d.prefix_length > 1000
        with pytest.raises(SamplerLimit, match="beyond letter 1000"):
            sample(d, 10 ** 4, seed=1)

    def test_heavy_tail_sample_memory(self):
        # one block of p_k is held at a time, not the 1.5e6 letters reached
        d = make_distribution(parse_spec("power:lambda=2"))
        tracemalloc.start()
        try:
            sample(d, 10 ** 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20

    def test_memory_does_not_grow_with_n(self, geom2):
        # 2^27 draws are counted, not held; as float64 they take 1 GiB
        tracemalloc.start()
        try:
            f = sample(geom2, 2 ** 27, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.n == 2 ** 27 and peak < 1 << 20

    def test_sample_size_cap(self, geom2, monkeypatch):
        tracemalloc.start()
        try:
            with pytest.raises(SamplerLimit):
                sample(geom2, 10 ** 13, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        monkeypatch.setattr(estimate, "_MAX_SAMPLE", 100)
        assert sample(geom2, 100, seed=1).n == 100
        with pytest.raises(SamplerLimit):
            sample(geom2, 101, seed=1)


class TestSamplingLaw:
    """The sampler's law, not its draw stream: count vectors against the
    exact multinomial, the estimator's mean against zeta_v, every catalog
    family's letters against p_k and against a second sampler."""

    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
    def test_block_share_reads_a_tight_tail(self, lam):
        # block 0 gets b / (b + T) of the draws, T = tail_mass_bound(64): T
        # is within 1e-8 of the 40-digit tail (power:lambda=2 measured
        # 1.9e-9; 2.0e-5 while power mass brackets were first order)
        mp = pytest.importorskip("mpmath")
        d = make_distribution(parse_spec(f"power:lambda={lam}"))
        with mp.workdps(40):
            tail = mp.mpf(d.norm_constant) * mp.zeta(lam, 65)
            assert 0 <= (d.tail_mass_bound(64) - tail) / tail <= 1e-8

    @pytest.mark.parametrize("vec, n", [
        ([0.5, 0.3, 0.2], 2),           # m < block length: uniforms against its CDF
        ([0.5, 0.3, 0.2], 5),           # one multinomial
        ([0.4, 0.3, 0.2, 0.1], 3),
        ([0.4, 0.3, 0.2, 0.1], 6),
        (ACROSS_BLOCKS, 3),
        (ACROSS_BLOCKS, 6),
    ], ids=["3-letters-n2", "3-letters-n5", "4-letters-n3", "4-letters-n6",
            "across-blocks-n3", "across-blocks-n6"])
    def test_count_vectors_follow_the_multinomial(self, vec, n):
        d, reps = finite(vec), 3000
        support = [k for k, p in enumerate(vec, start=1) if p > 0.0]
        probs = [d.prob(k) for k in support]
        seen = Counter()
        for seed in range(reps):
            f = sample(d, n, seed)
            assert set(f.counts) <= set(support)
            seen[tuple(f.counts.get(k, 0) for k in support)] += 1
        cells = list(estimate._count_vectors(len(support), n))
        pmf = [math.factorial(n) * math.prod(p ** y / math.factorial(y) for p, y in zip(probs, ys))
               for ys in cells]
        assert sum(seen[ys] for ys in cells) == reps
        assert chi_square_z([seen[ys] for ys in cells], [reps * q for q in pmf]) < LAW_Z

    @pytest.mark.parametrize("vec, n", [
        ([0.5, 0.3, 0.2], 8), ([0.4, 0.3, 0.2, 0.1], 3), (ACROSS_BLOCKS, 12)])
    def test_seed_mean_of_z1v_is_zeta(self, vec, n):
        d, reps = finite(vec), 3000
        vs = sorted({1, n // 2, n - 1})
        z = np.array([estimator_report(sample(d, n, seed), vs).z1v for seed in range(reps)])
        se = z.std(axis=0, ddof=1) / math.sqrt(reps)
        for v, mean, s in zip(vs, z.mean(axis=0), se):
            assert abs(mean - float(exact_zeta(d, v))) < LAW_Z * s, v

    @pytest.mark.parametrize("spec_text", CATALOG)
    def test_letters_follow_p(self, spec_text):
        # the draws of the samples that stay inside the cap are iid from
        # p_k given k <= the walk's end; keys ascend
        d, n, reps = make_distribution(parse_spec(spec_text)), 20, 500
        end = min(d.prefix_length or estimate._MAX_LETTER, estimate._MAX_LETTER)
        kept, pooled = 0, Counter()
        for seed in range(reps):
            try:
                f = sample(d, n, seed)
            except SamplerLimit:
                continue
            assert list(f.counts) == sorted(f.counts)
            kept, pooled = kept + 1, pooled + Counter(f.counts)
        L = min(end, 4096)
        inside = 1.0 - d.tail_mass_bound(end)
        expected = [kept * n * d.prob(k) / inside for k in range(1, L + 1)]
        observed = [pooled[k] for k in range(1, L + 1)]
        beyond = sum(y for k, y in pooled.items() if k > L)
        assert kept >= reps // 2
        assert chi_square_z(observed + [beyond], expected + [kept * n - sum(expected)]) < LAW_Z

    @pytest.mark.parametrize("spec_text", [s for s in CATALOG if not s.startswith("logpower")])
    def test_same_law_as_lookup(self, spec_text):
        # two-sample chi-square on the pooled letters and on the number of
        # singletons; log-power's lookup would walk to the cap for ~40% of
        # the samples, the draws the sampler refuses up front
        d, n, reps = make_distribution(parse_spec(spec_text)), 50, 300
        letters, singles = [Counter(), Counter()], [Counter(), Counter()]
        for side, draw in enumerate((sample, sample_by_lookup)):
            # seeds apart: on one seed both would read the same uniforms
            for seed in range(side * reps, (side + 1) * reps):
                try:
                    f = draw(d, n, seed)
                except SamplerLimit:
                    continue
                letters[side].update(f.counts)
                singles[side][f.n1] += 1
        for a, b in (letters, singles):
            assert homogeneity_z(a, b) < LAW_Z


class TestTuring:
    def test_examples(self):
        assert turing(FrequencyTable(2, {1: 1, 2: 1})) == 1.0
        assert turing(FrequencyTable(2, {1: 2})) == 0.0

    def test_expectation_matches_coverage_deficit(self, uniform2):
        # all four outcomes of two draws, by hand
        e = exact_expectation(uniform2, 2, Statistic.TURING)
        assert float(e) == pytest.approx(zeta1(uniform2, 1).value, abs=1e-14)


class TestMissingMass:
    def test_full_coverage(self, uniform2):
        assert true_missing_mass(uniform2, FrequencyTable(2, {1: 1, 2: 1})) == 0.0

    def test_half_coverage(self, uniform2):
        assert true_missing_mass(uniform2, FrequencyTable(2, {1: 2})) == pytest.approx(0.5, abs=1e-15)

    def test_expectation_identity_small(self):
        d = finite([0.5, 0.3, 0.2])
        e = exact_expectation(d, 4, Statistic.MISSING_MASS)
        assert abs(float(e) - zeta1(d, 4).value) < 1e-14


class TestZ1v:
    def test_two_singletons(self):
        assert z1v(FrequencyTable(2, {1: 1, 2: 1}), 1) == 1.0

    def test_collapsed_sample(self):
        assert z1v(FrequencyTable(2, {1: 2}), 1) == 0.0

    def test_single_letter_always_zero(self):
        # one observed letter: every falling factorial hits zero
        f = FrequencyTable(9, {4: 9})
        for v in range(1, 9):
            assert z1v(f, v) == 0.0

    def test_vanishing_when_counts_large(self):
        f = FrequencyTable(10, {1: 6, 2: 4})
        assert z1v(f, 7) == 0.0  # every y has n - y < v

    def test_v_range(self):
        f = FrequencyTable(4, {1: 2, 2: 2})
        with pytest.raises(InvalidV):
            z1v(f, 0)
        with pytest.raises(InvalidV):
            z1v(f, 4)

    def test_matches_product_form(self):
        rng = np.random.default_rng(3)
        for n in (6, 12, 20):
            counts, left, k = {}, n, 1
            while left:
                y = int(rng.integers(1, min(left, 4) + 1))
                counts[k] = y
                left -= y
                k += 1
            f = FrequencyTable(n, counts)
            for v in range(1, n):
                assert z1v(f, v) == pytest.approx(z1v_product_form(f, v), rel=1e-11, abs=1e-13)

    def test_exact_loggamma_crossover(self):
        # the same table shape at an even and an odd n
        for n in (30, 31):
            counts = {i + 1: 2 for i in range(n // 2)}
            if n % 2:
                counts[n] = 1
            f = FrequencyTable(n, counts)
            for v in (1, 3, n // 2, n - 1):
                a = z1v(f, v)
                b = z1v_product_form(f, v)
                assert a == pytest.approx(b, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("n", [10 ** 4, 10 ** 5])
    def test_matches_exact_rational_at_scale(self, n):
        f = sample(make_distribution(parse_spec("power:lambda=2")), n, seed=1)
        vs = [1, 10, 100, 1000]
        rep = estimator_report(f, vs)
        for v, z in zip(vs, rep.z1v):
            exact = float(z1v_exact(f.counts.values(), n, v))
            assert abs(z1v(f, v) - exact) <= 1e-14 * exact
            assert abs(z - exact) <= 1e-14 * exact

    def test_matches_fraction_for_small_n(self):
        rng = np.random.default_rng(11)
        for n in range(2, 31):
            for cap in (1, 2, 4, n):
                counts, left, k = {}, n, 1
                while left:
                    y = int(rng.integers(1, min(left, cap) + 1))
                    counts[k] = y
                    left -= y
                    k += 1
                f = FrequencyTable(n, counts)
                for v in range(1, n):
                    exact = float(z1v_exact(counts.values(), n, v))
                    assert abs(z1v(f, v) - exact) <= 16 * math.ulp(exact)

    def test_single_v_matches_report_on_both_orientations(self):
        # one v runs over the letters' counts y when Y * v <= y_max and over
        # v otherwise; the full report runs over y for every v
        n = 10 ** 4
        f = sample(make_distribution(parse_spec("power:lambda=2")), n, seed=1)
        distinct, y_max = len(set(f.counts.values())), max(f.counts.values())
        vs = [1, 10, 100, 1000, 5000, n - 1]
        assert {distinct * v <= y_max for v in vs} == {True, False}
        rep = estimator_report(f, range(1, n))
        for v in vs:
            assert z1v(f, v) == pytest.approx(rep.z1v[v - 1], rel=1e-13)

    def test_report_edges(self):
        f = FrequencyTable(4, {1: 2, 2: 2})
        empty = estimator_report(f, [])
        assert empty.v_values == empty.z1v == empty.t_hat == []
        for vs in ([1, 4], [0], [2, 3, 5]):
            with pytest.raises(InvalidV):
                estimator_report(f, vs)
        rep = estimator_report(f, [3, 1, 3])
        assert rep.z1v == [z1v(f, 3), z1v(f, 1), z1v(f, 3)]

    @pytest.mark.parametrize("v", [2.5, 2.0, math.nan, -1, "2", None])
    def test_v_must_be_an_integer(self, v):
        # 2.5 was evaluated as v = 2
        f = FrequencyTable(4, {1: 2, 2: 2})
        with pytest.raises(InvalidV):
            estimator_report(f, [1, v])

    def test_numpy_integer_orders(self):
        f = FrequencyTable(4, {1: 2, 2: 2})
        assert estimator_report(f, np.array([1, 3])) == estimator_report(f, [1, 3])

    def test_t_hat_scaling(self):
        f = FrequencyTable(2, {1: 1, 2: 1})
        assert t_hat(f, 1) == 1.0
        assert t_hat(FrequencyTable(2, {1: 2}), 1) == 0.0

    def test_report_identity(self, geom2):
        f = sample(geom2, 50, seed=17)
        rep = estimator_report(f, range(1, 50))
        for v, z, t in zip(rep.v_values, rep.z1v, rep.t_hat):
            assert t == v * z


class TestExactOracle:
    @pytest.mark.parametrize("vec", FINITE_GRID)
    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_unbiasedness_exact(self, vec, n):
        d = finite(vec)
        for v in range(1, n):
            lhs = exact_expectation(d, n, Statistic.Z1V, v=v)
            rhs = exact_zeta(d, v)
            assert lhs == rhs  # exact rational identity

    @pytest.mark.parametrize("vec", FINITE_GRID)
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_turing_and_missing_mass_identities(self, vec, n):
        d = finite(vec)
        assert exact_expectation(d, n, Statistic.TURING) == exact_zeta(d, n - 1)
        assert exact_expectation(d, n, Statistic.MISSING_MASS) == exact_zeta(d, n)

    def test_worked_example(self):
        d = finite([0.5, 0.3, 0.2])
        e = exact_expectation(d, 6, Statistic.Z1V, v=3)
        # 0.5*0.5^3 + 0.3*0.7^3 + 0.2*0.8^3, up to the 1e-15 float-to-rational dust
        assert float(e) == pytest.approx(0.2678, abs=1e-12)

    def test_degenerate_missing_mass(self):
        d = finite([1.0])
        assert exact_expectation(d, 5, Statistic.MISSING_MASS) == 0

    def test_size_guards(self, geom2):
        with pytest.raises(TooLarge):
            exact_expectation(finite([0.5, 0.5]), 13, Statistic.TURING)
        with pytest.raises(TooLarge):
            exact_expectation(geom2, 4, Statistic.TURING)
        with pytest.raises(InvalidV):
            exact_expectation(finite([0.5, 0.5]), 4, Statistic.Z1V, v=4)

    @pytest.mark.parametrize("n", [0, -1, 2.5, "4"], ids=repr)
    def test_n_must_be_a_positive_integer(self, n):
        # n = 0 ended in a ZeroDivisionError and n = -1 returned 0
        with pytest.raises(InvalidParams, match="n must be a positive integer"):
            exact_expectation(finite([0.5, 0.5]), n, Statistic.TURING)

    @pytest.mark.parametrize("v", [-1, 1.5, "2", None], ids=repr)
    def test_zeta_order_must_be_a_nonnegative_integer(self, v):
        # v = -1 returned 2
        d = finite([0.5, 0.5])
        with pytest.raises(InvalidV, match="v must be a nonnegative integer"):
            exact_zeta(d, v)
        assert exact_zeta(d, 0) == 1

    def test_zero_entries_keep_counts_aligned(self):
        d = make_distribution(parse_spec("finite:p=0.5;0;0.5"))
        assert exact_zeta(d, 1) == Fraction(1, 2)
        assert exact_expectation(d, 4, Statistic.Z1V, v=1) == exact_zeta(d, 1)

    def test_returns_exact_rationals(self, uniform2):
        e = exact_expectation(uniform2, 2, Statistic.Z1V, v=1)
        assert isinstance(e, Fraction)
        assert e == Fraction(1, 2)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=25, deadline=None)
def test_property_samples_are_valid_tables(n, seed):
    dist = make_distribution(parse_spec("geometric:a=2"))
    f = sample(dist, n, seed)
    assert sum(f.counts.values()) == n
    assert f.n1 == sum(1 for y in f.counts.values() if y == 1)
    assert 0.0 <= turing(f) <= 1.0


def test_monte_carlo_consistency(geom2):
    """Mean of t_hat over many seeded samples tracks t_v computed directly."""
    n, v, reps = 200, 100, 10 ** 4
    vals = np.empty(reps)
    for seed in range(reps):
        vals[seed] = t_hat(sample(geom2, n, seed), v)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(reps)
    target = tn(geom2, v).value
    assert abs(mean - target) <= 3.0 * se
