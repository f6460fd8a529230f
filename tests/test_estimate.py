"""Sampling, the unbiased estimator, and the exact enumeration oracle."""

import hashlib
import math
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatail import estimate
from alphatail import (
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


def grown_cdf(dist, u_max: float) -> np.ndarray:
    """The sampler's CDF blocks for a largest draw u_max, concatenated."""
    return np.concatenate([cdf for _, cdf in estimate._cdf_blocks(dist, u_max)])


def sample_by_lookup(dist, n: int, seed: int) -> FrequencyTable:
    """The sampler's per-draw form: search every draw in the concatenated CDF
    blocks, clamp draws past the end of a table onto its last letter, and
    count with np.unique; kept as the reference for counting the sorted
    sample block by block."""
    u = np.random.default_rng(seed).random(n)
    u_max = float(u.max())
    cdf = grown_cdf(dist, u_max)
    letters = np.searchsorted(cdf, u, side="right") + 1
    if u_max >= cdf[-1]:
        letters = np.minimum(letters, len(cdf))
    ks, ys = np.unique(letters, return_counts=True)
    return FrequencyTable(n, {int(k): int(y) for k, y in zip(ks, ys)})


def drop_table_end(monkeypatch):
    """Make the sampler's CDF end one entry early, as a table whose float
    sum rounds below the largest draw would."""
    blocks = estimate._cdf_blocks

    def short_table(dist, u_max):
        *head, (start, cdf) = blocks(dist, u_max)
        return iter([*head, (start, cdf[:-1])])

    monkeypatch.setattr(estimate, "_cdf_blocks", short_table)


def assert_same_sample(got: FrequencyTable, want: FrequencyTable):
    assert got == want
    assert list(got.counts) == list(want.counts)  # key order too


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


class TestFrequencyTable:
    def test_invariants(self):
        f = FrequencyTable(5, {1: 3, 2: 1, 7: 1})
        assert f.n1 == 2
        with pytest.raises(InvalidParams):
            FrequencyTable(4, {1: 3, 2: 2})
        with pytest.raises(InvalidParams):
            FrequencyTable(3, {1: 3, 2: 0})

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

    def test_grown_cdf_is_one_cumsum(self):
        d = make_distribution(parse_spec("power:lambda=2"))
        cdf = grown_cdf(d, 1.0 - 1e-4)
        with np.errstate(under="ignore"):
            ref = np.cumsum(np.exp(d.log_prob_block(1, len(cdf) + 1)))
        assert len(cdf) > 4096  # seven blocks
        assert np.array_equal(cdf, ref)

    def test_grown_cdf_stops_within_one_capped_block(self):
        # blocks that kept doubling built 4,194,240 entries for ~3.04e6 letters
        d = make_distribution(parse_spec("power:lambda=2"))
        u_max = 1.0 - 2e-7
        cdf = grown_cdf(d, u_max)
        needed = int(np.searchsorted(cdf, u_max, side="right")) + 1
        assert needed <= len(cdf) < needed + (1 << 16)
        with np.errstate(under="ignore"):
            ref = np.cumsum(np.exp(d.log_prob_block(1, len(cdf) + 1)))
        assert np.array_equal(cdf, ref)

    def test_draw_beyond_prefix_raises(self):
        # a two-pair prefix only covers 93.75% of the mass, so a large
        # sample is certain to need letters the construction never built
        from alphatail import DepthExceeded
        shallow = make_distribution(parse_spec("pairavg:base=(geometric:a=2),depth=2"))
        with pytest.raises(DepthExceeded):
            sample(shallow, 500, seed=0)

    @pytest.mark.parametrize("a, reached", [("3", "0.9999999999999998"), ("1.0001", "0.9999999999996189")])
    def test_cdf_that_stalls_in_floating_point_raises(self, a, reached):
        # the float CDF of geometric a=3 tops out at 1 - 2^-52, that of
        # a=1.0001 further below, so the largest draw 1 - 2^-53 would
        # otherwise be searched for up to the 2^24-letter cap
        d = make_distribution(parse_spec(f"geometric:a={a}"))
        with pytest.raises(SamplerLimit, match=f"the CDF stops at {reached} in floating point"):
            grown_cdf(d, 1.0 - 2.0 ** -53)

    def test_heavy_draw_refused_before_growing(self):
        # log-power keeps ~3% of its mass beyond 2^24 letters
        d = make_distribution(parse_spec("logpower:lambda=2,k0=2"))
        with pytest.raises(SamplerLimit):
            sample(d, 100, seed=1)

    def test_cdf_cap_during_growth(self, monkeypatch):
        # no certified lower tail mass here, so only the growth loop sees the cap
        monkeypatch.setattr(estimate, "_MAX_CDF_ENTRIES", 1000)
        d = make_distribution(parse_spec("pairavg:base=(power:lambda=2),depth=4096"))
        assert d.tail_mass_lower(1000) == 0.0
        with pytest.raises(SamplerLimit):
            grown_cdf(d, 1.0 - 1e-4)

    def test_heavy_tail_sample_memory(self):
        # one CDF block is held at a time, not the 4.5e6 letters it reaches
        d = make_distribution(parse_spec("power:lambda=2"))
        tracemalloc.start()
        try:
            sample(d, 10 ** 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20

    @pytest.mark.parametrize("spec_text", [format_spec(s) for s in catalog()])
    def test_counts_match_per_draw_lookup(self, spec_text):
        dist = make_distribution(parse_spec(spec_text))
        for n in (1, 2, 64, 10 ** 3, 10 ** 5):
            for seed in range(1, 21):
                try:
                    want = sample_by_lookup(dist, n, seed)
                except SamplerLimit:
                    with pytest.raises(SamplerLimit):
                        sample(dist, n, seed)
                    continue
                assert_same_sample(sample(dist, n, seed), want)

    @pytest.mark.parametrize("spec_text, n, seed, longer", [
        ("power:lambda=2", 100, 5, True),   # 960 CDF entries
        ("power:lambda=2", 100, 1, False),  # 64
        ("power:lambda=2", 10 ** 4, 2, True),
        ("power:lambda=2", 10 ** 4, 4, False),
        ("geometric:a=2", 1, 1, True),
        ("geometric:a=2", 10 ** 4, 1, False),
    ])
    def test_both_counting_paths(self, spec_text, n, seed, longer):
        # a CDF longer than the sample and one shorter count alike
        dist = make_distribution(parse_spec(spec_text))
        u_max = float(np.random.default_rng(seed).random(n).max())
        assert (len(grown_cdf(dist, u_max)) > n) == longer
        assert_same_sample(sample(dist, n, seed), sample_by_lookup(dist, n, seed))

    @pytest.mark.parametrize("n", [1, 10 ** 3])
    def test_draws_past_a_table_end_join_its_last_letter(self, monkeypatch, n):
        # without its last entry the table ends at 0.8, so every draw above
        # lands past cdf[-1]; n = 1 puts one draw against a 2-entry table
        d = finite([0.5, 0.3, 0.2])
        drop_table_end(monkeypatch)
        clamped = 0
        for seed in range(1, 21):
            u = np.random.default_rng(seed).random(n)
            clamped += int((u >= 0.8).sum())
            f = sample(d, n, seed)
            assert set(f.counts) <= {1, 2}
            assert_same_sample(f, sample_by_lookup(d, n, seed))
        assert clamped > 0

    def test_table_end_in_a_later_block(self, monkeypatch):
        # 100 letters take blocks of 64 and 36; the draws past the shortened
        # table join letter 99, counted from the last block's first letter
        d = finite([0.01] * 100)
        drop_table_end(monkeypatch)
        f = sample(d, 10 ** 3, seed=3)
        assert max(f.counts) == 99
        assert_same_sample(f, sample_by_lookup(d, 10 ** 3, seed=3))

    @pytest.mark.parametrize("n, picks", [(10 ** 3, [10, 500, 999]), (3, [0, 1, 2])])
    def test_draw_equal_to_a_cdf_entry_takes_the_next_letter(self, monkeypatch, n, picks):
        # CDF entries placed on draws themselves: 3 of 1000 draws, and all
        # 3 draws against 4 entries
        u = np.sort(np.random.default_rng(9).random(n))
        cdf = np.append(u[picks], 1.0)
        monkeypatch.setattr(estimate, "_cdf_blocks", lambda dist, u_max: iter([(1, cdf)]))
        f = sample(finite([0.25] * 4), n, seed=9)
        assert_same_sample(f, sample_by_lookup(finite([0.25] * 4), n, seed=9))
        assert f.counts.get(1, 0) == picks[0]

    @pytest.mark.parametrize("spec_text, n, seed, digest", [
        ("geometric:a=2", 10 ** 5, 1,
         "1261744ac130cbbf57ae374d52f1344a68221357230f8d65bc97d45f47a3d705"),
        ("power:lambda=2", 100, 7,
         "3223360f460e04849d5c8b7abfef291c24140d6ac5aba6294232fa63dc5588e3"),
        ("diffusion:stages=8", 10 ** 3, 3,
         "b26289038bc13c4b65475ae64c1a6977a30a0eac6b7f840c37c3f6051a82263b"),
        ("pairavg:base=(geometric:a=2)", 64, 20,
         "98baef6f2efc8a90975c638ef83bc4ec32d1653ba79cd04172e40614bbc74d3b"),
    ])
    def test_seeded_samples_are_pinned(self, spec_text, n, seed, digest):
        f = sample(make_distribution(parse_spec(spec_text)), n, seed)
        assert hashlib.sha256(repr(sorted(f.counts.items())).encode()).hexdigest() == digest

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
