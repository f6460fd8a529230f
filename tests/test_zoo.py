"""Family catalog: normalization certificates, constructions, spec parsing."""

import math

import numpy as np
import pytest

from alphatail import zoo
from alphatail import (
    DepthExceeded,
    DiffusionRun,
    FamilyKind,
    InvalidBase,
    InvalidParams,
    NormalizationDivergent,
    SpecParseError,
    StagesExceeded,
    catalog,
    format_spec,
    make_distribution,
    parse_spec,
)

ALL_SPECS = [format_spec(s) for s in catalog()]


def brute_force_power_norm(lam: float, terms: int = 10 ** 7) -> tuple[float, float]:
    """Independent oracle: partial sum plus integral tail bracket."""
    ks = np.arange(1, terms + 1, dtype=np.float64)
    partial = float(np.sum(ks ** -lam))
    lo = (terms + 1.0) ** (1 - lam) / (lam - 1)
    hi = terms ** (1.0 - lam) / (lam - 1)
    total_mid = partial + 0.5 * (lo + hi)
    return 1.0 / total_mid, 0.5 * (hi - lo)


def test_power_normalization_against_brute_force():
    dist = make_distribution(parse_spec("power:lambda=2"))
    oracle, half = brute_force_power_norm(2.0)
    assert abs(dist.norm_constant - oracle) <= 1e-9
    # and the analytically known value of 1/sum(k^-2)
    assert abs(dist.norm_constant - 6.0 / math.pi ** 2) <= 1e-12


def test_geometric_normalization_exact():
    d2 = make_distribution(parse_spec("geometric:a=2"))
    assert abs(d2.norm_constant - 1.0) <= 1e-14
    de = make_distribution(parse_spec(f"geometric:a={math.e!r}"))
    assert abs(de.norm_constant - (math.e - 1.0)) <= 1e-13


def test_finite_distribution_basics():
    d = make_distribution(parse_spec("finite:p=0.5;0.3;0.2"))
    assert d.support_size() == 3
    assert d.norm_constant == pytest.approx(1.0, abs=1e-12)
    assert d.prob(5) == 0.0
    assert d.prob(1) == pytest.approx(0.5, rel=1e-15)


def test_finite_vector_is_a_complete_level_table():
    d = make_distribution(parse_spec("finite:p=0.5;0;0.5"))
    assert d.support_size() == 2
    assert d.prefix_length == 3
    assert d.beyond_prefix_log2_mass == -math.inf
    assert d.levels() == [(-1.0, 1), (-math.inf, 1), (-1.0, 1)]
    assert d.prob(2) == 0.0 and d.prob(4) == 0.0
    assert d.log_prob_block(2, 6).tolist() == [-math.inf, d.log_prob(3), -math.inf, -math.inf]
    assert d.tail_mass_bound(2) >= 0.5
    for K in (3, 4, 100):
        assert d.tail_mass_bound(K) == 0.0


def test_past_a_constructed_prefix_is_unknown(pairavg2):
    end = pairavg2.prefix_length
    assert pairavg2.prob(end) > 0.0
    with pytest.raises(DepthExceeded):
        pairavg2.prob(end + 1)
    with pytest.raises(DepthExceeded):
        pairavg2.log_prob_block(end - 1, end + 2)
    assert pairavg2.tail_mass_bound(end) > 0.0


def test_prob_examples():
    g = make_distribution(parse_spec("geometric:a=2"))
    assert g.prob(3) == pytest.approx(0.125, rel=1e-14)
    p = make_distribution(parse_spec("power:lambda=2"))
    assert p.prob(2) == pytest.approx((6 / math.pi ** 2) / 4, rel=1e-12)


@pytest.mark.parametrize("spec_text", ALL_SPECS)
def test_mass_certificate_on_grid(spec_text):
    """Partial sums plus the tail bound must always cover the unit mass."""
    dist = make_distribution(parse_spec(spec_text))
    limit = dist.prefix_length or 10 ** 5
    if dist.support_size() is not None:
        limit = dist.support_size()
    for K in (1, 10, 100, 1000, 10 ** 5):
        K = min(K, limit)
        with np.errstate(under="ignore"):
            partial = float(np.exp(dist.log_prob_block(1, K + 1)).sum())
        assert partial <= 1.0 + 1e-12
        assert partial + dist.tail_mass_bound(K) >= 1.0 - 1e-10
        assert partial + dist.tail_mass_lower(K) <= 1.0 + 1e-10


# (norm_constant, mass_halfwidth, [(tail_mass_bound(K), tail_mass_lower(K))
# for K in TAIL_KS]) as float.hex(): the power rows computed while the power
# and log-power mass brackets still had formulas of their own in zoo, before
# they became the series sandwich at n = 0; the log-power rows with its
# second-order bracket, each checked against 40-digit mpmath sums
TAIL_KS = (1, 10, 255, 10 ** 3, 10 ** 6)
PINNED_TAILS = {
    "power:lambda=1.01": ("0x1.45cc0d45476d1p-7", "0x1.f5e4ab2631896p-51", [
        ("0x1.faff80de88ff2p-1", "0x1.face332038399p-1"),
        ("0x1.f13a4abd04698p-1", "0x1.f138ec2d6c3bcp-1"),
        ("0x1.e19b897551d93p-1", "0x1.e19b88d976951p-1"),
        ("0x1.db140065d1e01p-1", "0x1.db14005bc61c2p-1"),
        ("0x1.bb5ef4d12f2adp-1", "0x1.bb5ef4d12f2a3p-1"),
    ]),
    "power:lambda=1.5": ("0x1.87fafd259c5f5p-2", "0x1.06a4c820d19b5p-49", [
        ("0x1.400cf92a9f620p-1", "0x1.37d18a73ac09cp-1"),
        ("0x1.e3df0326db677p-3", "0x1.e37d8b9d245c2p-3"),
        ("0x1.885d20b3c405dp-5", "0x1.885cfbe4e5c66p-5"),
        ("0x1.8c8ea2fce6c73p-6", "0x1.8c8ea08e5019cp-6"),
        ("0x1.91634a7858d5fp-11", "0x1.91634a7858ac8p-11"),
    ]),
    "power:lambda=2": ("0x1.37423899a155bp-1", "0x1.b1efe4933b486p-49", [
        ("0x1.9f02f6222c724p-2", "0x1.8512c6c009ab2p-2"),
        ("0x1.da4c87027bf04p-5", "0x1.d951a894fdcc6p-5"),
        ("0x1.37de27ad7811bp-9", "0x1.37ddd9b5ee266p-9"),
        ("0x1.3e91d1472344ep-11", "0x1.3e91cc11a0dd4p-11"),
        ("0x1.4660d2a8e5c55p-21", "0x1.4660d2a8e56bap-21"),
    ]),
    "power:lambda=3": ("0x1.a9efc35d12237p-1", "0x1.b52d3645c27c2p-50", [
        ("0x1.7a9c3be0f3adbp-3", "0x1.3f73d285cd9a9p-3"),
        ("0x1.ee82eaf191ddbp-9", "0x1.eb8a04442b3e4p-9"),
        ("0x1.ab9af369bf081p-18", "0x1.ab99b3206f359p-18"),
        ("0x1.be2e3a56fa80bp-22", "0x1.be2e2475ce198p-22"),
        ("0x1.d4525e191e12ep-42", "0x1.d4525e191c90ap-42"),
    ]),
    "logpower:lambda=1.5,k0=5": ("0x1.3a6187e0c5d8dp-1", "0x1.1f3820ae4e598p-49", [
        ("0x1.e1356fba78514p-1", "0x1.e133c8d648f29p-1"),
        ("0x1.8079acc8ff937p-1", "0x1.8079a905b6e07p-1"),
        ("0x1.0aaf2c198e3bap-1", "0x1.0aaf2c198da8dp-1"),
        ("0x1.de4e93d5863e2p-2", "0x1.de4e93d5863d5p-2"),
        ("0x1.5252eceb67ecfp-2", "0x1.5252eceb67ecfp-2"),
    ]),
    "logpower:lambda=2,k0=2": ("0x1.e55e022e5eb22p-2", "0x1.5c225945ff3d0p-50", [
        ("0x1.03a9ca293c7aap-1", "0x1.032f679a00d74p-1"),
        ("0x1.8d5ded0a87228p-3", "0x1.8d5dd04125d21p-3"),
        ("0x1.5dfec77f227e3p-4", "0x1.5dfec77f20abap-4"),
        ("0x1.18fed4beb93a3p-4", "0x1.18fed4beb9390p-4"),
        ("0x1.190e6eba20901p-5", "0x1.190e6eba20901p-5"),
    ]),
    "logpower:lambda=3,k0=17": ("0x1.f714208ff906bp+3", "0x1.c3553c1f8d7e6p-49", [
        ("0x1.eb2e41433c6bap-1", "0x1.eb2e31ce64fc2p-1"),
        ("0x1.76b7cc8d65e08p-1", "0x1.76b7cacbede45p-1"),
        ("0x1.004f5375742e5p-2", "0x1.004f537571784p-2"),
        ("0x1.4fc8072358112p-3", "0x1.4fc80723580dep-3"),
        ("0x1.515f9b26bab2dp-5", "0x1.515f9b26bab2dp-5"),
    ]),
}


@pytest.mark.parametrize("spec_text", list(PINNED_TAILS))
def test_power_type_tails_are_pinned(spec_text):
    dist = make_distribution(parse_spec(spec_text))
    norm, halfwidth, tails = PINNED_TAILS[spec_text]
    assert (dist.norm_constant.hex(), dist.mass_halfwidth.hex()) == (norm, halfwidth)
    assert [(dist.tail_mass_bound(K).hex(), dist.tail_mass_lower(K).hex()) for K in TAIL_KS] == tails


def test_mass_bracket_is_the_sandwich_written_out():
    # at n = 0 the kernel is 1 and the power tail integral is
    # y^{1-lam}/(lam-1) in closed form, so the power mass bracket is bit for
    # bit the trapezoid/midpoint sandwich written out
    rng = np.random.default_rng(16)
    for _ in range(2000):
        lam = float(rng.uniform(1.01, 7.3))
        K = int(2.0 ** rng.uniform(0.0, 27.0))
        lo = (K + 1.0) ** (1.0 - lam) / (lam - 1.0) + 0.5 * (K + 1.0) ** -lam
        hi = (K + 0.5) ** (1.0 - lam) / (lam - 1.0)
        assert zoo._tail_bracket(FamilyKind.POWER, {"lambda": lam}, K) == (lo, hi)


@pytest.mark.parametrize("lam", [1.1, 1.5, 2.0, 3.0])
def test_logpower_mass_bracket_contains_mpmath(lam):
    # at n = 0 the log-power mass bracket is second-order Euler-Maclaurin:
    # sum_{k>K} 1/(j ln^lam j), j = k+k0-1, in 40 digits lies in it within
    # 4 ulps of rounding, and inside it where it is wider than that
    mp = pytest.importorskip("mpmath")
    for k0 in (2, 3, 17):
        for K in (1, 2, 10, 255, 10 ** 3, 10 ** 6):
            lo, hi = zoo._tail_bracket(FamilyKind.LOG_POWER, {"lambda": lam, "k0": k0}, K)
            with mp.workdps(40):
                m_lam = mp.mpf(lam)
                g = lambda x: 1 / ((x + k0 - 1) * mp.log(x + k0 - 1) ** m_lam)  # noqa: E731
                M = K + 200
                em = g(mp.mpf(M)) / 2 + mp.fsum(
                    mp.bernoulli(2 * i) / mp.factorial(2 * i) * mp.diff(g, M, 2 * i - 1) for i in range(1, 4))
                want = (mp.fsum(g(mp.mpf(k)) for k in range(K + 1, M + 1))
                        + mp.log(M + k0 - 1) ** (1 - m_lam) / (m_lam - 1) - em)
            slack = 4.0 * math.ulp(hi)
            assert lo - slack <= want <= hi + slack, (k0, K)
            if hi - lo > 1e3 * slack:
                assert lo < want < hi, (k0, K)


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
def test_mass_bracket_contains_hurwitz_zeta(lam):
    # at n = 0 the series sandwich brackets the unnormalized tail mass
    # sum_{k>K} k^-lam, which is Hurwitz's zeta(lam, K+1)
    mp = pytest.importorskip("mpmath")
    sandwich = zoo.tail_sandwich(FamilyKind.POWER, 1.0, {"lambda": lam}, 0.0, zoo.Kernel.BINOMIAL)
    for K in (1, 10, 10 ** 3, 10 ** 6):
        lo, hi = sandwich.bracket(K)
        with mp.workdps(40):
            want = float(mp.zeta(lam, K + 1))
        assert lo < want < hi, K


@pytest.mark.parametrize("spec_text", [
    "geometric:a=2", "geometric:a=2.718281828459045", "gaussian:lambda=1",
    "tilted:lambda=1,r=-1", "tilted:lambda=1,r=1", "power:lambda=2",
    "power:lambda=1.5", "logpower:lambda=2,k0=2",
])
def test_non_increasing_beyond_head(spec_text):
    dist = make_distribution(parse_spec(spec_text))
    lp = dist.log_prob_block(dist.k0_head, 10 ** 5)
    assert np.all(np.diff(lp) <= 1e-18)


def test_tail_mass_bound_examples(geom2):
    assert geom2.tail_mass_bound(10) == pytest.approx(2.0 ** -10, rel=1e-12)
    f = make_distribution(parse_spec("finite:p=0.5;0.3;0.2"))
    assert f.tail_mass_bound(3) == 0.0
    # power bound must sit above the brute-force tail
    p = make_distribution(parse_spec("power:lambda=2"))
    ks = np.arange(101, 10 ** 7, dtype=np.float64)
    true_tail = float(np.sum(p.norm_constant * ks ** -2.0))
    bound = p.tail_mass_bound(100)
    assert true_tail <= bound <= true_tail * 1.05
    assert bound == pytest.approx((6 / math.pi ** 2) / 100, rel=1e-2)


def test_level_arrays_match_levels(diffusion14):
    l2, counts = diffusion14.level_arrays()
    assert l2.tolist() == [e for e, _ in diffusion14.levels()]
    assert counts.tolist() == [c for _, c in diffusion14.levels()]
    assert counts.sum() == diffusion14.prefix_length
    with pytest.raises(ValueError):
        l2[0] = 0.0
    with pytest.raises(InvalidParams):
        make_distribution(parse_spec("geometric:a=2")).level_arrays()


@pytest.mark.parametrize("spec_text", [
    s for s in ALL_SPECS if make_distribution(parse_spec(s)).prefix_length is not None
] + ["finite:p=0.2;0;0.5;0.3", "finite:p=0.25;0.5;0.25", "finite:p=1e-300;0.5;1e-200;0.5;1e-30",
      "congregated:base=(geometric:a=1.2)", "pairavg:base=(gaussian:lambda=0.01)",
      "diffusion:stages=14"])
def test_descending_levels(spec_text):
    dist = make_distribution(parse_spec(spec_text))
    l2, counts = dist.level_arrays()
    desc_l2, desc_counts = dist.descending_levels()
    assert np.all(desc_l2[1:] <= desc_l2[:-1])
    # a stable sort of the table by non-increasing p
    pairs = sorted(zip(l2.tolist(), counts.tolist()), key=lambda pair: -pair[0])
    assert list(zip(desc_l2.tolist(), desc_counts.tolist())) == pairs
    with pytest.raises(ValueError):
        desc_l2[0] = 0.0
    if dist.kind is not FamilyKind.FINITE:
        # a constructed table is already non-increasing: no copy
        assert np.shares_memory(desc_l2, l2) and desc_counts is counts
    assert dist.descending_levels()[0] is desc_l2
    with pytest.raises(InvalidParams):
        make_distribution(parse_spec("geometric:a=2")).descending_levels()


@pytest.mark.parametrize("spec_text", [
    "finite:p=0.2;0;0.5;0.3", "congregated:base=(geometric:a=2)", "diffusion:stages=14",
])
def test_positive_levels_are_the_levels_with_p_above_zero(spec_text):
    dist = make_distribution(parse_spec(spec_text))
    l2, counts = dist.level_arrays()
    with np.errstate(under="ignore"):
        p = np.exp(math.log(2.0) * l2)
    live_p, live_counts = dist.positive_levels()
    assert live_p.tolist() == p[p > 0.0].tolist()
    assert live_counts.tolist() == counts[p > 0.0].tolist()
    with pytest.raises(ValueError):
        live_p[0] = 0.0
    with pytest.raises(InvalidParams):
        make_distribution(parse_spec("geometric:a=2")).positive_levels()


@pytest.mark.parametrize("depth", [535, 536])
def test_subnormal_beyond_mass_is_kept(depth):
    # the base's exact tail past index 2 depth is 2^-(2 depth), a subnormal
    dist = make_distribution(parse_spec(f"pairavg:base=(geometric:a=2),depth={depth}"))
    true_beyond = 2.0 ** -(2 * depth)
    assert 0.0 < true_beyond < 2.0 ** -1022
    assert dist.tail_mass_bound(dist.prefix_length) >= true_beyond


class TestCongregated:
    def test_group_values(self, congregated2, geom2):
        # indices 2,3 share the base value at index 3
        assert congregated2.prob(2) == pytest.approx(0.125, rel=1e-12)
        assert congregated2.prob(3) == congregated2.prob(2)
        # group of size 3 covers indices 4..6 at the base value of index 6
        for k in (4, 5, 6):
            assert congregated2.prob(k) == pytest.approx(2.0 ** -6, rel=1e-12)

    def test_leading_mass_against_direct_sum(self, congregated2):
        # independent summation of m * q_{m(m+1)/2}; terms vanish fast
        s = math.fsum(m * 2.0 ** -(m * (m + 1) // 2) for m in range(2, 80))
        assert congregated2.prob(1) == pytest.approx(1.0 - s, abs=1e-13)
        assert congregated2.prob(1) == pytest.approx(0.69906, abs=5e-6)

    def test_thinner_tail_pointwise(self, congregated2, geom2):
        for k in range(2, 200):
            assert congregated2.prob(k) <= geom2.prob(k) * (1 + 1e-12)

    def test_group_multiplicity(self, congregated2, geom2):
        # exactly m indices carry the value q_{m(m+1)/2}
        for m in (2, 3, 5, 8):
            v = geom2.prob(m * (m + 1) // 2)
            hits = sum(
                1 for k in range(1, 100)
                if congregated2.prob(k) == pytest.approx(v, rel=1e-12)
            )
            assert hits == m

    def test_congregation_property(self, congregated2, geom2):
        # at least m values inside (q_{m(m+1)/2+1}, q_{m(m+1)/2}]
        for m in (2, 3, 5, 8, 9):
            top = geom2.prob(m * (m + 1) // 2)
            bot = geom2.prob(m * (m + 1) // 2 + 1)
            hits = sum(
                1 for k in range(1, 200)
                if bot < congregated2.prob(k) <= top
            )
            assert hits >= m

    def test_rejects_bad_base(self):
        with pytest.raises(InvalidBase):
            make_distribution(parse_spec("congregated:base=(finite:p=0.5;0.5)"))
        with pytest.raises(InvalidBase):
            # positive tilt is not strictly decreasing at the head
            make_distribution(parse_spec("congregated:base=(tilted:lambda=1,r=1)"))


class TestPairAveraged:
    def test_pair_values(self, pairavg2):
        assert pairavg2.prob(1) == pytest.approx(0.375, rel=1e-14)
        assert pairavg2.prob(2) == pairavg2.prob(1)
        assert pairavg2.prob(3) == pytest.approx(0.09375, rel=1e-13)
        assert pairavg2.prob(4) == pairavg2.prob(3)

    def test_straddles_base(self, pairavg2, geom2):
        # the average sits strictly between the pair's base values, so the
        # even index gains mass and the odd index loses it; p > q infinitely
        # often is what rules out a thinner tail in the usual sense
        for m in range(1, 100):
            assert pairavg2.prob(2 * m) > geom2.prob(2 * m)
            assert pairavg2.prob(2 * m - 1) < geom2.prob(2 * m - 1)

    def test_mass_preserved(self, pairavg2):
        n = pairavg2.prefix_length
        with np.errstate(under="ignore"):
            prefix = math.fsum(np.exp(pairavg2.log_prob_block(1, n + 1)).tolist())
        tail = 2.0 ** -n  # exact dyadic base tail beyond the prefix
        assert prefix + tail == pytest.approx(1.0, abs=1e-12)


def diffusion_by_emit(stages: int):
    """The diffusion table emitted one term at a time: the reference that the
    stage-wise construction must reproduce.  Returns (levels, runs, log2 of
    the mass beyond)."""
    levels: list[tuple[int, int]] = []
    runs: list[DiffusionRun] = []

    def emit(exponent: int, count: int = 1) -> None:
        if levels and levels[-1][0] == exponent:
            levels[-1] = (exponent, levels[-1][1] + count)
        else:
            levels.append((exponent, count))

    j_used = 0
    assigned = 0
    for i in range(1, stages + 1):
        d = 1 << i
        for j in range(j_used + 1, j_used + 2 * d + 1):
            emit(j)
        assigned += 2 * d
        j_used += 2 * d
        j_star = j_used + 1
        j_used += 1
        run_exp = j_star + i
        for j in range(j_star + 1, j_star + i + 1):  # forward terms >= diffused value
            emit(j)
        assigned += i
        j_used += i
        emit(run_exp, d)
        assigned += d
        k_start = assigned - d  # the copied q-term opens the run
        runs.append(DiffusionRun(i, d, run_exp, k_start, run_exp - d - 2))
    float_levels = [(-float(e), c) for e, c in levels]
    return float_levels, runs, float(-j_used)


@pytest.mark.parametrize("stages", range(1, 17))
def test_diffusion_matches_per_term_rebuild(stages):
    levels, runs, beyond = diffusion_by_emit(stages)
    dist = make_distribution(parse_spec(f"diffusion:stages={stages}"))
    l2, counts = dist.level_arrays()
    assert l2.dtype == counts.dtype == np.float64
    assert np.array_equal(l2, np.array([e for e, _ in levels], dtype=np.float64))
    assert np.array_equal(counts, np.array([c for _, c in levels], dtype=np.float64))
    assert dist.levels() == levels
    assert dist.runs == runs
    assert dist.beyond_prefix_log2_mass == beyond


class TestDiffusion:
    def test_leading_terms(self, diffusion14):
        want = [-1, -2, -3, -4, -6, -6, -6]
        got = [diffusion14.log_prob(k) / math.log(2) for k in range(1, 8)]
        assert got == pytest.approx(want, abs=1e-12)

    def test_second_run(self, diffusion14):
        for k in range(17, 22):
            assert diffusion14.log_prob(k) / math.log(2) == pytest.approx(-17, abs=1e-12)

    def test_non_increasing(self, diffusion14):
        l2, _ = diffusion14.level_arrays()
        assert np.all(np.diff(l2) <= 0)

    def test_run_lengths(self, diffusion14):
        # runs are exactly the levels with multiplicity > 1, of size d_i + 1
        runs = [(e, c) for e, c in zip(*diffusion14.level_arrays()) if c > 1]
        assert len(runs) == 14
        for (e, c), run in zip(runs, diffusion14.runs):
            assert c == run.d + 1
            assert -e == run.run_exponent

    def test_reciprocals_are_integers(self, diffusion14):
        # the stored exponents are exact integers in float64
        l2, counts = diffusion14.level_arrays()
        assert np.all(l2 == np.floor(l2)) and np.all(l2 < 0)
        for e, c in zip(l2.astype(np.int64).tolist(), counts.astype(np.int64).tolist()):
            reciprocal = 1 << (-e)
            assert reciprocal * c > 0

    def test_gap_between_runs(self, diffusion14):
        # strictly decreasing stretch between consecutive runs exceeds d_i + d_{i+1}
        counts = diffusion14.level_arrays()[1].tolist()
        run_pos = [i for i, c in enumerate(counts) if c > 1]
        for a, b, run in zip(run_pos, run_pos[1:], diffusion14.runs):
            singles = sum(counts[a + 1:b])
            assert singles > run.d + 2 * run.d

    def test_stage_cap(self):
        with pytest.raises(StagesExceeded):
            make_distribution(parse_spec("diffusion:stages=17"))

    def test_depth_exceeded(self, diffusion14):
        with pytest.raises(DepthExceeded):
            diffusion14.prob(diffusion14.prefix_length + 1)


class TestSpecText:
    @pytest.mark.parametrize("spec_text", ALL_SPECS)
    def test_round_trip(self, spec_text):
        spec = parse_spec(spec_text)
        assert parse_spec(format_spec(spec)) == spec

    def test_examples(self):
        s = parse_spec("power:lambda=2")
        assert s.kind is FamilyKind.POWER and s.params["lambda"] == 2.0
        s = parse_spec("finite:p=0.5;0.3;0.2")
        assert s.params["p"] == [0.5, 0.3, 0.2]

    @pytest.mark.parametrize("bad", [
        "nosuch:a=2", "geometric:a", "geometric:a=abc", "power:wat=3",
        "congregated:base=geometric:a=2", "geometric:a=2,(",
        "logpower:lambda=2,k0=abc", "logpower:lambda=2,k0=2.5", "diffusion:stages=x",
        "congregated:base=(geometric:a=2),depth=q",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(SpecParseError):
            parse_spec(bad)

    def test_empty_finite_vector_rejected(self):
        with pytest.raises(InvalidParams):
            parse_spec("finite:p=")


@pytest.mark.parametrize("bad_spec, exc", [
    ("geometric:a=1", InvalidParams),
    ("geometric:a=0.5", InvalidParams),
    ("gaussian:lambda=0", InvalidParams),
    ("power:lambda=1", NormalizationDivergent),
    ("power:lambda=0.9", NormalizationDivergent),
    ("logpower:lambda=1,k0=2", NormalizationDivergent),
    ("logpower:lambda=2,k0=1", InvalidParams),
    ("finite:p=0.5;0.6", InvalidParams),
    ("finite:p=-0.5;1.5", InvalidParams),
    ("geometric:a=inf", InvalidParams),
    ("gaussian:lambda=inf", InvalidParams),
    ("tilted:lambda=inf,r=1", InvalidParams),
    ("power:lambda=inf", InvalidParams),
    ("logpower:lambda=inf,k0=2", InvalidParams),
])
def test_parameter_validation(bad_spec, exc):
    with pytest.raises(exc):
        make_distribution(parse_spec(bad_spec))


def test_logpower_k0_defaults_to_two():
    implicit = make_distribution(parse_spec("logpower:lambda=2"))
    explicit = make_distribution(parse_spec("logpower:lambda=2,k0=2"))
    assert implicit.spec == explicit.spec
    assert implicit.norm_constant == explicit.norm_constant
    assert implicit.mass_halfwidth == explicit.mass_halfwidth
    assert np.array_equal(implicit.log_prob_block(1, 5000), explicit.log_prob_block(1, 5000))
    assert implicit.tail_mass_bound(100) == explicit.tail_mass_bound(100)


class TestProbBlocks:
    @pytest.mark.parametrize("spec_text", [s for s in ALL_SPECS if not s.startswith("finite")])
    def test_blocks_concatenate_to_exp_of_log_prob_block(self, spec_text):
        dist = make_distribution(parse_spec(spec_text))
        stop = min(100_000, (dist.prefix_length or math.inf) + 1)
        blocks = list(dist.prob_blocks(stop))
        with np.errstate(under="ignore"):
            want = np.exp(dist.log_prob_block(1, stop))
        got = np.concatenate([p for _, p in blocks])
        assert got.tobytes() == want.tobytes()

    def test_block_sizes_double_to_two_to_the_sixteen(self, geom2):
        sizes = [64 << i for i in range(11)] + [1 << 16]
        blocks = list(geom2.prob_blocks(1 + sum(sizes)))
        assert [len(p) for _, p in blocks] == sizes
        starts = np.cumsum([1] + sizes[:-1]).tolist()
        assert [start for start, _ in blocks] == starts

    def test_stop_cuts_the_last_block(self, geom2):
        assert [(start, len(p)) for start, p in geom2.prob_blocks(100)] == [(1, 64), (65, 35)]
        assert [(start, len(p)) for start, p in geom2.prob_blocks(2)] == [(1, 1)]
        assert list(geom2.prob_blocks(1)) == []

    @pytest.mark.parametrize("spec_text", [
        "diffusion:stages=14", "pairavg:base=(geometric:a=2)",
        "congregated:base=(geometric:a=2)", "finite:p=0.5;0.3;0.2",
    ])
    def test_table_walk_ends_at_its_prefix(self, spec_text):
        dist = make_distribution(parse_spec(spec_text))
        *_, (start, p) = dist.prob_blocks(1 << 30)   # no DepthExceeded
        assert start + len(p) - 1 == dist.prefix_length

    def test_caller_error_state_between_blocks(self):
        # gaussian values underflow after k = 27; the walk ignores that
        # inside, and the caller's own state holds between blocks
        dist = make_distribution(parse_spec("gaussian:lambda=1"))
        with np.errstate(under="raise"):
            for _, p in dist.prob_blocks(300):
                assert np.geterr()["under"] == "raise"
        assert p[-1] == 0.0


def test_immutability_of_spec():
    spec = parse_spec("geometric:a=2")
    with pytest.raises(AttributeError):
        spec.kind = FamilyKind.POWER


def test_logpower_block_matches_two_log_formula():
    # ln j is taken once and the sum worked in place; addition commutes
    # exactly, so the floats are those of the formula as written
    rng = np.random.default_rng(2024)
    for _ in range(40):
        lam = float(rng.uniform(1.05, 6.0))
        k0 = int(rng.integers(2, 50))
        start = int(rng.integers(1, 1 << 30))
        stop = start + int(rng.integers(1, 5000))
        dist = make_distribution(parse_spec(f"logpower:lambda={lam!r},k0={k0}"))
        js = np.arange(start, stop, dtype=np.float64) + (k0 - 1)
        want = math.log(dist.norm_constant) - (np.log(js) + lam * np.log(np.log(js)))
        assert np.array_equal(dist.log_prob_block(start, stop), want)
